//! Bounded scenarios: the inputs the explorer enumerates schedules of.
//!
//! A scenario fixes *what* the program does — `p` images, a set of root
//! spawns whose shipped functions transitively spawn a bounded tree of
//! further functions, and optionally one fail-stop crash — while the
//! explorer enumerates every *order* in which the induced protocol events
//! can happen. The same [`SpawnTree`] language drives the exhaustive
//! explorer and the seeded timed scheduler in [`crate::timed`].
//!
//! The generator below produces a curated, deterministic family of
//! scenarios per `(images, depth)` bound: every rooted tree shape up to
//! the depth and node budget, each under two target assignments
//! (round-robin, which maximizes cross-image chains, and common-target,
//! which creates the sibling races termination bugs hide in), plus
//! two-root combinations and per-victim crash variants.

/// A spawn with its transitive children: delivering this message to
/// `target` executes a function there which spawns each child in turn.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpawnTree {
    /// Image (by index) on which the shipped function executes.
    pub target: usize,
    /// Functions the shipped function itself ships while executing.
    pub children: Vec<SpawnTree>,
}

/// Convenience constructor for [`SpawnTree`] literals.
pub fn node(target: usize, children: Vec<SpawnTree>) -> SpawnTree {
    SpawnTree { target, children }
}

/// A linear spawn chain visiting `targets` in order (length = `targets.len()`).
pub fn chain(targets: &[usize]) -> SpawnTree {
    let (&last, rest) = targets.split_last().expect("a chain needs at least one target");
    rest.iter().rev().fold(node(last, Vec::new()), |tree, &t| node(t, vec![tree]))
}

impl SpawnTree {
    /// Chain length of this tree as defined in §III-A3: a leaf spawn has
    /// length 1; otherwise 1 + the maximum child length.
    pub fn chain_len(&self) -> usize {
        1 + self.children.iter().map(SpawnTree::chain_len).max().unwrap_or(0)
    }

    /// Total number of spawned functions in the tree.
    pub fn total_spawns(&self) -> usize {
        1 + self.children.iter().map(SpawnTree::total_spawns).sum::<usize>()
    }
}

/// One bounded scenario: the static input the explorer closes over.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scenario {
    /// Number of images (`p`).
    pub images: usize,
    /// Root spawns: `(initiating image, spawn tree)`. The tree's root
    /// node is the message the initiator sends.
    pub roots: Vec<(usize, SpawnTree)>,
    /// Fail-stop victim, if the scenario includes a crash. The crash is a
    /// schedulable transition: the explorer tries it at every point.
    pub crash: Option<usize>,
}

impl Scenario {
    /// Scenario with no spawns and no crash (the empty finish).
    pub fn empty(images: usize) -> Self {
        Scenario { images, roots: Vec::new(), crash: None }
    }

    /// Longest spawn chain `L` counted in messages (Theorem 1's `L`):
    /// the deepest root-to-leaf path over all root trees.
    pub fn longest_chain(&self) -> usize {
        self.roots.iter().map(|(_, t)| t.chain_len()).max().unwrap_or(0)
    }

    /// Total number of messages the scenario creates.
    pub fn total_spawns(&self) -> usize {
        self.roots.iter().map(|(_, t)| t.total_spawns()).sum()
    }

    /// A short human-readable name, stable across runs.
    pub fn name(&self) -> String {
        let mut s = format!("p{}", self.images);
        if self.roots.is_empty() {
            s.push_str("-empty");
        }
        for (from, tree) in &self.roots {
            s.push_str(&format!("-{}>{}", from, tree_text(tree)));
        }
        if let Some(v) = self.crash {
            s.push_str(&format!("-crash{v}"));
        }
        s
    }
}

/// Serializes a spawn tree as `target` or `target(child,child,...)`.
pub fn tree_text(t: &SpawnTree) -> String {
    if t.children.is_empty() {
        t.target.to_string()
    } else {
        let kids: Vec<String> = t.children.iter().map(tree_text).collect();
        format!("{}({})", t.target, kids.join(","))
    }
}

/// Parses the [`tree_text`] format back into a tree.
pub fn parse_tree(s: &str) -> Result<SpawnTree, String> {
    let mut chars = s.char_indices().peekable();
    let tree = parse_node(s, &mut chars)?;
    match chars.next() {
        None => Ok(tree),
        Some((i, c)) => Err(format!("trailing '{c}' at byte {i} in spawn tree {s:?}")),
    }
}

fn parse_node(
    s: &str,
    chars: &mut std::iter::Peekable<std::str::CharIndices<'_>>,
) -> Result<SpawnTree, String> {
    let mut digits = String::new();
    while let Some(&(_, c)) = chars.peek() {
        if c.is_ascii_digit() {
            digits.push(c);
            chars.next();
        } else {
            break;
        }
    }
    if digits.is_empty() {
        return Err(format!("expected image rank in spawn tree {s:?}"));
    }
    let target: usize = digits.parse().map_err(|e| format!("bad rank {digits:?}: {e}"))?;
    let mut children = Vec::new();
    if let Some(&(_, '(')) = chars.peek() {
        chars.next();
        loop {
            children.push(parse_node(s, chars)?);
            match chars.next() {
                Some((_, ',')) => continue,
                Some((_, ')')) => break,
                other => return Err(format!("unclosed child list in {s:?} (got {other:?})")),
            }
        }
    }
    Ok(node(target, children))
}

/// Every rooted tree *shape* with at most `max_nodes` nodes and depth at
/// most `depth`, as child-count lists in canonical (sorted) order. A
/// shape is rendered target-free; assignments come later.
fn tree_shapes(depth: usize, max_nodes: usize) -> Vec<TreeShape> {
    fn gen(depth: usize, budget: usize) -> Vec<TreeShape> {
        let mut out = vec![TreeShape { children: Vec::new() }];
        if depth == 0 || budget < 2 {
            return out;
        }
        // Child lists: up to 2 subtrees (wider fans add states without new
        // orderings beyond what two siblings already race).
        let subs = gen(depth - 1, budget - 1);
        for s in &subs {
            if s.nodes() < budget {
                out.push(TreeShape { children: vec![s.clone()] });
            }
        }
        for (i, a) in subs.iter().enumerate() {
            for b in subs.iter().skip(i) {
                if 1 + a.nodes() + b.nodes() <= budget {
                    out.push(TreeShape { children: vec![a.clone(), b.clone()] });
                }
            }
        }
        out
    }
    gen(depth, max_nodes)
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct TreeShape {
    children: Vec<TreeShape>,
}

impl TreeShape {
    fn nodes(&self) -> usize {
        1 + self.children.iter().map(TreeShape::nodes).sum::<usize>()
    }

    /// Assigns targets round-robin along a depth-first walk, starting
    /// after `from`: maximizes distinct images along every chain.
    fn assign_round_robin(&self, images: usize, next: &mut usize) -> SpawnTree {
        let target = *next % images;
        *next += 1;
        let children = self.children.iter().map(|c| c.assign_round_robin(images, next)).collect();
        node(target, children)
    }

    /// Assigns every node at depth `d` the image `(from + d) mod p`:
    /// siblings share a target, creating same-inbox races.
    fn assign_common(&self, images: usize, from: usize, d: usize) -> SpawnTree {
        let target = (from + d) % images;
        let children = self.children.iter().map(|c| c.assign_common(images, from, d + 1)).collect();
        node(target, children)
    }
}

/// The curated scenario family for a `(images, depth)` bound.
///
/// Includes the empty finish, every tree shape within the depth and a
/// node budget of `depth + 2` under both target assignments, a two-root
/// scenario (concurrent initiators), and — when `with_crash` — one crash
/// variant per distinct victim role (initiator, worker, bystander).
pub fn scenarios(images: usize, depth: usize, with_crash: bool) -> Vec<Scenario> {
    assert!(images >= 2, "scenarios need at least 2 images");
    let mut out = vec![Scenario::empty(images)];
    let max_nodes = depth + 2;
    let mut seen: Vec<(usize, SpawnTree)> = Vec::new();
    // The root message is chain position 1, so its shape gets depth − 1
    // further levels.
    for shape in tree_shapes(depth.saturating_sub(1), max_nodes) {
        if shape.nodes() == 1 && shape.children.is_empty() && depth > 0 {
            // keep: single spawn
        }
        let mut next = 1usize;
        let rr = shape.assign_round_robin(images, &mut next);
        let common = shape.assign_common(images, 0, 1);
        for tree in [rr, common] {
            if seen.iter().any(|(_, t)| *t == tree) {
                continue;
            }
            seen.push((0, tree.clone()));
            out.push(Scenario { images, roots: vec![(0, tree)], crash: None });
        }
    }
    // Concurrent initiators: two single-spawn roots racing from different
    // images (the minimal multi-initiator finish).
    if depth >= 1 {
        out.push(Scenario {
            images,
            roots: vec![(0, node(1 % images, vec![])), (1 % images, node(0, vec![]))],
            crash: None,
        });
    }
    if with_crash {
        // Crash variants of a representative chain: victim is the
        // initiator, the mid-chain worker, or an idle bystander.
        let chain_scenario = out
            .iter()
            .find(|s| !s.roots.is_empty() && s.longest_chain() >= depth.clamp(1, 2))
            .cloned()
            .unwrap_or_else(|| out[0].clone());
        let mut victims: Vec<usize> = vec![0, 1 % images];
        if images > 2 {
            victims.push(images - 1);
        }
        victims.dedup();
        for v in victims {
            let mut s = chain_scenario.clone();
            s.crash = Some(v);
            out.push(s);
        }
        // And a crash on the empty finish (pure detection, no work).
        let mut s = Scenario::empty(images);
        s.crash = Some(1 % images);
        out.push(s);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_helper_builds_linear_trees() {
        let t = chain(&[1, 2, 3]);
        assert_eq!(t.chain_len(), 3);
        assert_eq!(t.total_spawns(), 3);
        assert_eq!(t.target, 1);
        assert_eq!(t.children[0].target, 2);
        assert_eq!(t.children[0].children[0].target, 3);
    }

    #[test]
    fn tree_text_round_trips() {
        for txt in ["1", "1(2)", "1(2(0),1)", "2(3(4(0)),1)"] {
            let t = parse_tree(txt).unwrap();
            assert_eq!(tree_text(&t), txt);
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_tree("").is_err());
        assert!(parse_tree("1(2").is_err());
        assert!(parse_tree("1)x").is_err());
        assert!(parse_tree("(1)").is_err());
    }

    #[test]
    fn generator_is_deterministic_and_bounded() {
        let a = scenarios(3, 2, true);
        let b = scenarios(3, 2, true);
        assert_eq!(a, b);
        assert!(a.len() > 4);
        for s in &a {
            assert!(s.longest_chain() <= 2);
            assert!(s.total_spawns() <= 4);
        }
    }

    #[test]
    fn generator_includes_the_adversarial_fanout() {
        // The same-target sibling fan-out is the shape the merged-epoch
        // bug needs; make sure the curated family contains one.
        let all = scenarios(3, 2, false);
        assert!(
            all.iter().any(|s| s.roots.iter().any(|(_, t)| {
                t.children.len() == 2 && t.children[0].target == t.children[1].target
            })),
            "no same-target fan-out in {:?}",
            all.iter().map(Scenario::name).collect::<Vec<_>>()
        );
    }

    #[test]
    fn names_distinguish_scenarios() {
        let all = scenarios(4, 3, true);
        let mut names: Vec<String> = all.iter().map(Scenario::name).collect();
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate scenario names");
    }
}
