//! UTS tree specifications and node expansion.
//!
//! The Unbalanced Tree Search benchmark (Olivier et al., LCPC'06) counts
//! the nodes of an implicit tree: each node's child count is a function of
//! its 20-byte descriptor, and each child's descriptor is a hash of the
//! parent's. Supported families:
//!
//! * **Geometric** — child count geometrically distributed with
//!   depth-dependent expectation `b(d)` under one of four shape
//!   functions (`LINEAR`, `EXPDEC`, `CYCLIC`, `FIXED`);
//! * **Binomial** — the root has `b0` children; every other node has
//!   `m` children with probability `q` and none otherwise.
//!
//! The standard workloads (T1, T1L, T1WL, T2, T3) are provided as
//! constructors. Their parameters are the published ones, but the root
//! state differs from the reference `rng_init` (see [`crate::rng`]), so
//! the trees have the published distribution, not the published sizes:
//! T1 here is 1,100,557 nodes, against the published 4,130,071.

use crate::rng::UtsRng;

/// Shape function of the geometric branching factor (UTS `-a`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GeoShape {
    /// `b(d) = b0 · (1 − d/gen_mx)` (UTS shape 0, the default).
    Linear,
    /// `b(d) = b0 · d^(−ln b0 / ln gen_mx)` (UTS shape 1).
    ExpDec,
    /// Cyclic variation with period `gen_mx` (UTS shape 2).
    Cyclic,
    /// Constant `b0` up to the depth limit (UTS shape 3).
    Fixed,
}

/// A tree family plus its parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TreeKind {
    /// Geometric tree (UTS `-t 1`).
    Geometric {
        /// Expected branching factor at the root (`-b`).
        b0: f64,
        /// Depth horizon (`-d`).
        gen_mx: usize,
        /// Branching-shape function (`-a`).
        shape: GeoShape,
    },
    /// Binomial tree (UTS `-t 0`).
    Binomial {
        /// Root child count (`-b`).
        b0: usize,
        /// Probability a non-root node is internal (`-q`).
        q: f64,
        /// Children of an internal non-root node (`-m`).
        m: usize,
    },
}

/// A complete workload description.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeSpec {
    /// Family and parameters.
    pub kind: TreeKind,
    /// Root RNG seed (`-r`).
    pub seed: i32,
}

/// One implicit tree node: descriptor state plus its depth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Node {
    /// The node's 20-byte splittable-RNG state.
    pub state: UtsRng,
    /// Depth below the root (root = 0).
    pub depth: u32,
}

impl TreeSpec {
    /// The T1 workload: `-t 1 -a 3 -d 10 -b 4 -r 19`, published at
    /// 4,130,071 nodes; 1,100,557 here, depth 10 (see the module doc).
    pub fn t1() -> Self {
        TreeSpec {
            kind: TreeKind::Geometric { b0: 4.0, gen_mx: 10, shape: GeoShape::Fixed },
            seed: 19,
        }
    }

    /// T1L: `-t 1 -a 3 -d 13 -b 4 -r 29`, published at 102,181,082 nodes.
    pub fn t1l() -> Self {
        TreeSpec {
            kind: TreeKind::Geometric { b0: 4.0, gen_mx: 13, shape: GeoShape::Fixed },
            seed: 29,
        }
    }

    /// T1WL, the paper's workload (§IV-C3): geometric, expected children
    /// 4, depth horizon 18, seed 19. O(10¹¹) nodes — use the simulator or
    /// a scaled spec for anything but a supercomputer.
    pub fn t1wl() -> Self {
        TreeSpec {
            kind: TreeKind::Geometric { b0: 4.0, gen_mx: 18, shape: GeoShape::Fixed },
            seed: 19,
        }
    }

    /// T3: a binomial workload `-t 0 -b 2000 -q 0.124875 -m 8 -r 42`,
    /// published at 4,112,897 nodes.
    pub fn t3() -> Self {
        TreeSpec { kind: TreeKind::Binomial { b0: 2000, q: 0.124_875, m: 8 }, seed: 42 }
    }

    /// A geometric FIXED-shape tree scaled by depth — the knob the
    /// benches use to fit paper-shaped workloads in laptop budgets.
    pub fn geo_fixed(b0: f64, gen_mx: usize, seed: i32) -> Self {
        TreeSpec { kind: TreeKind::Geometric { b0, gen_mx, shape: GeoShape::Fixed }, seed }
    }

    /// The root node.
    pub fn root(&self) -> Node {
        Node { state: UtsRng::init(self.seed), depth: 0 }
    }

    /// Number of children of `node` under this spec (`uts_numChildren`).
    pub fn num_children(&self, node: &Node) -> usize {
        match self.kind {
            TreeKind::Geometric { b0, gen_mx, shape } => {
                let depth = node.depth as usize;
                let b_i = if depth == 0 {
                    b0
                } else {
                    match shape {
                        GeoShape::Fixed => {
                            if depth < gen_mx {
                                b0
                            } else {
                                0.0
                            }
                        }
                        GeoShape::Linear => {
                            if depth < gen_mx {
                                b0 * (1.0 - depth as f64 / gen_mx as f64)
                            } else {
                                0.0
                            }
                        }
                        GeoShape::ExpDec => {
                            b0 * (depth as f64).powf(-b0.ln() / (gen_mx as f64).ln())
                        }
                        GeoShape::Cyclic => {
                            if depth > 5 * gen_mx {
                                0.0
                            } else {
                                let period = (depth % gen_mx) as f64 / gen_mx as f64;
                                b0.powf(1.0 - 2.0 * (0.5 - period).abs())
                            }
                        }
                    }
                };
                if b_i <= 0.0 {
                    return 0;
                }
                // Geometric draw: floor(ln(1−u) / ln(1−p)), p = 1/(1+b).
                let p = 1.0 / (1.0 + b_i);
                let u = UtsRng::to_prob(node.state.rand());
                ((1.0 - u).ln() / (1.0 - p).ln()).floor() as usize
            }
            TreeKind::Binomial { b0, q, m } => {
                if node.depth == 0 {
                    b0
                } else {
                    let u = UtsRng::to_prob(node.state.rand());
                    if u < q {
                        m
                    } else {
                        0
                    }
                }
            }
        }
    }

    /// The `i`-th child of `node`.
    pub fn child(&self, node: &Node, i: usize) -> Node {
        Node { state: node.state.spawn(i as i32), depth: node.depth + 1 }
    }

    /// Expands `node`, pushing its children onto `out`. Returns the child
    /// count.
    pub fn expand_into(&self, node: &Node, out: &mut Vec<Node>) -> usize {
        let n = self.num_children(node);
        out.reserve(n);
        for i in 0..n {
            out.push(self.child(node, i));
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_of_t1_has_children() {
        let spec = TreeSpec::t1();
        let n = spec.num_children(&spec.root());
        assert!(n > 0, "T1's root must branch");
    }

    #[test]
    fn fixed_shape_respects_depth_horizon() {
        let spec = TreeSpec::geo_fixed(4.0, 3, 19);
        let mut node = spec.root();
        // Descend to the horizon: nodes at depth ≥ gen_mx are leaves.
        for _ in 0..3 {
            node = spec.child(&node, 0);
        }
        assert_eq!(node.depth, 3);
        assert_eq!(spec.num_children(&node), 0);
    }

    #[test]
    fn binomial_root_has_exactly_b0_children() {
        let spec = TreeSpec { kind: TreeKind::Binomial { b0: 7, q: 0.1, m: 3 }, seed: 5 };
        assert_eq!(spec.num_children(&spec.root()), 7);
        // Non-root: either m or 0.
        let c = spec.child(&spec.root(), 0);
        let n = spec.num_children(&c);
        assert!(n == 0 || n == 3);
    }

    #[test]
    fn children_are_distinct_and_deterministic() {
        let spec = TreeSpec::t1();
        let root = spec.root();
        let a = spec.child(&root, 0);
        let b = spec.child(&root, 1);
        assert_ne!(a.state, b.state);
        assert_eq!(a, spec.child(&root, 0));
        assert_eq!(a.depth, 1);
    }

    #[test]
    fn expand_into_matches_num_children() {
        let spec = TreeSpec::t1();
        let root = spec.root();
        let mut v = Vec::new();
        let n = spec.expand_into(&root, &mut v);
        assert_eq!(n, v.len());
        assert_eq!(n, spec.num_children(&root));
    }
}
