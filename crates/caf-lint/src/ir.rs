//! The plan IR: a loop-free description of an SPMD program's
//! asynchronous structure, precise enough for the four static analyses
//! and small enough for the model checker to explore exhaustively.
//!
//! A [`Plan`] declares coarrays, events, spawnable functions, and a
//! sequence of top-level blocks. Each block either applies to every
//! image (`all`) or to one rank (`image n`); an image's *program* is the
//! concatenation of the blocks that apply to it, in source order. This
//! mirrors how SPMD sources read: shared structure once, divergent roles
//! guarded by rank tests.
//!
//! Statements are deliberately loop-free: plans model one iteration (or
//! a bounded unrolling) of the program's communication skeleton, which
//! keeps both the static happens-before relation and the `caf-check`
//! schedule exploration decidable.
//!
//! [`Plan::lower`] flattens a plan into per-image [`Ctx`] step sequences (plus
//! one symbolic context per spawnable function) with every copy's local
//! access class precomputed through the paper's classification: a local
//! source *reads* local memory, a local destination *writes* it, both
//! sides local is read-write, neither is a third-party copy with no
//! local obligation. The analyses and the dynamic explorer both consume
//! this one lowering, so the two semantics cannot drift on
//! classification.

use std::collections::BTreeMap;
use std::fmt;

use caf_core::cofence::{CofenceSpec, LocalAccess};

/// Where a remote endpoint, spawn, or event post lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Target {
    /// An absolute image rank.
    Abs(usize),
    /// A rank relative to the executing image (`+k`/`-k`, modulo `p`).
    Rel(i64),
}

impl Target {
    /// Resolves the target against the executing image.
    pub fn resolve(self, me: usize, images: usize) -> usize {
        match self {
            Target::Abs(n) => n % images,
            Target::Rel(k) => {
                let p = images as i64;
                (((me as i64 + k) % p + p) % p) as usize
            }
        }
    }
}

impl fmt::Display for Target {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Target::Abs(n) => write!(f, "{n}"),
            Target::Rel(k) if *k >= 0 => write!(f, "+{k}"),
            Target::Rel(k) => write!(f, "{k}"),
        }
    }
}

/// One endpoint of an asynchronous copy: a named coarray, local to the
/// executing image or on a target image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemRef {
    /// Declared coarray name.
    pub var: String,
    /// `None` = the executing image's segment; `Some` = a remote segment.
    pub image: Option<Target>,
}

impl MemRef {
    /// A local segment reference.
    pub fn local(var: &str) -> Self {
        MemRef { var: var.to_string(), image: None }
    }

    /// A remote segment reference.
    pub fn at(var: &str, t: Target) -> Self {
        MemRef { var: var.to_string(), image: Some(t) }
    }
}

impl fmt::Display for MemRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.image {
            None => write!(f, "{}", self.var),
            Some(t) => write!(f, "{}@{}", self.var, t),
        }
    }
}

/// An event reference: the named event on the executing image or on a
/// target image (`notify`/`post` may signal a remote image's instance).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventRef {
    /// Declared event name.
    pub event: String,
    /// `None` = the executing image's instance.
    pub image: Option<Target>,
}

impl fmt::Display for EventRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.image {
            None => write!(f, "{}", self.event),
            Some(t) => write!(f, "{}@{}", self.event, t),
        }
    }
}

/// One plan statement. `line` is the source line for diagnostics (0 for
/// builder-made plans).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stmt {
    /// Statement payload.
    pub kind: StmtKind,
    /// 1-based source line, or 0 when built programmatically.
    pub line: usize,
}

/// Statement payloads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StmtKind {
    /// `copy src -> dst [notify ev]`: an asynchronous copy. Either side
    /// may be local or remote; the local-access class follows.
    Copy {
        /// Source endpoint.
        src: MemRef,
        /// Destination endpoint.
        dst: MemRef,
        /// Optional completion event, signalled when the copy's remote
        /// side has been delivered (the runtime's `CopyEvents::on_dest`).
        notify: Option<EventRef>,
    },
    /// `cofence [down=…] [up=…]`: a directional fence.
    Cofence(CofenceSpec),
    /// `finish { … }`: a team-collective finish block.
    Finish(Vec<Stmt>),
    /// `spawn f @t [notify ev]`: ship function `f` to image `t`.
    Spawn {
        /// Name of the spawned function.
        func: String,
        /// Target image.
        target: Target,
        /// Optional completion event signalled when the shipped function
        /// has executed (the runtime's `spawn_notify`).
        notify: Option<EventRef>,
    },
    /// `post ev[@t]`: signal an event instance.
    Post(EventRef),
    /// `wait ev`: block on the executing image's event instance.
    Wait(String),
    /// `barrier`: a team barrier (implies completion of the executing
    /// image's pending implicit operations — a full fence — and is a
    /// global synchronization point).
    Barrier,
    /// `read v` / `write v`: a synchronous local access to a coarray's
    /// local segment (`write: true` for stores).
    Access {
        /// Coarray accessed.
        var: String,
        /// Store (true) or load (false).
        write: bool,
    },
}

/// A top-level block: the images it applies to plus its body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// `None` = all images; `Some(n)` = only rank `n`.
    pub image: Option<usize>,
    /// The block body.
    pub body: Vec<Stmt>,
}

/// A spawnable function definition. The body runs on the spawn target.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnDef {
    /// Function name.
    pub name: String,
    /// Body statements (no `finish` or `barrier` allowed — shipped
    /// functions must not block on collectives; the lowering rejects
    /// them).
    pub body: Vec<Stmt>,
}

/// A whole plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    /// Number of images (`p ≥ 2`).
    pub images: usize,
    /// Declared coarrays.
    pub coarrays: Vec<String>,
    /// Declared events.
    pub events: Vec<String>,
    /// Spawnable functions.
    pub fns: Vec<FnDef>,
    /// Top-level blocks, in source order.
    pub blocks: Vec<Block>,
}

// ---------------------------------------------------------------------
// Lowering
// ---------------------------------------------------------------------

/// What a lowered step is, with targets still symbolic (resolved per
/// executing image by the dynamic explorer) but local-access classes
/// fixed at lowering time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepKind {
    /// An asynchronous operation (copy or spawn).
    Op(OpStep),
    /// A fence: an explicit `cofence`, or the full fence a `barrier`
    /// implies (`explicit` distinguishes them for the weakening
    /// analysis, which only tunes fences the programmer wrote).
    Fence {
        /// The fence's pass pair.
        spec: CofenceSpec,
        /// True for a source-level `cofence`.
        explicit: bool,
    },
    /// Start of finish block `id` (ordinal over the whole plan source, so
    /// the same source block has the same id on every image).
    FinishBegin(usize),
    /// End of finish block `id`.
    FinishEnd(usize),
    /// A team barrier (also lowered with a paired `Fence`; this step
    /// carries the collective rendezvous, ordinal `id`).
    Barrier(usize),
    /// Signal an event instance.
    Post(EventRef),
    /// Block on the executing image's instance of the named event.
    Wait(String),
    /// Synchronous local access.
    Access {
        /// Coarray accessed.
        var: String,
        /// Store (true) or load (false).
        write: bool,
    },
}

/// A lowered asynchronous operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpStep {
    /// How the op touches the executing image's local memory.
    pub access: LocalAccess,
    /// Local coarrays the op reads (source snapshot / argument marshal).
    pub reads: Vec<String>,
    /// Local coarrays the op writes (destination landing).
    pub writes: Vec<String>,
    /// Spawned function, for spawns.
    pub spawn: Option<(String, Target)>,
    /// Completion event, if any.
    pub notify: Option<EventRef>,
    /// Rendering for diagnostics (e.g. ``copy field -> field@+1``).
    pub desc: String,
}

/// One lowered step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Step {
    /// Step payload.
    pub kind: StepKind,
    /// Source line (0 = builder).
    pub line: usize,
    /// Finish ids enclosing this step, outermost first.
    pub finishes: Vec<usize>,
}

/// Identifies a lowered context: one image's program or one function
/// body (analyzed symbolically, instantiated per spawn by the dynamic
/// explorer).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum CtxId {
    /// The top-level program of an image.
    Program(usize),
    /// A spawnable function body.
    Func(String),
}

impl fmt::Display for CtxId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CtxId::Program(i) => write!(f, "image {i}"),
            CtxId::Func(name) => write!(f, "fn {name}"),
        }
    }
}

/// A lowered straight-line context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ctx {
    /// Who this context is.
    pub id: CtxId,
    /// The flattened steps.
    pub steps: Vec<Step>,
}

/// The full lowering of a plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lowered {
    /// Image count, copied from the plan.
    pub images: usize,
    /// One context per image, rank order.
    pub programs: Vec<Ctx>,
    /// Function bodies by name.
    pub fns: BTreeMap<String, Ctx>,
}

/// Classifies a copy's local access on the executing image. `local` says
/// whether an endpoint with a symbolic target could still be the
/// executing image — for function bodies the executor is unknown, so
/// only bare (target-free) references count as local, which is the
/// conservative reading the docs promise.
fn copy_access(src: &MemRef, dst: &MemRef) -> (LocalAccess, Vec<String>, Vec<String>) {
    let src_local = src.image.is_none();
    let dst_local = dst.image.is_none();
    let access = LocalAccess { reads: src_local, writes: dst_local };
    let reads = if src_local { vec![src.var.clone()] } else { Vec::new() };
    let writes = if dst_local { vec![dst.var.clone()] } else { Vec::new() };
    (access, reads, writes)
}

/// A lowering or validation failure, with the offending line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanError {
    /// 1-based source line (0 when built programmatically).
    pub line: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line > 0 {
            write!(f, "line {}: {}", self.line, self.msg)
        } else {
            write!(f, "{}", self.msg)
        }
    }
}

impl std::error::Error for PlanError {}

fn err<T>(line: usize, msg: impl Into<String>) -> Result<T, PlanError> {
    Err(PlanError { line, msg: msg.into() })
}

struct LowerState<'p> {
    plan: &'p Plan,
    next_finish: usize,
    next_barrier: usize,
}

impl Plan {
    /// Validates names and structure, then flattens every image program
    /// and function body into straight-line step sequences.
    pub fn lower(&self) -> Result<Lowered, PlanError> {
        if self.images < 2 {
            return err(0, format!("plan needs at least 2 images, got {}", self.images));
        }
        for b in &self.blocks {
            if let Some(n) = b.image {
                if n >= self.images {
                    return err(
                        b.body.first().map_or(0, |s| s.line),
                        format!("image {n} out of range (plan has {} images)", self.images),
                    );
                }
            }
        }
        // Finish/barrier ordinals restart from zero for every image's
        // walk over the same source blocks, so the same source construct
        // gets the same id on every image — that id is the collective
        // rendezvous key.
        let mut st = LowerState { plan: self, next_finish: 0, next_barrier: 0 };
        let mut programs = Vec::new();
        for image in 0..self.images {
            st.next_finish = 0;
            st.next_barrier = 0;
            let mut steps = Vec::new();
            for b in &self.blocks {
                let applies = b.image.is_none_or(|n| n == image);
                st.lower_body(&b.body, applies, false, &mut Vec::new(), &mut steps)?;
            }
            programs.push(Ctx { id: CtxId::Program(image), steps });
        }
        let mut fns = BTreeMap::new();
        for f in &self.fns {
            st.next_finish = usize::MAX / 2; // fn-local ids can't collide with source finishes
            st.next_barrier = usize::MAX / 2;
            let mut steps = Vec::new();
            st.lower_body(&f.body, true, true, &mut Vec::new(), &mut steps)?;
            if fns
                .insert(f.name.clone(), Ctx { id: CtxId::Func(f.name.clone()), steps })
                .is_some()
            {
                return err(0, format!("function {:?} defined twice", f.name));
            }
        }
        Ok(Lowered { images: self.images, programs, fns })
    }

    fn has_coarray(&self, v: &str) -> bool {
        self.coarrays.iter().any(|c| c == v)
    }

    fn has_event(&self, e: &str) -> bool {
        self.events.iter().any(|c| c == e)
    }

    fn has_fn(&self, f: &str) -> bool {
        self.fns.iter().any(|d| d.name == f)
    }
}

impl LowerState<'_> {
    /// Lowers `body`. When `applies` is false the walk still *numbers*
    /// finish and barrier constructs (they exist in the source and other
    /// images rendezvous on them) but emits nothing.
    fn lower_body(
        &mut self,
        body: &[Stmt],
        applies: bool,
        in_fn: bool,
        finishes: &mut Vec<usize>,
        out: &mut Vec<Step>,
    ) -> Result<(), PlanError> {
        for stmt in body {
            let line = stmt.line;
            match &stmt.kind {
                StmtKind::Copy { src, dst, notify } => {
                    for v in [&src.var, &dst.var] {
                        if !self.plan.has_coarray(v) {
                            return err(line, format!("undeclared coarray {v:?}"));
                        }
                    }
                    if let Some(ev) = notify {
                        if !self.plan.has_event(&ev.event) {
                            return err(line, format!("undeclared event {:?}", ev.event));
                        }
                    }
                    if !applies {
                        continue;
                    }
                    let (access, reads, writes) = copy_access(src, dst);
                    out.push(Step {
                        kind: StepKind::Op(OpStep {
                            access,
                            reads,
                            writes,
                            spawn: None,
                            notify: notify.clone(),
                            desc: format!("copy {src} -> {dst}"),
                        }),
                        line,
                        finishes: finishes.clone(),
                    });
                }
                StmtKind::Spawn { func, target, notify } => {
                    if !self.plan.has_fn(func) {
                        return err(line, format!("spawn of undefined function {func:?}"));
                    }
                    if let Some(ev) = notify {
                        if !self.plan.has_event(&ev.event) {
                            return err(line, format!("undeclared event {:?}", ev.event));
                        }
                    }
                    if !applies {
                        continue;
                    }
                    out.push(Step {
                        kind: StepKind::Op(OpStep {
                            // Argument marshalling reads local memory but
                            // no *named* coarray: spawns participate in
                            // fence classification, not var conflicts.
                            access: LocalAccess::READ,
                            reads: Vec::new(),
                            writes: Vec::new(),
                            spawn: Some((func.clone(), *target)),
                            notify: notify.clone(),
                            desc: format!("spawn {func} @{target}"),
                        }),
                        line,
                        finishes: finishes.clone(),
                    });
                }
                StmtKind::Cofence(spec) => {
                    if applies {
                        out.push(Step {
                            kind: StepKind::Fence { spec: *spec, explicit: true },
                            line,
                            finishes: finishes.clone(),
                        });
                    }
                }
                StmtKind::Finish(inner) => {
                    if in_fn {
                        return err(line, "finish inside a shipped function is not supported");
                    }
                    let id = self.next_finish;
                    self.next_finish += 1;
                    if applies {
                        out.push(Step {
                            kind: StepKind::FinishBegin(id),
                            line,
                            finishes: finishes.clone(),
                        });
                    }
                    finishes.push(id);
                    self.lower_body(inner, applies, in_fn, finishes, out)?;
                    finishes.pop();
                    if applies {
                        out.push(Step {
                            kind: StepKind::FinishEnd(id),
                            line,
                            finishes: finishes.clone(),
                        });
                    }
                }
                StmtKind::Barrier => {
                    if in_fn {
                        return err(line, "barrier inside a shipped function is not supported");
                    }
                    let id = self.next_barrier;
                    self.next_barrier += 1;
                    if applies {
                        // A barrier is a full fence for the image's own
                        // pending implicit operations, then a collective
                        // rendezvous.
                        out.push(Step {
                            kind: StepKind::Fence { spec: CofenceSpec::FULL, explicit: false },
                            line,
                            finishes: finishes.clone(),
                        });
                        out.push(Step {
                            kind: StepKind::Barrier(id),
                            line,
                            finishes: finishes.clone(),
                        });
                    }
                }
                StmtKind::Post(ev) => {
                    if !self.plan.has_event(&ev.event) {
                        return err(line, format!("undeclared event {:?}", ev.event));
                    }
                    if applies {
                        out.push(Step {
                            kind: StepKind::Post(ev.clone()),
                            line,
                            finishes: finishes.clone(),
                        });
                    }
                }
                StmtKind::Wait(ev) => {
                    if !self.plan.has_event(ev) {
                        return err(line, format!("undeclared event {ev:?}"));
                    }
                    if applies {
                        out.push(Step {
                            kind: StepKind::Wait(ev.clone()),
                            line,
                            finishes: finishes.clone(),
                        });
                    }
                }
                StmtKind::Access { var, write } => {
                    if !self.plan.has_coarray(var) {
                        return err(line, format!("undeclared coarray {var:?}"));
                    }
                    if applies {
                        out.push(Step {
                            kind: StepKind::Access { var: var.clone(), write: *write },
                            line,
                            finishes: finishes.clone(),
                        });
                    }
                }
            }
        }
        Ok(())
    }
}

impl Step {
    /// The op payload, when this step is an async operation.
    pub fn op(&self) -> Option<&OpStep> {
        match &self.kind {
            StepKind::Op(op) => Some(op),
            _ => None,
        }
    }

    /// Short rendering for diagnostics.
    pub fn describe(&self) -> String {
        match &self.kind {
            StepKind::Op(op) => op.desc.clone(),
            StepKind::Fence { spec, explicit: true } => spec.render(),
            StepKind::Fence { explicit: false, .. } => "barrier (implied full fence)".into(),
            StepKind::FinishBegin(_) => "finish {".into(),
            StepKind::FinishEnd(_) => "} (finish end)".into(),
            StepKind::Barrier(_) => "barrier".into(),
            StepKind::Post(ev) => format!("post {ev}"),
            StepKind::Wait(ev) => format!("wait {ev}"),
            StepKind::Access { var, write: true } => format!("write {var}"),
            StepKind::Access { var, write: false } => format!("read {var}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caf_core::cofence::Pass;

    fn s(kind: StmtKind) -> Stmt {
        Stmt { kind, line: 0 }
    }

    fn tiny_plan() -> Plan {
        Plan {
            images: 3,
            coarrays: vec!["a".into(), "b".into()],
            events: vec!["e".into()],
            fns: vec![FnDef {
                name: "f".into(),
                body: vec![s(StmtKind::Access { var: "a".into(), write: true })],
            }],
            blocks: vec![Block {
                image: None,
                body: vec![
                    s(StmtKind::Copy {
                        src: MemRef::local("a"),
                        dst: MemRef::at("b", Target::Rel(1)),
                        notify: None,
                    }),
                    s(StmtKind::Cofence(CofenceSpec::new(Pass::Writes, Pass::Any))),
                    s(StmtKind::Finish(vec![s(StmtKind::Spawn {
                        func: "f".into(),
                        target: Target::Rel(1),
                        notify: None,
                    })])),
                    s(StmtKind::Barrier),
                ],
            }],
        }
    }

    #[test]
    fn lowering_flattens_and_classifies() {
        let low = tiny_plan().lower().unwrap();
        assert_eq!(low.programs.len(), 3);
        let p0 = &low.programs[0];
        // copy, cofence, finish-begin, spawn, finish-end, fence, barrier
        assert_eq!(p0.steps.len(), 7);
        let op = p0.steps[0].op().unwrap();
        assert_eq!(op.access, LocalAccess::READ);
        assert_eq!(op.reads, vec!["a".to_string()]);
        assert!(op.writes.is_empty());
        assert!(matches!(p0.steps[2].kind, StepKind::FinishBegin(0)));
        let spawn = p0.steps[3].op().unwrap();
        assert_eq!(spawn.spawn, Some(("f".to_string(), Target::Rel(1))));
        assert_eq!(p0.steps[3].finishes, vec![0]);
        assert!(matches!(p0.steps[5].kind, StepKind::Fence { explicit: false, .. }));
        assert!(matches!(p0.steps[6].kind, StepKind::Barrier(0)));
        assert_eq!(low.fns.len(), 1);
    }

    #[test]
    fn image_guards_and_target_resolution() {
        let mut plan = tiny_plan();
        plan.blocks.push(Block {
            image: Some(2),
            body: vec![s(StmtKind::Access { var: "a".into(), write: false })],
        });
        let low = plan.lower().unwrap();
        assert_eq!(low.programs[0].steps.len(), 7);
        assert_eq!(low.programs[2].steps.len(), 8);
        assert_eq!(Target::Rel(-1).resolve(0, 3), 2);
        assert_eq!(Target::Rel(1).resolve(2, 3), 0);
        assert_eq!(Target::Abs(2).resolve(0, 3), 2);
    }

    #[test]
    fn validation_rejects_bad_plans() {
        let mut plan = tiny_plan();
        plan.blocks[0]
            .body
            .push(s(StmtKind::Access { var: "nope".into(), write: true }));
        assert!(plan.lower().is_err());

        let mut plan = tiny_plan();
        plan.fns[0].body.push(s(StmtKind::Barrier));
        assert!(plan.lower().is_err());

        let mut plan = tiny_plan();
        plan.images = 1;
        assert!(plan.lower().is_err());

        let mut plan = tiny_plan();
        plan.blocks[0].body.push(s(StmtKind::Spawn {
            func: "ghost".into(),
            target: Target::Abs(0),
            notify: None,
        }));
        assert!(plan.lower().is_err());
    }

    #[test]
    fn copy_classification_covers_all_four_shapes() {
        let put = copy_access(&MemRef::local("a"), &MemRef::at("a", Target::Abs(1)));
        assert_eq!(put.0, LocalAccess::READ);
        let get = copy_access(&MemRef::at("a", Target::Abs(1)), &MemRef::local("a"));
        assert_eq!(get.0, LocalAccess::WRITE);
        let memcpy = copy_access(&MemRef::local("a"), &MemRef::local("b"));
        assert_eq!(memcpy.0, LocalAccess::READ_WRITE);
        let third = copy_access(&MemRef::at("a", Target::Abs(1)), &MemRef::at("b", Target::Abs(2)));
        assert_eq!(third.0, LocalAccess::NONE);
        assert!(third.1.is_empty() && third.2.is_empty());
    }
}
