//! The `cofence` statement (paper §III-B).
//!
//! `cofence(DOWNWARD=…, UPWARD=…)` demands local data completion of the
//! *implicitly synchronized* asynchronous operations this image has
//! initiated, except for the classes the arguments let pass. The runtime
//! keeps a pending-operation list per dynamic scope (the main program, and
//! one per executing shipped function — Fig. 10's dynamic scoping);
//! `cofence` waits on the operations in the innermost scope whose class
//! the `DOWNWARD` argument constrains.
//!
//! The `UPWARD` argument is a compiler-reordering permission: in this
//! library-level runtime, later operations are initiated in program order
//! anyway, so it needs no action at run time — but it is recorded by the
//! memory-model checker (`caf_core::model`) and validated there.

use caf_core::cofence::{CofenceSpec, Pass};

use crate::completion::Stage;
use crate::image::Image;

impl Image {
    /// `cofence()` — full fence: local data completion of every pending
    /// implicit operation in the current scope.
    pub fn cofence(&self) {
        self.cofence_spec(CofenceSpec::FULL);
    }

    /// `cofence(DOWNWARD=down, UPWARD=up)` with explicit permissions.
    pub fn cofence_dir(&self, down: Pass, up: Pass) {
        self.cofence_spec(CofenceSpec::new(down, up));
    }

    /// `cofence` with a pre-built specification.
    pub fn cofence_spec(&self, spec: CofenceSpec) {
        // Partition the current scope: operations the fence constrains
        // must reach local data completion; the rest stay pending (they
        // might be constrained by a later, stricter fence).
        let must: Vec<_> = {
            let mut st = self.st.borrow_mut();
            let scope = st.pending_scopes.last_mut().expect("scope stack never empty");
            scope
                .iter()
                .filter(|op| spec.blocks_down(op.access))
                .map(|op| std::sync::Arc::clone(&op.completion))
                .collect()
        };
        for c in must {
            self.wait_until("cofence", || c.reached(Stage::LocalData));
        }
        // Garbage-collect everything that has reached local data
        // completion, whether we waited on it or it finished on its own.
        let mut st = self.st.borrow_mut();
        let scope = st.pending_scopes.last_mut().expect("scope stack never empty");
        scope.retain(|op| !op.completion.reached(Stage::LocalData));
    }

    /// Number of implicit operations currently pending in this scope
    /// (before local data completion) — used by tests.
    pub fn pending_implicit_ops(&self) -> usize {
        let st = self.st.borrow();
        st.pending_scopes.last().expect("scope stack never empty").len()
    }

    /// `sent − completed` of the innermost active finish block, if any —
    /// test/metric hook into the detector.
    pub fn finish_local_imbalance(&self) -> Option<i64> {
        let fid = self.st.borrow().ctx_stack.last().copied().flatten()?;
        Some(self.with_frame(fid, |d| d.local_imbalance()))
    }
}
