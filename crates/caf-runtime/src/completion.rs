//! Completion-state tracking for asynchronous operations.
//!
//! Paper Fig. 1: an asynchronous operation passes through *initiation
//! completion* (the call returned), *local data completion* (`cofence` —
//! local inputs may be overwritten, local outputs may be read), *local
//! operation completion* (events — all pair-wise communication involving
//! this image done), and *global completion* (`finish`). Each operation
//! descriptor holds one [`Completion`] cell; the comm engine and incoming
//! acknowledgements advance it monotonically.

use std::sync::Arc;

use parking_lot::Mutex;

/// The observable stages of one asynchronous operation, in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    /// The initiating call has returned; the operation is queued.
    Initiated,
    /// Local buffers are out of play: inputs may be overwritten, outputs
    /// may be read (what `cofence` waits for).
    LocalData,
    /// All pair-wise communication involving the initiating image is done
    /// (what an explicit event signals).
    LocalOp,
}

/// A monotonically advancing completion cell, shared between the
/// initiating image, its communication thread, and AM handlers.
#[derive(Debug)]
pub struct Completion {
    stage: Mutex<Stage>,
}

impl Completion {
    /// A fresh cell at [`Stage::Initiated`].
    pub fn new() -> Arc<Self> {
        Arc::new(Completion { stage: Mutex::new(Stage::Initiated) })
    }

    /// Advances to `to` if that is later than the current stage (stages
    /// never regress).
    pub fn advance(&self, to: Stage) {
        let mut s = self.stage.lock();
        if to > *s {
            *s = to;
        }
    }

    /// Whether the operation has reached `at` (or later).
    pub fn reached(&self, at: Stage) -> bool {
        *self.stage.lock() >= at
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stages_are_ordered() {
        assert!(Stage::Initiated < Stage::LocalData);
        assert!(Stage::LocalData < Stage::LocalOp);
    }

    #[test]
    fn advance_is_monotone() {
        let c = Completion::new();
        assert!(c.reached(Stage::Initiated));
        assert!(!c.reached(Stage::LocalData));
        c.advance(Stage::LocalOp);
        assert!(c.reached(Stage::LocalData));
        // Regression attempts are ignored.
        c.advance(Stage::LocalData);
        assert!(c.reached(Stage::LocalOp));
    }
}
