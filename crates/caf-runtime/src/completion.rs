//! Completion-state tracking for asynchronous operations.
//!
//! Paper Fig. 1: an asynchronous operation passes through *initiation
//! completion* (the call returned), *local data completion* (`cofence` —
//! local inputs may be overwritten, local outputs may be read), *local
//! operation completion* (events — all pair-wise communication involving
//! this image done), and *global completion* (`finish`). Each operation
//! descriptor holds one [`Completion`] cell; the comm engine and incoming
//! acknowledgements advance it monotonically.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;

/// The observable stages of one asynchronous operation, in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
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
/// initiating image, its communication thread, and AM handlers. Lock-free:
/// an advance releases what its advancer wrote (a snapshot taken, a reply
/// applied) to whoever then sees the stage reached.
#[derive(Debug)]
pub struct Completion {
    stage: AtomicU8,
}

impl Completion {
    /// A fresh cell at [`Stage::Initiated`].
    pub fn new() -> Arc<Self> {
        Arc::new(Completion { stage: AtomicU8::new(Stage::Initiated as u8) })
    }

    /// Advances to `to` if that is later than the current stage (stages
    /// never regress).
    pub fn advance(&self, to: Stage) {
        self.stage.fetch_max(to as u8, Ordering::Release);
    }

    /// Whether the operation has reached `at` (or later).
    pub fn reached(&self, at: Stage) -> bool {
        self.stage.load(Ordering::Acquire) >= at as u8
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
