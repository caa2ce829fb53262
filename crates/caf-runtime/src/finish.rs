//! The `finish` construct (paper §III-A).
//!
//! `finish(team) … end finish` is collective: every team member enters a
//! matching block, and `end finish` blocks until *global completion* of
//! every asynchronous operation initiated inside the block by any member —
//! including transitively spawned shipped functions, the case a plain
//! barrier provably misses (paper Fig. 5).
//!
//! The engine is the epoch termination detector from `caf-core`: every
//! message sent under the block is epoch-tagged; at `end finish` each
//! image loops — wait for local quiescence, synchronous team
//! `allreduce(SUM, sent − completed)`, check for zero — at most `L + 1`
//! waves (Theorem 1). The final wave doubles as the closing barrier.

use caf_core::ids::FinishId;
use caf_core::termination::{WaveDecision, WaveDetector};
use caf_core::topology::Team;
use caf_core::trace::TraceEvent;

use crate::image::Image;
use crate::state::ImageState;

impl Image {
    /// Runs `body` inside a finish block over `team`, then blocks until
    /// global completion of all asynchronous operations initiated within
    /// (by any member, transitively). Returns `body`'s value.
    ///
    /// Blocks may be nested (inner teams may differ); operations are
    /// attributed to the innermost enclosing block. A shipped function
    /// executes under the finish block of its `spawn`, wherever it runs
    /// (dynamic scoping) — so work it spawns is tracked too.
    ///
    /// # Panics
    /// Panics if this image is not a member of `team`, or if `body`
    /// panics.
    pub fn finish<R>(&self, team: &Team, body: impl FnOnce(&Image) -> R) -> R {
        assert!(
            team.rank_of(self.id()).is_some(),
            "finish is collective: {} must be a member of {}",
            self.id(),
            team.id()
        );
        let fid = {
            let seq = ImageState::bump(&mut self.st.borrow_mut().finish_seq, team.id());
            FinishId { team: team.id(), seq }
        };
        // Materialize the frame and enter the attribution context.
        self.with_frame(fid, |_| ());
        self.st.borrow_mut().ctx_stack.push(Some(fid));
        let result = body(self);
        self.st.borrow_mut().ctx_stack.pop();

        // Termination-detection loop (Fig. 7).
        loop {
            self.wait_until("finish", || self.with_frame(fid, |d| d.ready()));
            let contribution = self.with_frame(fid, |d| d.enter_wave());
            self.trace(|| TraceEvent::EnterWave {
                image: self.id().index(),
                finish: Image::trace_fid(fid),
                contribution,
            });
            let sum = self.allreduce(team, contribution, |a, b| [a[0] + b[0], a[1] + b[1]]);
            let decision = self.with_frame(fid, |d| d.exit_wave(sum));
            self.trace(|| TraceEvent::ExitWave {
                image: self.id().index(),
                finish: Image::trace_fid(fid),
                sum,
                terminated: decision == WaveDecision::Terminated,
            });
            match decision {
                WaveDecision::Terminated => break,
                WaveDecision::Continue => {}
                // A member died: the block can never complete. Normally
                // the failure aborts this image inside the allreduce;
                // this arm catches a poison that landed between waves.
                WaveDecision::Poisoned => {
                    self.check_abort("finish", None);
                    unreachable!("poisoned finish without a registered failure");
                }
            }
        }
        {
            let mut st = self.st.borrow_mut();
            // Drop the frame. A straggler delivery ack can recreate an
            // empty frame after this (only in the no-upper-bound variant,
            // which doesn't wait for acks); that costs one map entry and
            // is harmless.
            let detector = st.finish_frames.remove(&fid).expect("every wave ran on this frame");
            st.last_finish_waves = detector.waves();
        }
        result
    }
}
