//! Distributed termination detection for `finish` (paper §III-A) plus the
//! baseline algorithms the paper compares against (§V).
//!
//! * [`EpochDetector`] — the paper's algorithm (Fig. 7): cumulative
//!   counters over wave-numbered epochs, a local quiescence precondition, and
//!   repeated synchronous team allreduces of `sent − completed`. Its
//!   `wait_for_quiescence` switch turns the precondition off, yielding the
//!   "algorithm w/o upper bound" that Fig. 18 shows needs ~2× the rounds.
//! * [`FourCounterDetector`] — Mattern's four-counter wave algorithm as
//!   used by AM++: reduces `(Σsent, Σreceived)` and terminates when two
//!   consecutive waves agree and balance; always pays one extra wave.
//! * [`CentralizedDetector`] — X10-style vector counting: every image
//!   sends a per-place spawn/completion vector to the finish home on
//!   quiesce; the home detects a zero sum. Scales as `O(p²)` state at one
//!   place — the bottleneck §V describes.
//! * [`BarrierDetector`] — the *incorrect* strawman of Fig. 5: wait for
//!   locally initiated work, then barrier. `caf-check` drives it as one
//!   more wave family and catches it declaring termination while a
//!   transitively shipped function is still in flight.
//!
//! All detectors are pure state machines; the threaded runtime, the
//! discrete-event simulator, and `caf-check`'s world model (exhaustive
//! and timed) drive the same code.

mod barrier;
mod centralized;
mod epoch_detector;
mod four_counter;

pub use barrier::BarrierDetector;
pub use centralized::{CentralizedDetector, CentralizedHome, VectorReport};
pub use epoch_detector::{EpochCounters, EpochDetector};
pub use four_counter::FourCounterDetector;

/// Outcome of one reduction wave.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaveDecision {
    /// Global termination detected: every message sent under the finish
    /// has been delivered and completed.
    Terminated,
    /// Work may remain; run another wave.
    Continue,
    /// A contributor fail-stopped: the finish can never terminate
    /// normally, so the wave aborts and the runtime surfaces
    /// `ImageFailed` instead of waiting on the dead image forever.
    Poisoned,
}

/// Contribution of one image to one reduction wave. Wave-based detectors
/// reduce element-wise sums of these vectors; unused lanes stay zero.
pub type Contribution = [i64; 2];

/// A wave-based termination detector: a per-image state machine driven by
/// message lifecycle callbacks and synchronous element-wise-sum reduction
/// waves. The same instance is reused across all waves of one `finish`
/// block.
pub trait WaveDetector {
    /// Records an outgoing message; returns the wave tag it must carry.
    /// Only [`EpochDetector`] reads tags: it tags with the number of waves
    /// its image has entered. The others return their wave count.
    fn on_send(&mut self) -> u32;
    /// Delivery acknowledgement for a message this image sent.
    fn on_delivered(&mut self);
    /// A message arrived at this image.
    fn on_receive(&mut self);
    /// A received message tagged `tag` finished executing locally.
    fn on_complete(&mut self, tag: u32);
    /// Whether this image may enter the next reduction wave now.
    fn ready(&self) -> bool;
    /// Enters a wave, returning this image's contribution to the sum.
    fn enter_wave(&mut self) -> Contribution;
    /// Exits a wave given the element-wise global sum; returns a decision.
    /// Every image of the team receives the same sum, so every image
    /// reaches the same decision — the property that makes the final wave
    /// double as the `end finish` barrier.
    fn exit_wave(&mut self, reduced: Contribution) -> WaveDecision;
    /// Number of waves this image has completed.
    fn waves(&self) -> usize;
    /// Marks `image` as fail-stopped. The detector must become
    /// [`ready`](Self::ready) immediately (the dead image will never
    /// deliver the acks/completions quiescence waits for) and every
    /// subsequent [`exit_wave`](Self::exit_wave) must decide
    /// [`WaveDecision::Poisoned`].
    fn poison(&mut self, image: usize);
    /// The first fail-stopped image this detector was told about, if any.
    fn poisoned_by(&self) -> Option<usize>;
}
