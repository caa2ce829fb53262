//! Configuration shared by the threaded runtime (`caf-runtime`) and the
//! discrete-event simulator (`caf-sim`).
//!
//! The paper's experiments ran on Cray XK6/XE6 machines over GASNet. We
//! substitute a parameterized interconnect model; the parameters below are
//! the levers that determine the *relative* cost of local data completion
//! (`cofence`), local operation completion (events), and global completion
//! (`finish`), which is what Figures 12–14 and 16–18 measure.

use std::sync::Arc;
use std::time::Duration;

pub use crate::failure::FailureParams;
pub use crate::fault::{CrashFault, FaultDecision, FaultPlan, LinkFault, RetryPolicy, StallWindow};

/// Cost model of the simulated interconnect.
///
/// A message of `n` payload bytes sent at time `t` is *delivered* (its
/// active-message handler may run at the target) no earlier than
/// `t + injection_overhead + latency + n * byte_cost`, and the sender's
/// delivery acknowledgement arrives one further `latency` later.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkModel {
    /// One-way network latency between any two distinct images.
    pub latency: Duration,
    /// Sender-side cost to inject one message (CPU occupancy).
    pub injection_overhead: Duration,
    /// Per-payload-byte serialization cost (inverse bandwidth).
    pub byte_cost: Duration,
    /// Cost to execute an active-message handler at the target, excluding
    /// the user work the handler performs.
    pub handler_overhead: Duration,
    /// Soft bound on the number of undelivered messages queued at one
    /// target inbox. Active messages an image thread initiates wait for
    /// credit, draining their own inbox meanwhile (models GASNet flow
    /// control — the Fig. 14 large-bunch anomaly); replies and
    /// communication-thread injections are admitted but still count.
    /// `None` disables backpressure.
    pub inbox_capacity: Option<usize>,
}

impl NetworkModel {
    /// A model loosely calibrated to a Gemini-class interconnect: ~1.5 µs
    /// one-way latency and no bandwidth term. Gemini's ~5 GB/s would be
    /// 0.2 ns per byte, below a `Duration`'s one-nanosecond resolution,
    /// so the per-byte cost is zero: message size never moves a delivery
    /// time under this model, and every figure recorded with it was
    /// measured that way.
    pub fn gemini_like() -> Self {
        NetworkModel {
            latency: Duration::from_nanos(1_500),
            injection_overhead: Duration::from_nanos(200),
            byte_cost: Duration::ZERO,
            handler_overhead: Duration::from_nanos(150),
            inbox_capacity: Some(512),
        }
    }

    /// A deliberately slow network (tens of µs) that makes latency effects
    /// visible in wall-clock time on a laptop-scale threaded run.
    pub fn slow_cluster() -> Self {
        NetworkModel {
            latency: Duration::from_micros(30),
            injection_overhead: Duration::from_micros(1),
            byte_cost: Duration::from_nanos(2),
            handler_overhead: Duration::from_micros(1),
            inbox_capacity: Some(256),
        }
    }

    /// Zero-latency model: useful for pure-semantics tests where timing is
    /// irrelevant and the suite should run fast.
    pub fn instant() -> Self {
        NetworkModel {
            latency: Duration::ZERO,
            injection_overhead: Duration::ZERO,
            byte_cost: Duration::ZERO,
            handler_overhead: Duration::ZERO,
            inbox_capacity: None,
        }
    }

    /// Time for the payload bytes of one message to cross the wire.
    #[inline]
    pub fn wire_time(&self, payload_bytes: usize) -> Duration {
        self.latency + self.byte_cost * payload_bytes as u32
    }
}

impl Default for NetworkModel {
    fn default() -> Self {
        NetworkModel::gemini_like()
    }
}

/// Where the work between *initiation* and *local data completion* of an
/// asynchronous operation is performed (paper §III-B).
///
/// GASNet completes local data before a non-blocking call returns, which
/// makes `cofence` pointless unless communication is offloaded; the paper
/// proposes dedicating communication threads on platforms with many
/// hardware threads (BG/Q, MIC). Both strategies are provided so the
/// trade-off is measurable (ablation `ablation_comm_thread`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CommMode {
    /// A dedicated communication thread per image snapshots source buffers
    /// and injects messages, unless the image runs its queued tasks itself
    /// while it waits; initiation is a cheap descriptor enqueue and local
    /// data completion happens strictly later.
    #[default]
    DedicatedThread,
    /// The initiating thread itself snapshots the source buffer before
    /// `copy_async` returns (GASNet-like): initiation already implies local
    /// data completion, so `cofence` degenerates to a no-op for copies.
    /// The data-plane sends skip flow control in both modes, so a bounded
    /// [`NetworkModel::inbox_capacity`] never stalls them.
    Inline,
}

/// Full configuration of a runtime or simulator instance.
///
/// The runtime's `finish` always runs the paper's algorithm, which waits
/// for local quiescence before each wave (Fig. 7 line 4); the Fig. 18
/// baseline without that wait lives in the DES and `caf-check`.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Interconnect cost model.
    pub network: NetworkModel,
    /// Communication progress strategy.
    pub comm_mode: CommMode,
    /// Seed for any randomized decisions the runtime itself makes
    /// (e.g. victim selection helpers). Workloads take their own seeds.
    pub seed: u64,
    /// If true, the fabric may deliver messages between the same pair of
    /// images out of order (the termination-detection algorithm must not
    /// assume FIFO channels — paper §III-A2 limitations discussion).
    pub non_fifo: bool,
    /// Fault-injection schedule. `None` (or an inactive plan) keeps the
    /// fabric on its zero-overhead reliable path; an active plan routes
    /// every remote message through the ack/retry delivery layer and
    /// perturbs it per the plan.
    pub faults: Option<FaultPlan>,
    /// Ack-timeout/retransmission policy of the reliable-delivery layer
    /// (only consulted when `faults` is active).
    pub retry: RetryPolicy,
    /// No-progress watchdog window: if no image makes progress for this
    /// long, the runtime dumps per-image diagnostics and aborts with
    /// `RuntimeError::Stalled` instead of hanging. `None` disables it.
    pub watchdog: Option<Duration>,
    /// Heartbeat-based fail-stop failure detection. When set, the fabric
    /// pumps heartbeats on idle links, suspects then confirms silent
    /// peers, and the runtime converts a confirmed death into
    /// `RuntimeError::ImageFailed` on every survivor instead of hanging
    /// in `finish`/collectives. `None` disables detection (a crashed
    /// image then surfaces only through the watchdog, as a stall).
    pub failure: Option<FailureParams>,
    /// Protocol trace capture. When set, every image records its
    /// detector-relevant `finish` events (sends, delivery acks,
    /// receptions, completions, reduction waves, poison) into the shared
    /// [`crate::trace::TraceRecorder`], producing a linearized schedule
    /// the `caf-check` model checker can validate. `None` (the default)
    /// records nothing and costs nothing.
    pub trace: Option<Arc<crate::trace::TraceRecorder>>,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            network: NetworkModel::default(),
            comm_mode: CommMode::default(),
            seed: 0x5eed,
            non_fifo: false,
            faults: None,
            retry: RetryPolicy::default(),
            watchdog: None,
            failure: None,
            trace: None,
        }
    }
}

impl RuntimeConfig {
    /// Configuration for fast semantics tests: instant network, inline
    /// communication, deterministic seed.
    pub fn testing() -> Self {
        RuntimeConfig {
            network: NetworkModel::instant(),
            comm_mode: CommMode::Inline,
            ..RuntimeConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_time_scales_with_bytes() {
        let m = NetworkModel {
            latency: Duration::from_micros(10),
            byte_cost: Duration::from_nanos(2),
            ..NetworkModel::instant()
        };
        assert_eq!(m.wire_time(0), Duration::from_micros(10));
        assert_eq!(m.wire_time(1000), Duration::from_micros(10) + Duration::from_micros(2));
    }

    #[test]
    fn default_model_has_backpressure() {
        let m = NetworkModel::default();
        assert!(m.inbox_capacity.is_some());
        assert!(m.latency > Duration::ZERO);
    }

    #[test]
    fn instant_model_is_free() {
        let m = NetworkModel::instant();
        assert_eq!(m.wire_time(1 << 20), Duration::ZERO);
    }
}
