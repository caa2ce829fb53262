//! # caf-net
//!
//! The simulated interconnect the CAF 2.0 runtime runs over — the stand-in
//! for GASNet on a Cray Gemini network (see DESIGN.md substitution table):
//!
//! * [`inbox`] — timed per-image message queues (latency is modelled by
//!   delivery deadlines, not sleeping senders);
//! * [`fabric`] — the transport: the wire cost model (unordered unless
//!   configured FIFO, injection/latency/bandwidth costs), bounded-inbox
//!   backpressure (the GASNet flow-control stand-in), fault injection,
//!   and crash drops. [`Fabric::new`] is a lossless raw wire with no
//!   protocol state; [`Fabric::with_chaos`] adds the two layers below;
//! * [`reliable`] — the ack/retry/dedup sublayer every remote message
//!   rides under fault injection: per-link sequence windows, receiver
//!   dedup, cumulative per-link acks (flushed or piggybacked), backoff
//!   timers;
//! * [`failure`] — opt-in heartbeat failure detection: per-image
//!   detectors fed by life signs and retry exhaustion, and the posthumous
//!   filter (see [`ConfirmedDown`]);
//! * [`pump`] — the per-image communication engine, inline or offloaded to
//!   a dedicated communication thread (paper §III-B);
//! * [`stats`] — traffic counters for benches and ablations.

#![warn(missing_docs)]

pub mod fabric;
pub mod failure;
pub mod inbox;
pub mod pump;
pub mod reliable;
pub mod stats;

pub use fabric::Fabric;
pub use failure::ConfirmedDown;
pub use inbox::Inbox;
pub use pump::{CommMode, CommPump};
pub use stats::{FabricStats, FabricTotals};
