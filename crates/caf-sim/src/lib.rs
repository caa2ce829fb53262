//! # caf-sim
//!
//! Paper-scale models of the evaluation workloads, executed on the
//! deterministic discrete-event simulator of `caf-des` while driving the
//! *same* termination-detection state machines as the threaded runtime
//! (`caf_core::termination`):
//!
//! * [`finish_sim`] — virtual-time `finish` wave coordination;
//! * [`chaos_model`] — the fault-injection plan, ack/retry reliable
//!   delivery by the fabric's own link machine (piggybacked acks
//!   included), and the stall outcome replayed at 4K+ images;
//! * [`uts_model`] — lifeline work stealing over up to 32 768 images
//!   (Figs. 16–18);
//! * [`ra_model`] — bunched RandomAccess with injection/service limits
//!   and GASNet-style flow control (Figs. 13–14);
//! * [`pc_model`] — the producer-consumer cofence micro-benchmark
//!   (Fig. 12).

#![warn(missing_docs)]

pub mod chaos_model;
pub mod finish_sim;
pub mod pc_model;
pub mod ra_model;
pub mod uts_model;

pub use chaos_model::{run_chaos_sim, ChaosOutcome, ChaosSimConfig, ChaosSimReport};
pub use finish_sim::FinishSim;
pub use pc_model::{run_pc, PcConfig, PcResult, SyncVariant};
pub use ra_model::{run_ra_fs_sim, run_ra_gup_sim, RaSimConfig, RaSimResult};
pub use uts_model::{run_uts_sim, UtsSimConfig, UtsSimResult};
