//! # caf-runtime
//!
//! A threaded Coarray Fortran 2.0 runtime: the paper's programming model —
//! asynchronous copies, function shipping, asynchronous collectives,
//! events, `finish`, and `cofence` — as a Rust library. Process images are
//! OS threads communicating through the simulated interconnect of
//! `caf-net`; the synchronization semantics (epoch-tagged termination
//! detection, completion stages, directional fences) come from `caf-core`
//! and are shared verbatim with the paper-scale simulator.
//!
//! ## Quick start
//!
//! ```
//! use caf_core::config::RuntimeConfig;
//! use caf_runtime::Runtime;
//!
//! // Four SPMD images: everyone ships an increment to its neighbour;
//! // finish guarantees global completion before anyone reads.
//! let totals = Runtime::launch(4, RuntimeConfig::testing(), |img| {
//!     let world = img.world();
//!     let counters = img.coarray(&world, 1, 0i64);
//!     img.finish(&world, |img| {
//!         let target = img.image((img.id().index() + 1) % img.num_images());
//!         let c = counters.clone();
//!         img.spawn(target, move |peer| {
//!             c.with_local(peer.id(), |seg| seg[0] += 1);
//!         });
//!     });
//!     let mine = counters.with_local(img.id(), |seg| seg[0]);
//!     img.allreduce(&world, mine, |a, b| a + b)
//! });
//! assert_eq!(totals, vec![4, 4, 4, 4]);
//! ```

#![warn(missing_docs)]

pub mod abort;
pub mod async_coll;
pub mod coarray;
mod cofence;
mod collective;
pub mod completion;
pub mod copy;
pub mod event;
mod failure;
mod finish;
pub mod image;
mod msg;
mod runtime;
mod state;
mod watchdog;

pub use abort::{FailureReport, FinishDiag, ImageReport, RuntimeError, StallReport};
pub use async_coll::{AsyncCollEvents, AsyncScalar};
pub use caf_core::cofence::{CofenceSpec, LocalAccess, Pass};
pub use caf_core::config::{CommMode, NetworkModel, RuntimeConfig};
pub use caf_core::failure::FailureParams;
pub use caf_core::fault::{FaultPlan, RetryPolicy, StallWindow};
pub use caf_core::ids::{EventId, ImageId, TeamRank};
pub use caf_core::topology::Team;
pub use coarray::{CoSlice, Coarray, LocalArray};
pub use completion::Stage;
pub use copy::{AsyncOp, CopyEvents};
pub use event::{CoEvent, Event};
pub use image::Image;
pub use runtime::Runtime;
