//! # caf-des
//!
//! A deterministic discrete-event simulation engine. The paper evaluated
//! `finish`/`cofence` on 4K–32K cores of Jaguar and Hopper; this crate is
//! the substitute substrate that lets `caf-sim` execute the same
//! algorithms — the epoch termination detector, lifeline work stealing,
//! bunched RandomAccess — at those image counts in virtual time on one
//! machine.
//!
//! * [`engine`] — the time-ordered event queue (deterministic tie-breaks,
//!   no wall-clock or ambient randomness);
//! * [`net`] — the interconnect cost model in integer nanoseconds,
//!   convertible from the shared [`caf_core::config::NetworkModel`].
//!
//! Models that inject faults roll [`caf_core::fault::FaultPlan`]'s dice
//! and drive `caf_core::fault`'s reliable-link machine directly, in the
//! engine's integer nanoseconds.

#![warn(missing_docs)]

pub mod engine;
pub mod net;

pub use engine::{Engine, SimTime};
pub use net::SimNet;
