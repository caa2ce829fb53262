//! # caf2
//!
//! A Rust reproduction of *"Managing Asynchronous Operations in Coarray
//! Fortran 2.0"* (Yang, Murthy & Mellor-Crummey, IPDPS 2013): a PGAS
//! runtime with asynchronous copies, function shipping, asynchronous
//! collectives, events, and — the paper's contribution — the `finish`
//! and `cofence` synchronization constructs, plus a discrete-event
//! simulator that reruns the paper's 4K–32K-core experiments in virtual
//! time.
//!
//! This façade re-exports the member crates:
//!
//! * [`core`] — ids, teams, topologies, epochs, termination
//!   detectors, the cofence algebra, and the memory-model checker;
//! * [`net`] — the simulated interconnect;
//! * [`runtime`] — the threaded CAF 2.0 runtime;
//! * [`des`] — the discrete-event engine;
//! * [`sim`] — paper-scale workload models;
//! * [`uts`] — Unbalanced Tree Search;
//! * [`randomaccess`] — HPC Challenge RandomAccess.
//!
//! Start with [`caf_runtime::Runtime::launch`] and the `examples/`
//! directory; DESIGN.md maps every paper figure to the module and bench
//! that regenerate it.

pub mod paper_map;

pub use caf_core as core;
pub use caf_des as des;
pub use caf_net as net;
pub use caf_runtime as runtime;
pub use caf_sim as sim;
pub use randomaccess;
pub use uts;

pub use caf_runtime::{
    AsyncCollEvents, AsyncOp, CoEvent, CoSlice, Coarray, CofenceSpec, CommMode, CopyEvents, Event,
    Image, LocalAccess, LocalArray, NetworkModel, Pass, Runtime, RuntimeConfig, Team, TeamRank,
};
