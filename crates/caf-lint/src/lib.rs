//! caf-lint: a static happens-before and fence-placement analyzer for
//! CAF 2.0 async plans.
//!
//! The paper's asynchrony model hands the programmer a four-point
//! completion ladder — initiation, local data completion (`cofence`),
//! local operation completion (events), global completion (`finish`) —
//! and with it a matching ladder of ways to go wrong: fence the wrong
//! direction and a buffer is reused mid-flight; fence too strongly and
//! the overlap the asynchrony bought is thrown away; forget the
//! `finish` and nothing ever guarantees a shipped function ran; wait on
//! an event inside the `finish` that must complete before the post can
//! happen, and the program deadlocks. This crate catches all four
//! *statically*, on a loop-free plan describing the program's
//! communication skeleton.
//!
//! Three frontends produce plans: a fluent [`builder`], a textual
//! format ([`parse`](mod@parse)), and reconstruction from `caf-core` protocol
//! traces ([`from_trace`]). One lowering ([`ir`]) flattens a plan into
//! per-image step sequences with every operation's local-access class
//! precomputed; the happens-before engine ([`hb`]) and the four
//! analyses ([`diag`]) run over that. The companion `caf-check` crate
//! replays the same lowering through exhaustive schedule exploration,
//! as a differential oracle for the diagnostics reported here.

pub mod builder;
pub mod diag;
pub mod from_trace;
pub mod hb;
pub mod ir;
pub mod parse;

pub use builder::PlanBuilder;
pub use diag::{lint, lint_lowered, render, Analysis, Diagnostic, Severity};
pub use from_trace::plan_from_trace;
pub use ir::{Lowered, Plan, PlanError};
pub use parse::parse;
