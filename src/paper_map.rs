//! # Paper-to-API map
//!
//! Where each construct of *"Managing Asynchronous Operations in Coarray
//! Fortran 2.0"* lives in this library. Section numbers refer to the
//! paper.
//!
//! ## §II-A Teams
//!
//! | paper | here |
//! |---|---|
//! | `team_world` | [`caf_runtime::Image::world`] |
//! | `team_split(color, key)` | [`caf_runtime::Image::team_split`] |
//! | relative ranks | [`caf_core::topology::Team::rank_of`] / [`caf_core::ids::TeamRank`] |
//! | coarray allocation domain | [`caf_runtime::Image::coarray`] (collective, per team) |
//!
//! ## §II-B Events
//!
//! | paper | here |
//! |---|---|
//! | event coarray declaration | [`caf_runtime::Image::coevent`] → [`caf_runtime::CoEvent::on`] |
//! | local event | [`caf_runtime::Image::event`] |
//! | `event_notify` (release) | [`caf_runtime::Image::event_notify`] |
//! | `event_wait` (acquire) | [`caf_runtime::Image::event_wait`] |
//!
//! ## §II-C1 Asynchronous copy
//!
//! `copy_async(destA[p1], srcA[p2], preE, srcE, destE)` is
//! [`caf_runtime::Image::copy_async`] with endpoints as
//! [`caf_runtime::CoSlice`]s and the three optional events in
//! [`caf_runtime::CopyEvents`]. Local (non-coarray) buffers use
//! [`caf_runtime::Image::copy_async_from`] /
//! [`caf_runtime::Image::copy_async_to`] with a
//! [`caf_runtime::LocalArray`].
//!
//! ## §II-C2 Function shipping
//!
//! `spawn foo(A[p], B(i))[p]` is [`caf_runtime::Image::spawn`]: the
//! closure executes on the target image; captured [`caf_runtime::Coarray`]
//! handles are by-reference (they address the same storage everywhere),
//! ordinary captures are by-value — the paper's argument rules.
//! `spawn(e) foo(...)[p]` is [`caf_runtime::Image::spawn_notify`].
//!
//! ## §II-C3 Asynchronous collectives
//!
//! `team_broadcast_async(A(:), root, myteam, srcE, localE)` is
//! [`caf_runtime::Image::broadcast_async`] with
//! [`caf_runtime::AsyncCollEvents`]; asynchronous reductions/barriers are
//! [`caf_runtime::Image::allreduce_async_sum`] /
//! [`caf_runtime::Image::barrier_async`]. The synchronous complements
//! (barrier, broadcast, reduce, allreduce, gather, allgather, scatter,
//! alltoall, scan, sort) are methods on [`caf_runtime::Image`] too.
//!
//! ## §III-A `finish`
//!
//! The block construct is [`caf_runtime::Image::finish`]; its engine —
//! Fig. 7's epoch algorithm — is
//! [`caf_core::termination::EpochDetector`] over
//! [`caf_core::epoch::EpochState`], with Theorem 1's `L+1` bound checked
//! by `caf-check` over every bounded schedule and property-tested on its
//! seeded timed schedules. Messages carry the sender's full wave number
//! where the paper carries its parity: images leave a wave at different
//! times, and parity would alias wave `w + 1` with `w − 1` (DESIGN.md §5,
//! decision 3). The §V baselines are
//! [`caf_core::termination::FourCounterDetector`],
//! [`caf_core::termination::CentralizedDetector`], and the deliberately
//! broken [`caf_core::termination::BarrierDetector`] (Fig. 5).
//!
//! ## §III-B `cofence`
//!
//! `cofence(DOWNWARD=…, UPWARD=…)` is [`caf_runtime::Image::cofence_dir`]
//! (or [`caf_runtime::Image::cofence`] for the full fence); the pass
//! algebra is [`caf_core::cofence::CofenceSpec`]. The relaxed memory
//! model — processor consistency, acquire/release events, directional
//! fences — is executable as [`caf_core::model`], with the paper's
//! Figs. 8–10 as unit tests.
//!
//! ## Fig. 1's completion points
//!
//! [`caf_runtime::Stage`]: `Initiated` → `LocalData` (cofence) →
//! `LocalOp` (events); global completion is the property of
//! [`caf_runtime::Image::finish`] rather than a per-op state. Handles:
//! [`caf_runtime::AsyncOp`] with
//! [`caf_runtime::Image::wait_local_data`] /
//! [`caf_runtime::Image::wait_local_op`].
//!
//! ## §IV Evaluation
//!
//! * Fig. 11/12 micro-benchmark → `caf_sim::pc_model`, `bench --bin fig12_cofence`
//! * RandomAccess (Figs. 13–14) → [`randomaccess`], `caf_sim::ra_model`
//! * UTS (Figs. 15–18) → [`uts`], `caf_sim::uts_model`
//!
//! EXPERIMENTS.md records paper-vs-measured for every figure.
