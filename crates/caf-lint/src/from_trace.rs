//! The third frontend: reconstruct a [`Plan`] from a `caf-core`
//! [`TraceRecorder`](caf_core::trace::TraceRecorder) capture, so executions of the *real* threaded
//! runtime can be pushed through the same static analyses as
//! hand-written plans.
//!
//! A protocol trace is a linearization of detector-level events: sends
//! of active messages under a dynamic finish block, their receptions,
//! completions, and the termination waves. That is exactly the
//! observable footprint of the plan fragment
//!
//! ```text
//! image i { finish { spawn am @t … } }
//! ```
//!
//! so reconstruction maps each dynamic finish block to one finish
//! construct per sending image, and each `Send` to a `spawn` of a
//! synthetic (empty-bodied) active-message function. Send events do not
//! record their receiver, but every reception does record its image, so
//! targets are recovered by greedy order-matching: the *k*-th send under
//! a finish block is paired with the *k*-th reception under it. Any
//! valid pairing yields the same analysis results — the synthetic
//! handler body is empty, so only the spawn *structure* (how many, from
//! whom, under which finish) is analyzed.
//!
//! What the reconstruction checks, therefore, is finish coverage of
//! everything the runtime actually shipped: a well-formed capture lints
//! clean, and a capture with sends outside any finish block (impossible
//! through the public API, by construction) would be flagged.

use caf_core::trace::TraceEvent;

use crate::ir::{Block, FnDef, Plan, Stmt, StmtKind, Target};

/// Name of the synthetic active-message function every reconstructed
/// spawn targets.
pub const AM_FN: &str = "am_handler";

/// Reconstructs a plan from a recorded protocol trace. Always succeeds:
/// an empty trace yields an empty (but valid, two-image) plan.
pub fn plan_from_trace(events: &[TraceEvent]) -> Plan {
    let images = events.iter().map(|e| e.image() + 1).max().unwrap_or(0).max(2);
    // Dynamic finish keys in order of first appearance.
    let mut keys: Vec<(u64, u64)> = Vec::new();
    for ev in events {
        if !keys.contains(&ev.finish()) {
            keys.push(ev.finish());
        }
    }
    let mut blocks = Vec::new();
    for key in keys {
        // Receivers under this block, in linearization order, consumed
        // greedily by the sends.
        let mut receivers: std::collections::VecDeque<usize> = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Receive { image, finish, .. } if *finish == key => Some(*image),
                _ => None,
            })
            .collect();
        // spawns[i] = targets image i shipped to under this block.
        let mut spawns: Vec<Vec<usize>> = vec![Vec::new(); images];
        for ev in events {
            let TraceEvent::Send { image, finish, .. } = ev else { continue };
            if *finish != key {
                continue;
            }
            // A completed capture has one reception per send; a
            // truncated one falls back to the ring neighbor, which
            // preserves the spawn count (the analyzed quantity).
            let target = receivers.pop_front().unwrap_or((image + 1) % images);
            spawns[*image].push(target);
        }
        for (image, targets) in spawns.into_iter().enumerate() {
            if targets.is_empty() {
                continue;
            }
            let body = targets
                .into_iter()
                .map(|t| Stmt {
                    kind: StmtKind::Spawn {
                        func: AM_FN.to_string(),
                        target: Target::Abs(t),
                        notify: None,
                    },
                    line: 0,
                })
                .collect();
            blocks.push(Block {
                image: Some(image),
                body: vec![Stmt { kind: StmtKind::Finish(body), line: 0 }],
            });
        }
    }
    Plan {
        images,
        coarrays: Vec::new(),
        events: Vec::new(),
        fns: vec![FnDef { name: AM_FN.to_string(), body: Vec::new() }],
        blocks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn send(image: usize, finish: (u64, u64)) -> TraceEvent {
        TraceEvent::Send { image, finish, wave: 0 }
    }

    fn recv(image: usize, finish: (u64, u64)) -> TraceEvent {
        TraceEvent::Receive { image, finish }
    }

    #[test]
    fn sends_become_finish_covered_spawns() {
        let trace = vec![
            send(0, (0, 0)),
            recv(1, (0, 0)),
            send(1, (0, 0)),
            recv(2, (0, 0)),
            send(2, (0, 1)), // a second finish block
            recv(0, (0, 1)),
        ];
        let plan = plan_from_trace(&trace);
        assert_eq!(plan.images, 3);
        assert_eq!(plan.blocks.len(), 3); // (f0,img0), (f0,img1), (f1,img2)
        let diags = crate::lint(&plan).unwrap();
        assert!(diags.is_empty(), "{diags:?}");
        // Targets recovered from the receive stream.
        let StmtKind::Finish(body) = &plan.blocks[0].body[0].kind else { panic!() };
        assert_eq!(
            body[0].kind,
            StmtKind::Spawn { func: AM_FN.into(), target: Target::Abs(1), notify: None }
        );
    }

    #[test]
    fn empty_trace_yields_a_valid_plan() {
        let plan = plan_from_trace(&[]);
        assert!(plan.lower().is_ok());
        assert!(crate::lint(&plan).unwrap().is_empty());
    }

    #[test]
    fn truncated_trace_still_counts_every_send() {
        // Two sends, only one reception recorded: the second target
        // falls back but the spawn is not dropped.
        let trace = vec![send(0, (0, 0)), send(0, (0, 0)), recv(1, (0, 0))];
        let plan = plan_from_trace(&trace);
        let StmtKind::Finish(body) = &plan.blocks[0].body[0].kind else { panic!() };
        assert_eq!(body.len(), 2);
    }
}
