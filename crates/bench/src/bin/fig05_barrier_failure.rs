//! **Figure 5** (semantics): why a barrier cannot detect termination.
//!
//! Paper: image p ships f1 to q; f1 ships f2 to r; p enters the barrier
//! once f1 completes, and r may exit the barrier before f2 arrives — so
//! a barrier-based scheme declares termination with work in flight. This
//! binary plays the exact schedule on `caf-check`'s world with the timed
//! scheduler, against the barrier strawman (whose early exit trips the
//! world's safety oracle) and against the epoch `finish` detector (which
//! is sound), over a sweep of execution delays and transitive-chain
//! depths.

use bench::print_table;
use caf_check::mutation::Family;
use caf_check::scenario::{chain, Scenario};
use caf_check::timed::{self, Timing};
use caf_check::ViolationKind;

fn main() {
    let mut rows = Vec::new();
    for depth in [2usize, 3, 5] {
        for exec_delay in [2u64, 5, 20] {
            let timing = Timing { net_delay: 1, ack_delay: 1, exec_delay, ..Timing::default() };
            let targets: Vec<usize> = (1..=depth).collect();
            let scenario =
                Scenario { images: depth + 1, roots: vec![(0, chain(&targets))], crash: None };

            let barrier = timed::run(&scenario, Family::Barrier, &timing);
            let wrong = barrier.violation.as_ref().map(|v| v.kind);
            assert!(wrong.is_none_or(|k| k == ViolationKind::Safety), "{wrong:?}");
            // waves() panics if finish were unsound.
            let waves = timed::run(&scenario, Family::EpochStrict, &timing).waves();

            rows.push(vec![
                depth.to_string(),
                exec_delay.to_string(),
                barrier.world.outstanding().to_string(),
                if wrong.is_some() { "WRONG" } else { "ok" }.to_string(),
                waves.to_string(),
                format!("≤ {}", depth + 1),
            ]);
        }
    }
    print_table(
        "Fig. 5: barrier-based detection vs finish on transitive spawn chains",
        &[
            "chain L",
            "exec delay",
            "outstanding at barrier exit",
            "barrier verdict",
            "finish waves",
            "Theorem 1 bound",
        ],
        &rows,
    );
    println!(
        "The barrier declares termination with shipped functions still outstanding on every \
         schedule above; finish never does (the harness asserts soundness) and stays within \
         the L+1 wave bound."
    );
}
