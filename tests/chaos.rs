//! Chaos stress: all primitives interleaved under an adversarial fabric —
//! real latency, non-FIFO delivery, tiny inbox capacity (heavy
//! backpressure), dedicated comm threads — checked for exact accounting.
//!
//! This is the test most likely to catch ordering bugs between the
//! progress engine, the comm pump, the finish detector, and flow control.

use caf2::{AsyncCollEvents, CommMode, NetworkModel, Runtime, RuntimeConfig, TeamRank};
use std::time::Duration;

fn chaos_cfg(seed: u64) -> RuntimeConfig {
    RuntimeConfig {
        comm_mode: CommMode::DedicatedThread,
        network: NetworkModel {
            latency: Duration::from_micros(100),
            injection_overhead: Duration::from_micros(2),
            inbox_capacity: Some(12),
            ..NetworkModel::instant()
        },
        non_fifo: true,
        seed,
        ..RuntimeConfig::default()
    }
}

/// Mixed workload: per round, every image ships increments (some
/// transitively), fires implicit puts, runs a cofence, and joins an async
/// broadcast — all inside one finish; totals must balance exactly.
#[test]
fn mixed_primitives_account_exactly() {
    for seed in 0..3u64 {
        let n = 4;
        let rounds = 6;
        let outcome = Runtime::launch(n, chaos_cfg(seed), |img| {
            let w = img.world();
            let hits = img.coarray(&w, 1, 0u64);
            let puts = img.coarray(&w, n, 0u64);
            let bcast = img.coarray(&w, 4, 0u64);
            for round in 0..rounds {
                img.finish(&w, |img| {
                    let me = img.id().index();
                    // Transitive spawn chains of length 3.
                    let h = hits.clone();
                    img.spawn(img.image((me + 1) % n), move |q| {
                        h.with_local(q.id(), |s| s[0] += 1);
                        let h2 = h.clone();
                        q.spawn(q.image((q.id().index() + 1) % q.num_images()), move |r| {
                            h2.with_local(r.id(), |s| s[0] += 1);
                            let h3 = h2.clone();
                            r.spawn(r.image((r.id().index() + 1) % r.num_images()), move |s_| {
                                h3.with_local(s_.id(), |s| s[0] += 1);
                            });
                        });
                    });
                    // Implicit puts: mark (round, me) on every peer.
                    for peer in 0..n {
                        img.put_async(
                            puts.slice(img.image(peer), me..me + 1),
                            vec![(round as u64 + 1) * 100 + me as u64],
                        );
                    }
                    img.cofence();
                    // Async broadcast of image 0's counter snapshot.
                    if me == 0 {
                        bcast.with_local(img.id(), |s| s[0] = round as u64);
                    }
                    img.broadcast_async(&w, &bcast, 0..1, TeamRank(0), AsyncCollEvents::none());
                });
                // Global completion: everyone sees this round's broadcast.
                assert_eq!(bcast.read(img.id(), 0..1), vec![round as u64]);
                // Keep a fast image's *next* round (which overwrites the
                // broadcast slot) from landing before a slow image has
                // performed the read above: nobody exits this barrier
                // until everyone has read.
                img.barrier(&w);
            }
            let mine = hits.read(img.id(), 0..1)[0];
            let put_row = puts.read(img.id(), 0..n);
            (mine, put_row)
        });
        let total_hits: u64 = outcome.iter().map(|(h, _)| h).sum();
        assert_eq!(total_hits, (n * rounds * 3) as u64, "seed {seed}: lost spawn increments");
        for (i, (_, row)) in outcome.iter().enumerate() {
            for (src, &v) in row.iter().enumerate() {
                assert_eq!(
                    v,
                    (rounds as u64) * 100 + src as u64,
                    "seed {seed}: image {i} column {src} has stale put"
                );
            }
        }
    }
}

/// Collectives stay correct while user AM traffic saturates the fabric.
#[test]
fn collectives_survive_background_storm() {
    let n = 4;
    let sums = Runtime::launch(n, chaos_cfg(7), |img| {
        let w = img.world();
        let noise = img.coarray(&w, 8, 0u64);
        let mut acc = 0i64;
        img.finish(&w, |img| {
            for k in 0..10 {
                // Noise: implicit copies to everyone.
                for peer in 0..n {
                    img.put_async(noise.slice(img.image(peer), k % 8..k % 8 + 1), vec![k as u64]);
                }
                // Interleaved collectives (matched on all images).
                acc += img.allreduce(&w, img.id().index() as i64 + k as i64, |a, b| a + b);
                let g = img.allgather(&w, k);
                assert_eq!(g, vec![k; n]);
            }
        });
        acc
    });
    let expect: i64 = (0..10).map(|k| (0..4).map(|r| r + k).sum::<i64>()).sum();
    assert!(sums.into_iter().all(|s| s == expect));
}

/// Deep nesting: finish blocks inside finish blocks on rotating
/// sub-teams, each layer verified.
#[test]
fn nested_finish_on_subteams() {
    let n = 6;
    Runtime::launch(n, chaos_cfg(3), |img| {
        let w = img.world();
        let me = img.id().index();
        let sub = img.team_split(&w, (me % 2) as u64, me as u64);
        let marks = img.coarray(&w, 2, 0u64);
        img.finish(&w, |img| {
            let m = marks.clone();
            img.spawn(img.image((me + 2) % n), move |p| {
                m.with_local(p.id(), |s| s[0] += 1);
            });
            img.finish(&sub, |img| {
                let m = marks.clone();
                let peer =
                    sub.image_of(TeamRank((sub.rank_of(img.id()).unwrap().0 + 1) % sub.size()));
                img.spawn(peer, move |p| {
                    m.with_local(p.id(), |s| s[1] += 1);
                });
            });
            // Inner finish done: the sub-team spawn landed somewhere.
        });
        // Outer finish done: both counters fully populated.
        assert_eq!(marks.read(img.id(), 0..2), vec![1, 1]);
        img.barrier(&w);
    });
}
