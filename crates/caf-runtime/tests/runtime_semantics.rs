//! End-to-end semantics tests of the threaded CAF 2.0 runtime: events,
//! asynchronous copies at every endpoint combination, collectives,
//! function shipping, finish (including the transitive-spawn case of
//! paper Fig. 5), cofence, and async collectives — under both comm modes
//! and with latency and reordering enabled.

use caf_runtime::{
    AsyncCollEvents, CommMode, CopyEvents, LocalArray, NetworkModel, Pass, Runtime, RuntimeConfig,
    TeamRank,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::Duration;

fn cfg_fast() -> RuntimeConfig {
    RuntimeConfig::testing()
}

fn cfg_threaded() -> RuntimeConfig {
    RuntimeConfig { comm_mode: CommMode::DedicatedThread, ..RuntimeConfig::testing() }
}

fn cfg_latency() -> RuntimeConfig {
    RuntimeConfig {
        comm_mode: CommMode::DedicatedThread,
        network: NetworkModel { latency: Duration::from_micros(300), ..NetworkModel::instant() },
        non_fifo: true,
        ..RuntimeConfig::default()
    }
}

// ----------------------------------------------------------------------
// Events
// ----------------------------------------------------------------------

#[test]
fn local_event_notify_wait() {
    Runtime::launch(1, cfg_fast(), |img| {
        let ev = img.event();
        img.event_notify(ev);
        img.event_wait(ev); // must not block
        assert!(!img.event_try(ev));
    });
}

#[test]
fn remote_event_notification_via_coevent() {
    Runtime::launch(4, cfg_fast(), |img| {
        let ce = img.coevent();
        let me = img.id();
        let n = img.num_images();
        // Everyone notifies its right neighbour's cell, then waits on its
        // own: a ring handshake purely through events.
        let right = img.image((me.index() + 1) % n);
        img.event_notify(ce.on(right));
        img.event_wait(ce.on(me));
    });
}

#[test]
fn event_counting_semantics_accumulate() {
    Runtime::launch(2, cfg_fast(), |img| {
        let ce = img.coevent();
        if img.id().index() == 0 {
            for _ in 0..5 {
                img.event_notify(ce.on(img.image(1)));
            }
        } else {
            for _ in 0..5 {
                img.event_wait(ce.on(img.id()));
            }
            assert!(!img.event_try(ce.on(img.id())));
        }
        img.barrier(&img.world());
    });
}

// ----------------------------------------------------------------------
// copy_async flows
// ----------------------------------------------------------------------

#[test]
fn copy_local_to_remote_delivers() {
    for cfg in [cfg_fast(), cfg_threaded(), cfg_latency()] {
        Runtime::launch(3, cfg, |img| {
            let w = img.world();
            let a = img.coarray(&w, 8, 0u64);
            if img.id().index() == 0 {
                a.with_local(img.id(), |seg| {
                    seg.iter_mut().enumerate().for_each(|(i, v)| *v = i as u64 + 1)
                });
                let ce = img.coevent();
                let dst = img.image(1);
                img.copy_async(
                    a.slice(dst, 0..8),
                    a.slice(img.id(), 0..8),
                    CopyEvents::on_dest(ce.on(dst)),
                );
            }
            if img.id().index() == 1 {
                let ce = img.coevent();
                img.event_wait(ce.on(img.id()));
                assert_eq!(a.read(img.id(), 0..8), (1..=8).collect::<Vec<u64>>());
            } else {
                let _ = img.coevent(); // SPMD-matched coevent allocation
            }
            img.barrier(&w);
        });
    }
}

#[test]
fn copy_remote_get_into_local_array() {
    Runtime::launch(2, cfg_threaded(), |img| {
        let w = img.world();
        let a = img.coarray(&w, 4, 0u32);
        if img.id().index() == 1 {
            a.with_local(img.id(), |seg| seg.copy_from_slice(&[9, 8, 7, 6]));
        }
        img.barrier(&w);
        if img.id().index() == 0 {
            let dst = caf_runtime::LocalArray::new(vec![0u32; 4]);
            let op = img.copy_async_to(&dst, 0, a.slice(img.image(1), 0..4), CopyEvents::none());
            img.wait_local_data(&op); // get: data readable at LDC
            assert_eq!(dst.read(0..4), vec![9, 8, 7, 6]);
        }
        img.barrier(&w);
    });
}

/// A source range past the local array's end is rejected where the copy
/// is initiated. Checked later, on the communication thread, the panic
/// would leave the initiator's `cofence` waiting for a copy that never
/// completes.
#[test]
#[should_panic(expected = "exceeds the source array")]
fn copy_from_local_array_rejects_a_source_range_past_its_end() {
    let cfg = RuntimeConfig { watchdog: Some(Duration::from_millis(200)), ..cfg_threaded() };
    Runtime::launch(1, cfg, |img| {
        let a = img.coarray(&img.world(), 4, 0u32);
        let src = caf_runtime::LocalArray::new(vec![1u32; 4]);
        img.copy_async_from(a.slice(img.id(), 0..4), &src, 2..6, CopyEvents::none());
        img.cofence();
    });
}

/// Likewise for a destination window past the local array's end.
#[test]
#[should_panic(expected = "exceeds the destination array")]
fn copy_to_local_array_rejects_a_window_past_its_end() {
    let cfg = RuntimeConfig { watchdog: Some(Duration::from_millis(200)), ..cfg_threaded() };
    Runtime::launch(1, cfg, |img| {
        let a = img.coarray(&img.world(), 4, 0u32);
        let dst = caf_runtime::LocalArray::new(vec![0u32; 4]);
        img.copy_async_to(&dst, 2, a.slice(img.id(), 0..4), CopyEvents::none());
        img.cofence();
    });
}

#[test]
fn copy_third_party_transfers_between_remotes() {
    Runtime::launch(3, cfg_threaded(), |img| {
        let w = img.world();
        let a = img.coarray(&w, 2, 0i32);
        if img.id().index() == 1 {
            a.with_local(img.id(), |seg| seg.copy_from_slice(&[5, 6]));
        }
        img.barrier(&w);
        if img.id().index() == 0 {
            // Initiator 0 copies from image 1 to image 2.
            let op = img.copy_async(
                a.slice(img.image(2), 0..2),
                a.slice(img.image(1), 0..2),
                CopyEvents::none(),
            );
            img.wait_local_op(&op);
        }
        img.barrier(&w);
        if img.id().index() == 2 {
            assert_eq!(a.read(img.id(), 0..2), vec![5, 6]);
        }
    });
}

#[test]
fn predicated_copy_waits_for_pre_event() {
    Runtime::launch(2, cfg_threaded(), |img| {
        let w = img.world();
        let a = img.coarray(&w, 1, 0u8);
        let ce = img.coevent();
        if img.id().index() == 0 {
            let pre = img.event();
            a.with_local(img.id(), |seg| seg[0] = 42);
            img.copy_async(
                a.slice(img.image(1), 0..1),
                a.slice(img.id(), 0..1),
                CopyEvents { pre: Some(pre), dest: Some(ce.on(img.image(1))), src: None },
            );
            // The copy must not proceed yet; give it a chance to misfire.
            std::thread::sleep(Duration::from_millis(30));
            img.event_notify(pre);
        } else {
            img.event_wait(ce.on(img.id()));
            assert_eq!(a.read(img.id(), 0..1), vec![42]);
        }
        img.barrier(&w);
    });
}

/// Runs `launch` on its own thread and waits at most 30 s for it, so a
/// hang fails the test (with `hang` as the message) instead of stalling
/// the suite.
fn within<R: Send + 'static>(hang: &str, launch: impl FnOnce() -> R + Send + 'static) -> R {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(launch());
    });
    match rx.recv_timeout(Duration::from_secs(30)) {
        Ok(r) => r,
        Err(RecvTimeoutError::Timeout) => panic!("launch hung: {hang}"),
        Err(RecvTimeoutError::Disconnected) => panic!("the launch panicked"),
    }
}

#[test]
fn unposted_pre_event_holds_up_only_its_own_copy() {
    within("a copy queued behind one whose preE is never posted", || {
        Runtime::launch(2, cfg_threaded(), |img| {
            let w = img.world();
            let a = img.coarray(&w, 2, 0u8);
            if img.id().index() == 0 {
                a.with_local(img.id(), |seg| seg.copy_from_slice(&[1, 2]));
                let never = CopyEvents { pre: Some(img.event()), ..CopyEvents::none() };
                img.copy_async(a.slice(img.image(1), 0..1), a.slice(img.id(), 0..1), never);
                let later = img.copy_async(
                    a.slice(img.image(1), 1..2),
                    a.slice(img.id(), 1..2),
                    CopyEvents::none(),
                );
                img.wait_local_op(&later);
            }
            img.barrier(&w);
            if img.id().index() == 1 {
                assert_eq!(a.read(img.id(), 0..2), vec![0, 2], "only the later copy ran");
            }
        })
    });
}

#[test]
fn launch_returns_with_a_pre_event_never_posted() {
    let sentinel = Arc::new(());
    let held = Arc::clone(&sentinel);
    let out = within("the comm thread still waits on an unposted preE", move || {
        Runtime::try_launch(1, cfg_threaded(), move |img| {
            let a = img.coarray(&img.world(), 1, Arc::new(()));
            let src = LocalArray::new(vec![Arc::clone(&held)]);
            let ev = CopyEvents { pre: Some(img.event()), ..CopyEvents::none() };
            img.copy_async_from(a.slice(img.id(), 0..1), &src, 0..1, ev);
        })
    });
    assert!(out.is_ok(), "no watchdog and no failure: the launch cannot fail");
    assert_eq!(Arc::strong_count(&sentinel), 1, "the parked copy, and its source, are dropped");
}

#[test]
fn inline_copy_with_pre_event_returns_at_once() {
    within("Inline initiation waited for its preE", || {
        Runtime::launch(2, cfg_fast(), |img| {
            let w = img.world();
            let a = img.coarray(&w, 1, 0u8);
            let ce = img.coevent();
            if img.id().index() == 0 {
                let pre = img.event();
                a.with_local(img.id(), |seg| seg[0] = 42);
                let ev = CopyEvents { pre: Some(pre), dest: Some(ce.on(img.image(1))), src: None };
                let op = img.copy_async(a.slice(img.image(1), 0..1), a.slice(img.id(), 0..1), ev);
                assert!(!op.local_data_complete(), "the source is not read before preE posts");
                img.event_notify(pre);
                assert!(op.local_data_complete(), "the notifying thread ran the copy");
                img.wait_local_op(&op);
            } else {
                img.event_wait(ce.on(img.id()));
                assert_eq!(a.read(img.id(), 0..1), vec![42]);
            }
            img.barrier(&w);
        })
    });
}

#[test]
fn get_and_put_blocking_round_trip() {
    Runtime::launch(3, cfg_latency(), |img| {
        let w = img.world();
        let a = img.coarray(&w, 4, 0u64);
        let me = img.id().index() as u64;
        a.with_local(img.id(), |seg| seg.fill(me + 1));
        img.barrier(&w);
        let peer = img.image((img.id().index() + 1) % 3);
        let got = img.get_blocking(a.slice(peer, 0..4));
        assert_eq!(got, vec![(peer.index() as u64) + 1; 4]);
        img.barrier(&w);
        // Everybody puts its rank into slot (rank) of image 0.
        img.put_blocking(a.slice(img.image(0), img.id().index()..img.id().index() + 1), vec![me]);
        img.barrier(&w);
        if img.id().index() == 0 {
            assert_eq!(a.read(img.id(), 0..3), vec![0, 1, 2]);
        }
    });
}

// ----------------------------------------------------------------------
// Cofence
// ----------------------------------------------------------------------

#[test]
fn cofence_releases_source_buffer() {
    Runtime::launch(2, cfg_threaded(), |img| {
        let w = img.world();
        let a = img.coarray(&w, 1, 0u64);
        img.finish(&w, |img| {
            if img.id().index() == 0 {
                let src = caf_runtime::LocalArray::new(vec![7u64]);
                img.copy_async_from(a.slice(img.image(1), 0..1), &src, 0..1, CopyEvents::none());
                assert_eq!(img.pending_implicit_ops(), 1);
                img.cofence();
                assert_eq!(img.pending_implicit_ops(), 0);
                // Source is snapshot-complete: safe to reuse.
                src.write(0, &[99]);
            }
        });
        if img.id().index() == 1 {
            assert_eq!(a.read(img.id(), 0..1), vec![7]);
        }
    });
}

#[test]
fn directional_cofence_lets_writes_pass() {
    Runtime::launch(2, cfg_threaded(), |img| {
        let w = img.world();
        let a = img.coarray(&w, 2, 0u64);
        img.finish(&w, |img| {
            if img.id().index() == 0 {
                // A get (local write class) and a put (local read class).
                let dstbuf = caf_runtime::LocalArray::new(vec![0u64]);
                img.copy_async_to(&dstbuf, 0, a.slice(img.image(1), 0..1), CopyEvents::none());
                let srcbuf = caf_runtime::LocalArray::new(vec![3u64]);
                img.copy_async_from(a.slice(img.image(1), 1..2), &srcbuf, 0..1, CopyEvents::none());
                assert_eq!(img.pending_implicit_ops(), 2);
                // DOWNWARD=WRITE: the get may pass; the put must be LDC.
                img.cofence_dir(Pass::Writes, Pass::None);
                assert!(img.pending_implicit_ops() <= 1);
                img.cofence(); // full fence drains everything
                assert_eq!(img.pending_implicit_ops(), 0);
            }
        });
    });
}

// ----------------------------------------------------------------------
// Collectives
// ----------------------------------------------------------------------

#[test]
fn collectives_compute_correct_values() {
    for n in [1usize, 2, 3, 5, 8] {
        Runtime::launch(n, cfg_fast(), |img| {
            let w = img.world();
            let me = img.id().index();
            let rank = TeamRank(me);

            // allreduce sum of ranks
            let sum = img.allreduce(&w, me as i64, |a, b| a + b);
            assert_eq!(sum, (0..n as i64).sum::<i64>());

            // broadcast from the last rank
            let root = TeamRank(n - 1);
            let v = img.broadcast(&w, root, (me == n - 1).then_some(me * 10));
            assert_eq!(v, (n - 1) * 10);

            // reduce max to rank 0
            let m = img.reduce(&w, TeamRank(0), me as u64, |a, b| a.max(b));
            if me == 0 {
                assert_eq!(m, Some((n - 1) as u64));
            } else {
                assert_eq!(m, None);
            }

            // gather / allgather
            let g = img.gather(&w, TeamRank(0), me);
            if me == 0 {
                assert_eq!(g, Some((0..n).collect::<Vec<_>>()));
            }
            assert_eq!(img.allgather(&w, me * 2), (0..n).map(|k| k * 2).collect::<Vec<_>>());

            // scatter
            let mine =
                img.scatter(&w, TeamRank(0), (me == 0).then(|| (0..n).map(|k| k * 3).collect()));
            assert_eq!(mine, me * 3);

            // alltoall: send (me, k) to k; receive (k, me).
            let out: Vec<(usize, usize)> = (0..n).map(|k| (me, k)).collect();
            let got = img.alltoall(&w, out);
            assert_eq!(got, (0..n).map(|k| (k, me)).collect::<Vec<_>>());

            // inclusive scan of ones = rank + 1
            let s = img.scan(&w, 1u64, |a, b| a + b);
            assert_eq!(s, me as u64 + 1);

            let _ = rank;
        });
    }
}

#[test]
fn sample_sort_globally_orders() {
    let n = 4;
    let runs = Runtime::launch(n, cfg_fast(), |img| {
        let w = img.world();
        // Deterministic pseudo-random local data, distinct across images.
        let mine: Vec<u64> = (0..50)
            .map(|i| caf_core::rng::splitmix64_hash((img.id().index() * 1000 + i) as u64) % 1000)
            .collect();
        let run = img.sort(&w, mine);
        assert!(run.windows(2).all(|p| p[0] <= p[1]), "local run sorted");
        run
    });
    // Runs concatenated in rank order are globally sorted and a
    // permutation of the input.
    let all: Vec<u64> = runs.concat();
    assert!(all.windows(2).all(|p| p[0] <= p[1]), "global order across ranks");
    assert_eq!(all.len(), n * 50);
}

#[test]
fn team_split_isolates_collectives() {
    Runtime::launch(6, cfg_fast(), |img| {
        let w = img.world();
        let me = img.id().index();
        let color = (me % 2) as u64;
        let sub = img.team_split(&w, color, me as u64);
        assert_eq!(sub.size(), 3);
        // Sum of ranks within my parity class only.
        let sum = img.allreduce(&sub, me as i64, |a, b| a + b);
        let expect: i64 = (0..6i64).filter(|k| k % 2 == me as i64 % 2).sum();
        assert_eq!(sum, expect);
        // Ranks within the sub-team follow the key order (ascending rank).
        let my_sub_rank = sub.rank_of(img.id()).unwrap();
        assert_eq!(my_sub_rank.0, me / 2);
        img.barrier(&w);
    });
}

// ----------------------------------------------------------------------
// Finish & function shipping
// ----------------------------------------------------------------------

#[test]
fn finish_covers_transitive_spawns_fig5() {
    // Paper Fig. 5: p ships f1 to q, which ships f2 to r. A barrier would
    // miss f2; finish must not.
    for cfg in [cfg_fast(), cfg_latency()] {
        Runtime::launch(3, cfg, |img| {
            let w = img.world();
            let a = img.coarray(&w, 1, 0u64);
            img.finish(&w, |img| {
                if img.id().index() == 0 {
                    let a1 = a.clone();
                    img.spawn(img.image(1), move |q| {
                        let a2 = a1.clone();
                        // Transitive spawn with extra work to stretch the
                        // race window.
                        std::thread::sleep(Duration::from_millis(5));
                        q.spawn(q.image(2), move |r| {
                            std::thread::sleep(Duration::from_millis(5));
                            a2.with_local(r.id(), |seg| seg[0] = 77);
                        });
                    });
                }
            });
            // After end finish, f2's effect must be globally visible.
            if img.id().index() == 2 {
                assert_eq!(a.read(img.id(), 0..1), vec![77]);
            }
            img.barrier(&w);
        });
    }
}

#[test]
fn finish_handles_spawn_storms() {
    let n = 4;
    let counts = Runtime::launch(n, cfg_latency(), |img| {
        let w = img.world();
        let hits = img.coarray(&w, 1, 0u64);
        img.finish(&w, |img| {
            for i in 0..50 {
                let t = img.image((img.id().index() + i + 1) % n);
                let h = hits.clone();
                img.spawn(t, move |peer| {
                    h.with_local(peer.id(), |seg| seg[0] += 1);
                });
            }
        });
        hits.read(img.id(), 0..1)[0]
    });
    assert_eq!(counts.iter().sum::<u64>(), (4 * 50) as u64);
}

#[test]
fn nested_finish_blocks_work() {
    Runtime::launch(2, cfg_fast(), |img| {
        let w = img.world();
        let a = img.coarray(&w, 2, 0u64);
        img.finish(&w, |img| {
            let a1 = a.clone();
            let peer = img.image((img.id().index() + 1) % 2);
            img.spawn(peer, move |p| {
                a1.with_local(p.id(), |seg| seg[0] += 1);
            });
            img.finish(&w, |img| {
                let a2 = a.clone();
                img.spawn(peer, move |p| {
                    a2.with_local(p.id(), |seg| seg[1] += 1);
                });
            });
            // Inner finish guarantees the inner spawn landed.
            assert_eq!(a.read(img.id(), 1..2), vec![1]);
        });
        assert_eq!(a.read(img.id(), 0..2), vec![1, 1]);
    });
}

#[test]
fn spawn_notify_signals_completion() {
    Runtime::launch(2, cfg_fast(), |img| {
        if img.id().index() == 0 {
            let done = img.event();
            let flag = std::sync::Arc::new(AtomicUsize::new(0));
            let f2 = flag.clone();
            img.spawn_notify(img.image(1), done, move |_peer| {
                f2.store(1, Ordering::SeqCst);
            });
            img.event_wait(done);
            assert_eq!(flag.load(Ordering::SeqCst), 1);
        }
        img.barrier(&img.world());
    });
}

#[test]
fn finish_waves_bounded_by_chain_length() {
    // L = 2 (spawn chain of two) → at most 3 waves with the strict
    // detector.
    Runtime::launch(3, cfg_fast(), |img| {
        let w = img.world();
        img.finish(&w, |img| {
            if img.id().index() == 0 {
                img.spawn(img.image(1), move |q| {
                    q.spawn(q.image(2), move |_r| {});
                });
            }
        });
        assert!(
            img.last_finish_waves() <= 3,
            "L=2 must need ≤3 waves, took {}",
            img.last_finish_waves()
        );
    });
}

// ----------------------------------------------------------------------
// Asynchronous collectives
// ----------------------------------------------------------------------

#[test]
fn broadcast_async_replicates_root_segment() {
    for n in [2usize, 3, 5, 8] {
        Runtime::launch(n, cfg_threaded(), |img| {
            let w = img.world();
            let a = img.coarray(&w, 4, 0u64);
            if img.id().index() == 0 {
                a.with_local(img.id(), |seg| seg.copy_from_slice(&[4, 3, 2, 1]));
            }
            img.finish(&w, |img| {
                img.broadcast_async(&w, &a, 0..4, TeamRank(0), AsyncCollEvents::none());
            });
            assert_eq!(a.read(img.id(), 0..4), vec![4, 3, 2, 1]);
        });
    }
}

#[test]
fn broadcast_async_events_fire_in_order() {
    Runtime::launch(4, cfg_threaded(), |img| {
        let w = img.world();
        let a = img.coarray(&w, 1, 0u64);
        if img.id().index() == 0 {
            a.with_local(img.id(), |seg| seg[0] = 11);
        }
        let src_e = img.event();
        let op_e = img.event();
        let op = img.broadcast_async(
            &w,
            &a,
            0..1,
            TeamRank(0),
            AsyncCollEvents { src: Some(src_e), local_op: Some(op_e) },
        );
        img.event_wait(src_e); // local data completion
        assert!(op.local_data_complete());
        assert_eq!(a.read(img.id(), 0..1), vec![11]);
        img.event_wait(op_e); // local operation completion
        assert!(op.local_op_complete());
        img.barrier(&w);
    });
}

#[test]
fn allreduce_async_sum_matches_sync() {
    Runtime::launch(5, cfg_threaded(), |img| {
        let w = img.world();
        let me = img.id().index() as i64;
        let handle = img.allreduce_async_sum(&w, me * me, AsyncCollEvents::none());
        // Overlap: do a sync collective while the async one progresses.
        let sync_sum = img.allreduce(&w, me, |a, b| a + b);
        assert_eq!(sync_sum, 1 + 2 + 3 + 4);
        let async_sum = img.async_result(&handle);
        assert_eq!(async_sum, 1 + 4 + 9 + 16);
        img.barrier(&w);
    });
}

#[test]
fn barrier_async_completes() {
    Runtime::launch(3, cfg_threaded(), |img| {
        let w = img.world();
        let h = img.barrier_async(&w, AsyncCollEvents::none());
        let _ = img.async_result(&h);
        img.barrier(&w);
    });
}

#[test]
fn broadcast_async_from_nonzero_root() {
    Runtime::launch(5, cfg_threaded(), |img| {
        let w = img.world();
        let a = img.coarray(&w, 2, 0u64);
        if img.id().index() == 3 {
            a.with_local(img.id(), |seg| seg.copy_from_slice(&[21, 12]));
        }
        img.finish(&w, |img| {
            img.broadcast_async(&w, &a, 0..2, TeamRank(3), AsyncCollEvents::none());
        });
        assert_eq!(a.read(img.id(), 0..2), vec![21, 12]);
    });
}

#[test]
fn broadcast_async_on_subteam_does_not_leak() {
    Runtime::launch(6, cfg_threaded(), |img| {
        let w = img.world();
        let me = img.id().index();
        let sub = img.team_split(&w, (me % 2) as u64, me as u64);
        let a = img.coarray(&w, 1, 0u64);
        // Each parity class broadcasts a different value from its rank-0.
        let val = if me % 2 == 0 { 100 } else { 200 };
        if sub.rank_of(img.id()) == Some(TeamRank(0)) {
            a.with_local(img.id(), |seg| seg[0] = val);
        }
        img.finish(&sub, |img| {
            img.broadcast_async(&sub, &a, 0..1, TeamRank(0), AsyncCollEvents::none());
        });
        assert_eq!(a.read(img.id(), 0..1), vec![val], "subteam broadcast leaked");
        img.barrier(&w);
    });
}

#[test]
fn overlapping_async_reductions_stay_separate() {
    Runtime::launch(4, cfg_threaded(), |img| {
        let w = img.world();
        let me = img.id().index() as i64;
        // Three reductions in flight at once, consumed out of order.
        let h1 = img.allreduce_async_sum(&w, me, AsyncCollEvents::none());
        let h2 = img.allreduce_async_sum(&w, me * 10, AsyncCollEvents::none());
        let h3 = img.allreduce_async_sum(&w, 1, AsyncCollEvents::none());
        assert_eq!(img.async_result(&h3), 4);
        assert_eq!(img.async_result(&h1), 6);
        assert_eq!(img.async_result(&h2), 60);
        img.barrier(&w);
    });
}

#[test]
fn broadcast_async_rounds_back_to_back() {
    // Repeated async broadcasts on the same coarray: each round's data
    // fully replaces the previous (finish separates rounds).
    Runtime::launch(4, cfg_threaded(), |img| {
        let w = img.world();
        let a = img.coarray(&w, 1, 0u64);
        for round in 1..=5u64 {
            if img.id().index() == 0 {
                a.with_local(img.id(), |seg| seg[0] = round * 7);
            }
            img.finish(&w, |img| {
                img.broadcast_async(&w, &a, 0..1, TeamRank(0), AsyncCollEvents::none());
            });
            assert_eq!(a.read(img.id(), 0..1), vec![round * 7], "round {round}");
            // A fast root may start the next round's broadcast (which
            // overwrites the slot) before a slow image performs the read
            // above; hold everyone here until all reads are done.
            img.barrier(&w);
        }
    });
}

// ----------------------------------------------------------------------
// Flow control
// ----------------------------------------------------------------------

/// Regression: mutual spawn storms under a tiny inbox capacity must not
/// deadlock. Acknowledgements are reply-class traffic exempt from flow
/// control (the GASNet request/reply rule); with them throttled, image A
/// blocks sending a spawn into B's full inbox while B blocks sending A's
/// ack into A's full inbox — a cycle this test used to hit.
#[test]
fn backpressure_does_not_deadlock_ack_cycles() {
    let cfg = RuntimeConfig {
        comm_mode: CommMode::DedicatedThread,
        network: NetworkModel { inbox_capacity: Some(8), ..NetworkModel::instant() },
        ..RuntimeConfig::default()
    };
    let n = 4;
    let counts = Runtime::launch(n, cfg, |img| {
        let w = img.world();
        let hits = img.coarray(&w, 1, 0u64);
        img.finish(&w, |img| {
            for i in 0..200 {
                let t = img.image((img.id().index() + 1 + i % (n - 1)) % n);
                let h = hits.clone();
                img.spawn(t, move |peer| {
                    h.with_local(peer.id(), |seg| seg[0] += 1);
                });
            }
        });
        hits.read(img.id(), 0..1)[0]
    });
    assert_eq!(counts.iter().sum::<u64>(), (n * 200) as u64);
}

/// Inline communication with a bounded inbox runs. The copy data plane,
/// which Inline mode sends from the image thread, skips flow control as
/// it does on a communication thread, and spawns wait for credit while
/// draining. So the spawn storm above, implicit puts and an
/// event-completed copy all land, to exact counts.
#[test]
fn inline_comm_with_a_bounded_inbox_runs() {
    let cfg = RuntimeConfig {
        comm_mode: CommMode::Inline,
        network: NetworkModel { inbox_capacity: Some(8), ..NetworkModel::instant() },
        ..RuntimeConfig::default()
    };
    let n = 4;
    let out = Runtime::launch(n, cfg, |img| {
        let w = img.world();
        let me = img.id().index();
        let hits = img.coarray(&w, 1, 0u64);
        // One slot per (sender, put): every put lands in a slot of its own.
        let puts = img.coarray(&w, n * 50, 0u64);
        let src = img.coarray(&w, 4, 0u64);
        src.with_local(img.id(), |seg| seg.fill(me as u64 + 1));
        let dst = img.coarray(&w, 4, 0u64);
        let ce = img.coevent();
        img.finish(&w, |img| {
            for i in 0..200 {
                let t = img.image((me + 1 + i % (n - 1)) % n);
                let h = hits.clone();
                img.spawn(t, move |peer| {
                    h.with_local(peer.id(), |seg| seg[0] += 1);
                });
                if i % 4 == 0 {
                    let slot = me * 50 + i / 4;
                    img.put_async(puts.slice(t, slot..slot + 1), vec![1]);
                }
            }
        });
        let next = img.image((me + 1) % n);
        img.copy_async(
            dst.slice(next, 0..4),
            src.slice(img.id(), 0..4),
            CopyEvents::on_dest(ce.on(next)),
        );
        img.event_wait(ce.on(img.id()));
        let put_sum: u64 = puts.read(img.id(), 0..n * 50).iter().sum();
        (hits.read(img.id(), 0..1)[0], put_sum, dst.read(img.id(), 0..4))
    });
    assert_eq!(out.iter().map(|o| o.0).sum::<u64>(), (n * 200) as u64, "every spawn ran once");
    assert_eq!(out.iter().map(|o| o.1).sum::<u64>(), (n * 50) as u64, "every put landed once");
    for (me, (_, _, got)) in out.iter().enumerate() {
        let prev = (me + n - 1) % n;
        assert_eq!(got, &vec![prev as u64 + 1; 4], "image {me} holds image {prev}'s copy");
    }
}

// ----------------------------------------------------------------------
// Memory-model hooks
// ----------------------------------------------------------------------

#[test]
fn implicit_ops_visible_to_detector() {
    Runtime::launch(2, cfg_threaded(), |img| {
        let w = img.world();
        let a = img.coarray(&w, 1, 0u64);
        img.finish(&w, |img| {
            if img.id().index() == 0 {
                img.put_async(a.slice(img.image(1), 0..1), vec![1]);
                // At least one message outstanding inside the finish.
                assert!(img.finish_local_imbalance().unwrap_or(0) >= 1);
            }
        });
        if img.id().index() == 1 {
            assert_eq!(a.read(img.id(), 0..1), vec![1]);
        }
        img.barrier(&w);
    });
}
