//! Criterion micro-benchmarks for the runtime's hot primitives and the
//! UTS generator (including the SHA-1 vs. SplitMix hash ablation).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use caf_check::mutation::Family;
use caf_check::scenario::{chain, Scenario};
use caf_check::timed::{self, Timing};
use caf_core::rng::splitmix64_hash;
use caf_runtime::{CopyEvents, Runtime, RuntimeConfig};
use uts::{count_tree, TreeSpec, UtsRng};

/// SHA-1 descriptor derivation vs. the SplitMix alternative — the
/// work-grain knob of the UTS hash ablation.
fn bench_hashes(c: &mut Criterion) {
    let mut g = c.benchmark_group("uts_hash");
    g.throughput(Throughput::Elements(1));
    let state = UtsRng::init(19);
    g.bench_function("sha1_spawn", |b| {
        let mut i = 0i32;
        b.iter(|| {
            i = i.wrapping_add(1);
            std::hint::black_box(state.spawn(i))
        })
    });
    g.bench_function("splitmix_hash", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(1);
            std::hint::black_box(splitmix64_hash(i))
        })
    });
    g.finish();
}

/// Sequential UTS expansion throughput (nodes/second).
fn bench_uts_expand(c: &mut Criterion) {
    let spec = TreeSpec::geo_fixed(4.0, 5, 19);
    let nodes = count_tree(&spec).nodes;
    let mut g = c.benchmark_group("uts_expand");
    g.throughput(Throughput::Elements(nodes));
    g.bench_function("geo_d5_full_tree", |b| b.iter(|| std::hint::black_box(count_tree(&spec))));
    g.finish();
}

/// A full epoch-detector protocol run (sends, receives, acks, waves) on
/// `caf-check`'s world under the timed scheduler, oracles included.
fn bench_detector(c: &mut Criterion) {
    let scenario = Scenario { images: 8, roots: vec![(0, chain(&[1, 2, 3, 4, 5]))], crash: None };
    let timing = Timing::default();
    c.bench_function("epoch_detector_chain5_8imgs", |b| {
        b.iter(|| std::hint::black_box(timed::run(&scenario, Family::EpochStrict, &timing).waves()))
    });
}

/// Whole-runtime primitives, measured end-to-end per operation by
/// batching inside one launch (launch cost amortized out).
fn bench_runtime_ops(c: &mut Criterion) {
    let mut g = c.benchmark_group("runtime");
    g.sample_size(10);

    g.bench_function("spawn_roundtrip_2imgs_x1000", |b| {
        b.iter(|| {
            Runtime::launch(2, RuntimeConfig::testing(), |img| {
                if img.id().index() == 0 {
                    for _ in 0..1000 {
                        let done = img.event();
                        img.spawn_notify(img.image(1), done, |_p| {});
                        img.event_wait(done);
                    }
                }
                img.barrier(&img.world());
            })
        })
    });

    g.bench_function("copy_async_initiate_x1000", |b| {
        b.iter(|| {
            Runtime::launch(2, RuntimeConfig::testing(), |img| {
                let w = img.world();
                let a = img.coarray(&w, 16, 0u64);
                let src = caf_runtime::LocalArray::new(vec![1u64; 16]);
                if img.id().index() == 0 {
                    for _ in 0..1000 {
                        img.copy_async_from(
                            a.slice(img.image(1), 0..16),
                            &src,
                            0..16,
                            CopyEvents::none(),
                        );
                    }
                    img.cofence();
                }
                img.finish(&w, |_| {});
            })
        })
    });

    g.bench_function("empty_finish_4imgs_x100", |b| {
        b.iter(|| {
            Runtime::launch(4, RuntimeConfig::testing(), |img| {
                let w = img.world();
                for _ in 0..100 {
                    img.finish(&w, |_| {});
                }
            })
        })
    });

    g.bench_function("barrier_4imgs_x1000", |b| {
        b.iter(|| {
            Runtime::launch(4, RuntimeConfig::testing(), |img| {
                let w = img.world();
                for _ in 0..1000 {
                    img.barrier(&w);
                }
            })
        })
    });

    g.finish();
}

criterion_group!(benches, bench_hashes, bench_uts_expand, bench_detector, bench_runtime_ops);
criterion_main!(benches);
