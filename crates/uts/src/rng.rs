//! The UTS splittable random stream (the benchmark's "BRG SHA-1" RNG).
//!
//! Every tree node carries a 20-byte state (a SHA-1 digest). Child `i`'s
//! state hashes the parent's 20 bytes plus big-endian `i`, and a node's
//! random value is its last four state bytes, masked to 31 bits. The root
//! state here is `spawn(0)` of the 20 bytes `0, 1, …, 15 ‖ BE(seed)`, so
//! T1 enumerates 1,100,557 nodes, not the published 4,130,071. The
//! reference `rng_init` of `rng/brg_sha1.c` instead hashes the 20 bytes
//! `00×16 ‖ BE(seed)`; a root built that way enumerates exactly the
//! published T1 (4,130,071 nodes, depth 10, 3,305,118 leaves). `init` is
//! kept as it is, because every pinned tree, golden and figure in the
//! workspace is built from it (EXPERIMENTS.md, "Workload fidelity").

use crate::sha1::Sha1;

/// Mask producing a non-negative 31-bit value.
const POS_MASK: u32 = 0x7FFF_FFFF;

/// A 20-byte splittable RNG state (one per tree node).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct UtsRng {
    /// The SHA-1 state bytes.
    pub state: [u8; 20],
}

impl UtsRng {
    /// Root state for `seed` (`rng_init`).
    pub fn init(seed: i32) -> Self {
        let mut temp = [0u8; 20];
        for (i, b) in temp.iter_mut().enumerate().take(16) {
            *b = i as u8;
        }
        temp[16..20].copy_from_slice(&seed.to_be_bytes());
        UtsRng { state: temp }.spawn(0)
    }

    /// State of child `spawn_number` (`rng_spawn`).
    pub fn spawn(&self, spawn_number: i32) -> Self {
        let mut ctx = Sha1::new();
        ctx.update(&self.state);
        ctx.update(&spawn_number.to_be_bytes());
        UtsRng { state: ctx.finish() }
    }

    /// The node's 31-bit random value (`rng_rand`): last four state
    /// bytes, big-endian, masked positive.
    pub fn rand(&self) -> i32 {
        let b = u32::from_be_bytes(self.state[16..20].try_into().expect("4 bytes"));
        (b & POS_MASK) as i32
    }

    /// Maps a random value to `[0, 1)` (`rng_toProb`: divide by 2³¹).
    pub fn to_prob(v: i32) -> f64 {
        if v < 0 {
            0.0
        } else {
            v as f64 / 2_147_483_648.0
        }
    }
}

#[cfg(test)]
mod tests {
    use std::hint::black_box;
    use std::time::Instant;

    use caf_core::rng::splitmix64_hash;

    use super::*;

    /// Fastest of five rounds of `n` calls, in ns per call.
    fn ns_per_call(n: u32, mut f: impl FnMut(u32)) -> f64 {
        (0..5)
            .map(|_| {
                let t = Instant::now();
                (0..n).for_each(&mut f);
                t.elapsed().as_nanos() as f64 / f64::from(n)
            })
            .fold(f64::INFINITY, f64::min)
    }

    /// The hash ablation: SHA-1 descriptor derivation against a
    /// SplitMix64 stand-in, which bounds how much of a UTS node's cost is
    /// hashing (the knob behind the simulator's `node_cost_ns`). Timing
    /// only; run with `cargo test -p uts --release -- --ignored
    /// --nocapture`.
    #[test]
    #[ignore = "timing; run in release with --nocapture"]
    fn sha1_spawn_vs_splitmix_hash_timing() {
        let root = UtsRng::init(19);
        let sha1 = ns_per_call(400_000, |i| {
            black_box(root.spawn(black_box(i as i32)));
        });
        let splitmix = ns_per_call(400_000, |i| {
            black_box(splitmix64_hash(black_box(u64::from(i))));
        });
        println!(
            "UtsRng::spawn {sha1:.1} ns, splitmix64_hash {splitmix:.2} ns: SHA-1 costs {:.0}x",
            sha1 / splitmix
        );
    }

    #[test]
    fn init_is_deterministic_and_seed_sensitive() {
        assert_eq!(UtsRng::init(19), UtsRng::init(19));
        assert_ne!(UtsRng::init(19).state, UtsRng::init(20).state);
    }

    #[test]
    fn spawn_depends_on_child_index() {
        let root = UtsRng::init(19);
        assert_ne!(root.spawn(0).state, root.spawn(1).state);
        assert_eq!(root.spawn(3).state, root.spawn(3).state);
    }

    #[test]
    fn rand_is_non_negative_31_bit() {
        let mut s = UtsRng::init(42);
        for i in 0..1000 {
            let v = s.rand();
            assert!(v >= 0);
            s = s.spawn(i % 8);
        }
    }

    #[test]
    fn to_prob_maps_into_unit_interval() {
        assert_eq!(UtsRng::to_prob(0), 0.0);
        assert!(UtsRng::to_prob(i32::MAX) < 1.0);
        assert_eq!(UtsRng::to_prob(-5), 0.0);
        assert!((UtsRng::to_prob(1 << 30) - 0.5).abs() < 1e-12);
    }

    /// The root state for seed 19 must hash the documented 24-byte input:
    /// 0,1,…,15, then big-endian 19, then big-endian spawn number 0.
    #[test]
    fn root_state_matches_manual_construction() {
        let mut input = Vec::new();
        input.extend(0u8..16);
        input.extend(19i32.to_be_bytes());
        input.extend(0i32.to_be_bytes());
        assert_eq!(UtsRng::init(19).state, crate::sha1::sha1(&input));
    }
}
