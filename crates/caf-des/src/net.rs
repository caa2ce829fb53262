//! Network cost model for simulated time, mirroring
//! [`caf_core::config::NetworkModel`] (which speaks `Duration` for the
//! threaded runtime) in integer nanoseconds.

use caf_core::config::NetworkModel;
use caf_core::rng::SplitMix64;

/// Interconnect costs in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimNet {
    /// One-way latency.
    pub latency_ns: u64,
    /// Sender-side injection overhead.
    pub injection_ns: u64,
    /// Per-payload-byte cost.
    pub byte_cost_ns: u64,
    /// Target-side handler overhead.
    pub handler_ns: u64,
    /// Maximum extra pseudo-random skew per message (0 = FIFO-ish).
    pub jitter_ns: u64,
}

impl SimNet {
    /// Conversion from the shared cost model. `jitter_ns` defaults to
    /// half the latency when `non_fifo` holds, matching `caf-net`.
    pub fn from_model(m: &NetworkModel, non_fifo: bool) -> Self {
        let latency_ns = m.latency.as_nanos() as u64;
        SimNet {
            latency_ns,
            injection_ns: m.injection_overhead.as_nanos() as u64,
            byte_cost_ns: m.byte_cost.as_nanos() as u64,
            handler_ns: m.handler_overhead.as_nanos() as u64,
            jitter_ns: if non_fifo { latency_ns / 2 } else { 0 },
        }
    }

    /// A Gemini-like network (the paper's Cray XK6/XE6 class).
    pub fn gemini_like() -> Self {
        SimNet::from_model(&NetworkModel::gemini_like(), false)
    }

    /// Delivery delay for a `bytes`-byte message to a *remote* image,
    /// using `rng` for jitter (pass a per-model seeded stream for
    /// determinism).
    pub fn delivery_delay(&self, bytes: usize, rng: &mut SplitMix64) -> u64 {
        let wire = self.latency_ns + bytes as u64 * self.byte_cost_ns;
        let jitter = if self.jitter_ns > 0 { rng.next_below(self.jitter_ns) } else { 0 };
        self.injection_ns + wire + jitter + self.handler_ns
    }

    /// Delay for a local (same-image) message: injection only.
    pub fn local_delay(&self) -> u64 {
        self.injection_ns + self.handler_ns
    }

    /// Critical-path cost of a `size`-member synchronous allreduce:
    /// reduce tree + broadcast tree, one small message per level.
    pub fn allreduce_cost(&self, size: usize, rng: &mut SplitMix64) -> u64 {
        let levels = caf_core::topology::log2_rounds(size.max(1)) as u64;
        2 * levels * self.delivery_delay(16, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delay_scales_with_bytes() {
        let net = SimNet {
            latency_ns: 1000,
            injection_ns: 0,
            byte_cost_ns: 1,
            handler_ns: 0,
            jitter_ns: 0,
        };
        let mut rng = SplitMix64::new(1);
        assert_eq!(net.delivery_delay(0, &mut rng), 1000);
        assert_eq!(net.delivery_delay(500, &mut rng), 1500);
    }

    #[test]
    fn jitter_bounded() {
        let net = SimNet {
            latency_ns: 100,
            injection_ns: 0,
            byte_cost_ns: 0,
            handler_ns: 0,
            jitter_ns: 50,
        };
        let mut rng = SplitMix64::new(7);
        for _ in 0..100 {
            let d = net.delivery_delay(0, &mut rng);
            assert!((100..150).contains(&d));
        }
    }

    #[test]
    fn allreduce_cost_grows_logarithmically() {
        let net = SimNet {
            latency_ns: 1000,
            injection_ns: 0,
            byte_cost_ns: 0,
            handler_ns: 0,
            jitter_ns: 0,
        };
        let mut rng = SplitMix64::new(1);
        let c2 = net.allreduce_cost(2, &mut rng);
        let c1024 = net.allreduce_cost(1024, &mut rng);
        assert_eq!(c1024, 10 * c2);
    }

    #[test]
    fn conversion_from_shared_model() {
        let net = SimNet::gemini_like();
        assert_eq!(net.latency_ns, 1500);
        assert_eq!(net.jitter_ns, 0);
        let nf = SimNet::from_model(&NetworkModel::gemini_like(), true);
        assert_eq!(nf.jitter_ns, 750);
    }
}
