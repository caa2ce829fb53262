//! Metric definitions, their derivation from measured phases, and the
//! result line.
//!
//! Every workload reports every metric. A per-layer metric whose layer is
//! not on a workload's path (say, `uts.*` on `ra_fs`) reads [`NA`].

use std::fmt::Write as _;

use crate::phase::Phase;
use crate::stats::{mean, median, percentile, sorted};
use crate::trace::{self, Name, Span};
use crate::Workload;

/// Value of a per-layer metric whose layer the workload does not use.
pub const NA: f64 = -1.0;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 4] =
    [("ops_per_s", "op/s"), ("sync_p50_us", "us"), ("sync_p90_us", "us"), ("setup_s", "s")];

/// Per-layer metrics: `(name, unit, the end-to-end metric and workloads
/// it should move)`.
pub const PER_LAYER: [(&str, &str, &str); 23] = [
    ("fabric.msgs_per_op", "msg/op", "ops_per_s @ ra_fs, ra_fs_reliable"),
    ("fabric.bytes_per_op", "B/op", "ops_per_s @ ra_fs, ra_fs_reliable"),
    ("fabric.msgs_per_s", "msg/s", "ops_per_s @ ra_fs"),
    ("fabric.backpressure_stalls", "count", "sync_p90_us @ ra_fs"),
    ("spawn.init_ns_p50", "ns", "ops_per_s @ ra_fs, ra_fs_reliable"),
    ("spawn.init_ns_p90", "ns", "ops_per_s @ ra_fs, ra_fs_reliable"),
    ("finish.body_us_p50", "us", "sync_p50_us @ ra_fs"),
    ("finish.wait_us_p50", "us", "sync_p50_us @ ra_fs, pc_finish"),
    ("finish.wait_us_p90", "us", "sync_p90_us @ ra_fs, pc_finish"),
    ("finish.waves_mean", "waves", "sync_p50_us @ pc_finish"),
    ("finish.wave_us", "us", "sync_p50_us @ pc_finish"),
    ("copy.init_ns_p50", "ns", "sync_p50_us @ pc_cofence"),
    ("cofence.wait_us_p50", "us", "sync_p50_us @ pc_cofence"),
    ("event.wait_us_p50", "us", "sync_p50_us @ pc_event"),
    ("uts.seq_nodes_per_s", "node/s", "ops_per_s @ uts_geo"),
    ("uts.efficiency", "ratio", "ops_per_s @ uts_geo"),
    ("uts.imbalance", "ratio", "ops_per_s @ uts_geo"),
    ("uts.steals_per_image", "count", "ops_per_s @ uts_geo"),
    ("uts.lifeline_pushes", "count", "ops_per_s @ uts_geo"),
    ("proc.cpu_busy_ratio", "ratio", "ops_per_s @ every workload"),
    ("proc.peak_rss_mib", "MiB", "memory @ every workload (pooling, arenas)"),
    ("proc.steal_share", "ratio", "none (hypervisor steal in the untraced phase)"),
    ("trace.overhead_ratio", "ratio", "none (traced ÷ untraced ops_per_s)"),
];

/// The end-to-end metric and workloads the per-layer metric `name`
/// should move.
pub fn moves(name: &str) -> Option<&'static str> {
    PER_LAYER.iter().find(|m| m.0 == name).map(|m| m.2)
}

/// A reported metric: `(name, unit, value)`.
pub type Value = (&'static str, &'static str, f64);

fn pct(samples: &[f64], p: f64, what: &str) -> Result<f64, String> {
    percentile(&sorted(samples), p).map_err(|e| format!("{what}: {e}"))
}

/// The end-to-end metrics of an untraced phase: throughput and latency
/// from its faster half of rounds ([`Phase::quiet_blocks`]), set-up time
/// from every launch.
pub fn end_to_end(ph: &Phase) -> Result<Vec<Value>, String> {
    let sync = ph.quiet_sync_us();
    let vals = [
        ph.ops_per_s(),
        pct(&sync, 50.0, "sync_p50_us")?,
        pct(&sync, 90.0, "sync_p90_us")?,
        median(&ph.setup_s).ok_or("no set-up sample")?,
    ];
    Ok(END_TO_END.iter().zip(vals).map(|(&(n, u), v)| (n, u, v)).collect())
}

/// The per-layer metrics of a `--trace 1` run: counters and rates from the
/// untraced phase, span-derived figures from the traced one.
pub fn per_layer(plain: &Phase, traced: &Phase) -> Result<Vec<Value>, String> {
    let spans = &traced.spans;
    let has = |n: Name| spans.iter().any(|s| s.name == n);
    let p = |xs: Vec<f64>, q: f64, scale: f64, what: &str| -> Result<f64, String> {
        Ok(pct(&xs, q, what)? / scale)
    };
    let mut out = Vec::with_capacity(PER_LAYER.len());
    for &(name, unit, _) in &PER_LAYER {
        let v = match name {
            "fabric.msgs_per_op"
            | "fabric.bytes_per_op"
            | "fabric.msgs_per_s"
            | "fabric.backpressure_stalls" => match plain.fabric {
                None => NA,
                Some(f) => match name {
                    "fabric.msgs_per_op" => f.msgs as f64 / plain.ops.max(1) as f64,
                    "fabric.bytes_per_op" => f.bytes as f64 / plain.ops.max(1) as f64,
                    "fabric.msgs_per_s" => f.msgs as f64 / plain.timed.as_secs_f64(),
                    _ => f.stalls as f64,
                },
            },
            "spawn.init_ns_p50" | "spawn.init_ns_p90" if has(Name::Spawn) => {
                let q = if name.ends_with("p50") { 50.0 } else { 90.0 };
                p(trace::durations(spans, Name::Spawn, false), q, 1.0, name)?
            }
            "finish.body_us_p50" if has(Name::FinishBody) => {
                p(trace::durations(spans, Name::FinishBody, false), 50.0, 1e3, name)?
            }
            "finish.wait_us_p50" | "finish.wait_us_p90" if has(Name::Finish) => {
                let q = if name.ends_with("p50") { 50.0 } else { 90.0 };
                p(trace::durations(spans, Name::Finish, true), q, 1e3, name)?
            }
            "finish.waves_mean" => mean(&traced.waves).unwrap_or(NA),
            "finish.wave_us" if has(Name::Finish) => {
                let wait: f64 = trace::durations(spans, Name::Finish, true).iter().sum();
                wait / 1e3 / traced.waves.iter().sum::<f64>().max(1.0)
            }
            "copy.init_ns_p50" if has(Name::Copy) => {
                p(trace::durations(spans, Name::Copy, false), 50.0, 1.0, name)?
            }
            "cofence.wait_us_p50" if has(Name::Cofence) => {
                p(trace::durations(spans, Name::Cofence, false), 50.0, 1e3, name)?
            }
            "event.wait_us_p50" if has(Name::EventWait) => {
                p(trace::per_unit_sums(spans, Name::EventWait), 50.0, 1e3, name)?
            }
            "uts.seq_nodes_per_s"
            | "uts.efficiency"
            | "uts.imbalance"
            | "uts.steals_per_image"
            | "uts.lifeline_pushes" => match (plain.uts, traced.uts) {
                (Some(u), Some(t)) if u.traversals > 0 && t.seq_s > 0.0 => {
                    let seq_rate = t.tree_nodes as f64 / t.seq_s;
                    let n = u.traversals as f64;
                    match name {
                        "uts.seq_nodes_per_s" => seq_rate,
                        "uts.efficiency" => plain.ops_per_s() / (crate::IMAGES as f64 * seq_rate),
                        "uts.imbalance" => u.imbalance_sum / n,
                        "uts.steals_per_image" => u.steals as f64 / (n * crate::IMAGES as f64),
                        _ => u.lifeline_pushes as f64 / n,
                    }
                }
                _ => NA,
            },
            "proc.cpu_busy_ratio" => plain.cpu_s / (plain.wall_s * crate::procfs::nproc() as f64),
            "proc.steal_share" => plain.steal_share,
            "proc.peak_rss_mib" => median(&plain.rss_mib).ok_or("no peak-RSS sample")?,
            "trace.overhead_ratio" => traced.ops_per_s() / plain.ops_per_s(),
            _ => NA,
        };
        out.push((name, unit, v));
    }
    Ok(out)
}

/// The traced run's per-layer table: count, total and self time per
/// instrumented call, the per-layer metric it feeds, and the end-to-end
/// metric that one should move.
pub fn span_table(w: Workload, spans: &[Span]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "# traced spans on {} (self = duration − child spans)", w.name());
    let _ = writeln!(
        s,
        "# {:<24} {:<30} {:>9} {:>11} {:>11}  {:<21} moves",
        "span", "layer", "count", "total_ms", "self_ms", "feeds"
    );
    for r in trace::summarize(spans) {
        let feeds = r.name.metric();
        let _ = writeln!(
            s,
            "# {:<24} {:<30} {:>9} {:>11.3} {:>11.3}  {:<21} {}",
            r.name.label(),
            r.name.layer(),
            r.count,
            r.total_ns as f64 / 1e6,
            r.self_ns as f64 / 1e6,
            feeds.unwrap_or("-"),
            feeds.and_then(moves).unwrap_or("-")
        );
    }
    s.pop();
    s
}

/// The result line.
pub fn json(
    correct: bool,
    attempted: u64,
    failed: u64,
    values: &[Value],
) -> Result<String, String> {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, unit, v)) in values.iter().enumerate() {
        if !v.is_finite() {
            return Err(format!("metric {name} is not finite: {v}"));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(s, "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}");
    }
    s.push_str("}}");
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(n: &str) -> bool {
        !n.is_empty()
            && n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn metric_names_and_units_are_well_formed_and_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        names.extend(PER_LAYER.iter().map(|m| m.0));
        for n in &names {
            assert!(valid_name(n), "bad metric name {n:?}");
        }
        let units = END_TO_END.iter().map(|m| m.1).chain(PER_LAYER.iter().map(|m| m.1));
        for u in units {
            assert!(valid_unit(u), "bad unit {u:?}");
        }
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "duplicate metric name");
        assert!(END_TO_END.contains(&("setup_s", "s")));
    }

    #[test]
    fn every_span_feeds_a_listed_metric() {
        for name in Name::ALL {
            if let Some(m) = name.metric() {
                assert!(moves(m).is_some(), "{name:?} feeds unlisted metric {m}");
            }
        }
    }

    #[test]
    fn json_line_has_the_contract_shape() {
        let line = json(true, 3, 0, &[("ops_per_s", "op/s", 1.5), ("setup_s", "s", 0.25)]).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"ops_per_s\": \
             {\"value\": 1.5, \"unit\": \"op/s\"}, \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        assert!(json(true, 1, 0, &[("x", "s", f64::NAN)]).is_err());
    }
}
