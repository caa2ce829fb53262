//! In-memory spans around the benchmark's calls into each runtime layer.
//!
//! A span has a name, a start, a duration, the index of the span that
//! caused it, and the id of the bunch or iteration it belongs to. Spans
//! stay in memory until the run ends; [`summarize`] then derives each
//! span name's count, total time and self time (its duration minus the
//! part its child spans cover). With tracing off, [`Tracer::open`] and
//! [`Tracer::close`] return at once and read no clock.

use std::cell::RefCell;
use std::time::Instant;

/// Parent index of a root span (and the index returned when tracing is
/// off).
pub const ROOT: u32 = u32::MAX;

/// The instrumented call sites. Each names the layer it enters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Name {
    /// One `Image::finish` call: body plus end-finish detection.
    Finish,
    /// The issue loop inside a finish block.
    FinishBody,
    /// One `Image::spawn_sized` call.
    Spawn,
    /// One producer iteration of the producer-consumer loop.
    Iteration,
    /// One `Image::copy_async_from` call.
    Copy,
    /// One `Image::cofence` call.
    Cofence,
    /// One `Image::event_wait` call.
    EventWait,
    /// One parallel traversal (`uts::caf_uts::run_uts`).
    RunUts,
    /// One sequential traversal (`uts::count_tree`, i.e. `expand_into`
    /// per node on one thread).
    CountTree,
}

impl Name {
    /// Every span name, in report order.
    pub const ALL: [Name; 9] = [
        Name::Iteration,
        Name::Finish,
        Name::FinishBody,
        Name::Spawn,
        Name::Copy,
        Name::Cofence,
        Name::EventWait,
        Name::RunUts,
        Name::CountTree,
    ];

    /// Span label as printed.
    pub fn label(self) -> &'static str {
        match self {
            Name::Finish => "Image::finish",
            Name::FinishBody => "finish body",
            Name::Spawn => "Image::spawn_sized",
            Name::Iteration => "pc iteration",
            Name::Copy => "Image::copy_async_from",
            Name::Cofence => "Image::cofence",
            Name::EventWait => "Image::event_wait",
            Name::RunUts => "caf_uts::run_uts",
            Name::CountTree => "uts::count_tree",
        }
    }

    /// The layer whose self time this span measures.
    pub fn layer(self) -> &'static str {
        match self {
            Name::Finish => "finish (end-finish detection)",
            Name::FinishBody => "image (issue loop)",
            Name::Spawn => "image (spawn init)",
            Name::Iteration => "benchmark loop",
            Name::Copy => "copy (init)",
            Name::Cofence => "cofence + pump",
            Name::EventWait => "event",
            Name::RunUts => "uts parallel (all layers)",
            Name::CountTree => "uts tree/sha1 kernel",
        }
    }

    /// The per-layer metric this span feeds, if any (its entry in
    /// `metrics::PER_LAYER` says what end-to-end metric it should move).
    pub fn metric(self) -> Option<&'static str> {
        match self {
            Name::Finish => Some("finish.wait_us_p50"),
            Name::FinishBody => Some("finish.body_us_p50"),
            Name::Spawn => Some("spawn.init_ns_p50"),
            Name::Copy => Some("copy.init_ns_p50"),
            Name::Cofence => Some("cofence.wait_us_p50"),
            Name::EventWait => Some("event.wait_us_p50"),
            Name::CountTree => Some("uts.seq_nodes_per_s"),
            Name::Iteration | Name::RunUts => None,
        }
    }
}

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// Duration in ns.
    pub dur_ns: u64,
    /// Index of the causing span, or [`ROOT`].
    pub parent: u32,
    /// Bunch or iteration id shared by the spans of one unit of work.
    pub id: u32,
    /// Call site.
    pub name: Name,
}

/// Span recorder owned by one image thread.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
}

impl Tracer {
    /// A recorder; `on = false` records nothing.
    pub fn new(on: bool) -> Self {
        Tracer { on, epoch: Instant::now(), spans: RefCell::new(Vec::new()) }
    }

    /// Opens a span and returns its index (or [`ROOT`] when off).
    #[inline]
    pub fn open(&self, name: Name, id: u32, parent: u32) -> u32 {
        if !self.on {
            return ROOT;
        }
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let mut spans = self.spans.borrow_mut();
        spans.push(Span { start_ns, dur_ns: 0, parent, id, name });
        u32::try_from(spans.len() - 1).expect("fewer than 2^32 spans per round")
    }

    /// Closes the span `idx` returned by [`Tracer::open`].
    #[inline]
    pub fn close(&self, idx: u32) {
        if idx == ROOT {
            return;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        let mut spans = self.spans.borrow_mut();
        let s = &mut spans[idx as usize];
        s.dur_ns = now - s.start_ns;
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner()
    }
}

/// Appends `more` (one tracer's spans) to `all`, rebasing parent indices
/// and ids so that ids stay unique across the rounds of a run.
pub fn append(all: &mut Vec<Span>, more: Vec<Span>) {
    let base = u32::try_from(all.len()).expect("fewer than 2^32 spans per run");
    let id_base = all.iter().map(|s| s.id + 1).max().unwrap_or(0);
    all.extend(more.into_iter().map(|mut s| {
        if s.parent != ROOT {
            s.parent += base;
        }
        s.id += id_base;
        s
    }));
}

/// Self time of every span: its duration minus its children's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != ROOT {
            child[s.parent as usize] += s.dur_ns;
        }
    }
    spans.iter().zip(&child).map(|(s, c)| s.dur_ns.saturating_sub(*c)).collect()
}

/// Per-name totals over a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Row {
    /// Call site.
    pub name: Name,
    /// Spans recorded.
    pub count: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed self time, ns.
    pub self_ns: u64,
}

/// Count, total and self time per span name (names with no spans are
/// omitted).
pub fn summarize(spans: &[Span]) -> Vec<Row> {
    let selfs = self_times(spans);
    Name::ALL
        .iter()
        .filter_map(|&name| {
            let mut row = Row { name, count: 0, total_ns: 0, self_ns: 0 };
            for (s, own) in spans.iter().zip(&selfs) {
                if s.name == name {
                    row.count += 1;
                    row.total_ns += s.dur_ns;
                    row.self_ns += own;
                }
            }
            (row.count > 0).then_some(row)
        })
        .collect()
}

/// Durations (or self times, with `own`) of every span named `name`, in ns.
pub fn durations(spans: &[Span], name: Name, own: bool) -> Vec<f64> {
    let selfs = if own { self_times(spans) } else { Vec::new() };
    spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == name)
        .map(|(i, s)| if own { selfs[i] } else { s.dur_ns } as f64)
        .collect()
}

/// Summed duration of the spans named `name` in each bunch or iteration
/// (spans sharing an id), in ns: e.g. the total `event_wait` time of each
/// producer iteration.
pub fn per_unit_sums(spans: &[Span], name: Name) -> Vec<f64> {
    let mut sums: std::collections::BTreeMap<u32, u64> = std::collections::BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == name) {
        *sums.entry(s.id).or_default() += s.dur_ns;
    }
    sums.into_values().map(|v| v as f64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(dur_ns: u64, parent: u32, name: Name) -> Span {
        Span { start_ns: 0, dur_ns, parent, id: 0, name }
    }

    fn unit(dur_ns: u64, parent: u32, id: u32, name: Name) -> Span {
        Span { id, ..span(dur_ns, parent, name) }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span(100, ROOT, Name::Finish),
            span(60, 0, Name::FinishBody),
            span(10, 1, Name::Spawn),
            span(15, 1, Name::Spawn),
        ];
        assert_eq!(self_times(&spans), vec![40, 35, 10, 15]);
        let rows = summarize(&spans);
        let spawn = rows.iter().find(|r| r.name == Name::Spawn).unwrap();
        assert_eq!((spawn.count, spawn.total_ns, spawn.self_ns), (2, 25, 25));
    }

    #[test]
    fn append_rebases_parents_and_ids() {
        let round = |d| {
            vec![
                unit(10, ROOT, 0, Name::Iteration),
                unit(d, 0, 0, Name::EventWait),
                unit(d, 0, 0, Name::EventWait),
            ]
        };
        let mut all = Vec::new();
        append(&mut all, round(2));
        append(&mut all, round(3));
        assert_eq!(all[4].parent, 3);
        assert_eq!((all[0].id, all[3].id), (0, 1));
        assert_eq!(per_unit_sums(&all, Name::EventWait), vec![4.0, 6.0]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let s = t.open(Name::Spawn, 1, ROOT);
        t.close(s);
        assert!(t.into_spans().is_empty());
    }
}
