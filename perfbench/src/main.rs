//! The runtime benchmark: one seeded workload per invocation.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the whole run is one untraced phase and the last
//! stdout line is a JSON object carrying every end-to-end metric. With
//! `--trace 1` the run is an untraced phase and a traced phase of half the
//! length each; the JSON carries the per-layer metrics, and a per-layer
//! self-time table is printed above it. See `README.md` beside this crate.

mod metrics;
mod pc;
mod phase;
mod procfs;
mod ra;
mod stats;
mod trace;
mod uts_geo;

use std::process::ExitCode;
use std::time::Instant;

use phase::Phase;

/// Images in every launch: one per core of the reference machine.
pub const IMAGES: usize = 2;
/// Set-up-only launches (launch, set up as the workload does, end) at
/// the start of each round or block of a phase. `setup_s` is the median
/// over them and the rounds' own launches: a phase of 12 to 24 rounds
/// yields hundreds of samples, so the median holds still although a single
/// launch's set-up time swings twofold with thread placement.
pub const SETUP_PROBES: usize = 16;

/// SplitMix64 finalizer: derives independent input seeds from the
/// benchmark seed.
pub fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// RandomAccess by function shipping on the raw fabric.
    RaFs,
    /// The same over the reliable (ack/dedup/retry + heartbeat) sublayer.
    RaFsReliable,
    /// Parallel UTS with work stealing and lifelines.
    UtsGeo,
    /// Producer–consumer iterations completed by `cofence`.
    PcCofence,
    /// Producer–consumer iterations completed by events.
    PcEvent,
    /// Producer–consumer iterations completed by `finish`.
    PcFinish,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 6] = [
        Workload::RaFs,
        Workload::RaFsReliable,
        Workload::UtsGeo,
        Workload::PcCofence,
        Workload::PcEvent,
        Workload::PcFinish,
    ];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::RaFs => "ra_fs",
            Workload::RaFsReliable => "ra_fs_reliable",
            Workload::UtsGeo => "uts_geo",
            Workload::PcCofence => "pc_cofence",
            Workload::PcEvent => "pc_event",
            Workload::PcFinish => "pc_finish",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// What one operation is, for `ops_per_s`.
    pub fn op(self) -> &'static str {
        match self {
            Workload::RaFs | Workload::RaFsReliable => "shipped update",
            Workload::UtsGeo => "tree node",
            _ => "producer iteration",
        }
    }

    /// What one `sync_*` latency sample is.
    pub fn sync_unit(self) -> &'static str {
        match self {
            Workload::RaFs | Workload::RaFsReliable => "Image::finish call per 256-update bunch",
            Workload::UtsGeo => "one whole traversal (launch to result)",
            Workload::PcCofence => "iteration: 5 copies + cofence",
            Workload::PcEvent => "iteration: 5 copies + 5 event_wait",
            Workload::PcFinish => "iteration: finish around 5 copies",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        argv.get(i + 1).cloned().ok_or(format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    let workload = Workload::parse(&workload).ok_or_else(|| {
        let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload {workload:?}; expected one of {}", names.join(", "))
    })?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} outside (0, 600]"));
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not {t:?}")),
    };
    Ok(Args { workload, seed, seconds, trace })
}

/// Runs one phase of `w`, with process CPU, wall time and hypervisor
/// steal around it.
fn measure(
    w: Workload,
    seed: u64,
    secs: f64,
    traced: bool,
    uts: Option<&uts_geo::Prepared>,
) -> Result<Phase, String> {
    let cpu0 = procfs::cpu_seconds()?;
    let ticks0 = procfs::cpu_ticks()?;
    let t0 = Instant::now();
    // The traced phase of a `--trace 1` run uses fresh rounds (and so
    // fresh stream slices) rather than repeating the untraced ones.
    let base = if traced { 1000 } else { 0 };
    let mut ph = match w {
        Workload::RaFs => ra::run_phase(&ra::RaParams::full(false), seed, secs, traced, base),
        Workload::RaFsReliable => {
            ra::run_phase(&ra::RaParams::full(true), seed, secs, traced, base)
        }
        Workload::UtsGeo => uts_geo::run_phase(uts.expect("uts input prepared"), secs, traced),
        Workload::PcCofence => pc::run_phase(&pc::PcParams::full(pc::Level::Cofence), secs, traced),
        Workload::PcEvent => pc::run_phase(&pc::PcParams::full(pc::Level::Event), secs, traced),
        Workload::PcFinish => pc::run_phase(&pc::PcParams::full(pc::Level::Finish), secs, traced),
    };
    ph.wall_s = t0.elapsed().as_secs_f64();
    ph.cpu_s = procfs::cpu_seconds()? - cpu0;
    ph.steal_share = procfs::steal_share(ticks0)?;
    Ok(ph)
}

fn run(args: &Args) -> Result<(), String> {
    let w = args.workload;
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} images={IMAGES} nproc={}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        procfs::nproc()
    );
    let prep = (w == Workload::UtsGeo).then(|| {
        let p = uts_geo::prepare(args.seed, &uts_geo::UtsParams::full());
        println!("# uts tree seed={} nodes={}", p.spec.seed, p.nodes);
        p
    });
    let (phases, values) = if args.trace {
        let plain = measure(w, args.seed, args.seconds / 2.0, false, prep.as_ref())?;
        let traced = measure(w, args.seed, args.seconds / 2.0, true, prep.as_ref())?;
        let values = metrics::per_layer(&plain, &traced)?;
        println!("{}", metrics::span_table(w, &traced.spans));
        (vec![plain, traced], values)
    } else {
        let ph = measure(w, args.seed, args.seconds, false, prep.as_ref())?;
        let values = metrics::end_to_end(&ph)?;
        (vec![ph], values)
    };
    let attempted: u64 = phases.iter().map(|p| p.attempted).sum::<u64>().max(1);
    let fatal = phases.iter().any(|p| p.fatal);
    let failed = if fatal { attempted } else { phases.iter().map(|p| p.failed).sum() };
    for e in phases.iter().flat_map(|p| &p.errors) {
        println!("# error: {e}");
    }
    for p in &phases {
        println!("# phase steal_share = {:.4}", p.steal_share);
    }
    println!("# op = {}; sync sample = {}", w.op(), w.sync_unit());
    for (name, unit, value) in &values {
        match metrics::moves(name) {
            Some(m) => println!("# {name} = {value} {unit}  (moves {m})"),
            None => println!("# {name} = {value} {unit}"),
        }
    }
    println!("# failed_ratio = {} ({failed}/{attempted})", failed as f64 / attempted as f64);
    println!("{}", metrics::json(failed == 0, attempted, failed, &values)?);
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
