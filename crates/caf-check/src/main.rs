//! `caf-check` CLI: explore, suite, replay, and mutate subcommands.

use std::process::ExitCode;
use std::time::Instant;

use caf_check::cofence_check::{self, CofenceMutation};
use caf_check::explore::{explore, Counterexample, ExploreConfig};
use caf_check::link_check::{self, LinkMutation};
use caf_check::mutation::{Family, Mutation};
use caf_check::replay::Replay;
use caf_check::scenario::{parse_tree, scenarios, Scenario};
use caf_check::shrink::shrink;

const USAGE: &str = "\
caf-check — schedule-exploration model checker for the finish/cofence protocol

USAGE:
  caf-check explore [--images N] [--spawn '<from> <tree>']... [--crash V]
                    [--family F] [--mutation M] [--no-por] [--max-states N]
                    [--out FILE]
      Explore one scenario. Trees use the `target(child,child)` syntax,
      e.g. --spawn '0 1(2,2)'. A counterexample's replay file goes to
      FILE when --out is given, stdout otherwise.

  caf-check suite [--images N] [--depth D] [--crash-scenarios]
                  [--max-states N] [--por-ratio] [--quiet]
      Explore the curated scenario family for every detector family plus
      the cofence matrix and the lossy-link machine. Exit 1 if any
      counterexample is found.

  caf-check mutate [--out DIR] [NAME...]
      Run every seeded mutation (or just NAME...) and confirm the checker
      catches each; shrink and print (or write) the counterexample.
      Exit 1 if any mutation escapes.

  caf-check replay FILE
      Re-execute a counterexample replay file and confirm its expectation.

  caf-check plan-diff [--max-states N] FILE...
      Differentially validate caf-lint on plan files: every static race
      must be realized by some explored schedule, no schedule may race
      where the analysis was silent, and deadlock diagnostics must match
      reachable stuck states. Exit 1 on any disagreement.

FAMILIES:  epoch-strict  epoch-loose  four-counter  aggregated
MUTATIONS: drop-quiescence-wait merge-epochs skip-poison local-verdict
           single-wave-four-counter ack-complete-confusion
           stale-contribution ack-miscount flush-on-cap-only
           cofence-swap-read-write cofence-ignore-upward link-covers-upto
           link-bitmap-shift
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.split_first() {
        Some((c, r)) => (c.as_str(), r),
        None => {
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match cmd {
        "explore" => cmd_explore(rest),
        "suite" => cmd_suite(rest),
        "mutate" => cmd_mutate(rest),
        "replay" => cmd_replay(rest),
        "plan-diff" => cmd_plan_diff(rest),
        "--help" | "-h" | "help" => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => Err(format!("unknown subcommand {other:?}\n\n{USAGE}")),
    };
    match result {
        Ok(clean) => {
            if clean {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(msg) => {
            eprintln!("caf-check: {msg}");
            ExitCode::from(2)
        }
    }
}

struct Opts {
    images: usize,
    depth: usize,
    spawns: Vec<(usize, String)>,
    crash: Option<usize>,
    family: Option<Family>,
    mutation: Option<Mutation>,
    por: bool,
    max_states: u64,
    crash_scenarios: bool,
    por_ratio: bool,
    quiet: bool,
    out: Option<String>,
    names: Vec<String>,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        images: 3,
        depth: 2,
        spawns: Vec::new(),
        crash: None,
        family: None,
        mutation: None,
        por: true,
        max_states: 2_000_000,
        crash_scenarios: false,
        por_ratio: false,
        quiet: false,
        out: None,
        names: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next().map(String::as_str).ok_or_else(|| format!("{flag} needs a value"))
        };
        match a.as_str() {
            "--images" => o.images = value("--images")?.parse().map_err(|e| format!("{e}"))?,
            "--depth" => o.depth = value("--depth")?.parse().map_err(|e| format!("{e}"))?,
            "--spawn" => {
                let v = value("--spawn")?;
                let (from, tree) = v
                    .split_once(' ')
                    .ok_or_else(|| format!("--spawn needs '<from> <tree>', got {v:?}"))?;
                o.spawns.push((
                    from.parse().map_err(|e| format!("bad spawn rank: {e}"))?,
                    tree.to_string(),
                ));
            }
            "--crash" => o.crash = Some(value("--crash")?.parse().map_err(|e| format!("{e}"))?),
            "--family" => o.family = Some(Family::parse(value("--family")?)?),
            "--mutation" => o.mutation = Some(Mutation::parse(value("--mutation")?)?),
            "--no-por" => o.por = false,
            "--max-states" => {
                o.max_states = value("--max-states")?.parse().map_err(|e| format!("{e}"))?
            }
            "--crash-scenarios" => o.crash_scenarios = true,
            "--por-ratio" => o.por_ratio = true,
            "--quiet" => o.quiet = true,
            "--out" => o.out = Some(value("--out")?.to_string()),
            other if !other.starts_with('-') => o.names.push(other.to_string()),
            other => return Err(format!("unknown flag {other:?}\n\n{USAGE}")),
        }
    }
    Ok(o)
}

fn report_ce(ce: &Counterexample) {
    println!("counterexample: {} violation", ce.violation.kind.name());
    println!("  scenario:  {}", ce.scenario.name());
    println!("  family:    {}", ce.family.name());
    if let Some(m) = ce.mutation {
        println!("  mutation:  {}", m.name());
    }
    println!("  detail:    {}", ce.violation.detail);
    println!("  schedule ({} steps):", ce.schedule.len());
    for k in &ce.schedule {
        println!("    {k}");
    }
}

fn cmd_explore(args: &[String]) -> Result<bool, String> {
    let o = parse_opts(args)?;
    let mut roots = Vec::new();
    for (from, tree) in &o.spawns {
        roots.push((*from, parse_tree(tree)?));
    }
    let scenario = Scenario { images: o.images, roots, crash: o.crash };
    let family = o.family.unwrap_or(Family::EpochStrict);
    let cfg = ExploreConfig { max_states: o.max_states, por: o.por, differential: true };
    let start = Instant::now();
    let (stats, ce) = explore(&scenario, family, o.mutation, &cfg);
    println!(
        "explored {}: {} states, {} schedules ({} terminated, {} aborted), \
         {} budget-pruned, {} sleep-cut, max schedule {}, {:.2?}{}",
        scenario.name(),
        stats.states,
        stats.schedules,
        stats.terminated,
        stats.aborted,
        stats.pruned_budget,
        stats.sleep_cut,
        stats.max_schedule_len,
        start.elapsed(),
        if stats.truncated { " [TRUNCATED]" } else { "" },
    );
    match ce {
        Some(ce) => {
            let small = shrink(&ce);
            report_ce(&small);
            let text = Replay::from_counterexample(&small).to_text();
            match &o.out {
                Some(path) => {
                    std::fs::write(path, &text).map_err(|e| format!("writing {path}: {e}"))?;
                    println!("wrote {path}");
                }
                None => {
                    println!("--- replay file ---");
                    print!("{text}");
                }
            }
            Ok(false)
        }
        None => {
            println!("no counterexamples");
            Ok(true)
        }
    }
}

fn cmd_suite(args: &[String]) -> Result<bool, String> {
    let o = parse_opts(args)?;
    let all = scenarios(o.images, o.depth, o.crash_scenarios);
    let cfg = ExploreConfig { max_states: o.max_states, por: true, differential: true };
    let start = Instant::now();
    let mut total_states = 0u64;
    let mut total_schedules = 0u64;
    let mut truncated = 0usize;
    let mut failures = 0usize;
    let mut runs = 0usize;
    for s in &all {
        for family in Family::ALL {
            runs += 1;
            let t0 = Instant::now();
            let (stats, ce) = explore(s, family, None, &cfg);
            total_states += stats.states;
            total_schedules += stats.schedules;
            if stats.truncated {
                truncated += 1;
            }
            if !o.quiet {
                println!(
                    "  {:<28} {:<13} {:>9} states {:>9} schedules {:>8.2?}{}",
                    s.name(),
                    family.name(),
                    stats.states,
                    stats.schedules,
                    t0.elapsed(),
                    if stats.truncated { " [TRUNCATED]" } else { "" },
                );
            }
            if let Some(ce) = ce {
                failures += 1;
                let small = shrink(&ce);
                report_ce(&small);
            }
        }
    }
    // Cofence matrix: every pass pair × op-class pair × schedule.
    let (programs, cofence_violation) = cofence_check::check_matrix(None);
    if let Some(v) = &cofence_violation {
        failures += 1;
        println!("cofence matrix violation: {}", v.detail);
    }
    // The reliable-link machine over a lossy wire, every scenario.
    let t0 = Instant::now();
    let (link, link_violation) = link_check::check_all(None);
    if !o.quiet {
        println!(
            "  {:<28} {:<13} {:>9} states {:>9} finals    {:>8.2?}",
            "lossy-link",
            "link-machine",
            link.states,
            link.finals,
            t0.elapsed(),
        );
    }
    if let Some(v) = &link_violation {
        failures += 1;
        println!("lossy-link {} violation: {}", v.kind.name(), v.detail);
    }
    println!(
        "suite: {} scenario×family runs + {programs} cofence programs + {} lossy-link states, \
         {total_states} states, {total_schedules} schedules, {truncated} truncated, \
         {failures} counterexamples, {:.2?}",
        runs,
        link.states,
        start.elapsed()
    );
    if o.por_ratio {
        por_ratio(o.images);
    }
    Ok(failures == 0)
}

/// Measures the sleep-set reduction on a representative scenario.
fn por_ratio(images: usize) {
    let scenario = Scenario {
        images: images.min(3),
        roots: vec![(0, parse_tree("1(2,2)").expect("static tree"))],
        crash: None,
    };
    let base = ExploreConfig { max_states: 50_000_000, por: true, differential: false };
    let t0 = Instant::now();
    let (with, _) = explore(&scenario, Family::EpochStrict, None, &base);
    let t_por = t0.elapsed();
    let t1 = Instant::now();
    let (without, _) =
        explore(&scenario, Family::EpochStrict, None, &ExploreConfig { por: false, ..base });
    let t_full = t1.elapsed();
    println!(
        "por-ratio on {}: {} states with sleep sets ({t_por:.2?}) vs {} without \
         ({t_full:.2?}) — {:.1}x reduction",
        scenario.name(),
        with.states,
        without.states,
        without.states as f64 / with.states.max(1) as f64,
    );
}

fn cmd_mutate(args: &[String]) -> Result<bool, String> {
    let o = parse_opts(args)?;
    let selected: Vec<String> = if o.names.is_empty() {
        Mutation::ALL
            .iter()
            .map(|m| m.name().to_string())
            .chain(CofenceMutation::ALL.iter().map(|m| m.name().to_string()))
            .chain(LinkMutation::ALL.iter().map(|m| m.name().to_string()))
            .collect()
    } else {
        o.names.clone()
    };
    let mut all_caught = true;
    for name in &selected {
        if let Ok(m) = CofenceMutation::parse(name) {
            let (_, v) = cofence_check::check_matrix(Some(m));
            match v {
                Some(v) => {
                    println!("{name}: CAUGHT ({}) — {}", v.kind.name(), v.detail)
                }
                None => {
                    println!("{name}: ESCAPED the cofence matrix");
                    all_caught = false;
                }
            }
            continue;
        }
        if let Ok(m) = LinkMutation::parse(name) {
            match link_check::check_all(Some(m)) {
                (_, Some(v)) => println!("{name}: CAUGHT ({}) — {}", v.kind.name(), v.detail),
                (_, None) => {
                    println!("{name}: ESCAPED the lossy-link scenarios");
                    all_caught = false;
                }
            }
            continue;
        }
        let m = Mutation::parse(name)?;
        match hunt_mutation(m, &o) {
            Some(ce) => {
                let small = shrink(&ce);
                println!(
                    "{name}: CAUGHT ({}) in {} after shrinking to {} steps",
                    small.violation.kind.name(),
                    small.scenario.name(),
                    small.schedule.len()
                );
                if let Some(dir) = &o.out {
                    let path = format!("{dir}/{name}.replay");
                    std::fs::write(&path, Replay::from_counterexample(&small).to_text())
                        .map_err(|e| format!("writing {path}: {e}"))?;
                    println!("  wrote {path}");
                }
            }
            None => {
                println!("{name}: ESCAPED — no counterexample in the search bound");
                all_caught = false;
            }
        }
    }
    Ok(all_caught)
}

/// Searches the curated scenario family (smallest first) for a
/// counterexample exposing `m`.
fn hunt_mutation(m: Mutation, o: &Opts) -> Option<Counterexample> {
    let cfg = ExploreConfig { max_states: o.max_states, por: true, differential: false };
    let mut all = scenarios(o.images, o.depth, m.needs_crash());
    if m.needs_crash() {
        all.retain(|s| s.crash.is_some());
    }
    all.sort_by_key(|s| (s.total_spawns(), s.roots.len()));
    for s in &all {
        let (_, ce) = explore(s, m.family(), Some(m), &cfg);
        if ce.is_some() {
            return ce;
        }
    }
    None
}

fn cmd_plan_diff(args: &[String]) -> Result<bool, String> {
    let o = parse_opts(args)?;
    if o.names.is_empty() {
        return Err("plan-diff needs at least one plan FILE".into());
    }
    let max_states = o.max_states as usize;
    let mut all_agree = true;
    for path in &o.names {
        let src = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        let plan = caf_lint::parse(&src).map_err(|e| format!("{path}: {e}"))?;
        let agreement =
            caf_check::check_plan(&plan, max_states).map_err(|e| format!("{path}: {e}"))?;
        let name = std::path::Path::new(path)
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| path.clone());
        println!("{name}: {}", agreement.summary());
        if !agreement.ok() {
            for k in &agreement.unrealized {
                println!("  unrealized static race: {} steps {} -> {}", k.0, k.1, k.2);
            }
            for k in &agreement.unpredicted {
                println!("  unpredicted dynamic race: {} steps {} -> {}", k.0, k.1, k.2);
            }
            if agreement.lint_deadlock != agreement.verdict.deadlock {
                match &agreement.verdict.deadlock_sample {
                    Some(d) => println!("  dynamic deadlock not statically reported: {d}"),
                    None => println!("  static deadlock diagnostic never realized"),
                }
            }
            all_agree = false;
        }
    }
    Ok(all_agree)
}

fn cmd_replay(args: &[String]) -> Result<bool, String> {
    let [file] = args else {
        return Err("replay needs exactly one FILE argument".into());
    };
    let text = std::fs::read_to_string(file).map_err(|e| format!("reading {file}: {e}"))?;
    let replay = Replay::parse(&text).map_err(|e| format!("{file}: {e}"))?;
    match replay.run() {
        Ok(msg) => {
            println!("{file}: OK — {msg}");
            Ok(true)
        }
        Err(msg) => {
            println!("{file}: MISMATCH — {msg}");
            Ok(false)
        }
    }
}
