//! Regression corpus: every counterexample fixture under
//! `tests/fixtures/counterexamples/` must keep reproducing its recorded
//! violation, bit-for-bit, against the current protocol models.
//!
//! The corpus is generated by `caf-check mutate --out <dir>` — each file
//! is the shrunk, canonicalized schedule on which a seeded protocol
//! mutation was first caught. If a model change silently alters transition
//! semantics, the strict replay here fails before anything subtler does.

use std::fs;
use std::path::PathBuf;

use caf_check::replay::Replay;
use caf_check::world::{Outcome, World};

fn corpus_dir() -> PathBuf {
    // crates/caf-check/tests/ → workspace tests/fixtures/counterexamples
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/counterexamples")
}

#[test]
fn every_fixture_reproduces_its_violation() {
    let dir = corpus_dir();
    let mut entries: Vec<PathBuf> = fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("fixture corpus missing at {}: {e}", dir.display()))
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "replay"))
        .collect();
    entries.sort();
    assert!(
        entries.len() >= 10,
        "expected the full finish-protocol mutation corpus (10 files), found {}",
        entries.len()
    );
    for path in entries {
        let text = fs::read_to_string(&path).expect("readable fixture");
        let replay =
            Replay::parse(&text).unwrap_or_else(|e| panic!("{}: parse: {e}", path.display()));
        assert!(
            replay.expect.is_some(),
            "{}: corpus fixtures must pin an expected violation",
            path.display()
        );
        let msg = replay
            .run()
            .unwrap_or_else(|e| panic!("{}: no longer reproduces: {e}", path.display()));
        eprintln!("{}: {msg}", path.file_name().unwrap().to_string_lossy());
    }
}

#[test]
fn fixtures_round_trip_through_the_text_format() {
    for entry in fs::read_dir(corpus_dir()).expect("fixture corpus") {
        let path = entry.expect("entry").path();
        if path.extension().is_none_or(|x| x != "replay") {
            continue;
        }
        let text = fs::read_to_string(&path).expect("readable fixture");
        let replay = Replay::parse(&text).expect("parse");
        let reparsed = Replay::parse(&replay.to_text()).expect("reparse");
        assert_eq!(reparsed, replay, "{}: serialize/parse not a fixpoint", path.display());
    }
}

/// The staggered-exit schedule that catches `next-wave-alias` is a legal
/// schedule of the unmutated protocol: it runs without a violation (wave
/// 2 continues with V in flight), and the run then terminates cleanly.
#[test]
fn next_wave_alias_schedule_is_clean_without_the_mutation() {
    let text = fs::read_to_string(corpus_dir().join("next-wave-alias.replay")).expect("fixture");
    let replay = Replay::parse(&text).expect("parse");
    let mut w = World::new(&replay.scenario, replay.family, None);
    for k in &replay.schedule {
        w.step(k)
            .unwrap_or_else(|v| panic!("{k}: {} violation: {}", v.kind.name(), v.detail));
    }
    assert_eq!(w.done, None, "wave 2 must continue");
    while let Some(k) = w.enabled().first().cloned() {
        w.step(&k)
            .unwrap_or_else(|v| panic!("{k}: {} violation: {}", v.kind.name(), v.detail));
    }
    assert_eq!(w.done, Some(Outcome::Terminated));
}
