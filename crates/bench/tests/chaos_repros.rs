//! Replays every committed fuzzer repro in `tests/repros/`.
//!
//! Each repro file records a scenario the fuzzer once shrank out of a
//! failing campaign, plus an expectation:
//!
//! * `"expect": "clean"` — the bug it reproduced has been fixed; the
//!   scenario must now run without panics, invariant violations, or an
//!   event-cap blowup. These are regression tests.
//! * `"expect": "<kind>"` — a documented known issue; the scenario must
//!   still fail with exactly that kind (if it stops reproducing, the
//!   issue is fixed and the file should be flipped to `"clean"`).
//!
//! Every replay runs the scenario **twice** and asserts the runs are
//! identical, so the suite also pins the fuzzer's determinism guarantee.
//! It goes through [`bench::fuzz::replay`], the function `fuzz --replay`
//! calls, which picks the family from the file's `"type"` tag.

use bench::fuzz::{replay, Chaos, Family};
use std::path::{Path, PathBuf};
use std::process::Command;

fn repro_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/repros")
}

fn replay_path(path: &Path) -> Result<bool, String> {
    replay(path.to_str().expect("utf-8 path"))
}

#[test]
fn committed_repros_replay_deterministically_and_match_expectations() {
    let mut paths: Vec<_> = std::fs::read_dir(repro_dir())
        .expect("tests/repros must exist")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "no repro files found");
    for path in paths {
        let verdict = replay_path(&path);
        assert_eq!(verdict, Ok(true), "{}", path.display());
    }
}

#[test]
fn a_bare_chaos_scenario_replays() {
    let repro = std::fs::read_to_string(repro_dir().join("crash-restore-wedge-baseline.json"))
        .expect("readable repro");
    let repro = bench::fuzz::ReproFile::<Chaos>::from_json(&repro).expect("parsable repro");
    let bare = Path::new(env!("CARGO_TARGET_TMPDIR")).join("bare-chaos-scenario.json");
    std::fs::write(&bare, Chaos::to_value(&repro.scenario).render()).expect("writable tmp");
    assert_eq!(replay_path(&bare), Ok(true));
}

#[test]
fn an_unknown_family_tag_is_refused_with_exit_code_2() {
    let repro = std::fs::read_to_string(repro_dir().join("cp-gossip-slower-than-expiry.json"))
        .expect("readable repro");
    let typo = repro.replacen("\"control-plane\"", "\"control_plane\"", 1);
    assert_ne!(typo, repro, "the committed repro is tagged");
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("typo-tag.json");
    std::fs::write(&path, typo).expect("writable tmp");

    let err = replay_path(&path).expect_err("unknown tag");
    for name in ["\"control_plane\"", "\"control-plane\"", "untagged"] {
        assert!(err.contains(name), "{err:?} does not name {name}");
    }
    let run = Command::new(env!("CARGO_BIN_EXE_fuzz"))
        .arg("--replay")
        .arg(&path)
        .output()
        .expect("fuzz runs");
    assert_eq!(run.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&run.stderr).contains(&err));
}
