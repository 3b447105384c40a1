//! Integration tests: fixture workspaces with known violations, the
//! suppression and baseline round-trips at the CLI level, and the
//! self-check asserting the live workspace is clean.

use ppr_lint::{engine, Config};
use std::path::{Path, PathBuf};
use std::process::Command;

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name)
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn every_lint_fires_on_its_fixture() {
    let report = engine::run(&fixture("violations"), &Config::default()).unwrap();
    assert!(report.suppressed.is_empty());
    assert!(report.baselined.is_empty());

    let hits: Vec<(String, u32, &str)> = report
        .failing
        .iter()
        .map(|f| (f.path.clone(), f.line, f.lint))
        .collect();
    // One representative (file, line, lint) per lint.
    for want in [
        ("crates/ppr-sim/src/det_collections.rs", 2, "determinism"),
        ("crates/ppr-core/src/det_time.rs", 3, "determinism"),
        ("crates/ppr-core/src/det_time.rs", 4, "determinism"),
        (
            "crates/ppr-mac/src/unsafe_outside.rs",
            4,
            "unsafe-containment",
        ),
        ("crates/ppr-phy/src/simd.rs", 3, "unsafe-containment"),
        ("crates/ppr-core/src/float_region.rs", 4, "no-float"),
        ("crates/ppr-channel/src/env_use.rs", 3, "env-hygiene"),
        (
            "crates/ppr-sim/src/flush_fanout.rs",
            3,
            "thread-containment",
        ),
    ] {
        assert!(
            hits.iter()
                .any(|(p, l, n)| p == want.0 && *l == want.1 && *n == want.2),
            "missing finding {want:?} in {hits:?}"
        );
    }
    // Per-lint totals stay pinned so a lint cannot silently widen or
    // narrow: 4 HashMap/HashSet mentions + Instant::now + thread_rng.
    let count = |lint: &str| report.failing.iter().filter(|f| f.lint == lint).count();
    assert_eq!(count("determinism"), 6);
    assert_eq!(count("unsafe-containment"), 2);
    assert_eq!(count("no-float"), 2); // `f64` token + float literal
    assert_eq!(count("env-hygiene"), 1);
    assert_eq!(count("thread-containment"), 1); // `scope`; `s.spawn` is a method
    assert_eq!(count("directive"), 0);
}

#[test]
fn suppressions_silence_but_are_counted() {
    let report = engine::run(&fixture("suppressed"), &Config::default()).unwrap();
    assert!(report.is_clean(), "{}", report.render(true));
    // One comment-line suppression + one same-line suppression, both
    // covering a `HashMap` mention.
    assert_eq!(report.suppressed.len(), 3, "{:?}", report.suppressed);
    assert!(report.suppressed.iter().all(|f| f.lint == "determinism"));
}

#[test]
fn baseline_round_trip_pins_and_then_goes_stale() {
    let root = fixture("violations");
    let clean = engine::run(&root, &Config::default()).unwrap();
    assert!(!clean.is_clean());

    // Pin everything: the same run under the generated baseline passes.
    // Entries are deduped by (path, line, lint) — float_region.rs has two
    // no-float findings on one line — so compare against the unique set.
    let unique: std::collections::BTreeSet<_> = clean
        .failing
        .iter()
        .map(|f| (f.path.clone(), f.line, f.lint))
        .collect();
    let pinned_cfg = clean.as_baseline();
    assert_eq!(pinned_cfg.baseline.len(), unique.len());
    let pinned = engine::run(&root, &pinned_cfg).unwrap();
    assert!(pinned.is_clean(), "{}", pinned.render(true));
    assert_eq!(pinned.baselined.len(), clean.failing.len());
    assert!(pinned.stale_baseline.is_empty());

    // The config text itself round-trips through the TOML subset.
    let reparsed = Config::parse(&pinned_cfg.render()).unwrap();
    assert_eq!(reparsed.baseline, {
        let mut b = pinned_cfg.baseline.clone();
        b.sort();
        b
    });

    // A baseline entry for debt that no longer exists is reported stale
    // but does not fail the run.
    let mut cfg_extra = pinned_cfg.clone();
    cfg_extra
        .baseline
        .push(ppr_lint::BaselineEntry::parse("crates/ppr-sim/src/gone.rs:9:determinism").unwrap());
    let stale = engine::run(&root, &cfg_extra).unwrap();
    assert!(stale.is_clean());
    assert_eq!(stale.stale_baseline.len(), 1);
}

/// The CLI surface: exit codes, --fix-baseline writing a config that
/// makes the next run pass.
#[test]
fn cli_exit_codes_and_fix_baseline() {
    let bin = env!("CARGO_BIN_EXE_ppr-lint");
    let tmp = std::env::temp_dir().join(format!("ppr-lint-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp).unwrap();
    let cfg_path = tmp.join("ppr-lint.toml");

    // Violations, no baseline: nonzero exit, file:line diagnostics.
    let out = Command::new(bin)
        .args(["--root"])
        .arg(fixture("violations"))
        .arg("--config")
        .arg(&cfg_path)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("crates/ppr-channel/src/env_use.rs:3: [env-hygiene]"),
        "{stdout}"
    );

    // --fix-baseline pins the debt...
    let out = Command::new(bin)
        .args(["--root"])
        .arg(fixture("violations"))
        .arg("--config")
        .arg(&cfg_path)
        .arg("--fix-baseline")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(cfg_path.exists());

    // ...and the rerun under it exits 0 while still counting the debt.
    let out = Command::new(bin)
        .args(["--root"])
        .arg(fixture("violations"))
        .arg("--config")
        .arg(&cfg_path)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("0 failing"), "{stdout}");
    assert!(!stdout.contains(" 0 baselined"), "{stdout}");

    let _ = std::fs::remove_dir_all(&tmp);
}

/// The acceptance gate: the live workspace is clean, with no pinned
/// debt at all for the determinism and unsafe-containment invariants
/// (suppressions are allowed — they are visible and justified in-line).
#[test]
fn live_workspace_is_clean() {
    let root = workspace_root().canonicalize().unwrap();
    let cfg = Config::load(&root.join("ppr-lint.toml")).unwrap();
    assert!(
        !cfg.baseline
            .iter()
            .any(|e| e.lint == "determinism" || e.lint == "unsafe-containment"),
        "determinism/unsafe-containment debt must be fixed, not pinned"
    );
    let report = engine::run(&root, &cfg).unwrap();
    assert!(report.is_clean(), "\n{}", report.render(false));
    assert!(
        report.stale_baseline.is_empty(),
        "{:?}",
        report.stale_baseline
    );
    // The walk actually saw the workspace (guard against a silent
    // wrong-root no-op making this test vacuous).
    assert!(report.files_scanned > 50, "{} files", report.files_scanned);
}
