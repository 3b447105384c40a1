//! `ppr-cli` — the single driver for every paper experiment.
//!
//! ```text
//! ppr-cli --list                          # what can run
//! ppr-cli run fig10                       # one experiment, text report
//! ppr-cli run --all                       # everything, registry order
//! ppr-cli run fig10 --set duration=20     # scenario overrides
//! ppr-cli run fig10 --set load=3.5,6.9,13.8 --json out/
//!                                         # sweep: one run + one JSON
//!                                         # file per parameter point
//! ```
//!
//! Comma-separated `--set` values sweep the cartesian product of all
//! swept keys; every point runs the selected experiments under its own
//! [`Scenario`]. `--json DIR` writes one self-describing JSON document
//! per (experiment, point) next to the text output.
//!
//! `ppr-cli diff` is the differential harness: each selected experiment
//! runs with and without a mid-run checkpoint and the rendered reports
//! are compared byte for byte; one reception checkpoint is then
//! restored under every reception backend and the streams diffed event
//! by event (`ppr_sim::diff`). Any disagreement exits 1 and — with
//! `--json DIR` — writes a first-divergence report.
//!
//! Exit status: 0 on success, 1 on divergence, 2 on usage errors
//! (unknown id, malformed `--set`, unknown flag).

use ppr_sim::adversary::JammerSpec;
use ppr_sim::diff::{active_kernel_signature, cross_validate, standard_backends};
use ppr_sim::experiments::common::CapacityRun;
use ppr_sim::experiments::mesh::{run_mesh, MeshDriver, MeshParams};
use ppr_sim::experiments::{find, registry, Experiment};
use ppr_sim::network::{snapshot_after_events, RxArm};
use ppr_sim::results::{fingerprint, ExperimentResult, Json};
use ppr_sim::scenario::{Scenario, ScenarioBuilder, SCENARIO_KEYS};
use ppr_sim::snapshot::{MeshSnapshot, RxSnapshot};

/// Usage text printed by `--help` and on argument errors.
const USAGE: &str = "\
usage:
  ppr-cli --list                     list registered experiments
  ppr-cli run <id>... [options]      run experiments by id
  ppr-cli run --all [options]        run the full registry
  ppr-cli diff <id>... [options]     cross-validate experiments across
  ppr-cli diff --all [options]       checkpoints and backends

options:
  --set key=value[,value...]         scenario override; comma-separated
                                     values sweep the cartesian product
  --json DIR                         write one JSON result per
                                     (experiment, sweep point) into DIR
                                     (for diff: the divergence report)
  --help                             this text

scenario keys (builder > env > default):";

fn print_usage(mut to: impl std::io::Write) {
    let _ = writeln!(to, "{USAGE}");
    for (key, help) in SCENARIO_KEYS {
        let _ = writeln!(to, "  {key:<14} {help}");
    }
}

/// Prints the standard experiment banner (the format the historical
/// per-figure binaries used).
fn banner(title: &str) {
    println!("{}", "=".repeat(72));
    println!("PPR reproduction — {title}");
    println!("{}", "=".repeat(72));
}

struct RunArgs {
    ids: Vec<String>,
    all: bool,
    sets: Vec<(String, Vec<String>)>,
    json_dir: Option<String>,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(real_main(&args));
}

fn real_main(args: &[String]) -> i32 {
    match args.first().map(String::as_str) {
        None => {
            print_usage(std::io::stderr());
            2
        }
        Some("--help") | Some("-h") => {
            print_usage(std::io::stdout());
            0
        }
        Some("--list") | Some("list") => {
            list();
            0
        }
        Some("run") => match parse_run_args(&args[1..]) {
            Ok(run_args) => run(&run_args),
            Err(e) => {
                eprintln!("error: {e}\n");
                print_usage(std::io::stderr());
                2
            }
        },
        Some("diff") => match parse_run_args(&args[1..]) {
            Ok(run_args) => diff(&run_args),
            Err(e) => {
                eprintln!("error: {e}\n");
                print_usage(std::io::stderr());
                2
            }
        },
        Some(other) => {
            eprintln!("error: unknown command {other:?}\n");
            print_usage(std::io::stderr());
            2
        }
    }
}

fn list() {
    let mut t = ppr_sim::report::Table::new(&["id", "paper ref", "description"]);
    for exp in registry() {
        t.row(&[
            exp.id().to_string(),
            exp.paper_ref().to_string(),
            exp.description().to_string(),
        ]);
    }
    print!("{}", t.render());
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut out = RunArgs {
        ids: Vec::new(),
        all: false,
        sets: Vec::new(),
        json_dir: None,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--all" => out.all = true,
            "--set" => {
                let kv = args
                    .get(i + 1)
                    .ok_or_else(|| "--set needs a key=value argument".to_string())?;
                let (key, values) = kv
                    .split_once('=')
                    .ok_or_else(|| format!("malformed --set {kv:?} (want key=value)"))?;
                if key.trim().is_empty() || values.trim().is_empty() {
                    return Err(format!("malformed --set {kv:?} (want key=value)"));
                }
                let values: Vec<String> = values.split(',').map(|v| v.to_string()).collect();
                // Validate every value now so a sweep fails before any
                // simulation time is spent.
                let mut probe = ScenarioBuilder::new();
                for v in &values {
                    probe.set(key, v)?;
                }
                out.sets.push((key.to_string(), values));
            }
            "--json" => {
                let dir = args
                    .get(i + 1)
                    .ok_or_else(|| "--json needs a directory argument".to_string())?;
                out.json_dir = Some(dir.clone());
            }
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag:?}")),
            id => {
                find(id).ok_or_else(|| {
                    let ids: Vec<&str> = registry().iter().map(|e| e.id()).collect();
                    format!(
                        "unknown experiment {id:?}; registered ids: {}",
                        ids.join(", ")
                    )
                })?;
                out.ids.push(id.to_string());
            }
        }
        i += match args[i].as_str() {
            "--set" | "--json" => 2,
            _ => 1,
        };
    }
    if !out.all && out.ids.is_empty() {
        return Err("nothing to run: give experiment ids or --all".to_string());
    }
    if out.all && !out.ids.is_empty() {
        return Err("--all and explicit ids are mutually exclusive".to_string());
    }
    Ok(out)
}

/// The cartesian product of all swept keys, as per-point key=value
/// assignments (a single point with no assignments when nothing is
/// swept).
fn sweep_points(sets: &[(String, Vec<String>)]) -> Vec<Vec<(String, String)>> {
    let mut points: Vec<Vec<(String, String)>> = vec![Vec::new()];
    for (key, values) in sets {
        let mut next = Vec::with_capacity(points.len() * values.len());
        for point in &points {
            for v in values {
                let mut p = point.clone();
                p.push((key.clone(), v.clone()));
                next.push(p);
            }
        }
        points = next;
    }
    points
}

fn scenario_for(point: &[(String, String)]) -> Result<Scenario, String> {
    let mut b = ScenarioBuilder::new();
    for (k, v) in point {
        b.set(k, v)?;
    }
    Ok(b.build())
}

/// The swept keys' assignments for one point — the sweep-point label
/// and JSON filename suffix.
fn point_label(point: &[(String, String)], sets: &[(String, Vec<String>)]) -> String {
    point
        .iter()
        .filter(|(k, _)| {
            sets.iter()
                .any(|(key, values)| key == k && values.len() > 1)
        })
        .map(|(k, v)| format!("{k}={v}"))
        .collect::<Vec<_>>()
        .join("__")
}

fn run(args: &RunArgs) -> i32 {
    let selected: Vec<&'static dyn Experiment> = if args.all {
        registry().to_vec()
    } else {
        args.ids
            .iter()
            .map(|id| find(id).expect("validated during parse"))
            .collect()
    };

    if let Some(dir) = &args.json_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("error: cannot create --json directory {dir:?}: {e}");
            return 1;
        }
    }

    let points = sweep_points(&args.sets);
    let multi_point = points.len() > 1;
    for (p, point) in points.iter().enumerate() {
        let scenario = match scenario_for(point) {
            Ok(s) => s,
            Err(e) => {
                // Unreachable in practice: values were validated during
                // argument parsing.
                eprintln!("error: {e}");
                return 2;
            }
        };
        let label = point_label(point, &args.sets);
        if multi_point {
            if p > 0 {
                println!();
            }
            println!("### sweep point {}/{}: {label}", p + 1, points.len());
            println!();
        }
        if args.all {
            banner("ALL EXPERIMENTS");
            println!(
                "simulated duration per run: {} s (override with PPR_DURATION)\n",
                scenario.duration_s
            );
        }
        let mut results: Vec<ExperimentResult> = Vec::with_capacity(selected.len());
        for (i, exp) in selected.iter().enumerate() {
            if i > 0 {
                println!();
            }
            if !args.all {
                banner(exp.title());
            }
            let result = exp.run_with(&scenario, &results);
            print!("{}", result.render_text());
            if let Some(dir) = &args.json_dir {
                let file = if label.is_empty() {
                    format!("{}.json", result.id)
                } else {
                    format!("{}__{label}.json", result.id)
                };
                let path = std::path::Path::new(dir).join(file);
                if let Err(e) = std::fs::write(&path, result.to_json().render()) {
                    eprintln!("error: cannot write {}: {e}", path.display());
                    return 1;
                }
            }
            results.push(result);
        }
    }
    0
}

/// Default checkpoint epoch for `diff` when the scenario does not pin
/// one (`--set checkpoint=N`): early enough that every short run still
/// has work left after the restore, late enough that in-flight state
/// exists when it is taken.
const DIFF_DEFAULT_CHECKPOINT: u64 = 200;

/// The checkpoint combinations the experiment-level pass runs; the
/// first is the baseline.
fn diff_variants(base: &Scenario, checkpoint: u64) -> Vec<(&'static str, Scenario)> {
    [("event", None), ("event+checkpoint", Some(checkpoint))]
        .into_iter()
        .map(|(name, checkpoint)| {
            let mut sc = base.clone();
            sc.checkpoint = checkpoint;
            (name, sc)
        })
        .collect()
}

/// The adversarial mesh the `diff` fleet validates: 300 nodes under a
/// reactive jammer with churn and a ×1.5 backoff ladder, seeded from
/// the scenario so `--set seed=` varies the whole pass.
fn jammed_mesh_params(base: &Scenario) -> MeshParams {
    let mut p = MeshParams::benign(300, 12.0, base.seed, base.eta, 250);
    p.jammer = JammerSpec::React { delay: 4096 };
    p.churn = 2.0;
    p.arq_backoff_milli = 1500;
    p
}

fn diff(args: &RunArgs) -> i32 {
    let selected: Vec<&'static dyn Experiment> = if args.all {
        registry().to_vec()
    } else {
        args.ids
            .iter()
            .map(|id| find(id).expect("validated during parse"))
            .collect()
    };
    if let Some(dir) = &args.json_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("error: cannot create --json directory {dir:?}: {e}");
            return 1;
        }
    }

    let points = sweep_points(&args.sets);
    let mut failures: Vec<Json> = Vec::new();
    let mut stream_rows: Vec<Json> = Vec::new();
    for (p, point) in points.iter().enumerate() {
        let base = match scenario_for(point) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: {e}");
                return 2;
            }
        };
        let label = point_label(point, &args.sets);
        if points.len() > 1 {
            if p > 0 {
                println!();
            }
            println!("### sweep point {}/{}: {label}", p + 1, points.len());
        }
        let checkpoint = base.checkpoint.unwrap_or(DIFF_DEFAULT_CHECKPOINT);
        println!(
            "kernel: {}   checkpoint: {checkpoint} events",
            active_kernel_signature()
        );
        println!();

        // Experiment-level pass: every selected experiment with and
        // without a checkpoint; the rendered reports must be
        // byte-identical.
        let mut t = ppr_sim::report::Table::new(&["experiment", "event+checkpoint"]);
        for exp in &selected {
            let variants = diff_variants(&base, checkpoint);
            let baseline = exp.run(&variants[0].1).render_text();
            let mut row = vec![exp.id().to_string()];
            for (name, sc) in &variants[1..] {
                let agree = exp.run(sc).render_text() == baseline;
                row.push(if agree { "ok" } else { "DIVERGED" }.to_string());
                if !agree {
                    failures.push(Json::Obj(vec![
                        ("experiment".into(), Json::str(exp.id())),
                        ("variant".into(), Json::str(*name)),
                        ("point".into(), Json::str(&label)),
                    ]));
                }
            }
            t.row(&row);
        }
        print!("{}", t.render());
        println!();

        // Stream-level pass: one reception checkpoint, restored under
        // every backend, streams diffed event by event.
        let mut event_base = base.clone();
        event_base.checkpoint = None;
        let run = CapacityRun::from_scenario(&event_base, 13.8, false);
        let arm = RxArm {
            scheme: base.ppr_scheme(),
            postamble: true,
            collect_symbols: false,
        };
        let bytes = snapshot_after_events(&run.env, &run.cfg, &run.timeline, &arm, checkpoint);
        let snap = match RxSnapshot::from_bytes(&bytes) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: reception snapshot does not round-trip: {e}");
                return 1;
            }
        };
        let reports = match cross_validate(
            &run.env,
            &run.cfg,
            &run.timeline,
            &arm,
            &snap,
            &standard_backends(),
        ) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error: checkpoint restore failed: {e}");
                return 1;
            }
        };
        let mut t = ppr_sim::report::Table::new(&["backend", "stream fingerprint", "vs baseline"]);
        for report in &reports {
            let verdict = match &report.divergence {
                None => "ok".to_string(),
                Some(d) => format!("DIVERGED: {d}"),
            };
            t.row(&[
                report.label.clone(),
                format!("{:016x}", report.stream_fp),
                verdict,
            ]);
            let mut fields = vec![
                ("backend".into(), Json::str(&report.label)),
                (
                    "stream_fingerprint".into(),
                    Json::str(format!("{:016x}", report.stream_fp)),
                ),
                ("point".into(), Json::str(&label)),
            ];
            if let Some(d) = &report.divergence {
                fields.push((
                    "first_divergence".into(),
                    Json::Obj(vec![
                        ("index".into(), Json::int(d.index as u64)),
                        ("tx_id".into(), Json::int(d.tx_id)),
                        ("sender".into(), Json::int(d.sender as u64)),
                        ("receiver".into(), Json::int(d.receiver as u64)),
                        ("end_chip".into(), Json::int(d.end_chip)),
                        ("field".into(), Json::str(d.field)),
                        ("baseline".into(), Json::str(&d.left)),
                        ("candidate".into(), Json::str(&d.right)),
                    ]),
                ));
                failures.push(Json::Obj(vec![
                    ("backend".into(), Json::str(&report.label)),
                    ("point".into(), Json::str(&label)),
                    ("divergence".into(), Json::str(d.to_string())),
                ]));
            }
            stream_rows.push(Json::Obj(fields));
        }
        print!("{}", t.render());
        println!();

        // Jammed-mesh pass: one frozen adversarial mesh checkpoint
        // (reactive jammer + churn + exponential backoff), sent through
        // the byte format and resumed. Small on purpose — the point is
        // agreement with the uninterrupted run, not scale.
        let mesh_params = jammed_mesh_params(&base);
        let reference = run_mesh(&mesh_params);
        let reference_fp = fingerprint(format!("{reference:?}").as_bytes());
        let mut driver = MeshDriver::new(&mesh_params, None);
        driver.run_events(checkpoint);
        let snap_bytes = driver.save().to_bytes();
        let snap = match MeshSnapshot::from_bytes(&snap_bytes) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: jammed mesh snapshot does not round-trip: {e}");
                return 1;
            }
        };
        let mut t =
            ppr_sim::report::Table::new(&["jammed mesh", "stats fingerprint", "vs baseline"]);
        t.row(&[
            "uninterrupted".to_string(),
            format!("{reference_fp:016x}"),
            "ok".to_string(),
        ]);
        let resumed = match MeshDriver::restore(&mesh_params, &snap) {
            Ok(d) => d.run_to_end(),
            Err(e) => {
                eprintln!("error: jammed mesh checkpoint restore failed: {e}");
                return 1;
            }
        };
        let fp = fingerprint(format!("{resumed:?}").as_bytes());
        let agree = resumed == reference;
        t.row(&[
            "resumed".to_string(),
            format!("{fp:016x}"),
            if agree { "ok" } else { "DIVERGED" }.to_string(),
        ]);
        if !agree {
            failures.push(Json::Obj(vec![
                ("jammed_mesh".into(), Json::str("resumed")),
                ("point".into(), Json::str(&label)),
            ]));
        }
        print!("{}", t.render());
    }

    let diverged = !failures.is_empty();
    if let Some(dir) = &args.json_dir {
        let report = Json::Obj(vec![
            ("kernel".into(), Json::str(active_kernel_signature())),
            ("diverged".into(), Json::Bool(diverged)),
            ("failures".into(), Json::Arr(failures)),
            ("streams".into(), Json::Arr(stream_rows)),
        ]);
        let path = std::path::Path::new(dir).join("diff_report.json");
        if let Err(e) = std::fs::write(&path, report.render()) {
            eprintln!("error: cannot write {}: {e}", path.display());
            return 1;
        }
    }
    if diverged {
        eprintln!("error: differential run diverged");
        1
    } else {
        println!("\nall combinations agree");
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_points_build_the_cartesian_product() {
        let sets = vec![
            ("load".to_string(), vec!["3.5".into(), "13.8".into()]),
            ("eta".to_string(), vec!["6".into()]),
            ("seed".to_string(), vec!["1".into(), "2".into()]),
        ];
        let points = sweep_points(&sets);
        assert_eq!(points.len(), 4);
        // Every point carries all three keys; only swept keys label it.
        for p in &points {
            assert_eq!(p.len(), 3);
            let label = point_label(p, &sets);
            assert!(label.contains("load="));
            assert!(!label.contains("eta="));
            assert!(label.contains("seed="));
        }
    }

    #[test]
    fn run_args_reject_unknown_and_malformed_input() {
        for bad in [
            vec!["nonexistent".to_string()],
            vec!["--set".to_string()],
            vec!["fig03".to_string(), "--set".to_string(), "load".to_string()],
            vec![
                "fig03".to_string(),
                "--set".to_string(),
                "load=abc".to_string(),
            ],
            vec![
                "fig03".to_string(),
                "--set".to_string(),
                "bogus_key=1".to_string(),
            ],
            vec!["--frobnicate".to_string()],
            vec![],
        ] {
            assert!(parse_run_args(&bad).is_err(), "{bad:?} must be rejected");
        }
        let ok = parse_run_args(&[
            "fig03".to_string(),
            "--set".to_string(),
            "load=3.5,6.9".to_string(),
            "--json".to_string(),
            "out".to_string(),
        ])
        .unwrap();
        assert_eq!(ok.ids, vec!["fig03"]);
        assert_eq!(ok.sets.len(), 1);
        assert_eq!(ok.json_dir.as_deref(), Some("out"));
    }
}
