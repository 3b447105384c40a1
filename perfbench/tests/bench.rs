//! The benchmark's own checks, at a reduced scale: the testbed replay
//! reproduces the event driver, and the traced run emits exactly the
//! per-layer metrics `BENCHMARK.json` declares.

use perfbench::replay::{drive, replay, ReplayRun};
use perfbench::trace::{run_trace, PER_LAYER};
use perfbench::workload::{scenario, Scale, Workload};
use ppr_sim::network::{generate_timeline, process_receptions};

const SMALL: Scale = Scale {
    duration_s: 2.0,
    mesh_nodes: 400,
};

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
/// The file is machine-written with one key per line, so a line scan
/// suffices and keeps the package free of a JSON dependency.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let body = text
        .split(&format!("\"{section}\": ["))
        .nth(1)
        .expect("section present")
        .split("\n  ]")
        .next()
        .expect("section closes");
    let value = |line: &str| line.split('"').nth(3).expect("quoted value").to_string();
    let mut out = Vec::new();
    let mut name = None;
    for line in body.lines().map(str::trim) {
        if line.starts_with("\"name\"") {
            name = Some(value(line));
        } else if line.starts_with("\"unit\"") {
            out.push((name.take().expect("name before unit"), value(line)));
        }
    }
    out
}

#[test]
fn replay_reproduces_process_receptions() {
    let sc = scenario(7, 2, SMALL);
    let run = ReplayRun::fig10_ppr(&sc);
    let timeline = generate_timeline(&run.env, &run.cfg);
    let (replayed, rep) = replay(&run, &timeline);
    let reference = process_receptions(&run.env, &run.cfg, &timeline, &run.arm);
    assert!(!reference.is_empty());
    assert_eq!(replayed, reference);
    assert_eq!(drive(&run, &timeline, 2).0, reference);
    assert_eq!(drive(&run, &timeline, 1).0, reference);
    assert_eq!(rep.receptions, reference.len());
    assert!(rep.acquired > 0 && rep.render_chips > 0);
}

#[test]
fn traced_metrics_match_benchmark_json() {
    let want: Vec<(String, String)> = declared("per_layer");
    let listed: Vec<(String, String)> = PER_LAYER
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(listed, want, "PER_LAYER and BENCHMARK.json disagree");
    for w in Workload::ALL {
        let out = run_trace(w, 11, 2, SMALL);
        assert_eq!(
            out.metrics.names(),
            want.iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>(),
            "{} emits other names",
            w.name()
        );
        let failed: Vec<_> = out.ops.iter().filter(|op| op.error.is_some()).collect();
        assert!(failed.is_empty(), "{}: {failed:?}", w.name());
        let m = &out.metrics;
        if w == Workload::Paper {
            assert_eq!(m.get("replay.match"), Some(1.0));
            assert_eq!(m.get("mesh.events"), Some(0.0));
        } else {
            assert_eq!(m.get("mesh.w1_match"), Some(1.0));
            assert!(m.get("mesh.events").unwrap() > 0.0);
            assert_eq!(m.get("exp.fig03.s"), Some(0.0));
        }
        let bursts = m.get("adversary.jam_bursts").unwrap();
        assert_eq!(bursts > 0.0, w == Workload::MeshJam, "{}", w.name());
    }
}
