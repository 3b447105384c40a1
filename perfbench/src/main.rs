//! The benchmark's measuring binary. `run.py` starts one process per
//! operation:
//!
//! ```text
//! perfbench op    --workload <paper|mesh10k|meshjam> --seed <n>
//! perfbench setup --workload <paper|mesh10k|meshjam> --seed <n>
//! perfbench trace --workload <paper|mesh10k|meshjam> --seed <n>
//! ```
//!
//! `op` prints `{"ready":true,"setup_s":...}` once set-up is done, with
//! the host time from the start of `main` to that line (argument and
//! environment checks, kernel dispatch, scenario build, and
//! `MeshDriver::new` for the meshes). It then runs one untraced
//! workload run and prints its result line: host wall time, simulated
//! events, and each operation's fingerprint. `setup` stops after the
//! ready line, so `run.py` can sample set-up time more often than it
//! runs whole operations. `trace` prints every per-layer metric of the
//! traced run.

use perfbench::trace::run_trace;
use perfbench::workload::{
    check_environment, dispatch_kernels, environment_json, mesh_finish, mesh_params, mesh_setup,
    nproc, run_paper, scenario, OpRecord, Scale, Workload,
};
use ppr_sim::results::Json;
use std::io::Write;
use std::process::ExitCode;
use std::time::Instant;

struct Args {
    mode: String,
    workload: Workload,
    seed: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let mode = it.next().ok_or("missing mode (op | setup | trace)")?;
    if !["op", "setup", "trace"].contains(&mode.as_str()) {
        return Err(format!("unknown mode {mode:?} (want op | setup | trace)"));
    }
    let (mut workload, mut seed) = (None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        mode,
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
    })
}

fn ops_json(ops: &[OpRecord]) -> Json {
    Json::Arr(ops.iter().map(OpRecord::to_json).collect())
}

fn emit(line: &Json) {
    let mut out = std::io::stdout().lock();
    // A closed pipe means `run.py` is gone; nothing useful remains.
    let _ = writeln!(out, "{}", line.render());
    let _ = out.flush();
}

/// One untraced operation; `start` is when `main` began. Without `run`,
/// only its set-up.
fn op(w: Workload, seed: u64, threads: usize, start: Instant, run: bool) {
    dispatch_kernels();
    let sc = scenario(seed, threads, Scale::FULL);
    let mesh = mesh_params(w, &sc).map(|params| mesh_setup(&params, threads));
    let setup_s = start.elapsed().as_secs_f64();
    emit(&Json::Obj(vec![
        ("ready".into(), Json::Bool(true)),
        ("setup_s".into(), Json::num(setup_s)),
    ]));
    if !run {
        return;
    }

    let t = Instant::now();
    let (ops, events) = match mesh {
        None => (run_paper(&sc, |_, _| {}), 0),
        Some(Err(e)) => (vec![OpRecord::failed(w.name(), 0, e)], 0),
        Some(Ok(driver)) => {
            let (rec, stats) = mesh_finish(w, driver);
            (vec![rec], stats.map_or(0, |s| s.events_dispatched))
        }
    };
    let wall_s = t.elapsed().as_secs_f64();
    emit(&Json::Obj(vec![
        ("workload".into(), Json::str(w.name())),
        ("seed".into(), Json::int(seed)),
        ("wall_s".into(), Json::num(wall_s)),
        ("events".into(), Json::int(events)),
        ("ops".into(), ops_json(&ops)),
        ("env".into(), environment_json(threads)),
    ]));
}

/// The traced run.
fn trace(w: Workload, seed: u64, threads: usize) {
    let out = run_trace(w, seed, threads, Scale::FULL);
    emit(&Json::Obj(vec![
        ("workload".into(), Json::str(w.name())),
        ("seed".into(), Json::int(seed)),
        ("metrics".into(), out.metrics.to_json()),
        ("ops".into(), ops_json(&out.ops)),
        ("env".into(), environment_json(threads)),
    ]));
}

fn main() -> ExitCode {
    let start = Instant::now();
    let args = match parse_args().and_then(|a| check_environment().map(|()| a)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let threads = nproc();
    match args.mode.as_str() {
        "op" => op(args.workload, args.seed, threads, start, true),
        "setup" => op(args.workload, args.seed, threads, start, false),
        _ => trace(args.workload, args.seed, threads),
    }
    ExitCode::SUCCESS
}
