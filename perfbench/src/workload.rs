//! The benchmark's workloads, their pinned scenarios, and one untraced
//! operation of each.
//!
//! Every knob is pinned by a [`ScenarioBuilder`] override: the seed
//! comes from the benchmark's `--seed`, the thread count from `nproc`,
//! and the rest from the paper's defaults. The `paper` workload runs
//! each experiment on its own seed derived from `--seed`
//! ([`experiment_seed`]). `PPR_DURATION` and
//! `PPR_THREADS` would otherwise resize a workload through the builder's
//! environment fallback, so [`check_environment`] refuses to run while
//! either is set.

use crate::metrics::timed;
use ppr_phy::simd::{DespreadKernel, DspKernel};
use ppr_sim::experiments::mesh::{MeshDriver, MeshParams, MeshStats, MESH_BODY_BYTES};
use ppr_sim::experiments::meshjam::meshjam_params;
use ppr_sim::experiments::table1;
use ppr_sim::results::{fingerprint, ExperimentResult, Json};
use ppr_sim::scenario::{Scenario, ScenarioBuilder};
use ppr_sim::Experiment;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The 15 testbed experiments of the registry, in registry order.
    Paper,
    /// The benign 10 000-node mesh flood.
    Mesh10k,
    /// The same mesh under a reactive jammer and node churn.
    MeshJam,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [Workload::Paper, Workload::Mesh10k, Workload::MeshJam];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper => "paper",
            Workload::Mesh10k => "mesh10k",
            Workload::MeshJam => "meshjam",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(s: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Workload size. [`Scale::FULL`] is what the benchmark runs; tests use
/// smaller scales to check the same code paths quickly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Simulated seconds per testbed experiment.
    pub duration_s: f64,
    /// Mesh node count.
    pub mesh_nodes: usize,
}

impl Scale {
    /// The benchmark's size: the paper's 90 s runs and 10 000 nodes.
    pub const FULL: Scale = Scale {
        duration_s: 90.0,
        mesh_nodes: 10_000,
    };
}

/// Mesh density (expected neighbours) of both mesh workloads.
pub const MESH_DENSITY: f64 = 12.0;

/// SoftPHY threshold η of every workload.
pub const ETA: u8 = 6;

/// Registry ids of the mesh floods, which the `paper` workload skips.
const MESH_IDS: [&str; 2] = ["mesh10k", "meshjam"];

/// Refuses to run while an environment variable would resize a
/// workload behind the scenario builder's back.
pub fn check_environment() -> Result<(), String> {
    for var in ["PPR_DURATION", "PPR_THREADS"] {
        if std::env::var_os(var).is_some() {
            return Err(format!(
                "{var} is set; unset it — the benchmark pins duration and threads itself"
            ));
        }
    }
    Ok(())
}

/// The machine's available parallelism (`nproc`).
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The fully pinned scenario of a run.
pub fn scenario(seed: u64, threads: usize, scale: Scale) -> Scenario {
    ScenarioBuilder::new()
        .seed(seed)
        .duration_s(scale.duration_s)
        .threads(threads)
        .eta(ETA)
        .mesh_nodes(scale.mesh_nodes)
        .mesh_density(MESH_DENSITY)
        .build()
}

/// The testbed experiments of the `paper` workload, in registry order.
pub fn paper_experiments() -> Vec<&'static dyn Experiment> {
    ppr_sim::registry()
        .iter()
        .copied()
        .filter(|e| !MESH_IDS.contains(&e.id()))
        .collect()
}

/// Mesh parameters of a mesh workload (`None` for `paper`).
pub fn mesh_params(w: Workload, sc: &Scenario) -> Option<MeshParams> {
    match w {
        Workload::Paper => None,
        Workload::Mesh10k => Some(MeshParams::benign(
            sc.mesh_nodes,
            sc.mesh_density,
            sc.seed,
            sc.eta,
            MESH_BODY_BYTES,
        )),
        Workload::MeshJam => Some(meshjam_params(sc)),
    }
}

/// Resolves the runtime-dispatched kernels (the first-use detection is
/// part of set-up) and returns their names.
pub fn dispatch_kernels() -> (&'static str, &'static str) {
    (DespreadKernel::active().name(), DspKernel::active().name())
}

/// The run environment recorded with every result.
pub fn environment_json(threads: usize) -> Json {
    let (despread, dsp) = dispatch_kernels();
    let no_simd = match std::env::var("PPR_NO_SIMD") {
        Ok(v) => Json::str(v),
        Err(_) => Json::Null,
    };
    Json::Obj(vec![
        ("nproc".into(), Json::int(nproc() as u64)),
        ("threads".into(), Json::int(threads as u64)),
        ("PPR_NO_SIMD".into(), no_simd),
        ("despread_kernel".into(), Json::str(despread)),
        ("dsp_kernel".into(), Json::str(dsp)),
        ("pclmul_crc".into(), Json::Bool(ppr_mac::clmul::available())),
    ])
}

/// The outcome of one operation: one experiment run.
#[derive(Debug, Clone, PartialEq)]
pub struct OpRecord {
    /// Experiment id (`fig03`, …, `mesh10k`, `meshjam`).
    pub id: String,
    /// Fingerprint of the operation's result (0 when it panicked).
    pub fingerprint: u64,
    /// Why the operation failed, `None` when it succeeded.
    pub error: Option<String>,
}

impl OpRecord {
    /// A successful operation.
    pub fn ok(id: &str, fingerprint: u64) -> Self {
        OpRecord {
            id: id.to_string(),
            fingerprint,
            error: None,
        }
    }

    /// A failed operation.
    pub fn failed(id: &str, fingerprint: u64, error: String) -> Self {
        OpRecord {
            id: id.to_string(),
            fingerprint,
            error: Some(error),
        }
    }

    /// `{"id": ..., "fp": "<hex>", "error": ...}`.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("id".into(), Json::str(self.id.clone())),
            ("fp".into(), Json::str(format!("{:016x}", self.fingerprint))),
            (
                "error".into(),
                self.error.clone().map(Json::Str).unwrap_or(Json::Null),
            ),
        ])
    }
}

/// Runs `f`, turning a panic into an error carrying its message.
pub fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        format!("panic: {msg}")
    })
}

/// Fingerprint of an experiment result's JSON document.
pub fn result_fingerprint(res: &ExperimentResult) -> u64 {
    fingerprint(res.to_json().render().as_bytes())
}

/// Scenario seed of `paper` experiment `id`, the `i`-th in registry
/// order: `seed` itself for `table1` and the experiments it summarises,
/// so that it reuses their results as `ppr-cli run --all` does, and
/// `seed` plus `i` steps of the 64-bit golden ratio for the others.
///
/// A seed's testbed draw scales the cost of every experiment run on it
/// together: over seeds 4, 7, 8, 9 and 10, a `paper` run on one shared
/// seed took from 5.2 to 7.1 s, with nearly every experiment slower on
/// the slow seeds. One draw per experiment averages most of that out,
/// so runs on different `--seed`s cost about the same, and the same
/// `--seed` still gives the same inputs.
pub fn experiment_seed(seed: u64, i: usize, id: &str) -> u64 {
    if id == "table1" || table1::DEPENDENCIES.contains(&id) {
        return seed;
    }
    seed.wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Runs the `paper` workload: every testbed experiment through
/// [`Experiment::run_with`], each a guarded operation on `sc` with the
/// seed from [`experiment_seed`]. `on_done` sees each experiment id
/// with its host time.
pub fn run_paper(sc: &Scenario, mut on_done: impl FnMut(&str, f64)) -> Vec<OpRecord> {
    let mut prior: Vec<ExperimentResult> = Vec::new();
    let mut ops = Vec::new();
    for (i, exp) in paper_experiments().into_iter().enumerate() {
        let sc = Scenario {
            seed: experiment_seed(sc.seed, i, exp.id()),
            ..sc.clone()
        };
        let mut secs = 0.0;
        let out = timed(&mut secs, || guarded(|| exp.run_with(&sc, &prior)));
        on_done(exp.id(), secs);
        ops.push(match out {
            Ok(res) => {
                let fp = result_fingerprint(&res);
                prior.push(res);
                OpRecord::ok(exp.id(), fp)
            }
            Err(e) => OpRecord::failed(exp.id(), 0, e),
        });
    }
    ops
}

/// The mesh statistics as JSON, every field, in declaration order.
pub fn mesh_stats_json(s: &MeshStats) -> Json {
    let u = |v: usize| Json::int(v as u64);
    Json::Obj(vec![
        ("nodes".into(), u(s.nodes)),
        ("recovered".into(), u(s.recovered)),
        ("transmissions".into(), u(s.transmissions)),
        ("repair_tx".into(), u(s.repair_tx)),
        ("receptions_scheduled".into(), u(s.receptions_scheduled)),
        ("receptions_evaluated".into(), u(s.receptions_evaluated)),
        ("receptions_skipped".into(), u(s.receptions_skipped)),
        ("self_busy_drops".into(), u(s.self_busy_drops)),
        ("events_dispatched".into(), Json::int(s.events_dispatched)),
        ("repair_bytes_requested".into(), u(s.repair_bytes_requested)),
        ("correct_bytes".into(), u(s.correct_bytes)),
        ("sim_chips".into(), Json::int(s.sim_chips)),
        ("shards".into(), u(s.shards)),
        ("flush_batches".into(), u(s.flush_batches)),
        ("max_batch".into(), u(s.max_batch)),
        ("jam_bursts".into(), u(s.jam_bursts)),
        ("jam_chips".into(), Json::int(s.jam_chips)),
        ("crashes".into(), u(s.crashes)),
        ("restarts".into(), u(s.restarts)),
        ("retry_exhausted".into(), u(s.retry_exhausted)),
    ])
}

/// Fingerprint of a mesh run's statistics.
pub fn mesh_fingerprint(s: &MeshStats) -> u64 {
    fingerprint(mesh_stats_json(s).render().as_bytes())
}

/// Checks the invariants every mesh run must keep; returns the first
/// broken one.
pub fn mesh_invariants(w: Workload, s: &MeshStats) -> Result<(), String> {
    let coverage = s.coverage();
    if s.recovered > s.nodes {
        return Err(format!("recovered {} > nodes {}", s.recovered, s.nodes));
    }
    if s.receptions_evaluated > s.receptions_scheduled {
        return Err(format!(
            "evaluated {} > scheduled {}",
            s.receptions_evaluated, s.receptions_scheduled
        ));
    }
    if !(0.0..=1.0).contains(&coverage) {
        return Err(format!("coverage {coverage} outside [0, 1]"));
    }
    match w {
        Workload::MeshJam if s.jam_bursts == 0 => Err("meshjam emitted no jam bursts".into()),
        Workload::Mesh10k if s.jam_bursts != 0 || s.crashes != 0 => Err(format!(
            "benign mesh saw {} jam bursts and {} crashes",
            s.jam_bursts, s.crashes
        )),
        _ => Ok(()),
    }
}

/// The mesh run's operation record: its fingerprint, failed when an
/// invariant breaks.
pub fn mesh_record(w: Workload, s: &MeshStats) -> OpRecord {
    let fp = mesh_fingerprint(s);
    match mesh_invariants(w, s) {
        Ok(()) => OpRecord::ok(w.name(), fp),
        Err(e) => OpRecord::failed(w.name(), fp, e),
    }
}

/// Builds a mesh driver, guarded: `MeshDriver::new` is the mesh's
/// set-up and may itself panic.
pub fn mesh_setup(params: &MeshParams, threads: usize) -> Result<MeshDriver, String> {
    guarded(|| MeshDriver::new(params, Some(threads)))
}

/// Runs a built mesh driver to the end, guarded, and checks it.
pub fn mesh_finish(w: Workload, driver: MeshDriver) -> (OpRecord, Option<MeshStats>) {
    match guarded(|| driver.run_to_end()) {
        Ok(stats) => (mesh_record(w, &stats), Some(stats)),
        Err(e) => (OpRecord::failed(w.name(), 0, e), None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_is_the_registry_without_the_meshes() {
        let ids: Vec<&str> = paper_experiments().iter().map(|e| e.id()).collect();
        assert_eq!(ids.len(), 15);
        assert_eq!(ids.first(), Some(&"fig03"));
        assert_eq!(ids.last(), Some(&"table1"));
        assert!(!ids.contains(&"mesh10k") && !ids.contains(&"meshjam"));
    }

    #[test]
    fn table1_and_its_inputs_share_the_seed_and_the_rest_differ() {
        let seeds: Vec<(&str, u64)> = paper_experiments()
            .iter()
            .enumerate()
            .map(|(i, e)| (e.id(), experiment_seed(7, i, e.id())))
            .collect();
        let shared: Vec<&str> = seeds.iter().filter(|s| s.1 == 7).map(|s| s.0).collect();
        assert_eq!(shared, ["fig03", "fig10", "fig16", "table1"]);
        let distinct: std::collections::HashSet<u64> = seeds.iter().map(|s| s.1).collect();
        assert_eq!(distinct.len(), seeds.len() - 3);
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn a_panicking_operation_becomes_an_error() {
        let r: Result<(), String> = guarded(|| panic!("injected {}", 7));
        assert_eq!(r, Err("panic: injected 7".to_string()));
    }

    #[test]
    fn broken_mesh_invariants_fail_the_record() {
        let ok = MeshStats {
            nodes: 10,
            recovered: 10,
            receptions_scheduled: 5,
            receptions_evaluated: 5,
            ..Default::default()
        };
        assert!(mesh_record(Workload::Mesh10k, &ok).error.is_none());
        // A jammed mesh that saw no bursts, and a benign one that did.
        assert!(mesh_record(Workload::MeshJam, &ok).error.is_some());
        let jammed = MeshStats {
            jam_bursts: 3,
            ..ok
        };
        assert!(mesh_record(Workload::Mesh10k, &jammed).error.is_some());
        let overcounted = MeshStats {
            receptions_evaluated: 6,
            ..ok
        };
        assert!(mesh_record(Workload::Mesh10k, &overcounted).error.is_some());
    }
}
