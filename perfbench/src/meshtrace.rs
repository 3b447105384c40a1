//! Mesh-workload tracing: the flood run in fixed event slices, its
//! `threads=1` twin, and a probe of the spatial index over the mesh's
//! own node positions.

use crate::metrics::{median, ratio, timed, Metrics};
use crate::workload::{guarded, mesh_record, OpRecord, Workload};
use ppr_sim::experiments::mesh::{mesh_model, MeshDriver, MeshParams, MeshStats};
use ppr_sim::network::SQUELCH_SNR;
use ppr_sim::{SpatialIndex, Testbed};
use std::time::Instant;

/// Events per timed slice of the traced mesh run.
pub const SLICE_EVENTS: u64 = 4096;

/// Passes over every node of the spatial-index query probe.
pub const QUERY_PASSES: usize = 5;

/// One traced mesh leg at the pinned thread count.
#[derive(Debug, Clone)]
pub struct MeshLeg {
    /// Host seconds in `MeshDriver::new`.
    pub setup_s: f64,
    /// Host seconds from the first event to the end of the run.
    pub run_s: f64,
    /// Host nanoseconds per event of each full slice.
    pub slice_ns_per_event: Vec<f64>,
    /// The run's statistics.
    pub stats: MeshStats,
}

/// Runs the mesh at `threads` workers in slices of [`SLICE_EVENTS`].
pub fn traced_leg(params: &MeshParams, threads: usize) -> MeshLeg {
    let mut setup_s = 0.0;
    let mut driver = timed(&mut setup_s, || MeshDriver::new(params, Some(threads)));
    let mut run_s = 0.0;
    let mut slice_ns_per_event = Vec::new();
    loop {
        let before = driver.dispatched();
        let t = Instant::now();
        driver.run_events(before + SLICE_EVENTS);
        let dt = t.elapsed().as_secs_f64();
        run_s += dt;
        let done = driver.dispatched() - before;
        if done < SLICE_EVENTS {
            break;
        }
        slice_ns_per_event.push(dt * 1e9 / done as f64);
    }
    let stats = timed(&mut run_s, || driver.run_to_end());
    MeshLeg {
        setup_s,
        run_s,
        slice_ns_per_event,
        stats,
    }
}

/// Runs the mesh at one worker; returns the run's host seconds (set-up
/// excluded) and statistics.
pub fn single_worker_leg(params: &MeshParams) -> (f64, MeshStats) {
    let driver = MeshDriver::new(params, Some(1));
    let mut run_s = 0.0;
    let stats = timed(&mut run_s, || driver.run_to_end());
    (run_s, stats)
}

/// Records the spatial index's build time, mean query time and mean
/// candidate count over the mesh's own positions.
pub fn trace_spatial(params: &MeshParams, m: &mut Metrics) {
    let model = mesh_model();
    let radius = model.range_at_snr_m(SQUELCH_SNR);
    let tb = Testbed::mesh(params.seed, params.nodes, params.density, radius);
    let mut build_s = 0.0;
    let index = timed(&mut build_s, || {
        SpatialIndex::build(&tb.senders, model.interference_radius_m())
    });
    let mut buf = Vec::new();
    let mut candidates = 0usize;
    let mut pass_ns = Vec::with_capacity(QUERY_PASSES);
    for _ in 0..QUERY_PASSES {
        candidates = 0;
        let t = Instant::now();
        for p in &tb.senders {
            buf.clear();
            index.candidates_into(std::hint::black_box(p), &mut buf);
            candidates += buf.len();
        }
        pass_ns.push(t.elapsed().as_secs_f64() * 1e9 / tb.senders.len() as f64);
    }
    let nodes = tb.senders.len() as f64;
    m.put("spatial.build.s", build_s, "s");
    m.put("spatial.query.ns", median(&pass_ns), "ns");
    m.put("spatial.query.samples", pass_ns.len() as f64, "count");
    m.put(
        "spatial.candidates_mean",
        candidates as f64 / nodes,
        "count",
    );
}

/// Records the deterministic counters of a mesh run.
pub fn record_stats(s: &MeshStats, body_bytes: usize, m: &mut Metrics) {
    let f = |v: usize| v as f64;
    m.put("mesh.events", s.events_dispatched as f64, "count");
    m.put("mesh.tx", f(s.transmissions), "count");
    m.put("mesh.repair_tx", f(s.repair_tx), "count");
    m.put("mesh.rx_scheduled", f(s.receptions_scheduled), "count");
    m.put("mesh.rx_evaluated", f(s.receptions_evaluated), "count");
    let eval = ratio(f(s.receptions_evaluated), f(s.receptions_scheduled));
    m.put("mesh.eval_ratio", eval, "ratio");
    m.put("mesh.self_busy_drops", f(s.self_busy_drops), "count");
    m.put("mesh.flush_batches", f(s.flush_batches), "count");
    let batch = ratio(f(s.receptions_evaluated), f(s.flush_batches));
    m.put("mesh.batch_mean", batch, "count");
    m.put("mesh.max_batch", f(s.max_batch), "count");
    m.put("mesh.repair_bytes", f(s.repair_bytes_requested), "B");
    m.put("mesh.coverage", s.coverage(), "ratio");
    let offered = f(s.nodes * body_bytes);
    m.put(
        "mesh.delivered_fraction",
        ratio(f(s.correct_bytes), offered),
        "ratio",
    );
    m.put("arq.retry_exhausted", f(s.retry_exhausted), "count");
    m.put("adversary.jam_bursts", f(s.jam_bursts), "count");
    m.put("adversary.jam_chips", s.jam_chips as f64, "chips");
    m.put("adversary.crashes", f(s.crashes), "count");
}

/// One traced repetition of a mesh workload as an operation: the
/// sliced leg at the pinned thread count, guarded and checked like an
/// untraced run, with its per-layer metrics recorded. Returns the
/// operation record and the leg, `None` when it panicked.
pub fn traced_op(
    w: Workload,
    params: &MeshParams,
    threads: usize,
    m: &mut Metrics,
) -> (OpRecord, Option<MeshLeg>) {
    let leg = match guarded(|| traced_leg(params, threads)) {
        Ok(leg) => leg,
        Err(e) => return (OpRecord::failed(w.name(), 0, e), None),
    };
    m.put("mesh.setup.s", leg.setup_s, "s");
    m.put("mesh.run.s", leg.run_s, "s");
    let slices = &leg.slice_ns_per_event;
    m.put("mesh.slice.ns_per_event.p50", median(slices), "ns");
    let max = slices.iter().copied().fold(0.0, f64::max);
    m.put("mesh.slice.ns_per_event.max", max, "ns");
    m.put("mesh.slice.samples", slices.len() as f64, "count");
    let events = leg.stats.events_dispatched as f64;
    m.put("mesh.events_per_s", ratio(events, leg.run_s), "1/s");
    record_stats(&leg.stats, params.body_bytes, m);
    (mesh_record(w, &leg.stats), Some(leg))
}

/// Runs the `threads=1` twin of a traced leg, whose statistics must
/// equal the leg's (`rec` fails otherwise), then the spatial probe.
pub fn check_single_worker(
    params: &MeshParams,
    leg: &MeshLeg,
    rec: &mut OpRecord,
    m: &mut Metrics,
) {
    match guarded(|| single_worker_leg(params)) {
        Ok((run_w1_s, stats_w1)) => {
            m.put("mesh.run_w1.s", run_w1_s, "s");
            m.put("mesh.fanout_overhead.s", leg.run_s - run_w1_s, "s");
            let same = stats_w1 == leg.stats;
            m.put("mesh.w1_match", if same { 1.0 } else { 0.0 }, "bool");
            if !same && rec.error.is_none() {
                rec.error = Some("threads=1 statistics differ from the pinned thread count".into());
            }
        }
        Err(e) => rec.error = Some(format!("threads=1 leg: {e}")),
    }
    trace_spatial(params, m);
}
