//! The traced run: every per-layer metric for one workload.
//!
//! Each workload alternates untraced runs with traced ones, which take
//! host time around the calls into each layer: untraced, traced,
//! untraced, and so on for `rounds` traced runs, ending untraced. A
//! traced and an untraced run are timed over the same span, the whole
//! workload run. The median traced wall time minus the median untraced
//! one is the tracing overhead; untraced runs on both sides of every
//! traced one cancel the head start a later run in the same process
//! gets from warm caches and allocator. Per-layer times come from the
//! last traced run. The `paper` workload also replays the fig10 PPR
//! arm layer by layer ([`crate::replay`]); the meshes run in event
//! slices, and the last traced leg is checked against a `threads=1`
//! twin ([`crate::meshtrace`]). A layer that a workload does not
//! exercise reports 0.

use crate::meshtrace::{check_single_worker, traced_op};
use crate::metrics::{median, timed, Metrics};
use crate::replay::trace_testbed;
use crate::workload::{
    mesh_finish, mesh_params, mesh_setup, run_paper, scenario, OpRecord, Scale, Workload,
};
use ppr_sim::scenario::Scenario;

/// Every per-layer metric with its unit, in output order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("exp.fig03.s", "s"),
    ("exp.table2.s", "s"),
    ("exp.fig08.s", "s"),
    ("exp.fig09.s", "s"),
    ("exp.fig10.s", "s"),
    ("exp.fig11.s", "s"),
    ("exp.fig12.s", "s"),
    ("exp.fig13.s", "s"),
    ("exp.fig14.s", "s"),
    ("exp.fig15.s", "s"),
    ("exp.fig16.s", "s"),
    ("exp.jam.s", "s"),
    ("exp.mrd.s", "s"),
    ("exp.relay.s", "s"),
    ("exp.table1.s", "s"),
    ("network.timeline.s", "s"),
    ("network.timeline.tx", "count"),
    ("network.recv.s", "s"),
    ("network.recv_w1.s", "s"),
    ("network.fanout_overhead.s", "s"),
    ("network.recv.events", "count"),
    ("network.recv.receptions", "count"),
    ("mac.frame.render.s", "s"),
    ("mac.frame.render.chips", "chips"),
    ("channel.overlap.s", "s"),
    ("channel.overlap.spans", "count"),
    ("channel.corrupt.s", "s"),
    ("channel.corrupt.chips.sparse", "chips"),
    ("channel.corrupt.chips.block", "chips"),
    ("channel.corrupt.chips.jammed", "chips"),
    ("channel.corrupt.expected_flips", "chips"),
    ("rxpath.sync.s", "s"),
    ("rxpath.acquire_ratio", "ratio"),
    ("rxpath.busy_drops", "count"),
    ("mac.crc.s", "s"),
    ("mac.crc.ok_ratio", "ratio"),
    ("mac.deliver.s", "s"),
    ("mac.deliver.correct_ratio", "ratio"),
    ("mac.deliver.yield", "ratio"),
    ("arq.plan.s", "s"),
    ("arq.plan.calls", "count"),
    ("arq.plan.bad_runs_mean", "count"),
    ("arq.feedback.bytes", "B"),
    ("arq.retx_share", "ratio"),
    ("replay.match", "bool"),
    ("mesh.setup.s", "s"),
    ("mesh.run.s", "s"),
    ("mesh.run_w1.s", "s"),
    ("mesh.fanout_overhead.s", "s"),
    ("mesh.w1_match", "bool"),
    ("mesh.events_per_s", "1/s"),
    ("mesh.slice.ns_per_event.p50", "ns"),
    ("mesh.slice.ns_per_event.max", "ns"),
    ("mesh.slice.samples", "count"),
    ("mesh.events", "count"),
    ("mesh.tx", "count"),
    ("mesh.repair_tx", "count"),
    ("mesh.rx_scheduled", "count"),
    ("mesh.rx_evaluated", "count"),
    ("mesh.eval_ratio", "ratio"),
    ("mesh.self_busy_drops", "count"),
    ("mesh.flush_batches", "count"),
    ("mesh.batch_mean", "count"),
    ("mesh.max_batch", "count"),
    ("mesh.repair_bytes", "B"),
    ("mesh.coverage", "ratio"),
    ("mesh.delivered_fraction", "ratio"),
    ("arq.retry_exhausted", "count"),
    ("adversary.jam_bursts", "count"),
    ("adversary.jam_chips", "chips"),
    ("adversary.crashes", "count"),
    ("spatial.build.s", "s"),
    ("spatial.query.ns", "ns"),
    ("spatial.query.samples", "count"),
    ("spatial.candidates_mean", "count"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.samples", "count"),
];

/// What a traced run produces.
#[derive(Debug, Clone)]
pub struct TraceOutput {
    /// Every [`PER_LAYER`] metric.
    pub metrics: Metrics,
    /// The first untraced operations, the traced ones, then the later
    /// untraced ones.
    pub ops: Vec<OpRecord>,
}

/// Runs a workload untraced; returns its operations and wall seconds.
fn untraced(w: Workload, sc: &Scenario, threads: usize) -> (Vec<OpRecord>, f64) {
    let mut wall_s = 0.0;
    let ops = timed(&mut wall_s, || match mesh_params(w, sc) {
        None => run_paper(sc, |_, _| {}),
        Some(params) => match mesh_setup(&params, threads) {
            Ok(driver) => vec![mesh_finish(w, driver).0],
            Err(e) => vec![OpRecord::failed(w.name(), 0, e)],
        },
    });
    (ops, wall_s)
}

/// Marks each traced operation whose fingerprint differs from its
/// first untraced run's: neither tracing nor repetition may change what
/// the simulator computes.
fn cross_check(reference: &[OpRecord], traced: &mut [OpRecord]) {
    for op in traced.iter_mut().filter(|op| op.error.is_none()) {
        if let Some(t) = reference
            .iter()
            .find(|t| t.id == op.id && t.error.is_none())
        {
            if t.fingerprint != op.fingerprint {
                op.error = Some(format!(
                    "fingerprint {:016x} differs from the untraced run's {:016x}",
                    op.fingerprint, t.fingerprint
                ));
            }
        }
    }
}

/// Traced runs of workload `w` in one traced run: one for `paper`,
/// whose run takes several seconds, and three for the meshes, whose
/// runs take about one.
fn rounds(w: Workload) -> usize {
    match w {
        Workload::Paper => 1,
        Workload::Mesh10k | Workload::MeshJam => 3,
    }
}

/// The traced run of workload `w` at `seed`.
pub fn run_trace(w: Workload, seed: u64, threads: usize, scale: Scale) -> TraceOutput {
    let sc = scenario(seed, threads, scale);
    let mut m = Metrics::new();
    for &(name, unit) in PER_LAYER {
        m.put(name, 0.0, unit);
    }
    let (first, first_s) = untraced(w, &sc, threads);
    let mut untraced_s = vec![first_s];
    let mut traced_s = Vec::new();
    let (mut traced, mut again) = (Vec::new(), Vec::new());
    let mut last_leg = None;
    for _ in 0..rounds(w) {
        let mut wall_s = 0.0;
        match mesh_params(w, &sc) {
            None => traced.extend(timed(&mut wall_s, || {
                run_paper(&sc, |id, secs| m.put(&format!("exp.{id}.s"), secs, "s"))
            })),
            Some(params) => {
                let (rec, leg) = timed(&mut wall_s, || traced_op(w, &params, threads, &mut m));
                traced.push(rec);
                last_leg = leg.map(|leg| (params, leg));
            }
        }
        traced_s.push(wall_s);
        let (ops, wall_s) = untraced(w, &sc, threads);
        again.extend(ops);
        untraced_s.push(wall_s);
    }
    if let (Some((params, leg)), Some(rec)) = (&last_leg, traced.last_mut()) {
        check_single_worker(params, leg, rec, &mut m);
    }
    cross_check(&first, &mut traced);
    cross_check(&first, &mut again);
    if w == Workload::Paper {
        let rep = trace_testbed(&sc, threads, &mut m);
        traced.push(if rep.matches {
            OpRecord::ok("replay", 0)
        } else {
            OpRecord::failed("replay", 0, "replay differs from process_receptions".into())
        });
    }
    let (traced_wall_s, untraced_wall_s) = (median(&traced_s), median(&untraced_s));
    m.put("trace.wall_s", traced_wall_s, "s");
    m.put("trace.untraced_wall_s", untraced_wall_s, "s");
    m.put("trace.overhead_s", traced_wall_s - untraced_wall_s, "s");
    m.put("trace.samples", traced_s.len() as f64, "count");

    let mut ops = first;
    ops.extend(traced);
    ops.extend(again);
    TraceOutput { metrics: m, ops }
}
