//! Shared experiment machinery: standard runs, the folds the testbed
//! experiments consume their reception streams with (per-link stats,
//! hint traces), the experiment parameter conventions used across
//! figures, and [`par_map`] — the one place the simulator starts
//! threads.
//!
//! Parameter defaults and environment overrides live in
//! [`crate::scenario`] — this module only consumes a resolved
//! [`Scenario`].

use crate::geometry::Testbed;
use crate::metrics::{Cdf, HintHistogram};
use crate::network::{
    generate_timeline, office_model, stream_receptions, RadioEnv, Reception, RxArm, SimConfig,
    Transmission, SQUELCH_SNR,
};
use crate::rxpath::Acquisition;
use crate::scenario::{Scenario, DEFAULT_SEED, LOADS};
use ppr_mac::schemes::DeliveryScheme;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Maps `jobs` through `f` on up to the scenario's thread count
/// ([`Scenario::threads`], else the `PPR_THREADS` / available
/// parallelism default), returning the outputs in input order.
///
/// This is where the simulator's threads belong: the jobs are the
/// independent arms and loads of one experiment (delivery schemes,
/// offered loads, chunk counts, duty points), each a whole
/// single-threaded run over shared read-only inputs or its own
/// timeline, so the output is the same for every thread count. Each
/// worker claims the next job index from a shared counter, so arms of
/// unequal cost balance. The calling thread works too; one scope is
/// opened per call and nothing outlives it. With one thread or at most
/// one job the map runs inline, spawning nothing. A panicking job
/// re-raises its own panic in the caller.
pub fn par_map<J: Sync, T: Send>(
    scenario: &Scenario,
    jobs: &[J],
    f: impl Fn(&J) -> T + Sync,
) -> Vec<T> {
    let workers = scenario
        .threads
        .unwrap_or_else(crate::env::threads_from_env)
        .min(jobs.len());
    if workers <= 1 {
        return jobs.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(job) = jobs.get(i) else {
                return done;
            };
            done.push((i, f(job)));
        }
    };
    let mut out: Vec<Option<T>> = Vec::new();
    out.resize_with(jobs.len(), || None);
    std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
        let mut done = work();
        for helper in helpers {
            match helper.join() {
                Ok(more) => done.extend(more),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        for (i, t) in done {
            out[i] = Some(t);
        }
    });
    out.into_iter()
        .map(|t| t.expect("every job claimed exactly once"))
        .collect()
}

/// One standard capacity run: environment + timeline, reusable across
/// arms (the trace-post-processing methodology).
pub struct CapacityRun {
    /// The radio environment.
    pub env: RadioEnv,
    /// The run configuration.
    pub cfg: SimConfig,
    /// The generated transmission timeline.
    pub timeline: Vec<Transmission>,
    /// Snapshot/restore exercise point (`None` = run uninterrupted).
    pub checkpoint: Option<u64>,
}

impl CapacityRun {
    /// Builds a run at the given load and carrier-sense arm under the
    /// historical defaults (master seed, 1500 B bodies, Fig. 7 floor).
    pub fn new(load_kbps: f64, carrier_sense: bool, duration_s: f64) -> Self {
        let cfg = SimConfig {
            load_kbps,
            body_bytes: 1500,
            carrier_sense,
            duration_s,
            seed: DEFAULT_SEED,
        };
        Self::from_config(cfg, Testbed::fig7(), None)
    }

    /// Builds a run for a scenario at the experiment's canonical load
    /// and carrier-sense arm (both subject to the scenario's
    /// overrides), on the scenario's topology.
    pub fn from_scenario(scenario: &Scenario, load_kbps: f64, carrier_sense: bool) -> Self {
        // The random-geometric square is sized for the *communication*
        // radius — the range at which a mean-power link still clears the
        // squelch threshold.
        let comm_radius_m = office_model().range_at_snr_m(SQUELCH_SNR);
        Self::from_config(
            scenario.sim_config(load_kbps, carrier_sense),
            scenario.topology.testbed(comm_radius_m),
            scenario.checkpoint,
        )
    }

    fn from_config(cfg: SimConfig, testbed: Testbed, checkpoint: Option<u64>) -> Self {
        let env = RadioEnv::with_testbed(cfg.seed, testbed);
        let timeline = generate_timeline(&env, &cfg);
        CapacityRun {
            env,
            cfg,
            timeline,
            checkpoint,
        }
    }

    /// Evaluates one receiver arm over the shared timeline with the
    /// event-driven [`crate::network::ReceptionDriver`], handing each
    /// reception to `f` as it completes ([`stream_receptions`]); none is
    /// kept, so fold what you need. Completion order is not slot order:
    /// a fold must not depend on it.
    ///
    /// With a `checkpoint` set, the run is driven to that event
    /// boundary, serialized through the binary snapshot format and
    /// completed from the decoded bytes — the same receptions as the
    /// uninterrupted run, which `tests/snapshot_roundtrip.rs` pins for
    /// the whole registry.
    pub fn for_each_reception(&self, arm: &RxArm, mut f: impl FnMut(Reception)) {
        stream_receptions(
            &self.env,
            &self.cfg,
            &self.timeline,
            arm,
            self.checkpoint,
            |_, rec| f(rec),
        );
    }
}

/// Per-link aggregation of reception outcomes.
#[derive(Debug, Clone, Default)]
pub struct LinkStats {
    /// Frames transmitted on the link (evaluated receptions).
    pub frames: usize,
    /// Frames acquired via preamble.
    pub via_preamble: usize,
    /// Frames acquired via postamble.
    pub via_postamble: usize,
    /// Total correct bytes delivered.
    pub delivered_correct: usize,
    /// Total scheme payload bytes offered.
    pub payload_offered: usize,
}

impl LinkStats {
    /// Equivalent frame delivery rate: correct delivered bytes per
    /// airtime-equivalent byte (the 1500 B body), so scheme overhead is
    /// charged (§7.2.2).
    pub fn fdr(&self, body_bytes: usize) -> f64 {
        if self.frames == 0 {
            return f64::NAN;
        }
        self.delivered_correct as f64 / (self.frames * body_bytes) as f64
    }

    /// Delivered throughput over the run, kbit/s.
    pub fn throughput_kbps(&self, duration_s: f64) -> f64 {
        self.delivered_correct as f64 * 8.0 / duration_s / 1000.0
    }
}

/// Per-link aggregation of a reception stream: one [`LinkStats`] per
/// usable link, in `env.links()` order. Every field is an integer sum,
/// so the order receptions arrive in cannot change the result.
#[derive(Debug, Clone)]
pub struct LinkFold {
    links: Vec<(usize, usize)>,
    /// Position in `links` of link `(s, r)`, at `s * receivers + r`.
    index: Vec<Option<usize>>,
    receivers: usize,
    stats: Vec<LinkStats>,
}

impl LinkFold {
    /// An empty fold over the environment's usable links.
    pub fn new(env: &RadioEnv) -> Self {
        let links = env.links();
        let receivers = env.testbed.receivers.len();
        let mut index = vec![None; env.testbed.senders.len() * receivers];
        for (i, &(s, r)) in links.iter().enumerate() {
            index[s * receivers + r] = Some(i);
        }
        LinkFold {
            stats: vec![LinkStats::default(); links.len()],
            links,
            index,
            receivers,
        }
    }

    /// Folds one reception in; receptions off the usable links are
    /// ignored.
    pub fn add(&mut self, rec: &Reception) {
        let Some(i) = self.index[rec.sender * self.receivers + rec.receiver] else {
            return;
        };
        let s = &mut self.stats[i];
        s.frames += 1;
        s.payload_offered += rec.payload_len;
        s.delivered_correct += rec.delivered_correct;
        match rec.acquisition {
            Acquisition::Preamble => s.via_preamble += 1,
            Acquisition::Postamble => s.via_postamble += 1,
            Acquisition::None => {}
        }
    }

    /// Stats per (sender, receiver) link, in `env.links()` order.
    pub fn iter(&self) -> impl Iterator<Item = ((usize, usize), &LinkStats)> {
        self.links.iter().copied().zip(&self.stats)
    }

    /// Stats of the links that carried at least one frame.
    fn active(&self) -> impl Iterator<Item = &LinkStats> {
        self.stats.iter().filter(|s| s.frames > 0)
    }

    /// Per-link FDR samples over the active links.
    pub fn fdr_cdf(&self, body_bytes: usize) -> Cdf {
        Cdf::from_samples(self.active().map(|s| s.fdr(body_bytes)).collect())
    }

    /// Per-link throughput samples (kbit/s) over the active links.
    pub fn throughput_cdf(&self, duration_s: f64) -> Cdf {
        Cdf::from_samples(
            self.active()
                .map(|s| s.throughput_kbps(duration_s))
                .collect(),
        )
    }
}

/// Streams one arm over the run into a [`LinkFold`].
pub fn per_link_stats(run: &CapacityRun, arm: &RxArm) -> LinkFold {
    let mut fold = LinkFold::new(&run.env);
    run.for_each_reception(arm, |rec| fold.add(&rec));
    fold
}

/// Per-link folds of the six arms of Figs. 8–11, labelled in
/// [`six_arms`] order. Only the three postamble arms are decoded,
/// concurrently; each of their receptions also feeds the fold of its
/// no-postamble twin ([`Reception::without_postamble`]), which is
/// exactly what a `postamble: false` run would deliver.
pub fn six_arm_link_stats(scenario: &Scenario, run: &CapacityRun) -> Vec<(String, LinkFold)> {
    let schemes = scenario.schemes();
    let folds = par_map(scenario, &schemes, |&scheme| {
        let arm = RxArm {
            scheme,
            postamble: true,
            collect_symbols: false,
        };
        let mut without = LinkFold::new(&run.env);
        let mut with = LinkFold::new(&run.env);
        run.for_each_reception(&arm, |rec| {
            without.add(&rec.without_postamble());
            with.add(&rec);
        });
        (without, with)
    });
    let (without, with): (Vec<LinkFold>, Vec<LinkFold>) = folds.into_iter().unzip();
    let arms = six_arms(schemes);
    debug_assert!(arms
        .iter()
        .map(|(_, a)| a.postamble)
        .eq([false, false, false, true, true, true]));
    arms.into_iter()
        .map(|(label, _)| label)
        .zip(without.into_iter().chain(with))
        .collect()
}

/// Streams the PPR arm `scheme` over `run` with per-symbol traces on and
/// hands each acquired reception's `(hints, correctness)` trace to
/// `fold` while that reception is in hand — the one hint-statistics
/// loop of Figs. 3, 14 and 15. No trace outlives its reception.
pub fn fold_hint_traces(
    run: &CapacityRun,
    scheme: DeliveryScheme,
    mut fold: impl FnMut(&[u8], &[bool]),
) {
    let arm = RxArm {
        scheme,
        postamble: true,
        collect_symbols: true,
    };
    run.for_each_reception(&arm, |rec| {
        if !rec.symbol_hints.is_empty() {
            fold(&rec.symbol_hints, &rec.symbol_correct);
        }
    });
}

/// The hint histogram of every offered load (or the scenario's pinned
/// load) under the scenario's PPR scheme, with carrier sense on — the
/// CC2420 default and the §3.2/§7.4 hint-statistics environment (the
/// paper disables carrier sense only in the experiments that say so,
/// Figs. 9–12). The loads run concurrently, each streaming its traces
/// straight into its histogram.
pub fn hint_histograms(scenario: &Scenario) -> Vec<(f64, HintHistogram)> {
    par_map(scenario, &scenario.loads(&LOADS), |&load| {
        let run = CapacityRun::from_scenario(scenario, load, true);
        let mut hist = HintHistogram::new();
        fold_hint_traces(&run, scenario.ppr_scheme(), |hints, correct| {
            hist.record_packet(hints, correct)
        });
        (load, hist)
    })
}

/// The six arm combinations of Figs. 8–10: the scenario's three schemes
/// × postamble on/off, in the paper's legend order.
pub fn six_arms(schemes: [DeliveryScheme; 3]) -> Vec<(String, RxArm)> {
    let mut out = Vec::new();
    for postamble in [false, true] {
        for scheme in schemes {
            let label = format!(
                "{}, {}",
                scheme.name(),
                if postamble {
                    "postamble decoding"
                } else {
                    "no postamble decoding"
                }
            );
            out.push((
                label,
                RxArm {
                    scheme,
                    postamble,
                    collect_symbols: false,
                },
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{ScenarioBuilder, DEFAULT_ETA};

    #[test]
    fn quick_capacity_run_produces_links_and_stats() {
        let sc = ScenarioBuilder::new().duration_s(4.0).build();
        let run = CapacityRun::from_scenario(&sc, 13.8, false);
        assert!(!run.timeline.is_empty());
        let arm = RxArm {
            scheme: DeliveryScheme::Ppr { eta: DEFAULT_ETA },
            postamble: true,
            collect_symbols: false,
        };
        let stats = per_link_stats(&run, &arm);
        assert!(stats.iter().next().is_some());
        let with_frames = stats.iter().filter(|(_, s)| s.frames > 0).count();
        assert!(with_frames > 5, "only {with_frames} active links");
        for (_, s) in stats.iter() {
            if s.frames > 0 {
                let fdr = s.fdr(1500);
                assert!((0.0..=1.0).contains(&fdr), "fdr {fdr}");
            }
        }
    }

    #[test]
    fn scenario_run_matches_legacy_constructor() {
        let sc = ScenarioBuilder::new().duration_s(3.0).build();
        let a = CapacityRun::from_scenario(&sc, 13.8, false);
        let b = CapacityRun::new(13.8, false, 3.0);
        assert_eq!(a.cfg, b.cfg);
        assert_eq!(a.timeline, b.timeline);
    }

    fn with_threads(threads: usize) -> Scenario {
        ScenarioBuilder::new().threads(threads).build()
    }

    #[test]
    fn par_map_of_no_jobs_or_one_job() {
        for threads in [1, 4] {
            let sc = with_threads(threads);
            assert!(par_map(&sc, &[] as &[u32], |&x| x + 1).is_empty());
            assert_eq!(par_map(&sc, &[41u32], |&x| x + 1), vec![42]);
        }
    }

    #[test]
    fn par_map_keeps_input_order_with_more_jobs_than_workers() {
        let jobs: Vec<u64> = (0..37).collect();
        let want: Vec<u64> = jobs.iter().map(|x| x * x).collect();
        for threads in [1, 2, 3, 8] {
            // Early jobs cost the most, so later ones finish first on
            // the other workers.
            let got = par_map(&with_threads(threads), &jobs, |&x| {
                let mut acc = x;
                for _ in 0..(37 - x) * 10_000 {
                    acc = std::hint::black_box(acc.wrapping_mul(3) ^ x);
                }
                std::hint::black_box(acc);
                x * x
            });
            assert_eq!(got, want, "threads={threads}");
        }
    }

    #[test]
    fn par_map_runs_jobs_concurrently() {
        // Each job waits for the other to start, which only a second
        // thread can do; the wait is bounded so a serial map fails
        // instead of hanging.
        let started = AtomicUsize::new(0);
        let both = par_map(&with_threads(2), &[0, 1], |_| {
            started.fetch_add(1, Ordering::SeqCst);
            for _ in 0..10_000 {
                if started.load(Ordering::SeqCst) == 2 {
                    return true;
                }
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            false
        });
        assert_eq!(both, vec![true, true]);
    }

    #[test]
    #[should_panic(expected = "job 5 failed")]
    fn par_map_propagates_a_job_panic() {
        let jobs: Vec<usize> = (0..8).collect();
        par_map(&with_threads(3), &jobs, |&i| {
            assert!(i != 5, "job {i} failed");
            i
        });
    }

    #[test]
    fn six_arms_cover_schemes_and_postamble() {
        let sc = ScenarioBuilder::new().duration_s(1.0).build();
        let arms = six_arms(sc.schemes());
        assert_eq!(arms.len(), 6);
        assert_eq!(arms.iter().filter(|(_, a)| a.postamble).count(), 3);
        assert!(arms[0].0.contains("Packet CRC"));
    }
}
