//! The testbed replay: one capacity run's reception work, re-done
//! reception by reception through the public calls the event driver's
//! pipeline makes, with host time taken around each layer's call.
//!
//! The run is the fig10 PPR arm: 13.8 kbit/s per node, carrier sense
//! off, 1500 B bodies, η = 6, postamble decoding on. The replay walks
//! receivers in order and each receiver's transmissions in timeline
//! order (the driver's output order) and folds the receiver's busy/idle
//! state sequentially, exactly as the driver does after its parallel
//! prepare. Its receptions must equal `process_receptions`; the
//! [`ReplayReport::matches`] flag is the benchmark's cross-check that
//! the timings below describe the work the simulator really does.

use crate::metrics::{ratio, timed, Metrics};
use ppr_channel::chip_channel::{corrupt_chip_words_in_place, ErrorProfile};
use ppr_channel::overlap::{interference_profile, HeardTx};
use ppr_core::arq::{ByteState, PpArqConfig, ReceiverPacket};
use ppr_mac::frame::Frame;
use ppr_mac::schemes::{correct_delivered_bytes, DeliveryScheme};
use ppr_sim::network::{
    build_body_padded, generate_timeline, payload_pattern, ReceptionDriver, BATCH_PER_WORKER,
    SQUELCH_SNR,
};
use ppr_sim::rxpath::FastRx;
use ppr_sim::scenario::Scenario;
use ppr_sim::{RadioEnv, Reception, RxArm, SimConfig, Testbed, Transmission};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Offered load of the replayed arm, kbit/s per node (Fig. 10).
pub const LOAD_KBPS: f64 = 13.8;

/// Over-the-air body size of the replayed arm, bytes.
pub const BODY_BYTES: usize = 1500;

/// Chip error probability at which the corruption kernel leaves the
/// sparse (geometric-skip) regime for per-lane Bernoulli masks.
pub const BLOCK_P: f64 = 0.02;

/// Chip error probability from which a span counts as jammed (one
/// uniform draw per 64-chip lane).
pub const JAMMED_P: f64 = 0.5;

/// The per-reception noise-stream seed: `(master seed, transmission id,
/// receiver)`. Mirrors the simulator's crate-private
/// `network::reception_rng_seed`; if the two ever disagree the replay
/// stops matching and the benchmark reports the mismatch.
pub fn reception_seed(seed: u64, tx_id: u64, receiver: usize) -> u64 {
    seed ^ (tx_id.wrapping_mul(0x2545_F491_4F6C_DD1D)) ^ ((receiver as u64) << 56)
}

/// The replayed capacity run's inputs.
pub struct ReplayRun {
    /// Radio environment (Fig. 7 floor plan).
    pub env: RadioEnv,
    /// Run configuration.
    pub cfg: SimConfig,
    /// The evaluated arm.
    pub arm: RxArm,
}

impl ReplayRun {
    /// The fig10 PPR arm under a scenario's seed, duration and η.
    pub fn fig10_ppr(sc: &Scenario) -> Self {
        let cfg = SimConfig {
            load_kbps: LOAD_KBPS,
            body_bytes: BODY_BYTES,
            carrier_sense: false,
            duration_s: sc.duration_s,
            seed: sc.seed,
        };
        ReplayRun {
            env: RadioEnv::with_testbed(cfg.seed, Testbed::fig7()),
            cfg,
            arm: RxArm {
                scheme: DeliveryScheme::Ppr { eta: sc.eta },
                postamble: true,
                collect_symbols: false,
            },
        }
    }
}

/// Layer counters and host times gathered by one replay.
#[derive(Debug, Clone, Default)]
pub struct ReplayReport {
    /// Receptions replayed (squelch-passing transmission × receiver).
    pub receptions: usize,
    /// Host seconds rendering frames to chips.
    pub render_s: f64,
    /// Chips rendered.
    pub render_chips: u64,
    /// Host seconds computing interference profiles.
    pub overlap_s: f64,
    /// Interference spans produced.
    pub overlap_spans: u64,
    /// Host seconds building error profiles and corrupting chips.
    pub corrupt_s: f64,
    /// Chips under p < [`BLOCK_P`].
    pub chips_sparse: u64,
    /// Chips under [`BLOCK_P`] ≤ p < [`JAMMED_P`].
    pub chips_block: u64,
    /// Chips under p ≥ [`JAMMED_P`].
    pub chips_jammed: u64,
    /// Expected chip flips, Σ p over every chip.
    pub expected_flips: f64,
    /// Host seconds in preamble sync and acquisition.
    pub sync_s: f64,
    /// Frames acquired (preamble or postamble).
    pub acquired: usize,
    /// Preambles that survived while the receiver was busy.
    pub busy_drops: usize,
    /// Host seconds in the packet CRC check (despreading on demand).
    pub crc_s: f64,
    /// Acquired frames whose packet CRC passed.
    pub crc_ok: usize,
    /// Host seconds in scheme delivery and its correctness count.
    pub deliver_s: f64,
    /// Payload bytes offered to the receivers that replayed them.
    pub offered_bytes: u64,
    /// Bytes delivered (correct or not).
    pub claimed_bytes: u64,
    /// Bytes delivered and correct.
    pub correct_bytes: u64,
    /// Host seconds planning PP-ARQ feedback.
    pub arq_s: f64,
    /// Feedback plans made (acquired frames failing their CRC).
    pub arq_calls: usize,
    /// Bad runs over all plans.
    pub arq_bad_runs: u64,
    /// Encoded feedback bytes.
    pub arq_feedback_bytes: u64,
    /// Bytes requested for retransmission.
    pub arq_requested_bytes: u64,
    /// Body bytes of the planned packets.
    pub arq_body_bytes: u64,
    /// Did the replay reproduce `process_receptions` exactly?
    pub matches: bool,
}

impl ReplayReport {
    /// Records the replay's per-layer metrics.
    pub fn record(&self, m: &mut Metrics) {
        let recs = self.receptions as f64;
        m.put("mac.frame.render.s", self.render_s, "s");
        m.put("mac.frame.render.chips", self.render_chips as f64, "chips");
        m.put("channel.overlap.s", self.overlap_s, "s");
        m.put("channel.overlap.spans", self.overlap_spans as f64, "count");
        m.put("channel.corrupt.s", self.corrupt_s, "s");
        m.put(
            "channel.corrupt.chips.sparse",
            self.chips_sparse as f64,
            "chips",
        );
        m.put(
            "channel.corrupt.chips.block",
            self.chips_block as f64,
            "chips",
        );
        m.put(
            "channel.corrupt.chips.jammed",
            self.chips_jammed as f64,
            "chips",
        );
        m.put(
            "channel.corrupt.expected_flips",
            self.expected_flips,
            "chips",
        );
        m.put("rxpath.sync.s", self.sync_s, "s");
        m.put(
            "rxpath.acquire_ratio",
            ratio(self.acquired as f64, recs),
            "ratio",
        );
        m.put("rxpath.busy_drops", self.busy_drops as f64, "count");
        m.put("mac.crc.s", self.crc_s, "s");
        let ok = ratio(self.crc_ok as f64, self.acquired as f64);
        m.put("mac.crc.ok_ratio", ok, "ratio");
        m.put("mac.deliver.s", self.deliver_s, "s");
        let correct = self.correct_bytes as f64;
        let claimed = self.claimed_bytes as f64;
        m.put(
            "mac.deliver.correct_ratio",
            ratio(correct, claimed),
            "ratio",
        );
        let offered = self.offered_bytes as f64;
        m.put("mac.deliver.yield", ratio(correct, offered), "ratio");
        m.put("arq.plan.s", self.arq_s, "s");
        m.put("arq.plan.calls", self.arq_calls as f64, "count");
        let runs = ratio(self.arq_bad_runs as f64, self.arq_calls as f64);
        m.put("arq.plan.bad_runs_mean", runs, "count");
        m.put("arq.feedback.bytes", self.arq_feedback_bytes as f64, "B");
        let share = ratio(self.arq_requested_bytes as f64, self.arq_body_bytes as f64);
        m.put("arq.retx_share", share, "ratio");
        m.put("replay.match", if self.matches { 1.0 } else { 0.0 }, "bool");
    }
}

/// Number of maximal runs of `Bad` bytes.
fn bad_runs(states: &[ByteState]) -> u64 {
    let mut runs = 0;
    let mut prev_bad = false;
    for &s in states {
        let bad = s == ByteState::Bad;
        if bad && !prev_bad {
            runs += 1;
        }
        prev_bad = bad;
    }
    runs
}

/// Adds a profile's chips, clipped to the frame, to the regime counters.
fn count_regimes(rep: &mut ReplayReport, profile: &ErrorProfile, frame_chips: u64) {
    for &(start, end, p) in profile.spans() {
        let n = end.min(frame_chips).saturating_sub(start.min(frame_chips));
        if p >= JAMMED_P {
            rep.chips_jammed += n;
        } else if p >= BLOCK_P {
            rep.chips_block += n;
        } else {
            rep.chips_sparse += n;
        }
    }
    rep.expected_flips += profile.expected_errors();
}

/// Replays every reception of `timeline` under `run`, timing each layer.
/// Returns the receptions (in the driver's receiver-major order) and the
/// report, whose `matches` flag the caller sets.
pub fn replay(run: &ReplayRun, timeline: &[Transmission]) -> (Vec<Reception>, ReplayReport) {
    let (env, cfg, arm) = (&run.env, &run.cfg, &run.arm);
    let fast = FastRx::new(arm.postamble);
    let noise = env.model.noise_mw();
    let payload_len = arm.scheme.payload_len(cfg.body_bytes);
    let arq_config = PpArqConfig {
        eta: match arm.scheme {
            DeliveryScheme::Ppr { eta } => eta,
            _ => PpArqConfig::default().eta,
        },
        ..PpArqConfig::default()
    };
    let mut rep = ReplayReport::default();
    let mut out = Vec::new();

    for r in 0..env.testbed.receivers.len() {
        let heard: Vec<HeardTx> = timeline
            .iter()
            .map(|tx| HeardTx {
                id: tx.id,
                start_chip: tx.start_chip,
                len_chips: tx.len_chips,
                power_mw: env.s2r_mw[tx.sender][r],
            })
            .collect();
        let mut busy_until = 0u64;
        for (i, tx) in timeline.iter().enumerate() {
            let signal = env.s2r_mw[tx.sender][r];
            if signal / noise < SQUELCH_SNR {
                continue;
            }
            rep.receptions += 1;

            let (frame, payload, mut chips) = timed(&mut rep.render_s, || {
                let payload = payload_pattern(tx.sender, tx.seq, payload_len);
                let body = build_body_padded(&arm.scheme, &payload, cfg.body_bytes);
                let frame = Frame::new(r as u16, tx.sender as u16, tx.seq, body);
                let chips = frame.chip_words();
                (frame, payload, chips)
            });
            let frame_chips = frame.chips_len() as u64;
            rep.render_chips += frame_chips;

            let spans = timed(&mut rep.overlap_s, || {
                interference_profile(&heard[i], &heard)
            });
            rep.overlap_spans += spans.len() as u64;

            let profile = timed(&mut rep.corrupt_s, || {
                let profile = ErrorProfile::from_interference(signal, noise, &spans);
                let mut rng = StdRng::seed_from_u64(reception_seed(cfg.seed, tx.id, r));
                corrupt_chip_words_in_place(&mut chips, &profile, &mut rng);
                profile
            });
            count_regimes(&mut rep, &profile, frame_chips);

            let idle = busy_until <= tx.start_chip;
            let (pre_hit, (acq, rx_frame)) = timed(&mut rep.sync_s, || {
                let pre_hit = fast.preamble_hit_words(&chips);
                (pre_hit, fast.receive_words(&frame, &chips, idle))
            });
            if pre_hit && idle {
                busy_until = tx.end_chip();
            }
            if pre_hit && !idle {
                rep.busy_drops += 1;
            }
            rep.offered_bytes += payload_len as u64;

            let mut rec = Reception {
                tx_id: tx.id,
                sender: tx.sender,
                receiver: r,
                acquisition: acq,
                payload_len,
                delivered_correct: 0,
                delivered_claimed: 0,
                crc_ok: false,
                symbol_hints: Vec::new(),
                symbol_correct: Vec::new(),
            };
            if let Some(rx) = rx_frame {
                rep.acquired += 1;
                rec.crc_ok = timed(&mut rep.crc_s, || rx.pkt_crc_ok());
                rep.crc_ok += usize::from(rec.crc_ok);
                let (claimed, correct) = timed(&mut rep.deliver_s, || {
                    let delivered = arm.scheme.deliver(&rx);
                    let claimed: usize = delivered.iter().map(|d| d.bytes.len()).sum();
                    (claimed, correct_delivered_bytes(&delivered, &payload))
                });
                rec.delivered_claimed = claimed;
                rec.delivered_correct = correct;
                rep.claimed_bytes += claimed as u64;
                rep.correct_bytes += correct as u64;

                if !rec.crc_ok {
                    if let (Some(body), Some(hints)) = (rx.body_bytes(), rx.body_byte_hints()) {
                        if body.len() == hints.len() {
                            let body_len = body.len() as u64;
                            let (fb, runs) = timed(&mut rep.arq_s, || {
                                let mut pkt = ReceiverPacket::from_reception(
                                    tx.seq, body, &hints, false, arq_config,
                                );
                                let fb = pkt.make_feedback();
                                (fb, bad_runs(pkt.states()))
                            });
                            rep.arq_calls += 1;
                            rep.arq_bad_runs += runs;
                            rep.arq_body_bytes += body_len;
                            rep.arq_feedback_bytes += fb.encode().len() as u64;
                            rep.arq_requested_bytes +=
                                fb.chunks.iter().map(|c| c.len() as u64).sum::<u64>();
                        }
                    }
                }
            }
            out.push(rec);
        }
    }
    (out, rep)
}

/// The event driver's receptions at a worker count, with its dispatched
/// event count.
pub fn drive(run: &ReplayRun, timeline: &[Transmission], workers: usize) -> (Vec<Reception>, u64) {
    let mut driver = ReceptionDriver::new(
        &run.env,
        &run.cfg,
        timeline,
        &run.arm,
        Some(workers),
        BATCH_PER_WORKER,
    );
    driver.run_events(u64::MAX);
    let events = driver.dispatched();
    (driver.run_to_end(), events)
}

/// The whole testbed trace: timeline, the driver at `threads` and at one
/// worker, and the per-layer replay, cross-checked against the driver.
pub fn trace_testbed(sc: &Scenario, threads: usize, m: &mut Metrics) -> ReplayReport {
    let run = ReplayRun::fig10_ppr(sc);
    let mut timeline_s = 0.0;
    let timeline = timed(&mut timeline_s, || generate_timeline(&run.env, &run.cfg));
    m.put("network.timeline.s", timeline_s, "s");
    m.put("network.timeline.tx", timeline.len() as f64, "count");

    let mut recv_s = 0.0;
    let (driven, events) = timed(&mut recv_s, || drive(&run, &timeline, threads));
    let mut recv_w1_s = 0.0;
    let (driven_w1, _) = timed(&mut recv_w1_s, || drive(&run, &timeline, 1));
    m.put("network.recv.s", recv_s, "s");
    m.put("network.recv_w1.s", recv_w1_s, "s");
    m.put("network.fanout_overhead.s", recv_s - recv_w1_s, "s");
    m.put("network.recv.events", events as f64, "count");
    m.put("network.recv.receptions", driven.len() as f64, "count");

    let (replayed, mut rep) = replay(&run, &timeline);
    rep.matches = replayed == driven && driven_w1 == driven;
    rep.record(m);
    rep
}
