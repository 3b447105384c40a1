//! Event-core parity: the discrete-event drivers must be bit-identical
//! to their pinned references.
//!
//! Two layers of the claim:
//!
//! 1. **Timeline** — [`generate_timeline`] (event queue) vs
//!    [`generate_timeline_reference`] (the original per-sender merge).
//! 2. **Reception loop** — [`process_receptions`] (the single-threaded
//!    event driver over packed chips) vs [`process_receptions_reference`]
//!    (the sequential `&[bool]` specification).
//! 3. **Derived arms** — a direct `postamble: false` run vs
//!    [`Reception::without_postamble`] applied to the postamble run,
//!    which is how the FDR and throughput figures obtain that arm.
//!
//! Plus mesh resume inside a decode-flush window.
//!
//! Plus the spatial-index soundness property: the uniform grid's
//! candidate set is a superset of every link the propagation model can
//! still close at the noise floor.

use ppr::channel::pathloss::PathLossModel;
use ppr::mac::schemes::DeliveryScheme;
use ppr::sim::geometry::{Point, Testbed};
use ppr::sim::network::{
    generate_timeline, generate_timeline_reference, office_model, process_receptions,
    process_receptions_checkpointed, process_receptions_reference, snapshot_after_events, RadioEnv,
    Reception, RxArm, SimConfig,
};
use ppr::sim::rxpath::Acquisition;
use ppr::sim::scenario::DEFAULT_SEED;
use ppr::sim::snapshot::RxSnapshot;
use ppr::sim::spatial::SpatialIndex;
use proptest::prelude::*;

fn cfg(load_kbps: f64, seed: u64) -> SimConfig {
    SimConfig {
        load_kbps,
        body_bytes: 1500,
        carrier_sense: false,
        duration_s: 2.0,
        seed,
    }
}

#[test]
fn timeline_event_core_matches_reference() {
    for (load, cs, seed) in [(13.8, false, 1u64), (42.4, false, 2), (87.5, true, 3)] {
        let mut c = cfg(load, seed);
        c.carrier_sense = cs;
        let env = RadioEnv::new(c.seed);
        let a = generate_timeline(&env, &c);
        let b = generate_timeline_reference(&env, &c);
        assert_eq!(
            a, b,
            "timeline diverged at load {load}, cs {cs}, seed {seed}"
        );
    }
}

#[test]
fn reception_loop_matches_reference() {
    let c = cfg(42.4, 7);
    let env = RadioEnv::new(c.seed);
    let timeline = generate_timeline(&env, &c);
    assert!(!timeline.is_empty());
    let arm = RxArm {
        scheme: DeliveryScheme::Ppr { eta: 6 },
        postamble: true,
        collect_symbols: false,
    };

    let reference = process_receptions_reference(&env, &c, &timeline, &arm);
    assert!(!reference.is_empty());
    assert_eq!(process_receptions(&env, &c, &timeline, &arm), reference);
}

#[test]
fn no_postamble_arm_is_derived_exactly() {
    let derived = |recs: &[Reception]| -> Vec<Reception> {
        recs.iter().map(Reception::without_postamble).collect()
    };
    let arm = |scheme, postamble, collect_symbols| RxArm {
        scheme,
        postamble,
        collect_symbols,
    };
    let mut rescued = 0;
    // Every (load, carrier sense) point of Figs. 8-11, every scheme.
    for (load, cs) in [(3.5, true), (3.5, false), (13.8, false), (6.9, false)] {
        for seed in [DEFAULT_SEED, 7] {
            let mut c = cfg(load, seed);
            c.carrier_sense = cs;
            let env = RadioEnv::new(seed);
            let timeline = generate_timeline(&env, &c);
            for scheme in DeliveryScheme::standard_set(50, 6) {
                let with = process_receptions(&env, &c, &timeline, &arm(scheme, true, false));
                let without = process_receptions(&env, &c, &timeline, &arm(scheme, false, false));
                assert_eq!(
                    without,
                    derived(&with),
                    "load {load}, cs {cs}, seed {seed}, {scheme:?}"
                );
                rescued += with
                    .iter()
                    .filter(|r| r.acquisition == Acquisition::Postamble)
                    .count();
            }
        }
    }
    assert!(
        rescued > 0,
        "no postamble acquisition: the check is vacuous"
    );

    let c = cfg(13.8, 7);
    let env = RadioEnv::new(c.seed);
    let timeline = generate_timeline(&env, &c);
    let ppr = DeliveryScheme::Ppr { eta: 6 };
    // A checkpointed run: both arms resumed halfway, captures in flight.
    let snapshot_at = |events, postamble| {
        let bytes = snapshot_after_events(&env, &c, &timeline, &arm(ppr, postamble, false), events);
        RxSnapshot::from_bytes(&bytes).expect("snapshot parses")
    };
    let mid = snapshot_at(u64::MAX, true).dispatched / 2;
    assert!(!snapshot_at(mid, true).in_flight.is_empty());
    let with = process_receptions_checkpointed(&env, &c, &timeline, &arm(ppr, true, false), mid);
    let without =
        process_receptions_checkpointed(&env, &c, &timeline, &arm(ppr, false, false), mid);
    assert_eq!(without, derived(&with), "checkpointed at {mid}");
    // Per-symbol traces: kept for preamble acquisitions, dropped for
    // the rest.
    let with = process_receptions(&env, &c, &timeline, &arm(ppr, true, true));
    let without = process_receptions(&env, &c, &timeline, &arm(ppr, false, true));
    assert!(with.iter().any(|r| !r.symbol_hints.is_empty()));
    assert_eq!(without, derived(&with), "collect_symbols");
}

#[test]
fn mesh_resume_inside_a_flush_window_is_bit_identical() {
    // A mesh checkpoint may land *inside* the SAFE_WINDOW decode flush:
    // completed receptions are pending, their batch not yet decoded.
    // The snapshot serializes the pending batch verbatim (no forced
    // early flush), so the resumed run must reproduce the uninterrupted
    // stats exactly — including the flush-batch counters the report
    // prints.
    use ppr::sim::experiments::mesh::{run_mesh, MeshDriver, MeshParams};
    let params = MeshParams::benign(300, 12.0, 2, 6, 250);
    let reference = run_mesh(&params);

    let mut driver = MeshDriver::new(&params, None);
    let mut epochs_inside_flush = Vec::new();
    loop {
        let before = driver.dispatched();
        driver.run_events(before + 1);
        if driver.dispatched() == before {
            break; // drained
        }
        if !driver.save().pending.is_empty() {
            epochs_inside_flush.push(driver.dispatched());
        }
        if epochs_inside_flush.len() >= 24 {
            break;
        }
    }
    assert!(
        !epochs_inside_flush.is_empty(),
        "no epoch with a non-empty pending batch — SAFE_WINDOW flush never observed"
    );
    // Resume from an early, a middle and the last captured mid-flush
    // epoch.
    let picks = [
        epochs_inside_flush[0],
        epochs_inside_flush[epochs_inside_flush.len() / 2],
        *epochs_inside_flush.last().unwrap(),
    ];
    for &events in &picks {
        let mut d = MeshDriver::new(&params, None);
        d.run_events(events);
        let snap = d.save();
        assert!(!snap.pending.is_empty(), "picked epoch lost its batch");
        let resumed = MeshDriver::restore(&params, &snap)
            .expect("mid-flush snapshot restores")
            .run_to_end();
        assert_eq!(resumed, reference, "mid-flush resume diverged at {events}");
    }
}

proptest! {
    /// Grid soundness: every pair the model can still close at the
    /// noise floor (mean rx power ≥ noise) is inside the 3×3 candidate
    /// neighborhood of both endpoints.
    #[test]
    fn spatial_candidates_cover_every_closable_link(
        seed in 0u64..1000,
        nodes in 2usize..80,
        density in 4.0f64..20.0,
    ) {
        let model = PathLossModel { shadow_sigma_db: 0.0, ..office_model() };
        let comm = model.range_at_snr_m(2.5);
        let tb = Testbed::mesh(seed, nodes, density, comm);
        let pts: &[Point] = &tb.senders;
        let index = SpatialIndex::build(pts, model.interference_radius_m());
        let noise = model.noise_mw();

        let mut cands: Vec<u32> = Vec::new();
        for (r, p) in pts.iter().enumerate() {
            cands.clear();
            index.candidates_into(p, &mut cands);
            // Deterministic: a second scan yields the same sequence.
            prop_assert_eq!(&cands, &index.candidates(p));
            for (s, q) in pts.iter().enumerate() {
                if s == r {
                    continue;
                }
                if model.rx_power_mw(p.distance(q), 0.0) >= noise {
                    prop_assert!(
                        cands.contains(&(s as u32)),
                        "node {} closes a link to {} but is not a candidate", s, r
                    );
                }
            }
        }
    }
}
