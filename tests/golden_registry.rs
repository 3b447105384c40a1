//! Golden regression test: the full experiment registry at a short,
//! fully-pinned scenario must serialize to a byte-identical JSON
//! corpus.
//!
//! This guards the whole pipeline at once — timeline generation, the
//! packed reception loop, every delivery scheme, the hint statistics,
//! PP-ARQ, and the result/JSON layer. Any behavioral change (including
//! future performance work on the chip pipeline) must either leave the
//! corpus untouched or consciously update the pinned fingerprint with
//! an explanation in the commit.

use ppr::sim::experiments::registry;
use ppr::sim::results::fingerprint;
use ppr::sim::scenario::ScenarioBuilder;

/// FNV-1a of the concatenated JSON documents (one per testbed
/// experiment, in registry order, newline-separated) under the pinned
/// scenario below. `mesh10k` and `meshjam` are excluded — mesh floods
/// are far too heavy for a regression test, so each gets its own small
/// pinned corpus ([`mesh_json_fingerprint_is_pinned`],
/// [`meshjam_json_fingerprint_is_pinned`]) instead. The `jam`
/// duty-cycle sweep *is* in the corpus, pinning the PP-ARQ-vs-whole-
/// frame comparison end to end.
const GOLDEN_FINGERPRINT: u64 = 0x9888_552a_1fd1_2bd0;

/// FNV-1a of the `mesh10k` JSON document at the pinned 400-node
/// scenario below. Unchanged by the adversary work: benign parameters
/// leave the mesh driver bit-identical to the pre-adversary code.
const MESH_FINGERPRINT: u64 = 0x67bb_fae3_0308_58e4;

/// FNV-1a of the `meshjam` JSON document at the pinned 400-node
/// scenario below (reactive jammer + churn substituted by default).
const MESHJAM_FINGERPRINT: u64 = 0x3a73_9c08_08b7_cbed;

#[test]
fn registry_json_fingerprint_is_pinned() {
    // Every knob pinned: builder overrides beat any PPR_* environment
    // the harness might set, and threads=1 keeps the scenario snapshot
    // machine-independent (results are thread-count invariant anyway;
    // `every_experiment_is_thread_invariant` below proves that).
    let scenario = ScenarioBuilder::new()
        .duration_s(2.0)
        .seed(0x0050_5052)
        .threads(1)
        .arq_packets(40)
        .relay_packets(60)
        .build();

    let mut results = Vec::new();
    let mut corpus = String::new();
    for exp in registry() {
        if exp.id() == "mesh10k" || exp.id() == "meshjam" {
            continue;
        }
        let r = exp.run_with(&scenario, &results);
        assert_eq!(r.id, exp.id());
        corpus.push_str(&r.to_json().render());
        corpus.push('\n');
        results.push(r);
    }
    assert_eq!(results.len(), registry().len() - 2);

    let fp = fingerprint(corpus.as_bytes());
    assert_eq!(
        fp, GOLDEN_FINGERPRINT,
        "registry JSON corpus changed: fingerprint {fp:#018x} != pinned \
         {GOLDEN_FINGERPRINT:#018x}. If the change is intentional, update \
         GOLDEN_FINGERPRINT and explain the behavioral delta in the commit."
    );
}

#[test]
fn mesh_json_fingerprint_is_pinned() {
    use ppr::sim::experiments::find;

    let scenario = ScenarioBuilder::new()
        .seed(0x0050_5052)
        .threads(1)
        .mesh_nodes(400)
        .mesh_density(12.0)
        .build();

    let exp = find("mesh10k").expect("mesh10k registered");
    let corpus = exp.run(&scenario).to_json().render();
    let fp = fingerprint(corpus.as_bytes());
    assert_eq!(
        fp, MESH_FINGERPRINT,
        "mesh10k JSON changed: fingerprint {fp:#018x} != pinned \
         {MESH_FINGERPRINT:#018x}. If the change is intentional, update \
         MESH_FINGERPRINT and explain the behavioral delta in the commit."
    );
}

#[test]
fn meshjam_json_fingerprint_is_pinned() {
    use ppr::sim::experiments::find;

    let scenario = ScenarioBuilder::new()
        .seed(0x0050_5052)
        .threads(1)
        .mesh_nodes(400)
        .mesh_density(12.0)
        .build();

    let exp = find("meshjam").expect("meshjam registered");
    let corpus = exp.run(&scenario).to_json().render();
    let fp = fingerprint(corpus.as_bytes());
    assert_eq!(
        fp, MESHJAM_FINGERPRINT,
        "meshjam JSON changed: fingerprint {fp:#018x} != pinned \
         {MESHJAM_FINGERPRINT:#018x}. If the change is intentional, update \
         MESHJAM_FINGERPRINT and explain the behavioral delta in the commit."
    );
}

#[test]
fn every_experiment_is_thread_invariant() {
    // The golden corpora pin threads=1, which runs every experiment's
    // arms inline. This drives the concurrent path: the same testbed
    // registry at three threads must render the same reports and the
    // same headline metrics.
    let build = |threads: usize| {
        ScenarioBuilder::new()
            .duration_s(2.0)
            .seed(0x0050_5052)
            .threads(threads)
            .arq_packets(40)
            .relay_packets(60)
            .build()
    };
    let (serial, parallel) = (build(1), build(3));
    let mut prior_s = Vec::new();
    let mut prior_p = Vec::new();
    for exp in registry() {
        if exp.id() == "mesh10k" || exp.id() == "meshjam" {
            continue;
        }
        let rs = exp.run_with(&serial, &prior_s);
        let rp = exp.run_with(&parallel, &prior_p);
        assert_eq!(
            rs.render_text(),
            rp.render_text(),
            "threads changed the report of {}",
            exp.id()
        );
        let bits = |r: &ppr::sim::results::ExperimentResult| -> Vec<(String, u64)> {
            r.metrics
                .iter()
                .map(|(k, v)| (k.clone(), v.to_bits()))
                .collect()
        };
        assert_eq!(
            bits(&rs),
            bits(&rp),
            "threads changed the metrics of {}",
            exp.id()
        );
        prior_s.push(rs);
        prior_p.push(rp);
    }
}
