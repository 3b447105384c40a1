//! Figures 8–10: per-link equivalent frame delivery rate CDFs.
//!
//! * Fig. 8 — carrier sense ON, 3.5 kbit/s/node.
//! * Fig. 9 — carrier sense OFF, 3.5 kbit/s/node.
//! * Fig. 10 — carrier sense OFF, 13.8 kbit/s/node.
//!
//! Each figure plots six curves: {packet CRC, fragmented CRC, PPR} ×
//! {no postamble, postamble}. Expected shape: PPR > fragmented CRC >
//! packet CRC; postamble decoding shifts every curve right (≈2× median);
//! packet CRC collapses without carrier sense and at high load while PPR
//! stays high.

use super::common::{six_arm_link_stats, CapacityRun};
use super::Experiment;
use crate::metrics::Cdf;
use crate::results::{ExperimentResult, TableBlock};
use crate::scenario::Scenario;

/// One evaluated curve.
#[derive(Debug, Clone)]
pub struct Curve {
    /// Legend label (scheme + postamble arm).
    pub label: String,
    /// Per-link FDR distribution.
    pub cdf: Cdf,
}

/// The headline-metric key for a curve's median FDR.
pub fn median_metric_key(label: &str) -> String {
    format!("median_fdr/{label}")
}

/// Runs one figure's experiment at the resolved load/carrier-sense over
/// one shared timeline: the three postamble arms decode concurrently
/// and the three no-postamble arms are derived from them
/// ([`six_arm_link_stats`]).
pub fn collect(scenario: &Scenario, load_kbps: f64, carrier_sense: bool) -> Vec<Curve> {
    let run = CapacityRun::from_scenario(scenario, load_kbps, carrier_sense);
    six_arm_link_stats(scenario, &run)
        .into_iter()
        .map(|(label, fold)| Curve {
            label,
            cdf: fold.fdr_cdf(run.cfg.body_bytes),
        })
        .collect()
}

/// One of the three FDR figures, distinguished by its canonical
/// (load, carrier-sense) point.
pub struct FdrExperiment {
    id: &'static str,
    title: &'static str,
    figure: &'static str,
    description: &'static str,
    load_kbps: f64,
    carrier_sense: bool,
}

/// Fig. 8: carrier sense on, moderate load.
pub const FIG08: FdrExperiment = FdrExperiment {
    id: "fig08",
    title: "Figure 8: FDR, carrier sense on, moderate load",
    figure: "Figure 8",
    description: "Per-link FDR CDFs, carrier sense on, 3.5 kbit/s/node",
    load_kbps: 3.5,
    carrier_sense: true,
};

/// Fig. 9: carrier sense off, moderate load.
pub const FIG09: FdrExperiment = FdrExperiment {
    id: "fig09",
    title: "Figure 9: FDR, carrier sense off, moderate load",
    figure: "Figure 9",
    description: "Per-link FDR CDFs, carrier sense off, 3.5 kbit/s/node",
    load_kbps: 3.5,
    carrier_sense: false,
};

/// Fig. 10: carrier sense off, high load.
pub const FIG10: FdrExperiment = FdrExperiment {
    id: "fig10",
    title: "Figure 10: FDR, carrier sense off, high load",
    figure: "Figure 10",
    description: "Per-link FDR CDFs, carrier sense off, 13.8 kbit/s/node",
    load_kbps: 13.8,
    carrier_sense: false,
};

impl Experiment for FdrExperiment {
    fn id(&self) -> &'static str {
        self.id
    }

    fn title(&self) -> &'static str {
        self.title
    }

    fn paper_ref(&self) -> &'static str {
        self.figure
    }

    fn description(&self) -> &'static str {
        self.description
    }

    fn run(&self, scenario: &Scenario) -> ExperimentResult {
        let load_kbps = scenario.load_or(self.load_kbps);
        let carrier_sense = scenario.carrier_sense_or(self.carrier_sense);
        let curves = collect(scenario, load_kbps, carrier_sense);

        let mut res = ExperimentResult::new(self.id, self.title, self.figure, scenario);
        res.text(format!(
            "{}: per-link equivalent frame delivery rate\n\
             (offered load {load_kbps} kbit/s/node, carrier sense {})\n\n",
            self.figure,
            if carrier_sense { "ENABLED" } else { "DISABLED" }
        ));
        let mut t = TableBlock::new(&["scheme / arm", "links", "median FDR", "p25", "p75"]);
        for c in &curves {
            t.row(vec![
                c.label.clone().into(),
                c.cdf.len().into(),
                c.cdf.median().into(),
                c.cdf.quantile(0.25).into(),
                c.cdf.quantile(0.75).into(),
            ]);
            res.metric(median_metric_key(&c.label), c.cdf.median());
        }
        res.table(t);
        res.text("\n");
        for c in &curves {
            res.series(&c.label, c.cdf.series(0.0, 1.0, 21));
            res.text("\n");
        }
        res
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioBuilder;

    fn quick(duration_s: f64) -> Scenario {
        ScenarioBuilder::new().duration_s(duration_s).build()
    }

    /// The central ordering claims of the paper, checked on a short
    /// high-load run where the separation is widest.
    #[test]
    fn scheme_ordering_holds_at_high_load() {
        let curves = collect(&quick(5.0), 13.8, false);
        let median = |label: &str| -> f64 {
            curves
                .iter()
                .find(|c| c.label.contains(label))
                .unwrap()
                .cdf
                .median()
        };
        let pkt_post = median("Packet CRC, postamble");
        let frag_post = median("Fragmented CRC, postamble");
        let ppr_post = median("PPR, postamble");
        assert!(
            ppr_post >= frag_post && frag_post >= pkt_post,
            "ordering violated: ppr {ppr_post} frag {frag_post} pkt {pkt_post}"
        );
        assert!(ppr_post > pkt_post, "PPR must beat packet CRC outright");
    }

    #[test]
    fn postamble_improves_or_matches_every_scheme() {
        let curves = collect(&quick(5.0), 13.8, false);
        for scheme in ["Packet CRC", "Fragmented CRC", "PPR"] {
            let no_post = curves
                .iter()
                .find(|c| c.label.starts_with(scheme) && c.label.contains("no postamble"))
                .unwrap()
                .cdf
                .median();
            let post = curves
                .iter()
                .find(|c| c.label.starts_with(scheme) && !c.label.contains("no postamble"))
                .unwrap()
                .cdf
                .median();
            assert!(
                post >= no_post - 0.02,
                "{scheme}: postamble median {post} < no-postamble {no_post}"
            );
        }
    }

    #[test]
    fn experiment_result_carries_six_curves_and_metrics() {
        let res = FIG10.run(&quick(2.0));
        assert_eq!(res.id, "fig10");
        let series = res
            .blocks
            .iter()
            .filter(|b| matches!(b, crate::results::Block::Series { .. }))
            .count();
        assert_eq!(series, 6);
        assert_eq!(res.metrics.len(), 6);
        assert!(res
            .get_metric(&median_metric_key("PPR, postamble decoding"))
            .is_some());
        assert!(res.render_text().starts_with("Figure 10:"));
    }

    #[test]
    fn load_override_pins_the_run() {
        let sc = ScenarioBuilder::new()
            .duration_s(2.0)
            .load_kbps(6.9)
            .build();
        let res = FIG10.run(&sc);
        assert!(res.render_text().contains("offered load 6.9 kbit/s/node"));
    }
}
