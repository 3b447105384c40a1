//! Ablation: sweep of the SoftPHY threshold η.
//!
//! For each η, reports the PPR scheme's delivered goodput plus the
//! miss / false-alarm trade-off — the quantitative justification for the
//! paper's η = 6 (misses are what break correctness; false alarms only
//! cost one codeword of retransmission each).

use ppr_mac::schemes::DeliveryScheme;
use ppr_sim::experiments::common::{fold_hint_traces, CapacityRun, LinkFold};
use ppr_sim::metrics::HintHistogram;
use ppr_sim::network::RxArm;
use ppr_sim::report::{fmt, Table};
use ppr_sim::scenario::ScenarioBuilder;

fn main() {
    ppr_bench::banner("Ablation: SoftPHY threshold eta sweep");
    let scenario = ScenarioBuilder::new().build();
    let run = CapacityRun::from_scenario(&scenario, 13.8, false);

    // Hint statistics are threshold-independent: collect once.
    let mut hist = HintHistogram::new();
    fold_hint_traces(&run, DeliveryScheme::Ppr { eta: 6 }, |hints, correct| {
        hist.record_packet(hints, correct)
    });

    let mut t = Table::new(&[
        "eta",
        "median FDR",
        "miss rate",
        "false alarms",
        "claimed-but-wrong frac",
    ]);
    for eta in [0u8, 2, 4, 6, 8, 10, 12, 16] {
        let arm = RxArm {
            scheme: DeliveryScheme::Ppr { eta },
            postamble: true,
            collect_symbols: false,
        };
        let mut links = LinkFold::new(&run.env);
        let (mut claimed, mut correct) = (0usize, 0usize);
        run.for_each_reception(&arm, |rec| {
            links.add(&rec);
            claimed += rec.delivered_claimed;
            correct += rec.delivered_correct;
        });
        let cdf = links.fdr_cdf(run.cfg.body_bytes);
        let wrong_frac = if claimed > 0 {
            (claimed - correct) as f64 / claimed as f64
        } else {
            f64::NAN
        };
        t.row(&[
            eta.to_string(),
            fmt(cdf.median()),
            fmt(hist.miss_rate(eta)),
            fmt(hist.false_alarm_rate(eta)),
            fmt(wrong_frac),
        ]);
    }
    print!("{}", t.render());
    println!(
        "\nExpected: FDR rises with eta then flattens; miss rate grows with\n\
         eta while false alarms shrink — eta=6 balances them (paper 3.2)."
    );
}
