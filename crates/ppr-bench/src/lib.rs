//! # `ppr-bench` — ablation binaries and the perf snapshot
//!
//! The paper's figure and table experiments live in the `ppr-sim`
//! experiment registry and run through the `ppr-cli` driver:
//!
//! ```text
//! cargo run --release -p ppr-cli -- --list
//! cargo run --release -p ppr-cli -- run --all
//! cargo run --release -p ppr-cli -- run fig10 --set load=3.5,6.9,13.8 --json out/
//! ```
//!
//! What stays here are the binaries that are *not* registry
//! experiments: the ablations (`ablation_eta`, `ablation_hints`,
//! `ablation_arq_strategies`, `ablation_collision_model`), the §9
//! spreading-factor sweep (`conclusion_rate`) and the `bench_packed`
//! perf snapshot of the hot algorithmic paths (the chunking DP, the
//! despreader, the chip channel, the reception driver). Per-layer host
//! time of whole workloads is the separate `perfbench/` package's job.
//!
//! Set `PPR_DURATION=<seconds>` to shorten/lengthen the simulated
//! duration (default 90 s) — or use `--set duration=<s>` on `ppr-cli`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Prints a standard experiment banner.
pub fn banner(title: &str) {
    println!("{}", "=".repeat(72));
    println!("PPR reproduction — {title}");
    println!("{}", "=".repeat(72));
}
