//! A miniature run of the 27-node testbed: the paper's intro workload.
//!
//! 23 senders broadcast 1500-byte packets at high offered load with
//! carrier sense off; four receivers catch what they can. Prints the
//! per-link frame delivery picture for the status quo (packet CRC) vs
//! PPR, with and without postamble decoding — Fig. 10 in miniature.
//!
//! ```text
//! cargo run --release --example mesh_broadcast
//! ```

use ppr::mac::schemes::DeliveryScheme;
use ppr::sim::experiments::common::{CapacityRun, LinkFold};
use ppr::sim::network::RxArm;
use ppr::sim::rxpath::Acquisition;

fn main() {
    println!("building testbed and 12 s of 13.8 kbit/s/node traffic...");
    let run = CapacityRun::new(13.8, false, 12.0);
    println!(
        "{} transmissions over {} usable links ({} senders, {} receivers)\n",
        run.timeline.len(),
        run.env.links().len(),
        run.env.testbed.senders.len(),
        run.env.testbed.receivers.len(),
    );

    for (label, scheme, postamble) in [
        (
            "status quo: packet CRC, no postamble",
            DeliveryScheme::PacketCrc,
            false,
        ),
        ("packet CRC + postamble", DeliveryScheme::PacketCrc, true),
        (
            "PPR (eta=6), no postamble",
            DeliveryScheme::Ppr { eta: 6 },
            false,
        ),
        (
            "PPR (eta=6) + postamble",
            DeliveryScheme::Ppr { eta: 6 },
            true,
        ),
    ] {
        let arm = RxArm {
            scheme,
            postamble,
            collect_symbols: false,
        };
        let mut links = LinkFold::new(&run.env);
        let (mut pre, mut post, mut lost) = (0usize, 0usize, 0usize);
        run.for_each_reception(&arm, |r| {
            links.add(&r);
            match r.acquisition {
                Acquisition::Preamble => pre += 1,
                Acquisition::Postamble => post += 1,
                Acquisition::None => lost += 1,
            }
        });
        let cdf = links.fdr_cdf(run.cfg.body_bytes);
        println!("{label}");
        println!(
            "  median per-link FDR {:.3}  (p25 {:.3}, p75 {:.3}) over {} links",
            cdf.median(),
            cdf.quantile(0.25),
            cdf.quantile(0.75),
            links.iter().filter(|(_, s)| s.frames > 0).count(),
        );
        println!("  acquisitions: {pre} preamble, {post} postamble, {lost} lost\n");
    }
    println!(
        "Expect: PPR+postamble far above the status quo, postamble adding\n\
         acquisitions for both schemes (paper Figs. 8-10)."
    );
}
