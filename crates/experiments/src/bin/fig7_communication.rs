//! Fig. 7: total client→server communication cost.
//!
//! Paper setting: Zipf(α = 1.1) and MovieLens, (k, m) = (18, 1024), ε = 4. The y-axis is the
//! cumulative number of bits sent by all clients. Expected shape: the Hadamard-sampling
//! methods (Apple-HCMS, LDPJoinSketch) are the cheapest because every client ships a single
//! perturbed bit plus indices; k-RR ships a full domain-sized value; FLH ships its hash index
//! and hashed value.

use ldpjs_core::{Epsilon, SketchParams};
use ldpjs_data::PaperDataset;
use ldpjs_experiments::{run_trials, ExpArgs, Method, PlusKnobs};
use ldpjs_metrics::report::{csv_line, Table};

fn main() {
    let args = ExpArgs::parse();
    let params = SketchParams::new(18, 1024).expect("paper sketch parameters");
    let eps = Epsilon::new(args.eps).expect("valid epsilon");

    let datasets = if args.quick {
        vec![PaperDataset::Zipf { alpha: 1.1 }]
    } else {
        vec![PaperDataset::Zipf { alpha: 1.1 }, PaperDataset::MovieLens]
    };
    let methods = [
        Method::Krr,
        Method::AppleHcms,
        Method::Flh,
        Method::LdpJoinSketch,
    ];

    let mut table = Table::new(
        format!(
            "Fig. 7 — communication cost in bits (k=18, m=1024, ε={})",
            args.eps
        ),
        &["dataset", "k-RR", "Apple-HCMS", "FLH", "LDPJoinSketch"],
    );
    for dataset in datasets {
        let workload = dataset.generate_join(args.scale, args.seed);
        let mut row = vec![workload.name.clone()];
        for &method in &methods {
            let summary = run_trials(
                method,
                &workload,
                params,
                eps,
                PlusKnobs::default(),
                args.seed,
                1,
            );
            row.push(summary.communication_bits.to_string());
            println!(
                "{}",
                csv_line(
                    "fig7",
                    &[
                        workload.name.clone(),
                        method.name().to_string(),
                        summary.communication_bits.to_string(),
                    ]
                )
            );
        }
        table.add_row(row);
    }
    println!("\n{}", table.render());
    println!("(LDPJoinSketch and Apple-HCMS should be the cheapest; k-RR the most expensive per user on large domains.)");
}
