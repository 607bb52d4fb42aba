//! Fig. 14: frequency-estimation accuracy (MSE) of LDPJoinSketch against the LDP frequency
//! oracles.
//!
//! Paper setting: Zipf(α = 1.5) and MovieLens, ε ∈ {0.1, …, 10}, MSE over the distinct values
//! of the attribute. Expected shape: LDPJoinSketch matches Apple-HCMS (their structures are
//! identical up to the sign hash) and clearly beats k-RR and FLH at small ε; the sketch error
//! dominates once ε is large, so the curves flatten.

use ldpjs_common::stats::frequency_table;
use ldpjs_core::protocol::build_private_sketch;
use ldpjs_core::{Candidates, Epsilon, SketchParams};
use ldpjs_data::PaperDataset;
use ldpjs_experiments::ExpArgs;
use ldpjs_ldp::{FlhOracle, FrequencyOracle, HcmsOracle, KrrOracle};
use ldpjs_metrics::error::mean_squared_error;
use ldpjs_metrics::report::{csv_line, sci, Table};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let args = ExpArgs::parse();
    let params = SketchParams::new(18, 1024).expect("paper sketch parameters");
    let datasets = if args.quick {
        vec![PaperDataset::Zipf { alpha: 1.5 }]
    } else {
        vec![PaperDataset::Zipf { alpha: 1.5 }, PaperDataset::MovieLens]
    };
    let eps_grid: Vec<f64> = if args.quick {
        vec![0.5, 4.0, 10.0]
    } else {
        vec![0.5, 1.0, 2.0, 4.0, 6.0, 8.0, 10.0]
    };

    for dataset in datasets {
        let workload = dataset.generate_join(args.scale, args.seed);
        // Frequency estimation is evaluated on one attribute (table A).
        let values = &workload.table_a;
        let truth_table = frequency_table(values);
        let distinct: Vec<u64> = truth_table.keys().copied().collect();
        let truth: Vec<f64> = distinct.iter().map(|d| truth_table[d] as f64).collect();

        let mut table = Table::new(
            format!("Fig. 14 — frequency-estimation MSE on {}", workload.name),
            &["eps", "k-RR", "Apple-HCMS", "FLH", "LDPJoinSketch"],
        );
        for &eps_val in &eps_grid {
            let eps = Epsilon::new(eps_val).expect("valid epsilon");
            let mut rng = StdRng::seed_from_u64(args.seed);

            let mut krr = KrrOracle::new(eps, workload.domain_size.max(2));
            krr.collect(values, &mut rng);
            let mse_krr = mean_squared_error(&truth, &krr.estimate_domain(&distinct));

            let mut hcms = HcmsOracle::new(params, eps, args.seed);
            hcms.collect(values, &mut rng);
            let mse_hcms = mean_squared_error(&truth, &hcms.estimate_domain(&distinct));

            let mut flh = FlhOracle::new_fast(eps, args.seed).expect("FLH oracle");
            flh.collect(values, &mut rng);
            let mse_flh = mean_squared_error(&truth, &flh.estimate_domain(&distinct));

            let sketch = build_private_sketch(values, params, eps, args.seed, &mut rng)
                .expect("sketch construction");
            let estimates = sketch
                .frequencies(Candidates::Slice(&distinct))
                .expect("a candidate slice fits every sketch");
            let mse_ldp = mean_squared_error(&truth, &estimates);

            table.add_row(vec![
                format!("{eps_val}"),
                sci(mse_krr),
                sci(mse_hcms),
                sci(mse_flh),
                sci(mse_ldp),
            ]);
            for (name, mse) in [
                ("k-RR", mse_krr),
                ("Apple-HCMS", mse_hcms),
                ("FLH", mse_flh),
                ("LDPJoinSketch", mse_ldp),
            ] {
                println!(
                    "{}",
                    csv_line(
                        "fig14",
                        &[
                            workload.name.clone(),
                            format!("{eps_val}"),
                            name.to_string(),
                            format!("{mse:.6e}"),
                        ]
                    )
                );
            }
        }
        println!("\n{}", table.render());
    }
    println!("(LDPJoinSketch should track Apple-HCMS and beat k-RR/FLH, especially at small ε.)");
}
