//! Fig. 11: impact of the frequent-item threshold θ on LDPJoinSketch+.
//!
//! Paper setting: Zipf(α = 1.1), (k, m) = (18, 1024), ε = 4, θ from 5·10⁻⁵ to 0.1. Expected
//! shape: a U-curve — very small θ floods the frequent item set with noisy low-frequency
//! values, very large θ leaves too few frequent items to matter, and the best accuracy sits in
//! between.

use ldpjs_core::{Epsilon, SketchParams};
use ldpjs_data::PaperDataset;
use ldpjs_experiments::{run_trials, ExpArgs, Method, PlusKnobs};
use ldpjs_metrics::report::{csv_line, sci, Table};

fn main() {
    let args = ExpArgs::parse();
    let params = SketchParams::new(18, 1024).expect("paper sketch parameters");
    let eps = Epsilon::new(args.eps).expect("valid epsilon");
    let workload = PaperDataset::Zipf { alpha: 1.1 }.generate_join(args.scale, args.seed);

    let thetas: Vec<f64> = if args.quick {
        vec![5e-5, 1e-3, 1e-1]
    } else {
        vec![5e-5, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 1e-1]
    };
    let mut table = Table::new(
        format!(
            "Fig. 11 — AE of LDPJoinSketch+ vs threshold θ (Zipf α=1.1, ε={})",
            args.eps
        ),
        &["theta", "AE", "RE"],
    );
    for &theta in &thetas {
        let knobs = PlusKnobs {
            sampling_rate: 0.1,
            threshold: theta,
        };
        let summary = run_trials(
            Method::LdpJoinSketchPlus,
            &workload,
            params,
            eps,
            knobs,
            args.seed,
            args.effective_trials(),
        );
        table.add_row(vec![
            format!("{theta:e}"),
            sci(summary.mean_absolute_error),
            sci(summary.mean_relative_error),
        ]);
        println!(
            "{}",
            csv_line(
                "fig11",
                &[
                    format!("{theta:e}"),
                    format!("{:.6e}", summary.mean_absolute_error)
                ]
            )
        );
    }
    println!("\n{}", table.render());
    println!("(Expect a U-shaped curve: both extremes of θ hurt accuracy.)");
}
