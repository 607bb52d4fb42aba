//! Fig. 10: impact of the phase-1 sampling rate r on LDPJoinSketch+.
//!
//! Paper setting: Zipf(α = 1.1), (k, m) = (18, 1024), ε = 4, r ∈ {0.10, 0.15, 0.20, 0.25, 0.30}.
//! Expected shape: AE decreases as the sampling rate grows because the phase-1 frequency
//! estimates (and hence the frequent item set) get more accurate.

use ldpjs_core::{Epsilon, SketchParams};
use ldpjs_data::PaperDataset;
use ldpjs_experiments::{run_trials, ExpArgs, Method, PlusKnobs};
use ldpjs_metrics::report::{csv_line, sci, Table};

fn main() {
    let args = ExpArgs::parse();
    let params = SketchParams::new(18, 1024).expect("paper sketch parameters");
    let eps = Epsilon::new(args.eps).expect("valid epsilon");
    let workload = PaperDataset::Zipf { alpha: 1.1 }.generate_join(args.scale, args.seed);

    let rates = if args.quick {
        vec![0.1, 0.3]
    } else {
        vec![0.10, 0.15, 0.20, 0.25, 0.30]
    };
    let mut table = Table::new(
        format!(
            "Fig. 10 — AE of LDPJoinSketch+ vs sampling rate r (Zipf α=1.1, ε={})",
            args.eps
        ),
        &["r", "AE", "RE"],
    );
    for &r in &rates {
        let knobs = PlusKnobs {
            sampling_rate: r,
            threshold: 0.001,
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
            format!("{r}"),
            sci(summary.mean_absolute_error),
            sci(summary.mean_relative_error),
        ]);
        println!(
            "{}",
            csv_line(
                "fig10",
                &[
                    format!("{r}"),
                    format!("{:.6e}", summary.mean_absolute_error)
                ]
            )
        );
    }
    println!("\n{}", table.render());
    println!("(AE should trend downward as r increases.)");
}
