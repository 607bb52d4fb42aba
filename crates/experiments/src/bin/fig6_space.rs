//! Fig. 6: accuracy of the sketch-based methods under a matched space budget.
//!
//! Paper setting: Zipf(α = 2.0), ε = 10, r = 0.1, θ = 0.001, and a range of (k, m)
//! configurations chosen so that Apple-HCMS, LDPJoinSketch and LDPJoinSketch+ consume a
//! similar number of sketch bytes (LDPJoinSketch+ builds sketches in both phases, so its
//! per-sketch budget is halved). Expected shape: AE falls as space grows; LDPJoinSketch+
//! dominates Apple-HCMS at comparable space.

use ldpjs_core::{Epsilon, SketchParams};
use ldpjs_data::PaperDataset;
use ldpjs_experiments::{run_trials, ExpArgs, Method, PlusKnobs};
use ldpjs_metrics::report::{csv_line, sci, Table};

fn main() {
    let args = ExpArgs::parse();
    let eps = Epsilon::new(10.0).expect("paper uses ε = 10 here");
    let knobs = PlusKnobs {
        sampling_rate: 0.1,
        threshold: 0.001,
    };
    let workload = PaperDataset::Zipf { alpha: 2.0 }.generate_join(args.scale, args.seed);

    // Space sweep: k fixed at 18, m doubling. Space of one sketch = k·m·8 bytes.
    let m_grid: Vec<usize> = if args.quick {
        vec![512, 2048]
    } else {
        vec![256, 512, 1024, 2048, 4096, 8192]
    };

    let mut table = Table::new(
        "Fig. 6 — AE vs space cost (Zipf α=2.0, ε=10)",
        &[
            "space (KB)",
            "Apple-HCMS",
            "LDPJoinSketch",
            "LDPJoinSketch+ (2 phases)",
        ],
    );
    for &m in &m_grid {
        let params = SketchParams::new(18, m).expect("valid sketch parameters");
        // LDPJoinSketch+ uses two phases of sketches of the same size, so to compare at equal
        // space we also run it with half the columns.
        let params_plus = SketchParams::new(18, (m / 2).max(2)).expect("valid sketch parameters");
        let space_kb = params.space_bytes() as f64 / 1024.0;

        let hcms = run_trials(
            Method::AppleHcms,
            &workload,
            params,
            eps,
            knobs,
            args.seed,
            args.effective_trials(),
        );
        let ldp = run_trials(
            Method::LdpJoinSketch,
            &workload,
            params,
            eps,
            knobs,
            args.seed,
            args.effective_trials(),
        );
        let plus = run_trials(
            Method::LdpJoinSketchPlus,
            &workload,
            params_plus,
            eps,
            knobs,
            args.seed,
            args.effective_trials(),
        );

        table.add_row(vec![
            format!("{space_kb:.0}"),
            sci(hcms.mean_absolute_error),
            sci(ldp.mean_absolute_error),
            sci(plus.mean_absolute_error),
        ]);
        for (name, s) in [
            ("Apple-HCMS", &hcms),
            ("LDPJoinSketch", &ldp),
            ("LDPJoinSketch+", &plus),
        ] {
            println!(
                "{}",
                csv_line(
                    "fig6",
                    &[
                        format!("{space_kb:.0}"),
                        name.to_string(),
                        format!("{:.6e}", s.mean_absolute_error),
                    ]
                )
            );
        }
    }
    println!("\n{}", table.render());
    println!(
        "(AE should decrease with space; LDPJoinSketch+ should beat Apple-HCMS at matched space.)"
    );
}
