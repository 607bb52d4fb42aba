//! Fig. 9: impact of the sketch parameters (m, k) on the sketch-based methods.
//!
//! Paper setting: ε = 10, r = 0.1. Sub-figures (a)–(d) sweep the column count
//! m ∈ {512, …, 16384} with k = 18; sub-figures (e)–(h) sweep the row count
//! k ∈ {9, 12, 18, 21, 28, 30, 36} with m = 1024. Expected shape: AE falls with m for every
//! method (fewer collisions); for FAGMS and Apple-HCMS it also falls with k, while for
//! LDPJoinSketch(+) it stays flat or rises slightly with k because each client populates only
//! one sampled row.
//!
//! Select the sweep with `--sweep m` (default) or `--sweep k`.

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
    let sweep = args.sweep.clone().unwrap_or_else(|| "m".to_string());

    let datasets = if args.quick {
        vec![PaperDataset::Zipf { alpha: 1.1 }]
    } else {
        vec![
            PaperDataset::Zipf { alpha: 1.1 },
            PaperDataset::Zipf { alpha: 2.0 },
            PaperDataset::MovieLens,
            PaperDataset::Twitter,
        ]
    };
    let methods = Method::sketch_methods();

    for dataset in datasets {
        let workload = dataset.generate_join(args.scale, args.seed);
        let configs: Vec<SketchParams> = match sweep.as_str() {
            "k" => {
                let ks: Vec<usize> = if args.quick {
                    vec![9, 18, 36]
                } else {
                    vec![9, 12, 18, 21, 28, 30, 36]
                };
                ks.into_iter()
                    .map(|k| SketchParams::new(k, 1024).unwrap())
                    .collect()
            }
            _ => {
                let ms: Vec<usize> = if args.quick {
                    vec![512, 2048]
                } else {
                    vec![512, 1024, 2048, 4096, 8192, 16384]
                };
                ms.into_iter()
                    .map(|m| SketchParams::new(18, m).unwrap())
                    .collect()
            }
        };

        let mut table = Table::new(
            format!("Fig. 9 — AE vs {} on {} (ε = 10)", sweep, workload.name),
            &[
                &sweep,
                "FAGMS",
                "Apple-HCMS",
                "LDPJoinSketch",
                "LDPJoinSketch+",
            ],
        );
        for params in configs {
            let label = match sweep.as_str() {
                "k" => params.rows().to_string(),
                _ => params.columns().to_string(),
            };
            let mut row = vec![label.clone()];
            for &method in &methods {
                let summary = run_trials(
                    method,
                    &workload,
                    params,
                    eps,
                    knobs,
                    args.seed,
                    args.effective_trials(),
                );
                row.push(sci(summary.mean_absolute_error));
                println!(
                    "{}",
                    csv_line(
                        "fig9",
                        &[
                            workload.name.clone(),
                            sweep.clone(),
                            label.clone(),
                            method.name().to_string(),
                            format!("{:.6e}", summary.mean_absolute_error),
                        ]
                    )
                );
            }
            table.add_row(row);
        }
        println!("\n{}", table.render());
    }
    println!("(Errors should shrink with m for all methods; LDPJoinSketch's error should be flat or slightly rising in k.)");
}
