//! Fig. 15: multi-way chain joins, varying ε.
//!
//! Paper setting: Zipf(α = 1.5), 3-way (`T1(A) ⋈ T2(A,B) ⋈ T3(B)`) and 4-way chain queries,
//! COMPASS as the non-private reference and LDPJoinSketch extended as in Section VI. Expected
//! shape: the LDP estimate's RE falls as ε grows and flattens once the sketch sampling error
//! dominates, staying within a modest factor of COMPASS.
//!
//! Like the paper (which drops the frequency-oracle baselines from the 4-way case because of
//! their cost), this binary compares COMPASS and LDPJoinSketch only; the frequency-oracle
//! baselines would need a joint 2-dimensional frequency oracle whose domain is |D|², which is
//! exactly the blow-up the sketch approach avoids.
//!
//! The sketches use (k, m) = (9, 256) per attribute by default — the two-dimensional sketches
//! are m×m per replica, so the paper's m = 1024 is costly at laptop scale; pass `--sweep paper`
//! to use (18, 1024).

use std::sync::Arc;

use ldpjs_common::hash::RowHashes;
use ldpjs_common::stats::median;
use ldpjs_core::multiway::build_edge_sketch;
use ldpjs_core::protocol::build_private_sketch;
use ldpjs_core::{ChainKernel, Epsilon, SketchParams};
use ldpjs_data::PaperDataset;
use ldpjs_experiments::ExpArgs;
use ldpjs_metrics::error::relative_error;
use ldpjs_metrics::report::{csv_line, sci, Table};
use ldpjs_sketch::compass::{estimate_chain_3, estimate_chain_4, CompassEdgeSketch};
use ldpjs_sketch::FastAgmsSketch;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let args = ExpArgs::parse();
    let (replicas, buckets) = if args.sweep.as_deref() == Some("paper") {
        (18, 1024)
    } else {
        (9, 256)
    };
    let workload = PaperDataset::Zipf { alpha: 1.5 }.generate_chain(args.scale, args.seed);
    let eps_grid: Vec<f64> = if args.quick {
        vec![0.1, 1.0, 4.0, 10.0]
    } else {
        vec![0.1, 1.0, 2.0, 4.0, 6.0, 8.0, 10.0]
    };

    // Shared public hash families, one seed per join attribute: edge sketches take the
    // family, vertex sketches derive it from the seed.
    let params = SketchParams::new(replicas, buckets).expect("valid sketch shape");
    let (seed_a, seed_b, seed_c) = (args.seed ^ 0xA, args.seed ^ 0xB, args.seed ^ 0xC);
    let family = |seed| Arc::new(RowHashes::from_seed(seed, params));
    let (attr_a, attr_b, attr_c) = (family(seed_a), family(seed_b), family(seed_c));

    // --- Non-private COMPASS reference (independent of ε). ---------------------------------
    let t3_b = workload.t3_b_column();
    let fagms = |seed, values: &[u64]| {
        let mut sketch = FastAgmsSketch::new(params, seed);
        sketch.update_all(values);
        sketch
    };
    let compass = |attr_a: &Arc<RowHashes>, attr_b: &Arc<RowHashes>, tuples: &[(u64, u64)]| {
        let mut sketch =
            CompassEdgeSketch::new(Arc::clone(attr_a), Arc::clone(attr_b)).expect("edge sketch");
        sketch.update_all(tuples);
        sketch
    };
    let c1 = fagms(seed_a, &workload.t1);
    let c2 = compass(&attr_a, &attr_b, &workload.t2);
    let compass_3 = estimate_chain_3(&c1, &c2, &fagms(seed_b, &t3_b)).expect("compass 3-way");
    let c3e = compass(&attr_b, &attr_c, &workload.t3);
    let c4 = fagms(seed_c, &workload.t4);
    let compass_4 = estimate_chain_4(&c1, &c2, &c3e, &c4).expect("compass 4-way");

    let truth_3 = workload.true_join_3 as f64;
    let truth_4 = workload.true_join_4 as f64;
    let compass_re_3 = relative_error(truth_3, compass_3);
    let compass_re_4 = relative_error(truth_4, compass_4);

    let mut table = Table::new(
        format!("Fig. 15 — multi-way chain join RE vs ε (Zipf α=1.5, k={replicas}, m={buckets})"),
        &[
            "eps",
            "Compass(3-way)",
            "LDPJoinSketch(3-way)",
            "Compass(4-way)",
            "LDPJoinSketch(4-way)",
        ],
    );

    for &eps_val in &eps_grid {
        let eps = Epsilon::new(eps_val).expect("valid epsilon");
        let trials = args.effective_trials();
        let mut re3 = Vec::with_capacity(trials);
        let mut re4 = Vec::with_capacity(trials);
        for t in 0..trials {
            let mut rng = StdRng::seed_from_u64(args.seed.wrapping_add(1 + t as u64));
            let vertex = |values: &[u64], seed, rng: &mut StdRng| {
                build_private_sketch(values, params, eps, seed, rng).expect("vertex sketch")
            };
            let s1 = vertex(&workload.t1, seed_a, &mut rng);
            let s2 = build_edge_sketch(&workload.t2, &attr_a, &attr_b, eps, &mut rng)
                .expect("T2 sketch");
            let s3v = vertex(&t3_b, seed_b, &mut rng);
            let est3 = ChainKernel.chain_3(&s1, &s2, &s3v).expect("3-way estimate");
            re3.push(relative_error(truth_3, est3));

            let s3e = build_edge_sketch(&workload.t3, &attr_b, &attr_c, eps, &mut rng)
                .expect("T3 sketch");
            let s4 = vertex(&workload.t4, seed_c, &mut rng);
            let est4 = ChainKernel
                .chain_4(&s1, &s2, &s3e, &s4)
                .expect("4-way estimate");
            re4.push(relative_error(truth_4, est4));
        }
        let ldp_re_3 = median(&re3).unwrap_or(f64::NAN);
        let ldp_re_4 = median(&re4).unwrap_or(f64::NAN);
        table.add_row(vec![
            format!("{eps_val}"),
            sci(compass_re_3),
            sci(ldp_re_3),
            sci(compass_re_4),
            sci(ldp_re_4),
        ]);
        println!(
            "{}",
            csv_line(
                "fig15",
                &[
                    format!("{eps_val}"),
                    format!("{compass_re_3:.6e}"),
                    format!("{ldp_re_3:.6e}"),
                    format!("{compass_re_4:.6e}"),
                    format!("{ldp_re_4:.6e}"),
                ]
            )
        );
    }
    println!("\n{}", table.render());
    println!("(LDP RE should fall with ε and approach the COMPASS reference.)");
}
