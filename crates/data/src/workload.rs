//! The paper's dataset inventory (Table II) as a single enum, with a global scale factor.
//!
//! The original evaluation uses 40M-row synthetic tables and up to 67M-row real datasets on a
//! 256 GB machine. The estimators' *relative* behaviour (which method wins, how errors move
//! with ε, m, k, α) is preserved at much smaller row counts, so every experiment binary takes
//! a `--scale` factor applied to the paper's row counts, defaulting to a laptop-friendly
//! value.

use crate::gaussian::GaussianGenerator;
use crate::realworld::{RealWorldGenerator, RealWorldKind};
use crate::table::{ChainWorkload, JoinWorkload};
use crate::zipf::ZipfGenerator;
use crate::ValueGenerator;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Metadata describing one dataset row of Table II.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetInfo {
    /// Dataset name as used in the paper's figures.
    pub name: String,
    /// Join-attribute domain size.
    pub domain: u64,
    /// Row count reported in Table II.
    pub paper_rows: u64,
    /// Skew parameter of the (stand-in) generator, if meaningful.
    pub skew: Option<f64>,
}

/// One of the paper's evaluation datasets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PaperDataset {
    /// Synthetic Zipf(α) data; the paper sweeps α ∈ {1.1, …, 2.0}.
    Zipf {
        /// Skewness parameter α.
        alpha: f64,
    },
    /// Synthetic Gaussian data (domain 75,949).
    Gaussian,
    /// MovieLens stand-in (domain 83,239).
    MovieLens,
    /// TPC-DS store_sales stand-in (domain 18,000).
    TpcDs,
    /// Twitter ego-network stand-in (domain 77,072).
    Twitter,
    /// Facebook ego-network stand-in (domain 4,039).
    Facebook,
}

impl PaperDataset {
    /// Domain used for the synthetic Zipf datasets. The paper's distinct-value counts range
    /// from 4,377 (α = 2.0) to 2,816,390 (α = 1.1) over 40M draws; a fixed 100k-value domain
    /// reproduces the same "large domain, heavy head" regime at laptop scale.
    pub const ZIPF_DOMAIN: u64 = 100_000;
    /// Row count of the synthetic datasets in the paper.
    pub const SYNTHETIC_ROWS: u64 = 40_000_000;

    /// The six datasets of Fig. 5, in the order they appear there (Zipf α=1.1 first).
    pub fn figure5_suite() -> Vec<PaperDataset> {
        vec![
            PaperDataset::Zipf { alpha: 1.1 },
            PaperDataset::Gaussian,
            PaperDataset::MovieLens,
            PaperDataset::TpcDs,
            PaperDataset::Twitter,
            PaperDataset::Facebook,
        ]
    }

    /// Table II metadata for this dataset.
    pub fn info(&self) -> DatasetInfo {
        match *self {
            PaperDataset::Zipf { alpha } => DatasetInfo {
                name: format!("Zipf(α={alpha})"),
                domain: Self::ZIPF_DOMAIN,
                paper_rows: Self::SYNTHETIC_ROWS,
                skew: Some(alpha),
            },
            PaperDataset::Gaussian => DatasetInfo {
                name: "Gaussian".into(),
                domain: 75_949,
                paper_rows: Self::SYNTHETIC_ROWS,
                skew: None,
            },
            PaperDataset::MovieLens => real_info(RealWorldKind::MovieLens),
            PaperDataset::TpcDs => real_info(RealWorldKind::TpcDs),
            PaperDataset::Twitter => real_info(RealWorldKind::Twitter),
            PaperDataset::Facebook => real_info(RealWorldKind::Facebook),
        }
    }

    /// Build the value generator for this dataset.
    pub fn generator(&self) -> Box<dyn ValueGenerator> {
        match *self {
            PaperDataset::Zipf { alpha } => Box::new(ZipfGenerator::new(alpha, Self::ZIPF_DOMAIN)),
            PaperDataset::Gaussian => Box::new(GaussianGenerator::centered(75_949)),
            PaperDataset::MovieLens => Box::new(RealWorldGenerator::new(RealWorldKind::MovieLens)),
            PaperDataset::TpcDs => Box::new(RealWorldGenerator::new(RealWorldKind::TpcDs)),
            PaperDataset::Twitter => Box::new(RealWorldGenerator::new(RealWorldKind::Twitter)),
            PaperDataset::Facebook => Box::new(RealWorldGenerator::new(RealWorldKind::Facebook)),
        }
    }

    /// Rows per table at a given scale factor (clamped below so even tiny scales keep the
    /// protocols runnable).
    pub fn rows_at_scale(&self, scale: f64) -> usize {
        let rows = (self.info().paper_rows as f64 * scale).round() as usize;
        rows.clamp(2_000, 20_000_000)
    }

    /// Generate the two-table join workload at `scale`, reproducibly from `seed`.
    pub fn generate_join(&self, scale: f64, seed: u64) -> JoinWorkload {
        let info = self.info();
        let generator = self.generator();
        let mut rng = StdRng::seed_from_u64(seed);
        JoinWorkload::generate(
            info.name,
            generator.as_ref(),
            self.rows_at_scale(scale),
            &mut rng,
        )
    }

    /// Generate a multi-way chain workload at `scale` (used by Fig. 15; the paper uses the
    /// Zipf(α=1.5) dataset there).
    pub fn generate_chain(&self, scale: f64, seed: u64) -> ChainWorkload {
        let info = self.info();
        let generator = self.generator();
        let mut rng = StdRng::seed_from_u64(seed);
        ChainWorkload::generate(
            info.name,
            generator.as_ref(),
            self.rows_at_scale(scale),
            &mut rng,
        )
    }
}

fn real_info(kind: RealWorldKind) -> DatasetInfo {
    DatasetInfo {
        name: kind.name().into(),
        domain: kind.paper_domain(),
        paper_rows: kind.paper_rows(),
        skew: Some(kind.skew()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure5_suite_matches_paper_order() {
        let suite = PaperDataset::figure5_suite();
        assert_eq!(suite.len(), 6);
        assert_eq!(suite[0], PaperDataset::Zipf { alpha: 1.1 });
        assert_eq!(suite[5], PaperDataset::Facebook);
    }

    #[test]
    fn info_matches_table_2_domains() {
        assert_eq!(PaperDataset::Gaussian.info().domain, 75_949);
        assert_eq!(PaperDataset::MovieLens.info().domain, 83_239);
        assert_eq!(PaperDataset::TpcDs.info().domain, 18_000);
        assert_eq!(PaperDataset::Twitter.info().domain, 77_072);
        assert_eq!(PaperDataset::Facebook.info().domain, 4_039);
        assert_eq!(PaperDataset::MovieLens.info().paper_rows, 67_664_324);
        assert_eq!(PaperDataset::Zipf { alpha: 1.5 }.info().name, "Zipf(α=1.5)");
    }

    #[test]
    fn rows_at_scale_are_clamped() {
        let d = PaperDataset::Facebook;
        assert_eq!(d.rows_at_scale(1e-9), 2_000);
        assert_eq!(d.rows_at_scale(1.0), 352_936);
        let z = PaperDataset::Zipf { alpha: 1.1 };
        assert_eq!(z.rows_at_scale(0.001), 40_000);
    }

    #[test]
    fn generated_workloads_are_reproducible() {
        let d = PaperDataset::TpcDs;
        let w1 = d.generate_join(0.001, 42);
        let w2 = d.generate_join(0.001, 42);
        assert_eq!(w1.table_a, w2.table_a);
        assert_eq!(w1.table_b, w2.table_b);
        assert_eq!(w1.true_join_size, w2.true_join_size);
        let w3 = d.generate_join(0.001, 43);
        assert_ne!(w1.table_a, w3.table_a);
    }

    #[test]
    fn generated_chain_workload_has_positive_truth() {
        let d = PaperDataset::Zipf { alpha: 1.5 };
        let w = d.generate_chain(0.0002, 7);
        assert!(w.true_join_3 > 0);
        assert!(w.true_join_4 > 0);
        assert_eq!(w.domain_size, PaperDataset::ZIPF_DOMAIN);
    }
}
