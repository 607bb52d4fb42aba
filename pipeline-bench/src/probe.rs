//! The reference probe: a yardstick for how fast the host runs right now.
//!
//! A shared virtual machine does not run at one speed. The 2-vCPU host this benchmark was
//! built on switches between states up to 2× apart (steal time, and slower execution while
//! neighbours contend for caches and memory bandwidth) that last from seconds to minutes, so
//! whole runs land in one state or another and wall-clock metrics of the same code spread
//! by tens of percent between runs. The harness therefore times a fixed computation of its
//! own — the probe, which shares no code with the library — before each loop unit (at most
//! every [`PROBE_EVERY_NS`]) and before each set-up, and divides every timing sample by the
//! latest probe time. The result is the sample in *probe units*: how many probe runs the
//! host could have done in the same time. Host slowdowns stretch both, while a change to
//! the library moves only the sample. Code that slows more than the probe leaves a residual
//! (see the README). Wall-clock values are reported beside it.

use crate::trace::{now, ns};
use std::time::Instant;

/// The probe's time on a quiet reference host (2-vCPU Xeon virtual machine, AVX-512): the
/// factor that turns a duration in probe units back into reference seconds.
pub const NOMINAL_PROBE_S: f64 = 1e-3;

/// Longest gap between two probes.
pub const PROBE_EVERY_NS: u64 = 100_000_000;

/// Slots of the probe's scatter table: 1 MiB of `u32`, larger than a core's L2.
const SLOTS: usize = 1 << 18;

/// Steps of the arithmetic part (about a third of the probe's time).
const ARITH_STEPS: usize = 100_000;

/// Steps of the scatter part (about two thirds).
const SCATTER_STEPS: usize = 200_000;

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

/// The probe and its latest time.
#[derive(Debug)]
pub struct Probe {
    table: Vec<u32>,
    last_run: Option<Instant>,
    latest_ns: f64,
    times_ns: Vec<f64>,
}

impl Default for Probe {
    fn default() -> Self {
        Probe {
            table: vec![0; SLOTS],
            last_run: None,
            latest_ns: 0.0,
            times_ns: Vec::new(),
        }
    }
}

impl Probe {
    /// Run the probe if [`PROBE_EVERY_NS`] has passed since its last run (or it never ran),
    /// and return the latest probe time in ns. Call it between timed calls, never inside one.
    pub fn tick(&mut self) -> f64 {
        let due = self
            .last_run
            .is_none_or(|t| ns(now().duration_since(t)) >= PROBE_EVERY_NS);
        if due {
            self.measure();
        }
        self.latest_ns
    }

    /// Run the probe now and return its time in ns.
    pub fn measure(&mut self) -> f64 {
        self.latest_ns = self.run() as f64;
        self.times_ns.push(self.latest_ns);
        self.last_run = Some(now());
        self.latest_ns
    }

    /// Every probe time measured, in ns.
    pub fn times_ns(&self) -> &[f64] {
        &self.times_ns
    }

    /// The probe: a serial arithmetic chain, then xorshift draws scattered over the table —
    /// the two kinds of work the library's hot paths mix (hashing and transforms; counter
    /// and histogram updates). The host's slow states hit them differently: random memory
    /// traffic slows by up to 2×, register arithmetic far less. Returns the wall time in ns.
    fn run(&mut self) -> u64 {
        let t0 = now();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut acc = 0.0f64;
        for _ in 0..ARITH_STEPS {
            x = xorshift(x);
            acc = acc * 0.999_999 + (x >> 40) as f64;
        }
        for _ in 0..SCATTER_STEPS {
            x = xorshift(x);
            let slot = &mut self.table[(x as usize) & (SLOTS - 1)];
            *slot = slot.wrapping_add(1);
        }
        std::hint::black_box(acc);
        ns(now().duration_since(t0))
    }
}

/// Timing samples of one kind, each kept in ns and in probe units.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    /// Wall-clock durations in ns.
    pub ns: Vec<f64>,
    /// The same durations divided by the probe time current when each was taken.
    pub probes: Vec<f64>,
}

impl Samples {
    /// Record a duration of `ns` taken while the latest probe time was `probe_ns`.
    pub fn push(&mut self, ns: f64, probe_ns: f64) {
        self.ns.push(ns);
        self.probes.push(ns / probe_ns.max(1.0));
    }

    /// Samples recorded.
    pub fn len(&self) -> usize {
        self.ns.len()
    }

    /// Whether none were recorded.
    pub fn is_empty(&self) -> bool {
        self.ns.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_fresh_probe_is_reused_and_samples_divide_by_it() {
        let mut probe = Probe::default();
        let first = probe.tick();
        assert!(first > 0.0);
        assert_eq!(
            probe.tick(),
            first,
            "a probe younger than PROBE_EVERY_NS is reused"
        );
        assert_eq!(probe.times_ns(), &[first]);

        let mut s = Samples::default();
        s.push(500.0, 1000.0);
        s.push(3000.0, 1500.0);
        assert_eq!(s.ns, vec![500.0, 3000.0]);
        assert_eq!(s.probes, vec![0.5, 2.0]);
    }
}
