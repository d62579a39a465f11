//! Host-speed calibration: a fixed kernel, timed before every step, that
//! scales a run's times to one reference host speed.
//!
//! On a shared host the speed of all work drifts by a quarter or more over
//! minutes, in both directions, and a run lasts well under one such drift.
//! The kernel is this package's own code, so a change to the simulator does
//! not move it: the fastest kernel time of a run measures the host alone. A
//! run's times are multiplied by [`REFERENCE_NS`] over that fastest time.
//! The fastest step and the fastest kernel are each the least disturbed of
//! many, so their ratio leaves out both the short bursts of interference and
//! the slow drift (README.md has the measurements).
//!
//! The kernel is a small set-associative cache model, the kind of work the
//! simulator's memory model does: tag compares, branches and table updates
//! over a working set larger than the L1 cache. Host slowdowns move it
//! nearly in proportion with the simulator, while a serial chain of integer
//! steps moves about half as much.

use std::hint::black_box;
use std::time::Instant;

/// Sets and ways of the modelled cache: 8192 x 8 tags, 512 KiB of state.
const SETS: usize = 8192;
const WAYS: usize = 8;
/// Modelled accesses per sample: about 10 ms on the reference host.
const ACCESSES: u32 = 1_000_000;

/// The kernel's fastest time on the reference host, a 2-core Xeon (family 6,
/// model 207) VM, over a quiet spell. Only the ratio to it matters; it keeps
/// the scaled times near what that host shows at its fastest.
pub const REFERENCE_NS: f64 = 10_000_000.0;

/// The kernel's state, allocated once so that no sample pays page faults.
pub struct Kernel {
    tags: Vec<u64>,
    stamps: Vec<u32>,
}

impl Kernel {
    pub fn new() -> Self {
        Self {
            tags: vec![u64::MAX; SETS * WAYS],
            stamps: vec![0; SETS * WAYS],
        }
    }

    /// Runs the kernel once from an empty cache; its wall time in nanoseconds.
    pub fn sample_ns(&mut self) -> f64 {
        self.tags.fill(u64::MAX);
        self.stamps.fill(0);
        let start = Instant::now();
        black_box(self.run(black_box(ACCESSES)));
        start.elapsed().as_nanos() as f64
    }

    /// Models `accesses` cache lookups of a stream of 64-byte lines that runs
    /// forward and jumps at random over 64 MiB one time in sixteen, with LRU
    /// replacement; returns the hits.
    fn run(&mut self, accesses: u32) -> u32 {
        let mut x = 0x9e37_79b9_7f4a_7c15_u64;
        let mut addr = 0_u64;
        let mut hits = 0;
        for now in 1..=accesses {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            addr = if x & 15 == 0 {
                (x >> 8) & ((64 << 20) - 1)
            } else {
                addr + 64 * (1 + (x >> 60))
            };
            let line = addr >> 6;
            let set = (line as usize % SETS) * WAYS;
            let tag = line / SETS as u64;
            let ways = set..set + WAYS;
            if let Some(w) = ways.clone().find(|&w| self.tags[w] == tag) {
                self.stamps[w] = now;
                hits += 1;
            } else {
                let victim = ways.min_by_key(|&w| self.stamps[w]).unwrap_or(set);
                self.tags[victim] = tag;
                self.stamps[victim] = now;
            }
        }
        hits
    }
}

/// The factor that scales a run's times to the reference host speed, from
/// the run's kernel samples.
///
/// # Panics
/// Panics on an empty sample.
pub fn factor(samples_ns: &[f64]) -> f64 {
    let fastest = samples_ns.iter().copied().fold(f64::INFINITY, f64::min);
    assert!(fastest.is_finite(), "no calibration samples");
    REFERENCE_NS / fastest
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_fastest_sample_sets_the_factor() {
        // A slow host: every sample above the reference scales times down.
        assert_eq!(factor(&[REFERENCE_NS * 2.0, REFERENCE_NS * 1.25]), 0.8);
        // A faster host scales them up.
        assert_eq!(factor(&[REFERENCE_NS * 4.0, REFERENCE_NS / 2.0]), 2.0);
    }

    #[test]
    fn the_kernel_does_the_same_work_every_sample() {
        let mut fresh = Kernel::new();
        let hits = fresh.run(ACCESSES);
        assert!(hits < ACCESSES, "{hits}");
        // Every sample starts from an empty cache and ends where a first
        // run from a fresh one does.
        let mut k = Kernel::new();
        for _ in 0..2 {
            assert!(k.sample_ns() > 0.0);
            assert!(k.tags == fresh.tags && k.stamps == fresh.stamps);
        }
    }
}
