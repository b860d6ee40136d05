//! Host-speed calibration.
//!
//! Shared cloud hosts change speed by a third or more for a minute at a
//! time, which moves every pass of a run together and swamps the
//! run-to-run comparison the benchmark exists for. A fixed kernel that no
//! change to the program can touch is timed inside every pass, between
//! set-up and replay; the pass's host times are scaled by [`REFERENCE_S`]
//! over the kernel's time there. The reported times are therefore seconds on a host where
//! the kernel takes [`REFERENCE_S`], and a change in them is a change in
//! the program, not in the host.

use std::hint::black_box;
use std::time::Instant;

/// Kernel time that defines the reference host (s).
pub const REFERENCE_S: f64 = 0.02;

/// Entries of the kernel's table: 4 MB, past the private caches, so the
/// kernel feels the shared-cache and memory contention the simulator's
/// working set does.
const TABLE: usize = 1 << 19;

/// Updates the kernel makes per measurement.
const STEPS: u64 = 2_000_000;

/// The calibration kernel and its table.
#[derive(Debug)]
pub struct Calibration {
    table: Vec<u64>,
}

impl Default for Calibration {
    fn default() -> Self {
        Self::new()
    }
}

impl Calibration {
    /// A kernel with its table allocated and touched.
    #[must_use]
    pub fn new() -> Self {
        Self {
            table: vec![1; TABLE],
        }
    }

    /// Runs the kernel once and returns its host seconds: a dependent
    /// chain of xorshift steps, each a read-modify-write at a pseudo-random
    /// table slot plus a square root, so it mixes integer work, cache traffic
    /// and floating point the way the simulator does.
    pub fn measure(&mut self) -> f64 {
        let started = Instant::now();
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut acc = 0.0f64;
        for i in 0..STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let j = (x % TABLE as u64) as usize;
            self.table[j] = self.table[j].wrapping_add(i);
            acc += (self.table[(j * 7) % TABLE] as f64).sqrt();
        }
        black_box(acc);
        started.elapsed().as_secs_f64()
    }
}
