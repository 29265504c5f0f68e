//! Host-speed calibration.
//!
//! A shared virtual host changes speed by more than the benchmark's bounds
//! over minutes: on the 2-vCPU measuring host the same 30-s run read
//! paper-saturated's `epoch_p50_ms` anywhere from 0.21 to 0.37 ms within
//! half an hour, in stretches longer than a run, so no choice of rounds
//! inside one run can remove it. A fixed kernel timed around every pass
//! slowed down with the program (its time ranged 1.36–2.34 ms over the
//! same half hour), so the benchmark reports its timings at a fixed
//! reference speed: each wall time is scaled by [`REFERENCE`] over the
//! kernel's median time in the same rounds. The kernel is the benchmark's
//! own code and calls nothing in the program, so a change to the program
//! moves the scaled figures exactly as it moves the wall times.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Kernel time that defines the reference speed: a round figure inside
/// the 1.1–2.6 ms the kernel took on the measuring host.
pub const REFERENCE: Duration = Duration::from_micros(1_400);

/// Table words: 1 MiB, so the kernel's accesses stay in a core's L2.
const TABLE_WORDS: usize = 1 << 17;
/// Kernel iterations: about 1.4 ms at the reference speed.
const ITERATIONS: u32 = 200_000;

/// The calibration kernel and its table, allocated and touched once.
pub struct Calibrator {
    table: Vec<u64>,
}

impl Calibrator {
    pub fn new() -> Self {
        Self {
            table: (0..TABLE_WORDS as u64).collect(),
        }
    }

    /// Times one run of the kernel: a splitmix64 stream that updates
    /// random table words and takes an unpredictable branch into
    /// floating-point work, so integer, load and branch throughput all
    /// count, as they do in an epoch.
    pub fn time(&mut self) -> Duration {
        let table = &mut self.table;
        // Bring the table back into cache first, so the timing is of the
        // core's speed, not of how much the pass before it evicted.
        table.iter_mut().for_each(|w| *w = w.rotate_left(1));
        black_box(&mut *table);
        let mut x = black_box(0x9e37_79b9_7f4a_7c15u64);
        let mut acc = 0.0f64;
        let started = Instant::now();
        for _ in 0..ITERATIONS {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            let i = (z as usize) & (TABLE_WORDS - 1);
            table[i] = table[i].wrapping_add(z);
            if z & 1 == 0 {
                acc += ((z >> 11) as f64).sqrt();
            } else {
                acc -= (table[i ^ 1] >> 20) as f64 / 3.0;
            }
        }
        let elapsed = started.elapsed();
        black_box((acc, &table));
        elapsed
    }
}

/// The factor that turns wall times measured while the kernel took
/// `kernel` (a median of its timings) into times at the reference speed.
pub fn scale(kernel: f64) -> f64 {
    if kernel > 0.0 {
        REFERENCE.as_secs_f64() / kernel
    } else {
        1.0
    }
}
