//! A fixed unit of host work that belongs to the benchmark, so that no
//! change to the simulator can move it: gradient-orientation histograms
//! over a synthetic 512×384 frame, a few milliseconds of the same kind of
//! work as a detector scan. Timing it next to every job shows how fast
//! the host is running at that moment.

use std::f32::consts::PI;
use std::hint::black_box;
use std::time::Instant;

const W: usize = 512;
const H: usize = 384;
const BINS: usize = 9;

fn unit() {
    let frame: Vec<f32> = (0..W * H)
        .map(|i| ((i as u32).wrapping_mul(2_654_435_761) >> 24) as f32 / 255.0)
        .collect();
    let mut hist = vec![0f32; (W / 8) * (H / 8) * BINS];
    for y in 1..H - 1 {
        for x in 1..W - 1 {
            let gx = frame[y * W + x + 1] - frame[y * W + x - 1];
            let gy = frame[(y + 1) * W + x] - frame[(y - 1) * W + x];
            let bin = ((gy.atan2(gx) + PI) * (BINS as f32 / (2.0 * PI))) as usize % BINS;
            hist[((y / 8) * (W / 8) + x / 8) * BINS + bin] += (gx * gx + gy * gy).sqrt();
        }
    }
    black_box(hist);
}

/// Seconds one unit takes now on each of `threads` threads running side
/// by side, timed over `units` back-to-back units per thread. A job on
/// two workers is compared with two threads of units, so both feel the
/// same share of the host.
pub fn seconds_per_unit(units: usize, threads: usize) -> f64 {
    let run = || (0..units).for_each(|_| unit());
    let started = Instant::now();
    std::thread::scope(|s| {
        for _ in 1..threads {
            s.spawn(run);
        }
        run();
    });
    started.elapsed().as_secs_f64() / units as f64
}

/// Units per timing for jobs of about `job_s` seconds: a fifth of a job,
/// and at least 16 units, so that a timing averages the host's
/// millisecond-scale stalls about as well as the job does.
pub fn units_for(job_s: f64) -> usize {
    ((0.2 * job_s / seconds_per_unit(2, 1)).ceil() as usize).clamp(16, 128)
}
