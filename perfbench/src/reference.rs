//! The host-speed reference: a fixed piece of ordinary Rust work, timed
//! after every 100 ms of untraced driving, that lets the end-to-end times
//! factor out how fast the shared host happens to be.
//!
//! The development host's speed drifts by up to 2× over seconds to
//! minutes, and the simulator slows with it. A pure-ALU loop or a memory
//! kernel tracks that drift only partly; heap allocation, `HashMap`
//! updates and short-lived vectors, the mix this kernel runs, track it
//! closely. The kernel is benchmark code, so a change to the simulator
//! never changes it.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// The kernel's nominal time, in nanoseconds: a round figure of the order
/// of its time between simulation segments on the development host (a
/// 2-vCPU Intel Xeon VM, rustc 1.95, release build). It only sets the
/// scale of the normalised times, which read as seconds on a host where
/// the kernel takes exactly this long.
pub const NOMINAL_NS: f64 = 5.0e6;

/// xorshift64.
fn next(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// One pass of the kernel: boxed allocations kept and freed at random,
/// `HashMap` counting over 5000 keys, and short vectors built and dropped.
/// Returns a digest of the work, which is the same on every call.
pub fn kernel() -> u64 {
    let mut s = 0x2545_F491_4F6C_DD1D_u64;
    let mut acc = 0u64;
    let mut kept: Vec<Box<[u64; 4]>> = Vec::with_capacity(513);
    for i in 0..50_000u64 {
        let b = black_box(Box::new([i; 4]));
        acc = acc.wrapping_add(b[1]);
        if next(&mut s).is_multiple_of(3) {
            kept.push(b);
            if kept.len() > 512 {
                let at = (next(&mut s) % 512) as usize;
                kept.swap_remove(at);
            }
        }
    }
    let mut counts: HashMap<u64, u64> = HashMap::new();
    for _ in 0..40_000 {
        let k = next(&mut s) % 5000;
        *counts.entry(k).or_insert(0) += 1;
        acc = acc.wrapping_add(counts.get(&(k ^ 1)).copied().unwrap_or(0));
    }
    for i in 0..75_000u64 {
        let mut v: Vec<u64> = black_box(Vec::new());
        for j in 0..(i % 8) {
            v.push(j);
        }
        acc = acc.wrapping_add(v.iter().sum::<u64>());
    }
    acc ^ kept.len() as u64 ^ counts.len() as u64
}

/// Kernel timings collected over a run.
#[derive(Debug, Default)]
pub struct HostProbe {
    samples: Vec<f64>,
}

impl HostProbe {
    /// Time one pass of the kernel.
    pub fn sample(&mut self) {
        let t = Instant::now();
        black_box(kernel());
        self.samples.push(crate::cells::nanos(t.elapsed()) as f64);
    }

    /// Number of passes timed so far.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// How much slower than nominal the host ran on average: the mean
    /// kernel time over `NOMINAL_NS`. The kernel runs after every
    /// [`PROBE_EVERY`](crate::cells::PROBE_EVERY) of driving, so this is a time average over the run's
    /// drive time, which divided by it reads as seconds at nominal speed.
    pub fn slowdown(&self) -> f64 {
        self.samples.iter().sum::<f64>() / self.samples.len() as f64 / NOMINAL_NS
    }

    /// How much slower than nominal the host typically ran: the median
    /// kernel time over `NOMINAL_NS`. It scales short samples, such as the
    /// median of many world builds.
    pub fn median_slowdown(&self) -> f64 {
        let mut v = self.samples.clone();
        crate::median(&mut v) / NOMINAL_NS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_does_the_same_work_every_time() {
        assert_eq!(kernel(), kernel());
    }

    #[test]
    fn slowdowns_are_the_mean_and_median_sample_over_nominal() {
        let p = HostProbe {
            samples: vec![NOMINAL_NS * 6.0, NOMINAL_NS, NOMINAL_NS * 2.0],
        };
        assert_eq!(p.len(), 3);
        assert!((p.slowdown() - 3.0).abs() < 1e-12);
        assert!((p.median_slowdown() - 2.0).abs() < 1e-12);
    }
}
