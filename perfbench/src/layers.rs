//! Standalone timings of single layers, driven by inputs generated from a
//! workload's config and seed. Each is the median over a few batches of
//! the mean cost of one operation.

use crate::cells::nanos;
use bpp_broadcast::{
    assignment::identity_ranking, hot_access_sets, Assignment, BroadcastProgram, DiskSpec,
    MultiChannelProgram, PageId, Slot,
};
use bpp_cache::{ReplacementPolicy, StaticScoreCache};
use bpp_core::{analytic, Algorithm, SystemConfig};
use bpp_server::{BandwidthMux, RequestQueue, SlotDecision};
use bpp_sim::{Engine, Model, Rng, Scheduler, Time, Xoshiro256pp};
use bpp_workload::{AccessPattern, Zipf};
use std::hint::black_box;
use std::time::Instant;

/// Batches per timing; the reported value is their median.
const BATCHES: usize = 5;

/// Median per-operation nanoseconds of `BATCHES` runs of `batch`, which
/// performs `ops` operations per call.
fn per_op_ns(ops: u64, mut batch: impl FnMut()) -> f64 {
    let mut v: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            batch();
            nanos(t.elapsed()) as f64 / ops as f64
        })
        .collect();
    crate::median(&mut v)
}

/// A hold model: every event reschedules itself after the next of a fixed
/// ring of delays, so the pending depth stays constant and each step is
/// exactly one pop plus one schedule.
struct Hold {
    delays: Vec<f64>,
    next: usize,
}

impl Model for Hold {
    type Event = u32;

    fn handle(&mut self, _now: Time, event: u32, sched: &mut Scheduler<u32>) {
        let d = self.delays[self.next];
        self.next = (self.next + 1) % self.delays.len();
        sched.schedule_in(d, event);
    }
}

fn exp_draws(rng: &mut Xoshiro256pp, mean: f64, n: usize) -> Vec<f64> {
    (0..n)
        .map(|_| {
            let u: f64 = rng.random();
            -mean * (1.0 - u).ln()
        })
        .collect()
}

/// Timer-wheel schedule plus pop at a pending depth of `depth` events,
/// with exponential delays whose mean keeps about one event per unit time.
pub fn sched_op_ns(depth: usize, seed: u64) -> f64 {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let mean = depth as f64;
    let mut engine = Engine::new(Hold {
        delays: exp_draws(&mut rng, mean, 1 << 16),
        next: 0,
    });
    for (i, at) in exp_draws(&mut rng, mean, depth).into_iter().enumerate() {
        engine.scheduler().schedule_at(at, i as u32);
    }
    // One pass over the pending set first, so every batch sees the wheel
    // in its stationary state.
    for _ in 0..depth.max(1 << 16) {
        engine.step();
    }
    let steps: u64 = 400_000;
    per_op_ns(steps, || {
        for _ in 0..steps {
            black_box(engine.step());
        }
    })
}

/// One Zipf access draw from the population pattern (alias sampling).
pub fn sample_ns(cfg: &SystemConfig, seed: u64) -> f64 {
    let pattern = AccessPattern::population(&Zipf::new(cfg.db_size, cfg.zipf_theta));
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let draws: u64 = 400_000;
    per_op_ns(draws, || {
        let mut acc = 0usize;
        for _ in 0..draws {
            acc = acc.wrapping_add(pattern.sample(&mut rng));
        }
        black_box(acc);
    })
}

/// The broadcast the server builds for `cfg`: the single-channel program,
/// plus the K-channel placement when `num_channels > 1`.
pub struct Broadcast {
    /// The single-channel program.
    pub program: BroadcastProgram,
    /// The K-channel placement, when configured.
    pub channels: Option<MultiChannelProgram>,
}

/// Build the broadcast for `cfg` as the world does for a broadcasting
/// (not Pure-Pull) algorithm: the program from `analytic::build_program`,
/// and the K-channel placement of its hot access sets over the same
/// ranked, offset disk assignment.
pub fn generate(cfg: &SystemConfig) -> Broadcast {
    assert_ne!(
        cfg.algorithm,
        Algorithm::PurePull,
        "Pure-Pull broadcasts nothing"
    );
    let program = analytic::build_program(cfg);
    let channels = (cfg.num_channels > 1).then(|| {
        let ranking = identity_ranking(cfg.db_size);
        let spec = DiskSpec::new(cfg.disk_sizes.clone(), cfg.rel_freqs.clone());
        let mut assignment = if cfg.offset {
            Assignment::with_offset(&ranking, &spec, cfg.cache_size)
        } else {
            Assignment::from_ranking(&ranking, &spec)
        };
        assignment.chop(cfg.chop);
        let zipf = Zipf::new(cfg.db_size, cfg.zipf_theta);
        let cached = analytic::ideal_cache(cfg, &program);
        let sets = hot_access_sets(&program, zipf.probs(), &cached);
        MultiChannelProgram::generate(&assignment, cfg.db_size, cfg.num_channels, &sets)
    });
    Broadcast { program, channels }
}

/// Seconds to generate the broadcast (median of a few builds).
pub fn generate_s(cfg: &SystemConfig) -> f64 {
    per_op_ns(1, || {
        black_box(generate(cfg));
    }) / 1e9
}

/// One `slots_until_present` lookup from a random cursor, on the channel
/// that carries the page.
pub fn slots_until_present_ns(b: &Broadcast, seed: u64) -> f64 {
    let programs: Vec<&BroadcastProgram> = match &b.channels {
        Some(m) => (0..m.num_channels()).map(|k| m.channel(k)).collect(),
        None => vec![&b.program],
    };
    let programs: Vec<&BroadcastProgram> = programs
        .into_iter()
        .filter(|p| p.major_cycle() > 0)
        .collect();
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let mut probes = Vec::with_capacity(4096);
    while probes.len() < 4096 {
        let p = programs[rng.random_range(0..programs.len())];
        let m = p.major_cycle();
        if let Slot::Page(page) = p.slot(rng.random_range(0..m)) {
            probes.push((p, page, rng.random_range(0..m)));
        }
    }
    let calls: u64 = 400_000;
    per_op_ns(calls, || {
        let mut acc = 0usize;
        for i in 0..calls as usize {
            let (p, page, cursor) = probes[i % probes.len()];
            acc = acc.wrapping_add(p.slots_until_present(page, cursor));
        }
        black_box(acc);
    })
}

/// One lookup in a warmed PIX cache, pages drawn from the access pattern.
pub fn cache_lookup_ns(cfg: &SystemConfig, b: &Broadcast, seed: u64) -> f64 {
    let pattern = AccessPattern::population(&Zipf::new(cfg.db_size, cfg.zipf_theta));
    let freqs: Vec<usize> = (0..cfg.db_size)
        .map(|i| b.program.frequency(PageId(i as u32)))
        .collect();
    let mut cache = StaticScoreCache::pix(cfg.cache_size, pattern.probs(), &freqs);
    cache.warm();
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let pages: Vec<usize> = (0..4096).map(|_| pattern.sample(&mut rng)).collect();
    let calls: u64 = 400_000;
    per_op_ns(calls, || {
        let mut hits = 0u64;
        for i in 0..calls as usize {
            hits += u64::from(cache.lookup(pages[i % pages.len()]));
        }
        black_box(hits);
    })
}

/// Queue operations timed in runs of this many.
const QUEUE_RUN: usize = 64;

/// `RequestQueue::submit` and `pop` at the workload's queue depth: submits
/// into a queue holding `depth` entries (at capacity they coalesce or
/// drop, as under saturation), pops from one holding at least a run's
/// worth. Returns `(submit_ns, pop_ns)`.
pub fn queue_ns(cfg: &SystemConfig, depth: usize, seed: u64) -> (f64, f64) {
    let capacity = cfg.server_queue_size;
    let depth = depth.min(capacity);
    let pattern = AccessPattern::population(&Zipf::new(cfg.db_size, cfg.zipf_theta));
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let pages: Vec<PageId> = (0..1 << 14)
        .map(|_| PageId(pattern.sample(&mut rng) as u32))
        .collect();
    let mut next = 0usize;
    let mut draw = || {
        next = (next + 1) % pages.len();
        pages[next]
    };
    let mut q = RequestQueue::new(capacity);
    let fill_to = |q: &mut RequestQueue, target: usize, draw: &mut dyn FnMut() -> PageId| {
        while q.len() > target {
            q.pop();
        }
        // Coalescing submits do not grow the queue; bound the attempts.
        for _ in 0..64 * capacity {
            if q.len() >= target {
                break;
            }
            q.submit(draw());
        }
    };
    let runs = 2_000;
    let mut submit = Vec::with_capacity(BATCHES);
    let mut pop = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let (mut s_ns, mut s_ops, mut p_ns, mut p_ops) = (0u64, 0u64, 0u64, 0u64);
        for _ in 0..runs {
            fill_to(&mut q, depth, &mut draw);
            let batch: [PageId; QUEUE_RUN] = std::array::from_fn(|_| draw());
            let t = Instant::now();
            for &page in &batch {
                black_box(q.submit(page));
            }
            s_ns += nanos(t.elapsed());
            s_ops += QUEUE_RUN as u64;

            fill_to(&mut q, depth.max(QUEUE_RUN).min(capacity), &mut draw);
            let n = q.len().min(QUEUE_RUN);
            let t = Instant::now();
            for _ in 0..n {
                black_box(q.pop());
            }
            p_ns += nanos(t.elapsed());
            p_ops += n as u64;
        }
        submit.push(s_ns as f64 / s_ops as f64);
        pop.push(p_ns as f64 / p_ops.max(1) as f64);
    }
    (crate::median(&mut submit), crate::median(&mut pop))
}

/// One `BandwidthMux::decide` on a backlogged queue.
pub fn mux_decide_ns(cfg: &SystemConfig, seed: u64) -> f64 {
    let mux = BandwidthMux::new(cfg.effective_pull_bw());
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let calls: u64 = 400_000;
    per_op_ns(calls, || {
        let mut pulls = 0u64;
        for _ in 0..calls {
            pulls += u64::from(mux.decide(false, &mut rng) == SlotDecision::ServePull);
        }
        black_box(pulls);
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells::Workload;

    #[test]
    fn generated_broadcast_is_the_simulated_one() {
        for w in Workload::ALL {
            let cfg = &w.cells(1, 0)[w.probe()].cfg;
            let b = generate(cfg);
            assert_eq!(b.program.slots(), analytic::build_program(cfg).slots());
            let k = b
                .channels
                .as_ref()
                .map_or(1, MultiChannelProgram::num_channels);
            assert_eq!(k, cfg.num_channels);
        }
    }
}
