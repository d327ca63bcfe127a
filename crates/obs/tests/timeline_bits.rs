//! Bit-exactness of `Timeline` and `TimelineGroup` against a naive
//! reference of the per-series arithmetic.
//!
//! `Reference` below is the straightforward timeline every report was
//! produced with before the division-free fast path and the shared group
//! cursor existed: each update divides to find its bucket, checks the
//! downsampling budget and walks the interval bucket by bucket. It lives
//! here, not in the library, as the oracle. Random sequences drive both
//! sides and every reported float is compared with `to_bits`: fractional
//! strides (0.1, 0.3, 1/3, …) and large ones (100), fractional times and
//! values, zero-width updates, times on and one ulp either side of bucket
//! boundaries, crossings of the downsampling limit, group series starting
//! at different samples (and some never), and seals at arbitrary ends.

#![allow(missing_docs)]

use bpp_obs::{Timeline, TimelineGroup};

/// The pre-optimisation timeline arithmetic, verbatim in substance.
#[derive(Clone)]
struct Reference {
    stride: f64,
    max_buckets: usize,
    /// `(weighted_sum, span, max)` per bucket.
    buckets: Vec<(f64, f64, f64)>,
    last_time: f64,
    last_value: f64,
    primed: bool,
}

impl Reference {
    fn new(stride: f64, max_buckets: usize) -> Self {
        Reference {
            stride,
            max_buckets,
            buckets: Vec::new(),
            last_time: 0.0,
            last_value: 0.0,
            primed: false,
        }
    }

    fn update(&mut self, t: f64, v: f64) {
        assert!(t.is_finite() && t >= 0.0);
        if !self.primed {
            self.primed = true;
            self.last_time = t;
            self.last_value = v;
            return;
        }
        assert!(t >= self.last_time);
        let (t0, value) = (self.last_time, self.last_value);
        self.accumulate(t0, t, value);
        self.last_time = t;
        self.last_value = v;
    }

    fn accumulate(&mut self, mut t0: f64, t1: f64, value: f64) {
        if t1 <= t0 {
            return;
        }
        while t1 >= self.stride * self.max_buckets as f64 {
            self.downsample();
        }
        while t0 < t1 {
            let idx = ((t0 / self.stride) as usize).min(self.max_buckets - 1);
            if self.buckets.len() <= idx {
                self.buckets.resize(idx + 1, (0.0, 0.0, 0.0));
            }
            let bucket_end = (idx as f64 + 1.0) * self.stride;
            let seg_end = if bucket_end < t1 { bucket_end } else { t1 };
            let b = &mut self.buckets[idx];
            b.0 += value * (seg_end - t0);
            b.1 += seg_end - t0;
            b.2 = b.2.max(value);
            if seg_end <= t0 {
                break;
            }
            t0 = seg_end;
        }
    }

    fn downsample(&mut self) {
        let mut merged = Vec::with_capacity(self.buckets.len().div_ceil(2));
        for pair in self.buckets.chunks(2) {
            let mut b = pair[0];
            if let Some(second) = pair.get(1) {
                b.0 += second.0;
                b.1 += second.1;
                b.2 = b.2.max(second.2);
            }
            merged.push(b);
        }
        self.buckets = merged;
        self.stride *= 2.0;
    }

    fn sealed(&self, t_end: f64) -> Reference {
        let mut out = self.clone();
        if out.primed && t_end > out.last_time {
            let v = out.last_value;
            out.update(t_end, v);
        }
        out
    }

    fn points(&self) -> Vec<(f64, f64, f64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, b)| b.1 > 0.0)
            .map(|(i, b)| (i as f64 * self.stride, b.0 / b.1, b.2))
            .collect()
    }
}

/// SplitMix64: a self-contained deterministic generator for the cases.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len() as u64) as usize]
    }
}

const STRIDES: [f64; 8] = [0.1, 0.3, 100.0, 1.0, 0.7, 2.5, 1.0 / 3.0, 1e-3];
const BUDGETS: [usize; 6] = [2, 3, 4, 7, 16, 512];

/// The next sample time after `t`: zero-width, unit and fractional steps,
/// landings on, just before and just after a bucket boundary of the
/// initial stride or a doubling of it, and rare jumps far past the budget.
fn next_time(g: &mut Gen, t: f64, stride: f64) -> f64 {
    let next = match g.below(10) {
        0 => t,
        1 => t + 1.0,
        2 | 3 => t + g.unit() * 2.0 * stride,
        4..=6 => {
            let s = stride * f64::from(1u32 << g.below(6));
            let k = (t / s).floor() + 1.0 + g.below(3) as f64;
            let edge = k * s;
            match g.below(3) {
                0 => edge,
                1 => f64::from_bits(edge.to_bits() - 1),
                _ => f64::from_bits(edge.to_bits() + 1),
            }
        }
        7 => t + g.unit() * 0.01 * stride,
        8 => t + g.unit() * 40.0 * stride,
        _ => {
            if g.below(20) == 0 {
                t + g.unit() * 4_000.0 * stride
            } else {
                t + 0.5
            }
        }
    };
    next.max(t)
}

fn next_value(g: &mut Gen) -> f64 {
    match g.below(6) {
        0 => 0.0,
        1 => g.below(20) as f64,
        2 => -(g.unit() * 10.0),
        3 => g.unit() * 1e6,
        _ => g.unit(),
    }
}

fn bits(points: &[(f64, f64, f64)]) -> Vec<(u64, u64, u64)> {
    points
        .iter()
        .map(|&(t, mean, max)| (t.to_bits(), mean.to_bits(), max.to_bits()))
        .collect()
}

fn assert_same(new: &Timeline, old: &Reference, what: &str) {
    assert_eq!(
        new.stride().to_bits(),
        old.stride.to_bits(),
        "{what}: stride {} vs {}",
        new.stride(),
        old.stride
    );
    assert_eq!(bits(&new.points()), bits(&old.points()), "{what}: points");
}

#[test]
fn timeline_matches_the_reference_bit_for_bit() {
    let mut g = Gen(0x5EED_0001);
    for case in 0..400 {
        let stride = if case % 5 == 4 {
            0.05 + g.unit() * 3.0
        } else {
            g.pick(&STRIDES)
        };
        let budget = g.pick(&BUDGETS);
        let mut new = Timeline::with_max_buckets(stride, budget);
        let mut old = Reference::new(stride, budget);
        let mut t = g.unit() * 5.0 * stride;
        for step in 0..1_500 {
            let v = next_value(&mut g);
            new.update(t, v);
            old.update(t, v);
            if step % 97 == 0 {
                let end = next_time(&mut g, t, stride);
                let what = format!("case {case} step {step} sealed at {end}");
                assert_same(&new.sealed(end), &old.sealed(end), &what);
            }
            t = next_time(&mut g, t, stride);
        }
        let what = format!("case {case} final");
        assert_same(&new.sealed(t), &old.sealed(t), &what);
        let end = next_time(&mut g, t, stride);
        assert_same(&new.sealed(end), &old.sealed(end), &what);
    }
}

#[test]
fn group_members_match_reference_timelines_bit_for_bit() {
    let mut g = Gen(0x5EED_0002);
    for case in 0..200 {
        let stride = if case % 4 == 3 {
            0.05 + g.unit() * 3.0
        } else {
            g.pick(&STRIDES)
        };
        let budget = g.pick(&BUDGETS);
        let n = 1 + g.below(6) as usize;
        let steps = 1_200;
        // Each series starts at its own sample; some never start. Started
        // series either record at every sample or sometimes hold.
        let start: Vec<Option<usize>> = (0..n)
            .map(|_| (g.below(5) != 0).then(|| g.below(steps as u64 / 2) as usize))
            .collect();
        let holds: Vec<bool> = (0..n).map(|_| g.below(2) == 0).collect();
        let mut group = TimelineGroup::with_max_buckets(stride, budget);
        let ids: Vec<_> = (0..n).map(|_| group.add_series()).collect();
        let mut refs = vec![Reference::new(stride, budget); n];
        let mut t = g.unit() * 5.0 * stride;
        for step in 0..steps {
            let mut sample = group.at(t);
            for m in 0..n {
                let Some(s) = start[m] else { continue };
                if step < s {
                    continue;
                }
                let v = if step > s && holds[m] && g.below(3) == 0 {
                    refs[m].last_value // recorded nothing: the value holds
                } else {
                    let v = next_value(&mut g);
                    sample.record(ids[m], v);
                    v
                };
                refs[m].update(t, v);
            }
            if step % 89 == 0 {
                let end = next_time(&mut g, t, stride);
                for m in 0..n {
                    let what = format!("case {case} step {step} series {m} sealed at {end}");
                    assert_same(&group.sealed(ids[m], end), &refs[m].sealed(end), &what);
                }
            }
            t = next_time(&mut g, t, stride);
        }
        let end = t;
        for m in 0..n {
            let what = format!("case {case} final series {m}");
            assert_same(&group.sealed(ids[m], end), &refs[m].sealed(end), &what);
        }
    }
}

#[test]
fn json_of_group_members_matches_standalone_timelines() {
    let mut group = TimelineGroup::new(0.3);
    let ids: Vec<_> = (0..3).map(|_| group.add_series()).collect();
    let mut solo: Vec<Timeline> = (0..3).map(|_| Timeline::new(0.3)).collect();
    for i in 0..20_000u32 {
        let t = f64::from(i);
        let mut sample = group.at(t);
        for (m, tl) in solo.iter_mut().enumerate() {
            if i >= 100 * m as u32 {
                let v = f64::from((i * (m as u32 + 7)) % 11) / 3.0;
                sample.record(ids[m], v);
                tl.update(t, v);
            }
        }
    }
    for (m, tl) in solo.iter().enumerate() {
        assert_eq!(
            bpp_json::to_string(&group.sealed(ids[m], 20_000.5)),
            bpp_json::to_string(&tl.sealed(20_000.5)),
        );
    }
}
