//! Time-weighted series with bounded, self-downsampling buckets.
//!
//! A [`Timeline`] is one series; a [`TimelineGroup`] is a set of series
//! always sampled at the same instants (the simulator's slot boundaries).
//! Both step through time with the same [`Clock`], so a group produces
//! exactly the bits its members would produce as separate timelines while
//! paying for the time bookkeeping — monotonicity check, bucket choice,
//! downsampling — once per sample instead of once per series.

use bpp_json::{Json, ToJson};

/// Default bucket budget for a [`Timeline`]; past this the series merges
/// adjacent buckets and doubles its stride, so memory stays O(1) in run
/// length while resolution degrades by at most 2x per doubling.
pub const DEFAULT_MAX_BUCKETS: usize = 512;

/// One fixed-width bucket of a [`Timeline`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Bucket {
    /// Integral of the held value over the covered span.
    weighted_sum: f64,
    /// Total simulated time covered inside this bucket.
    span: f64,
    /// Maximum value held at any point inside this bucket.
    max: f64,
}

impl Bucket {
    /// Credit `value` held for `width` of simulated time.
    #[inline]
    fn credit(&mut self, value: f64, width: f64) {
        self.weighted_sum += value * width;
        self.span += width;
        self.max = self.max.max(value);
    }

    /// Fold the next bucket into this one (a downsampling pair).
    fn absorb(&mut self, next: &Bucket) {
        self.weighted_sum += next.weighted_sum;
        self.span += next.span;
        self.max = self.max.max(next.max);
    }
}

/// Merge adjacent pairs of the `len` buckets stored as `width`-wide rows of
/// `buckets` (row `i` holds bucket `i` of every series), in place.
fn merge_pairs(buckets: &mut Vec<Bucket>, width: usize, len: usize) {
    for i in 0..len.div_ceil(2) {
        for m in 0..width {
            let mut b = buckets[2 * i * width + m];
            if 2 * i + 1 < len {
                b.absorb(&buckets[(2 * i + 1) * width + m]);
            }
            buckets[i * width + m] = b;
        }
    }
    buckets.truncate(len.div_ceil(2) * width);
}

/// Bucket storage a [`Clock`] credits into.
trait Store {
    /// Buckets allocated so far.
    fn len(&self) -> usize;
    /// Grow to at least `len` buckets (new ones empty).
    fn grow_to(&mut self, len: usize);
    /// Credit the held value(s) over `width` of simulated time to bucket
    /// `idx`, which exists.
    fn credit(&mut self, idx: usize, width: f64);
    /// Merge adjacent bucket pairs (the stride is about to double).
    fn downsample(&mut self);
}

/// The time cursor and bucket geometry of a series, or of a group of series
/// sampled at the same instants.
///
/// `advance(t)` credits the held value(s) over `[last_time, t)` exactly as
/// the original per-series arithmetic did: downsample while `t` is past the
/// bucket budget, then walk the interval bucket by bucket, choosing each
/// bucket as `(t0 / stride) as usize` and ending it at `(idx + 1) * stride`.
///
/// The fast path skips all of that when `t` provably lands in the bucket
/// that holds `last_time` (the *open* bucket): then the walk is one
/// segment, no downsampling happens, and only the three float operations of
/// [`Bucket::credit`] remain. `fast_end` is the exclusive bound that proves
/// it — the minimum of
/// * the first float `t` with `(t / stride) as usize` past the open bucket
///   (found by stepping ulps from `(idx + 1) * stride`, so fractional
///   strides stay bit-exact),
/// * the float just above the open bucket's end `(idx + 1) * stride` (a
///   sample exactly at the end is still one segment), and
/// * the downsampling threshold `stride * max_buckets`.
///
/// `fast_end` is `-inf` while no open bucket exists (before the first
/// credited interval, and after a walk that ended exactly on a boundary).
#[derive(Debug, Clone)]
struct Clock {
    stride: f64,
    max_buckets: usize,
    last_time: f64,
    primed: bool,
    /// Index of the open bucket (valid while `fast_end` is finite).
    open: usize,
    fast_end: f64,
}

/// `fast_end` and `open` are a cache derived from the other fields, so
/// equality ignores them.
impl PartialEq for Clock {
    fn eq(&self, other: &Self) -> bool {
        self.stride == other.stride
            && self.max_buckets == other.max_buckets
            && self.last_time == other.last_time
            && self.primed == other.primed
    }
}

/// The next float above a non-negative finite `x`.
fn next_up(x: f64) -> f64 {
    f64::from_bits(x.to_bits() + 1)
}

/// The next float below a positive finite `x`.
fn next_down(x: f64) -> f64 {
    f64::from_bits(x.to_bits() - 1)
}

impl Clock {
    fn new(stride: f64, max_buckets: usize) -> Self {
        assert!(
            stride.is_finite() && stride > 0.0,
            "timeline stride must be finite and positive"
        );
        assert!(max_buckets >= 2, "timeline needs at least two buckets");
        Clock {
            stride,
            max_buckets,
            last_time: 0.0,
            primed: false,
            open: 0,
            fast_end: f64::NEG_INFINITY,
        }
    }

    /// The bucket time `t` falls in at the current stride.
    #[inline]
    fn index(&self, t: f64) -> usize {
        ((t / self.stride) as usize).min(self.max_buckets - 1)
    }

    /// Move the cursor to `t`, crediting `[last_time, t)` into `store`.
    /// The first call only primes the cursor.
    ///
    /// # Panics
    /// Panics when `t` is non-finite, negative, or moves backwards — a
    /// backwards sample would credit a negative span and silently corrupt
    /// every bucket after it. (The fast path needs no check: its guard
    /// `last_time < t < fast_end` already implies all three.)
    #[inline]
    fn advance<S: Store>(&mut self, t: f64, store: &mut S) {
        if t > self.last_time && t < self.fast_end {
            store.credit(self.open, t - self.last_time);
            self.last_time = t;
            return;
        }
        self.advance_slow(t, store);
    }

    fn advance_slow<S: Store>(&mut self, t1: f64, store: &mut S) {
        assert!(
            t1.is_finite() && t1 >= 0.0,
            "timeline time must be finite and non-negative"
        );
        if !self.primed {
            self.primed = true;
            self.last_time = t1;
            return;
        }
        assert!(t1 >= self.last_time, "timeline time must be monotone");
        let mut t0 = self.last_time;
        self.last_time = t1;
        if t1 <= t0 {
            // Zero width: nothing is credited and the open bucket stays.
            return;
        }
        while t1 >= self.stride * self.max_buckets as f64 {
            store.downsample();
            self.stride *= 2.0;
        }
        while t0 < t1 {
            let idx = self.index(t0);
            if store.len() <= idx {
                store.grow_to(idx + 1);
            }
            let bucket_end = (idx as f64 + 1.0) * self.stride;
            let seg_end = if bucket_end < t1 { bucket_end } else { t1 };
            store.credit(idx, seg_end - t0);
            if seg_end <= t0 {
                break;
            }
            t0 = seg_end;
        }
        self.refresh_fast_end(store.len());
    }

    /// Recompute the fast-path bound for the bucket holding `last_time`.
    fn refresh_fast_end(&mut self, len: usize) {
        let open = self.index(self.last_time);
        if open + 1 != len {
            // The bucket holding `last_time` is not allocated yet.
            self.fast_end = f64::NEG_INFINITY;
            return;
        }
        let bucket_end = (open as f64 + 1.0) * self.stride;
        let leaves = if open + 1 == self.max_buckets {
            // The last bucket absorbs every later time.
            f64::INFINITY
        } else {
            let past = |t: f64| ((t / self.stride) as usize) > open;
            let mut t = bucket_end;
            if past(t) {
                while past(next_down(t)) {
                    t = next_down(t);
                }
            } else {
                while !past(t) {
                    t = next_up(t);
                }
            }
            t
        };
        let down = self.stride * self.max_buckets as f64;
        self.open = open;
        self.fast_end = leaves.min(next_up(bucket_end)).min(down);
    }
}

/// One series' buckets plus the value it currently holds.
#[derive(Debug, Clone, PartialEq)]
struct Series {
    buckets: Vec<Bucket>,
    value: f64,
}

impl Store for Series {
    fn len(&self) -> usize {
        self.buckets.len()
    }

    fn grow_to(&mut self, len: usize) {
        self.buckets.resize(len, Bucket::default());
    }

    #[inline]
    fn credit(&mut self, idx: usize, width: f64) {
        self.buckets[idx].credit(self.value, width);
    }

    fn downsample(&mut self) {
        let len = self.buckets.len();
        merge_pairs(&mut self.buckets, 1, len);
    }
}

/// A step-function series sampled against simulated time.
///
/// `update(t, v)` records that the observed quantity becomes `v` at time
/// `t`; the previous value is credited for the interval since the previous
/// update, split across fixed-stride buckets. When an update lands past the
/// bucket budget the series *downsamples*: adjacent buckets merge and the
/// stride doubles, repeatedly, until the new time fits. Reports therefore
/// stay small no matter how long the simulation runs.
///
/// A value held for zero simulated time contributes nothing (neither weight
/// nor max) — the series describes what the quantity *was over time*, not
/// which instantaneous values were ever assigned.
///
/// An update landing in the bucket the previous one opened costs no
/// division: see [`Clock`] for the bound that makes the shortcut exact.
#[derive(Debug, Clone, PartialEq)]
pub struct Timeline {
    clock: Clock,
    series: Series,
}

impl Timeline {
    /// A series with the given initial bucket stride (simulated seconds)
    /// and the default bucket budget.
    ///
    /// # Panics
    /// Panics unless `stride` is finite and positive — a zero or negative
    /// stride would make every bucket index meaningless.
    pub fn new(stride: f64) -> Self {
        Self::with_max_buckets(stride, DEFAULT_MAX_BUCKETS)
    }

    /// A series with an explicit bucket budget (mostly for tests).
    ///
    /// # Panics
    /// Panics unless `stride` is finite and positive and `max_buckets` is
    /// at least 2 (downsampling merges pairs, so one bucket cannot shrink).
    pub fn with_max_buckets(stride: f64, max_buckets: usize) -> Self {
        Timeline {
            clock: Clock::new(stride, max_buckets),
            series: Series {
                buckets: Vec::new(),
                value: 0.0,
            },
        }
    }

    /// Record that the observed value becomes `v` at simulated time `t`.
    ///
    /// # Panics
    /// Panics when `t` is non-finite, negative, or moves backwards — a
    /// backwards sample would credit a negative span and silently corrupt
    /// every bucket after it.
    #[inline]
    pub fn update(&mut self, t: f64, v: f64) {
        self.clock.advance(t, &mut self.series);
        self.series.value = v;
    }

    /// Current bucket stride (doubles on every downsampling pass).
    pub fn stride(&self) -> f64 {
        self.clock.stride
    }

    /// A copy with the currently-held value credited up to `t_end`, ready
    /// for reporting. The original keeps accumulating unchanged.
    ///
    /// # Panics
    /// Panics when `t_end` is non-finite or precedes the last recorded
    /// update.
    pub fn sealed(&self, t_end: f64) -> Timeline {
        let mut out = self.clone();
        if out.clock.primed {
            let v = out.series.value;
            out.update(t_end, v);
        }
        out
    }

    /// The non-empty buckets as `(bucket_start, time_weighted_mean, max)`.
    pub fn points(&self) -> Vec<(f64, f64, f64)> {
        self.series
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, b)| b.span > 0.0)
            .map(|(i, b)| (i as f64 * self.clock.stride, b.weighted_sum / b.span, b.max))
            .collect()
    }
}

impl ToJson for Timeline {
    fn to_json(&self) -> Json {
        let points: Vec<Json> = self
            .points()
            .into_iter()
            .map(|(t, mean, max)| {
                Json::object([
                    ("t", t.to_json()),
                    ("mean", mean.to_json()),
                    ("max", max.to_json()),
                ])
            })
            .collect();
        Json::object([
            ("stride", self.stride().to_json()),
            ("points", Json::Arr(points)),
        ])
    }
}

/// Handle to one series of a [`TimelineGroup`], from
/// [`TimelineGroup::add_series`]. Only meaningful for the group that
/// issued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeriesId(usize);

/// Per-series state of a [`TimelineGroup`].
#[derive(Debug, Clone, Copy, PartialEq)]
struct Member {
    /// The value the series currently holds.
    value: f64,
    /// When the series recorded its first value; `+inf` until then.
    primed_at: f64,
}

/// The bucket storage of a [`TimelineGroup`]: `len` rows, row `i` holding
/// bucket `i` of every series side by side, so one sample touches one
/// contiguous row.
#[derive(Debug, Clone, PartialEq)]
struct Rows {
    buckets: Vec<Bucket>,
    len: usize,
    members: Vec<Member>,
}

impl Store for Rows {
    fn len(&self) -> usize {
        self.len
    }

    fn grow_to(&mut self, len: usize) {
        self.len = len;
        self.buckets
            .resize(len * self.members.len(), Bucket::default());
    }

    #[inline]
    fn credit(&mut self, idx: usize, width: f64) {
        let n = self.members.len();
        let row = &mut self.buckets[idx * n..(idx + 1) * n];
        for (b, m) in row.iter_mut().zip(&self.members) {
            // A series credits nothing before its first value.
            if m.primed_at < f64::INFINITY {
                b.credit(m.value, width);
            }
        }
    }

    fn downsample(&mut self) {
        merge_pairs(&mut self.buckets, self.members.len(), self.len);
        self.len = self.len.div_ceil(2);
    }
}

/// A set of step-function series sampled at the same instants — the
/// simulator's slot boundaries — sharing one time cursor.
///
/// Each [`at`](TimelineGroup::at) sample does one monotonicity check, one
/// bucket decision and one downsampling decision for the whole group, then
/// credits every series' held value with the same per-series arithmetic a
/// [`Timeline`] uses. A series starts when it records its first value and
/// credits nothing before that; once started, a series that records
/// nothing at a sample holds its value. The result is bit-identical to
/// keeping one `Timeline` per series and calling `update(t, v)` on every
/// started series at every sample (with `v` its held value when it
/// recorded nothing): see [`sealed`](TimelineGroup::sealed).
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineGroup {
    clock: Clock,
    /// The stride of a series that has not credited anything yet.
    initial_stride: f64,
    rows: Rows,
}

impl TimelineGroup {
    /// An empty group whose series start at the given bucket stride, with
    /// the default bucket budget.
    ///
    /// # Panics
    /// As [`Timeline::new`].
    pub fn new(stride: f64) -> Self {
        Self::with_max_buckets(stride, DEFAULT_MAX_BUCKETS)
    }

    /// An empty group with an explicit bucket budget (mostly for tests).
    ///
    /// # Panics
    /// As [`Timeline::with_max_buckets`].
    pub fn with_max_buckets(stride: f64, max_buckets: usize) -> Self {
        TimelineGroup {
            clock: Clock::new(stride, max_buckets),
            initial_stride: stride,
            rows: Rows {
                buckets: Vec::new(),
                len: 0,
                members: Vec::new(),
            },
        }
    }

    /// Add a series.
    ///
    /// # Panics
    /// Panics once the group has been sampled: every series must exist
    /// before the first [`at`](TimelineGroup::at).
    pub fn add_series(&mut self) -> SeriesId {
        assert!(
            !self.clock.primed,
            "timeline group series must be added before the first sample"
        );
        self.rows.members.push(Member {
            value: 0.0,
            primed_at: f64::INFINITY,
        });
        SeriesId(self.rows.members.len() - 1)
    }

    /// Sample the group at simulated time `t`: credit every started
    /// series' held value up to `t`, then let the returned handle record
    /// the values that hold from `t` on.
    ///
    /// # Panics
    /// As [`Timeline::update`]: when `t` is non-finite, negative, or moves
    /// backwards.
    #[inline]
    pub fn at(&mut self, t: f64) -> Sample<'_> {
        self.clock.advance(t, &mut self.rows);
        Sample { group: self }
    }

    /// The series behind `id` as a standalone [`Timeline`], with its held
    /// value credited up to `t_end` — exactly what a `Timeline` fed the
    /// same samples would report from [`Timeline::sealed`].
    ///
    /// # Panics
    /// Panics when `t_end` is non-finite or precedes the last sample taken
    /// after the series started.
    pub fn sealed(&self, id: SeriesId, t_end: f64) -> Timeline {
        let m = self.rows.members[id.0];
        let mut out = Timeline::with_max_buckets(self.initial_stride, self.clock.max_buckets);
        if m.primed_at.is_infinite() {
            // Never recorded: a fresh, unprimed series.
            return out;
        }
        out.clock.primed = true;
        out.clock.last_time = self.clock.last_time;
        out.series.value = m.value;
        if self.clock.last_time > m.primed_at {
            // The series has credited at least one interval, so it shares
            // the group's stride and buckets.
            let n = self.rows.members.len();
            out.clock.stride = self.clock.stride;
            out.series.buckets = (0..self.rows.len)
                .map(|i| self.rows.buckets[i * n + id.0])
                .collect();
        }
        out.sealed(t_end)
    }
}

/// The recording handle of one [`TimelineGroup`] sample, from
/// [`TimelineGroup::at`].
#[derive(Debug)]
pub struct Sample<'a> {
    group: &'a mut TimelineGroup,
}

impl Sample<'_> {
    /// Series `id` holds `v` from this sample's time on. The first record
    /// starts the series.
    #[inline]
    pub fn record(&mut self, id: SeriesId, v: f64) {
        let t = self.group.clock.last_time;
        let m = &mut self.group.rows.members[id.0];
        m.value = v;
        if m.primed_at.is_infinite() {
            m.primed_at = t;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_bucket_mean_is_time_weighted() {
        let mut tl = Timeline::new(10.0);
        tl.update(0.0, 2.0);
        tl.update(4.0, 6.0); // 2.0 held for 4s
        tl.update(8.0, 6.0); // 6.0 held for 4s
        let pts = tl.points();
        assert_eq!(pts.len(), 1);
        let (start, mean, max) = pts[0];
        assert_eq!(start, 0.0);
        assert!((mean - 4.0).abs() < 1e-12);
        assert_eq!(max, 6.0);
    }

    #[test]
    fn segments_split_across_bucket_boundaries() {
        let mut tl = Timeline::new(1.0);
        tl.update(0.5, 3.0);
        tl.update(2.5, 3.0); // spans buckets 0, 1, 2
        let pts = tl.points();
        assert_eq!(pts.len(), 3);
        for (_, mean, max) in pts {
            assert!((mean - 3.0).abs() < 1e-12);
            assert_eq!(max, 3.0);
        }
    }

    #[test]
    fn downsampling_doubles_stride_and_preserves_total_weight() {
        let mut tl = Timeline::with_max_buckets(1.0, 4);
        tl.update(0.0, 1.0);
        tl.update(16.0, 1.0); // needs 16 buckets of stride 1 -> two doublings
        assert!(tl.stride() >= 4.0);
        let total_weight: f64 = tl
            .points()
            .iter()
            .map(|(_, mean, _)| mean * tl.stride())
            .sum();
        assert!((total_weight - 16.0).abs() < 1e-9);
    }

    #[test]
    fn sealed_credits_the_open_segment_without_mutating() {
        let mut tl = Timeline::new(100.0);
        tl.update(0.0, 5.0);
        assert!(tl.points().is_empty());
        let sealed = tl.sealed(50.0);
        let pts = sealed.points();
        assert_eq!(pts.len(), 1);
        assert!((pts[0].1 - 5.0).abs() < 1e-12);
        // Original unchanged: still no closed segment.
        assert!(tl.points().is_empty());
    }

    #[test]
    #[should_panic(expected = "monotone")]
    fn sealing_before_the_last_update_panics() {
        let mut tl = Timeline::new(1.0);
        tl.update(2.0, 1.0);
        tl.update(5.0, 1.0);
        let _ = tl.sealed(4.0);
    }

    #[test]
    fn sealing_at_the_last_update_or_unprimed_changes_nothing() {
        let mut tl = Timeline::new(1.0);
        assert_eq!(tl.sealed(0.0), tl, "unprimed: a plain copy");
        tl.update(2.0, 1.0);
        tl.update(5.0, 3.0);
        assert_eq!(tl.sealed(5.0), tl);
    }

    #[test]
    fn zero_width_update_contributes_nothing() {
        let mut tl = Timeline::new(1.0);
        tl.update(0.5, 100.0);
        tl.update(0.5, 1.0); // 100.0 held for zero time
        tl.update(1.0, 1.0);
        let pts = tl.points();
        assert_eq!(pts.len(), 1);
        assert_eq!(pts[0].2, 1.0);
    }

    #[test]
    #[should_panic(expected = "monotone")]
    fn backwards_time_panics() {
        let mut tl = Timeline::new(1.0);
        tl.update(2.0, 1.0);
        tl.update(1.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "monotone")]
    fn backwards_time_panics_inside_the_open_bucket() {
        let mut tl = Timeline::new(100.0);
        tl.update(1.0, 1.0);
        tl.update(3.0, 1.0); // opens bucket 0: the fast path is armed
        tl.update(2.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_time_panics() {
        let mut tl = Timeline::new(1.0);
        tl.update(1.0, 1.0);
        tl.update(2.0, 1.0);
        tl.update(f64::NAN, 1.0);
    }

    #[test]
    fn fast_bound_is_the_exact_bucket_exit_at_fractional_strides() {
        for stride in [0.1, 0.3, 0.7, 1.0 / 3.0, 100.0, 2.5e-7] {
            for open in 0..DEFAULT_MAX_BUCKETS {
                let mut c = Clock::new(stride, DEFAULT_MAX_BUCKETS);
                c.primed = true;
                c.last_time = open as f64 * stride;
                if c.index(c.last_time) != open {
                    continue; // `open * stride` rounds into a neighbour
                }
                c.refresh_fast_end(open + 1);
                let leaves = c.fast_end;
                let bucket_end = (open as f64 + 1.0) * stride;
                let down = stride * DEFAULT_MAX_BUCKETS as f64;
                if leaves < next_up(bucket_end).min(down) {
                    assert!(c.index(leaves) > open, "{stride} {open}");
                    assert_eq!(c.index(next_down(leaves)), open, "{stride} {open}");
                }
            }
        }
    }

    #[test]
    fn group_series_match_standalone_timelines() {
        let mut g = TimelineGroup::new(0.3);
        let a = g.add_series();
        let b = g.add_series();
        let (mut ta, mut tb) = (Timeline::new(0.3), Timeline::new(0.3));
        for i in 0..2_000u32 {
            let t = f64::from(i) * 0.7;
            let mut s = g.at(t);
            let va = f64::from(i % 13);
            s.record(a, va);
            ta.update(t, va);
            if i >= 500 {
                let vb = f64::from(i % 5) * 0.25;
                s.record(b, vb);
                tb.update(t, vb);
            }
        }
        assert_eq!(g.sealed(a, 1_500.0), ta.sealed(1_500.0));
        assert_eq!(g.sealed(b, 1_500.0), tb.sealed(1_500.0));
    }

    #[test]
    fn group_series_that_never_record_report_empty() {
        let mut g = TimelineGroup::new(2.0);
        let a = g.add_series();
        let idle = g.add_series();
        for i in 0..5_000u32 {
            g.at(f64::from(i)).record(a, 1.0);
        }
        let text = bpp_json::to_string(&g.sealed(idle, 5_000.0));
        assert_eq!(text, r#"{"stride":2.0,"points":[]}"#);
    }

    #[test]
    #[should_panic(expected = "before the first sample")]
    fn group_series_cannot_join_after_sampling() {
        let mut g = TimelineGroup::new(1.0);
        g.add_series();
        g.at(0.0);
        g.add_series();
    }

    #[test]
    #[should_panic(expected = "monotone")]
    fn group_backwards_time_panics() {
        let mut g = TimelineGroup::new(1.0);
        let a = g.add_series();
        g.at(1.0).record(a, 1.0);
        g.at(0.5);
    }

    #[test]
    fn json_shape_is_stride_plus_points() {
        let mut tl = Timeline::new(2.0);
        tl.update(0.0, 1.0);
        tl.update(2.0, 1.0);
        let text = bpp_json::to_string(&tl);
        assert_eq!(
            text,
            r#"{"stride":2.0,"points":[{"t":0.0,"mean":1.0,"max":1.0}]}"#
        );
    }
}
