//! Outside-in tracing: spans the benchmark records around its own calls
//! into the simulator. Nothing here reaches inside the program; the kind of
//! each dispatched event is inferred from public state before and after
//! `Engine::step`.

use bpp_core::World;

/// What a dispatched event was, as seen from outside the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepKind {
    /// A broadcast slot boundary.
    Slot,
    /// A client event: a Measured Client or fleet client began an access,
    /// or a fleet client's retry timer fired.
    Client,
    /// No observable signature (stale timers, Measured Client retries).
    Other,
}

impl StepKind {
    /// Every kind, in report order.
    pub const ALL: [StepKind; 3] = [StepKind::Slot, StepKind::Client, StepKind::Other];

    /// Metric-name component.
    pub fn label(self) -> &'static str {
        match self {
            StepKind::Slot => "slot",
            StepKind::Client => "client",
            StepKind::Other => "other",
        }
    }

    fn index(self) -> usize {
        match self {
            StepKind::Slot => 0,
            StepKind::Client => 1,
            StepKind::Other => 2,
        }
    }
}

/// The public counters an event kind is inferred from.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// `slots().total()`.
    pub slots: u64,
    /// `mc().stats().accesses`.
    pub mc_accesses: u64,
    /// Fleet accesses plus fleet retry outcomes (resends and give-ups).
    pub fleet_moves: u64,
}

impl Snapshot {
    /// Read the counters from a world.
    pub fn of(w: &World) -> Snapshot {
        Snapshot {
            slots: w.slots().total(),
            mc_accesses: w.mc().stats().accesses,
            fleet_moves: w.fleet().map_or(0, |f| {
                let s = f.stats();
                s.accesses + s.retries + s.retries_exhausted
            }),
        }
    }
}

/// Classify one step from the counters around it and its simulated time.
/// A slot moves the slot counters; a client event begins an access or
/// resolves a retry; a slot boundary that moved no counter (the server is
/// down) still falls on an integer broadcast unit. Measured-Client wakes
/// also land on integer times, which is why the counters are read first.
pub fn classify(before: Snapshot, after: Snapshot, time: f64) -> StepKind {
    if after.slots > before.slots {
        StepKind::Slot
    } else if after.mc_accesses > before.mc_accesses || after.fleet_moves > before.fleet_moves {
        StepKind::Client
    } else if time.fract() == 0.0 {
        StepKind::Slot
    } else {
        StepKind::Other
    }
}

/// Events and busy time of one step kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KindTotals {
    /// Steps of this kind.
    pub events: u64,
    /// Summed duration of those steps (they have no child spans, so this
    /// is also their self time).
    pub busy_ns: u64,
}

/// Per-kind step spans of traced drives, aggregated as they are recorded
/// (a paper cell dispatches millions of events; keeping every span would
/// cost more memory than the run itself). Step spans are sequential and
/// disjoint inside their drive span, so the drive's self time is its
/// duration minus the summed step durations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepProfile {
    kinds: [KindTotals; 3],
    /// Summed duration of the drive spans (the traced wall time).
    pub wall_ns: u64,
}

impl StepProfile {
    /// Record one step span.
    pub fn record(&mut self, kind: StepKind, ns: u64) {
        let k = &mut self.kinds[kind.index()];
        k.events += 1;
        k.busy_ns += ns;
    }

    /// Close a drive span of `ns` that contained the steps recorded since
    /// the last call.
    pub fn close_drive(&mut self, ns: u64) {
        self.wall_ns += ns;
    }

    /// Totals of one kind.
    pub fn kind(&self, kind: StepKind) -> KindTotals {
        self.kinds[kind.index()]
    }

    /// Fold another profile into this one.
    pub fn merge(&mut self, other: &StepProfile) {
        for (a, b) in self.kinds.iter_mut().zip(other.kinds) {
            a.events += b.events;
            a.busy_ns += b.busy_ns;
        }
        self.wall_ns += other.wall_ns;
    }

    /// Mean self time of one step of `kind`, in ns (0 when none ran).
    pub fn self_ns_per_event(&self, kind: StepKind) -> f64 {
        let k = self.kind(kind);
        if k.events == 0 {
            0.0
        } else {
            k.busy_ns as f64 / k.events as f64
        }
    }

    /// Share of the traced wall time spent inside steps of `kind`.
    pub fn share(&self, kind: StepKind) -> f64 {
        ratio(self.kind(kind).busy_ns, self.wall_ns)
    }

    /// Share of the traced wall time outside every step: the stepping loop,
    /// the timer reads and the kind inference.
    pub fn residual_share(&self) -> f64 {
        let busy: u64 = self.kinds.iter().map(|k| k.busy_ns).sum();
        ratio(self.wall_ns.saturating_sub(busy), self.wall_ns)
    }
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A host-time interval in nanoseconds since an arbitrary origin. With
    /// `self_ns` below it is the general definition of self time, against
    /// which the aggregated step profile is checked.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Interval {
        /// Inclusive start.
        start: u64,
        /// Exclusive end.
        end: u64,
    }

    impl Interval {
        /// Length of the interval (zero when `end <= start`).
        fn len(&self) -> u64 {
            self.end.saturating_sub(self.start)
        }
    }

    /// Self time of a span: its duration minus the part of it that its
    /// children cover. Children may overlap each other or stick out of the
    /// parent; only the union of their parts inside the parent counts.
    fn self_ns(span: Interval, children: &[Interval]) -> u64 {
        let mut clipped: Vec<Interval> = children
            .iter()
            .map(|c| Interval {
                start: c.start.max(span.start),
                end: c.end.min(span.end),
            })
            .filter(|c| c.end > c.start)
            .collect();
        clipped.sort_by_key(|c| c.start);
        let mut covered = 0;
        let mut reach = span.start;
        for c in clipped {
            let from = c.start.max(reach);
            if c.end > from {
                covered += c.end - from;
                reach = c.end;
            }
        }
        span.len() - covered
    }

    fn iv(start: u64, end: u64) -> Interval {
        Interval { start, end }
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        let span = iv(100, 200);
        assert_eq!(self_ns(span, &[]), 100);
        // Disjoint children.
        assert_eq!(self_ns(span, &[iv(110, 120), iv(150, 170)]), 70);
        // Overlapping children count their union once.
        assert_eq!(self_ns(span, &[iv(110, 140), iv(130, 160)]), 50);
        // A child nested in another adds nothing.
        assert_eq!(self_ns(span, &[iv(110, 190), iv(120, 130)]), 20);
        // Children are clipped to the parent.
        assert_eq!(self_ns(span, &[iv(50, 120), iv(190, 400)]), 70);
        // Order does not matter.
        assert_eq!(self_ns(span, &[iv(150, 170), iv(110, 120)]), 70);
        // Full coverage leaves nothing.
        assert_eq!(self_ns(span, &[iv(0, 1000)]), 0);
    }

    #[test]
    fn shares_and_residual_sum_to_one() {
        let mut p = StepProfile::default();
        let steps = [
            (StepKind::Slot, 40),
            (StepKind::Client, 25),
            (StepKind::Slot, 35),
            (StepKind::Other, 5),
        ];
        let mut t = 0;
        let mut children = Vec::new();
        for (kind, ns) in steps {
            t += 3; // stepping-loop gap before each step
            children.push(iv(t, t + ns));
            p.record(kind, ns);
            t += ns;
        }
        t += 7;
        p.close_drive(t);
        let total: f64 =
            StepKind::ALL.iter().map(|&k| p.share(k)).sum::<f64>() + p.residual_share();
        assert!((total - 1.0).abs() < 1e-12, "shares + residual = {total}");
        // The residual is exactly the drive span's self time.
        let drive_self = self_ns(iv(0, t), &children);
        assert_eq!(drive_self, 19);
        assert!((p.residual_share() - drive_self as f64 / t as f64).abs() < 1e-12);
        assert_eq!(p.self_ns_per_event(StepKind::Slot), 37.5);

        let mut pooled = p;
        pooled.merge(&p);
        let total: f64 =
            StepKind::ALL.iter().map(|&k| pooled.share(k)).sum::<f64>() + pooled.residual_share();
        assert!(
            (total - 1.0).abs() < 1e-12,
            "pooled shares + residual = {total}"
        );
        assert_eq!(pooled.kind(StepKind::Slot).events, 4);
        assert_eq!(pooled.wall_ns, 2 * p.wall_ns);
    }

    #[test]
    fn classification_reads_counters_before_the_clock() {
        let base = Snapshot {
            slots: 10,
            mc_accesses: 3,
            fleet_moves: 7,
        };
        let slot = Snapshot { slots: 11, ..base };
        let mc = Snapshot {
            mc_accesses: 4,
            ..base
        };
        let fleet = Snapshot {
            fleet_moves: 8,
            ..base
        };
        assert_eq!(classify(base, slot, 5.0), StepKind::Slot);
        // A slot that also completes accesses is still a slot.
        let busy_slot = Snapshot {
            slots: 11,
            fleet_moves: 9,
            ..base
        };
        assert_eq!(classify(base, busy_slot, 5.0), StepKind::Slot);
        // Measured-Client wakes land on integer times.
        assert_eq!(classify(base, mc, 40.0), StepKind::Client);
        assert_eq!(classify(base, fleet, 12.37), StepKind::Client);
        // A silent integer-time step is a slot while the server is down.
        assert_eq!(classify(base, base, 41.0), StepKind::Slot);
        assert_eq!(classify(base, base, 41.5), StepKind::Other);
    }
}
