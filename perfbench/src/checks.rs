//! What a cell simulated, the checks that decide whether it simulated it
//! correctly, and the digest later simulator-only changes cite unchanged.

use bpp_client::{FleetStats, McStats};
use bpp_core::simulation::Phase;
use bpp_core::{ConservationLedger, SlotAccounting};
use bpp_server::queue::QueueStats;
use std::cmp::Ordering;

/// Which output checks apply to a cell.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Expect {
    /// A steady-state cell run to convergence: it must end in
    /// `Phase::Measure` with a converged estimate.
    pub converged: bool,
    /// A fixed-horizon steady-state cell: it must reach `Phase::Measure`.
    pub measuring: bool,
    /// Pure-Push at Noise 0: the mean must match `analytic::push_response`.
    pub push_oracle: bool,
    /// A chaos cell: the conservation ledger must balance and every fault
    /// source must have fired.
    pub faults_fire: bool,
    /// A warm-up cell: every cache milestone must be reached.
    pub milestones: bool,
}

/// Everything a finished cell simulated (no host time).
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// Final measurement phase.
    pub phase: Phase,
    /// The run's own convergence verdict (the `run_steady_state` rule).
    pub converged: bool,
    /// Batch-means mean response (broadcast units).
    pub mean: f64,
    /// 95% confidence half-width of the mean (infinite below two batches).
    pub half_width: f64,
    /// Measured MC accesses.
    pub measured: u64,
    /// Completed batches.
    pub batches: u64,
    /// Final simulated time.
    pub sim_time: f64,
    /// Events dispatched.
    pub events: u64,
    /// Slot accounting.
    pub slots: SlotAccounting,
    /// Whole-run queue statistics over every pull shard.
    pub queue: QueueStats,
    /// Measured Client counters.
    pub mc: McStats,
    /// Fleet counters and mean flow time, under a fleet population.
    pub fleet: Option<(FleetStats, f64)>,
    /// The request conservation ledger.
    pub ledger: ConservationLedger,
    /// Requests the admission bucket let through (0 without admission).
    pub admitted: u64,
    /// Warm-up milestone times (warm-up cells only).
    pub milestones: Vec<Option<f64>>,
    /// `analytic::push_response` for the cell's config, when the
    /// Pure-Push oracle applies.
    pub push_analytic: Option<f64>,
}

/// Width of the Pure-Push oracle band in 95% half-widths. Three keep the
/// chance that a correct run fails below one in a million cells (the
/// benchmark checks thousands per measurement campaign) while a mean
/// shifted by a few broadcast units still fails.
pub const PUSH_ORACLE_HALF_WIDTHS: f64 = 3.0;

/// Every check a cell fails, as readable messages (empty when correct).
pub fn failures(expect: Expect, o: &CellOutcome) -> Vec<String> {
    let mut f = Vec::new();
    if (expect.converged || expect.measuring) && o.phase != Phase::Measure {
        f.push(format!("ended in {:?}, not Measure", o.phase));
    }
    if expect.converged && !o.converged {
        f.push(format!(
            "did not converge: mean {} ± {} after {} accesses",
            o.mean, o.half_width, o.measured
        ));
    }
    if expect.push_oracle {
        match o.push_analytic {
            Some(want) => {
                let bound = PUSH_ORACLE_HALF_WIDTHS * o.half_width;
                let off = (o.mean - want).abs();
                // A NaN mean or bound compares as None and fails too.
                if !matches!(
                    off.partial_cmp(&bound),
                    Some(Ordering::Less | Ordering::Equal)
                ) {
                    f.push(format!(
                        "Pure-Push mean {} is {off} from analytic {want}, beyond {bound}",
                        o.mean
                    ));
                }
            }
            None => f.push("Pure-Push oracle value missing".to_string()),
        }
    }
    if expect.faults_fire {
        for v in o.ledger.violations() {
            f.push(format!("ledger: {v}"));
        }
        if o.ledger.time_regressions != 0 {
            f.push(format!("{} time regressions", o.ledger.time_regressions));
        }
        if o.ledger.orphaned == 0 {
            f.push("no request was orphaned by a crash".to_string());
        }
        if o.ledger.admission_rejected == 0 {
            f.push("admission control rejected nothing".to_string());
        }
        let retries = o.fleet.map_or(0, |(s, _)| s.retries);
        if retries == 0 {
            f.push("no fleet client retried".to_string());
        }
    }
    if expect.milestones {
        if o.milestones.is_empty() {
            f.push("no warm-up milestones recorded".to_string());
        }
        let missed = o.milestones.iter().filter(|m| m.is_none()).count();
        if missed > 0 {
            f.push(format!("{missed} warm-up milestones never reached"));
        }
    }
    f
}

/// FNV-1a over 64-bit words: small, stable, and independent of the
/// standard library's unspecified hasher.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Mix one word.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Mix a float bit for bit.
    pub fn float(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    /// The digest so far.
    pub fn value(&self) -> u64 {
        self.0
    }
}

impl CellOutcome {
    /// Digest of every simulated statistic of the cell.
    pub fn digest(&self) -> u64 {
        let mut d = Digest::default();
        d.word(match self.phase {
            Phase::CacheWarmup => 0,
            Phase::Skip => 1,
            Phase::Measure => 2,
            Phase::WarmupExperiment => 3,
        });
        d.word(u64::from(self.converged));
        d.float(self.mean);
        d.float(self.half_width);
        d.word(self.measured);
        d.word(self.batches);
        d.float(self.sim_time);
        d.word(self.events);
        let s = self.slots;
        for w in [s.push_pages, s.pull_pages, s.empty, s.idle] {
            d.word(w);
        }
        let q = self.queue;
        for w in [
            q.received,
            q.enqueued,
            q.coalesced,
            q.dropped_full,
            q.dropped_evicted,
            q.served,
            q.served_requests,
            q.evicted_requests,
        ] {
            d.word(w);
        }
        let m = self.mc;
        for w in [m.accesses, m.hits, m.misses, m.requests_sent, m.completed] {
            d.word(w);
        }
        if let Some((fs, flow)) = self.fleet {
            for w in [
                fs.accesses,
                fs.hits,
                fs.requests_sent,
                fs.requests_filtered,
                fs.completed,
                fs.retries,
                fs.retries_exhausted,
            ] {
                d.word(w);
            }
            d.float(flow);
        }
        let l = self.ledger;
        for w in [
            l.sent,
            l.lost_in_transit,
            l.browned_out,
            l.orphaned,
            l.admission_rejected,
            l.dropped_full,
            l.evicted,
            l.served,
            l.in_flight_at_end,
            l.peak_queue_depth,
            l.queue_capacity,
            l.time_regressions,
        ] {
            d.word(w);
        }
        d.word(self.admitted);
        for m in &self.milestones {
            d.float(m.unwrap_or(-1.0));
        }
        d.value()
    }
}

/// Digest of a sequence of cell digests (a workload's repetition).
pub fn combine(digests: &[u64]) -> u64 {
    let mut d = Digest::default();
    for &x in digests {
        d.word(x);
    }
    d.value()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A correct Pure-Push cell as measured at seed 1: 262.18 ± 3.93
    /// against the closed form's 261.41.
    fn push_cell() -> CellOutcome {
        CellOutcome {
            phase: Phase::Measure,
            converged: true,
            mean: 262.18,
            half_width: 3.93,
            measured: 21_500,
            batches: 43,
            sim_time: 7.3e6,
            events: 7_340_526,
            slots: SlotAccounting::default(),
            queue: QueueStats::default(),
            mc: McStats::default(),
            fleet: None,
            ledger: ConservationLedger::default(),
            admitted: 0,
            milestones: Vec::new(),
            push_analytic: Some(261.41),
        }
    }

    fn chaos_cell() -> CellOutcome {
        let ledger = ConservationLedger {
            sent: 1_000,
            lost_in_transit: 20,
            browned_out: 30,
            orphaned: 40,
            admission_rejected: 50,
            dropped_full: 60,
            evicted: 0,
            served: 790,
            in_flight_at_end: 10,
            peak_queue_depth: 900,
            queue_capacity: 1_000,
            time_regressions: 0,
        };
        let fleet = FleetStats {
            retries: 5,
            ..FleetStats::default()
        };
        CellOutcome {
            ledger,
            fleet: Some((fleet, 4.5)),
            ..push_cell()
        }
    }

    const PUSH: Expect = Expect {
        converged: true,
        measuring: false,
        push_oracle: true,
        faults_fire: false,
        milestones: false,
    };

    const CHAOS: Expect = Expect {
        converged: false,
        measuring: true,
        push_oracle: false,
        faults_fire: true,
        milestones: false,
    };

    #[test]
    fn correct_cells_pass() {
        assert!(failures(PUSH, &push_cell()).is_empty());
        assert!(failures(CHAOS, &chaos_cell()).is_empty());
    }

    #[test]
    fn push_mean_outside_its_bound_fails() {
        let mut o = push_cell();
        o.mean = 261.41 + 3.0 * 3.93 + 0.01;
        assert_eq!(failures(PUSH, &o).len(), 1);
        o.mean = 261.41 - 3.0 * 3.93 - 0.01;
        assert_eq!(failures(PUSH, &o).len(), 1);
        o.mean = f64::NAN;
        assert_eq!(failures(PUSH, &o).len(), 1);
        o.push_analytic = None;
        assert_eq!(failures(PUSH, &o).len(), 1);
    }

    #[test]
    fn a_ledger_bucket_off_by_one_fails() {
        for bump in 0..4 {
            let mut o = chaos_cell();
            match bump {
                0 => o.ledger.served += 1,
                1 => o.ledger.lost_in_transit -= 1,
                2 => o.ledger.sent += 1,
                _ => o.ledger.in_flight_at_end += 1,
            }
            assert!(!failures(CHAOS, &o).is_empty(), "bump {bump}");
        }
    }

    #[test]
    fn silent_fault_sources_fail() {
        let mut o = chaos_cell();
        o.ledger.orphaned = 0;
        o.ledger.served += 40;
        assert_eq!(failures(CHAOS, &o).len(), 1);
        let mut o = chaos_cell();
        o.fleet = Some((FleetStats::default(), 4.5));
        assert_eq!(failures(CHAOS, &o).len(), 1);
        let mut o = chaos_cell();
        o.ledger.time_regressions = 1;
        assert!(!failures(CHAOS, &o).is_empty());
    }

    #[test]
    fn unconverged_and_unfinished_cells_fail() {
        let mut o = push_cell();
        o.converged = false;
        assert_eq!(failures(PUSH, &o).len(), 1);
        o.phase = Phase::Skip;
        assert_eq!(failures(PUSH, &o).len(), 2);
        let warm = Expect {
            milestones: true,
            ..Expect::default()
        };
        let mut o = push_cell();
        o.milestones = vec![Some(1.0), Some(2.0)];
        assert!(failures(warm, &o).is_empty());
        o.milestones.push(None);
        assert_eq!(failures(warm, &o).len(), 1);
    }

    #[test]
    fn digest_sees_every_statistic() {
        let base = chaos_cell();
        let d = base.digest();
        assert_eq!(d, chaos_cell().digest());
        let mut o = base.clone();
        o.mean = f64::from_bits(o.mean.to_bits() + 1);
        assert_ne!(o.digest(), d);
        let mut o = base.clone();
        o.ledger.peak_queue_depth += 1;
        assert_ne!(o.digest(), d);
        let mut o = base.clone();
        o.queue.coalesced += 1;
        assert_ne!(o.digest(), d);
        let mut o = base.clone();
        o.fleet = Some((FleetStats::default(), 4.5));
        assert_ne!(o.digest(), d);
        // The oracle value is an input to a check, not a simulated output.
        let mut o = base;
        o.push_analytic = None;
        assert_eq!(o.digest(), d);
        assert_ne!(combine(&[1, 2]), combine(&[2, 1]));
    }
}
