//! The benchmark's workloads: which simulator cells each one runs, built
//! from the seed argument, and how one cell is run, timed and checked.

use crate::checks::{failures, CellOutcome, Expect};
use crate::reference::HostProbe;
use crate::trace::{classify, Snapshot, StepProfile};
use bpp_core::simulation::Phase;
use bpp_core::{
    analytic, AdmissionConfig, Algorithm, ClientPopulation, MeasurementProtocol, RetryPolicy,
    SystemConfig, World,
};
use bpp_sim::{Confidence, Engine};
use std::time::{Duration, Instant};

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's light-load operating point: an almost idle backchannel.
    PaperLight,
    /// The paper's saturated operating points: a full, dropping queue.
    PaperSaturated,
    /// A 10⁵-client fleet on four channels under a static fault config.
    FleetChaos,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::PaperLight,
        Workload::PaperSaturated,
        Workload::FleetChaos,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperLight => "paper_light",
            Workload::PaperSaturated => "paper_saturated",
            Workload::FleetChaos => "fleet_chaos",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The cells of repetition `rep` under the seed argument `seed`. Every
    /// cell's simulator seed derives from both, so repetitions differ and
    /// the same arguments always give the same inputs.
    pub fn cells(self, seed: u64, rep: u64) -> Vec<Cell> {
        let mut base = SystemConfig::paper_calibrated();
        base.steady_state_perc = 0.95;
        let cell = |idx: u64, name: &'static str, cfg: SystemConfig| Cell {
            name,
            cfg: SystemConfig {
                seed: derive_seed(seed, rep, idx),
                ..cfg
            },
            proto: MeasurementProtocol::paper(),
            warmup: false,
            expect: Expect {
                converged: true,
                ..Expect::default()
            },
        };
        let with = |algorithm: Algorithm, ttr: f64| SystemConfig {
            algorithm,
            think_time_ratio: ttr,
            pull_bw: 0.5,
            ..base.clone()
        };
        match self {
            Workload::PaperLight => {
                let mut push = cell(0, "push_ttr10", with(Algorithm::PurePush, 10.0));
                push.expect.push_oracle = true;
                let mut warm = cell(3, "ipp_warmup_ttr25", with(Algorithm::Ipp, 25.0));
                warm.warmup = true;
                warm.expect = Expect {
                    milestones: true,
                    ..Expect::default()
                };
                vec![
                    push,
                    cell(1, "ipp_ttr10", with(Algorithm::Ipp, 10.0)),
                    cell(2, "pull_ttr10", with(Algorithm::PurePull, 10.0)),
                    warm,
                ]
            }
            Workload::PaperSaturated => {
                // The paper protocol at a 10% (not 1.5%) confidence target:
                // both cells then stop at the protocol's minimum batch
                // count, about 5 s per repetition instead of about 20 s.
                let proto = MeasurementProtocol {
                    rel_precision: 0.10,
                    ..MeasurementProtocol::paper()
                };
                let mut ipp = cell(0, "ipp_ttr250", with(Algorithm::Ipp, 250.0));
                let mut pull = cell(1, "pull_ttr100", with(Algorithm::PurePull, 100.0));
                ipp.proto = proto;
                pull.proto = proto;
                vec![ipp, pull]
            }
            Workload::FleetChaos => {
                let mut cfg = with(Algorithm::Ipp, 25.0);
                cfg.server_queue_size = 1000;
                cfg.population = ClientPopulation::fleet(FLEET_CLIENTS);
                cfg.num_channels = 4;
                cfg.obs.enabled = true;
                let f = &mut cfg.fault;
                f.broadcast_loss = 0.02;
                f.request_loss = 0.02;
                f.brownout_period = 5000.0;
                f.brownout_duration = 200.0;
                f.crash.schedule = vec![100_000.0, 200_000.0, 300_000.0];
                f.crash.downtime = 100.0;
                f.crash.reconnect_jitter = 0.5;
                f.retry = RetryPolicy {
                    max_retries: 6,
                    base_timeout: 8.0,
                    backoff_factor: 2.0,
                    max_backoff: 64.0,
                    jitter: 0.1,
                };
                f.admission = AdmissionConfig {
                    rate: 2.0,
                    burst: 2.0,
                    retry_after: 32.0,
                };
                let mut chaos = cell(0, "fleet_chaos", cfg);
                chaos.proto.max_sim_time = FLEET_HORIZON;
                chaos.expect = Expect {
                    measuring: true,
                    faults_fire: true,
                    ..Expect::default()
                };
                vec![chaos]
            }
        }
    }

    /// Index of the cell whose config drives the standalone layer timings:
    /// the cell that stresses the layers this workload exists for.
    pub fn probe(self) -> usize {
        match self {
            Workload::PaperLight => 1,
            Workload::PaperSaturated => 0,
            Workload::FleetChaos => 0,
        }
    }

    /// Index (into [`cells`](Self::cells)) of the cheapest cell: it warms
    /// the process before timing and is re-run for the digest check.
    pub fn cheapest(self) -> usize {
        match self {
            Workload::PaperLight => 2,
            Workload::PaperSaturated => 1,
            Workload::FleetChaos => 0,
        }
    }
}

/// Fleet size of `fleet_chaos`.
pub const FLEET_CLIENTS: usize = 100_000;

/// Simulated horizon of `fleet_chaos`, in broadcast units.
pub const FLEET_HORIZON: f64 = 400_000.0;

/// One simulator run: a config, its protocol, and the checks it must pass.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Cell name within its workload.
    pub name: &'static str,
    /// The simulated system.
    pub cfg: SystemConfig,
    /// The measurement protocol.
    pub proto: MeasurementProtocol,
    /// A Figure-4 warm-up world instead of a steady-state one.
    pub warmup: bool,
    /// Which output checks apply.
    pub expect: Expect,
}

impl Cell {
    /// The same cell with the observability layer off.
    pub fn obs_off_twin(&self) -> Cell {
        let mut twin = self.clone();
        twin.cfg.obs.enabled = false;
        twin
    }
}

/// Host times and simulated results of one cell run.
#[derive(Debug, Clone)]
pub struct CellRun {
    /// The cell's name.
    pub name: &'static str,
    /// `World::steady_state` / `World::warmup_experiment`.
    pub build_ns: u64,
    /// `World::into_engine`.
    pub engine_ns: u64,
    /// First dispatch to the stop criterion.
    pub drive_ns: u64,
    /// What the cell simulated.
    pub outcome: CellOutcome,
    /// Output checks the cell failed.
    pub failures: Vec<String>,
}

/// Drive time between two host-probe passes within a cell run.
pub const PROBE_EVERY: Duration = Duration::from_millis(100);

/// Events between two clock reads while driving untraced.
const CLOCK_EVERY: u32 = 4096;

/// Build `cell`'s world and prime its engine, as a run does, and return
/// the nanoseconds that took. The world is dropped untimed.
pub fn setup_ns(cell: &Cell) -> u64 {
    let t0 = Instant::now();
    let engine = build(cell).into_engine();
    let ns = nanos(t0.elapsed());
    drop(engine);
    ns
}

fn build(cell: &Cell) -> World {
    if cell.warmup {
        World::warmup_experiment(&cell.cfg, &cell.proto)
    } else {
        World::steady_state(&cell.cfg, &cell.proto)
    }
}

/// Run one cell. With a profile, the engine is driven one `step` at a
/// time and every step is recorded as a span keyed by its inferred kind.
/// Without one, `run_while` drives it untouched, in segments of about
/// `PROBE_EVERY`; with a host probe, the probe's kernel is timed between
/// segments, outside the drive time.
pub fn run(
    cell: &Cell,
    profile: Option<&mut StepProfile>,
    mut host: Option<&mut HostProbe>,
) -> CellRun {
    let t0 = Instant::now();
    let world = build(cell);
    let t1 = Instant::now();
    let mut engine = world.into_engine();
    let t2 = Instant::now();
    let drive_ns = match profile {
        Some(p) => {
            drive_traced(&mut engine, p);
            nanos(t2.elapsed())
        }
        None => {
            let mut drive_ns = 0;
            loop {
                let start = Instant::now();
                let (mut n, mut paused) = (0u32, false);
                engine.run_while(|w| {
                    n = n.wrapping_add(1);
                    paused = n.is_multiple_of(CLOCK_EVERY) && start.elapsed() >= PROBE_EVERY;
                    !paused && !w.done()
                });
                drive_ns += nanos(start.elapsed());
                if !paused {
                    break;
                }
                if let Some(h) = host.as_deref_mut() {
                    h.sample();
                }
            }
            drive_ns
        }
    };
    let outcome = collect(cell, &engine);
    let failures = failures(cell.expect, &outcome);
    CellRun {
        name: cell.name,
        build_ns: nanos(t1 - t0),
        engine_ns: nanos(t2 - t1),
        drive_ns,
        outcome,
        failures,
    }
}

/// `run_while(|w| !w.done())`, one step at a time, with a span per step.
fn drive_traced(engine: &mut Engine<World>, profile: &mut StepProfile) {
    let start = Instant::now();
    let mut before = Snapshot::of(engine.model());
    while !engine.model().done() {
        let t0 = Instant::now();
        let stepped = engine.step();
        let t1 = Instant::now();
        if !stepped {
            break;
        }
        let after = Snapshot::of(engine.model());
        profile.record(classify(before, after, engine.now()), nanos(t1 - t0));
        before = after;
    }
    profile.close_drive(nanos(start.elapsed()));
}

fn collect(cell: &Cell, engine: &Engine<World>) -> CellOutcome {
    let w = engine.model();
    let bm = w.responses();
    let p = &cell.proto;
    CellOutcome {
        phase: w.phase(),
        converged: w.phase() == Phase::Measure
            && bm.count() < p.max_accesses
            && bm.converged(Confidence::P95, p.rel_precision, p.min_batches),
        mean: bm.mean(),
        half_width: if bm.completed_batches() >= 2 {
            bm.half_width(Confidence::P95)
        } else {
            f64::INFINITY
        },
        measured: bm.count(),
        batches: bm.completed_batches() as u64,
        sim_time: engine.now(),
        events: engine.dispatched(),
        slots: *w.slots(),
        queue: w.total_queue_stats(),
        mc: *w.mc().stats(),
        fleet: w.fleet().map(|f| (*f.stats(), f.flow().mean())),
        ledger: w.conservation_ledger(),
        admitted: w.crash_report().map_or(0, |c| c.admitted),
        milestones: w
            .mc()
            .warmup()
            .map(|t| t.milestones().to_vec())
            .unwrap_or_default(),
        push_analytic: cell
            .expect
            .push_oracle
            .then(|| analytic::push_response(&cell.cfg)),
    }
}

/// Whole nanoseconds of a duration (saturating; runs last seconds).
pub fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// SplitMix64 finalizer.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Simulator seed of cell `idx` in repetition `rep` under seed `seed`.
pub fn derive_seed(seed: u64, rep: u64, idx: u64) -> u64 {
    mix(mix(mix(seed) ^ rep) ^ idx)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_are_a_function_of_seed_and_repetition() {
        for w in Workload::ALL {
            let a = w.cells(7, 0);
            let b = w.cells(7, 0);
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.cfg, y.cfg);
            }
            let c = w.cells(7, 1);
            let d = w.cells(8, 0);
            for ((x, y), z) in a.iter().zip(&c).zip(&d) {
                assert_ne!(x.cfg.seed, y.cfg.seed);
                assert_ne!(x.cfg.seed, z.cfg.seed);
            }
            assert!(w.cheapest() < a.len());
            for cell in &a {
                cell.cfg.assert_valid();
            }
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn obs_off_twin_changes_only_the_obs_switch() {
        let cell = &Workload::FleetChaos.cells(1, 0)[0];
        assert!(cell.cfg.obs.enabled);
        let twin = cell.obs_off_twin();
        assert!(!twin.cfg.obs.enabled);
        let mut back = twin.cfg.clone();
        back.obs.enabled = true;
        assert_eq!(back, cell.cfg);
    }
}
