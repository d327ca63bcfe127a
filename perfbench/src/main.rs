//! The repository benchmark: runs one workload of the push/pull simulator
//! single-threaded, times it from outside through the public API, checks
//! that the simulated outputs are correct, and prints every metric by name
//! with its unit. The last line of standard output is one JSON object.
//!
//! ```text
//! bpp-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off.
//! `--trace 1` measures the per-layer metrics: paired untraced and traced
//! repetitions (a span per `Engine::step`, keyed by the inferred event
//! kind), exact counts from the simulator's public accessors, and
//! standalone timings of single layers. Metric names, units and the
//! layer → end-to-end predictions are listed in `BENCHMARK.json`.

mod cells;
mod checks;
mod layers;
mod reference;
mod trace;

use cells::{run, CellRun, Workload};
use checks::combine;
use reference::HostProbe;
use std::time::{Duration, Instant};
use trace::{StepKind, StepProfile};

/// Repetitions measured even when `--seconds` has already passed.
const MIN_REPS: u64 = 3;

/// Traced/untraced pairs measured even when the time budget is spent.
const MIN_PAIRS: u64 = 2;

/// Set-up-only builds of every cell per repetition, for `setup_s`.
const SETUP_BUILDS: usize = 4;

/// The end-to-end metrics (`--trace 0`), in report order, with units.
const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("sim_bu_per_s", "bu/s"),
    ("peak_rss_mib", "MiB"),
    ("ops_ok_frac", "frac"),
];

/// The per-layer metrics (`--trace 1`), in report order, with units.
const PER_LAYER: &[(&str, &str)] = &[
    ("sim.events", "count"),
    ("sim.events_per_s", "1/s"),
    ("sim.step.slot.events", "count"),
    ("sim.step.slot.self_ns", "ns"),
    ("sim.step.slot.share", "frac"),
    ("sim.step.client.events", "count"),
    ("sim.step.client.self_ns", "ns"),
    ("sim.step.client.share", "frac"),
    ("sim.step.other.events", "count"),
    ("sim.step.other.self_ns", "ns"),
    ("sim.step.other.share", "frac"),
    ("sim.step.residual_share", "frac"),
    ("sim.sched.op_ns", "ns"),
    ("workload.sample_ns", "ns"),
    ("broadcast.generate_s", "s"),
    ("broadcast.slots_until_present_ns", "ns"),
    ("broadcast.push_slots", "count"),
    ("broadcast.empty_slots", "count"),
    ("cache.lookup_ns", "ns"),
    ("client.mc.accesses", "count"),
    ("client.mc.hit_rate", "frac"),
    ("server.queue.submit_ns", "ns"),
    ("server.queue.pop_ns", "ns"),
    ("server.mux.decide_ns", "ns"),
    ("server.queue.received", "count"),
    ("server.queue.coalesced", "count"),
    ("server.queue.dropped_full", "count"),
    ("server.queue.served", "count"),
    ("server.queue.useful_ratio", "frac"),
    ("server.pull_slots", "count"),
    ("server.idle_slots", "count"),
    ("server.queue.est_share", "frac"),
    ("server.admission.reject_ratio", "frac"),
    ("client.fleet.accesses", "count"),
    ("client.fleet.hit_rate", "frac"),
    ("client.fleet.retries", "count"),
    ("client.fleet.retries_exhausted", "count"),
    ("client.fleet.retry_ratio", "frac"),
    ("core.world_build_s", "s"),
    ("core.into_engine_s", "s"),
    ("core.measured_accesses", "count"),
    ("core.events_per_measured_access", "event/access"),
    ("core.ledger.sent", "count"),
    ("core.ledger.lost_in_transit", "count"),
    ("core.ledger.browned_out", "count"),
    ("core.ledger.orphaned", "count"),
    ("core.ledger.admission_rejected", "count"),
    ("obs.cost_frac", "frac"),
    ("host.wall_s", "s"),
    ("host.slowdown", "ratio"),
    ("trace.wall_s", "s"),
    ("trace.overhead_frac", "frac"),
];

/// Command-line arguments.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: bpp-perfbench --workload <paper_light|paper_saturated|fleet_chaos> \
                     --seed <n> --seconds <n> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(v: &mut [f64]) -> f64 {
    assert!(!v.is_empty(), "median of an empty sample");
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Whether `name` is a valid metric name: starts with a letter or digit,
/// at most 64 of `[A-Za-z0-9_.-]`.
fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.chars().all(ok)
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
}

/// Output checks run so far: cells attempted, cells failed, and why.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    messages: Vec<String>,
}

impl Tally {
    /// Count one cell run, failed when its output checks failed or when
    /// `extra` names a further failure (a digest mismatch).
    fn cell(&mut self, what: &str, run: &CellRun, extra: Option<String>) {
        self.attempted += 1;
        let mut msgs: Vec<String> = run.failures.clone();
        msgs.extend(extra);
        if !msgs.is_empty() {
            self.failed += 1;
            for m in msgs {
                self.messages.push(format!("{what}: {m}"));
            }
        }
    }
}

/// Seconds of `ns` nanoseconds.
fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// One repetition of a workload: every cell, in order.
struct Rep {
    runs: Vec<CellRun>,
}

impl Rep {
    fn measure(
        w: Workload,
        seed: u64,
        rep: u64,
        mut profile: Option<&mut StepProfile>,
        mut host: Option<&mut HostProbe>,
    ) -> Rep {
        let runs = w
            .cells(seed, rep)
            .iter()
            .map(|c| run(c, profile.as_deref_mut(), host.as_deref_mut()))
            .collect();
        Rep { runs }
    }

    fn sum(&self, f: impl Fn(&CellRun) -> u64) -> u64 {
        self.runs.iter().map(f).sum()
    }

    /// Drive time of every cell.
    fn drive_s(&self) -> f64 {
        secs(self.sum(|r| r.drive_ns))
    }

    fn sim_time(&self) -> f64 {
        self.runs.iter().map(|r| r.outcome.sim_time).sum()
    }

    fn cell_digests(&self) -> Vec<(&'static str, u64)> {
        self.runs
            .iter()
            .map(|r| (r.name, r.outcome.digest()))
            .collect()
    }

    fn digest(&self) -> u64 {
        let d: Vec<u64> = self.runs.iter().map(|r| r.outcome.digest()).collect();
        combine(&d)
    }

    /// Count every cell's checks. With `twin`, the same repetition run
    /// untraced, each cell must also reproduce its twin's digest.
    fn tally(&self, rep: u64, tally: &mut Tally, twin: Option<&Rep>) {
        for (i, r) in self.runs.iter().enumerate() {
            let extra = twin.and_then(|t| {
                let (want, got) = (t.runs[i].outcome.digest(), r.outcome.digest());
                (got != want).then(|| format!("traced digest {got:016x} != {want:016x}"))
            });
            tally.cell(&format!("rep {rep} {}", r.name), r, extra);
        }
    }
}

/// A named metric value.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

/// Everything one invocation reports.
struct Report {
    metrics: Vec<Metric>,
    tally: Tally,
    digest: u64,
    cell_digests: Vec<(&'static str, u64)>,
}

impl Report {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }
}

/// Run the cheapest cell of repetition 0 before any timing: it warms the
/// process, and its digest must match the same cell inside repetition 0.
fn warm_up(w: Workload, seed: u64) -> CellRun {
    let cell = &w.cells(seed, 0)[w.cheapest()];
    run(cell, None, None)
}

/// Digest checks against repetition 0: the same-seed rerun of the cheapest
/// cell, and the obs-off twin of every obs-on cell.
fn digest_checks(w: Workload, seed: u64, warm: &CellRun, rep0: &Rep, tally: &mut Tally) {
    let i = w.cheapest();
    let want = rep0.runs[i].outcome.digest();
    let got = warm.outcome.digest();
    tally.cell(
        "same-seed rerun",
        warm,
        (got != want).then(|| format!("digest {got:016x} != {want:016x}")),
    );
    for (cell, on) in w.cells(seed, 0).iter().zip(&rep0.runs) {
        if cell.cfg.obs.enabled {
            let off = run(&cell.obs_off_twin(), None, None);
            let (a, b) = (off.outcome.digest(), on.outcome.digest());
            tally.cell(
                &format!("obs-off twin {}", cell.name),
                &off,
                (a != b).then(|| format!("digest {a:016x} != obs-on {b:016x}")),
            );
        }
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// `--trace 0`: the end-to-end metrics, tracing off. Host times are
/// divided by the host probe's slowdown over the run, so they read as
/// seconds at the reference speed; the raw figures are printed on a
/// `host` line.
fn end_to_end(a: Args) -> Report {
    let w = a.workload;
    let mut tally = Tally::default();
    let warm = warm_up(w, a.seed);
    let budget = Duration::from_secs(a.seconds);
    let start = Instant::now();
    let mut host = HostProbe::default();
    let n_cells = w.cells(a.seed, 0).len();
    let mut builds: Vec<Vec<f64>> = vec![Vec::new(); n_cells];
    let mut reps = Vec::new();
    for rep in 0.. {
        let r = Rep::measure(w, a.seed, rep, None, Some(&mut host));
        r.tally(rep, &mut tally, None);
        for (cell, v) in w.cells(a.seed, rep).iter().zip(&mut builds) {
            v.extend((0..SETUP_BUILDS).map(|_| cells::setup_ns(cell) as f64));
        }
        eprintln!(
            "rep {rep}: wall {:.4} s, {} events, {:.0} bu",
            r.drive_s(),
            r.sum(|c| c.outcome.events),
            r.sim_time()
        );
        reps.push(r);
        if rep + 1 >= MIN_REPS && start.elapsed() >= budget {
            break;
        }
    }
    digest_checks(w, a.seed, &warm, &reps[0], &mut tally);

    // Drive times are a time average over the run, and so is the probe's
    // mean slowdown. Builds are short samples, medians per cell, and so is
    // the probe's median slowdown.
    let slowdown = host.slowdown();
    let typical = host.median_slowdown();
    let drive: f64 = reps.iter().map(Rep::drive_s).sum();
    let wall = drive / reps.len() as f64;
    let rate = reps.iter().map(Rep::sim_time).sum::<f64>() / drive;
    let setup = builds.iter_mut().map(|v| median(v)).sum::<f64>() / 1e9;
    println!(
        "host wall_s={wall} setup_s={setup} sim_bu_per_s={rate} slowdown={slowdown} \
         median_slowdown={typical} probes={} reps={}",
        host.len(),
        reps.len()
    );
    let mut report = Report {
        metrics: Vec::new(),
        digest: reps[0].digest(),
        cell_digests: reps[0].cell_digests(),
        tally,
    };
    report.put("wall_s", wall / slowdown, "s");
    report.put("setup_s", setup / typical, "s");
    report.put("sim_bu_per_s", rate * slowdown, "bu/s");
    report.put("peak_rss_mib", peak_rss_mib(), "MiB");
    let t = &report.tally;
    let ok = 1.0 - ratio(t.failed as f64, t.attempted as f64);
    report.put("ops_ok_frac", ok, "frac");
    eprintln!("measured {} repetitions", reps.len());
    report
}

/// `--trace 1`: the per-layer metrics.
fn per_layer(a: Args) -> Report {
    let w = a.workload;
    let mut tally = Tally::default();
    let warm = warm_up(w, a.seed);
    // Pairs take most of the budget; the standalone layer timings after
    // them take about two seconds.
    let budget = Duration::from_secs(a.seconds).mul_f64(0.8);
    let start = Instant::now();
    let (mut plain, mut traced, mut profiles, mut obs_off) = (vec![], vec![], vec![], vec![]);
    let mut host = HostProbe::default();
    for rep in 0.. {
        let mut profile = StepProfile::default();
        let cells = w.cells(a.seed, rep);
        // The obs-off twins of the obs-on cells, for the obs cost.
        let twins = |host: &mut HostProbe| -> Vec<CellRun> {
            cells
                .iter()
                .filter(|c| c.cfg.obs.enabled)
                .map(|c| run(&c.obs_off_twin(), None, Some(&mut *host)))
                .collect()
        };
        // Alternate the order, so drift favours no side: the untraced run,
        // its obs-off twins, then the traced run; or the reverse.
        let (p, twins, t) = if rep % 2 == 0 {
            let p = Rep::measure(w, a.seed, rep, None, Some(&mut host));
            let twins = twins(&mut host);
            let t = Rep::measure(w, a.seed, rep, Some(&mut profile), None);
            (p, twins, t)
        } else {
            let t = Rep::measure(w, a.seed, rep, Some(&mut profile), None);
            let twins = twins(&mut host);
            let p = Rep::measure(w, a.seed, rep, None, Some(&mut host));
            (p, twins, t)
        };
        p.tally(rep, &mut tally, None);
        t.tally(rep, &mut tally, Some(&p));
        if !twins.is_empty() {
            let on: u64 = cells
                .iter()
                .zip(&p.runs)
                .filter(|(c, _)| c.cfg.obs.enabled)
                .map(|(_, r)| r.drive_ns)
                .sum();
            let off: u64 = twins.iter().map(|r| r.drive_ns).sum();
            obs_off.push(on as f64 / off as f64 - 1.0);
        }
        plain.push(p);
        traced.push(t);
        profiles.push(profile);
        if rep + 1 >= MIN_PAIRS && start.elapsed() >= budget {
            break;
        }
    }
    digest_checks(w, a.seed, &warm, &plain[0], &mut tally);

    let rep0 = &plain[0];
    let outs: Vec<&checks::CellOutcome> = rep0.runs.iter().map(|r| &r.outcome).collect();
    let sum = |f: &dyn Fn(&checks::CellOutcome) -> u64| -> u64 { outs.iter().map(|o| f(o)).sum() };
    let per_rep = |f: &dyn Fn(usize) -> f64| -> f64 {
        let mut v: Vec<f64> = (0..plain.len()).map(f).collect();
        median(&mut v)
    };
    let wall_ns = per_rep(&|i| plain[i].drive_s() * 1e9);

    let mut r = Report {
        metrics: Vec::new(),
        digest: rep0.digest(),
        cell_digests: rep0.cell_digests(),
        tally,
    };

    // --- sim ---
    let events = sum(&|o| o.events);
    r.put("sim.events", events as f64, "count");
    r.put(
        "sim.events_per_s",
        per_rep(&|i| plain[i].sum(|c| c.outcome.events) as f64 / plain[i].drive_s()),
        "1/s",
    );
    // Self times and shares pool every traced repetition, so the shares
    // and the residual account for the pooled traced wall time exactly.
    let mut pooled = StepProfile::default();
    for p in &profiles {
        pooled.merge(p);
    }
    for kind in StepKind::ALL {
        let l = kind.label();
        let ev = profiles[0].kind(kind).events;
        r.put(format!("sim.step.{l}.events"), ev as f64, "count");
        r.put(
            format!("sim.step.{l}.self_ns"),
            pooled.self_ns_per_event(kind),
            "ns",
        );
        r.put(format!("sim.step.{l}.share"), pooled.share(kind), "frac");
    }
    r.put("sim.step.residual_share", pooled.residual_share(), "frac");
    let accounted: f64 =
        StepKind::ALL.iter().map(|&k| pooled.share(k)).sum::<f64>() + pooled.residual_share();
    if (accounted - 1.0).abs() > 1e-9 {
        r.tally.failed += 1;
        r.tally
            .messages
            .push(format!("step shares + residual = {accounted}, not 1"));
    }
    let probe = &w.cells(a.seed, 0)[w.probe()];
    let cfg = &probe.cfg;
    let depth = 2 + cfg.population.fleet_clients;
    r.put("sim.sched.op_ns", layers::sched_op_ns(depth, a.seed), "ns");

    // --- workload ---
    r.put("workload.sample_ns", layers::sample_ns(cfg, a.seed), "ns");

    // --- broadcast ---
    let broadcast = layers::generate(cfg);
    r.put("broadcast.generate_s", layers::generate_s(cfg), "s");
    r.put(
        "broadcast.slots_until_present_ns",
        layers::slots_until_present_ns(&broadcast, a.seed),
        "ns",
    );
    r.put(
        "broadcast.push_slots",
        sum(&|o| o.slots.push_pages) as f64,
        "count",
    );
    r.put(
        "broadcast.empty_slots",
        sum(&|o| o.slots.empty) as f64,
        "count",
    );

    // --- cache ---
    r.put(
        "cache.lookup_ns",
        layers::cache_lookup_ns(cfg, &broadcast, a.seed),
        "ns",
    );
    let mc_accesses = sum(&|o| o.mc.accesses);
    r.put("client.mc.accesses", mc_accesses as f64, "count");
    r.put(
        "client.mc.hit_rate",
        ratio(sum(&|o| o.mc.hits) as f64, mc_accesses as f64),
        "frac",
    );

    // --- server ---
    // Queue timings at the probe cell's own peak depth.
    let peak = outs[w.probe()].ledger.peak_queue_depth;
    let (submit_ns, pop_ns) = layers::queue_ns(cfg, peak as usize, a.seed);
    r.put("server.queue.submit_ns", submit_ns, "ns");
    r.put("server.queue.pop_ns", pop_ns, "ns");
    r.put(
        "server.mux.decide_ns",
        layers::mux_decide_ns(cfg, a.seed),
        "ns",
    );
    let received = sum(&|o| o.queue.received);
    let served = sum(&|o| o.queue.served);
    r.put("server.queue.received", received as f64, "count");
    r.put(
        "server.queue.coalesced",
        sum(&|o| o.queue.coalesced) as f64,
        "count",
    );
    r.put(
        "server.queue.dropped_full",
        sum(&|o| o.queue.dropped_full) as f64,
        "count",
    );
    r.put("server.queue.served", served as f64, "count");
    r.put(
        "server.queue.useful_ratio",
        ratio(sum(&|o| o.queue.served_requests) as f64, received as f64),
        "frac",
    );
    r.put(
        "server.pull_slots",
        sum(&|o| o.slots.pull_pages) as f64,
        "count",
    );
    r.put("server.idle_slots", sum(&|o| o.slots.idle) as f64, "count");
    r.put(
        "server.queue.est_share",
        ratio(
            received as f64 * submit_ns + served as f64 * pop_ns,
            wall_ns,
        ),
        "frac",
    );
    let rejected = sum(&|o| o.ledger.admission_rejected);
    r.put(
        "server.admission.reject_ratio",
        ratio(rejected as f64, (rejected + sum(&|o| o.admitted)) as f64),
        "frac",
    );

    // --- client (fleet) ---
    let fleet = |f: &dyn Fn(&bpp_client::FleetStats) -> u64| -> u64 {
        outs.iter()
            .filter_map(|o| o.fleet)
            .map(|(s, _)| f(&s))
            .sum()
    };
    let f_acc = fleet(&|s| s.accesses);
    let f_retries = fleet(&|s| s.retries);
    r.put("client.fleet.accesses", f_acc as f64, "count");
    r.put(
        "client.fleet.hit_rate",
        ratio(fleet(&|s| s.hits) as f64, f_acc as f64),
        "frac",
    );
    r.put("client.fleet.retries", f_retries as f64, "count");
    r.put(
        "client.fleet.retries_exhausted",
        fleet(&|s| s.retries_exhausted) as f64,
        "count",
    );
    r.put(
        "client.fleet.retry_ratio",
        ratio(f_retries as f64, fleet(&|s| s.requests_sent) as f64),
        "frac",
    );

    // --- core ---
    r.put(
        "core.world_build_s",
        per_rep(&|i| secs(plain[i].sum(|c| c.build_ns))),
        "s",
    );
    r.put(
        "core.into_engine_s",
        per_rep(&|i| secs(plain[i].sum(|c| c.engine_ns))),
        "s",
    );
    let measured = sum(&|o| o.measured);
    r.put("core.measured_accesses", measured as f64, "count");
    r.put(
        "core.events_per_measured_access",
        ratio(events as f64, measured as f64),
        "event/access",
    );
    r.put("core.ledger.sent", sum(&|o| o.ledger.sent) as f64, "count");
    r.put(
        "core.ledger.lost_in_transit",
        sum(&|o| o.ledger.lost_in_transit) as f64,
        "count",
    );
    r.put(
        "core.ledger.browned_out",
        sum(&|o| o.ledger.browned_out) as f64,
        "count",
    );
    r.put(
        "core.ledger.orphaned",
        sum(&|o| o.ledger.orphaned) as f64,
        "count",
    );
    r.put("core.ledger.admission_rejected", rejected as f64, "count");

    // --- obs and the trace itself ---
    let obs_cost = if obs_off.is_empty() {
        0.0
    } else {
        median(&mut obs_off)
    };
    r.put("obs.cost_frac", obs_cost, "frac");
    r.put("host.wall_s", wall_ns / 1e9, "s");
    r.put("host.slowdown", host.slowdown(), "ratio");
    r.put("trace.wall_s", per_rep(&|i| secs(profiles[i].wall_ns)), "s");
    r.put(
        "trace.overhead_frac",
        per_rep(&|i| traced[i].drive_s() / plain[i].drive_s() - 1.0),
        "frac",
    );
    eprintln!("measured {} traced/untraced pairs", plain.len());
    r
}

fn json_report(r: &Report) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.tally.failed == 0,
        r.tally.attempted,
        r.tally.failed,
        metrics.join(", ")
    )
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bpp-perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let mut report = if args.trace {
        per_layer(args)
    } else {
        end_to_end(args)
    };
    let declared = if args.trace { PER_LAYER } else { END_TO_END };
    let emitted: Vec<(&str, &str)> = report
        .metrics
        .iter()
        .map(|m| (m.name.as_str(), m.unit))
        .collect();
    if emitted != declared {
        report.tally.failed += 1;
        report
            .tally
            .messages
            .push("emitted metrics differ from the declared list".to_string());
    }
    for m in &report.metrics {
        if !valid_name(&m.name) || !m.value.is_finite() {
            report.tally.failed += 1;
            report
                .tally
                .messages
                .push(format!("metric {} = {} is not reportable", m.name, m.value));
        }
    }
    for m in &report.tally.messages {
        eprintln!("FAILED {m}");
        println!("FAILED {m}");
    }
    let name = args.workload.name();
    for (cell, d) in &report.cell_digests {
        println!("cell_digest {name} {cell} {d:016x}");
    }
    println!(
        "sim_digest {name} seed={} {:016x}",
        args.seed, report.digest
    );
    for m in &report.metrics {
        println!("metric {} {} {}", m.name, m.value, m.unit);
    }
    println!("{}", json_report(&report));
    if report.tally.failed > 0 {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpp_json::Json;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn arguments_parse_and_reject() {
        let a = parse_args(&argv(
            "--workload fleet_chaos --seed 9 --seconds 5 --trace 1",
        ));
        assert_eq!(
            a,
            Ok(Args {
                workload: Workload::FleetChaos,
                seed: 9,
                seconds: 5,
                trace: true,
            })
        );
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload paper_light --seed x --seconds 1 --trace 0",
            "--workload paper_light --seed 1 --seconds 1 --trace 2",
            "--workload paper_light --seed 1 --seconds 1",
            "--workload paper_light --seed 1 --seconds 1 --trace 0 --bogus 1",
            "--workload paper_light --seed",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn metric_names_are_valid() {
        for good in [
            "wall_s",
            "sim.step.slot.self_ns",
            "core.ledger.sent",
            "9a-b",
        ] {
            assert!(valid_name(good), "{good}");
        }
        for bad in ["", ".x", "-x", "a b", "a/b", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    /// Every name in `BENCHMARK.json` is valid, and the metric lists there
    /// are exactly the ones the benchmark prints.
    #[test]
    fn benchmark_json_matches_the_reported_metrics() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let name = m.get("name").and_then(Json::as_str).expect("name");
                    let unit = m.get("unit").and_then(Json::as_str).expect("unit");
                    assert!(valid_name(name), "{name}");
                    (name.to_string(), unit.to_string())
                })
                .collect()
        };
        let e2e = names("end_to_end");
        let layer = names("per_layer");
        assert_eq!(e2e, owned(END_TO_END));
        assert_eq!(layer, owned(PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn report_line_is_one_json_object_with_exactly_the_contract_keys() {
        let mut r = Report {
            metrics: Vec::new(),
            tally: Tally {
                attempted: 4,
                failed: 0,
                messages: Vec::new(),
            },
            digest: 0,
            cell_digests: Vec::new(),
        };
        r.put("wall_s", 1.25, "s");
        r.put("setup_s", 0.000123456789, "s");
        let doc = Json::parse(&json_report(&r)).expect("valid JSON");
        assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(doc.get("attempted").and_then(Json::as_u64), Some(4));
        assert_eq!(doc.get("failed").and_then(Json::as_u64), Some(0));
        let m = doc.get("metrics").expect("metrics");
        let setup = m.get("setup_s").expect("setup_s");
        assert_eq!(
            setup.get("value").and_then(Json::as_f64),
            Some(0.000123456789)
        );
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
    }
}
