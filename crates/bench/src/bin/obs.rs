//! Observability scenario: run one obs-enabled cell and render what the
//! deterministic observability layer collected, plus a `--smoke` mode
//! emitting the full serialized result as JSON for the CI golden-file check.
//!
//! Default mode runs an IPP cell with the obs layer on (and 10% symmetric
//! loss so the retry/saturation traces have something to record) and prints
//! three tables: the counter registry, a per-timeline summary, and the tail
//! of the trace ring. `--smoke` runs one fixed cell — the small system, IPP
//! PullBW 50%, ThinkTimeRatio 1, 10% symmetric loss, seed 42, quick
//! protocol — and prints the complete `SteadyStateResult` (including its
//! `obs` section); `scripts/ci.sh` compares the output byte-for-byte
//! against `results/obs_smoke.json`.
//!
//! `--smoke-full` pins every per-slot timeline the layer can produce: two
//! fixed 20 000-unit cells with a 200-client fleet, scheduled crashes,
//! brownouts, loss with retries, and the `mc_hit_rate` and `disk_share`
//! knobs on. The single-channel cell uses a fractional 0.3-unit stride, so
//! its timelines downsample eight times; the four-channel cell (333.3-unit
//! stride) adds the per-channel depth, share and brownout-state series. The
//! output is one JSON object `{"k1": …, "k4": …}` of the two
//! `SteadyStateResult`s;
//! `scripts/ci.sh` compares it byte-for-byte against
//! `results/obs_full_smoke.json`.

use bpp_bench::Opts;
use bpp_core::report::{fmt_units, Table};
use bpp_core::{
    run_steady_state, Algorithm, ClientPopulation, FaultConfig, MeasurementProtocol,
    SteadyStateResult, SystemConfig,
};
use bpp_json::{Json, ToJson};
use bpp_obs::ObsReport;

fn smoke() {
    let mut cfg = SystemConfig::small();
    cfg.algorithm = Algorithm::Ipp;
    cfg.pull_bw = 0.5;
    cfg.thres_perc = 0.0;
    cfg.steady_state_perc = 0.95;
    cfg.think_time_ratio = 1.0;
    cfg.seed = 42;
    cfg.fault = FaultConfig::lossy(0.10);
    cfg.obs.enabled = true;
    let r = run_steady_state(&cfg, &MeasurementProtocol::quick());
    assert!(r.obs.is_some(), "obs layer enabled");
    println!("{}", bpp_json::to_string_pretty(&r));
}

/// One `--smoke-full` cell: every slot-sampled obs series switched on.
fn full_cell(num_channels: usize, stride: f64) -> SteadyStateResult {
    let mut cfg = SystemConfig::small();
    cfg.algorithm = Algorithm::Ipp;
    cfg.pull_bw = 0.5;
    cfg.thres_perc = 0.0;
    cfg.steady_state_perc = 0.95;
    cfg.think_time_ratio = 10.0;
    cfg.seed = 7;
    cfg.num_channels = num_channels;
    cfg.population = ClientPopulation::fleet(200);
    let mut fault = FaultConfig::lossy(0.02);
    fault.brownout_period = 700.0;
    fault.brownout_duration = 60.0;
    fault.crash.schedule = vec![1_500.0, 4_000.0];
    fault.crash.downtime = 40.0;
    cfg.fault = fault;
    cfg.obs.enabled = true;
    cfg.obs.timeline_stride = stride;
    cfg.obs.mc_hit_rate = true;
    cfg.obs.disk_share = true;
    let proto = MeasurementProtocol {
        max_sim_time: 20_000.0,
        ..MeasurementProtocol::quick()
    };
    let r = run_steady_state(&cfg, &proto);
    assert!(r.obs.is_some(), "obs layer enabled");
    r
}

fn smoke_full() {
    let report = Json::object([
        ("k1", full_cell(1, 0.3).to_json()),
        ("k4", full_cell(4, 333.3).to_json()),
    ]);
    println!("{}", bpp_json::to_string_pretty(&report));
}

fn counters_table(report: &ObsReport) -> Table {
    let mut t = Table::new("Observability — counters".to_string(), &["name", "value"]);
    for (name, value) in report.metrics.counters() {
        t.push_row(vec![name.to_string(), value.to_string()]);
    }
    t
}

fn gauges_table(report: &ObsReport) -> Option<Table> {
    let mut t = Table::new("Observability — gauges".to_string(), &["name", "value"]);
    let mut any = false;
    for (name, value) in report.metrics.gauges() {
        t.push_row(vec![name.to_string(), fmt_units(value)]);
        any = true;
    }
    any.then_some(t)
}

fn timelines_table(report: &ObsReport) -> Table {
    let mut t = Table::new(
        "Observability — timelines".to_string(),
        &["series", "stride", "points", "peak mean", "peak max"],
    );
    for (name, series) in &report.timelines {
        let points = series.points();
        let peak_mean = points.iter().map(|&(_, m, _)| m).fold(0.0_f64, f64::max);
        let peak_max = points.iter().map(|&(_, _, x)| x).fold(0.0_f64, f64::max);
        t.push_row(vec![
            name.clone(),
            fmt_units(series.stride()),
            points.len().to_string(),
            fmt_units(peak_mean),
            fmt_units(peak_max),
        ]);
    }
    t
}

fn trace_table(report: &ObsReport) -> Table {
    let mut t = Table::new(
        format!(
            "Observability — trace tail ({} kept, {} dropped)",
            report.trace.len(),
            report.trace.dropped()
        ),
        &["t", "label", "value"],
    );
    const TAIL: usize = 10;
    let skip = report.trace.len().saturating_sub(TAIL);
    for e in report.trace.entries().skip(skip) {
        t.push_row(vec![
            fmt_units(e.t),
            e.label.to_string(),
            fmt_units(e.value),
        ]);
    }
    t
}

fn main() {
    if std::env::args().any(|a| a == "--smoke-full") {
        smoke_full();
        return;
    }
    if std::env::args().any(|a| a == "--smoke") {
        smoke();
        return;
    }
    let opts = Opts::parse();
    let mut cfg = opts.base();
    cfg.algorithm = Algorithm::Ipp;
    cfg.pull_bw = 0.5;
    cfg.think_time_ratio = 1.0;
    cfg.fault = FaultConfig::lossy(0.10);
    cfg.obs.enabled = true;
    let r = run_steady_state(&cfg, &opts.protocol());
    // bpp-lint: allow(D3): cfg.obs.enabled was just set, so the report is always present
    let report = r.obs.as_ref().expect("obs layer enabled");

    println!("{}", counters_table(report).render());
    if let Some(g) = gauges_table(report) {
        println!("{}", g.render());
    }
    println!("{}", timelines_table(report).render());
    println!("{}", trace_table(report).render());
    println!(
        "mean response {} over {} measured accesses ({} sim units)",
        fmt_units(r.mean_response),
        r.measured_accesses,
        fmt_units(r.sim_time)
    );
}
