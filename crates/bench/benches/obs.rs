//! Microbenchmarks for the observability primitives (counter increment,
//! time-weighted timeline update, trace-ring push), one slot of
//! `fleet_chaos`-shaped sampling (15 series through a `TimelineGroup`, and
//! the same 15 series as separate `Timeline`s for comparison), and the
//! end-to-end overhead of running a simulation with the obs layer on vs.
//! off.

#![allow(missing_docs)]

use bpp_core::{Algorithm, MeasurementProtocol, SystemConfig, World};
use bpp_obs::{Metrics, Timeline, TimelineGroup, TraceRing};
use std::hint::black_box;

use bpp_bench::Group;

fn sim_slots(obs: bool) -> u64 {
    let mut cfg = SystemConfig::small();
    cfg.algorithm = Algorithm::Ipp;
    cfg.pull_bw = 0.5;
    cfg.think_time_ratio = 10.0;
    cfg.obs.enabled = obs;
    let proto = MeasurementProtocol::quick();
    let mut engine = World::steady_state(&cfg, &proto).into_engine();
    engine.run_until(5_000.0);
    engine.dispatched()
}

/// Series a `fleet_chaos` slot samples.
const SLOT_SERIES: usize = 15;

fn main() {
    let mut g = Group::new("obs");
    g.sample_size(10);

    {
        let mut m = Metrics::new();
        g.bench("metrics_inc_by_name", || {
            m.inc(black_box("engine.dispatch.slot"));
            m.counter("engine.dispatch.slot")
        });
    }
    {
        let mut tl = Timeline::new(100.0);
        let mut t = 0.0_f64;
        g.bench("timeline_update", || {
            t += 1.0;
            tl.update(t, black_box(t % 17.0));
            tl.stride()
        });
    }
    {
        // A fractional stride: bucket exits are not multiples of the step,
        // so the exact fast-path bound is what keeps most updates cheap.
        let mut tl = Timeline::new(0.3);
        let mut t = 0.0_f64;
        g.bench("timeline_update_stride_0_3", || {
            t += 0.1;
            tl.update(t, black_box(t));
            tl.stride()
        });
    }
    {
        // One `fleet_chaos` slot: queue depth, 4 shard depths, 4 channel
        // shares, 4 brownout states, fleet hit rate and fault state.
        let mut group = TimelineGroup::new(100.0);
        let ids: Vec<_> = (0..SLOT_SERIES).map(|_| group.add_series()).collect();
        let mut t = 0.0_f64;
        g.bench("slot_sample_15_series_group", || {
            t += 1.0;
            let mut sample = group.at(t);
            for (k, &id) in ids.iter().enumerate() {
                sample.record(id, black_box(k as f64 + t));
            }
        });
    }
    {
        // The same slot as 15 independent timelines (the per-series cost
        // the group shares out).
        let mut tls = vec![Timeline::new(100.0); SLOT_SERIES];
        let mut t = 0.0_f64;
        g.bench("slot_sample_15_series_timelines", || {
            t += 1.0;
            for (k, tl) in tls.iter_mut().enumerate() {
                tl.update(t, black_box(k as f64 + t));
            }
        });
    }
    {
        let mut ring = TraceRing::new(256);
        let mut t = 0.0_f64;
        g.bench("trace_push", || {
            t += 1.0;
            ring.push(t, "retry_resend", black_box(t));
            ring.len()
        });
    }

    g.bench("sim_5k_obs_off", || sim_slots(false));
    g.bench("sim_5k_obs_on", || sim_slots(true));

    g.finish();
}
