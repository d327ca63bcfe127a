//! Simulation-side observability state: what the [`World`] records when
//! the `obs` config block is enabled, and how it folds into an
//! [`ObsReport`].
//!
//! Everything here is constructed only when `SystemConfig::obs.enabled`
//! is true; a disabled run allocates none of this state and executes the
//! exact pre-observability instruction stream.
//!
//! Every per-slot series lives in one [`TimelineGroup`]: a slot boundary
//! costs one time-cursor step for the whole group, and a
//! [`SlotSampler`] records only the series that exist, computing each
//! value only when its series records it.
//!
//! [`World`]: crate::simulation::World

use std::cmp::Ordering;

use bpp_obs::{ObsConfig, ObsReport, Sample, SeriesId, TimelineGroup, TraceRing};
use bpp_sim::Welford;

use crate::fault::FaultLayer;

/// Per-run instrumentation state owned by the `World`.
#[derive(Debug, Clone)]
pub(crate) struct ObsState {
    /// The knobs this state was built from (stride feeds the engine probe).
    pub(crate) cfg: ObsConfig,
    /// Every timeline sampled at slot boundaries, plus their bookkeeping.
    slot: SlotSeries,
    /// Queueing delay of every served pull (submit → pull slot).
    pull_wait: Welford,
    /// Structured events: saturation transitions, retry resends, ….
    trace: TraceRing,
    /// Virtual-Client requests that passed the threshold filter.
    pub(crate) vc_requests_sent: u64,
    /// Virtual-Client misses the threshold filter swallowed.
    pub(crate) vc_requests_filtered: u64,
}

/// The slot-boundary series: one shared [`TimelineGroup`] and the handles
/// of the series in it. Optional series exist only when their part of the
/// simulator runs, so a report carries exactly the keys (and bytes) of the
/// parts that ran.
#[derive(Debug, Clone)]
struct SlotSeries {
    group: TimelineGroup,
    /// Distinct pages in the pull queue (summed over shards).
    queue_depth: SeriesId,
    /// Fleet-wide cumulative hit rate; fleet populations only.
    fleet_hit_rate: Option<SeriesId>,
    /// Measured Client cumulative cache hit rate; `mc_hit_rate` knob only.
    mc_hit_rate: Option<SeriesId>,
    /// Server availability (0 up / 1 down / 2 recovering); crash domain
    /// only.
    fault_state: Option<SeriesId>,
    /// Per-disk cumulative share of push slots; `disk_share` knob only.
    disk_share: Option<DiskShare>,
    /// Per-channel series of the K-channel extension; `None` unless
    /// `num_channels > 1`, so single-channel reports keep their exact
    /// pre-extension key set.
    channels: Option<ChannelObs>,
}

/// Running per-disk push-slot counters with one cumulative-share series
/// per broadcast disk (padding included — padding is bandwidth charged to
/// its disk).
#[derive(Debug, Clone)]
struct DiskShare {
    /// Push slots charged to each disk so far.
    counts: Vec<u64>,
    /// Push slots charged overall (the denominator).
    total: u64,
    /// One `broadcast.disk<k>.share` series per disk.
    series: Vec<SeriesId>,
}

/// Per-channel series of the K-channel world: shard queue depths, the
/// cumulative share of push slots each channel carries, and (when a
/// channel-fault layer runs) each channel's phase-shifted brownout state.
#[derive(Debug, Clone)]
struct ChannelObs {
    /// One `server.ch<k>.queue_depth` series per pull shard.
    depth: Vec<SeriesId>,
    /// Push slots (pages and padding) carried by each channel so far.
    push_counts: Vec<u64>,
    /// Push slots carried overall (the share denominator).
    push_total: u64,
    /// One `broadcast.ch<k>.share` series per channel.
    share: Vec<SeriesId>,
    /// One `fault.ch<k>.state` series per channel (0 clear / 1 browned
    /// out) with its edge cache; empty when no channel-fault layer is
    /// configured.
    fault_state: Vec<(SeriesId, BrownoutEdge)>,
}

/// A channel's brownout state cached until its next possible edge, so a
/// slot re-evaluates the window (a float `%`) only near an edge.
#[derive(Debug, Clone, Copy)]
struct BrownoutEdge {
    browned: bool,
    /// The state holds for every channel clock below this (`-inf`: stale).
    until: f64,
}

impl BrownoutEdge {
    const STALE: BrownoutEdge = BrownoutEdge {
        browned: false,
        until: f64::NEG_INFINITY,
    };

    /// `fault.in_brownout(clock)`, for non-decreasing `clock` values.
    fn state(&mut self, fault: &FaultLayer, clock: f64) -> bool {
        // Re-evaluate unless `clock < until` (a NaN clock re-evaluates).
        if clock.partial_cmp(&self.until) != Some(Ordering::Less) {
            (self.browned, self.until) = fault.brownout_hold(clock);
        }
        self.browned
    }
}

impl ObsState {
    pub(crate) fn new(cfg: ObsConfig) -> Self {
        let mut group = TimelineGroup::new(cfg.timeline_stride);
        let queue_depth = group.add_series();
        ObsState {
            cfg,
            slot: SlotSeries {
                group,
                queue_depth,
                fleet_hit_rate: None,
                mc_hit_rate: None,
                fault_state: None,
                disk_share: None,
                channels: None,
            },
            pull_wait: Welford::new(),
            trace: TraceRing::new(cfg.trace_capacity as usize),
            vc_requests_sent: 0,
            vc_requests_filtered: 0,
        }
    }

    /// `n` new slot series.
    fn add_series(&mut self, n: usize) -> Vec<SeriesId> {
        (0..n).map(|_| self.slot.group.add_series()).collect()
    }

    /// Start the per-channel series of the K-channel extension.
    /// `with_fault_state` adds the per-channel brownout-state series (only
    /// meaningful when a channel-fault layer runs).
    pub(crate) fn enable_channels(&mut self, num: usize, with_fault_state: bool) {
        let depth = self.add_series(num);
        let share = self.add_series(num);
        let fault_state = if with_fault_state {
            self.add_series(num)
                .into_iter()
                .map(|id| (id, BrownoutEdge::STALE))
                .collect()
        } else {
            Vec::new()
        };
        self.slot.channels = Some(ChannelObs {
            depth,
            push_counts: vec![0; num],
            push_total: 0,
            share,
            fault_state,
        });
    }

    /// Forget the cached brownout edges: the brownout window or the
    /// channels' phase shifts changed.
    pub(crate) fn on_brownout_change(&mut self) {
        if let Some(ch) = &mut self.slot.channels {
            for (_, edge) in &mut ch.fault_state {
                *edge = BrownoutEdge::STALE;
            }
        }
    }

    /// Charge one push slot (page or padding) to channel `k`.
    pub(crate) fn on_push_slot_channel(&mut self, k: usize) {
        if let Some(ch) = &mut self.slot.channels {
            if k < ch.push_counts.len() {
                ch.push_counts[k] += 1;
                ch.push_total += 1;
            }
        }
    }

    /// Start the fleet hit-rate series (fleet populations only).
    pub(crate) fn enable_fleet(&mut self) {
        self.slot.fleet_hit_rate = Some(self.slot.group.add_series());
    }

    /// Start the MC hit-rate series (`mc_hit_rate` knob only).
    pub(crate) fn enable_mc_hit_rate(&mut self) {
        self.slot.mc_hit_rate = Some(self.slot.group.add_series());
    }

    /// Start the server-availability series (crash domain only).
    pub(crate) fn enable_fault_state(&mut self) {
        self.slot.fault_state = Some(self.slot.group.add_series());
    }

    /// Start the per-disk slot-mix series (`disk_share` knob only).
    pub(crate) fn enable_disk_share(&mut self, num_disks: usize) {
        let series = self.add_series(num_disks);
        self.slot.disk_share = Some(DiskShare {
            counts: vec![0; num_disks],
            total: 0,
            series,
        });
    }

    /// Charge one push slot (page or padding) to `disk`.
    pub(crate) fn on_push_slot_disk(&mut self, disk: usize) {
        if let Some(ds) = &mut self.slot.disk_share {
            if disk < ds.counts.len() {
                ds.counts[disk] += 1;
                ds.total += 1;
            }
        }
    }

    /// Sample the slot series at the slot boundary `now`; the returned
    /// sampler records this slot's values.
    pub(crate) fn slot(&mut self, now: f64) -> SlotSampler<'_> {
        let s = &mut self.slot;
        SlotSampler {
            sample: s.group.at(now),
            now,
            queue_depth: s.queue_depth,
            fleet_hit_rate: s.fleet_hit_rate,
            mc_hit_rate: s.mc_hit_rate,
            fault_state: s.fault_state,
            disk_share: s.disk_share.as_ref(),
            channels: s.channels.as_mut(),
        }
    }

    /// Record the queueing delay of one served pull request.
    pub(crate) fn record_pull_wait(&mut self, wait: f64) {
        self.pull_wait.record(wait);
    }

    /// Append a structured trace event.
    pub(crate) fn trace(&mut self, t: f64, label: &'static str, value: f64) {
        self.trace.push(t, label, value);
    }

    /// Fold this state into `report`, sealing timelines at `t_end`.
    pub(crate) fn report_into(&self, t_end: f64, report: &mut ObsReport) {
        let s = &self.slot;
        let sealed = |id: SeriesId| s.group.sealed(id, t_end);
        report.add_timeline("server.queue_depth", sealed(s.queue_depth));
        if let Some(id) = s.fleet_hit_rate {
            report.add_timeline("client.fleet.hit_rate", sealed(id));
        }
        if let Some(id) = s.mc_hit_rate {
            report.add_timeline("client.mc.hit_rate", sealed(id));
        }
        if let Some(id) = s.fault_state {
            report.add_timeline("fault.state", sealed(id));
        }
        if let Some(ds) = &s.disk_share {
            for (k, &id) in ds.series.iter().enumerate() {
                report.add_timeline(&format!("broadcast.disk{k}.share"), sealed(id));
            }
        }
        if let Some(ch) = &s.channels {
            for (k, &id) in ch.depth.iter().enumerate() {
                report.add_timeline(&format!("server.ch{k}.queue_depth"), sealed(id));
            }
            for (k, &id) in ch.share.iter().enumerate() {
                report.add_timeline(&format!("broadcast.ch{k}.share"), sealed(id));
            }
            for (k, &(id, _)) in ch.fault_state.iter().enumerate() {
                report.add_timeline(&format!("fault.ch{k}.state"), sealed(id));
            }
        }
        let m = &mut report.metrics;
        m.add("server.pull_wait.count", self.pull_wait.count());
        if self.pull_wait.count() > 0 {
            m.gauge("server.pull_wait.mean", self.pull_wait.mean());
            m.gauge("server.pull_wait.max", self.pull_wait.max());
        }
        report.trace = self.trace.clone();
    }
}

/// Records one slot's values into the slot series, from
/// [`ObsState::slot`]. Each method is a no-op when its series does not
/// exist.
pub(crate) struct SlotSampler<'a> {
    sample: Sample<'a>,
    now: f64,
    queue_depth: SeriesId,
    fleet_hit_rate: Option<SeriesId>,
    mc_hit_rate: Option<SeriesId>,
    fault_state: Option<SeriesId>,
    disk_share: Option<&'a DiskShare>,
    channels: Option<&'a mut ChannelObs>,
}

impl SlotSampler<'_> {
    /// Distinct pages queued for pull (all shards together).
    pub(crate) fn queue_depth(&mut self, depth: usize) {
        self.sample.record(self.queue_depth, depth as f64);
    }

    /// The fleet's cumulative hit rate.
    pub(crate) fn fleet_hit_rate(&mut self, hit_rate: f64) {
        if let Some(id) = self.fleet_hit_rate {
            self.sample.record(id, hit_rate);
        }
    }

    /// The Measured Client's cumulative cache hit rate, computed only when
    /// the `mc_hit_rate` knob records it.
    pub(crate) fn mc_hit_rate(&mut self, hit_rate: impl FnOnce() -> f64) {
        if let Some(id) = self.mc_hit_rate {
            self.sample.record(id, hit_rate());
        }
    }

    /// Server availability (0 up / 1 down / 2 recovering).
    pub(crate) fn fault_state(&mut self, state: f64) {
        if let Some(id) = self.fault_state {
            self.sample.record(id, state);
        }
    }

    /// Every disk's cumulative push-slot share. Nothing is recorded before
    /// the first push slot (no denominator).
    pub(crate) fn disk_share(&mut self) {
        if let Some(ds) = self.disk_share {
            if ds.total > 0 {
                for (&id, &n) in ds.series.iter().zip(&ds.counts) {
                    self.sample.record(id, n as f64 / ds.total as f64);
                }
            }
        }
    }

    /// Shard `k`'s queue depth.
    pub(crate) fn channel_depth(&mut self, k: usize, depth: usize) {
        if let Some(ch) = &self.channels {
            self.sample.record(ch.depth[k], depth as f64);
        }
    }

    /// Every channel's cumulative push-slot share. Nothing is recorded
    /// before the first push slot.
    pub(crate) fn channel_share(&mut self) {
        if let Some(ch) = &self.channels {
            if ch.push_total > 0 {
                for (&id, &n) in ch.share.iter().zip(&ch.push_counts) {
                    self.sample.record(id, n as f64 / ch.push_total as f64);
                }
            }
        }
    }

    /// Every channel's brownout state (1 browned out, 0 clear): channel
    /// `k` judges the window at `now + shifts[k]`.
    pub(crate) fn channel_brownouts(&mut self, fault: &FaultLayer, shifts: &[f64]) {
        if let Some(ch) = &mut self.channels {
            for ((id, edge), &shift) in ch.fault_state.iter_mut().zip(shifts) {
                let browned = edge.state(fault, self.now + shift);
                self.sample.record(*id, f64::from(browned));
            }
        }
    }
}
