//! Per-layer metrics of the traced run, read from the public
//! `SystemReport`/`ObsReport`/`SpanReport`, plus the standalone
//! `scorpio_noc::Network` probe that gives the `noc` layer's host time.

use crate::run::Rep;
use crate::stats::{median, percentile, ratio, Metric};
use scorpio::{Protocol, SystemConfig, SystemReport};
use scorpio_noc::{Endpoint, Network, Packet, Sid, VnetId};
use scorpio_sim::stats::LogHistogram;
use scorpio_sim::SimRng;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Checks that observability did not change the simulation: the traced
/// report, with its observability annex removed, must serialize exactly as
/// the untraced one.
pub fn check_base_matches(traced: &SystemReport, untraced: &SystemReport) -> Result<(), String> {
    let mut base = traced.clone();
    base.obs = None;
    if base.to_json() == untraced.to_json() {
        Ok(())
    } else {
        Err("traced base report differs from the untraced report".into())
    }
}

/// Checks that the traced run's span phases sum to their totals: every
/// phase histogram counts every span, the phase sums add up to the total
/// miss latency, and misses plus hits rebuild the L2 service latency.
pub fn check_spans(r: &SystemReport) -> Result<(), String> {
    let sp = r
        .obs
        .as_ref()
        .and_then(|o| o.spans.as_ref())
        .ok_or("traced report has no span breakdown")?;
    let phases = [
        &sp.source, &sp.queue, &sp.inject, &sp.flight, &sp.commit, &sp.data, &sp.fill,
    ];
    if let Some(h) = phases.iter().find(|h| h.count() != sp.count) {
        return Err(format!(
            "a span phase counts {} samples, the spans {}",
            h.count(),
            sp.count
        ));
    }
    let phase_sum: u64 = phases.iter().map(|h| h.sum()).sum();
    if sp.total.count() != sp.count || phase_sum != sp.total.sum() {
        return Err(format!(
            "span phases sum to {phase_sum} cycles, the totals to {}",
            sp.total.sum()
        ));
    }
    let svc = &r.l2_service_latency;
    if sp.total.sum() + sp.hit.sum() != svc.sum() || sp.count + sp.hit.count() != svc.count() {
        return Err("span totals plus hits do not rebuild the L2 service latency".into());
    }
    Ok(())
}

/// Result of the standalone network probe.
#[derive(Debug, Clone, Copy, Default)]
pub struct Probe {
    /// `Network::step` calls timed.
    pub steps: u64,
    /// Their total host nanoseconds.
    pub step_ns: u128,
    /// Flit router traversals (bypassed plus buffered).
    pub flit_hops: u64,
    /// Whether the probe stopped at its time budget before draining.
    pub cut: bool,
}

/// Packets of the traced run per virtual network, split into broadcasts
/// and unicasts: `(broadcasts, unicasts)` for each vnet.
///
/// The report gives delivered copies per vnet and the total injected.
/// Only vnet 0 carries broadcasts, each delivered to every endpoint but
/// its source, so vnet 0's packets are the total minus the other vnets'
/// deliveries, and its broadcasts follow from the surplus of copies.
fn vnet_packets(r: &SystemReport, endpoints: u64) -> Vec<(u64, u64)> {
    let Some(o) = &r.obs else { return Vec::new() };
    let delivered: Vec<u64> = o.vnet_latency.iter().map(|(_, h)| h.count()).collect();
    let others: u64 = delivered.iter().skip(1).sum();
    let mut out = vec![(0, 0); delivered.len()];
    if let Some(&d0) = delivered.first() {
        let p0 = r.packets_injected.saturating_sub(others);
        let bcast = (d0.saturating_sub(p0) / endpoints.saturating_sub(2).max(1)).min(p0);
        out[0] = (bcast, p0 - bcast);
    }
    for (v, &d) in delivered.iter().enumerate().skip(1) {
        out[v] = (0, d);
    }
    out
}

/// Drives a standalone network built from the workload's `mesh` and `noc`
/// configuration: the traced run's per-vnet packets are injected at a
/// uniform rate over its simulated runtime, each cycle every endpoint that
/// received flits is drained, and only `Network::step` is timed. Measures router cost per
/// flit, not contention. Stops at `budget`.
pub fn noc_probe(cfg: &SystemConfig, r: &SystemReport, seed: u64, budget: Duration) -> Probe {
    let mut noc = cfg.noc.clone();
    // As the system does: only SCORPIO orders its request class, and
    // per-packet delivery tracking is off.
    noc.vnets[0].ordered = cfg.protocol == Protocol::Scorpio;
    noc.track_deliveries = false;
    let data_flits = noc.data_flits();
    let mut net: Network<u32> = Network::new(cfg.mesh.clone(), noc);
    let eps: Vec<Endpoint> = cfg.mesh.endpoints().collect();
    let tiles = cfg.cores();

    // The schedule: (vnet, broadcast) per packet, shuffled, spread evenly.
    let counts = vnet_packets(r, eps.len() as u64);
    let mut kinds: Vec<(u8, bool)> = Vec::new();
    for (v, &(b, u)) in counts.iter().enumerate() {
        kinds.extend((0..b).map(|_| (v as u8, true)));
        kinds.extend((0..u).map(|_| (v as u8, false)));
    }
    let mut rng = SimRng::seed_from(seed ^ 0x0bec_4a11_0000_0001);
    for i in (1..kinds.len()).rev() {
        kinds.swap(i, rng.gen_range_usize(i + 1));
    }
    let resp_data = ratio(
        r.data_forwards + r.memory_responses,
        counts.get(1).map_or(0, |c| c.1),
    );
    let horizon = r.runtime_cycles.max(1);
    let total = kinds.len() as u64;
    let due = |i: u64| (u128::from(i) * u128::from(horizon) / u128::from(total.max(1))) as u64;

    let mut probe = Probe::default();
    let mut next = 0u64;
    let mut blocked: VecDeque<(Endpoint, Packet<u32>)> = VecDeque::new();
    let mut woken = Vec::new();
    let stop = Instant::now() + budget;
    loop {
        let now = net.cycle().as_u64();
        // Packets refused by a full injection queue retry first, in order.
        for _ in 0..blocked.len() {
            let (ep, pkt) = blocked.pop_front().expect("within the queue's length");
            if let Err(e) = net.try_inject(ep, pkt) {
                blocked.push_back((ep, e.0));
            }
        }
        while next < total && due(next) <= now {
            let (vnet, bcast) = kinds[next as usize];
            let pkt = if bcast {
                // A tile's SID is its endpoint index, as in the system.
                let tile = rng.gen_range_usize(tiles);
                let src = eps[tile];
                if vnet == 0 && cfg.protocol == Protocol::Scorpio {
                    Packet::request(src, Sid(tile as u16), 0, next as u32)
                } else {
                    Packet::broadcast_unordered(VnetId(vnet), src, next as u32)
                }
            } else {
                let src = rng.gen_range_usize(eps.len());
                let dst = (src + 1 + rng.gen_range_usize(eps.len() - 1)) % eps.len();
                let len = if vnet == 1 && rng.chance(resp_data) {
                    data_flits
                } else {
                    1
                };
                Packet::unicast(VnetId(vnet), eps[src], eps[dst], len, next as u32)
            };
            next += 1;
            if let Err(e) = net.try_inject(pkt.src, pkt) {
                blocked.push_back((pkt.src, e.0));
            }
        }
        net.take_woken_endpoints(&mut woken);
        for &idx in &woken {
            let ep = eps[idx as usize];
            loop {
                let slots: Vec<_> = net.eject_heads(ep).map(|(s, _)| s).collect();
                if slots.is_empty() {
                    break;
                }
                for s in slots {
                    net.eject_take(ep, s);
                }
            }
        }
        woken.clear();
        if next >= total && blocked.is_empty() && net.is_drained() {
            break;
        }
        if Instant::now() >= stop {
            probe.cut = true;
            break;
        }
        if blocked.is_empty() && next < total && net.is_quiescent() {
            let gap = due(next).saturating_sub(now);
            if gap > 0 {
                net.leap(gap);
                continue;
            }
        }
        let t = Instant::now();
        net.step();
        probe.step_ns += t.elapsed().as_nanos();
        probe.steps += 1;
    }
    let s = net.stats();
    probe.flit_hops = s.bypassed_flits + s.buffered_flits;
    probe
}

/// Pushes `<name>_p50`, `<name>_p99` and the sample count `<name>_n` of
/// `h`; zeros when the run recorded no such histogram.
fn hist(out: &mut Vec<Metric>, name: &str, h: Option<&LogHistogram>) {
    let p = |f: f64| h.and_then(|h| h.percentile(f)).unwrap_or(0) as f64;
    out.push(Metric::new(format!("{name}_p50"), "cycles", p(0.50)));
    out.push(Metric::new(format!("{name}_p99"), "cycles", p(0.99)));
    out.push(Metric::new(
        format!("{name}_n"),
        "count",
        h.map_or(0, LogHistogram::count) as f64,
    ));
}

/// Every per-layer metric, named `<crate>.<metric>`. `traced` and
/// `untraced` are the repetitions of one seed with and without the
/// observability layer; all traced ones report the same counters, and
/// their step times are pooled.
pub fn metrics(traced: &[Rep], untraced: &[Rep], probe: &Probe) -> Vec<Metric> {
    let first = &traced[0];
    let r = first.report.clone().unwrap_or_default();
    let o = r.obs.clone().unwrap_or_default();
    let sp = o.spans.as_ref();
    let med = |reps: &[Rep], f: fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let c = |n: u64| n as f64;
    let mut m = Vec::new();

    // workloads
    m.push(Metric::new(
        "workloads.generate_s",
        "s",
        med(untraced, |x| x.generate_s),
    ));
    m.push(Metric::new(
        "workloads.ops_attempted",
        "count",
        c(first.tally.attempted),
    ));

    // core
    let mut steps: Vec<u64> = traced
        .iter()
        .flat_map(|t| t.step_ns.iter().copied())
        .collect();
    steps.sort_unstable();
    let step_total: u64 = steps.iter().sum();
    m.push(Metric::new(
        "core.build_s",
        "s",
        med(untraced, |x| x.build_s),
    ));
    m.push(Metric::new(
        "core.report_s",
        "s",
        med(traced, |x| x.report_s),
    ));
    m.push(Metric::new(
        "core.step_ns_mean",
        "ns",
        ratio(step_total, steps.len() as u64),
    ));
    m.push(Metric::new(
        "core.step_ns_p50",
        "ns",
        c(percentile(&steps, 0.50).unwrap_or(0)),
    ));
    m.push(Metric::new(
        "core.step_ns_p999",
        "ns",
        c(percentile(&steps, 0.999).unwrap_or(0)),
    ));
    m.push(Metric::new(
        "core.step_ns_n",
        "count",
        c(steps.len() as u64),
    ));
    m.push(Metric::new("core.steps", "count", c(first.steps)));
    m.push(Metric::new(
        "core.source_dropped",
        "count",
        c(r.source_dropped),
    ));
    let base = med(untraced, |x| x.sim_s);
    m.push(Metric::new(
        "core.traced_slowdown",
        "ratio",
        if base > 0.0 {
            med(traced, |x| x.sim_s) / base
        } else {
            0.0
        },
    ));

    // noc: the standalone probe's host time, then the traced counters
    m.push(Metric::new(
        "noc.step_ns_mean",
        "ns",
        ratio(probe.step_ns as u64, probe.steps),
    ));
    m.push(Metric::new("noc.step_n", "count", c(probe.steps)));
    m.push(Metric::new(
        "noc.ns_per_flit_hop",
        "ns",
        ratio(probe.step_ns as u64, probe.flit_hops),
    ));
    m.push(Metric::new(
        "noc.probe_flit_hops",
        "count",
        c(probe.flit_hops),
    ));
    m.push(Metric::new(
        "noc.packets_injected",
        "count",
        c(r.packets_injected),
    ));
    let sum = |f: fn(&scorpio::PlaneObs) -> u64| o.planes.iter().map(f).sum::<u64>();
    m.push(Metric::new(
        "noc.link_flits",
        "count",
        c(sum(|p| p.link_flits)),
    ));
    m.push(Metric::new(
        "noc.max_link_flits",
        "count",
        c(o.planes.iter().map(|p| p.max_link_flits).max().unwrap_or(0)),
    ));
    m.push(Metric::new("noc.bypass_ratio", "ratio", r.bypass_rate()));
    m.push(Metric::new(
        "noc.buffer_integral",
        "packet-cycles",
        c(sum(|p| p.buffer_integral)),
    ));
    m.push(Metric::new(
        "noc.stall_sa_i",
        "count",
        c(sum(|p| p.stall_sa_i)),
    ));
    m.push(Metric::new(
        "noc.stall_sa_ii",
        "count",
        c(sum(|p| p.stall_sa_ii)),
    ));
    m.push(Metric::new(
        "noc.stall_vc_alloc",
        "count",
        c(sum(|p| p.stall_vc_alloc)),
    ));
    m.push(Metric::new(
        "noc.stall_credit",
        "count",
        c(sum(|p| p.stall_credit)),
    ));
    hist(&mut m, "noc.packet_latency", Some(&o.packet_latency));
    hist(&mut m, "noc.inject_wait", Some(&o.inject_wait));
    hist(&mut m, "noc.flight", sp.map(|s| &s.flight));

    // notify
    m.push(Metric::new("notify.windows", "count", c(r.notify_windows)));
    m.push(Metric::new(
        "notify.nonempty_ratio",
        "ratio",
        ratio(r.notify_nonempty, r.notify_windows),
    ));
    m.push(Metric::new(
        "notify.stop_windows",
        "count",
        c(r.stop_windows),
    ));

    // nic
    hist(&mut m, "nic.ordering_delay", Some(&o.ordering_delay));
    hist(&mut m, "nic.inject", sp.map(|s| &s.inject));
    hist(&mut m, "nic.commit", sp.map(|s| &s.commit));

    // mem
    m.push(Metric::new("mem.l1_hits", "count", c(r.l1_hits)));
    m.push(Metric::new("mem.l2_misses", "count", c(r.l2_misses)));
    m.push(Metric::new(
        "mem.l2_hit_ratio",
        "ratio",
        ratio(r.l2_hits, r.l2_hits + r.l2_misses),
    ));
    m.push(Metric::new(
        "mem.cache_served_ratio",
        "ratio",
        r.cache_served_fraction(),
    ));
    m.push(Metric::new(
        "mem.snoop_filter_ratio",
        "ratio",
        ratio(r.snoops_filtered, r.snoops_filtered + r.snoops_looked_up),
    ));
    m.push(Metric::new(
        "mem.writeback_squash_ratio",
        "ratio",
        ratio(r.writebacks_squashed, r.writebacks),
    ));
    m.push(Metric::new(
        "mem.memory_responses",
        "count",
        c(r.memory_responses),
    ));
    hist(&mut m, "mem.queue", sp.map(|s| &s.queue));
    hist(&mut m, "mem.data", sp.map(|s| &s.data));
    hist(&mut m, "mem.fill", sp.map(|s| &s.fill));
    hist(&mut m, "mem.l2_service", Some(&o.l2_service));

    // coherence
    m.push(Metric::new(
        "coherence.data_forwards",
        "count",
        c(r.data_forwards),
    ));
    m.push(Metric::new(
        "coherence.dir_accesses",
        "count",
        c(r.dir_accesses),
    ));
    m.push(Metric::new(
        "coherence.dir_miss_ratio",
        "ratio",
        ratio(r.dir_misses, r.dir_accesses),
    ));
    m
}
