//! The assembled full system: cores + L1s + L2s + NICs + both networks +
//! memory controllers, under one of three ordering schemes.
//!
//! * [`Protocol::Scorpio`] — the paper's system: ordered GO-REQ deliveries
//!   via the notification network and ESID-gated NICs.
//! * [`Protocol::TokenB`] — same snoopy protocol and same mesh, ordering by
//!   a zero-cost global sequencer (the paper's race-free TokenB model).
//! * [`Protocol::Inso`] — per-source slots with expiry broadcasts.
//!
//! All three share the identical caches, memory controllers and router
//! fabric, exactly as the paper's methodology demands ("keeping all
//! conditions equal besides the ordered network").

use crate::config::{ObsLevel, Protocol, SystemConfig};
use crate::report::{
    EpWait, ObsReport, PlaneObs, SpanReport, SystemReport, WindowReport, WindowRow,
};
use crate::tile::{CoreDriver, CoreKind};
use scorpio_coherence::{
    home_tile, CohMsg, DirectoryCache, InsoReorderBuffer, InsoSlotAllocator, LpdEntry, MsgKind,
    SlotContent,
};
use scorpio_mem::{L2Out, MemoryController, MissSpan, OrderedSnoop, SnoopyL2};
use scorpio_nic::{Nic, NicMode};
use scorpio_noc::{
    merge_trace, Endpoint, LocalSlot, MultiNetwork, ObsConfig, SteerKey, TraceEvent, TraceKind,
    VnetId, WindowCell,
};
use scorpio_notify::{NotifyConfig, NotifyNetwork};
use scorpio_sim::stats::LogHistogram;
use scorpio_sim::{ActiveSet, Cycle};
use scorpio_workloads::Trace;
use std::collections::{BTreeMap, VecDeque};

/// A full SCORPIO (or baseline) system.
pub struct System {
    cfg: SystemConfig,
    /// The main network: one or more address-interleaved delivery planes
    /// behind one interface (`planes = 1` is the chip's single fabric).
    net: MultiNetwork<CohMsg>,
    notify: Option<NotifyNetwork>,
    /// NICs per endpoint (tiles first, then MC ports).
    nics: Vec<Nic<CohMsg>>,
    drivers: Vec<CoreDriver>,
    l2s: Vec<SnoopyL2>,
    mcs: Vec<MemoryController>,
    /// Unordered-mode reorder buffers per endpoint.
    reorders: Vec<InsoReorderBuffer<CohMsg>>,
    /// INSO slot allocators per tile.
    inso_alloc: Vec<InsoSlotAllocator>,
    /// TokenB global sequencer.
    oracle_seq: u64,
    /// Ordered request awaiting injection, per tile (slot already taken).
    pending_ordered: Vec<Option<CohMsg>>,
    /// Expiry broadcast awaiting injection, per tile.
    pending_expiry: Vec<Option<CohMsg>>,
    /// Data response popped from the NIC but not yet accepted by the L2.
    resp_hold: Vec<Option<CohMsg>>,
    /// Directory-home state per tile (LPD-D / HT-D).
    dir_homes: Vec<DirHome>,
    expiry_sent: u64,
    /// Stepped-count snapshot at the last completed op (deadlock watchdog).
    watchdog_steps: u64,
    watchdog_ops: u64,
    /// Cycles actually stepped (ticked or skipped one at a time); this
    /// lags [`System::cycle`] by the spans the event-leaping clock jumped.
    stepped: u64,
    // ---- Active-set engine state (see DESIGN.md, "wake/sleep protocol").
    /// Tiles/MCs with pending work; drained (in ascending order) each
    /// cycle so `tick_tiles`/`tick_mcs` only touch woken components.
    tile_active: ActiveSet,
    mc_active: ActiveSet,
    tile_scratch: Vec<u32>,
    mc_scratch: Vec<u32>,
    ep_scratch: Vec<u32>,
    /// Cached per-component completion state backing the incremental
    /// [`System::is_complete`]: a component's flag is refreshed whenever it
    /// is ticked, and a sleeping component cannot change it.
    tile_quiet: Vec<bool>,
    mc_quiet: Vec<bool>,
    tiles_pending: usize,
    mcs_pending: usize,
    /// Running ops total (drivers report transitions; the watchdog reads
    /// this instead of re-summing every driver every cycle).
    ops_cache: Vec<u64>,
    ops_total: u64,
    /// Last notification window the wake logic has seen.
    last_notify_window: Option<u64>,
    /// Timed wake-ups keyed by absolute deadline cycle and bucketed by
    /// notification region: tiles sleeping through a compute gap and MCs
    /// sleeping on a scheduled response. Values are *endpoint* indices —
    /// `v < cores` is tile `v`, anything above is MC `v - cores`. These
    /// deadlines are also what the event-leaping clock jumps to when the
    /// whole machine is idle.
    timed_wakes: RegionWakes,
    // ---- Per-region leap accounting (quad notification schemes).
    /// Leaf-quad count of the notification tree (1 under the flat scheme
    /// or for baselines without a notification network).
    regions: usize,
    /// Router index → leaf-quad region, copied from the notification tree
    /// so the delivery fabric's activity read-back shares its partition.
    region_of_router: Vec<u32>,
    /// Endpoint index (tiles then MCs) → leaf-quad region of its router.
    region_of_ep: Vec<u32>,
    /// Scratch bitset of regions seen active this stepped cycle.
    region_bits: Vec<u64>,
    /// Σ over stepped cycles of the active-region count (min 1): the
    /// per-region analogue of [`System::stepped_cycles`]. A region that
    /// provably had nothing woken in a stepped cycle leaps that cycle
    /// locally — maintained by the active-set engine when `regions > 1`;
    /// read through [`System::region_cycles_stepped`], which falls back to
    /// `stepped × regions` under always-scan.
    region_cycles_stepped: u64,
    /// When set, tick every tile and MC each cycle and compute
    /// [`System::is_complete`] by full scan — the pre-refactor engine,
    /// kept as the equivalence/benchmark reference.
    always_scan: bool,
    // ---- Observability (all empty/zero unless `cfg.obs` enables it).
    /// System-layer trace events (ordered commits), one stream per plane
    /// so each stays sorted by [`TraceEvent::sort_key`] (the per-stream
    /// cap then preserves the exact merged prefix); merged with the
    /// network planes' streams by [`System::take_trace`].
    sys_trace: Vec<Vec<TraceEvent>>,
    /// Monotonic sequence for `sys_trace` (keeps advancing past the cap).
    sys_seq: u64,
    /// System-layer events discarded at the cap.
    sys_trace_dropped: u64,
    /// Core ops completed per telemetry window (epoch-indexed, grown on
    /// demand); maintained only when `cfg.window_cycles` is non-zero.
    win_ops: Vec<u64>,
}

impl System {
    /// Builds a system where every core runs the corresponding trace.
    ///
    /// # Panics
    ///
    /// Panics if `traces.len()` differs from the core count.
    pub fn with_traces(cfg: SystemConfig, traces: Vec<Trace>) -> System {
        assert_eq!(traces.len(), cfg.cores(), "one trace per core");
        System::build(cfg, traces.into_iter().map(CoreKind::Trace).collect())
    }

    /// Builds a system where every core runs a reactive program.
    ///
    /// # Panics
    ///
    /// Panics if `programs.len()` differs from the core count.
    pub fn with_programs(
        cfg: SystemConfig,
        programs: Vec<Box<dyn scorpio_workloads::CoreProgram + Send>>,
    ) -> System {
        assert_eq!(programs.len(), cfg.cores(), "one program per core");
        System::build(cfg, programs.into_iter().map(CoreKind::Program).collect())
    }

    fn build(mut cfg: SystemConfig, kinds: Vec<CoreKind>) -> System {
        let cores = cfg.cores();
        let scorpio = cfg.protocol == Protocol::Scorpio;
        // Baselines broadcast on an unordered request class.
        cfg.noc.vnets[0].ordered = scorpio;
        // Big sweeps don't need per-uid delivery tracking.
        cfg.noc.track_deliveries = false;

        let planes = cfg.planes;
        let mut net: MultiNetwork<CohMsg> = MultiNetwork::new(
            cfg.mesh.clone(),
            cfg.noc.clone(),
            planes,
            cfg.plane_interleave_log2(),
        );
        // Observability sinks are installed before the first cycle;
        // every level simulates identically (asserted by the obs
        // equivalence tests), the level only controls what is recorded.
        // Windowed telemetry needs a sink even at `ObsLevel::Off` (its
        // counters then stay disabled — only the window cells record).
        let base_obs = match cfg.obs {
            ObsLevel::Off => None,
            ObsLevel::Counters => Some(ObsConfig::counters_only()),
            ObsLevel::Trace => Some(ObsConfig::with_trace(cfg.trace_limit)),
        };
        net.set_observability(match (base_obs, cfg.window_cycles) {
            (obs, 0) => obs,
            (Some(obs), w) => Some(obs.with_windows(w)),
            (None, w) => Some(
                ObsConfig {
                    counters: false,
                    trace: false,
                    trace_limit: 0,
                    window_cycles: 0,
                }
                .with_windows(w),
            ),
        });
        let notify = scorpio.then(|| {
            // One notification fabric whose messages carry an independent
            // announcement word group per plane; the scheme picks flat
            // grid-diameter propagation or the hierarchical quad tree.
            let mut n = NotifyNetwork::with_scheme(
                &cfg.mesh,
                NotifyConfig {
                    cores,
                    bits_per_core: cfg.notification_bits,
                    window: cfg.notification_window(),
                },
                planes.get(),
                cfg.notify,
            );
            // Windowed telemetry wants every publish-tick timestamp,
            // including those inside empty-window leaps.
            n.set_publish_log(cfg.window_cycles != 0);
            n
        });
        let mode = if scorpio {
            NicMode::Ordered
        } else {
            NicMode::Unordered
        };
        // Home-directory slices for the baselines: the total budget is
        // split across tiles; LPD's wide entries cache far fewer lines
        // than HT's 2-bit entries in the same storage (Section 5.1).
        let entry_bits = match cfg.protocol {
            Protocol::LpdDir => LpdEntry::entry_bits(cores, cfg.lpd_pointers),
            _ => 2,
        };
        let slice_bytes = (cfg.dir_total_bytes / cores).max(64);
        let dir_homes: Vec<DirHome> = (0..cores)
            .map(|_| {
                DirHome::new(
                    slice_bytes,
                    entry_bits,
                    cfg.mc.dir_latency,
                    cfg.mc.dir_miss_penalty,
                )
            })
            .collect();
        let nic_cfg = cfg.nic.clone();
        let endpoints: Vec<Endpoint> = cfg.mesh.endpoints().collect();
        let nics: Vec<Nic<CohMsg>> = endpoints
            .iter()
            .enumerate()
            .map(|(i, ep)| {
                // A tile's SID is its tile number — its dense endpoint
                // index (tiles come first), which on a concentrated mesh
                // differs from its router id.
                let sid = ep.slot.is_tile().then_some(scorpio_noc::Sid(i as u16));
                Nic::new(*ep, sid, mode, cores, planes.get(), nic_cfg.clone())
            })
            .collect();
        let drivers: Vec<CoreDriver> = kinds
            .into_iter()
            .enumerate()
            .map(|(i, k)| {
                let mut d = CoreDriver::new(k, cfg.l1_bytes, cfg.l1_ways, cfg.l2.line_bytes);
                d.set_max_outstanding(cfg.core_outstanding);
                if let Some(ol) = &cfg.open_loop {
                    // Schedules are drawn serially here from (seed, core)
                    // lanes, so they are byte-identical for every engine
                    // and worker-thread count. A zero-load schedule is
                    // empty and the driver stays closed-loop.
                    d.set_open_loop(ol.process, ol.load_millis, ol.queue_cap, i as u64, cfg.seed);
                }
                d
            })
            .collect();
        let l2s: Vec<SnoopyL2> = (0..cores as u16)
            .map(|t| {
                let mut l2 = SnoopyL2::new(t, cfg.l2.clone());
                if cfg.obs != ObsLevel::Off {
                    l2.stats.enable_histograms();
                }
                if cfg.spans {
                    l2.enable_spans();
                }
                l2
            })
            .collect();
        let mc_total = cfg.mesh.mc_routers().len();
        let mcs: Vec<MemoryController> = cfg
            .mesh
            .mc_routers()
            .iter()
            .enumerate()
            .map(|(i, &r)| {
                MemoryController::new(
                    Endpoint::mc(r),
                    i,
                    mc_total,
                    cfg.l2.line_bytes,
                    cfg.mc.clone(),
                )
            })
            .collect();
        let n_eps = endpoints.len();
        let n_mcs = mcs.len();
        // The per-region layer shares the notification tree's leaf-quad
        // partition; flat schemes and baselines collapse to one region.
        let (regions, region_of_router): (usize, Vec<u32>) = match &notify {
            Some(n) if n.regions() > 1 => (
                n.regions(),
                (0..cfg.mesh.router_count())
                    .map(|r| n.region_of_router(r))
                    .collect(),
            ),
            _ => (1, vec![0; cfg.mesh.router_count()]),
        };
        let region_of_ep: Vec<u32> = endpoints
            .iter()
            .map(|ep| region_of_router[ep.router.index()])
            .collect();
        let mut tile_active = ActiveSet::new(cores);
        tile_active.wake_all();
        let mut mc_active = ActiveSet::new(n_mcs);
        mc_active.wake_all();
        System {
            net,
            notify,
            nics,
            drivers,
            l2s,
            mcs,
            reorders: (0..n_eps).map(|_| InsoReorderBuffer::new()).collect(),
            inso_alloc: (0..cores)
                .map(|t| InsoSlotAllocator::new(t, cores))
                .collect(),
            oracle_seq: 0,
            pending_ordered: vec![None; cores],
            pending_expiry: vec![None; cores],
            resp_hold: vec![None; n_eps],
            dir_homes,
            expiry_sent: 0,
            watchdog_steps: 0,
            watchdog_ops: 0,
            stepped: 0,
            tile_active,
            mc_active,
            tile_scratch: Vec::new(),
            mc_scratch: Vec::new(),
            ep_scratch: Vec::new(),
            tile_quiet: vec![false; cores],
            mc_quiet: vec![false; n_mcs],
            tiles_pending: cores,
            mcs_pending: n_mcs,
            ops_cache: vec![0; cores],
            ops_total: 0,
            last_notify_window: None,
            timed_wakes: RegionWakes::new(regions, region_of_ep.clone()),
            regions,
            region_of_router,
            region_of_ep,
            region_bits: vec![0; regions.div_ceil(64)],
            region_cycles_stepped: 0,
            always_scan: false,
            sys_trace: vec![Vec::new(); cfg.planes.get()],
            sys_seq: 0,
            sys_trace_dropped: 0,
            win_ops: Vec::new(),
            cfg,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Maps a coherence-layer destination to its delivery-fabric endpoint.
    ///
    /// The cache/memory layer addresses tiles by *tile index* (it encodes
    /// tile `t` as `Endpoint::tile(RouterId(t))` — requesters, FID owners
    /// and directory homes are all tile numbers); the fabric addresses
    /// them by (router, slot). On every unconcentrated fabric the two
    /// coincide; on a concentrated mesh tile `t` lives at router `t / c`,
    /// slot `t % c`. MC endpoints already carry physical router ids and
    /// pass through. This is the single logical→physical boundary — every
    /// unicast the system layer injects crosses it.
    fn physical_dest(&self, dest: Endpoint) -> Endpoint {
        match dest.slot {
            LocalSlot::Tile(k) => {
                debug_assert_eq!(k, 0, "coherence layer addresses tiles by index");
                self.cfg.mesh.tile_endpoint(dest.router.index())
            }
            LocalSlot::Mc => dest,
        }
    }

    /// Current cycle.
    pub fn cycle(&self) -> Cycle {
        self.net.cycle()
    }

    /// Selects the always-scan engine: probe every tile, MC, router and
    /// injection port each cycle, compute [`System::is_complete`] by full
    /// scan and never leap the clock, exactly as the pre-refactor engine
    /// did. The active-set engine (the default) is required to produce
    /// byte-identical [`SystemReport`]s — asserted by the
    /// engine-equivalence suite — so this switch exists to keep that claim
    /// testable and the speedup measurable. Call before the first cycle.
    pub fn set_always_scan(&mut self, scan: bool) {
        self.always_scan = scan;
        self.net.set_always_scan(scan);
    }

    /// Cycles actually executed as steps; `cycle - stepped_cycles` is the
    /// span covered by clock leaps. Under always-scan, which never leaps,
    /// this equals [`System::cycle`].
    pub fn stepped_cycles(&self) -> u64 {
        self.stepped
    }

    /// Number of per-region leap domains: the notification tree's leaf
    /// quads under a quad scheme, 1 under the flat scheme or for
    /// protocols without a notification network.
    pub fn regions(&self) -> usize {
        self.regions
    }

    /// Σ over stepped cycles of the number of regions active that cycle
    /// (min 1). Dividing by [`System::regions`] gives the mean per-region
    /// stepped-cycle count, whose ratio to the runtime is the per-region
    /// leap ratio. Without per-region accounting (flat scheme, single
    /// region, or the always-scan engine) every region steps every stepped
    /// cycle, so this is `stepped_cycles × regions`.
    pub fn region_cycles_stepped(&self) -> u64 {
        if !self.always_scan && self.regions > 1 {
            self.region_cycles_stepped
        } else {
            self.stepped * self.regions as u64
        }
    }

    /// Whether every core has finished and the machine is quiescent.
    ///
    /// The active-set engine answers from incrementally maintained
    /// counters (components report completion transitions as they tick);
    /// the always-scan engine performs the full scan the counters mirror.
    pub fn is_complete(&self) -> bool {
        if self.always_scan {
            self.drivers.iter().all(CoreDriver::is_done)
                && self.l2s.iter().all(SnoopyL2::is_idle)
                && self.mcs.iter().all(MemoryController::is_idle)
                && self.pending_ordered.iter().all(Option::is_none)
                && self.resp_hold.iter().all(Option::is_none)
                && self.dir_homes.iter().all(DirHome::is_idle)
        } else {
            self.tiles_pending == 0 && self.mcs_pending == 0
        }
    }

    /// Runs until completion (or `cfg.max_cycles`), returning the report.
    ///
    /// # Panics
    ///
    /// Panics if the system makes no progress for 50 000 cycles — the
    /// deadlock watchdog used by the verification suite.
    pub fn run_to_completion(&mut self) -> SystemReport {
        let max = self.cfg.max_cycles;
        while !self.is_complete() && self.cycle().as_u64() < max {
            self.step();
            // The ops total is maintained incrementally as drivers tick
            // (a sleeping driver is done and cannot complete ops). The
            // watchdog counts *steps* without progress, not raw cycles: a
            // clock leap over a >50k-cycle compute gap is progress-neutral
            // idleness, not a wedge (under always-scan the two measures
            // coincide, every step being one cycle).
            if self.ops_total > self.watchdog_ops {
                self.watchdog_ops = self.ops_total;
                self.watchdog_steps = self.stepped;
            }
            assert!(
                self.stepped - self.watchdog_steps < 50_000,
                "system wedged: no op completed for 50k stepped cycles at {} ({} ops done)",
                self.cycle(),
                self.ops_total
            );
        }
        self.report()
    }

    /// One full system cycle. When the whole machine is provably idle,
    /// the active-set engine's clock first jumps to just before the next
    /// timed deadline (the event leap), so this call may advance
    /// [`System::cycle`] by more than one.
    pub fn step(&mut self) {
        self.try_leap();
        self.stepped += 1;
        let now = self.net.cycle();
        self.tick_tiles(now);
        self.tick_mcs(now);
        self.net.tick();
        self.net.commit();
        if let Some(n) = self.notify.as_mut() {
            n.tick();
        }
        self.apply_wakes();
        if !self.always_scan && self.regions > 1 {
            self.account_region_activity();
        }
    }

    /// Per-region stepped-cycle accounting (quad schemes under the
    /// active-set engine): after the cycle's ticks, OR together the
    /// regions of every component that was on a work list this cycle —
    /// drained tiles and MCs, plus the delivery fabric's drained routers
    /// and injection ports on every non-skipped plane — and charge one
    /// stepped region-cycle per active region (min 1, for pure
    /// bookkeeping cycles such as notification-window edges). Regions
    /// absent from the mask leap the cycle locally; they rejoin the global
    /// clock deterministically at their next timer fire, flit-delivery
    /// endpoint wake, or window-completion wake-all — the clock-join
    /// protocol (DESIGN.md §15). Pure accounting: the simulation itself is
    /// byte-identical with the accounting on or off.
    fn account_region_activity(&mut self) {
        let mut bits = std::mem::take(&mut self.region_bits);
        bits.iter_mut().for_each(|w| *w = 0);
        let cores = self.cfg.cores();
        for &t in &self.tile_scratch {
            let g = self.region_of_ep[t as usize];
            bits[g as usize / 64] |= 1 << (g % 64);
        }
        for &m in &self.mc_scratch {
            let g = self.region_of_ep[cores + m as usize];
            bits[g as usize / 64] |= 1 << (g % 64);
        }
        self.net
            .or_ticked_regions(&self.region_of_router, &self.region_of_ep, &mut bits);
        let active: u32 = bits.iter().map(|w| w.count_ones()).sum();
        self.region_cycles_stepped += u64::from(active.max(1));
        self.region_bits = bits;
    }

    /// The event leap: if nothing can happen until the earliest timed
    /// deadline `k` (a compute gap or a scheduled memory response), advance
    /// the clock to `k - 1` and let the following normal step fire the
    /// wake exactly as a cycle-by-cycle clock would (timed wakes with key
    /// `<= cycle` fire at the end of the step that reaches them, so the
    /// woken component ticks at cycle `k`). The always-scan reference
    /// never leaps.
    ///
    /// The notification network need not be idle: a live window whose
    /// announcers are all asleep (see `Nic::can_sleep`) bounds
    /// the jump instead, via [`NotifyNetwork::leap_horizon`] — the clock
    /// leaps straight to the window's publish tick (or to `k - 1`,
    /// whichever is earlier), and [`NotifyNetwork::advance`] fast-forwards
    /// the OR-tree state exactly (mid-window propagation over latched
    /// inputs is time-invariant). The remaining preconditions make the
    /// skipped span a provable no-op: both active sets empty (no tile or
    /// MC would tick) and every plane quiescent (its tick/commit collapses
    /// to a clock edge — the same argument the idle-plane skip rests on).
    fn try_leap(&mut self) {
        if self.always_scan || !self.tile_active.is_empty() || !self.mc_active.is_empty() {
            return;
        }
        let wake = self.timed_wakes.first_deadline();
        let horizon = self.notify.as_ref().and_then(NotifyNetwork::leap_horizon);
        let target = match (wake, horizon) {
            (Some(k), Some(h)) => (k - 1).min(h),
            (Some(k), None) => k - 1,
            (None, Some(h)) => h,
            (None, None) => return,
        };
        let now = self.net.cycle().as_u64();
        // Never leap past the run bound: a cycle-by-cycle clock would have
        // stopped stepping at max_cycles with the deadline still pending.
        let target = target.min(self.cfg.max_cycles.saturating_sub(1));
        if target <= now {
            return;
        }
        if !self.net.is_quiescent() {
            return;
        }
        let delta = target - now;
        self.net.leap(delta);
        if let Some(n) = self.notify.as_mut() {
            n.advance(delta);
        }
    }

    /// Post-cycle wake propagation (active-set engine): endpoints whose
    /// ejection buffers received flits wake their tile/MC, and a completed
    /// notification window carrying announcements (or a stop bit) wakes
    /// everyone — every NIC must observe it.
    fn apply_wakes(&mut self) {
        if self.always_scan {
            return;
        }
        // Fire due timed wakes (gap and MC-response deadlines) for the
        // next cycle. The region buckets drain in region order, not global
        // deadline order — harmless, since waking an active set is
        // order-independent (it drains sorted).
        let next = self.net.cycle().as_u64();
        let cores = self.cfg.cores();
        let mut eps = std::mem::take(&mut self.ep_scratch);
        self.timed_wakes.pop_due(next, &mut eps);
        for &v in &eps {
            let v = v as usize;
            if v < cores {
                self.tile_active.wake(v);
            } else {
                self.mc_active.wake(v - cores);
            }
        }
        self.net.take_woken_endpoints(&mut eps);
        for &ep in &eps {
            let ep = ep as usize;
            if ep < cores {
                self.tile_active.wake(ep);
            } else {
                self.mc_active.wake(ep - cores);
            }
        }
        self.ep_scratch = eps;
        if let Some(n) = &self.notify {
            if let Some((w, msg)) = n.latest() {
                if self.last_notify_window != Some(w) {
                    self.last_notify_window = Some(w);
                    // is_empty() is false for stop-bit windows too, so this
                    // single check covers both wake triggers.
                    if !msg.is_empty() {
                        self.tile_active.wake_all();
                        self.mc_active.wake_all();
                    }
                }
            }
        }
    }

    fn tick_tiles(&mut self, now: Cycle) {
        let mut list = std::mem::take(&mut self.tile_scratch);
        self.tile_active
            .drain_sorted_or_all(self.always_scan, &mut list);
        for &t in &list {
            self.tick_tile(t as usize, now);
        }
        self.tile_scratch = list;
    }

    fn tick_tile(&mut self, t: usize, now: Cycle) {
        // L2 → core completions, then inclusion invalidations.
        while let Some(resp) = self.l2s[t].pop_core_resp() {
            self.drivers[t].complete(now, resp);
        }
        while let Some(addr) = self.l2s[t].pop_l1_invalidation() {
            self.drivers[t].l1_mut().invalidate(addr);
        }
        // Ordered deliveries into the snoop queue.
        match self.cfg.protocol {
            Protocol::Scorpio => {
                while self.l2s[t].snoop_ready() {
                    let Some(d) = self.nics[t].pop_ordered() else {
                        break;
                    };
                    self.trace_commit(now, t, d.sid, d.own, d.payload.steer_key());
                    if self.cfg.spans
                        && d.own
                        && matches!(d.payload.kind, MsgKind::GetS | MsgKind::GetX)
                    {
                        self.l2s[t].stamp_popped(d.payload.req_tag, now);
                    }
                    self.l2s[t].push_snoop(OrderedSnoop {
                        own: d.own,
                        msg: d.payload,
                    });
                }
                self.drain_data_packets(t, now);
            }
            _ => {
                self.drain_unordered_packets(t, now);
                while self.l2s[t].snoop_ready() {
                    match self.reorders[t].pop_ready() {
                        Some(Some(msg)) => {
                            let own = msg.requester as usize == t;
                            if self.cfg.spans
                                && own
                                && matches!(msg.kind, MsgKind::GetS | MsgKind::GetX)
                            {
                                self.l2s[t].stamp_popped(msg.req_tag, now);
                            }
                            self.l2s[t].push_snoop(OrderedSnoop { own, msg });
                        }
                        Some(None) => {} // expired slot
                        None => break,
                    }
                }
            }
        }
        // Held data response, then L2 outbox → NIC.
        self.push_held_resp(t);
        self.forward_l2_out(t, now);
        // INSO: idle tiles must expire slots.
        if let Protocol::Inso { expiry_window } = self.cfg.protocol {
            self.inso_expiry(t, now, expiry_window);
        }
        // Directory baselines: the home slice orders and rebroadcasts.
        if self.cfg.protocol.uses_directory() {
            self.tick_dir_home(t, now);
        }
        // Core issues; L2 and NIC advance.
        self.drivers[t].tick(now, &mut self.l2s[t]);
        self.l2s[t].tick(now);
        let notify = self.notify.as_mut();
        self.nics[t].tick(now, &mut self.net, notify);
        // Report this tile's completion transition and ops progress, then
        // decide whether it may sleep. `drained` is the tile-local state
        // shared by both predicates: the completion counter adds "core
        // done", the sleep check adds the wake-protocol conditions.
        let drained = self.l2s[t].is_idle()
            && self.pending_ordered[t].is_none()
            && self.resp_hold[t].is_none()
            && self.dir_homes[t].is_idle();
        let quiet = drained && self.drivers[t].is_done();
        if quiet != self.tile_quiet[t] {
            self.tile_quiet[t] = quiet;
            if quiet {
                self.tiles_pending -= 1;
            } else {
                self.tiles_pending += 1;
            }
        }
        let ops = self.drivers[t].ops_done;
        let ops_delta = ops - self.ops_cache[t];
        self.ops_total += ops_delta;
        self.ops_cache[t] = ops;
        if self.cfg.window_cycles != 0 && ops_delta != 0 {
            let idx = (now.as_u64() / self.cfg.window_cycles) as usize;
            if self.win_ops.len() <= idx {
                self.win_ops.resize(idx + 1, 0);
            }
            self.win_ops[idx] += ops_delta;
        }
        if !self.always_scan {
            // Sleep only when every obligation other than the core itself
            // is gone; any future work must then arrive as an ejected
            // flit or a notification window, both of which wake the tile.
            // A tile whose only obligation is an in-flight announcement
            // sleeps too (its window's publication wakes everyone), which
            // is what lets the clock leap through live windows. INSO tiles
            // never sleep: slot expiry is wall-clock driven.
            let rest_asleep = drained
                && !matches!(self.cfg.protocol, Protocol::Inso { .. })
                && self.pending_expiry[t].is_none()
                && self.l2s[t].outputs_drained()
                && self.nics[t].can_sleep()
                && self.reorders[t].buffered() == 0
                && !self.net.eject_occupied(t);
            if !rest_asleep {
                self.tile_active.wake(t);
            } else if !self.drivers[t].is_done() {
                // The core still has work: sleep through its compute gap
                // with a timed wake-up, or keep ticking if it is active.
                match self.drivers[t].next_wake(now) {
                    Some(wake) => self.timed_wakes.push(wake.as_u64(), t as u32),
                    None => self.tile_active.wake(t),
                }
            }
        }
    }

    fn tick_mcs(&mut self, now: Cycle) {
        let mut list = std::mem::take(&mut self.mc_scratch);
        self.mc_active
            .drain_sorted_or_all(self.always_scan, &mut list);
        for &m in &list {
            self.tick_mc(m as usize, now);
        }
        self.mc_scratch = list;
    }

    fn tick_mc(&mut self, m: usize, now: Cycle) {
        let cores = self.cfg.cores();
        let ep_idx = cores + m;
        match self.cfg.protocol {
            Protocol::Scorpio => {
                while let Some(d) = self.nics[ep_idx].pop_ordered() {
                    self.trace_commit(now, ep_idx, d.sid, d.own, d.payload.steer_key());
                    self.mcs[m].snoop(
                        OrderedSnoop {
                            own: false,
                            msg: d.payload,
                        },
                        now,
                    );
                }
                while let Some(pkt) = self.nics[ep_idx].pop_packet() {
                    assert_eq!(pkt.payload.kind, MsgKind::WbData);
                    self.mcs[m].wb_data(pkt.payload, now);
                }
            }
            _ => {
                while let Some(pkt) = self.nics[ep_idx].pop_packet() {
                    let msg = pkt.payload;
                    match msg.kind {
                        MsgKind::WbData => self.mcs[m].wb_data(msg, now),
                        MsgKind::InsoExpire => {
                            self.reorders[ep_idx].insert(msg.value, SlotContent::Expired);
                        }
                        k if k.is_ordered_request() => {
                            self.reorders[ep_idx].insert(msg.value, SlotContent::Request(msg));
                        }
                        other => panic!("MC received {other:?}"),
                    }
                }
                while let Some(ready) = self.reorders[ep_idx].pop_ready() {
                    if let Some(msg) = ready {
                        self.mcs[m].snoop(OrderedSnoop { own: false, msg }, now);
                    }
                }
            }
        }
        self.mcs[m].tick(now);
        while let Some(out) = self.mcs[m].peek_out() {
            let dest = self.physical_dest(out.dest);
            let msg = out.msg;
            let flits = self.cfg.noc.data_flits();
            match self.nics[ep_idx].try_send_unicast(
                VnetId::UO_RESP,
                dest,
                flits,
                msg,
                &mut self.net,
            ) {
                Ok(()) => {
                    self.mcs[m].pop_out();
                }
                Err(_) => break,
            }
        }
        let notify = self.notify.as_mut();
        self.nics[ep_idx].tick(now, &mut self.net, notify);
        // Completion transition and sleep decision, mirroring tick_tile.
        let quiet = self.mcs[m].is_idle();
        if quiet != self.mc_quiet[m] {
            self.mc_quiet[m] = quiet;
            if quiet {
                self.mcs_pending -= 1;
            } else {
                self.mcs_pending += 1;
            }
        }
        if !self.always_scan {
            // Unlike a tile, an MC with in-flight DRAM accesses can still
            // sleep: its only self-driven observable is releasing a
            // response at a *known* cycle, so it parks on a timed wake at
            // the earliest such deadline. Everything else that could need
            // a tick arrives as an ejected flit, which wakes the endpoint.
            let rest_asleep = self.nics[ep_idx].can_sleep()
                && self.reorders[ep_idx].buffered() == 0
                && !self.net.eject_occupied(ep_idx)
                && self.mcs[m].peek_out().is_none();
            if !rest_asleep {
                self.mc_active.wake(m);
            } else if let Some(ready) = self.mcs[m].next_deadline() {
                self.timed_wakes.push(ready.as_u64(), ep_idx as u32);
            }
        }
    }

    /// SCORPIO mode: unordered packets are data (or writeback data routed
    /// here by mistake — asserted against).
    fn drain_data_packets(&mut self, t: usize, _now: Cycle) {
        while self.resp_hold[t].is_none() {
            let Some(pkt) = self.nics[t].pop_packet() else {
                break;
            };
            let msg = pkt.payload;
            assert_eq!(msg.kind, MsgKind::Data, "tile received {:?}", msg.kind);
            if self.l2s[t].resp_ready() {
                self.l2s[t].push_resp(msg);
            } else {
                self.resp_hold[t] = Some(msg);
            }
        }
    }

    /// Baseline modes: packets carry requests (to reorder), expiries, data.
    fn drain_unordered_packets(&mut self, t: usize, _now: Cycle) {
        while self.resp_hold[t].is_none() {
            let Some(pkt) = self.nics[t].pop_packet() else {
                break;
            };
            let msg = pkt.payload;
            match msg.kind {
                MsgKind::Data => {
                    if self.l2s[t].resp_ready() {
                        self.l2s[t].push_resp(msg);
                    } else {
                        self.resp_hold[t] = Some(msg);
                    }
                }
                MsgKind::InsoExpire => {
                    self.reorders[t].insert(msg.value, SlotContent::Expired);
                }
                MsgKind::DirGetS | MsgKind::DirGetX | MsgKind::DirPut => {
                    // We are the home for this line: order after the
                    // directory-cache access.
                    self.dir_homes[t].accept(msg, _now);
                }
                k if k.is_ordered_request() => {
                    self.reorders[t].insert(msg.value, SlotContent::Request(msg));
                }
                other => panic!("tile received {other:?}"),
            }
        }
    }

    fn push_held_resp(&mut self, t: usize) {
        if let Some(msg) = self.resp_hold[t].take() {
            if self.l2s[t].resp_ready() {
                self.l2s[t].push_resp(msg);
            } else {
                self.resp_hold[t] = Some(msg);
            }
        }
    }

    /// Moves L2 output messages into the NIC, respecting backpressure.
    fn forward_l2_out(&mut self, t: usize, now: Cycle) {
        // A previously slot-stamped ordered request retries first.
        if let Some(msg) = self.pending_ordered[t].take() {
            match self.nics[t].try_send_broadcast(VnetId(0), msg, &mut self.net) {
                Ok(()) => {}
                Err(_) => {
                    self.pending_ordered[t] = Some(msg);
                    return;
                }
            }
        }
        while let Some(out) = self.l2s[t].peek_out().copied() {
            // Span stamp for every ordered-request pop below: the cycle the
            // request leaves the L2 outbox toward the interconnect layer.
            // WbReq is excluded — it has no RSHR entry, and its tag could
            // alias a live one.
            let span_tag = match out {
                L2Out::OrderedRequest(m)
                    if self.cfg.spans && matches!(m.kind, MsgKind::GetS | MsgKind::GetX) =>
                {
                    Some(m.req_tag)
                }
                _ => None,
            };
            let stamp = |l2: &mut SnoopyL2| {
                if let Some(tag) = span_tag {
                    l2.stamp_inject(tag, now);
                }
            };
            match out {
                L2Out::OrderedRequest(msg) => match self.cfg.protocol {
                    Protocol::LpdDir | Protocol::HtDir => {
                        let home = home_tile(msg.addr, self.cfg.cores()) as usize;
                        let dir_kind = match msg.kind {
                            MsgKind::GetS => MsgKind::DirGetS,
                            MsgKind::GetX => MsgKind::DirGetX,
                            MsgKind::WbReq => MsgKind::DirPut,
                            other => panic!("unexpected ordered kind {other:?}"),
                        };
                        let mut dir_msg = msg;
                        dir_msg.kind = dir_kind;
                        if home == t {
                            // Local home: no network hop for the request.
                            self.l2s[t].pop_out();
                            stamp(&mut self.l2s[t]);
                            self.dir_homes[t].accept(dir_msg, now);
                        } else {
                            let dest = self.cfg.mesh.tile_endpoint(home);
                            if self.nics[t]
                                .try_send_unicast(VnetId(0), dest, 1, dir_msg, &mut self.net)
                                .is_err()
                            {
                                break;
                            }
                            self.l2s[t].pop_out();
                            stamp(&mut self.l2s[t]);
                        }
                    }
                    Protocol::Scorpio => {
                        if self.nics[t]
                            .try_send_request(msg, now, &mut self.net)
                            .is_err()
                        {
                            break;
                        }
                        self.l2s[t].pop_out();
                        stamp(&mut self.l2s[t]);
                    }
                    Protocol::TokenB => {
                        let slot = self.oracle_seq;
                        self.oracle_seq += 1;
                        let stamped = msg.with_value(slot);
                        self.l2s[t].pop_out();
                        stamp(&mut self.l2s[t]);
                        self.reorders[t].insert(slot, SlotContent::Request(stamped));
                        if self.nics[t]
                            .try_send_broadcast(VnetId(0), stamped, &mut self.net)
                            .is_err()
                        {
                            self.pending_ordered[t] = Some(stamped);
                            break;
                        }
                    }
                    Protocol::Inso { .. } => {
                        let slot = self.inso_alloc[t].take_slot(now);
                        let stamped = msg.with_value(slot);
                        self.l2s[t].pop_out();
                        stamp(&mut self.l2s[t]);
                        self.reorders[t].insert(slot, SlotContent::Request(stamped));
                        if self.nics[t]
                            .try_send_broadcast(VnetId(0), stamped, &mut self.net)
                            .is_err()
                        {
                            self.pending_ordered[t] = Some(stamped);
                            break;
                        }
                    }
                },
                L2Out::Unicast {
                    dest,
                    msg,
                    data_sized,
                } => {
                    let flits = if data_sized {
                        self.cfg.noc.data_flits()
                    } else {
                        1
                    };
                    let dest = self.physical_dest(dest);
                    if self.nics[t]
                        .try_send_unicast(VnetId::UO_RESP, dest, flits, msg, &mut self.net)
                        .is_err()
                    {
                        break;
                    }
                    self.l2s[t].pop_out();
                }
            }
        }
    }

    fn inso_expiry(&mut self, t: usize, now: Cycle, window: u64) {
        // Retry an unsent expiry first.
        if let Some(msg) = self.pending_expiry[t].take() {
            if self.nics[t]
                .try_send_broadcast(VnetId(0), msg, &mut self.net)
                .is_err()
            {
                self.pending_expiry[t] = Some(msg);
            }
            return;
        }
        // Do not expire while a request is waiting to inject (its slot is
        // already allocated and must stay in sequence).
        if self.pending_ordered[t].is_some() {
            return;
        }
        // Pace expiry against consumption: racing more than a couple of
        // rounds ahead of what this node has released floods the network
        // with expiries faster than they can deliver (livelock).
        let lead_bound = 2 * self.cfg.cores() as u64;
        if self.inso_alloc[t].peek_next_slot() > self.reorders[t].next_slot() + lead_bound {
            return;
        }
        if let Some(slot) = self.inso_alloc[t].maybe_expire(now, window) {
            let me = Endpoint::tile(scorpio_noc::RouterId(t as u16));
            let msg = scorpio_coherence::CohMsg::new(
                MsgKind::InsoExpire,
                scorpio_coherence::LineAddr(0),
                t as u16,
                0,
                me,
            )
            .with_value(slot);
            self.reorders[t].insert(slot, SlotContent::Expired);
            self.expiry_sent += 1;
            if self.nics[t]
                .try_send_broadcast(VnetId(0), msg, &mut self.net)
                .is_err()
            {
                self.pending_expiry[t] = Some(msg);
            }
        }
    }

    /// Home-directory pipeline: ordered requests leave as broadcasts once
    /// the directory access completes.
    fn tick_dir_home(&mut self, t: usize, now: Cycle) {
        // Retry a broadcast that could not inject.
        if let Some(msg) = self.dir_homes[t].pending_bcast.take() {
            if self.nics[t]
                .try_send_broadcast(VnetId(0), msg, &mut self.net)
                .is_err()
            {
                self.dir_homes[t].pending_bcast = Some(msg);
                return;
            }
        }
        while let Some(mut msg) = self.dir_homes[t].pop_ready(now) {
            // Back to the snoopy kind, stamped with the global slot.
            msg.kind = match msg.kind {
                MsgKind::DirGetS => MsgKind::GetS,
                MsgKind::DirGetX => MsgKind::GetX,
                MsgKind::DirPut => MsgKind::WbReq,
                other => panic!("home ordered {other:?}"),
            };
            let slot = self.oracle_seq;
            self.oracle_seq += 1;
            let stamped = msg.with_value(slot);
            // The broadcast skips the home tile itself: insert locally.
            self.reorders[t].insert(slot, SlotContent::Request(stamped));
            if self.nics[t]
                .try_send_broadcast(VnetId(0), stamped, &mut self.net)
                .is_err()
            {
                self.dir_homes[t].pending_bcast = Some(stamped);
                break;
            }
        }
    }

    /// Records a system-layer ordered-commit trace event: endpoint `ep`
    /// consumed the SID-`sid` ordered broadcast from its NIC (`own` marks
    /// the requester's own observation). `key` is the payload's steering
    /// key — the event is filed under the plane the request travelled on.
    fn trace_commit(&mut self, now: Cycle, ep: usize, sid: scorpio_noc::Sid, own: bool, key: u64) {
        if self.cfg.obs != ObsLevel::Trace {
            return;
        }
        let seq = self.sys_seq;
        self.sys_seq += 1;
        let plane = self.net.plane_of(key);
        if self.sys_trace[plane].len() >= self.cfg.trace_limit {
            self.sys_trace_dropped += 1;
            return;
        }
        self.sys_trace[plane].push(TraceEvent {
            cycle: now.as_u64(),
            plane: plane as u16,
            src: 1,
            seq,
            kind: TraceKind::OrderedCommit,
            uid: u64::from(sid.0),
            vnet: 0,
            node: ep as u32,
            port: 0,
            vc: 0,
            aux: u64::from(own),
        });
    }

    /// Per-stream trace totals: events currently retained across every
    /// network plane and the system layer, and events already dropped at
    /// the per-stream caps.
    fn trace_totals(&self) -> (usize, u64) {
        let mut kept = 0;
        let mut dropped = self.sys_trace_dropped;
        for p in 0..self.cfg.planes.get() {
            kept += self.sys_trace[p].len();
            if let Some(o) = self.net.obs(p) {
                kept += o.events().len();
                dropped += o.dropped();
            }
        }
        (kept, dropped)
    }

    /// Drains the run's flit-event trace: every plane's network stream
    /// plus the system layer's ordered-commit streams, merged into one
    /// deterministically ordered list (ascending [`TraceEvent::sort_key`])
    /// capped at `cfg.trace_limit`. The second value counts events beyond
    /// the cap. Returns an empty trace unless `cfg.obs` is
    /// [`ObsLevel::Trace`].
    pub fn take_trace(&mut self) -> (Vec<TraceEvent>, u64) {
        let (kept, mut dropped) = self.trace_totals();
        let mut streams: Vec<Vec<TraceEvent>> = Vec::new();
        self.net.take_trace(&mut streams);
        for s in &mut self.sys_trace {
            streams.push(std::mem::take(s));
        }
        self.sys_trace_dropped = 0;
        let merged = merge_trace(streams, self.cfg.trace_limit);
        dropped += (kept - merged.len()) as u64;
        (merged, dropped)
    }

    /// The run's transaction spans, merged across tiles into retire order
    /// (stable sort, tiles visited in index order, so ties keep tile
    /// order — a deterministic, engine-invariant key), capped at
    /// `cfg.trace_limit`. The second value counts spans beyond the cap.
    /// Empty unless `cfg.spans` is set.
    pub fn span_records(&self) -> (Vec<MissSpan>, u64) {
        let mut all: Vec<MissSpan> = Vec::new();
        for l2 in &self.l2s {
            all.extend_from_slice(l2.spans());
        }
        all.sort_by_key(|s| s.retire);
        let total = all.len();
        all.truncate(self.cfg.trace_limit);
        let dropped = (total - all.len()) as u64;
        (all, dropped)
    }

    /// The run's merged windowed-telemetry rows — every plane's epoch
    /// cells folded together, plus core-op progress and notification
    /// publish ticks. Empty unless `cfg.window_cycles` is non-zero.
    pub fn window_rows(&self) -> Vec<WindowRow> {
        self.window_data().0
    }

    /// Builds the window rows and their summary in one pass.
    fn window_data(&self) -> (Vec<WindowRow>, WindowReport) {
        let w = self.cfg.window_cycles;
        let mut report = WindowReport {
            window_cycles: w,
            ..WindowReport::default()
        };
        if w == 0 {
            return (Vec::new(), report);
        }
        // Fold the planes' epoch cells together; epochs one plane never
        // touched merge as zero.
        let mut cells: Vec<WindowCell> = Vec::new();
        for p in 0..self.cfg.planes.get() {
            let Some(o) = self.net.obs(p) else { continue };
            if cells.len() < o.windows().len() {
                cells.resize_with(o.windows().len(), || WindowCell::new(0));
            }
            for (a, b) in cells.iter_mut().zip(o.windows()) {
                a.merge(b);
            }
        }
        // Notification publish ticks, bucketed by epoch.
        let mut publishes: Vec<u64> = Vec::new();
        if let Some(n) = &self.notify {
            for &c in n.publish_log() {
                let idx = (c / w) as usize;
                if publishes.len() <= idx {
                    publishes.resize(idx + 1, 0);
                }
                publishes[idx] += 1;
            }
        }
        let count = cells.len().max(self.win_ops.len()).max(publishes.len());
        let mut rows = Vec::with_capacity(count);
        for i in 0..count {
            let mut row = WindowRow {
                window: i as u64,
                start: i as u64 * w,
                cycles: w,
                ops: self.win_ops.get(i).copied().unwrap_or(0),
                publishes: publishes.get(i).copied().unwrap_or(0),
                ..WindowRow::default()
            };
            if let Some(c) = cells.get(i) {
                row.injected = c.injected;
                row.ejected = c.ejected;
                row.latency = c.latency.clone();
                row.wait_count = c.wait_count;
                row.wait_sum = c.wait_sum;
                row.wait_max = c.wait_max;
                row.buffer_integral = c.buffer_integral;
                for (ep, &(cnt, sum)) in c.ep_wait.iter().enumerate() {
                    if cnt == 0 {
                        continue;
                    }
                    let cand = EpWait {
                        ep: ep as u32,
                        window: i as u64,
                        count: cnt,
                        sum,
                    };
                    let beats_max = match &row.ep_wait_max {
                        None => true,
                        Some(b) => wait_mean_gt(sum, cnt, b.sum, b.count),
                    };
                    if beats_max {
                        row.ep_wait_max = Some(cand);
                    }
                    let beats_min = match &row.ep_wait_min {
                        None => true,
                        Some(b) => wait_mean_gt(b.sum, b.count, sum, cnt),
                    };
                    if beats_min {
                        row.ep_wait_min = Some(cand);
                    }
                }
            }
            // Fold the row extremes into the run-level starvation signal
            // (strict comparisons keep the earliest window / lowest
            // endpoint on ties — deterministic).
            if let Some(m) = &row.ep_wait_max {
                let take = match &report.max_wait {
                    None => true,
                    Some(b) => wait_mean_gt(m.sum, m.count, b.sum, b.count),
                };
                if take {
                    report.max_wait = Some(*m);
                }
            }
            if let Some(m) = &row.ep_wait_min {
                let take = match &report.min_wait {
                    None => true,
                    Some(b) => wait_mean_gt(b.sum, b.count, m.sum, m.count),
                };
                if take {
                    report.min_wait = Some(*m);
                }
            }
            rows.push(row);
        }
        // Warmup/steady-state split: the prefix before the first window
        // whose completed-op count reaches half the peak window's.
        let peak = rows.iter().map(|r| r.ops).max().unwrap_or(0);
        let warmup = if peak == 0 {
            0
        } else {
            rows.iter().position(|r| r.ops * 2 >= peak).unwrap_or(0)
        };
        report.count = rows.len() as u64;
        report.warmup = warmup as u64;
        for r in &rows[warmup..] {
            report.steady_ops += r.ops;
            report.steady_ejected += r.ejected;
        }
        (rows, report)
    }

    /// Assembles the observability annex: latency histograms merged
    /// across planes and L2s, per-plane counter snapshots, and the trace
    /// totals [`System::take_trace`] will report.
    fn obs_report(&self) -> Box<ObsReport> {
        let mut o = Box::new(ObsReport::default());
        o.vnet_latency = self
            .cfg
            .noc
            .vnets
            .iter()
            .map(|v| (v.name.to_string(), LogHistogram::default()))
            .collect();
        let endpoints: Vec<Endpoint> = self.cfg.mesh.endpoints().collect();
        // Concentration positions 0..tile_slots, then one MC bucket.
        let tile_slots = endpoints
            .iter()
            .filter_map(|e| match e.slot {
                LocalSlot::Tile(k) => Some(k as usize + 1),
                LocalSlot::Mc => None,
            })
            .max()
            .unwrap_or(1);
        o.inject_wait_slots = vec![LogHistogram::default(); tile_slots + 1];
        for p in 0..self.cfg.planes.get() {
            let Some(n) = self.net.obs(p) else { continue };
            o.packet_latency.merge(&n.packet_latency);
            for (dst, src) in o.vnet_latency.iter_mut().zip(&n.vnet_latency) {
                dst.1.merge(src);
            }
            for (i, h) in n.inject_wait.iter().enumerate() {
                o.inject_wait.merge(h);
                let slot = match endpoints[i].slot {
                    LocalSlot::Tile(k) => k as usize,
                    LocalSlot::Mc => tile_slots,
                };
                o.inject_wait_slots[slot].merge(h);
            }
            o.planes.push(PlaneObs {
                link_flits: n.link_flits.iter().sum(),
                links_used: n.link_flits.iter().filter(|&&c| c > 0).count() as u64,
                max_link_flits: n.link_flits.iter().copied().max().unwrap_or(0),
                buffer_integral: n.buffer_integral,
                stall_sa_i: n.stall_sa_i,
                stall_sa_ii: n.stall_sa_o,
                stall_vc_alloc: n.stall_vc_alloc,
                stall_credit: n.stall_credit,
                vc_buffered: n.vc_buffered.clone(),
            });
        }
        for l2 in &self.l2s {
            if let Some(h) = &l2.stats.service_hist {
                o.l2_service.merge(h);
            }
            if let Some(h) = &l2.stats.ordering_hist {
                o.ordering_delay.merge(h);
            }
        }
        let (kept, dropped) = self.trace_totals();
        let merged_kept = kept.min(self.cfg.trace_limit);
        o.trace_kept = merged_kept as u64;
        o.trace_dropped = dropped + (kept - merged_kept) as u64;
        if self.cfg.spans {
            let mut sp = SpanReport::default();
            for l2 in &self.l2s {
                for s in l2.spans() {
                    sp.fold(s);
                }
                sp.hit.merge(l2.span_hits());
            }
            // The phase histograms above fold every span; only the
            // record stream itself is capped.
            sp.dropped = sp.count.saturating_sub(self.cfg.trace_limit as u64);
            o.spans = Some(sp);
        }
        if self.cfg.window_cycles != 0 {
            o.windows = Some(self.window_data().1);
        }
        o
    }

    /// Builds the aggregate report for the run so far.
    pub fn report(&self) -> SystemReport {
        let mut r = SystemReport {
            protocol: self.cfg.protocol.name(),
            cores: self.cfg.cores(),
            runtime_cycles: self
                .drivers
                .iter()
                .map(|d| d.finished_at.unwrap_or(self.net.cycle()).as_u64())
                .max()
                .unwrap_or(0),
            ..SystemReport::default()
        };
        for d in &self.drivers {
            r.ops_completed += d.ops_done;
            r.l1_hits += d.l1_hits;
            r.source_dropped += d.src_dropped;
        }
        for l2 in &self.l2s {
            r.l2_hits += l2.stats.hits.get();
            r.l2_misses += l2.stats.misses.get();
            r.l2_service_latency.merge(&l2.stats.service_latency);
            r.cache_served.merge(&l2.stats.cache_served_latency);
            r.memory_served.merge(&l2.stats.memory_served_latency);
            r.ordering_delay.merge(&l2.stats.ordering_delay);
            r.data_forwards += l2.stats.data_forwards.get();
            r.snoops_filtered += l2.stats.snoops_filtered.get();
            r.snoops_looked_up += l2.stats.snoops.get();
            r.writebacks += l2.stats.writebacks.get();
            r.writebacks_squashed += l2.stats.wb_squashed.get();
        }
        for mc in &self.mcs {
            r.memory_responses += mc.stats.responses.get();
        }
        let ns = self.net.stats();
        r.bypassed_flits = ns.bypassed_flits;
        r.buffered_flits = ns.buffered_flits;
        r.packets_injected = ns.injected_packets.get();
        r.packet_latency = ns.packet_latency;
        if let Some(n) = &self.notify {
            r.notify_windows = n.windows_completed.get();
            r.notify_nonempty = n.nonempty_windows.get();
        }
        r.stop_windows = self.nics.iter().map(|n| n.stats.stop_windows.get()).sum();
        r.expiry_messages = self.expiry_sent;
        for h in &self.dir_homes {
            r.dir_accesses += h.dir.hits() + h.dir.misses();
            r.dir_misses += h.dir.misses();
        }
        if self.cfg.obs != ObsLevel::Off || self.cfg.spans || self.cfg.window_cycles != 0 {
            r.obs = Some(self.obs_report());
        }
        r
    }

    /// Direct access to a tile's L2 (verification).
    pub fn l2(&self, tile: usize) -> &SnoopyL2 {
        &self.l2s[tile]
    }

    /// Direct access to a memory controller (verification).
    pub fn mc(&self, idx: usize) -> &MemoryController {
        &self.mcs[idx]
    }

    /// Prints internal state for deadlock debugging.
    #[doc(hidden)]
    pub fn debug_dump(&self) {
        println!(
            "cycle {}  net last progress {}",
            self.cycle(),
            self.net.last_progress()
        );
        for (t, l2) in self.l2s.iter().enumerate() {
            println!(
                "tile {t}: driver done={} ops={} l2 idle={} esid={:?} nic backlog={} ordered_backlog={}",
                self.drivers[t].is_done(),
                self.drivers[t].ops_done,
                l2.is_idle(),
                self.nics[t].current_esid(),
                self.net.inject_backlog(self.nics[t].endpoint()),
                self.nics[t].ordering_backlog(),
            );
            println!("        nic counters {:?}", self.nics[t].debug_counters());
            print!("{}", self.l2s[t].debug_state());
        }
        if let Some(n) = &self.notify {
            println!(
                "notify: windows={} nonempty={} latest={:?}",
                n.windows_completed.get(),
                n.nonempty_windows.get(),
                n.latest().map(|(w, m)| (w, m.total(), m.stop()))
            );
        }
        if self.cfg.protocol != Protocol::Scorpio {
            for (i, rb) in self.reorders.iter().enumerate() {
                println!(
                    "rb {i}: next_slot={} buffered={} pending_ordered={:?} pending_expiry={:?} slots_used={:?}",
                    rb.next_slot(),
                    rb.buffered(),
                    self.pending_ordered.get(i).map(|p| p.map(|m| m.value)),
                    self.pending_expiry.get(i).map(|p| p.map(|m| m.value)),
                    self.inso_alloc.get(i).map(|a| a.slots_used()),
                );
            }
        }
        for (m, mc) in self.mcs.iter().enumerate() {
            let idx = self.cfg.cores() + m;
            println!(
                "mc {m}: idle={} esid={:?} backlog={}",
                mc.is_idle(),
                self.nics[idx].current_esid(),
                self.nics[idx].ordering_backlog()
            );
        }
        print!("{}", self.net.debug_dump());
    }

    /// The last value each core observed would require driver access; the
    /// verification tests read memory through fresh loads instead.
    pub fn cores_done(&self) -> usize {
        self.drivers.iter().filter(|d| d.is_done()).count()
    }
}

/// `a_sum / a_count > b_sum / b_count`, exactly, via cross-multiplication
/// in u128 — windowed wait means are compared without ever dividing, so
/// the starvation extremes are bit-stable across platforms.
fn wait_mean_gt(a_sum: u64, a_count: u64, b_sum: u64, b_count: u64) -> bool {
    u128::from(a_sum) * u128::from(b_count) > u128::from(b_sum) * u128::from(a_count)
}

/// Timed wake-ups bucketed by notification region (leaf quad of the
/// hierarchical notification tree; one bucket under the flat scheme).
/// Each bucket is the same deadline-keyed map the engine always used, so
/// a region's earliest local deadline is one `first_key_value` away —
/// that is what lets a quiescent quad's clock leap independently of a
/// bursting neighbour. A cached global minimum keeps the per-cycle due
/// check O(1) on the (dominant) nothing-due path.
struct RegionWakes {
    per: Vec<BTreeMap<u64, Vec<u32>>>,
    /// Endpoint index (tiles then MCs) → region bucket.
    region_of_ep: Vec<u32>,
    /// Earliest deadline across every bucket; `u64::MAX` when empty.
    min_deadline: u64,
}

impl RegionWakes {
    fn new(regions: usize, region_of_ep: Vec<u32>) -> RegionWakes {
        RegionWakes {
            per: vec![BTreeMap::new(); regions.max(1)],
            region_of_ep,
            min_deadline: u64::MAX,
        }
    }

    /// Parks endpoint `ep` until `deadline` in its region's bucket.
    fn push(&mut self, deadline: u64, ep: u32) {
        self.min_deadline = self.min_deadline.min(deadline);
        self.per[self.region_of_ep[ep as usize] as usize]
            .entry(deadline)
            .or_default()
            .push(ep);
    }

    /// The earliest pending deadline across all regions — the machine-wide
    /// leap target.
    fn first_deadline(&self) -> Option<u64> {
        (self.min_deadline != u64::MAX).then_some(self.min_deadline)
    }

    /// Clears `out`, then moves every endpoint whose deadline is `<= now`
    /// into it. Buckets drain in region order rather than global deadline
    /// order; the caller wakes active sets, for which order is
    /// indifferent.
    fn pop_due(&mut self, now: u64, out: &mut Vec<u32>) {
        out.clear();
        if self.min_deadline > now {
            return;
        }
        let mut min = u64::MAX;
        for m in &mut self.per {
            while let Some(entry) = m.first_entry() {
                if *entry.key() > now {
                    break;
                }
                out.extend(entry.remove());
            }
            if let Some((&k, _)) = m.first_key_value() {
                min = min.min(k);
            }
        }
        self.min_deadline = min;
    }
}

/// One tile's slice of the distributed directory for the LPD-D / HT-D
/// baselines: a latency pipeline in front of the global sequencer. The
/// entry width (set by the protocol) determines how many lines the slice
/// caches, which is the paper's LPD-vs-HT distinction.
struct DirHome {
    dir: DirectoryCache,
    latency: u64,
    miss_penalty: u64,
    stage: VecDeque<(Cycle, CohMsg)>,
    pending_bcast: Option<CohMsg>,
}

impl DirHome {
    fn new(slice_bytes: usize, entry_bits: usize, latency: u64, miss_penalty: u64) -> DirHome {
        DirHome {
            dir: DirectoryCache::with_budget(slice_bytes, entry_bits, 4),
            latency,
            miss_penalty,
            stage: VecDeque::new(),
            pending_bcast: None,
        }
    }

    /// Accepts a request: the directory access starts now; the request is
    /// ready for ordering after the (hit- or miss-) latency.
    fn accept(&mut self, msg: CohMsg, now: Cycle) {
        let hit = self.dir.access(msg.addr);
        let lat = self.latency + if hit { 0 } else { self.miss_penalty };
        // Serialization at the home: a request cannot overtake the one in
        // front of it (the paper's "Req Ordering" component).
        let ready = self
            .stage
            .back()
            .map(|(r, _)| (*r).max(now) + self.latency)
            .unwrap_or(now + lat)
            .max(now + lat);
        self.stage.push_back((ready, msg));
    }

    fn pop_ready(&mut self, now: Cycle) -> Option<CohMsg> {
        if self.pending_bcast.is_some() {
            return None;
        }
        if self.stage.front().is_some_and(|(r, _)| *r <= now) {
            return self.stage.pop_front().map(|(_, m)| m);
        }
        None
    }

    fn is_idle(&self) -> bool {
        self.stage.is_empty() && self.pending_bcast.is_none()
    }
}
