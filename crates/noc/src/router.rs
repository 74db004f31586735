//! The SCORPIO main-network router (Figure 2).
//!
//! A three-stage virtual-channel router:
//!
//! 1. **BW + SA-I** — arriving flits are buffered while arbitrating among
//!    the input port's VCs for the crossbar input slot;
//! 2. **SA-O + VS** — SA-I winners arbitrate per crossbar output port and
//!    select a free VC at the next router;
//! 3. **ST** — winners traverse the crossbar; flits spend the following
//!    cycle on the link.
//!
//! Three optimizations from the paper are modelled faithfully:
//!
//! * **Lookahead bypassing**: a lookahead is emitted during a flit's ST
//!   stage and processed by the next router one cycle before the flit
//!   arrives; if it wins switch allocation (all-or-nothing for its whole
//!   output set) and a downstream VC, the flit skips straight to ST —
//!   a single-cycle router traversal. Lookaheads beat buffered flits,
//!   except flits in reserved VCs which beat lookaheads.
//! * **Single-cycle multicast**: a broadcast flit forks through every
//!   granted output port in the same cycle; ungranted branches retry.
//! * **Reserved VC (rVC) deadlock avoidance**: each ordered-vnet input port
//!   has one extra VC allocatable only to the request whose SID equals the
//!   ESID of a NIC local to the downstream router.
//!
//! Point-to-point ordering is enforced with per-output-port SID trackers:
//! a request cannot be allocated toward an output while another request
//! with the same SID occupies a VC of the downstream input port.

use crate::arbiter::RotatingArbiter;
use crate::config::NocConfig;
use crate::flit::{Flit, Payload, Sid};
use crate::obs::NetObs;
use crate::tables::{RouteCtx, RoutingTables, VcClass};
use crate::topology::{Port, PortMask, RouterId};
use scorpio_sim::stats::Counter;

/// A flit arriving at an input port, tagged with the VC the upstream VS
/// stage allocated for it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FlitArrival<T> {
    pub port: Port,
    pub vc: u8,
    pub flit: Flit<T>,
}

/// A lookahead: the control information of a single-flit packet, arriving
/// one cycle ahead of the flit itself.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LaArrival<T> {
    pub port: Port,
    pub flit: Flit<T>,
}

/// A credit returning from the downstream input port attached to `out_port`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CreditArrival {
    pub out_port: Port,
    pub vnet: u8,
    pub vc: u8,
    /// Tail left the downstream buffer: the VC is free for a new packet.
    pub dealloc: bool,
}

/// Everything a router emits during one tick; the network stages these onto
/// the appropriate wires.
#[derive(Debug)]
pub(crate) enum RouterOut<T> {
    /// A flit traversed the crossbar through `out_port` into downstream
    /// VC `vc` (arrives in two cycles: one ST edge + one link stage).
    Flit {
        out_port: Port,
        vc: u8,
        flit: Flit<T>,
    },
    /// A lookahead for `flit`, sent during its ST stage (arrives next cycle).
    La { out_port: Port, flit: Flit<T> },
    /// A buffer slot at input `in_port` was freed; return credit upstream.
    CreditUp {
        in_port: Port,
        vnet: u8,
        vc: u8,
        dealloc: bool,
    },
}

/// Answers "may SID `s` use the reserved VC of the input port downstream of
/// (`router`, `out_port`)?" — true when `s` equals the ESID of a NIC local
/// to the downstream node.
pub(crate) trait EsidOracle {
    fn rvc_eligible(&self, router: RouterId, out_port: Port, sid: Sid, seq: u16) -> bool;
}

/// Credit/VC bookkeeping for one downstream input port, as seen from an
/// upstream output port (also used by the NIC injection path).
#[derive(Debug, Clone)]
pub(crate) struct DownstreamState {
    /// `[vnet][vc]` — VC not currently owned by a packet.
    free_vc: Vec<Vec<bool>>,
    /// `[vnet][vc]` — free buffer slots.
    credits: Vec<Vec<u8>>,
    /// `[vnet][vc]` — SID tracker for ordered vnets.
    sid_in_vc: Vec<Vec<Option<Sid>>>,
}

impl DownstreamState {
    pub(crate) fn new(cfg: &NocConfig) -> Self {
        let mut free_vc = Vec::with_capacity(cfg.vnets.len());
        let mut credits = Vec::with_capacity(cfg.vnets.len());
        let mut sid_in_vc = Vec::with_capacity(cfg.vnets.len());
        for v in &cfg.vnets {
            let n = v.total_vcs();
            free_vc.push(vec![true; n]);
            credits.push(vec![v.depth; n]);
            sid_in_vc.push(vec![None; n]);
        }
        DownstreamState {
            free_vc,
            credits,
            sid_in_vc,
        }
    }

    pub(crate) fn on_credit(&mut self, cfg: &NocConfig, vnet: u8, vc: u8, dealloc: bool) {
        let (n, c) = (vnet as usize, vc as usize);
        self.credits[n][c] += 1;
        debug_assert!(self.credits[n][c] <= cfg.vnets[n].depth);
        if dealloc {
            self.free_vc[n][c] = true;
            self.sid_in_vc[n][c] = None;
        }
    }

    /// Whether a request with `sid` is already in flight to / buffered at
    /// the downstream input port (point-to-point ordering constraint).
    pub(crate) fn sid_in_flight(&self, vnet: u8, sid: Sid) -> bool {
        self.sid_in_vc[vnet as usize]
            .iter()
            .flatten()
            .any(|s| *s == sid)
    }

    /// Whether VS could allocate a VC right now (without doing so).
    /// `class` restricts the regular-VC pool to the flit's dateline
    /// partition on wraparound topologies ([`VcClass::Any`] on a mesh).
    pub(crate) fn can_alloc(
        &self,
        cfg: &NocConfig,
        vnet: u8,
        rvc_ok: bool,
        class: VcClass,
    ) -> bool {
        let n = vnet as usize;
        let vcfg = &cfg.vnets[n];
        let regular = class
            .regular_range(vcfg.vcs)
            .any(|c| self.free_vc[n][c] && self.credits[n][c] > 0);
        if regular {
            return true;
        }
        if vcfg.ordered && rvc_ok {
            let r = vcfg.rvc_index() as usize;
            return self.free_vc[n][r] && self.credits[n][r] > 0;
        }
        false
    }

    /// VS: allocates a VC for a new packet (regular first, then the rVC if
    /// `rvc_ok`), consuming one credit. Returns the chosen VC.
    pub(crate) fn alloc_vc(
        &mut self,
        cfg: &NocConfig,
        vnet: u8,
        sid: Option<Sid>,
        rvc_ok: bool,
        class: VcClass,
    ) -> Option<u8> {
        let n = vnet as usize;
        let vcfg = &cfg.vnets[n];
        let mut pick = class
            .regular_range(vcfg.vcs)
            .find(|&c| self.free_vc[n][c] && self.credits[n][c] > 0);
        if pick.is_none() && vcfg.ordered && rvc_ok {
            let r = vcfg.rvc_index() as usize;
            if self.free_vc[n][r] && self.credits[n][r] > 0 {
                pick = Some(r);
            }
        }
        let c = pick?;
        self.free_vc[n][c] = false;
        self.credits[n][c] -= 1;
        if vcfg.ordered {
            self.sid_in_vc[n][c] = sid;
        }
        Some(c as u8)
    }

    pub(crate) fn has_credit(&self, vnet: u8, vc: u8) -> bool {
        self.credits[vnet as usize][vc as usize] > 0
    }

    pub(crate) fn take_credit(&mut self, vnet: u8, vc: u8) {
        debug_assert!(self.has_credit(vnet, vc));
        self.credits[vnet as usize][vc as usize] -= 1;
    }
}

/// State of one virtual channel at an input port. Holds at most one packet
/// at a time (VCs are reallocated only after the tail departs downstream).
#[derive(Debug, Clone)]
struct VcState<T> {
    flits: std::collections::VecDeque<Flit<T>>,
    /// Packet resident (head arrived, not fully departed).
    active: bool,
    /// Mask path (single-flit packets): outputs still to serve.
    remaining: PortMask,
    /// Mask path: outputs granted for ST next cycle.
    granted: PortMask,
    /// Mask path: downstream VC per granted output port.
    grant_vcs: [u8; Port::COUNT],
    /// Dateline class-1 bit per output port of the packet's route
    /// (always 0 on non-wraparound topologies).
    class_mask: u8,
    /// Stream path (multi-flit unicast): fixed output port after head VS.
    out_port: Option<Port>,
    /// Stream path: downstream VC for the whole packet.
    out_vc: u8,
    /// Stream path: flits granted for ST next cycle (0 or 1).
    granted_flits: u8,
}

impl<T> VcState<T> {
    fn new(depth: u8) -> Self {
        VcState {
            flits: std::collections::VecDeque::with_capacity(depth as usize),
            active: false,
            remaining: PortMask::EMPTY,
            granted: PortMask::EMPTY,
            grant_vcs: [0; Port::COUNT],
            class_mask: 0,
            out_port: None,
            out_vc: 0,
            granted_flits: 0,
        }
    }
}

/// SA-I pipeline register: the winning VC of an input port.
#[derive(Debug, Clone, Copy)]
struct SaIWin {
    vnet: u8,
    vc: u8,
    is_rvc: bool,
}

/// A bypass reservation: the flit with `uid` arriving next cycle at this
/// input port goes straight to ST through `outs`.
#[derive(Debug, Clone)]
struct BypassRes {
    uid: u64,
    outs: Vec<(Port, u8)>,
}

/// ST operations scheduled for the next cycle.
#[derive(Debug, Clone)]
enum StOp {
    /// Mask-path flit at (`port`, `vnet`, `vc`) STs through its granted set.
    MaskFlit { port: Port, vnet: u8, vc: u8 },
    /// Stream-path: the front flit of (`port`, `vnet`, `vc`) STs.
    StreamFlit { port: Port, vnet: u8, vc: u8 },
}

/// Per-router statistics.
#[derive(Debug, Clone, Default)]
pub struct RouterStats {
    /// Flits written into input buffers (took the 3-stage path).
    pub buffered_flits: Counter,
    /// Flits that bypassed straight to ST (1-stage path).
    pub bypassed_flits: Counter,
    /// Crossbar traversals (one per output-port grant, so a 4-way fork
    /// counts 4).
    pub crossings: Counter,
    /// Lookaheads that failed to set up the bypass.
    pub la_failures: Counter,
}

pub(crate) struct Router<T> {
    id: RouterId,
    /// Ports this router actually has: the prefix of [`Port::ALL`] ending
    /// after the last tile slot the topology attaches (6 on every
    /// single-tile fabric — the historical port set in its historical
    /// order, so arbitration is bit-identical there — up to 9 at
    /// concentration 4). Arbiters and port scans run over exactly this
    /// prefix.
    n_ports: usize,
    /// `[port][vnet][vc]`.
    inputs: Vec<Vec<Vec<VcState<T>>>>,
    /// Downstream credit view per output port (`None` = port absent).
    pub(crate) downstream: Vec<Option<DownstreamState>>,
    sa_i_reg: [Option<SaIWin>; Port::COUNT],
    bypass_res: [Option<BypassRes>; Port::COUNT],
    st_plan: Vec<StOp>,
    /// Recycled buffer backing `st_plan` across cycles (no per-tick alloc).
    st_scratch: Vec<StOp>,
    sa_i_arb: Vec<RotatingArbiter>,
    sa_o_arb: Vec<RotatingArbiter>,
    la_arb: RotatingArbiter,
    /// Flattened `(vnet, vc, is_rvc)` list in SA-I request order —
    /// constant per configuration, shared by every input port.
    vc_index: Vec<(u8, u8, bool)>,
    /// Reused SA-I request vector (one slot per flattened VC).
    sa_i_reqs: Vec<bool>,
    /// Resident packets per input port; a port with zero occupancy has no
    /// SA-I requester, and an all-false grant leaves the arbiter pointer
    /// untouched, so its whole SA-I scan can be skipped exactly.
    port_occupancy: [u32; Port::COUNT],
    pub(crate) stats: RouterStats,
    /// Resident packets + pending grants; used to skip idle routers.
    busy: u32,
}

impl<T: Payload> Router<T> {
    pub(crate) fn new(tables: &RoutingTables, cfg: &NocConfig, id: RouterId) -> Self {
        let total_vcs: usize = cfg.vnets.iter().map(|v| v.total_vcs()).sum();
        // The router's port set is the Port::ALL prefix covering the four
        // cardinal ports, tile slot 0, Mc, and any further tile slots the
        // topology concentrates behind this router. Single-tile fabrics
        // get n_ports == 6: the exact historical router, with identical
        // arbiter sizes and scan order.
        let n_ports = 5 + tables.concentration() as usize;
        let mut inputs = Vec::with_capacity(n_ports);
        for _ in &Port::ALL[..n_ports] {
            let mut per_vnet = Vec::with_capacity(cfg.vnets.len());
            for v in &cfg.vnets {
                per_vnet.push((0..v.total_vcs()).map(|_| VcState::new(v.depth)).collect());
            }
            inputs.push(per_vnet);
        }
        let mut downstream = Vec::with_capacity(n_ports);
        for &port in &Port::ALL[..n_ports] {
            let present = match port.tile_index() {
                Some(k) => k < tables.concentration(),
                None => match port {
                    Port::Mc => tables.has_mc(id),
                    mesh_port => tables.neighbor(id, mesh_port).is_some(),
                },
            };
            downstream.push(present.then(|| DownstreamState::new(cfg)));
        }
        let mut vc_index = Vec::with_capacity(total_vcs);
        for (n, vcfg) in cfg.vnets.iter().enumerate() {
            for vc in 0..vcfg.total_vcs() as u8 {
                let is_rvc = vcfg.ordered && vc == vcfg.rvc_index();
                vc_index.push((n as u8, vc, is_rvc));
            }
        }
        Router {
            id,
            n_ports,
            inputs,
            downstream,
            sa_i_reg: [None; Port::COUNT],
            bypass_res: Default::default(),
            st_plan: Vec::new(),
            st_scratch: Vec::new(),
            sa_i_arb: (0..n_ports)
                .map(|_| RotatingArbiter::new(total_vcs))
                .collect(),
            sa_o_arb: (0..n_ports)
                .map(|_| RotatingArbiter::new(n_ports))
                .collect(),
            la_arb: RotatingArbiter::new(n_ports),
            vc_index,
            sa_i_reqs: vec![false; total_vcs],
            port_occupancy: [0; Port::COUNT],
            stats: RouterStats::default(),
            busy: 0,
        }
    }

    /// The ports this router has (a prefix of [`Port::ALL`]).
    #[inline]
    fn ports(&self) -> &'static [Port] {
        &Port::ALL[..self.n_ports]
    }

    pub(crate) fn id(&self) -> RouterId {
        self.id
    }

    /// Whether this router can skip its tick entirely this cycle.
    pub(crate) fn is_idle(&self) -> bool {
        self.busy == 0
    }

    /// Resident packets (plus grants pending ST) across the input VCs —
    /// the quantity the observability occupancy integral samples.
    pub(crate) fn occupancy(&self) -> u32 {
        self.busy
    }

    /// One cycle: credits → ST → arrivals (bypass/BW) → SA-O/VS → SA-I.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn tick(
        &mut self,
        route: &RouteCtx<'_>,
        cfg: &NocConfig,
        esid: &dyn EsidOracle,
        arrivals: &[FlitArrival<T>],
        las: &[LaArrival<T>],
        credits: &[CreditArrival],
        out: &mut Vec<RouterOut<T>>,
        mut obs: Option<&mut NetObs>,
    ) {
        self.apply_credits(cfg, credits);
        self.execute_st(cfg, out);
        self.process_arrivals(route, cfg, arrivals, out, obs.as_deref_mut());
        self.allocate_outputs(route, cfg, esid, las, obs.as_deref_mut());
        self.sa_i(route, cfg, esid, obs);
    }

    fn apply_credits(&mut self, cfg: &NocConfig, credits: &[CreditArrival]) {
        for c in credits {
            let ds = self.downstream[c.out_port.index()]
                .as_mut()
                .expect("credit for absent output port");
            ds.on_credit(cfg, c.vnet, c.vc, c.dealloc);
        }
    }

    /// Stage 3: execute the switch traversals scheduled last cycle.
    fn execute_st(&mut self, cfg: &NocConfig, out: &mut Vec<RouterOut<T>>) {
        // Swap the plan out against the recycled scratch buffer, which
        // becomes the (empty) plan the allocation stage fills this cycle.
        let mut plan = std::mem::replace(&mut self.st_plan, std::mem::take(&mut self.st_scratch));
        for op in plan.drain(..) {
            match op {
                StOp::MaskFlit { port, vnet, vc } => {
                    let state = &mut self.inputs[port.index()][vnet as usize][vc as usize];
                    let flit = *state.flits.front().expect("granted VC lost its flit");
                    let granted = std::mem::replace(&mut state.granted, PortMask::EMPTY);
                    let grant_vcs = state.grant_vcs;
                    for p in granted.iter() {
                        state.remaining.remove(p);
                    }
                    let done = state.remaining.is_empty();
                    if done {
                        state.flits.pop_front();
                        state.active = false;
                        self.busy -= 1;
                        self.port_occupancy[port.index()] -= 1;
                        out.push(RouterOut::CreditUp {
                            in_port: port,
                            vnet,
                            vc,
                            dealloc: true,
                        });
                    }
                    for p in granted.iter() {
                        self.emit_flit(cfg, p, grant_vcs[p.index()], flit, out);
                    }
                }
                StOp::StreamFlit { port, vnet, vc } => {
                    let state = &mut self.inputs[port.index()][vnet as usize][vc as usize];
                    let flit = state.flits.pop_front().expect("granted VC lost its flit");
                    state.granted_flits = 0;
                    let out_port = state.out_port.expect("stream flit without route");
                    let out_vc = state.out_vc;
                    if flit.is_tail() {
                        state.active = false;
                        state.out_port = None;
                        self.busy -= 1;
                        self.port_occupancy[port.index()] -= 1;
                    }
                    out.push(RouterOut::CreditUp {
                        in_port: port,
                        vnet,
                        vc,
                        dealloc: flit.is_tail(),
                    });
                    self.emit_flit(cfg, out_port, out_vc, flit, out);
                }
            }
        }
        self.st_scratch = plan;
    }

    fn emit_flit(
        &mut self,
        cfg: &NocConfig,
        out_port: Port,
        vc: u8,
        flit: Flit<T>,
        out: &mut Vec<RouterOut<T>>,
    ) {
        self.stats.crossings.incr();
        // Lookaheads accompany single-flit packets heading to mesh ports.
        if cfg.bypass && flit.is_single() && !out_port.is_local() {
            out.push(RouterOut::La { out_port, flit });
        }
        out.push(RouterOut::Flit { out_port, vc, flit });
    }

    /// Stage 1 (BW) or the bypass path for flits arriving this cycle.
    fn process_arrivals(
        &mut self,
        route: &RouteCtx<'_>,
        cfg: &NocConfig,
        arrivals: &[FlitArrival<T>],
        out: &mut Vec<RouterOut<T>>,
        mut obs: Option<&mut NetObs>,
    ) {
        for a in arrivals {
            let res = self.bypass_res[a.port.index()].take();
            if let Some(res) = res {
                assert_eq!(
                    res.uid, a.flit.packet.uid,
                    "bypass reservation does not match arriving flit"
                );
                // Full bypass: ST immediately; input buffer untouched, so
                // the upstream VC+credit are released right away.
                self.stats.bypassed_flits.incr();
                if let Some(o) = obs.as_deref_mut() {
                    o.on_bypass(
                        self.id.0 as u32,
                        a.port.index() as u8,
                        a.flit.packet.vnet.0,
                        a.flit.packet.uid,
                    );
                }
                out.push(RouterOut::CreditUp {
                    in_port: a.port,
                    vnet: a.flit.packet.vnet.0,
                    vc: a.vc,
                    dealloc: true,
                });
                for (p, dvc) in res.outs {
                    self.emit_flit(cfg, p, dvc, a.flit, out);
                }
                continue;
            }
            if let Some(o) = obs.as_deref_mut() {
                o.on_buffered(a.flit.packet.vnet.0, a.vc);
            }
            self.buffer_flit(route, a);
        }
        // Unconsumed reservations expire (the LA won but we still clear
        // conservatively; arrival is guaranteed one cycle after the LA).
        for r in &mut self.bypass_res {
            *r = None;
        }
    }

    fn buffer_flit(&mut self, route: &RouteCtx<'_>, a: &FlitArrival<T>) {
        self.stats.buffered_flits.incr();
        let vnet = a.flit.packet.vnet.0 as usize;
        let state = &mut self.inputs[a.port.index()][vnet][a.vc as usize];
        if a.flit.is_head() {
            assert!(
                !state.active,
                "VC allocated while occupied (flow-control bug)"
            );
            state.active = true;
            self.busy += 1;
            self.port_occupancy[a.port.index()] += 1;
            let arrived_on = (!a.port.is_local()).then_some(a.port);
            let routed = route.route(self.id, &a.flit.packet, arrived_on);
            state.class_mask = routed.classes;
            if a.flit.is_single() {
                state.remaining = routed.mask;
                state.granted = PortMask::EMPTY;
            } else {
                debug_assert_eq!(routed.mask.len(), 1, "multi-flit packets are unicast");
                state.remaining = routed.mask;
                state.out_port = None;
                state.granted_flits = 0;
            }
        }
        state.flits.push_back(a.flit);
    }

    /// Stage 2: SA-O + VS, merged with lookahead processing. Produces the
    /// ST plan and bypass reservations for next cycle.
    fn allocate_outputs(
        &mut self,
        route: &RouteCtx<'_>,
        cfg: &NocConfig,
        esid: &dyn EsidOracle,
        las: &[LaArrival<T>],
        mut obs: Option<&mut NetObs>,
    ) {
        let mut out_taken = [false; Port::COUNT];
        // Which source owns each input port's crossbar slot next cycle.
        let mut in_owner: [Option<(u8, u8)>; Port::COUNT] = [None; Port::COUNT];
        let mut in_owner_bypass = [false; Port::COUNT];
        let sa_i_reg = std::mem::take(&mut self.sa_i_reg);

        // Class 1: buffered flits in reserved VCs beat everything.
        self.grant_buffered_class(
            route,
            cfg,
            esid,
            &sa_i_reg,
            true,
            &mut out_taken,
            &mut in_owner,
            obs.as_deref_mut(),
        );

        // Class 2: lookaheads, all-or-nothing, rotating priority by port.
        let mut la_reqs = [false; Port::COUNT];
        for la in las {
            la_reqs[la.port.index()] = true;
        }
        let order: Vec<usize> = self.la_arb.order(&la_reqs[..self.n_ports]).collect();
        self.la_arb.rotate();
        for pidx in order {
            let la = las
                .iter()
                .find(|l| l.port.index() == pidx)
                .expect("LA request bitmap out of sync");
            if !self.try_bypass(
                route,
                cfg,
                esid,
                la,
                &mut out_taken,
                &in_owner,
                &mut in_owner_bypass,
                obs.as_deref_mut(),
            ) {
                self.stats.la_failures.incr();
            }
        }

        // Class 3: regular buffered SA-I winners. Ports whose crossbar slot
        // went to a bypass flit are blocked with a sentinel owner.
        for (p, owned) in in_owner_bypass.iter().enumerate() {
            if *owned {
                in_owner[p] = Some((u8::MAX, u8::MAX));
            }
        }
        self.grant_buffered_class(
            route,
            cfg,
            esid,
            &sa_i_reg,
            false,
            &mut out_taken,
            &mut in_owner,
            obs.as_deref_mut(),
        );

        // SA-O stall accounting: an SA-I winner that did not end up owning
        // its input's crossbar slot lost stage II this cycle (to another
        // input port, or to a lookahead bypass holding the sentinel owner).
        if let Some(o) = obs {
            if o.counters {
                for &p in self.ports() {
                    if let Some(win) = sa_i_reg[p.index()] {
                        if in_owner[p.index()] != Some((win.vnet, win.vc)) {
                            o.stall_sa_o += 1;
                        }
                    }
                }
            }
        }
    }

    /// Grants output ports to buffered SA-I winners of one priority class
    /// (`rvc_class` selects reserved-VC winners vs regular winners).
    #[allow(clippy::too_many_arguments)]
    fn grant_buffered_class(
        &mut self,
        route: &RouteCtx<'_>,
        cfg: &NocConfig,
        esid: &dyn EsidOracle,
        sa_i_reg: &[Option<SaIWin>; Port::COUNT],
        rvc_class: bool,
        out_taken: &mut [bool; Port::COUNT],
        in_owner: &mut [Option<(u8, u8)>; Port::COUNT],
        mut obs: Option<&mut NetObs>,
    ) {
        for &out_port in self.ports() {
            if out_taken[out_port.index()] || self.downstream[out_port.index()].is_none() {
                continue;
            }
            // Collect candidate input ports for this output.
            let mut reqs = [false; Port::COUNT];
            for &in_port in self.ports() {
                let Some(win) = sa_i_reg[in_port.index()] else {
                    continue;
                };
                if win.is_rvc != rvc_class {
                    continue;
                }
                // The input crossbar slot must be free or already owned by
                // this same VC (multicast fork).
                if let Some(owner) = in_owner[in_port.index()] {
                    if owner != (win.vnet, win.vc) {
                        continue;
                    }
                }
                if self.candidate_wants(route, cfg, esid, in_port, win, out_port) {
                    reqs[in_port.index()] = true;
                }
            }
            let Some(winner_idx) = self.sa_o_arb[out_port.index()].grant(&reqs[..self.n_ports])
            else {
                continue;
            };
            let in_port = Port::ALL[winner_idx];
            let win = sa_i_reg[in_port.index()].expect("winner without SA-I record");
            self.commit_grant(route, cfg, esid, in_port, win, out_port, obs.as_deref_mut());
            out_taken[out_port.index()] = true;
            in_owner[in_port.index()] = Some((win.vnet, win.vc));
        }
    }

    /// Whether the SA-I winner at `in_port` wants (and could use) `out_port`.
    fn candidate_wants(
        &self,
        route: &RouteCtx<'_>,
        cfg: &NocConfig,
        esid: &dyn EsidOracle,
        in_port: Port,
        win: SaIWin,
        out_port: Port,
    ) -> bool {
        let state = &self.inputs[in_port.index()][win.vnet as usize][win.vc as usize];
        if !state.active || state.flits.is_empty() {
            return false;
        }
        let flit = state.flits.front().expect("checked non-empty");
        let ds = self.downstream[out_port.index()]
            .as_ref()
            .expect("caller checked port presence");
        let class = route.class_for(state.class_mask, out_port);
        if flit.is_single() {
            if !state.remaining.contains(out_port) || state.granted.contains(out_port) {
                return false;
            }
            if let Some(sid) = flit.packet.sid {
                if ds.sid_in_flight(win.vnet, sid) {
                    return false;
                }
            }
            let rvc_ok = flit
                .packet
                .sid
                .map(|s| esid.rvc_eligible(self.id, out_port, s, flit.packet.sid_seq))
                .unwrap_or(false);
            ds.can_alloc(cfg, win.vnet, rvc_ok, class)
        } else {
            // Stream path: one pending ST grant at a time.
            if state.granted_flits != 0 {
                return false;
            }
            match state.out_port {
                // Head not yet routed: the packet's single route must match.
                None => {
                    state.remaining.contains(out_port)
                        && state.flits.front().expect("non-empty").is_head()
                        && ds.can_alloc(cfg, win.vnet, false, class)
                }
                Some(p) => p == out_port && ds.has_credit(win.vnet, state.out_vc),
            }
        }
    }

    /// Applies a grant decided by SA-O: VS allocation + ST scheduling.
    #[allow(clippy::too_many_arguments)]
    fn commit_grant(
        &mut self,
        route: &RouteCtx<'_>,
        cfg: &NocConfig,
        esid: &dyn EsidOracle,
        in_port: Port,
        win: SaIWin,
        out_port: Port,
        obs: Option<&mut NetObs>,
    ) {
        let id = self.id;
        let sid;
        let seq;
        let single;
        let class;
        let uid;
        {
            let state = &self.inputs[in_port.index()][win.vnet as usize][win.vc as usize];
            let flit = state.flits.front().expect("grant on empty VC");
            sid = flit.packet.sid;
            seq = flit.packet.sid_seq;
            single = flit.is_single();
            class = route.class_for(state.class_mask, out_port);
            uid = flit.packet.uid;
        }
        if single {
            let rvc_ok = sid
                .map(|s| esid.rvc_eligible(id, out_port, s, seq))
                .unwrap_or(false);
            let dvc = self.downstream[out_port.index()]
                .as_mut()
                .expect("grant toward absent port")
                .alloc_vc(cfg, win.vnet, sid, rvc_ok, class)
                .expect("candidate_wants guaranteed allocatability");
            if let Some(o) = obs {
                o.on_vc_alloc(id.0 as u32, out_port.index() as u8, win.vnet, dvc, uid);
            }
            let state = &mut self.inputs[in_port.index()][win.vnet as usize][win.vc as usize];
            let first_grant = state.granted.is_empty();
            state.granted.insert(out_port);
            state.grant_vcs[out_port.index()] = dvc;
            if first_grant {
                self.st_plan.push(StOp::MaskFlit {
                    port: in_port,
                    vnet: win.vnet,
                    vc: win.vc,
                });
            }
        } else {
            let needs_route = {
                let state = &self.inputs[in_port.index()][win.vnet as usize][win.vc as usize];
                state.out_port.is_none()
            };
            if needs_route {
                let dvc = self.downstream[out_port.index()]
                    .as_mut()
                    .expect("grant toward absent port")
                    .alloc_vc(cfg, win.vnet, None, false, class)
                    .expect("candidate_wants guaranteed allocatability");
                if let Some(o) = obs {
                    o.on_vc_alloc(id.0 as u32, out_port.index() as u8, win.vnet, dvc, uid);
                }
                let state = &mut self.inputs[in_port.index()][win.vnet as usize][win.vc as usize];
                state.out_port = Some(out_port);
                state.out_vc = dvc;
            } else {
                let vc = self.inputs[in_port.index()][win.vnet as usize][win.vc as usize].out_vc;
                self.downstream[out_port.index()]
                    .as_mut()
                    .expect("grant toward absent port")
                    .take_credit(win.vnet, vc);
            }
            let state = &mut self.inputs[in_port.index()][win.vnet as usize][win.vc as usize];
            state.granted_flits = 1;
            self.st_plan.push(StOp::StreamFlit {
                port: in_port,
                vnet: win.vnet,
                vc: win.vc,
            });
        }
    }

    /// Attempts an all-or-nothing bypass setup for a lookahead.
    #[allow(clippy::too_many_arguments)]
    fn try_bypass(
        &mut self,
        route: &RouteCtx<'_>,
        cfg: &NocConfig,
        esid: &dyn EsidOracle,
        la: &LaArrival<T>,
        out_taken: &mut [bool; Port::COUNT],
        in_owner: &[Option<(u8, u8)>; Port::COUNT],
        in_owner_bypass: &mut [bool; Port::COUNT],
        mut obs: Option<&mut NetObs>,
    ) -> bool {
        if !cfg.bypass {
            return false;
        }
        // The crossbar input slot must be free next cycle.
        if in_owner[la.port.index()].is_some() || in_owner_bypass[la.port.index()] {
            return false;
        }
        let arrived_on = (!la.port.is_local()).then_some(la.port);
        let routed = route.route(self.id, &la.flit.packet, arrived_on);
        let vnet = la.flit.packet.vnet.0;
        let sid = la.flit.packet.sid;
        let seq = la.flit.packet.sid_seq;
        // Check every output first (all-or-nothing), then allocate.
        for p in routed.mask.iter() {
            if out_taken[p.index()] {
                return false;
            }
            let Some(ds) = self.downstream[p.index()].as_ref() else {
                return false;
            };
            if let Some(s) = sid {
                if ds.sid_in_flight(vnet, s) {
                    return false;
                }
            }
            let rvc_ok = sid
                .map(|s| esid.rvc_eligible(self.id, p, s, seq))
                .unwrap_or(false);
            if !ds.can_alloc(cfg, vnet, rvc_ok, route.class_for(routed.classes, p)) {
                return false;
            }
        }
        let mut outs = Vec::with_capacity(routed.mask.len());
        for p in routed.mask.iter() {
            let rvc_ok = sid
                .map(|s| esid.rvc_eligible(self.id, p, s, seq))
                .unwrap_or(false);
            let dvc = self.downstream[p.index()]
                .as_mut()
                .expect("checked above")
                .alloc_vc(cfg, vnet, sid, rvc_ok, route.class_for(routed.classes, p))
                .expect("checked above");
            if let Some(o) = obs.as_deref_mut() {
                o.on_vc_alloc(
                    self.id.0 as u32,
                    p.index() as u8,
                    vnet,
                    dvc,
                    la.flit.packet.uid,
                );
            }
            outs.push((p, dvc));
            out_taken[p.index()] = true;
        }
        in_owner_bypass[la.port.index()] = true;
        self.bypass_res[la.port.index()] = Some(BypassRes {
            uid: la.flit.packet.uid,
            outs,
        });
        true
    }

    /// Stage 1b: per input port, arbitrate among VCs for the crossbar input.
    ///
    /// A VC only *requests* the switch when it could actually progress
    /// (downstream VC/credit obtainable and no same-SID conflict). This
    /// matters most for the reserved VC, which wins SA-I outright: letting
    /// a blocked rVC flit hold the input slot would starve the port.
    fn sa_i(
        &mut self,
        route: &RouteCtx<'_>,
        cfg: &NocConfig,
        esid: &dyn EsidOracle,
        mut obs: Option<&mut NetObs>,
    ) {
        for in_port in self.ports() {
            let in_port = *in_port;
            let pidx = in_port.index();
            // No resident packet on any VC of this port: every request bit
            // is false, and an all-false grant leaves the arbiter pointer
            // where it is, so the whole scan can be skipped exactly.
            if self.port_occupancy[pidx] == 0 {
                self.sa_i_reg[pidx] = None;
                continue;
            }
            // Stall accounting runs on pure `&self` queries, so it can
            // never perturb arbiter state or the outcome below.
            if let Some(o) = obs.as_deref_mut() {
                if o.counters {
                    self.count_port_stalls(route, cfg, esid, in_port, o);
                }
            }
            // Reserved VCs win outright.
            let mut rvc_win = None;
            for (n, vcfg) in cfg.vnets.iter().enumerate() {
                if !vcfg.ordered {
                    continue;
                }
                let rvc = vcfg.rvc_index();
                if self.vc_requests(route, cfg, esid, n as u8, rvc, in_port) {
                    rvc_win = Some(SaIWin {
                        vnet: n as u8,
                        vc: rvc,
                        is_rvc: true,
                    });
                    break;
                }
            }
            if let Some(win) = rvc_win {
                self.sa_i_reg[pidx] = Some(win);
                continue;
            }
            // Regular VCs: rotating priority over the (precomputed)
            // flattened VC list, request bits in the reused scratch vector.
            let mut reqs = std::mem::take(&mut self.sa_i_reqs);
            for (flat, &(n, vc, is_rvc)) in self.vc_index.iter().enumerate() {
                reqs[flat] = !is_rvc && self.vc_requests(route, cfg, esid, n, vc, in_port);
            }
            self.sa_i_reg[pidx] = self.sa_i_arb[pidx].grant(&reqs).map(|w| {
                let (vnet, vc, _) = self.vc_index[w];
                SaIWin {
                    vnet,
                    vc,
                    is_rvc: false,
                }
            });
            self.sa_i_reqs = reqs;
        }
    }

    /// Renders occupied input VCs and SID trackers for deadlock debugging.
    pub(crate) fn debug_occupancy(&self) -> Vec<String> {
        let mut lines = Vec::new();
        for &port in self.ports() {
            for (n, per_vnet) in self.inputs[port.index()].iter().enumerate() {
                for (vc, state) in per_vnet.iter().enumerate() {
                    if state.active {
                        let front = state.flits.front().map(|f| {
                            format!(
                                "uid={} sid={:?} flits={}",
                                f.packet.uid,
                                f.packet.sid,
                                state.flits.len()
                            )
                        });
                        lines.push(format!(
                            "  in {port} v{n} vc{vc}: {:?} remaining={:?} granted={:?} out={:?}",
                            front, state.remaining, state.granted, state.out_port
                        ));
                    }
                }
            }
        }
        for &port in self.ports() {
            if let Some(ds) = &self.downstream[port.index()] {
                let mut desc = Vec::new();
                for (n, per_vnet) in ds.sid_in_vc.iter().enumerate() {
                    for (vc, sid) in per_vnet.iter().enumerate() {
                        let free = ds.free_vc[n][vc];
                        let cr = ds.credits[n][vc];
                        if !free || sid.is_some() {
                            desc.push(format!("v{n}vc{vc}:{:?}cr{cr}", sid.map(|s| s.0)));
                        }
                    }
                }
                if !desc.is_empty() {
                    lines.push(format!("  out {port} busy: {}", desc.join(" ")));
                }
            }
        }
        lines
    }

    /// Whether VC (`vnet`, `vc`) at `in_port` requests the switch: it holds
    /// a flit with somewhere to go *and* the downstream resources for at
    /// least one of its pending outputs are currently obtainable.
    fn vc_requests(
        &self,
        route: &RouteCtx<'_>,
        cfg: &NocConfig,
        esid: &dyn EsidOracle,
        vnet: u8,
        vc: u8,
        in_port: Port,
    ) -> bool {
        let state = &self.inputs[in_port.index()][vnet as usize][vc as usize];
        if !state.active || state.flits.is_empty() {
            return false;
        }
        let flit = state.flits.front().expect("checked non-empty");
        if flit.is_single() {
            let mut pending = state.remaining;
            for p in state.granted.iter() {
                pending.remove(p);
            }
            pending.iter().any(|p| {
                let Some(ds) = self.downstream[p.index()].as_ref() else {
                    return false;
                };
                if let Some(sid) = flit.packet.sid {
                    if ds.sid_in_flight(vnet, sid) {
                        return false;
                    }
                }
                let rvc_ok = flit
                    .packet
                    .sid
                    .map(|s| esid.rvc_eligible(self.id, p, s, flit.packet.sid_seq))
                    .unwrap_or(false);
                ds.can_alloc(cfg, vnet, rvc_ok, route.class_for(state.class_mask, p))
            })
        } else {
            if state.flits.len() <= state.granted_flits as usize {
                return false;
            }
            match state.out_port {
                None => state.remaining.iter().any(|p| {
                    self.downstream[p.index()].as_ref().is_some_and(|ds| {
                        ds.can_alloc(cfg, vnet, false, route.class_for(state.class_mask, p))
                    })
                }),
                Some(p) => self.downstream[p.index()]
                    .as_ref()
                    .is_some_and(|ds| ds.has_credit(vnet, state.out_vc)),
            }
        }
    }

    /// Stall accounting for one input port (counters mode): every VC that
    /// requests SA-I except the eventual winner loses stage I; an active VC
    /// with somewhere to go that *cannot even request* is stalled in VC
    /// allocation (head blocked on a free VC or a SID conflict) or on
    /// credits (body flit of a routed stream). Pure `&self` reads only.
    fn count_port_stalls(
        &self,
        route: &RouteCtx<'_>,
        cfg: &NocConfig,
        esid: &dyn EsidOracle,
        in_port: Port,
        o: &mut NetObs,
    ) {
        let mut requesters = 0u64;
        for &(n, vc, _) in &self.vc_index {
            let state = &self.inputs[in_port.index()][n as usize][vc as usize];
            if !state.active {
                continue;
            }
            if self.vc_requests(route, cfg, esid, n, vc, in_port) {
                requesters += 1;
            } else {
                match Self::blocked_cause(state) {
                    Some(Stall::VcAlloc) => o.stall_vc_alloc += 1,
                    Some(Stall::Credit) => o.stall_credit += 1,
                    None => {}
                }
            }
        }
        // Exactly one requester wins the port's crossbar slot.
        o.stall_sa_i += requesters.saturating_sub(1);
    }

    /// Why an active, non-requesting VC is not progressing — `None` when it
    /// is merely waiting on its own granted switch traversals.
    fn blocked_cause(state: &VcState<T>) -> Option<Stall> {
        let flit = state.flits.front()?;
        if flit.is_single() {
            let mut pending = state.remaining;
            for p in state.granted.iter() {
                pending.remove(p);
            }
            // A pending output it could not request = the downstream VC
            // allocator (no free VC in its class, or a SID conflict).
            (!pending.is_empty()).then_some(Stall::VcAlloc)
        } else {
            if state.flits.len() <= state.granted_flits as usize {
                return None;
            }
            match state.out_port {
                // Head waiting for a downstream VC.
                None => Some(Stall::VcAlloc),
                // Routed stream with buffered flits but no request: the
                // only blocker on a fixed (port, VC) is credits.
                Some(_) => Some(Stall::Credit),
            }
        }
    }
}

/// Stall cause of a blocked (non-requesting) input VC.
enum Stall {
    VcAlloc,
    Credit,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{Mesh, Topology, Torus};

    struct NoRvc;
    impl EsidOracle for NoRvc {
        fn rvc_eligible(&self, _: RouterId, _: Port, _: Sid, _: u16) -> bool {
            false
        }
    }

    fn cfg() -> NocConfig {
        NocConfig::scorpio()
    }

    #[test]
    fn downstream_vc_allocation_prefers_regular() {
        let c = cfg();
        let mut ds = DownstreamState::new(&c);
        // GO-REQ: 4 regular + 1 rVC.
        for expected in 0..4u8 {
            let vc = ds.alloc_vc(&c, 0, Some(Sid(expected as u16)), true, VcClass::Any);
            assert_eq!(vc, Some(expected));
        }
        // Regular exhausted: rVC only if eligible.
        assert_eq!(ds.alloc_vc(&c, 0, Some(Sid(9)), false, VcClass::Any), None);
        assert_eq!(
            ds.alloc_vc(&c, 0, Some(Sid(9)), true, VcClass::Any),
            Some(4)
        );
        assert_eq!(ds.alloc_vc(&c, 0, Some(Sid(10)), true, VcClass::Any), None);
    }

    #[test]
    fn dateline_classes_partition_the_regular_vcs() {
        let c = cfg();
        let mut ds = DownstreamState::new(&c);
        // GO-REQ has 4 regular VCs: class 0 may use {0,1}, class 1 {2,3}.
        assert_eq!(ds.alloc_vc(&c, 0, None, false, VcClass::C0), Some(0));
        assert_eq!(ds.alloc_vc(&c, 0, None, false, VcClass::C1), Some(2));
        assert_eq!(ds.alloc_vc(&c, 0, None, false, VcClass::C0), Some(1));
        assert_eq!(ds.alloc_vc(&c, 0, None, false, VcClass::C0), None);
        assert!(ds.can_alloc(&c, 0, false, VcClass::C1));
        assert!(!ds.can_alloc(&c, 0, false, VcClass::C0));
        assert_eq!(ds.alloc_vc(&c, 0, None, false, VcClass::C1), Some(3));
        assert_eq!(ds.alloc_vc(&c, 0, None, false, VcClass::C1), None);
    }

    #[test]
    fn downstream_credit_roundtrip() {
        let c = cfg();
        let mut ds = DownstreamState::new(&c);
        let vc = ds.alloc_vc(&c, 1, None, false, VcClass::Any).unwrap();
        assert!(ds.has_credit(1, vc)); // depth 3: 2 credits left
        ds.take_credit(1, vc);
        ds.take_credit(1, vc);
        assert!(!ds.has_credit(1, vc));
        ds.on_credit(&c, 1, vc, false);
        assert!(ds.has_credit(1, vc));
        // Dealloc frees the VC for reallocation.
        ds.on_credit(&c, 1, vc, false);
        ds.on_credit(&c, 1, vc, true);
        assert_eq!(ds.alloc_vc(&c, 1, None, false, VcClass::Any), Some(vc));
    }

    #[test]
    fn sid_tracker_blocks_same_sid() {
        let c = cfg();
        let mut ds = DownstreamState::new(&c);
        ds.alloc_vc(&c, 0, Some(Sid(5)), false, VcClass::Any)
            .unwrap();
        assert!(ds.sid_in_flight(0, Sid(5)));
        assert!(!ds.sid_in_flight(0, Sid(6)));
    }

    #[test]
    fn router_construction_ports() {
        let topo: Topology = Mesh::scorpio_chip().into();
        let tables = RoutingTables::build(&topo);
        let c = cfg();
        let corner: Router<u32> = Router::new(&tables, &c, RouterId(0));
        // NW corner: East, South, Tile, Mc.
        assert!(corner.downstream[Port::East.index()].is_some());
        assert!(corner.downstream[Port::South.index()].is_some());
        assert!(corner.downstream[Port::North.index()].is_none());
        assert!(corner.downstream[Port::West.index()].is_none());
        assert!(corner.downstream[Port::Tile.index()].is_some());
        assert!(corner.downstream[Port::Mc.index()].is_some());

        let center: Router<u32> = Router::new(&tables, &c, RouterId(14));
        assert!(center.downstream[Port::Mc.index()].is_none());
        assert!(center.is_idle());
    }

    #[test]
    fn torus_router_has_all_four_mesh_ports() {
        let topo: Topology = Torus::square_with_corner_mcs(4).into();
        let tables = RoutingTables::build(&topo);
        let corner: Router<u32> = Router::new(&tables, &cfg(), RouterId(0));
        for port in [Port::North, Port::South, Port::East, Port::West] {
            assert!(corner.downstream[port.index()].is_some(), "{port}");
        }
    }

    #[test]
    fn idle_router_tick_emits_nothing() {
        let topo: Topology = Mesh::scorpio_chip().into();
        let tables = RoutingTables::build(&topo);
        let c = cfg();
        let mut r: Router<u32> = Router::new(&tables, &c, RouterId(14));
        let ctx = RouteCtx {
            tables: &tables,
            datelines: false,
        };
        let mut out = Vec::new();
        r.tick(&ctx, &c, &NoRvc, &[], &[], &[], &mut out, None);
        assert!(out.is_empty());
        assert!(r.is_idle());
    }
}
