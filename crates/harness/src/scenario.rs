//! The declarative experiment model: knobs, sweep grids and scenarios.
//!
//! A [`SweepGrid`] is the cartesian product of five axes — workloads, mesh
//! sides, protocols, configuration [`Variant`]s and seeds — optionally
//! restricted by a filter (for non-rectangular sweeps such as the Section
//! 5.3 VC-scaling study). [`SweepGrid::enumerate`] flattens the grid into
//! an ordered, duplicate-free list of [`RunSpec`]s that the executor can
//! run in any order and on any number of threads without changing results.

use scorpio::{
    ArrivalProcess, NotifyScheme, ObsLevel, OpenLoopConfig, Protocol, SystemConfig,
    DEFAULT_SOURCE_QUEUE_CAP,
};
use scorpio_workloads::WorkloadParams;

/// One settable configuration knob, applied on top of the square-mesh
/// baseline produced by [`SystemConfig::square`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Knob {
    /// Channel width in bytes (Figure 8a).
    ChannelBytes(u32),
    /// GO-REQ virtual channels (Figure 8b, Section 5.3).
    GoreqVcs(u8),
    /// UO-RESP virtual channels (Figure 8c).
    UoRespVcs(u8),
    /// Notification bits per core (Figure 8d).
    NotificationBits(u8),
    /// Outstanding misses per core (RSHRs move together).
    Outstanding(usize),
    /// Pipelined vs non-pipelined uncore (Figure 10).
    PipelinedUncore(bool),
    /// Lookahead bypassing on/off (ablation).
    Bypass(bool),
    /// Region-tracker snoop filter on/off (ablation).
    RegionTracker(bool),
    /// FID-list capacity (ablation).
    FidCapacity(usize),
    /// Extra cycles over the minimum notification window (ablation).
    NotificationWindowSlack(u64),
    /// Hierarchical quad-tree notification aggregation with the given
    /// fanout: the window shrinks from O(grid diameter) to O(2·tree depth)
    /// (the kilocore sweeps; default-path runs keep the flat scheme).
    QuadNotify(u8),
    /// Total directory-cache storage in bytes (Figure 6 scaling note).
    DirTotalBytes(usize),
    /// Perimeter MC placement scaled to the core count (scaling-mesh
    /// sweeps: one MC per 16 tiles instead of four fixed corners).
    ProportionalMcs,
    /// Observability level: latency histograms and NoC counters, or the
    /// full flit trace (the `obs-overhead` sweep; simulated behavior is
    /// unchanged — asserted by the equivalence suite).
    Obs(ObsLevel),
    /// Flit-trace cap, paired with `Obs(ObsLevel::Trace)`.
    TraceLimit(usize),
    /// Per-transaction lifecycle spans plus counter-level observability
    /// (the `latency-breakdown` sweeps; simulated behavior is unchanged).
    Spans,
    /// Windowed time-series telemetry with the given epoch length in
    /// cycles, plus counter-level observability (the `obs-overhead`
    /// windows variant).
    Windows(u64),
    /// Open-loop injection (the `latency-curve` sweeps): requests are
    /// released by `process` at `millis` requests per 1000 cycles per
    /// core instead of by the previous op's completion, with the default
    /// bounded source queue. Load 0 degenerates to the closed-loop trace.
    OpenLoad {
        /// The arrival process shaping inter-arrival gaps.
        process: ArrivalProcess,
        /// Offered load in requests per 1000 cycles per core.
        millis: u32,
    },
    /// Topology-aware MC placement: `mcs` memory-controller ports placed
    /// by `placement` (the `mc-placement` sweeps). The L2's interleaving
    /// endpoints are rewired to match.
    McPlacement {
        /// Where the MC ports go.
        placement: McPlacement,
        /// How many (ignored by [`McPlacement::Proportional`], which
        /// derives the count from the core count).
        mcs: u16,
    },
}

/// Memory-controller placement schemes for the `mc-placement` sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum McPlacement {
    /// Corner routers (mesh/torus): 2 picks the NW/SE diagonal, 4 all
    /// four corners — the chip's arrangement.
    Corner,
    /// Evenly spread around the ring ([`scorpio_noc::Ring::with_spread_mcs`]).
    Spread,
    /// One MC per 16 tiles along the mesh perimeter
    /// ([`SystemConfig::with_proportional_mcs`]).
    Proportional,
}

impl McPlacement {
    /// The placement key recorded in JSONL/CSV result rows.
    pub fn key(self) -> &'static str {
        match self {
            McPlacement::Corner => "corner",
            McPlacement::Spread => "spread",
            McPlacement::Proportional => "prop",
        }
    }

    /// Whether this placement is defined for `fabric`.
    pub fn supports(self, fabric: Fabric) -> bool {
        match self {
            McPlacement::Corner => matches!(fabric, Fabric::Mesh | Fabric::Torus),
            McPlacement::Spread => fabric == Fabric::Ring,
            McPlacement::Proportional => fabric == Fabric::Mesh,
        }
    }
}

/// Rebuilds `cfg`'s fabric with `mcs` MC ports placed by `placement`,
/// rewiring the L2's MC-interleaving endpoints to match.
fn apply_mc_placement(mut cfg: SystemConfig, placement: McPlacement, mcs: u16) -> SystemConfig {
    use scorpio_noc::{Mesh, Ring, RouterId, Topology, Torus};
    let fabric: Topology = match (&cfg.mesh, placement) {
        (_, McPlacement::Proportional) => return cfg.with_proportional_mcs(),
        (Topology::Mesh(m), McPlacement::Corner) => {
            let (c, r) = (m.cols(), m.rows());
            let corners = corner_order(c, r);
            Mesh::new(c, r, &corners[..(mcs as usize).min(corners.len())]).into()
        }
        (Topology::Torus(t), McPlacement::Corner) => {
            let (c, r) = (t.cols(), t.rows());
            let corners = corner_order(c, r);
            Torus::new(c, r, &corners[..(mcs as usize).min(corners.len())]).into()
        }
        (Topology::Ring(r), McPlacement::Spread) => {
            Ring::with_spread_mcs(r.router_count() as u16, mcs).into()
        }
        (topo, placement) => panic!(
            "MC placement {placement:?} is undefined for the {} fabric",
            topo.name()
        ),
    };
    cfg.l2.mc_endpoints = fabric
        .mc_routers()
        .iter()
        .map(|&r| scorpio_noc::Endpoint::mc(r))
        .collect();
    cfg.mesh = fabric;
    return cfg;

    /// Corner routers in placement-priority order: NW, SE (the opposite
    /// diagonal first, so two MCs sit maximally apart), then NE, SW.
    /// Degenerate 1×N / N×1 fabrics collapse coincident corners, so the
    /// distinct filter must catch non-adjacent repeats too.
    fn corner_order(cols: u16, rows: u16) -> Vec<RouterId> {
        let mut corners: Vec<RouterId> = Vec::with_capacity(4);
        for c in [
            RouterId(0),
            RouterId(cols * rows - 1),
            RouterId(cols - 1),
            RouterId(cols * (rows - 1)),
        ] {
            if !corners.contains(&c) {
                corners.push(c);
            }
        }
        corners
    }
}

impl Knob {
    /// Applies the knob to a configuration.
    pub fn apply(self, mut cfg: SystemConfig) -> SystemConfig {
        match self {
            Knob::ChannelBytes(b) => cfg.with_channel_bytes(b),
            Knob::GoreqVcs(v) => cfg.with_goreq_vcs(v),
            Knob::UoRespVcs(v) => cfg.with_uoresp_vcs(v),
            Knob::NotificationBits(b) => cfg.with_notification_bits(b),
            Knob::Outstanding(n) => cfg.with_outstanding(n),
            Knob::PipelinedUncore(p) => cfg.with_pipelined_uncore(p),
            Knob::Bypass(on) => {
                cfg.noc.bypass = on;
                cfg
            }
            Knob::RegionTracker(on) => {
                if !on {
                    cfg.l2.region_entries = None;
                }
                cfg
            }
            Knob::FidCapacity(n) => {
                cfg.l2.fid_capacity = n;
                cfg
            }
            Knob::NotificationWindowSlack(s) => {
                cfg.notification_window_slack = s;
                cfg
            }
            Knob::QuadNotify(fanout) => cfg.with_notify(NotifyScheme::Quad { fanout }),
            Knob::DirTotalBytes(b) => {
                cfg.dir_total_bytes = b;
                cfg
            }
            Knob::ProportionalMcs => cfg.with_proportional_mcs(),
            Knob::Obs(level) => cfg.with_obs(level),
            Knob::TraceLimit(n) => cfg.with_trace_limit(n),
            Knob::Spans => cfg.with_obs(ObsLevel::Counters).with_spans(true),
            Knob::Windows(w) => cfg.with_obs(ObsLevel::Counters).with_windows(w),
            Knob::OpenLoad { process, millis } => cfg.with_open_loop(OpenLoopConfig {
                process,
                load_millis: millis,
                queue_cap: DEFAULT_SOURCE_QUEUE_CAP,
            }),
            Knob::McPlacement { placement, mcs } => apply_mc_placement(cfg, placement, mcs),
        }
    }

    /// Short label used in variant names and result rows.
    pub fn label(self) -> String {
        match self {
            Knob::ChannelBytes(b) => format!("CW={b}B"),
            Knob::GoreqVcs(v) => format!("GO-VCs={v}"),
            Knob::UoRespVcs(v) => format!("UO-VCs={v}"),
            Knob::NotificationBits(b) => format!("BW={b}b"),
            Knob::Outstanding(n) => format!("out={n}"),
            Knob::PipelinedUncore(true) => "PL".into(),
            Knob::PipelinedUncore(false) => "non-PL".into(),
            Knob::Bypass(true) => "bypass".into(),
            Knob::Bypass(false) => "no-bypass".into(),
            Knob::RegionTracker(true) => "region-tracker".into(),
            Knob::RegionTracker(false) => "no-region-tracker".into(),
            Knob::FidCapacity(n) => format!("fid-cap={n}"),
            Knob::NotificationWindowSlack(s) => format!("slack={s}"),
            Knob::QuadNotify(f) => format!("quad-f{f}"),
            Knob::DirTotalBytes(b) => format!("dir={b}B"),
            Knob::ProportionalMcs => "prop-MCs".into(),
            Knob::Obs(ObsLevel::Off) => "obs-off".into(),
            Knob::Obs(ObsLevel::Counters) => "obs-counters".into(),
            Knob::Obs(ObsLevel::Trace) => "obs-trace".into(),
            Knob::TraceLimit(n) => format!("trace-cap={n}"),
            Knob::Spans => "spans".into(),
            Knob::Windows(w) => format!("windows={w}"),
            Knob::OpenLoad { process, millis } => process.label(millis),
            Knob::McPlacement {
                placement: McPlacement::Proportional,
                ..
            } => "prop".into(),
            Knob::McPlacement { placement, mcs } => format!("{}-{mcs}", placement.key()),
        }
    }
}

/// A labelled bundle of knobs: one column of a sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct Variant {
    /// Column label in tables and result rows.
    pub label: String,
    /// Knobs applied (in order) on top of the baseline configuration.
    pub knobs: Vec<Knob>,
}

impl Variant {
    /// The unmodified baseline configuration.
    pub fn baseline() -> Variant {
        Variant {
            label: "baseline".into(),
            knobs: Vec::new(),
        }
    }

    /// A variant with an explicit label.
    pub fn new(label: impl Into<String>, knobs: Vec<Knob>) -> Variant {
        Variant {
            label: label.into(),
            knobs,
        }
    }

    /// A single-knob variant labelled after the knob.
    pub fn knob(k: Knob) -> Variant {
        Variant {
            label: k.label(),
            knobs: vec![k],
        }
    }

    /// Applies every knob to `cfg`.
    pub fn apply(&self, mut cfg: SystemConfig) -> SystemConfig {
        for k in &self.knobs {
            cfg = k.apply(cfg);
        }
        cfg
    }
}

/// Which simulation engine a run uses. Both engines produce byte-identical
/// [`scorpio::SystemReport`]s (asserted by the engine-equivalence suite);
/// only wall-clock speed differs, which is what the `throughput`
/// self-benchmark measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// The active-set engine (default): only components with pending work
    /// are ticked each cycle, and the clock leaps straight over spans in
    /// which the whole machine is provably idle.
    #[default]
    ActiveSet,
    /// The always-scan reference engine: every tile, MC, router and
    /// injection port is probed every cycle, and every cycle is stepped.
    AlwaysScan,
}

impl Engine {
    /// Short label for result rows (empty for the default engine so that
    /// existing keys and sink output stay byte-stable).
    pub fn label(self) -> &'static str {
        match self {
            Engine::ActiveSet => "",
            Engine::AlwaysScan => "scan",
        }
    }
}

/// The delivery-fabric axis of a sweep: which [`scorpio_noc::Topology`]
/// the `k` of the mesh-side axis materializes as. Every fabric at the same
/// `k` has `k²` tiles — matched core counts, so runtime differences are
/// delivery effects, not size effects. A concentrated mesh keeps the `k²`
/// cores but shrinks the router grid by its concentration:
/// `CMesh(2)` at `k = 4` is a 4×2 router grid of 2-tile routers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Fabric {
    /// A `k × k` mesh with corner MCs (the chip fabric; default).
    #[default]
    Mesh,
    /// A `k × k` torus with the MC ports on the mesh's corner routers.
    Torus,
    /// A ring of `k²` routers with four evenly spread MC ports.
    Ring,
    /// A concentrated mesh of `k²` tiles at the given concentration
    /// (1, 2 or 4 tiles per router; `k` must be even above 1), corner MCs.
    CMesh(u8),
}

impl Fabric {
    /// Short label for result rows (empty for the default fabric so that
    /// existing keys and sink output stay byte-stable).
    pub fn label(self) -> &'static str {
        match self {
            Fabric::Mesh => "",
            Fabric::Torus => "torus",
            Fabric::Ring => "ring",
            Fabric::CMesh(1) => "cmesh1",
            Fabric::CMesh(2) => "cmesh2",
            Fabric::CMesh(4) => "cmesh4",
            Fabric::CMesh(_) => "cmesh",
        }
    }

    /// The router grid a `k²`-tile concentrated mesh materializes as:
    /// concentration 1 keeps `k × k`, 2 halves the rows (`k × k/2`), 4
    /// halves both dimensions (`k/2 × k/2`).
    ///
    /// # Panics
    ///
    /// Panics on an unsupported concentration, or an odd `k` above
    /// concentration 1.
    pub fn cmesh_dims(k: u16, concentration: u8) -> (u16, u16) {
        match concentration {
            1 => (k, k),
            2 | 4 => {
                assert!(
                    k.is_multiple_of(2),
                    "a {k}x{k}-tile cmesh at concentration {concentration} needs an even side"
                );
                if concentration == 2 {
                    (k, k / 2)
                } else {
                    (k / 2, k / 2)
                }
            }
            other => panic!("unsupported cmesh concentration {other} (use 1, 2 or 4)"),
        }
    }

    /// The geometry string for run keys: `"4x4"`, `"torus4x4"`, `"ring16"`
    /// (mesh keys are unchanged from before the fabric axis existed);
    /// concentrated meshes use the topology's own label shape,
    /// `"cmesh4x2x2"` (router grid × concentration).
    pub fn geometry(self, k: u16) -> String {
        match self {
            Fabric::Mesh => format!("{k}x{k}"),
            Fabric::Torus => format!("torus{k}x{k}"),
            Fabric::Ring => format!("ring{}", k as u32 * k as u32),
            Fabric::CMesh(c) => {
                let (w, h) = Fabric::cmesh_dims(k, c);
                format!("cmesh{w}x{h}x{c}")
            }
        }
    }
}

/// A filter restricting a grid to a non-rectangular subset.
pub type GridFilter = fn(&RunSpec) -> bool;

/// The cartesian product defining one experiment sweep.
#[derive(Debug, Clone)]
pub struct SweepGrid {
    /// Workload axis.
    pub workloads: Vec<WorkloadParams>,
    /// Mesh-side axis (`k` ⇒ a `k × k`-sized system; see [`Fabric`]).
    pub mesh_sides: Vec<u16>,
    /// Delivery-fabric axis (the `topology` scenarios sweep all three;
    /// everything else runs the default mesh only).
    pub fabrics: Vec<Fabric>,
    /// Main-network plane axis (the `planes` scenarios sweep 1/2/4;
    /// everything else runs the single-plane network only).
    pub planes: Vec<usize>,
    /// Protocol axis.
    pub protocols: Vec<Protocol>,
    /// Configuration-variant axis.
    pub variants: Vec<Variant>,
    /// Engine axis (the `throughput` self-benchmark sweeps both; everything
    /// else runs the default active-set engine only).
    pub engines: Vec<Engine>,
    /// Seed axis (replicates).
    pub seeds: Vec<u64>,
    /// Knobs applied to *every* run before its variant.
    pub base: Vec<Knob>,
    /// Optional restriction for non-rectangular sweeps.
    pub filter: Option<GridFilter>,
}

impl Default for SweepGrid {
    fn default() -> SweepGrid {
        SweepGrid {
            workloads: Vec::new(),
            mesh_sides: vec![6],
            fabrics: vec![Fabric::Mesh],
            planes: vec![1],
            protocols: vec![Protocol::Scorpio],
            variants: vec![Variant::baseline()],
            engines: vec![Engine::ActiveSet],
            seeds: vec![1],
            base: Vec::new(),
            filter: None,
        }
    }
}

impl SweepGrid {
    /// Grid over a set of workloads with all other axes at defaults.
    pub fn over(workloads: Vec<WorkloadParams>) -> SweepGrid {
        SweepGrid {
            workloads,
            ..SweepGrid::default()
        }
    }

    /// Sets the mesh-side axis.
    #[must_use]
    pub fn meshes(mut self, sides: &[u16]) -> SweepGrid {
        self.mesh_sides = sides.to_vec();
        self
    }

    /// Sets the delivery-fabric axis.
    #[must_use]
    pub fn fabrics(mut self, fabrics: &[Fabric]) -> SweepGrid {
        self.fabrics = fabrics.to_vec();
        self
    }

    /// Sets the main-network plane axis.
    #[must_use]
    pub fn planes(mut self, planes: &[usize]) -> SweepGrid {
        self.planes = planes.to_vec();
        self
    }

    /// Sets the protocol axis.
    #[must_use]
    pub fn protocols(mut self, protocols: &[Protocol]) -> SweepGrid {
        self.protocols = protocols.to_vec();
        self
    }

    /// Sets the variant axis.
    #[must_use]
    pub fn variants(mut self, variants: Vec<Variant>) -> SweepGrid {
        self.variants = variants;
        self
    }

    /// Sets the engine axis.
    #[must_use]
    pub fn engines(mut self, engines: &[Engine]) -> SweepGrid {
        self.engines = engines.to_vec();
        self
    }

    /// Sets the seed axis.
    #[must_use]
    pub fn seeds(mut self, seeds: &[u64]) -> SweepGrid {
        self.seeds = seeds.to_vec();
        self
    }

    /// Adds grid-wide base knobs.
    #[must_use]
    pub fn with_base(mut self, base: Vec<Knob>) -> SweepGrid {
        self.base = base;
        self
    }

    /// Restricts the grid with `filter`.
    #[must_use]
    pub fn filtered(mut self, filter: GridFilter) -> SweepGrid {
        self.filter = Some(filter);
        self
    }

    /// Checks the grid's axes for values that would silently corrupt a
    /// sweep: an empty or duplicate-carrying axis emits duplicate result
    /// rows (or none at all), and a zero mesh side or plane count cannot
    /// be materialized. Called for every registered scenario at registry
    /// build time, so a bad grid fails fast instead of writing bad JSONL.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending axis and value.
    pub fn validate(&self) -> Result<(), String> {
        fn dup<T: PartialEq + std::fmt::Debug>(axis: &str, values: &[T]) -> Result<(), String> {
            for (i, v) in values.iter().enumerate() {
                if values[..i].contains(v) {
                    return Err(format!("duplicate {axis} axis value {v:?}"));
                }
            }
            Ok(())
        }
        let names: Vec<&str> = self.workloads.iter().map(|w| w.name).collect();
        dup("workload", &names)?;
        dup("mesh-side", &self.mesh_sides)?;
        dup("fabric", &self.fabrics)?;
        dup("planes", &self.planes)?;
        dup("protocol", &self.protocols)?;
        let labels: Vec<&str> = self.variants.iter().map(|v| v.label.as_str()).collect();
        dup("variant", &labels)?;
        dup("engine", &self.engines)?;
        dup("seed", &self.seeds)?;
        if self.mesh_sides.contains(&0) {
            return Err("mesh-side axis contains 0".into());
        }
        if self.planes.contains(&0) {
            return Err("planes axis contains 0".into());
        }
        for (axis, empty) in [
            ("mesh-side", self.mesh_sides.is_empty()),
            ("fabric", self.fabrics.is_empty()),
            ("planes", self.planes.is_empty()),
            ("protocol", self.protocols.is_empty()),
            ("variant", self.variants.is_empty()),
            ("engine", self.engines.is_empty()),
            ("seed", self.seeds.is_empty()),
        ] {
            // Workloads may be empty (static table scenarios); every other
            // axis must carry at least one value.
            if empty {
                return Err(format!("{axis} axis is empty"));
            }
        }
        Ok(())
    }

    /// Flattens the grid into its ordered run list.
    ///
    /// The order is the nested-loop order workload → mesh → fabric →
    /// planes → protocol → variant → engine → seed, which is stable
    /// across calls; indices are assigned after filtering, so
    /// `enumerate()[i].index == i` always holds. The executor may
    /// *complete* runs in any order, but results are returned in this
    /// order, which is what makes sweep output reproducible.
    pub fn enumerate(&self) -> Vec<RunSpec> {
        let mut specs = Vec::new();
        for w in &self.workloads {
            for &mesh_side in &self.mesh_sides {
                for &fabric in &self.fabrics {
                    for &planes in &self.planes {
                        for &protocol in &self.protocols {
                            for v in &self.variants {
                                for &engine in &self.engines {
                                    for &seed in &self.seeds {
                                        let effective = Variant {
                                            label: v.label.clone(),
                                            knobs: self
                                                .base
                                                .iter()
                                                .chain(&v.knobs)
                                                .copied()
                                                .collect(),
                                        };
                                        let spec = RunSpec {
                                            index: specs.len(),
                                            workload: w.clone(),
                                            mesh_side,
                                            fabric,
                                            planes,
                                            protocol,
                                            variant: effective,
                                            engine,
                                            seed,
                                        };
                                        if self.filter.is_none_or(|f| f(&spec)) {
                                            specs.push(spec);
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        specs
    }

    /// Number of runs the grid expands to.
    pub fn len(&self) -> usize {
        self.enumerate().len()
    }

    /// Whether the grid expands to zero runs (static scenarios).
    pub fn is_empty(&self) -> bool {
        self.enumerate().is_empty()
    }
}

/// One fully-specified run: a point of the sweep grid.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    /// Position in the grid's enumeration order.
    pub index: usize,
    /// Workload parameters (ops-per-core is overridden by the executor).
    pub workload: WorkloadParams,
    /// Mesh side (`k` ⇒ a `k²`-tile system; see [`Fabric::geometry`]).
    pub mesh_side: u16,
    /// Delivery fabric the `mesh_side` materializes as.
    pub fabric: Fabric,
    /// Parallel main-network planes (1 = the single-network engine).
    pub planes: usize,
    /// Ordering protocol.
    pub protocol: Protocol,
    /// Configuration variant (grid base knobs already folded in).
    pub variant: Variant,
    /// Simulation engine (semantics-neutral; reports are byte-identical
    /// across engines).
    pub engine: Engine,
    /// Workload seed.
    pub seed: u64,
}

impl RunSpec {
    /// Materializes the [`SystemConfig`] for this run: a `k × k` mesh,
    /// a `k × k` torus, or a `k²`-router ring — all with four MC ports,
    /// so every fabric at the same `k` has matched endpoint counts.
    pub fn config(&self) -> SystemConfig {
        let k = self.mesh_side;
        let base = match self.fabric {
            Fabric::Mesh => SystemConfig::square(k),
            Fabric::Torus => SystemConfig::torus(k),
            Fabric::Ring => SystemConfig::ring(k * k, 4),
            Fabric::CMesh(c) => {
                let (w, h) = Fabric::cmesh_dims(k, c);
                SystemConfig::cmesh(w, h, c)
            }
        };
        let mut cfg = base.with_protocol(self.protocol);
        cfg.seed = self.seed;
        if self.planes != 1 {
            cfg = cfg.with_planes(self.planes);
        }
        self.variant.apply(cfg)
    }

    /// The MC-placement key of this spec's variant, if it carries a
    /// [`Knob::McPlacement`] (recorded by the JSONL/CSV sinks).
    pub fn mc_placement(&self) -> Option<String> {
        self.variant.knobs.iter().find_map(|k| match k {
            Knob::McPlacement { .. } => Some(k.label()),
            _ => None,
        })
    }

    /// The open-loop injection point of this spec's variant, if it
    /// carries a [`Knob::OpenLoad`] (recorded by the JSONL/CSV sinks).
    pub fn open_load(&self) -> Option<(ArrivalProcess, u32)> {
        self.variant.knobs.iter().find_map(|k| match k {
            Knob::OpenLoad { process, millis } => Some((*process, *millis)),
            _ => None,
        })
    }

    /// A human-readable identity key, unique within a grid. Default-engine
    /// single-plane mesh keys are unchanged from before the engine, fabric
    /// and plane axes existed; other fabrics change the geometry segment
    /// (`torus4x4`, `ring16`), multiple planes extend it (`8x8+4pl`), and
    /// the always-scan engine appends `/scan`.
    pub fn key(&self) -> String {
        let engine = match self.engine.label() {
            "" => String::new(),
            label => format!("/{label}"),
        };
        let planes = match self.planes {
            1 => String::new(),
            n => format!("+{n}pl"),
        };
        format!(
            "{}/{}{planes}/{}/{}/seed{}{engine}",
            self.workload.name,
            self.fabric.geometry(self.mesh_side),
            self.protocol.name(),
            self.variant.label,
            self.seed
        )
    }
}

/// A named, registered experiment: a grid plus its presentation.
pub struct Scenario {
    /// Registry name (`harness run <name>`).
    pub name: &'static str,
    /// Table title.
    pub title: String,
    /// One-line description for `harness list`.
    pub about: &'static str,
    /// The sweep to run (empty for static table scenarios).
    pub grid: SweepGrid,
    /// Renders the scenario's human-readable tables from its results.
    pub render: fn(&Scenario, &[crate::exec::RunResult]) -> String,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn small_grid() -> SweepGrid {
        SweepGrid::over(vec![
            WorkloadParams::by_name("lu").unwrap(),
            WorkloadParams::by_name("fft").unwrap(),
        ])
        .meshes(&[2, 3])
        .protocols(&[Protocol::Scorpio, Protocol::TokenB])
        .variants(vec![Variant::baseline(), Variant::knob(Knob::GoreqVcs(6))])
        .seeds(&[1, 2])
    }

    #[test]
    fn enumeration_is_stable_and_duplicate_free() {
        let g = small_grid();
        let a = g.enumerate();
        let b = g.enumerate();
        assert_eq!(a, b, "enumeration must be stable");
        assert_eq!(a.len(), 2 * 2 * 2 * 2 * 2);
        let keys: HashSet<String> = a.iter().map(RunSpec::key).collect();
        assert_eq!(keys.len(), a.len(), "keys must be unique");
        for (i, s) in a.iter().enumerate() {
            assert_eq!(s.index, i);
        }
    }

    #[test]
    fn filter_restricts_and_reindexes() {
        let g = small_grid().filtered(|s| s.mesh_side == 2);
        let specs = g.enumerate();
        assert_eq!(specs.len(), 16);
        assert!(specs.iter().all(|s| s.mesh_side == 2));
        for (i, s) in specs.iter().enumerate() {
            assert_eq!(s.index, i, "indices must be dense after filtering");
        }
    }

    #[test]
    fn base_knobs_fold_into_every_variant() {
        let g = SweepGrid::over(vec![WorkloadParams::by_name("lu").unwrap()])
            .meshes(&[2])
            .with_base(vec![Knob::DirTotalBytes(8 * 1024)])
            .variants(vec![Variant::baseline(), Variant::knob(Knob::GoreqVcs(6))]);
        for spec in g.enumerate() {
            assert_eq!(spec.config().dir_total_bytes, 8 * 1024);
        }
    }

    #[test]
    fn knobs_apply_and_label() {
        let cfg = Knob::ChannelBytes(32).apply(SystemConfig::square(3));
        assert_eq!(cfg.noc.channel_bytes, 32);
        let cfg = Knob::Bypass(false).apply(SystemConfig::square(3));
        assert!(!cfg.noc.bypass);
        let cfg = Knob::RegionTracker(false).apply(SystemConfig::square(3));
        assert!(cfg.l2.region_entries.is_none());
        let cfg = Knob::NotificationWindowSlack(13).apply(SystemConfig::square(3));
        assert_eq!(cfg.notification_window_slack, 13);
        let cfg = Knob::QuadNotify(2).apply(SystemConfig::square(4));
        assert_eq!(cfg.notify, NotifyScheme::Quad { fanout: 2 });
        assert_ne!(
            cfg.stable_hash(),
            SystemConfig::square(4).stable_hash(),
            "the notify scheme is a config axis"
        );
        assert_eq!(Knob::QuadNotify(4).label(), "quad-f4");
        assert_eq!(Knob::GoreqVcs(6).label(), "GO-VCs=6");
        assert_eq!(Knob::PipelinedUncore(false).label(), "non-PL");
        let v = Variant::new("combo", vec![Knob::ChannelBytes(8), Knob::UoRespVcs(4)]);
        let cfg = v.apply(SystemConfig::square(3));
        assert_eq!(cfg.noc.channel_bytes, 8);
        assert_eq!(cfg.noc.vnets[1].vcs, 4);
    }

    #[test]
    fn fabric_axis_changes_geometry_but_not_mesh_keys() {
        let g = SweepGrid::over(vec![WorkloadParams::by_name("lu").unwrap()])
            .meshes(&[4])
            .fabrics(&[Fabric::Mesh, Fabric::Torus, Fabric::Ring]);
        let specs = g.enumerate();
        assert_eq!(specs.len(), 3);
        assert_eq!(specs[0].key(), "lu/4x4/SCORPIO/baseline/seed1");
        assert_eq!(specs[1].key(), "lu/torus4x4/SCORPIO/baseline/seed1");
        assert_eq!(specs[2].key(), "lu/ring16/SCORPIO/baseline/seed1");
        // Matched endpoint counts, three distinct config hashes.
        for s in &specs {
            assert_eq!(s.config().cores(), 16);
            assert_eq!(s.config().mesh.endpoint_count(), 20);
        }
        let hashes: HashSet<u64> = specs.iter().map(|s| s.config().stable_hash()).collect();
        assert_eq!(hashes.len(), 3);
    }

    #[test]
    fn scan_engine_suffixes_keys_and_shares_config() {
        let g = SweepGrid::over(vec![WorkloadParams::by_name("lu").unwrap()])
            .meshes(&[2])
            .engines(&[Engine::ActiveSet, Engine::AlwaysScan]);
        let specs = g.enumerate();
        assert_eq!(specs.len(), 2);
        assert!(!specs[0].key().ends_with("/scan"));
        assert!(specs[1].key().ends_with("/scan"));
        assert_eq!(
            specs[0].config().stable_hash(),
            specs[1].config().stable_hash()
        );
    }

    #[test]
    fn planes_axis_extends_keys_and_configs_but_leaves_defaults_stable() {
        let g = SweepGrid::over(vec![WorkloadParams::by_name("lu").unwrap()])
            .meshes(&[4])
            .planes(&[1, 2, 4]);
        let specs = g.enumerate();
        assert_eq!(specs.len(), 3);
        // Single-plane keys are byte-stable from before the axis existed.
        assert_eq!(specs[0].key(), "lu/4x4/SCORPIO/baseline/seed1");
        assert_eq!(specs[1].key(), "lu/4x4+2pl/SCORPIO/baseline/seed1");
        assert_eq!(specs[2].key(), "lu/4x4+4pl/SCORPIO/baseline/seed1");
        assert_eq!(specs[0].config().planes.get(), 1);
        assert_eq!(specs[2].config().planes.get(), 4);
        // Three distinct config hashes; plane 1 matches the axis-free
        // config exactly.
        let hashes: HashSet<u64> = specs.iter().map(|s| s.config().stable_hash()).collect();
        assert_eq!(hashes.len(), 3);
        assert_eq!(
            specs[0].config().stable_hash(),
            SystemConfig::square(4).stable_hash()
        );
    }

    #[test]
    fn validate_rejects_zero_and_duplicate_axis_values() {
        let ok = SweepGrid::over(vec![WorkloadParams::by_name("lu").unwrap()]);
        assert!(ok.validate().is_ok());
        // Zero values.
        let zero_planes = ok.clone().planes(&[0, 1]);
        assert!(zero_planes.validate().unwrap_err().contains("planes"));
        let zero_mesh = ok.clone().meshes(&[0]);
        assert!(zero_mesh.validate().unwrap_err().contains("mesh-side"));
        // Duplicates on every axis kind.
        let dup_fabric = ok.clone().fabrics(&[Fabric::Torus, Fabric::Torus]);
        assert!(dup_fabric.validate().unwrap_err().contains("fabric"));
        let dup_seed = ok.clone().seeds(&[3, 3]);
        assert!(dup_seed.validate().unwrap_err().contains("seed"));
        let dup_planes = ok.clone().planes(&[2, 2]);
        assert!(dup_planes.validate().unwrap_err().contains("planes"));
        let dup_protocol = ok.clone().protocols(&[Protocol::TokenB, Protocol::TokenB]);
        assert!(dup_protocol.validate().unwrap_err().contains("protocol"));
        let dup_variant = ok
            .clone()
            .variants(vec![Variant::baseline(), Variant::baseline()]);
        assert!(dup_variant.validate().unwrap_err().contains("variant"));
        let dup_workload = SweepGrid::over(vec![
            WorkloadParams::by_name("lu").unwrap(),
            WorkloadParams::by_name("lu").unwrap(),
        ]);
        assert!(dup_workload.validate().unwrap_err().contains("workload"));
        // Empty non-workload axes are rejected too.
        let empty_engines = ok.clone().engines(&[]);
        assert!(empty_engines.validate().unwrap_err().contains("engine"));
        // Static scenarios (no workloads) stay valid.
        assert!(SweepGrid::default().validate().is_ok());
    }

    #[test]
    fn mc_placement_knob_rewires_fabric_and_l2() {
        let corner2 = Knob::McPlacement {
            placement: McPlacement::Corner,
            mcs: 2,
        };
        let cfg = corner2.apply(SystemConfig::square(4));
        assert_eq!(cfg.mesh.mc_routers().len(), 2);
        assert_eq!(cfg.l2.mc_endpoints.len(), 2);
        // Two corner MCs sit on the opposite diagonal.
        assert_eq!(
            cfg.mesh.mc_routers(),
            &[scorpio_noc::RouterId(0), scorpio_noc::RouterId(15)]
        );
        let torus = corner2.apply(SystemConfig::torus(4));
        assert_eq!(torus.mesh.name(), "torus");
        assert_eq!(torus.mesh.mc_routers().len(), 2);
        let spread = Knob::McPlacement {
            placement: McPlacement::Spread,
            mcs: 2,
        }
        .apply(SystemConfig::ring(16, 4));
        assert_eq!(spread.mesh.mc_routers().len(), 2);
        assert_eq!(spread.l2.mc_endpoints.len(), 2);
        assert_eq!(corner2.label(), "corner-2");
        assert_eq!(
            Knob::McPlacement {
                placement: McPlacement::Proportional,
                mcs: 0
            }
            .label(),
            "prop"
        );
        // Placement support matrix drives the sweep filter.
        assert!(McPlacement::Corner.supports(Fabric::Mesh));
        assert!(McPlacement::Corner.supports(Fabric::Torus));
        assert!(!McPlacement::Corner.supports(Fabric::Ring));
        assert!(McPlacement::Spread.supports(Fabric::Ring));
        assert!(!McPlacement::Proportional.supports(Fabric::Torus));
    }

    #[test]
    #[should_panic(expected = "undefined for the ring fabric")]
    fn corner_placement_on_a_ring_panics() {
        let _ = Knob::McPlacement {
            placement: McPlacement::Corner,
            mcs: 2,
        }
        .apply(SystemConfig::ring(16, 4));
    }

    #[test]
    fn open_load_knob_applies_labels_and_surfaces_in_specs() {
        let k = Knob::OpenLoad {
            process: ArrivalProcess::Poisson,
            millis: 40,
        };
        let cfg = k.apply(SystemConfig::square(3));
        let ol = cfg.open_loop.expect("knob must set the open-loop axis");
        assert_eq!(ol.load_millis, 40);
        assert_eq!(ol.queue_cap, DEFAULT_SOURCE_QUEUE_CAP);
        assert_eq!(k.label(), "pois-40");
        assert_eq!(
            Knob::OpenLoad {
                process: ArrivalProcess::Bursty { on: 50, off: 150 },
                millis: 80,
            }
            .label(),
            "burst-80"
        );
        let g = SweepGrid::over(vec![WorkloadParams::by_name("lu").unwrap()])
            .meshes(&[2])
            .variants(vec![Variant::knob(k)]);
        let spec = &g.enumerate()[0];
        assert_eq!(spec.open_load(), Some((ArrivalProcess::Poisson, 40)));
        assert!(spec.key().contains("/pois-40/"));
    }

    #[test]
    fn specs_differ_by_seed_in_config_hash() {
        let g = SweepGrid::over(vec![WorkloadParams::by_name("lu").unwrap()])
            .meshes(&[2])
            .seeds(&[1, 2]);
        let specs = g.enumerate();
        assert_ne!(
            specs[0].config().stable_hash(),
            specs[1].config().stable_hash()
        );
    }
}
