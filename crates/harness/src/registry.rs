//! The named-scenario registry.
//!
//! Every figure and table of the paper's evaluation is registered here as
//! a [`Scenario`]: a declarative sweep grid plus a render function that
//! prints the figure's table. `harness run <name>` resolves a name here;
//! `harness list` shows everything that can be run, including the
//! reduced `-small` variants.

use scorpio::{ArrivalProcess, Protocol};
use scorpio_workloads::WorkloadParams;

use crate::exec::RunResult;
use crate::scenario::{
    Engine, Fabric, GridFilter, Knob, McPlacement, RunSpec, Scenario, SweepGrid, Variant,
};
use crate::table::render_normalized;

/// Every registered scenario, in presentation order.
///
/// # Panics
///
/// Panics if any registered grid fails [`SweepGrid::validate`] — a
/// zero/duplicate axis value would silently emit duplicate (or no) JSONL
/// rows, so it is rejected here, at registry build time.
pub fn scenarios() -> Vec<Scenario> {
    let all = vec![
        fig6("fig6", 6),
        fig6("fig6-small", 4),
        fig6("fig6-64", 8),
        fig7(),
        fig7_small(),
        fig8a(),
        fig8b(),
        fig8c(),
        fig8d(),
        fig9(),
        fig10("fig10", &[6, 8, 10]),
        fig10("fig10-small", &[3, 4]),
        table1(),
        table2(),
        ablation("ablation", 6),
        ablation("ablation-small", 4),
        scaling("scaling", &[6, 8, 10]),
        scaling("scaling-small", &[3, 4]),
        scaling_mesh("scaling-mesh", &[8, 12, 16]),
        scaling_mesh("scaling-mesh-small", &[4, 8]),
        throughput("throughput", 16),
        throughput("throughput-small", 8),
        topology("topology", 6),
        topology("topology-small", 4),
        obs_overhead("obs-overhead", 12),
        obs_overhead("obs-overhead-small", 6),
        latency_breakdown("latency-breakdown", 8),
        latency_breakdown("latency-breakdown-small", 4),
        planes_scenario("planes", 6),
        planes_scenario("planes-small", 4),
        planes_throughput("planes-throughput", 8),
        planes_throughput("planes-throughput-small", 6),
        mc_placement("mc-placement", 6),
        mc_placement("mc-placement-small", 4),
        cmesh("cmesh", 8),
        cmesh("cmesh-small", 4),
        scaling_kilocore("scaling-kilocore", &[16, 32], kilocore_filter),
        scaling_kilocore("scaling-kilocore-small", &[8, 16], kilocore_small_filter),
        latency_curve("latency-curve", true),
        latency_curve("latency-curve-small", false),
    ];
    for s in &all {
        s.grid
            .validate()
            .unwrap_or_else(|e| panic!("scenario {}: {e}", s.name));
    }
    all
}

/// Resolves a scenario by registry name.
pub fn by_name(name: &str) -> Option<Scenario> {
    scenarios().into_iter().find(|s| s.name == name)
}

/// Display label for a protocol column (the paper's figure legends).
fn protocol_label(p: Protocol) -> String {
    match p {
        Protocol::Inso { expiry_window } => format!("INSO-{expiry_window}"),
        other => other.name(),
    }
}

/// First result matching `pred`, if any.
fn find(results: &[RunResult], pred: impl Fn(&RunSpec) -> bool) -> Option<&RunResult> {
    results.iter().find(|r| pred(&r.spec))
}

/// Runtime matrix with one row per grid workload and one column per grid
/// protocol (missing grid points become 0, which the table renders as a
/// guarded cell rather than NaN). A cell is the runtime averaged over
/// every matching run — i.e. over the seed axis when `--seeds` adds
/// replicates — so the table summarizes the same data the sinks record.
fn protocol_matrix(s: &Scenario, results: &[RunResult]) -> (Vec<&'static str>, Vec<Vec<u64>>) {
    let names: Vec<&'static str> = s.grid.workloads.iter().map(|w| w.name).collect();
    let rows = s
        .grid
        .workloads
        .iter()
        .map(|w| {
            s.grid
                .protocols
                .iter()
                .map(|&p| {
                    mean_runtime(results, |spec| {
                        spec.workload.name == w.name && spec.protocol == p
                    })
                })
                .collect()
        })
        .collect();
    (names, rows)
}

/// Runtime matrix with one row per grid workload and one column per grid
/// variant (cells averaged over replicates, as in [`protocol_matrix`]).
fn variant_matrix(s: &Scenario, results: &[RunResult]) -> (Vec<&'static str>, Vec<Vec<u64>>) {
    let names: Vec<&'static str> = s.grid.workloads.iter().map(|w| w.name).collect();
    let rows = s
        .grid
        .workloads
        .iter()
        .map(|w| {
            s.grid
                .variants
                .iter()
                .map(|v| {
                    mean_runtime(results, |spec| {
                        spec.workload.name == w.name && spec.variant.label == v.label
                    })
                })
                .collect()
        })
        .collect();
    (names, rows)
}

/// Mean runtime over all runs matching `pred`, or 0 when none match.
fn mean_runtime(results: &[RunResult], pred: impl Fn(&RunSpec) -> bool) -> u64 {
    let matching: Vec<u64> = results
        .iter()
        .filter(|r| pred(&r.spec))
        .map(|r| r.report.runtime_cycles)
        .collect();
    if matching.is_empty() {
        0
    } else {
        matching.iter().sum::<u64>() / matching.len() as u64
    }
}

fn variant_labels(s: &Scenario) -> Vec<&str> {
    s.grid.variants.iter().map(|v| v.label.as_str()).collect()
}

// ---------------------------------------------------------------- Figure 6

fn fig6(name: &'static str, k: u16) -> Scenario {
    Scenario {
        name,
        title: format!(
            "Figure 6a — normalized runtime, {} cores",
            k as usize * k as usize
        ),
        about: "LPD-D vs HT-D vs SCORPIO-D across SPLASH-2 + PARSEC",
        grid: SweepGrid::over(WorkloadParams::figure6_set())
            .meshes(&[k])
            .protocols(&[Protocol::LpdDir, Protocol::HtDir, Protocol::Scorpio])
            // The paper's 256 KB directory serves real benchmarks with
            // gigabyte working sets; our synthetic footprints are ~1000x
            // smaller, so the budget is scaled to preserve the capacity
            // pressure that differentiates LPD's wide entries from HT's
            // 2-bit entries (see EXPERIMENTS.md).
            .with_base(vec![Knob::DirTotalBytes(8 * 1024)]),
        render: fig6_render,
    }
}

fn fig6_render(s: &Scenario, results: &[RunResult]) -> String {
    let (names, rows) = protocol_matrix(s, results);
    let mut out = render_normalized(&s.title, &names, &["LPD-D", "HT-D", "SCORPIO-D"], &rows);
    out.push_str("\n=== Figure 6b/6c — latency breakdown (cycles) ===\n");
    out.push_str(&format!(
        "{:<16}{:<12}{:>10}{:>12}{:>12}{:>12}{:>12}\n",
        "benchmark", "protocol", "L2 svc", "c2c-served", "mem-served", "ordering", "%cache"
    ));
    for r in results {
        out.push_str(&format!(
            "{:<16}{:<12}{:>10.1}{:>12.1}{:>12.1}{:>12.1}{:>11.1}%\n",
            r.spec.workload.name,
            r.report.protocol,
            r.report.l2_service_latency.mean(),
            r.report.cache_served.mean(),
            r.report.memory_served.mean(),
            r.report.ordering_delay.mean(),
            100.0 * r.report.cache_served_fraction(),
        ));
    }
    out
}

// ---------------------------------------------------------------- Figure 7

fn fig7() -> Scenario {
    Scenario {
        name: "fig7",
        title: "Figure 7 — normalized runtime, 16 cores".into(),
        about: "SCORPIO vs TokenB vs INSO (expiry 20/40/80) on the PARSEC subset",
        grid: SweepGrid::over(WorkloadParams::figure7_set())
            .meshes(&[4])
            .protocols(&[
                Protocol::Scorpio,
                Protocol::TokenB,
                Protocol::Inso { expiry_window: 20 },
                Protocol::Inso { expiry_window: 40 },
                Protocol::Inso { expiry_window: 80 },
            ]),
        render: fig7_render,
    }
}

fn fig7_render(s: &Scenario, results: &[RunResult]) -> String {
    let (names, rows) = protocol_matrix(s, results);
    let cols: Vec<String> = s
        .grid
        .protocols
        .iter()
        .map(|&p| protocol_label(p))
        .collect();
    let cols: Vec<&str> = cols.iter().map(String::as_str).collect();
    render_normalized(&s.title, &names, &cols, &rows)
}

/// The reduced all-protocol grid backing the engine-equivalence golden
/// test: every ordering scheme — SCORPIO, TokenB, INSO, and both directory
/// baselines — on a 16-core mesh with a small PARSEC subset.
fn fig7_small() -> Scenario {
    Scenario {
        name: "fig7-small",
        title: "Figure 7 (reduced) — all ordering protocols, 16 cores".into(),
        about: "SCORPIO vs TokenB vs INSO-40 vs LPD-D vs HT-D, reduced workload set",
        grid: SweepGrid::over(
            WorkloadParams::figure7_set()
                .into_iter()
                .filter(|p| ["blackscholes", "swaptions"].contains(&p.name))
                .collect(),
        )
        .meshes(&[4])
        .protocols(&[
            Protocol::Scorpio,
            Protocol::TokenB,
            Protocol::Inso { expiry_window: 40 },
            Protocol::LpdDir,
            Protocol::HtDir,
        ]),
        render: fig7_render,
    }
}

// ---------------------------------------------------------------- Figure 8

fn fig8a() -> Scenario {
    Scenario {
        name: "fig8a",
        title: "Figure 8a — channel width".into(),
        about: "NoC exploration: channel width 8/16/32 bytes",
        grid: SweepGrid::over(WorkloadParams::splash2()).variants(vec![
            Variant::knob(Knob::ChannelBytes(8)),
            Variant::knob(Knob::ChannelBytes(16)),
            Variant::knob(Knob::ChannelBytes(32)),
        ]),
        render: fig8_render,
    }
}

fn fig8b() -> Scenario {
    Scenario {
        name: "fig8b",
        title: "Figure 8b — GO-REQ VCs".into(),
        about: "NoC exploration: GO-REQ virtual channels 2/4/6",
        grid: SweepGrid::over(WorkloadParams::splash2()).variants(vec![
            Variant::knob(Knob::GoreqVcs(2)),
            Variant::knob(Knob::GoreqVcs(4)),
            Variant::knob(Knob::GoreqVcs(6)),
        ]),
        render: fig8_render,
    }
}

fn fig8c() -> Scenario {
    Scenario {
        name: "fig8c",
        title: "Figure 8c — UO-RESP VCs × channel width".into(),
        about: "NoC exploration: UO-RESP VC count against channel width",
        grid: SweepGrid::over(WorkloadParams::splash2()).variants(vec![
            Variant::new("8B/2VC", vec![Knob::ChannelBytes(8), Knob::UoRespVcs(2)]),
            Variant::new("8B/4VC", vec![Knob::ChannelBytes(8), Knob::UoRespVcs(4)]),
            Variant::new("16B/2VC", vec![Knob::ChannelBytes(16), Knob::UoRespVcs(2)]),
            Variant::new("16B/4VC", vec![Knob::ChannelBytes(16), Knob::UoRespVcs(4)]),
        ]),
        render: fig8_render,
    }
}

fn fig8d() -> Scenario {
    Scenario {
        name: "fig8d",
        title: "Figure 8d — notification bits per core (4 outstanding)".into(),
        about: "NoC exploration: notification-network width 1/2/3 bits",
        grid: SweepGrid::over(WorkloadParams::splash2())
            .with_base(vec![Knob::Outstanding(4)])
            .variants(vec![
                Variant::knob(Knob::NotificationBits(1)),
                Variant::knob(Knob::NotificationBits(2)),
                Variant::knob(Knob::NotificationBits(3)),
            ]),
        render: fig8_render,
    }
}

fn fig8_render(s: &Scenario, results: &[RunResult]) -> String {
    let (names, rows) = variant_matrix(s, results);
    render_normalized(&s.title, &names, &variant_labels(s), &rows)
}

// ---------------------------------------------------------------- Figure 9

fn fig9() -> Scenario {
    Scenario {
        name: "fig9",
        title: "Figure 9 — tile power and area breakdowns".into(),
        about: "Analytical power/area model (no simulation)",
        grid: SweepGrid::default(), // static: no workloads, zero runs
        render: fig9_render,
    }
}

fn fig9_render(_s: &Scenario, _results: &[RunResult]) -> String {
    let mut out = String::new();
    out.push_str("=== Figure 9a — tile power breakdown ===\n");
    for s in scorpio_physical::tile_power_breakdown() {
        out.push_str(&format!(
            "{:<16}{:>6.1}%\n",
            format!("{:?}", s.component),
            s.percent
        ));
    }
    out.push_str("\n=== Figure 9b — tile area breakdown ===\n");
    for s in scorpio_physical::tile_area_breakdown() {
        out.push_str(&format!(
            "{:<16}{:>6.1}%\n",
            format!("{:?}", s.component),
            s.percent
        ));
    }
    out.push_str(&format!(
        "\nChip power (36 tiles): {:.1} W\n",
        scorpio_physical::chip_power_watts(36)
    ));
    out.push_str(&format!(
        "Notification network width: 36×1b = {} bits (<1% tile area/power)\n",
        scorpio_physical::notification_width_bits(36, 1)
    ));
    out
}

// --------------------------------------------------------------- Figure 10

fn fig10(name: &'static str, meshes: &[u16]) -> Scenario {
    Scenario {
        name,
        title: "Figure 10 — avg L2 service latency (cycles)".into(),
        about: "Pipelined vs non-pipelined uncore across mesh sizes",
        grid: SweepGrid::over(
            [
                "barnes",
                "blackscholes",
                "canneal",
                "fft",
                "fluidanimate",
                "lu",
            ]
            .iter()
            .map(|n| WorkloadParams::by_name(n).expect("registered workload"))
            .collect(),
        )
        .meshes(meshes)
        .variants(vec![
            Variant::knob(Knob::PipelinedUncore(false)),
            Variant::knob(Knob::PipelinedUncore(true)),
        ]),
        render: fig10_render,
    }
}

fn fig10_render(s: &Scenario, results: &[RunResult]) -> String {
    let mut out = String::new();
    out.push_str(&format!("=== {} ===\n", s.title));
    out.push_str(&format!(
        "{:<16}{:>8}{:>12}{:>12}{:>10}\n",
        "benchmark", "mesh", "non-PL", "PL", "gain"
    ));
    for &k in &s.grid.mesh_sides {
        let mut sums = [0.0f64; 2];
        for w in &s.grid.workloads {
            let mut lat = [0.0f64; 2];
            for (i, label) in ["non-PL", "PL"].iter().enumerate() {
                lat[i] = find(results, |spec| {
                    spec.workload.name == w.name
                        && spec.mesh_side == k
                        && spec.variant.label == *label
                })
                .map_or(0.0, |r| r.report.l2_service_latency.mean());
                sums[i] += lat[i];
            }
            let gain = if lat[0] > 0.0 {
                100.0 * (lat[0] - lat[1]) / lat[0]
            } else {
                0.0
            };
            out.push_str(&format!(
                "{:<16}{:>5}x{:<2}{:>12.1}{:>12.1}{:>9.1}%\n",
                w.name, k, k, lat[0], lat[1], gain
            ));
        }
        let n = s.grid.workloads.len() as f64;
        let gain = if sums[0] > 0.0 {
            100.0 * (sums[0] - sums[1]) / sums[0]
        } else {
            0.0
        };
        out.push_str(&format!(
            "{:<16}{:>5}x{:<2}{:>12.1}{:>12.1}{:>9.1}%  <- average\n",
            "AVG",
            k,
            k,
            sums[0] / n,
            sums[1] / n,
            gain
        ));
    }
    out
}

// ------------------------------------------------------------ Tables 1 & 2

fn table1() -> Scenario {
    Scenario {
        name: "table1",
        title: "Table 1 — SCORPIO chip features".into(),
        about: "Chip feature summary (no simulation)",
        grid: SweepGrid::default(),
        render: table1_render,
    }
}

fn table1_render(_s: &Scenario, _results: &[RunResult]) -> String {
    let mut out = String::from("=== Table 1 — SCORPIO chip features ===\n");
    for (feature, value) in scorpio_physical::chip_feature_table() {
        out.push_str(&format!("{feature:<24}{value}\n"));
    }
    out
}

fn table2() -> Scenario {
    Scenario {
        name: "table2",
        title: "Table 2 — multicore processor comparison".into(),
        about: "Processor comparison table (no simulation)",
        grid: SweepGrid::default(),
        render: table2_render,
    }
}

fn table2_render(_s: &Scenario, _results: &[RunResult]) -> String {
    let mut out = String::from("=== Table 2 — multicore processor comparison ===\n");
    out.push_str(&format!(
        "{:<16}{:<8}{:<26}{:<32}{}\n",
        "processor", "cores", "consistency", "coherence", "interconnect"
    ));
    for c in scorpio_physical::processor_comparison_table() {
        out.push_str(&format!(
            "{:<16}{:<8}{:<26}{:<32}{}\n",
            c.name, c.cores, c.consistency, c.coherence, c.interconnect
        ));
    }
    out
}

// ---------------------------------------------------------------- Ablation

fn ablation(name: &'static str, k: u16) -> Scenario {
    Scenario {
        name,
        title: format!("Ablation — {k}x{k}, fluidanimate"),
        about: "Design-choice ablation: bypass, region tracker, FIDs, window slack",
        grid: SweepGrid::over(vec![
            WorkloadParams::by_name("fluidanimate").expect("registered workload")
        ])
        .meshes(&[k])
        .variants(vec![
            Variant::new("baseline (chip)", vec![]),
            Variant::new("no lookahead bypass", vec![Knob::Bypass(false)]),
            Variant::new("no region tracker", vec![Knob::RegionTracker(false)]),
            Variant::new("FID capacity 1", vec![Knob::FidCapacity(1)]),
            Variant::new(
                "2x notification window",
                vec![Knob::NotificationWindowSlack(13)],
            ),
            Variant::new(
                "4x notification window",
                vec![Knob::NotificationWindowSlack(39)],
            ),
        ]),
        render: ablation_render,
    }
}

fn ablation_render(s: &Scenario, results: &[RunResult]) -> String {
    let mut out = String::new();
    out.push_str(&format!("=== {} ===\n", s.title));
    out.push_str(&format!(
        "{:<26}{:>10}{:>12}{:>14}{:>12}\n",
        "configuration", "runtime", "L2 svc", "ordering", "normalized"
    ));
    // Each seed is its own replicate block, normalized against *its own*
    // baseline run, so a `--seeds` override never mixes seeds in the
    // normalized column.
    let multi_seed = s.grid.seeds.len() > 1;
    for &seed in &s.grid.seeds {
        let block: Vec<&RunResult> = results.iter().filter(|r| r.spec.seed == seed).collect();
        let base = block.first().map_or(0, |r| r.report.runtime_cycles);
        for r in block {
            let norm = if base > 0 {
                format!("{:>12.3}", r.report.runtime_cycles as f64 / base as f64)
            } else {
                format!("{:>12}", "-")
            };
            let label = if multi_seed {
                format!("{} [seed {}]", r.spec.variant.label, seed)
            } else {
                r.spec.variant.label.clone()
            };
            out.push_str(&format!(
                "{:<26}{:>10}{:>12.1}{:>14.1}{norm}\n",
                label,
                r.report.runtime_cycles,
                r.report.l2_service_latency.mean(),
                r.report.ordering_delay.mean(),
            ));
        }
    }
    out
}

// ----------------------------------------------------------- Section 5.3

fn scaling(name: &'static str, meshes: &[u16]) -> Scenario {
    Scenario {
        name,
        title: "Section 5.3 — GO-REQ VC scaling at high core counts".into(),
        about: "VC scaling (4/16/50) on growing meshes vs the 1/k^2 bound",
        grid: SweepGrid::over(vec![
            WorkloadParams::by_name("fluidanimate").expect("registered workload")
        ])
        .meshes(meshes)
        .variants(vec![
            Variant::knob(Knob::GoreqVcs(4)),
            Variant::knob(Knob::GoreqVcs(16)),
            Variant::knob(Knob::GoreqVcs(50)),
        ])
        .filtered(scaling_filter),
        render: scaling_render,
    }
}

/// The GO-REQ VC count a spec's variant sets (the chip default, 4, when
/// the variant leaves the knob alone) — shared by the scaling filter and
/// render so they can never disagree.
fn goreq_vcs(spec: &RunSpec) -> u8 {
    spec.variant
        .knobs
        .iter()
        .find_map(|k| match k {
            Knob::GoreqVcs(v) => Some(*v),
            _ => None,
        })
        .unwrap_or(4)
}

/// The paper's non-rectangular sweep: small meshes only need few VCs to
/// reach the topology bound, so higher VC counts are only run where they
/// matter (6×6 → 4; 8×8 → 4/16; larger → 4/16/50).
fn scaling_filter(spec: &RunSpec) -> bool {
    let vcs = goreq_vcs(spec);
    match spec.mesh_side {
        6 => vcs == 4,
        8 => vcs <= 16,
        _ => true,
    }
}

fn scaling_render(s: &Scenario, results: &[RunResult]) -> String {
    let mut out = String::new();
    out.push_str(&format!("=== {} ===\n", s.title));
    out.push_str(&format!(
        "{:>6}{:>8}{:>10}{:>12}{:>14}{:>16}\n",
        "mesh", "cores", "GO-VCs", "runtime", "L2 svc (cyc)", "1/k^2 bound"
    ));
    for r in results {
        let k = r.spec.mesh_side;
        let vcs = goreq_vcs(&r.spec);
        out.push_str(&format!(
            "{:>4}x{:<3}{:>6}{:>10}{:>12}{:>14.1}{:>16.4}\n",
            k,
            k,
            k as usize * k as usize,
            vcs,
            r.report.runtime_cycles,
            r.report.l2_service_latency.mean(),
            1.0 / (k as f64 * k as f64),
        ));
    }
    out.push_str("\nPer the paper: more GO-REQ VCs push throughput toward the\n");
    out.push_str("topology bound, but a k x k mesh broadcast cannot exceed 1/k^2\n");
    out.push_str("flits/node/cycle — multiple main networks are the cheaper fix.\n");
    out
}

// ------------------------------------------------- Scaling-mesh scenarios

/// Synthetic traffic shapes for the large-mesh sweeps. Not named after any
/// benchmark: these are uniform-random traffic generators whose knobs are
/// chosen to exercise the mesh, not to mimic an application, so they live
/// here rather than in the workload registry.
///
/// `uniform-low` is the low-injection point: barrier-style phasing — short
/// memory bursts over a cache-resident, mostly private footprint, then a
/// long synchronized compute phase during which the network drains and the
/// whole machine is quiescent. That burst/drain-tail shape is exactly the
/// regime the active-set engine exists for. `uniform-med` keeps the mesh
/// under continuous broadcast load for contrast.
fn uniform_low() -> WorkloadParams {
    WorkloadParams {
        name: "uniform-low",
        ops_per_core: 400,
        mean_gap: 4.0,
        write_fraction: 0.1,
        shared_fraction: 0.004,
        shared_lines: 64,
        private_lines: 4,
        hot_fraction: 0.2,
        hot_lines: 8,
        migratory_fraction: 0.02,
        locality: 0.95,
        phase_ops: 12,
        phase_gap: 40_000,
    }
}

/// Moderate-injection uniform traffic.
fn uniform_med() -> WorkloadParams {
    WorkloadParams {
        name: "uniform-med",
        ops_per_core: 400,
        mean_gap: 10.0,
        write_fraction: 0.35,
        shared_fraction: 0.5,
        shared_lines: 4096,
        private_lines: 1024,
        hot_fraction: 0.1,
        hot_lines: 64,
        migratory_fraction: 0.1,
        locality: 0.6,
        phase_ops: 0,
        phase_gap: 0,
    }
}

/// Large-mesh SCORPIO sweeps (8×8 → 16×16) with MC bandwidth scaled to the
/// core count.
fn scaling_mesh(name: &'static str, meshes: &[u16]) -> Scenario {
    Scenario {
        name,
        title: "Scaling-mesh — SCORPIO beyond the chip (proportional MCs)".into(),
        about: "Large-mesh synthetic-traffic sweeps, one MC per 16 tiles",
        grid: SweepGrid::over(vec![uniform_low(), uniform_med()])
            .meshes(meshes)
            .with_base(vec![Knob::ProportionalMcs]),
        render: scaling_mesh_render,
    }
}

fn scaling_mesh_render(s: &Scenario, results: &[RunResult]) -> String {
    let mut out = String::new();
    out.push_str(&format!("=== {} ===\n", s.title));
    out.push_str(&format!(
        "{:<14}{:>8}{:>7}{:>5}{:>12}{:>12}{:>12}{:>10}\n",
        "workload", "mesh", "cores", "MCs", "runtime", "L2 svc", "pkt lat", "bypass"
    ));
    for r in results {
        let k = r.spec.mesh_side;
        out.push_str(&format!(
            "{:<14}{:>6}x{:<2}{:>6}{:>5}{:>12}{:>12.1}{:>12.1}{:>9.1}%\n",
            r.spec.workload.name,
            k,
            k,
            k as usize * k as usize,
            r.spec.config().mesh.mc_routers().len(),
            r.report.runtime_cycles,
            r.report.l2_service_latency.mean(),
            r.report.packet_latency.mean(),
            100.0 * r.report.bypass_rate(),
        ));
    }
    out
}

// ------------------------------------------------ Throughput self-benchmark

/// Simulator self-benchmark: the identical low-injection sweep under both
/// engines, so the active-set speedup is *measured* on every run rather
/// than asserted. Wall-clock derived numbers are inherently
/// non-deterministic; they appear in the rendered table (and, with
/// `--timing`, the sinks) but never in default sink output.
fn throughput(name: &'static str, mesh: u16) -> Scenario {
    Scenario {
        name,
        title: format!(
            "Throughput — simulated cycles/sec, active-set vs always-scan ({mesh}x{mesh})"
        ),
        about: "Engine self-benchmark: low-injection sweep under both engines",
        grid: SweepGrid::over(vec![uniform_low()])
            .meshes(&[mesh])
            .engines(&[Engine::ActiveSet, Engine::AlwaysScan])
            .with_base(vec![Knob::ProportionalMcs]),
        render: throughput_render,
    }
}

fn throughput_render(s: &Scenario, results: &[RunResult]) -> String {
    let mut out = String::new();
    out.push_str(&format!("=== {} ===\n", s.title));
    out.push_str(&format!(
        "{:<14}{:>8}{:>12}{:>12}{:>14}{:>16}\n",
        "workload", "engine", "runtime", "wall (ms)", "sim cyc/sec", "speedup"
    ));
    // cycles/sec of each engine, then the active/scan ratio per workload.
    let rate = |r: &RunResult| -> f64 {
        let secs = r.wall_nanos as f64 / 1e9;
        if secs > 0.0 {
            r.report.runtime_cycles as f64 / secs
        } else {
            0.0
        }
    };
    for w in &s.grid.workloads {
        let mut rates = [0.0f64; 2];
        for r in results.iter().filter(|r| r.spec.workload.name == w.name) {
            let (slot, label) = match r.spec.engine {
                Engine::ActiveSet => (0, "active"),
                Engine::AlwaysScan => (1, "scan"),
            };
            rates[slot] = rate(r);
            out.push_str(&format!(
                "{:<14}{:>8}{:>12}{:>12.1}{:>14.0}{:>16}\n",
                w.name,
                label,
                r.report.runtime_cycles,
                r.wall_nanos as f64 / 1e6,
                rates[slot],
                "",
            ));
        }
        if rates[1] > 0.0 {
            out.push_str(&format!(
                "{:<14}{:>8}{:>12}{:>12}{:>14}{:>15.2}x\n",
                w.name,
                "",
                "",
                "",
                "",
                rates[0] / rates[1]
            ));
        }
    }
    out.push_str("\nBoth engines produce byte-identical reports (see the\n");
    out.push_str("engine-equivalence test suite); only wall-clock differs.\n");
    out
}

// ------------------------------------------- Kilocore scale-out benchmark

/// One cell of the kilocore sweep, parameterized on the grid's larger
/// mesh side: the big side runs single-plane (the 1024-core flat mesh and
/// its concentrated twin), the small side runs the 4-plane concentrated
/// composition. The proportional-MC variant pairs with the flat mesh only
/// (the placement is undefined elsewhere); concentrated cells keep their
/// corner MCs.
fn kilocore_cell(spec: &RunSpec, big: u16) -> bool {
    let prop = spec.variant.knobs.contains(&Knob::ProportionalMcs);
    let pairing_ok = match spec.fabric {
        Fabric::Mesh => prop,
        _ => !prop,
    };
    pairing_ok
        && if spec.mesh_side == big {
            spec.planes == 1
        } else {
            spec.fabric == Fabric::CMesh(4) && spec.planes == 4
        }
}

fn kilocore_filter(spec: &RunSpec) -> bool {
    kilocore_cell(spec, 32)
}

fn kilocore_small_filter(spec: &RunSpec) -> bool {
    kilocore_cell(spec, 16)
}

/// Kilocore scale-out self-benchmark: the low-injection barrier workload
/// on a 32×32 mesh (1024 cores, proportional MCs), its concentrated twin
/// `cmesh16x16x4`, and a 4-plane `cmesh8x8x4` composition — each with the
/// flat notification scheme and the hierarchical quad tree (`quad-f2`,
/// which shrinks the notification window from O(grid diameter) to
/// O(2·tree depth) and unlocks per-region leap accounting). The table
/// measures what the active-set engine's event-leaping clock and the quad
/// window buy at this scale.
fn scaling_kilocore(name: &'static str, meshes: &'static [u16], filter: GridFilter) -> Scenario {
    Scenario {
        name,
        title: format!(
            "Scaling-kilocore — engine scale-out at {} cores (event-leaping clock)",
            meshes.last().map_or(0, |&k| k as usize * k as usize)
        ),
        about: "Kilocore self-benchmark: event leaping, flat vs quad notify",
        grid: SweepGrid::over(vec![uniform_low()])
            .meshes(meshes)
            .fabrics(&[Fabric::Mesh, Fabric::CMesh(4)])
            .planes(&[1, 4])
            .variants(vec![
                Variant::new("prop-MCs", vec![Knob::ProportionalMcs]),
                Variant::new(
                    "prop-MCs+quad-f2",
                    vec![Knob::ProportionalMcs, Knob::QuadNotify(2)],
                ),
                Variant::baseline(),
                Variant::new("quad-f2", vec![Knob::QuadNotify(2)]),
            ])
            .filtered(filter),
        render: scaling_kilocore_render,
    }
}

/// The notification-scheme label of a spec's variant: "flat", or
/// `quad-fN` when the variant carries a [`Knob::QuadNotify`].
fn kilocore_notify_label(spec: &RunSpec) -> String {
    spec.variant
        .knobs
        .iter()
        .find_map(|k| match k {
            Knob::QuadNotify(f) => Some(format!("quad-f{f}")),
            _ => None,
        })
        .unwrap_or_else(|| "flat".into())
}

fn scaling_kilocore_render(s: &Scenario, results: &[RunResult]) -> String {
    let mut out = String::new();
    out.push_str(&format!("=== {} ===\n", s.title));
    out.push_str(&format!(
        "{:<16}{:>7}{:>9}{:>12}{:>12}{:>10}{:>10}{:>14}\n",
        "geometry", "planes", "notify", "runtime", "stepped", "leap", "r-leap", "sim cyc/sec"
    ));
    for r in results {
        let secs = r.sim_nanos as f64 / 1e9;
        let rate = if secs > 0.0 {
            r.report.runtime_cycles as f64 / secs
        } else {
            0.0
        };
        let leap = if r.stepped_cycles > 0 {
            format!(
                "{:>9.2}x",
                r.report.runtime_cycles as f64 / r.stepped_cycles as f64
            )
        } else {
            format!("{:>10}", "-")
        };
        // Per-region leap: simulated cycles over mean stepped cycles per
        // region — what event leaping buys once a quiescent quad no longer
        // has to lockstep with a bursting neighbour.
        let rleap = if r.regions > 1 && r.region_cycles_stepped > 0 {
            format!(
                "{:>9.2}x",
                r.report.runtime_cycles as f64 * r.regions as f64 / r.region_cycles_stepped as f64
            )
        } else {
            format!("{:>10}", "-")
        };
        out.push_str(&format!(
            "{:<16}{:>7}{:>9}{:>12}{:>12}{leap}{rleap}{rate:>14.0}\n",
            r.spec.fabric.geometry(r.spec.mesh_side),
            r.spec.planes,
            kilocore_notify_label(&r.spec),
            r.report.runtime_cycles,
            r.stepped_cycles,
        ));
    }
    out.push_str("\nleap is simulated/stepped cycles, r-leap is simulated cycles\n");
    out.push_str("over mean stepped cycles per leaf quad (quad notify only).\n");
    out
}

// ------------------------------------------------- Topology comparisons

/// All five ordering protocols over all three delivery fabrics at matched
/// endpoint counts (`k²` tiles + 4 MC ports each): the ordered-broadcast
/// machinery does not care how delivery happens, so every cell of this
/// grid must complete — and the runtime differences isolate pure delivery
/// effects (diameter, wrap links, router radix).
fn topology(name: &'static str, k: u16) -> Scenario {
    Scenario {
        name,
        title: format!(
            "Topology — mesh vs torus vs ring at {} cores, all ordering protocols",
            k as usize * k as usize
        ),
        about: "Delivery-fabric sweep: mesh/torus/ring under all five protocols",
        grid: SweepGrid::over(
            WorkloadParams::figure7_set()
                .into_iter()
                .filter(|p| ["blackscholes", "swaptions"].contains(&p.name))
                .collect(),
        )
        .meshes(&[k])
        .fabrics(&[Fabric::Mesh, Fabric::Torus, Fabric::Ring])
        .protocols(&[
            Protocol::Scorpio,
            Protocol::TokenB,
            Protocol::Inso { expiry_window: 40 },
            Protocol::LpdDir,
            Protocol::HtDir,
        ]),
        render: topology_render,
    }
}

fn topology_render(s: &Scenario, results: &[RunResult]) -> String {
    let mut out = String::new();
    out.push_str(&format!("=== {} ===\n", s.title));
    out.push_str(&format!(
        "{:<14}{:<10}{:<12}{:>6}{:>12}{:>12}{:>12}{:>10}\n",
        "workload", "fabric", "protocol", "diam", "runtime", "L2 svc", "pkt lat", "bypass"
    ));
    for r in results {
        let cfg = r.spec.config();
        out.push_str(&format!(
            "{:<14}{:<10}{:<12}{:>6}{:>12}{:>12.1}{:>12.1}{:>9.1}%\n",
            r.spec.workload.name,
            cfg.mesh.name(),
            r.report.protocol,
            cfg.mesh.diameter(),
            r.report.runtime_cycles,
            r.report.l2_service_latency.mean(),
            r.report.packet_latency.mean(),
            100.0 * r.report.bypass_rate(),
        ));
    }
    out.push_str("\nMatched endpoint counts per row block; ordering is decoupled\n");
    out.push_str("from delivery, so every fabric carries every protocol.\n");
    out
}

// ----------------------------------------- Observability self-benchmark

/// Simulator self-benchmark: the identical sweep with observability off,
/// at the counter level and at the full flit trace, so the cost of the
/// instrumentation is *measured* on every run. The off column is the
/// baseline the <2% overhead assertion (`obs_overhead` test) holds
/// against; reports differ only in the `obs` annex (equivalence suite).
fn obs_overhead(name: &'static str, mesh: u16) -> Scenario {
    Scenario {
        name,
        title: format!("Observability overhead — off vs counters vs trace ({mesh}x{mesh})"),
        about: "Observability self-benchmark: off vs counters vs flit trace",
        grid: SweepGrid::over(vec![uniform_med()])
            .meshes(&[mesh])
            .variants(vec![
                Variant::new("obs-off", vec![]),
                Variant::knob(Knob::Obs(scorpio::ObsLevel::Counters)),
                Variant::knob(Knob::Obs(scorpio::ObsLevel::Trace)),
                Variant::knob(Knob::Spans),
                Variant::knob(Knob::Windows(1024)),
            ]),
        render: obs_overhead_render,
    }
}

fn obs_overhead_render(s: &Scenario, results: &[RunResult]) -> String {
    let mut out = String::new();
    out.push_str(&format!("=== {} ===\n", s.title));
    out.push_str(&format!(
        "{:<14}{:>14}{:>12}{:>12}{:>14}{:>12}\n",
        "workload", "obs", "runtime", "wall (ms)", "sim cyc/sec", "overhead"
    ));
    let rate = |r: &RunResult| -> f64 {
        let secs = r.sim_nanos as f64 / 1e9;
        if secs > 0.0 {
            r.report.runtime_cycles as f64 / secs
        } else {
            0.0
        }
    };
    for w in &s.grid.workloads {
        let mut base = 0.0f64;
        for r in results.iter().filter(|r| r.spec.workload.name == w.name) {
            let cyc = rate(r);
            if r.spec.variant.label == "obs-off" {
                base = cyc;
            }
            let overhead = if base > 0.0 && cyc > 0.0 {
                format!("{:>+10.1}%", 100.0 * (base / cyc - 1.0))
            } else {
                format!("{:>11}", "")
            };
            out.push_str(&format!(
                "{:<14}{:>14}{:>12}{:>12.1}{:>14.0}{:>12}\n",
                w.name,
                r.spec.variant.label,
                r.report.runtime_cycles,
                r.wall_nanos as f64 / 1e6,
                cyc,
                overhead,
            ));
        }
    }
    out.push_str("\nSimulated behavior is identical at every level (obs\n");
    out.push_str("equivalence tests); only recording work differs.\n");
    out
}

// ------------------------------------------------------ Latency breakdown

/// The paper's latency-decomposition story, measured from transaction
/// spans: every ordering protocol on the chip mesh and on a concentrated
/// mesh with half the routers (smaller diameter). The span phases show
/// queueing, injection wait, traversal, ordering commit, data wait and
/// fill separately — for SCORPIO the ordering-commit share stays flat
/// while traversal tracks the fabric diameter, the decoupling thesis.
fn latency_breakdown(name: &'static str, mesh: u16) -> Scenario {
    Scenario {
        name,
        title: format!("Latency breakdown — span phases per protocol ({mesh}x{mesh} tiles)"),
        about: "Per-phase miss-latency decomposition from transaction spans",
        grid: SweepGrid::over(vec![WorkloadParams::by_name("blackscholes").unwrap()])
            .meshes(&[mesh])
            .fabrics(&[Fabric::Mesh, Fabric::CMesh(2)])
            .protocols(&[
                Protocol::Scorpio,
                Protocol::TokenB,
                Protocol::Inso { expiry_window: 40 },
                Protocol::LpdDir,
                Protocol::HtDir,
            ])
            .variants(vec![Variant::knob(Knob::Spans)]),
        render: latency_breakdown_render,
    }
}

fn latency_breakdown_render(s: &Scenario, results: &[RunResult]) -> String {
    let mut out = String::new();
    out.push_str(&format!("=== {} ===\n", s.title));
    out.push_str(&format!(
        "{:<12}{:>9}{:>8}{:>8}{:>8}{:>8}{:>8}{:>8}{:>9}{:>11}\n",
        "fabric",
        "protocol",
        "queue",
        "inject",
        "flight",
        "commit",
        "data",
        "fill",
        "total",
        "reconcile"
    ));
    let mean = |sum: u64, count: u64| {
        if count == 0 {
            0.0
        } else {
            sum as f64 / count as f64
        }
    };
    for r in results {
        let Some(sp) = r.report.obs.as_ref().and_then(|o| o.spans.as_ref()) else {
            continue;
        };
        // Exact reconciliation against the scalar report: inject + flight
        // + commit is the ordering delay, and the span totals plus the
        // hit latencies rebuild the full L2 service distribution.
        let ordering = &r.report.ordering_delay;
        let service = &r.report.l2_service_latency;
        let ordering_exact = sp.inject.sum() + sp.flight.sum() + sp.commit.sum() == ordering.sum()
            && sp.inject.count() == ordering.count();
        let service_exact = sp.total.sum() + sp.hit.sum() == service.sum()
            && sp.total.count() + sp.hit.count() == service.count();
        let fabric = match r.spec.fabric.label() {
            "" => "mesh".to_string(),
            label => label.to_string(),
        };
        out.push_str(&format!(
            "{:<12}{:>9}{:>8.1}{:>8.1}{:>8.1}{:>8.1}{:>8.1}{:>8.1}{:>9.1}{:>11}\n",
            fabric,
            protocol_label(r.spec.protocol),
            mean(sp.queue.sum(), sp.queue.count()),
            mean(sp.inject.sum(), sp.inject.count()),
            mean(sp.flight.sum(), sp.flight.count()),
            mean(sp.commit.sum(), sp.commit.count()),
            mean(sp.data.sum(), sp.data.count()),
            mean(sp.fill.sum(), sp.fill.count()),
            mean(sp.total.sum(), sp.total.count()),
            if ordering_exact && service_exact {
                "exact"
            } else {
                "MISMATCH"
            },
        ));
    }
    out.push_str("\nPer-phase means over every recorded miss span (cycles).\n");
    out.push_str("reconcile=exact: inject+flight+commit sums equal the ordering-\n");
    out.push_str("delay scalars and span totals + hits rebuild l2_service_latency.\n");
    out
}

// ----------------------------------------------- Multi-plane main networks

/// Saturating broadcast-heavy traffic: every access misses (the shared
/// footprint dwarfs the L2), so the ordered-request rate is bounded by the
/// network, not the cores. The regime where Section 5.3's 1/k² broadcast
/// bound binds — and the one the plane replication exists to lift.
fn bcast_heavy() -> WorkloadParams {
    WorkloadParams {
        name: "bcast-heavy",
        ops_per_core: 400,
        mean_gap: 0.5,
        write_fraction: 0.5,
        shared_fraction: 1.0,
        shared_lines: 16384,
        private_lines: 1,
        hot_fraction: 0.0,
        hot_lines: 1,
        migratory_fraction: 0.0,
        locality: 0.0,
        phase_ops: 0,
        phase_gap: 0,
    }
}

/// The GO-REQ VC count of a result's variant (chip default 4) — feeds the
/// physical model's VC scaling in the plane/topology energy columns.
fn result_goreq_vcs(r: &RunResult) -> u8 {
    goreq_vcs(&r.spec)
}

/// Relative network energy per completed request for one run: the
/// physical model's (fabric, planes, concentration, VC)-scaled network
/// power integrated over the runtime, per op. Only ratios between rows
/// are meaningful. The concentration comes from the topology itself
/// (`tiles_per_router`) — the same derivation the delivery fabric and
/// notification window use — so the energy column can never disagree
/// with the topology about router shape.
fn net_energy_per_op(r: &RunResult) -> f64 {
    let cfg = r.spec.config();
    scorpio_physical::energy_per_message_scale_c(
        result_goreq_vcs(r),
        cfg.mesh.name(),
        r.spec.planes,
        cfg.mesh.tiles_per_router() as usize,
        r.report.runtime_cycles,
        r.report.ops_completed,
    )
}

/// Multi-plane main networks (Section 5.3's "cheaper fix"): every fabric ×
/// 1/2/4 address-interleaved planes × all five ordering protocols at
/// matched endpoint counts. Ordering is per plane (hence per address), so
/// every cell must complete; the runtime and energy columns quantify what
/// replication buys and costs.
fn planes_scenario(name: &'static str, k: u16) -> Scenario {
    Scenario {
        name,
        title: format!(
            "Planes — 1/2/4 main networks at {} cores, all fabrics and protocols",
            k as usize * k as usize
        ),
        about: "Multi-plane sweep: address-interleaved parallel fabrics, per-plane ordering",
        grid: SweepGrid::over(
            WorkloadParams::figure7_set()
                .into_iter()
                .filter(|p| p.name == "blackscholes")
                .collect(),
        )
        .meshes(&[k])
        .fabrics(&[Fabric::Mesh, Fabric::Torus, Fabric::Ring])
        .planes(&[1, 2, 4])
        .protocols(&[
            Protocol::Scorpio,
            Protocol::TokenB,
            Protocol::Inso { expiry_window: 40 },
            Protocol::LpdDir,
            Protocol::HtDir,
        ]),
        render: planes_render,
    }
}

fn planes_render(s: &Scenario, results: &[RunResult]) -> String {
    let mut out = String::new();
    out.push_str(&format!("=== {} ===\n", s.title));
    out.push_str(&format!(
        "{:<14}{:<10}{:>7}{:<3}{:<12}{:>12}{:>12}{:>12}{:>12}\n",
        "workload",
        "fabric",
        "planes",
        "",
        "protocol",
        "runtime",
        "pkt lat",
        "net-power",
        "net-E/op"
    ));
    for r in results {
        let cfg = r.spec.config();
        out.push_str(&format!(
            "{:<14}{:<10}{:>7}{:<3}{:<12}{:>12}{:>12.1}{:>11.2}x{:>12.1}\n",
            r.spec.workload.name,
            cfg.mesh.name(),
            r.spec.planes,
            "",
            r.report.protocol,
            r.report.runtime_cycles,
            r.report.packet_latency.mean(),
            scorpio_physical::network_power_scale(
                result_goreq_vcs(r),
                cfg.mesh.name(),
                r.spec.planes
            ),
            net_energy_per_op(r),
        ));
    }
    out.push_str("\nPer-address order is preserved across planes (steering assigns\n");
    out.push_str("each line to exactly one plane); net-power and net-E/op come from\n");
    out.push_str("the physical model, so bandwidth gains are priced, not free.\n");
    out
}

// ----------------------------------- Plane-throughput self-benchmark

/// Delivered-request throughput on a saturated mesh as planes replicate:
/// the acceptance benchmark for the "multiple main networks" subsystem.
/// Every run retires the same ops, so requests/kcycle — and the speedup
/// column — reduce to runtime ratios of *simulated* cycles; unlike the
/// engine self-benchmarks, this one is fully deterministic.
fn planes_throughput(name: &'static str, mesh: u16) -> Scenario {
    Scenario {
        name,
        title: format!(
            "Planes-throughput — delivered requests/kcycle, 1/2/4 planes ({mesh}x{mesh} saturated)"
        ),
        about: "Plane self-benchmark: broadcast-saturated mesh, throughput and energy vs planes",
        grid: SweepGrid::over(vec![bcast_heavy()])
            .meshes(&[mesh])
            .planes(&[1, 2, 4])
            .with_base(vec![Knob::Outstanding(4)]),
        render: planes_throughput_render,
    }
}

fn planes_throughput_render(s: &Scenario, results: &[RunResult]) -> String {
    let mut out = String::new();
    out.push_str(&format!("=== {} ===\n", s.title));
    out.push_str(&format!(
        "{:<14}{:>7}{:>12}{:>12}{:>12}{:>12}{:>12}\n",
        "workload", "planes", "runtime", "req/kcyc", "speedup", "net-power", "net-E/op"
    ));
    for w in &s.grid.workloads {
        let base = find(results, |spec| {
            spec.workload.name == w.name && spec.planes == 1
        })
        .map_or(0, |r| r.report.runtime_cycles);
        for r in results.iter().filter(|r| r.spec.workload.name == w.name) {
            let rate = if r.report.runtime_cycles > 0 {
                1000.0 * r.report.ops_completed as f64 / r.report.runtime_cycles as f64
            } else {
                0.0
            };
            let speedup = if r.report.runtime_cycles > 0 && base > 0 {
                format!("{:>11.2}x", base as f64 / r.report.runtime_cycles as f64)
            } else {
                format!("{:>12}", "-")
            };
            out.push_str(&format!(
                "{:<14}{:>7}{:>12}{:>12.1}{speedup}{:>11.2}x{:>12.1}\n",
                r.spec.workload.name,
                r.spec.planes,
                r.report.runtime_cycles,
                rate,
                scorpio_physical::network_power_scale(result_goreq_vcs(r), "mesh", r.spec.planes),
                net_energy_per_op(r),
            ));
        }
    }
    out.push_str("\nEvery run retires the identical op count, so speedup is the\n");
    out.push_str("runtime ratio vs the single-plane network on the same traffic.\n");
    out
}

// ------------------------------------------- MC placement sweeps

/// The MC-placement key of a spec's variant, if any.
fn placement_of(spec: &RunSpec) -> Option<McPlacement> {
    spec.variant.knobs.iter().find_map(|k| match k {
        Knob::McPlacement { placement, .. } => Some(*placement),
        _ => None,
    })
}

/// Keeps only (fabric, placement) combinations that are defined: corner
/// placements on mesh/torus, ring spreading on rings, proportional on
/// meshes.
fn mc_placement_filter(spec: &RunSpec) -> bool {
    placement_of(spec).is_some_and(|p| p.supports(spec.fabric))
}

/// Topology-aware MC placement: MC count × placement scheme × fabric, at
/// matched core counts. Exposes each fabric's memory-bandwidth
/// sensitivity — corner MCs melt under traffic a spread placement
/// balances, and the effect differs per topology.
fn mc_placement(name: &'static str, k: u16) -> Scenario {
    Scenario {
        name,
        title: format!(
            "MC placement — count x placement x fabric at {} cores",
            k as usize * k as usize
        ),
        about: "MC count/placement sweep: corner vs spread vs proportional per fabric",
        grid: SweepGrid::over(vec![uniform_med()])
            .meshes(&[k])
            .fabrics(&[Fabric::Mesh, Fabric::Torus, Fabric::Ring])
            .variants(vec![
                Variant::knob(Knob::McPlacement {
                    placement: McPlacement::Corner,
                    mcs: 2,
                }),
                Variant::knob(Knob::McPlacement {
                    placement: McPlacement::Corner,
                    mcs: 4,
                }),
                Variant::knob(Knob::McPlacement {
                    placement: McPlacement::Spread,
                    mcs: 2,
                }),
                Variant::knob(Knob::McPlacement {
                    placement: McPlacement::Spread,
                    mcs: 4,
                }),
                Variant::knob(Knob::McPlacement {
                    placement: McPlacement::Proportional,
                    mcs: 0,
                }),
            ])
            .filtered(mc_placement_filter),
        render: mc_placement_render,
    }
}

fn mc_placement_render(s: &Scenario, results: &[RunResult]) -> String {
    let mut out = String::new();
    out.push_str(&format!("=== {} ===\n", s.title));
    out.push_str(&format!(
        "{:<14}{:<10}{:<12}{:>5}{:>12}{:>14}{:>12}\n",
        "workload", "fabric", "placement", "MCs", "runtime", "mem-served", "pkt lat"
    ));
    for r in results {
        let cfg = r.spec.config();
        out.push_str(&format!(
            "{:<14}{:<10}{:<12}{:>5}{:>12}{:>14.1}{:>12.1}\n",
            r.spec.workload.name,
            cfg.mesh.name(),
            r.spec.mc_placement().unwrap_or_default(),
            cfg.mesh.mc_routers().len(),
            r.report.runtime_cycles,
            r.report.memory_served.mean(),
            r.report.packet_latency.mean(),
        ));
    }
    out.push_str("\nEach fabric runs only the placements defined for it (corner on\n");
    out.push_str("mesh/torus, spreading on rings, proportional on meshes).\n");
    out
}

// --------------------------------------------- Concentrated-mesh sweeps

/// Concentrated mesh (CMesh): `k²` cores at concentration 1, 2 and 4 —
/// the same tile count on ever-smaller router grids — under every
/// ordering protocol, plus a 2-plane SCORPIO column to show the fabric
/// axis composes with plane replication. Concentration halves the
/// diameter (and with it the notification window) at each step; the
/// table's hop/window columns make the trade visible and the pkt-lat
/// column shows it landing: on the uncongested workload, c=2/4 deliver
/// ordered broadcasts in strictly fewer cycles than c=1.
fn cmesh(name: &'static str, k: u16) -> Scenario {
    Scenario {
        name,
        title: format!(
            "CMesh — concentration 1/2/4 at {} cores, all ordering protocols",
            k as usize * k as usize
        ),
        about: "Concentrated-mesh sweep: 1/2/4 tiles per router at matched core counts",
        grid: SweepGrid::over(
            WorkloadParams::figure7_set()
                .into_iter()
                .filter(|p| p.name == "blackscholes")
                .collect(),
        )
        .meshes(&[k])
        .fabrics(&[Fabric::CMesh(1), Fabric::CMesh(2), Fabric::CMesh(4)])
        .planes(&[1, 2])
        .protocols(&[
            Protocol::Scorpio,
            Protocol::TokenB,
            Protocol::Inso { expiry_window: 40 },
            Protocol::LpdDir,
            Protocol::HtDir,
        ])
        // Ragged: every protocol on the single-plane network, SCORPIO
        // alone on the 2-plane composition column.
        .filtered(|s| s.planes == 1 || s.protocol == Protocol::Scorpio),
        render: cmesh_render,
    }
}

fn cmesh_render(s: &Scenario, results: &[RunResult]) -> String {
    let mut out = String::new();
    out.push_str(&format!("=== {} ===\n", s.title));
    out.push_str(&format!(
        "{:<14}{:<14}{:>5}{:>7}{:>6}{:>8} {:<13}{:>12}{:>12}{:>12}{:>12}\n",
        "workload",
        "geometry",
        "conc",
        "planes",
        "diam",
        "window",
        "protocol",
        "runtime",
        "pkt lat",
        "net-power",
        "net-E/op"
    ));
    for r in results {
        let cfg = r.spec.config();
        let conc = cfg.mesh.tiles_per_router();
        out.push_str(&format!(
            "{:<14}{:<14}{:>5}{:>7}{:>6}{:>8} {:<13}{:>12}{:>12.1}{:>11.2}x{:>12.1}\n",
            r.spec.workload.name,
            cfg.mesh.label(),
            conc,
            r.spec.planes,
            cfg.mesh.diameter(),
            cfg.mesh.notification_window(),
            r.report.protocol,
            r.report.runtime_cycles,
            r.report.packet_latency.mean(),
            scorpio_physical::network_power_scale_c(
                result_goreq_vcs(r),
                cfg.mesh.name(),
                r.spec.planes,
                conc as usize,
            ),
            net_energy_per_op(r),
        ));
    }
    // Per-protocol latency deltas vs the unconcentrated column — the
    // hop-count win in one line each.
    out.push('\n');
    for &p in &s.grid.protocols {
        let lat = |conc: u8| -> Option<f64> {
            find(results, |spec| {
                spec.protocol == p && spec.fabric == Fabric::CMesh(conc) && spec.planes == 1
            })
            .map(|r| r.report.packet_latency.mean())
        };
        if let (Some(c1), Some(c2), Some(c4)) = (lat(1), lat(2), lat(4)) {
            out.push_str(&format!(
                "{:<12} pkt lat c1 {c1:>7.1}  c2 {c2:>7.1} ({:>+6.1}%)  c4 {c4:>7.1} ({:>+6.1}%)\n",
                protocol_label(p),
                100.0 * (c2 - c1) / c1,
                100.0 * (c4 - c1) / c1,
            ));
        }
    }
    out.push_str("\nSame cores, 1/c the routers: concentration shrinks the diameter\n");
    out.push_str("and the notification window together; the higher-radix router's\n");
    out.push_str("area/power cost is priced by the physical model's net columns.\n");
    out
}

// ------------------------------------------------ Open-loop latency curves

/// The `latency-curve` offered-load steps, in requests per 1000 cycles
/// per core. With one outstanding access per core the service rate knees
/// in the low tens, so the ladder brackets it from far below.
const CURVE_LOADS_SMALL: [u32; 5] = [2, 6, 12, 20, 30];
const CURVE_LOADS_FULL: [u32; 6] = [2, 6, 12, 20, 30, 45];

/// The knee multiple: the first load step whose p99 sojourn exceeds
/// `KNEE_FACTOR ×` the lowest-load baseline p99 is reported as the knee.
const KNEE_FACTOR: u64 = 3;

/// The bursty contrast point's Markov-modulated dwell means: 50-cycle ON
/// bursts separated by 150-cycle quiets (25% duty), at the same long-run
/// offered load as the mid-ladder Poisson step.
const CURVE_BURST: ArrivalProcess = ArrivalProcess::Bursty { on: 50, off: 150 };

/// Shared-heavy uniform traffic for the open-loop sweeps: half the
/// accesses touch a large shared pool, so most offered load turns into
/// coherence transactions on the fabric rather than L1 hits. The trace's
/// own think-time gaps are ignored by the Poisson/bursty release (they
/// only time the Replay process).
fn open_uniform() -> WorkloadParams {
    WorkloadParams {
        name: "open-uniform",
        ops_per_core: 400,
        mean_gap: 10.0,
        write_fraction: 0.35,
        shared_fraction: 0.5,
        shared_lines: 4096,
        private_lines: 1024,
        hot_fraction: 0.1,
        hot_lines: 64,
        migratory_fraction: 0.1,
        locality: 0.6,
        phase_ops: 0,
        phase_gap: 0,
    }
}

/// Open-loop latency-vs-offered-load curves (the conventional NoC
/// characterisation): sweep the injection ladder past the saturation
/// knee per fabric × planes × protocol, with a bursty contrast point at
/// the mid ladder. Spans give the p99 sojourn (source wait included) the
/// knee detector runs on; windows give the per-endpoint injection-wait
/// extremes the CMesh fairness columns surface per concentration slot.
fn latency_curve(name: &'static str, full: bool) -> Scenario {
    let loads: &[u32] = if full {
        &CURVE_LOADS_FULL
    } else {
        &CURVE_LOADS_SMALL
    };
    let mut variants: Vec<Variant> = loads
        .iter()
        .map(|&millis| {
            Variant::knob(Knob::OpenLoad {
                process: ArrivalProcess::Poisson,
                millis,
            })
        })
        .collect();
    variants.push(Variant::knob(Knob::OpenLoad {
        process: CURVE_BURST,
        millis: 20,
    }));
    let fabrics: &[Fabric] = if full {
        &[Fabric::Mesh, Fabric::CMesh(2), Fabric::CMesh(4)]
    } else {
        &[Fabric::Mesh, Fabric::CMesh(2)]
    };
    let planes: &[usize] = if full { &[1, 2] } else { &[1] };
    Scenario {
        name,
        title: "Latency curve — open-loop offered load to the saturation knee".into(),
        about: "Open-loop injection sweeps: latency vs offered load, knee + fairness",
        grid: SweepGrid::over(vec![open_uniform()])
            .meshes(&[8])
            .fabrics(fabrics)
            .planes(planes)
            .protocols(&[Protocol::Scorpio, Protocol::LpdDir])
            .variants(variants)
            .with_base(vec![Knob::Spans, Knob::Windows(512)]),
        render: latency_curve_render,
    }
}

/// The arrival-process family tag grouping a curve's load steps: knee
/// detection compares p99s *within* one (fabric, planes, protocol,
/// process) curve, never across processes.
fn curve_group(spec: &RunSpec) -> Option<(String, usize, String, &'static str)> {
    let (process, _) = spec.open_load()?;
    let kind = match process {
        ArrivalProcess::Poisson => "pois",
        ArrivalProcess::Bursty { .. } => "burst",
        ArrivalProcess::Replay => "replay",
    };
    Some((
        spec.fabric.label().to_string(),
        spec.planes,
        spec.protocol.name(),
        kind,
    ))
}

/// p99 of the full request sojourn (arrival → retire, source wait
/// included) from a run's span annex.
fn curve_p99(r: &RunResult) -> Option<u64> {
    r.report
        .obs
        .as_ref()
        .and_then(|o| o.spans.as_ref())
        .and_then(|sp| sp.total.percentile(0.99))
}

fn latency_curve_render(s: &Scenario, results: &[RunResult]) -> String {
    use std::collections::BTreeMap;
    let mut out = String::new();
    out.push_str(&format!("=== {} ===\n", s.title));
    out.push_str(&format!(
        "{:<10}{:>3}{:>9}{:>10}{:>8}{:>9}{:>8}{:>10}{:>10}{:>11}{:>11}{}\n",
        "fabric",
        "pl",
        "protocol",
        "arrival",
        "p50",
        "p99",
        "drops",
        "slot-max",
        "slot-min",
        "wmax",
        "wmin",
        "  knee"
    ));
    // First pass: the knee per curve — the first load step whose p99
    // exceeds KNEE_FACTOR x the lowest step's p99.
    let mut curves: BTreeMap<_, Vec<(u32, u64)>> = BTreeMap::new();
    for r in results {
        if let (Some(g), Some((_, load)), Some(p99)) =
            (curve_group(&r.spec), r.spec.open_load(), curve_p99(r))
        {
            curves.entry(g).or_default().push((load, p99));
        }
    }
    let mut knees: BTreeMap<_, u32> = BTreeMap::new();
    for (g, mut steps) in curves {
        steps.sort();
        let Some(&(_, base)) = steps.first() else {
            continue;
        };
        if let Some(&(load, _)) = steps.iter().find(|&&(_, p99)| p99 > KNEE_FACTOR * base) {
            knees.insert(g, load);
        }
    }
    // Second pass: one row per run, fairness cells for concentrated rows.
    for r in results {
        let Some((process, load)) = r.spec.open_load() else {
            continue;
        };
        let obs = r.report.obs.as_deref();
        let sp = obs.and_then(|o| o.spans.as_ref());
        let p = |f: f64| {
            sp.and_then(|sp| sp.total.percentile(f))
                .map_or_else(|| "-".into(), |v| v.to_string())
        };
        // Per-slot injection-wait means: on a concentrated mesh all c
        // tiles of a router share its local injection bandwidth, so the
        // spread between the best- and worst-served slot is the
        // arbitration-fairness signal (it diverges past the knee).
        let (slot_max, slot_min) = match r.spec.fabric {
            Fabric::CMesh(c) if c > 1 => {
                let means: Vec<f64> = obs
                    .map(|o| {
                        o.inject_wait_slots
                            .iter()
                            .take(c as usize)
                            .map(|h| {
                                if h.count() == 0 {
                                    0.0
                                } else {
                                    h.sum() as f64 / h.count() as f64
                                }
                            })
                            .collect()
                    })
                    .unwrap_or_default();
                let max = means.iter().cloned().fold(f64::MIN, f64::max);
                let min = means.iter().cloned().fold(f64::MAX, f64::min);
                if means.is_empty() {
                    ("-".into(), "-".into())
                } else {
                    (format!("{max:.1}"), format!("{min:.1}"))
                }
            }
            _ => ("-".into(), "-".into()),
        };
        // Windowed per-endpoint extremes, mapped to concentration slots
        // (endpoint index modulo c; MC ports render as "mc").
        let w = obs.and_then(|o| o.windows.as_ref());
        let cores = r.spec.config().cores() as u32;
        let slot_of = |ep: u32| -> String {
            match r.spec.fabric {
                _ if ep >= cores => "mc".into(),
                Fabric::CMesh(c) if c > 1 => format!("s{}", ep % c as u32),
                _ => format!("e{ep}"),
            }
        };
        let wcell = |e: &Option<scorpio::EpWait>| {
            e.as_ref().map_or_else(
                || "-".into(),
                |m| format!("{}:{:.1}", slot_of(m.ep), m.sum as f64 / m.count as f64),
            )
        };
        let knee = curve_group(&r.spec)
            .and_then(|g| knees.get(&g).copied())
            .is_some_and(|k| k == load);
        out.push_str(&format!(
            "{:<10}{:>3}{:>9}{:>10}{:>8}{:>9}{:>8}{:>10}{:>10}{:>11}{:>11}{}\n",
            match r.spec.fabric.label() {
                "" => "mesh",
                l => l,
            },
            r.spec.planes,
            protocol_label(r.spec.protocol),
            process.label(load),
            p(0.50),
            p(0.99),
            r.report.source_dropped,
            slot_max,
            slot_min,
            wcell(&w.and_then(|w| w.max_wait.as_ref()).copied()),
            wcell(&w.and_then(|w| w.min_wait.as_ref()).copied()),
            if knee { "  <-- knee" } else { "" },
        ));
    }
    out.push_str("\np50/p99: full request sojourn (arrival -> retire, source wait\n");
    out.push_str("included) from the span annex. knee: first load step whose p99\n");
    out.push_str(&format!(
        "exceeds {KNEE_FACTOR}x the lowest step's. slot-max/slot-min: per-slot mean\n"
    ));
    out.push_str("injection wait on concentrated meshes (c tiles share one router\n");
    out.push_str("port). wmax/wmin: worst/best windowed per-endpoint mean wait.\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn registry_names_are_unique_and_resolvable() {
        let all = scenarios();
        let names: HashSet<&str> = all.iter().map(|s| s.name).collect();
        assert_eq!(names.len(), all.len());
        for s in &all {
            assert!(by_name(s.name).is_some(), "{} must resolve", s.name);
        }
        assert!(by_name("fig99").is_none());
    }

    #[test]
    fn registry_covers_all_nine_bench_binaries() {
        for required in [
            "fig6", "fig7", "fig8a", "fig8b", "fig8c", "fig8d", "fig9", "fig10", "table1",
            "table2", "ablation", "scaling",
        ] {
            assert!(by_name(required).is_some(), "missing scenario {required}");
        }
    }

    #[test]
    fn new_scenarios_are_registered() {
        // The engine self-benchmark sweeps both engines over one workload.
        let t = by_name("throughput").unwrap();
        assert_eq!(t.grid.len(), 2);
        let specs = t.grid.enumerate();
        assert_eq!(specs[0].engine, Engine::ActiveSet);
        assert_eq!(specs[1].engine, Engine::AlwaysScan);
        assert_eq!(specs[0].mesh_side, 16);
        // Engines share the exact same configuration (same hash).
        assert_eq!(
            specs[0].config().stable_hash(),
            specs[1].config().stable_hash()
        );
        assert!(specs[1].key().ends_with("/scan"));
        // Scaling-mesh: 2 workloads x 3 meshes, proportional MCs applied.
        let sm = by_name("scaling-mesh").unwrap();
        assert_eq!(sm.grid.len(), 2 * 3);
        let spec16 = sm
            .grid
            .enumerate()
            .into_iter()
            .find(|s| s.mesh_side == 16)
            .unwrap();
        assert_eq!(spec16.config().mesh.mc_routers().len(), 16);
        // fig7-small covers every ordering protocol for the golden test.
        assert_eq!(by_name("fig7-small").unwrap().grid.len(), 2 * 5);
        // Topology: 2 workloads x 3 fabrics x 5 protocols.
        let topo = by_name("topology-small").unwrap();
        assert_eq!(topo.grid.len(), 2 * 3 * 5);
        let fabrics: HashSet<&str> = topo
            .grid
            .enumerate()
            .iter()
            .map(|s| s.config().mesh.name())
            .collect::<Vec<_>>()
            .into_iter()
            .collect();
        assert_eq!(fabrics.len(), 3);
        // Every fabric at matched endpoint counts.
        for spec in topo.grid.enumerate() {
            assert_eq!(spec.config().mesh.endpoint_count(), 4 * 4 + 4);
        }
    }

    #[test]
    fn plane_and_placement_scenarios_are_registered() {
        // Planes: 1 workload x 3 fabrics x 3 plane counts x 5 protocols.
        let p = by_name("planes-small").unwrap();
        assert_eq!(p.grid.len(), 3 * 3 * 5);
        let specs = p.grid.enumerate();
        let plane_counts: HashSet<usize> = specs.iter().map(|s| s.planes).collect();
        assert_eq!(plane_counts, HashSet::from([1, 2, 4]));
        // Single-plane cells hash exactly like the axis-free config; every
        // (fabric, planes) pair fingerprints uniquely.
        let hashes: HashSet<u64> = specs.iter().map(|s| s.config().stable_hash()).collect();
        assert_eq!(hashes.len(), 3 * 3 * 5);
        // Plane-throughput: saturated workload, 1/2/4 planes, higher
        // outstanding budget folded in as a base knob.
        let t = by_name("planes-throughput").unwrap();
        assert_eq!(t.grid.len(), 3);
        for spec in t.grid.enumerate() {
            assert_eq!(spec.mesh_side, 8);
            assert_eq!(spec.config().core_outstanding, 4);
        }
        // MC placement: the ragged (fabric x placement) product — mesh
        // gets corner-2/corner-4/prop, torus corner-2/corner-4, ring
        // spread-2/spread-4.
        let m = by_name("mc-placement-small").unwrap();
        let specs = m.grid.enumerate();
        assert_eq!(specs.len(), 3 + 2 + 2);
        for spec in &specs {
            let placement = spec.mc_placement().expect("every cell has a placement");
            assert!(
                placement_of(spec).unwrap().supports(spec.fabric),
                "unsupported cell {placement} on {:?}",
                spec.fabric
            );
        }
        // Placement keys flow into the config (MC counts really change).
        let corner2 = specs
            .iter()
            .find(|s| s.fabric == Fabric::Mesh && s.mc_placement().as_deref() == Some("corner-2"))
            .unwrap();
        assert_eq!(corner2.config().mesh.mc_routers().len(), 2);
    }

    #[test]
    fn cmesh_scenarios_are_registered() {
        // Ragged grid: 3 concentrations x (5 single-plane protocols + the
        // SCORPIO 2-plane composition column).
        let s = by_name("cmesh-small").unwrap();
        assert_eq!(s.grid.len(), 3 * (5 + 1));
        let specs = s.grid.enumerate();
        // Matched core counts on shrinking router grids, distinct hashes.
        let mut geoms = HashSet::new();
        let mut hashes = HashSet::new();
        for spec in &specs {
            let cfg = spec.config();
            assert_eq!(cfg.cores(), 16, "{}", spec.key());
            geoms.insert(cfg.mesh.label());
            hashes.insert(cfg.stable_hash());
        }
        assert_eq!(
            geoms,
            HashSet::from([
                "cmesh4x4x1".to_string(),
                "cmesh4x2x2".to_string(),
                "cmesh2x2x4".to_string()
            ])
        );
        // Every cell carries a distinct configuration fingerprint
        // (geometry x protocol x plane count all enter the hash).
        assert_eq!(hashes.len(), specs.len());
        // Keys carry the cmesh geometry and the plane suffix.
        assert!(specs
            .iter()
            .any(|s| s.key() == "blackscholes/cmesh4x2x2/SCORPIO/baseline/seed1"));
        assert!(specs
            .iter()
            .any(|s| s.key() == "blackscholes/cmesh2x2x4+2pl/SCORPIO/baseline/seed1"));
        // The diameter really shrinks with concentration.
        let diam = |c: u8| {
            specs
                .iter()
                .find(|s| s.fabric == Fabric::CMesh(c))
                .unwrap()
                .config()
                .mesh
                .diameter()
        };
        assert_eq!((diam(1), diam(2), diam(4)), (6, 4, 2));
        // The full variant runs 64 cores.
        let full = by_name("cmesh").unwrap();
        assert!(full
            .grid
            .enumerate()
            .iter()
            .all(|s| s.config().cores() == 64));
    }

    #[test]
    fn every_registered_grid_validates() {
        for s in scenarios() {
            assert!(s.grid.validate().is_ok(), "{} failed validation", s.name);
        }
    }

    #[test]
    fn grid_sizes_match_the_original_binaries() {
        assert_eq!(by_name("fig6").unwrap().grid.len(), 12 * 3);
        assert_eq!(by_name("fig7").unwrap().grid.len(), 4 * 5);
        assert_eq!(by_name("fig8a").unwrap().grid.len(), 8 * 3);
        assert_eq!(by_name("fig8c").unwrap().grid.len(), 8 * 4);
        assert_eq!(by_name("fig10").unwrap().grid.len(), 6 * 3 * 2);
        assert_eq!(by_name("ablation").unwrap().grid.len(), 6);
        // Section 5.3's ragged sweep: 6x6 -> 1, 8x8 -> 2, 10x10 -> 3.
        assert_eq!(by_name("scaling").unwrap().grid.len(), 1 + 2 + 3);
        // Static table scenarios run zero simulations.
        assert!(by_name("fig9").unwrap().grid.is_empty());
        assert!(by_name("table1").unwrap().grid.is_empty());
        assert!(by_name("table2").unwrap().grid.is_empty());
    }

    #[test]
    fn static_renders_produce_tables_without_results() {
        for name in ["fig9", "table1", "table2"] {
            let s = by_name(name).unwrap();
            let out = (s.render)(&s, &[]);
            assert!(out.contains("==="), "{name} render looks empty: {out}");
        }
    }

    #[test]
    fn protocol_labels() {
        assert_eq!(protocol_label(Protocol::Scorpio), "SCORPIO");
        assert_eq!(
            protocol_label(Protocol::Inso { expiry_window: 40 }),
            "INSO-40"
        );
    }

    #[test]
    fn latency_curve_scenarios_are_registered() {
        // Small: 2 fabrics x 1 plane x 2 protocols x (5 loads + 1 burst).
        let s = by_name("latency-curve-small").unwrap();
        assert_eq!(s.grid.len(), 2 * 2 * 6);
        let specs = s.grid.enumerate();
        // Every cell is open-loop, and the variant label carries the
        // arrival process and the offered-load knob.
        for spec in &specs {
            let (_, load) = spec.open_load().expect("open-loop cell");
            assert!(spec.config().open_loop.is_some(), "{}", spec.key());
            assert!(load > 0);
        }
        assert!(specs
            .iter()
            .any(|s| s.key() == "open-uniform/8x8/SCORPIO/pois-2/seed1"));
        assert!(specs
            .iter()
            .any(|s| s.key() == "open-uniform/cmesh8x4x2/LPD-D/burst-20/seed1"));
        // Full: 3 fabrics x 2 planes x 2 protocols x (6 loads + 1 burst),
        // and the load ladder extends past the small sweep's top step.
        let f = by_name("latency-curve").unwrap();
        assert_eq!(f.grid.len(), 3 * 2 * 2 * 7);
        assert!(f
            .grid
            .enumerate()
            .iter()
            .any(|s| s.key().contains("/pois-45/")));
    }
}
