//! The active-set engine's hard requirement: it is an *optimization*,
//! never a semantics change. Every run must produce a byte-identical
//! [`scorpio::SystemReport`] to the forced always-scan engine — across
//! every ordering protocol, since each protocol exercises different
//! wake/sleep paths (notification windows, reorder buffers, expiry
//! broadcasts, directory homes).

use scorpio::ObsLevel;
use scorpio_harness::exec::{run_spec, run_spec_with, Overrides, RunResult};
use scorpio_harness::registry;
use scorpio_harness::{Engine, Knob, RunSpec};

/// Overrides that record the flit trace, capped at `limit` events.
fn traced(limit: usize) -> Overrides {
    Overrides {
        obs: Some(ObsLevel::Trace),
        trace_limit: Some(limit),
        ..Overrides::default()
    }
}

/// Runs `spec` on the base `engine` with the event-leaping clock on or
/// off, recording the flit trace.
fn run_leap(spec: &RunSpec, engine: Engine, leap: bool) -> RunResult {
    let mut spec = spec.clone();
    spec.engine = engine;
    run_spec_with(&spec, 13, &traced(1024), |sys| sys.set_leap(leap))
}

/// Golden equivalence on the fig7-small grid: SCORPIO, TokenB, INSO-40,
/// LPD-D and HT-D, each compared engine-vs-engine via `to_json`.
#[test]
fn fig7_small_reports_are_byte_identical_across_engines() {
    let scenario = registry::by_name("fig7-small").expect("fig7-small is registered");
    let specs = scenario.grid.enumerate();
    assert_eq!(specs.len(), 10, "2 workloads x 5 protocols");
    for spec in specs {
        assert_eq!(spec.engine, Engine::ActiveSet);
        let mut scan_spec = spec.clone();
        scan_spec.engine = Engine::AlwaysScan;
        let active = run_spec(&spec, 12, &Overrides::default());
        let scan = run_spec(&scan_spec, 12, &Overrides::default());
        assert_eq!(
            active.report.to_json(),
            scan.report.to_json(),
            "engine divergence at {}",
            spec.key()
        );
        assert_eq!(active.config_hash, scan.config_hash);
    }
}

/// The new axis: every delivery fabric (mesh, torus, ring) under every
/// ordering protocol must produce byte-identical reports across all three
/// engines — active-set vs always-scan (scheduling is semantics-neutral)
/// and table routing vs per-flit coordinate routing (the tables are the
/// spec, memoized).
#[test]
fn topology_small_reports_are_byte_identical_across_engines() {
    let scenario = registry::by_name("topology-small").expect("topology-small is registered");
    let specs: Vec<_> = scenario
        .grid
        .enumerate()
        .into_iter()
        .filter(|s| s.workload.name == "blackscholes")
        .collect();
    assert_eq!(specs.len(), 3 * 5, "3 fabrics x 5 protocols");
    for spec in specs {
        assert_eq!(spec.engine, Engine::ActiveSet);
        let active = run_spec(&spec, 8, &Overrides::default());
        for engine in [Engine::AlwaysScan, Engine::CoordRoute] {
            let mut other_spec = spec.clone();
            other_spec.engine = engine;
            let other = run_spec(&other_spec, 8, &Overrides::default());
            assert_eq!(
                active.report.to_json(),
                other.report.to_json(),
                "engine divergence at {} vs {engine:?}",
                spec.key()
            );
            assert_eq!(active.config_hash, other.config_hash);
        }
    }
}

/// The plane axis: multi-plane main networks (2 and 4 planes, every
/// fabric) must produce byte-identical reports across all three engines.
/// This covers the idle-plane skip (the always-scan engine never skips a
/// plane, the active-set engine skips every quiescent one) and table vs
/// coordinate routing inside each plane.
#[test]
fn multi_plane_reports_are_byte_identical_across_engines() {
    let scenario = registry::by_name("planes-small").expect("planes-small is registered");
    let specs: Vec<_> = scenario
        .grid
        .enumerate()
        .into_iter()
        .filter(|s| s.planes != 1 && s.protocol == scorpio::Protocol::Scorpio)
        .collect();
    assert_eq!(specs.len(), 3 * 2, "3 fabrics x 2 multi-plane counts");
    for spec in specs {
        assert_eq!(spec.engine, Engine::ActiveSet);
        let active = run_spec(&spec, 8, &Overrides::default());
        assert!(active.report.ops_completed > 0);
        for engine in [Engine::AlwaysScan, Engine::CoordRoute] {
            let mut other_spec = spec.clone();
            other_spec.engine = engine;
            let other = run_spec(&other_spec, 8, &Overrides::default());
            assert_eq!(
                active.report.to_json(),
                other.report.to_json(),
                "engine divergence at {} vs {engine:?}",
                spec.key()
            );
            assert_eq!(active.config_hash, other.config_hash);
        }
    }
}

/// The concentrated-mesh axis: every concentration (1/2/4 tiles per
/// router), single- and multi-plane, must produce byte-identical reports
/// across all three engines. This exercises the endpoint-indexed broadcast
/// tables (source-slot-dependent fork masks), the per-slot ESID views and
/// the higher-radix router arbitration under both scheduling engines and
/// both routing engines — and SCORPIO's 2-plane cells cover the
/// cmesh × planes composition.
#[test]
fn cmesh_reports_are_byte_identical_across_engines() {
    let scenario = registry::by_name("cmesh-small").expect("cmesh-small is registered");
    let specs: Vec<_> = scenario
        .grid
        .enumerate()
        .into_iter()
        .filter(|s| {
            s.protocol == scorpio::Protocol::Scorpio
                || (s.fabric == scorpio_harness::Fabric::CMesh(4) && s.planes == 1)
        })
        .collect();
    // 3 concentrations x {1, 2} planes of SCORPIO + the four baseline
    // protocols at concentration 4.
    assert_eq!(specs.len(), 3 * 2 + 4);
    for spec in specs {
        assert_eq!(spec.engine, Engine::ActiveSet);
        let active = run_spec(&spec, 8, &Overrides::default());
        assert!(active.report.ops_completed > 0);
        for engine in [Engine::AlwaysScan, Engine::CoordRoute] {
            let mut other_spec = spec.clone();
            other_spec.engine = engine;
            let other = run_spec(&other_spec, 8, &Overrides::default());
            assert_eq!(
                active.report.to_json(),
                other.report.to_json(),
                "engine divergence at {} vs {engine:?}",
                spec.key()
            );
            assert_eq!(active.config_hash, other.config_hash);
        }
    }
}

/// The observability layer inherits the equivalence guarantee: with full
/// tracing on (counters, histograms and the flit-event stream), the
/// report — now carrying the `"obs"` annex with its percentiles, stall
/// splits and per-plane counters — and the merged trace itself must be
/// byte-identical across all three engines. Every hook sits after the
/// shared idle-skip check, so an engine that never visits a quiescent
/// router and one that visits-and-skips it must record the same thing.
/// Grid points cover single-plane mesh (fig7-small, all 5 protocols on
/// one workload), multi-plane fabrics and a concentrated mesh.
#[test]
fn observability_reports_and_traces_are_byte_identical_across_engines() {
    let fig7 = registry::by_name("fig7-small").expect("registered");
    let planes = registry::by_name("planes-small").expect("registered");
    let cmesh = registry::by_name("cmesh-small").expect("registered");
    let mut specs: Vec<_> = fig7
        .grid
        .enumerate()
        .into_iter()
        .filter(|s| s.workload.name == "blackscholes")
        .collect();
    assert_eq!(specs.len(), 5, "all 5 ordering protocols");
    specs.extend(
        planes
            .grid
            .enumerate()
            .into_iter()
            .filter(|s| s.planes == 4 && s.protocol == scorpio::Protocol::Scorpio),
    );
    specs.extend(cmesh.grid.enumerate().into_iter().filter(|s| {
        s.fabric == scorpio_harness::Fabric::CMesh(2) && s.protocol == scorpio::Protocol::Scorpio
    }));
    assert!(specs.len() > 5 + 3, "plane and cmesh cells present");
    for spec in specs {
        assert_eq!(spec.engine, Engine::ActiveSet);
        let run = |s: &RunSpec| run_spec(s, 8, &traced(2048));
        let active = run(&spec);
        let json = active.report.to_json();
        assert!(
            json.contains(r#""obs":{"schema_version":3,"packet_latency""#),
            "obs annex missing at {}",
            spec.key()
        );
        for engine in [Engine::AlwaysScan, Engine::CoordRoute] {
            let mut other_spec = spec.clone();
            other_spec.engine = engine;
            let other = run(&other_spec);
            assert_eq!(
                json,
                other.report.to_json(),
                "obs report divergence at {} vs {engine:?}",
                spec.key()
            );
            assert_eq!(
                active.trace,
                other.trace,
                "trace divergence at {} vs {engine:?}",
                spec.key()
            );
            assert_eq!(active.trace_dropped, other.trace_dropped);
            assert_eq!(active.config_hash, other.config_hash);
        }
    }
}

/// The acceptance benchmark behind the `planes-throughput` scenario: on
/// the broadcast-saturated 8×8 mesh, four address-interleaved planes must
/// deliver at least 1.5× the request throughput of the single network.
/// Runtime ratios of simulated cycles are deterministic, but the runs are
/// big — CI executes this under `--release --ignored` like the other
/// heavy benchmarks.
#[test]
#[ignore = "heavy: run explicitly with --release (CI throughput job)"]
fn four_planes_deliver_1_5x_throughput_on_a_saturated_mesh() {
    let scenario = registry::by_name("planes-throughput").expect("registered");
    let specs = scenario.grid.enumerate();
    let one = specs.iter().find(|s| s.planes == 1).expect("1-plane cell");
    let four = specs.iter().find(|s| s.planes == 4).expect("4-plane cell");
    let r1 = run_spec(one, 150, &Overrides::default());
    let r4 = run_spec(four, 150, &Overrides::default());
    assert_eq!(r1.report.ops_completed, r4.report.ops_completed);
    let speedup = r1.report.runtime_cycles as f64 / r4.report.runtime_cycles as f64;
    assert!(
        speedup >= 1.5,
        "4 planes delivered only {speedup:.2}x the single-network throughput \
         ({} vs {} cycles)",
        r4.report.runtime_cycles,
        r1.report.runtime_cycles
    );
}

/// The event-leaping clock is a pure optimisation on top of whichever
/// base engine runs: {leap on/off} over all three pre-existing engines
/// must produce byte-identical reports AND merged flit traces on a
/// phased low-injection point (the regime where the leap actually fires
/// and crosses whole compute gaps in one step).
#[test]
fn leap_matrix_is_byte_identical_including_traces() {
    let scenario = registry::by_name("scaling-mesh-small").expect("registered");
    let spec = scenario
        .grid
        .enumerate()
        .into_iter()
        .find(|s| s.mesh_side == 8 && s.workload.name == "uniform-low")
        .expect("8x8 uniform-low point exists");
    for engine in [Engine::ActiveSet, Engine::AlwaysScan, Engine::CoordRoute] {
        let baseline = run_leap(&spec, engine, false);
        assert!(
            baseline.report.runtime_cycles > 40_000,
            "phased gap missing"
        );
        let leaped = run_leap(&spec, engine, true);
        assert_eq!(
            baseline.report.to_json(),
            leaped.report.to_json(),
            "report divergence: {engine:?} leap"
        );
        assert_eq!(
            baseline.trace, leaped.trace,
            "trace divergence: {engine:?} leap"
        );
        assert_eq!(baseline.trace_dropped, leaped.trace_dropped);
        // The leap really fired (except under always-scan, whose guard
        // disables it — nothing is quiescent to skip).
        if engine != Engine::AlwaysScan {
            assert!(
                leaped.stepped_cycles < baseline.stepped_cycles / 2,
                "{engine:?}: leap never fired ({} of {} cycles stepped)",
                leaped.stepped_cycles,
                baseline.stepped_cycles
            );
        }
    }
}

/// The hierarchical notification scheme composes with the leaping clock:
/// under the quad-f2 window the same {leap on/off} matrix over all three
/// base engines must again be byte-identical in reports AND merged flit
/// traces. This is the quad row of the `{flat, quad} × leap × engines`
/// matrix (the flat row is `leap_matrix_is_byte_identical_including_traces`
/// above). The two schemes are deliberately *not* compared to each other
/// — the quad tree shortens the notification window, so it is a
/// different (hash-visible) machine.
#[test]
fn quad_notify_matrix_is_byte_identical_including_traces() {
    let scenario = registry::by_name("scaling-mesh-small").expect("registered");
    let mut spec = scenario
        .grid
        .enumerate()
        .into_iter()
        .find(|s| s.mesh_side == 8 && s.workload.name == "uniform-low")
        .expect("8x8 uniform-low point exists");
    spec.variant.label = format!("{}+quad-f2", spec.variant.label);
    spec.variant.knobs.push(Knob::QuadNotify(2));
    for engine in [Engine::ActiveSet, Engine::AlwaysScan, Engine::CoordRoute] {
        let baseline = run_leap(&spec, engine, false);
        assert!(baseline.regions > 1, "quad scheme did not partition");
        assert!(
            baseline.report.runtime_cycles > 40_000,
            "phased gap missing"
        );
        let leaped = run_leap(&spec, engine, true);
        assert_eq!(
            baseline.report.to_json(),
            leaped.report.to_json(),
            "report divergence: quad-f2 {engine:?} leap"
        );
        assert_eq!(
            baseline.trace, leaped.trace,
            "trace divergence: quad-f2 {engine:?} leap"
        );
        assert_eq!(baseline.trace_dropped, leaped.trace_dropped);
        if engine != Engine::AlwaysScan {
            assert!(
                leaped.stepped_cycles < baseline.stepped_cycles / 2,
                "quad-f2 {engine:?}: leap never fired ({} of {} cycles stepped)",
                leaped.stepped_cycles,
                baseline.stepped_cycles
            );
            // Per-region accounting saw idle quads: the summed per-quad
            // stepped cycles stay under stepped × quads.
            assert!(
                leaped.region_cycles_stepped < leaped.stepped_cycles * leaped.regions as u64,
                "quad-f2 {engine:?}: every quad was active every stepped cycle"
            );
        }
    }
}

/// The wider quad tree (fanout 4) gets the same guarantee on the
/// cheapest slice of the matrix: leap vs the stepped baseline.
#[test]
fn quad_f4_leap_is_byte_identical() {
    let scenario = registry::by_name("scaling-mesh-small").expect("registered");
    let mut spec = scenario
        .grid
        .enumerate()
        .into_iter()
        .find(|s| s.mesh_side == 8 && s.workload.name == "uniform-low")
        .expect("8x8 uniform-low point exists");
    spec.variant.label = format!("{}+quad-f4", spec.variant.label);
    spec.variant.knobs.push(Knob::QuadNotify(4));
    let baseline = run_leap(&spec, Engine::ActiveSet, false);
    assert!(baseline.regions > 1, "quad scheme did not partition");
    let leaped = run_leap(&spec, Engine::ActiveSet, true);
    assert_eq!(
        baseline.report.to_json(),
        leaped.report.to_json(),
        "report divergence: quad-f4 leap"
    );
    assert_eq!(baseline.trace, leaped.trace);
    assert!(leaped.stepped_cycles < baseline.stepped_cycles / 2);
}

/// A compute gap longer than the 50k-cycle deadlock watchdog must not
/// trip it under the leap engine: the watchdog counts *stepped* progress
/// (a wedged machine really steps without completing ops), and the leap
/// engine crosses the whole gap in one step. Under the old cycle-delta
/// watchdog this run panicked as a false positive.
#[test]
fn watchdog_tolerates_leaped_gaps_beyond_50k_cycles() {
    let scenario = registry::by_name("scaling-mesh-small").expect("registered");
    let mut spec = scenario
        .grid
        .enumerate()
        .into_iter()
        .find(|s| s.mesh_side == 8 && s.workload.name == "uniform-low")
        .expect("8x8 uniform-low point exists");
    spec.workload.phase_gap = 120_000;
    spec.engine = Engine::Leap;
    let r = run_spec(&spec, 13, &Overrides::default());
    assert!(r.report.ops_completed > 0);
    assert!(
        r.report.runtime_cycles > 120_000,
        "the >50k gap never happened ({} cycles)",
        r.report.runtime_cycles
    );
    assert!(
        r.stepped_cycles < r.report.runtime_cycles / 2,
        "the gap was stepped ({} of {}), not leaped",
        r.stepped_cycles,
        r.report.runtime_cycles
    );

    // The quad-leap case: under the hierarchical scheme the watchdog's
    // stepped-progress accounting must likewise ignore cycles crossed by
    // the leap — including the per-region ledger, which counts a leaf
    // quad only on cycles it was actually ticked. A bug that charged
    // leaped cycles to every region (or stepped progress to the watchdog)
    // trips the 50k assertion inside `run_to_completion`.
    spec.variant.label = format!("{}+quad-f2", spec.variant.label);
    spec.variant.knobs.push(Knob::QuadNotify(2));
    let q = run_spec(&spec, 13, &Overrides::default());
    assert!(q.report.ops_completed > 0);
    assert!(
        q.report.runtime_cycles > 120_000,
        "the >50k gap never happened under quad-f2 ({} cycles)",
        q.report.runtime_cycles
    );
    assert!(
        q.stepped_cycles < q.report.runtime_cycles / 2,
        "the quad-f2 gap was stepped ({} of {}), not leaped",
        q.stepped_cycles,
        q.report.runtime_cycles
    );
    assert!(q.regions > 1);
    assert!(
        q.region_cycles_stepped < q.stepped_cycles * q.regions as u64,
        "per-region ledger charged every quad on every stepped cycle \
         ({} >= {} x {})",
        q.region_cycles_stepped,
        q.stepped_cycles,
        q.regions
    );
}

/// The leap half of the `scaling-kilocore` scenario: on the phased
/// low-injection 32×32 cell the event-leaping clock must reproduce the
/// active-set report byte for byte while stepping fewer cycles.
/// Kilocore-heavy, so ignored by default like the other release
/// benchmarks (CI throughput job, `--release --ignored`).
#[test]
#[ignore = "heavy: run explicitly with --release (CI throughput job)"]
fn leap_fires_on_kilocore_low_injection() {
    let scenario = registry::by_name("scaling-kilocore").expect("registered");
    let specs = scenario.grid.enumerate();
    let active = specs
        .iter()
        .find(|s| s.mesh_side == 32 && s.fabric == scorpio_harness::Fabric::Mesh)
        .expect("32x32 active cell");
    let mut leap = active.clone();
    leap.engine = Engine::Leap;
    let ra = run_spec(active, 150, &Overrides::default());
    let rl = run_spec(&leap, 150, &Overrides::default());
    assert_eq!(ra.report.to_json(), rl.report.to_json(), "engines diverged");
    assert!(
        rl.stepped_cycles < ra.stepped_cycles,
        "leap never fired ({} vs {} stepped cycles)",
        rl.stepped_cycles,
        ra.stepped_cycles
    );
}

/// The acceptance benchmark behind the quad-notify kilocore cells: on
/// the drifting 32×32 mesh the machine-wide leap ratio is poor (one
/// busy tile anywhere keeps the global clock stepping), but the
/// per-region ledger must show event leaping working quad-by-quad —
/// simulated cycles over mean stepped cycles per leaf quad at least 3×,
/// and above the machine-wide ratio. Deterministic (ratios of simulated
/// quantities), but kilocore-heavy, so ignored like the other release
/// benchmarks (CI throughput job).
#[test]
#[ignore = "heavy: run explicitly with --release (CI throughput job)"]
fn quad_leap_region_ratio_floor_on_kilocore() {
    let scenario = registry::by_name("scaling-kilocore").expect("registered");
    let spec = scenario
        .grid
        .enumerate()
        .into_iter()
        .find(|s| {
            s.mesh_side == 32
                && s.fabric == scorpio_harness::Fabric::Mesh
                && s.engine == Engine::Leap
                && s.variant.knobs.contains(&Knob::QuadNotify(2))
        })
        .expect("32x32 quad-f2 leap cell");
    // The tree shrank the window: 13 cycles at 32×32 against flat's 65.
    assert!(
        spec.config().notification_window() <= 20,
        "quad window regressed: {}",
        spec.config().notification_window()
    );
    let r = run_spec(&spec, 150, &Overrides::default());
    assert!(r.report.ops_completed > 0);
    assert!(r.regions > 1, "quad scheme did not partition");
    let machine = r.report.runtime_cycles as f64 / r.stepped_cycles.max(1) as f64;
    let region =
        r.report.runtime_cycles as f64 * r.regions as f64 / r.region_cycles_stepped.max(1) as f64;
    assert!(
        region >= 3.0,
        "per-region leap ratio only {region:.2}x (machine-wide {machine:.2}x)"
    );
    assert!(
        region > machine,
        "per-region ratio {region:.2}x not above machine-wide {machine:.2}x"
    );
}

/// The same holds on a larger mesh with proportional MCs and the
/// phased low-injection workload — the regime where the active-set
/// engine actually skips most of the machine.
#[test]
fn scaling_mesh_point_is_byte_identical_across_engines() {
    let scenario = registry::by_name("scaling-mesh-small").expect("registered");
    let spec = scenario
        .grid
        .enumerate()
        .into_iter()
        .find(|s| s.mesh_side == 8 && s.workload.name == "uniform-low")
        .expect("8x8 uniform-low point exists");
    let mut scan_spec = spec.clone();
    scan_spec.engine = Engine::AlwaysScan;
    let active = run_spec(&spec, 13, &Overrides::default());
    let scan = run_spec(&scan_spec, 13, &Overrides::default());
    assert_eq!(
        active.report.to_json(),
        scan.report.to_json(),
        "engine divergence at {}",
        spec.key()
    );
    // The runs did real work and really slept through phases.
    assert!(active.report.ops_completed > 0);
    assert!(active.report.runtime_cycles > 40_000, "phased gap missing");
}
