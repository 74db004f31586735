//! The parallel job executor.
//!
//! Every [`RunSpec`] in a grid is an *independent* simulation — a fresh
//! [`System`] with its own RNG streams and no shared state — so a sweep is
//! embarrassingly parallel. The executor distributes specs round-robin over
//! per-worker deques; a worker drains its own deque from the front and,
//! when empty, steals from the back of its siblings, so stragglers (big
//! meshes, slow protocols) cannot serialize the sweep behind one worker.
//!
//! Determinism: each run's result depends only on its spec (plus the
//! ops-per-core override), and results are returned in grid-enumeration
//! order, so the output is byte-identical for any worker count and any
//! completion order. Wall-clock timings are recorded per run but kept out
//! of the deterministic sinks unless explicitly requested.

use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::Instant;

use scorpio::{span_json, ObsLevel, System, SystemReport, WindowRow};
use scorpio_noc::TraceEvent;
use scorpio_workloads::generate;

use crate::scenario::{Engine, RunSpec, SweepGrid};

/// Executor options.
#[derive(Debug, Clone)]
pub struct ExecOptions {
    /// Worker threads. `0` means one per available CPU.
    pub threads: usize,
    /// Operations per core for every run (the harness owns this override
    /// so results cannot depend on process-global environment reads racing
    /// with the sweep).
    pub ops_per_core: usize,
    /// Emit one progress line per completed run to stderr.
    pub verbose: bool,
    /// Config-level overrides applied to every run.
    pub overrides: Overrides,
}

impl Default for ExecOptions {
    fn default() -> ExecOptions {
        ExecOptions {
            threads: 0,
            ops_per_core: crate::ops_per_core(),
            verbose: false,
            overrides: Overrides::default(),
        }
    }
}

/// Config-level overrides applied on top of a spec's own configuration
/// before a run; the config hash fingerprints the overridden config.
#[derive(Debug, Clone, Copy, Default)]
pub struct Overrides {
    /// Force an observability level (`--hist` / `--trace`). `None` keeps
    /// each spec's own level (usually off, or whatever a `Knob::Obs`
    /// variant set).
    pub obs: Option<ObsLevel>,
    /// Force the flit-trace cap (`--trace-limit`).
    pub trace_limit: Option<usize>,
    /// Force transaction-span recording (`--spans`).
    pub spans: bool,
    /// Force windowed telemetry with this epoch length (`--windows` /
    /// `--window-cycles`). `None` keeps each spec's own setting (usually
    /// off, or whatever a `Knob::Windows` variant set).
    pub window_cycles: Option<u64>,
}

impl ExecOptions {
    /// Resolves `threads == 0` to the host's available parallelism.
    pub fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        }
    }
}

/// The result of one grid point: spec, report and metadata.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The spec that produced this result.
    pub spec: RunSpec,
    /// Stable fingerprint of the exact [`scorpio::SystemConfig`] run.
    pub config_hash: u64,
    /// Human-readable configuration label.
    pub config_label: String,
    /// The simulation report.
    pub report: SystemReport,
    /// Wall-clock nanoseconds this run took (not part of deterministic
    /// output; see the sink options).
    pub wall_nanos: u128,
    /// Setup phase: workload generation plus system construction.
    pub setup_nanos: u128,
    /// Simulation phase (`run_to_completion` only) — the denominator of
    /// the simulated-cycles-per-second throughput metric.
    pub sim_nanos: u128,
    /// Cycles the engine actually stepped (see
    /// [`scorpio::System::stepped_cycles`]): every simulated cycle under
    /// always-scan, fewer under the active-set engine, whose clock leaps
    /// provably idle spans. `report.runtime_cycles / stepped_cycles` is the
    /// leap ratio the timing sinks report.
    pub stepped_cycles: u64,
    /// Per-region leap domains (leaf quads of a hierarchical notification
    /// tree); 1 for the flat scheme and for baselines.
    pub regions: usize,
    /// Σ over stepped cycles of the active-region count (see
    /// [`scorpio::System::region_cycles_stepped`]); `stepped × regions`
    /// under always-scan, which keeps no per-region accounts.
    pub region_cycles_stepped: u64,
    /// Rendered flit-trace events (one JSON object per event, in
    /// deterministic merge order) when the run traced; `None` otherwise.
    pub trace: Option<Vec<String>>,
    /// Trace events dropped at the cap.
    pub trace_dropped: u64,
    /// Rendered transaction spans (one JSON object per retired miss, in
    /// deterministic retire order) when the run recorded spans.
    pub spans: Option<Vec<String>>,
    /// Spans dropped at the cap.
    pub spans_dropped: u64,
    /// Rendered windowed-telemetry rows (one JSON object per epoch, in
    /// epoch order) when the run bucketed windows.
    pub windows: Option<Vec<String>>,
}

/// Runs one spec to completion under its own engine, with `ov` applied on
/// top of the spec's own configuration, and collects whichever
/// deterministic streams the final configuration enabled (flit trace,
/// transaction spans, window rows).
pub fn run_spec(spec: &RunSpec, ops_per_core: usize, ov: &Overrides) -> RunResult {
    let mut cfg = spec.config();
    if let Some(level) = ov.obs {
        cfg = cfg.with_obs(level);
    }
    if let Some(n) = ov.trace_limit {
        cfg = cfg.with_trace_limit(n);
    }
    if ov.spans {
        cfg = cfg.with_spans(true);
    }
    if let Some(w) = ov.window_cycles {
        cfg = cfg.with_windows(w);
    }
    // The hash fingerprints the exact configuration run, overrides
    // included — an obs-off run keeps its pre-observability hash.
    let config_hash = cfg.stable_hash();
    let config_label = cfg.label();
    let tracing = cfg.obs == ObsLevel::Trace;
    let spanning = cfg.spans;
    let windowing = cfg.window_cycles != 0;
    let params = spec.workload.clone().with_ops(ops_per_core);
    let started = Instant::now();
    let traces = generate(&params, cfg.cores(), cfg.seed);
    let mut sys = System::with_traces(cfg, traces);
    sys.set_always_scan(spec.engine == Engine::AlwaysScan);
    let setup_nanos = started.elapsed().as_nanos();
    let sim_started = Instant::now();
    let report = sys.run_to_completion();
    let sim_nanos = sim_started.elapsed().as_nanos();
    let stepped_cycles = sys.stepped_cycles();
    let regions = sys.regions();
    let region_cycles_stepped = sys.region_cycles_stepped();
    let (trace, trace_dropped) = if tracing {
        let (events, dropped) = sys.take_trace();
        (
            Some(events.iter().map(TraceEvent::json_body).collect()),
            dropped,
        )
    } else {
        (None, 0)
    };
    let (spans, spans_dropped) = if spanning {
        let (records, dropped) = sys.span_records();
        (Some(records.iter().map(span_json).collect()), dropped)
    } else {
        (None, 0)
    };
    let windows = windowing.then(|| sys.window_rows().iter().map(WindowRow::json_body).collect());
    RunResult {
        spec: spec.clone(),
        config_hash,
        config_label,
        report,
        wall_nanos: started.elapsed().as_nanos(),
        setup_nanos,
        sim_nanos,
        stepped_cycles,
        regions,
        region_cycles_stepped,
        trace,
        trace_dropped,
        spans,
        spans_dropped,
        windows,
    }
}

/// Runs every spec of `grid` and returns results in enumeration order.
pub fn run_grid(grid: &SweepGrid, opts: &ExecOptions) -> Vec<RunResult> {
    run_specs(&grid.enumerate(), opts)
}

/// Runs an explicit spec list and returns results in the same order.
pub fn run_specs(specs: &[RunSpec], opts: &ExecOptions) -> Vec<RunResult> {
    let n = specs.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = opts.effective_threads().clamp(1, n);
    let ov = &opts.overrides;
    if workers == 1 {
        return specs
            .iter()
            .map(|s| {
                let r = run_spec(s, opts.ops_per_core, ov);
                if opts.verbose {
                    eprintln!(
                        "[harness] {} -> {} cycles",
                        s.key(),
                        r.report.runtime_cycles
                    );
                }
                r
            })
            .collect();
    }

    // Per-worker deques, filled round-robin so neighbouring (similarly
    // sized) jobs spread across workers; idle workers steal from the back.
    let queues: Vec<Mutex<VecDeque<usize>>> = (0..workers)
        .map(|w| {
            Mutex::new(
                (0..n)
                    .filter(|i| i % workers == w)
                    .collect::<VecDeque<usize>>(),
            )
        })
        .collect();
    let slots: Vec<Mutex<Option<RunResult>>> = (0..n).map(|_| Mutex::new(None)).collect();

    std::thread::scope(|scope| {
        for w in 0..workers {
            let queues = &queues;
            let slots = &slots;
            scope.spawn(move || loop {
                // Own queue first (front), then steal (back). The own-pop
                // must be its own statement: chaining `.or_else` onto the
                // locked pop would keep queue w's guard alive across the
                // steal (temporaries live to the end of the statement),
                // and two workers going idle together would then deadlock
                // on each other's queue locks.
                let own = queues[w].lock().unwrap().pop_front();
                let job = own.or_else(|| {
                    (1..workers)
                        .map(|d| (w + d) % workers)
                        .find_map(|v| queues[v].lock().unwrap().pop_back())
                });
                let Some(i) = job else { break };
                let r = run_spec(&specs[i], opts.ops_per_core, ov);
                if opts.verbose {
                    eprintln!(
                        "[harness] {} -> {} cycles (worker {w})",
                        specs[i].key(),
                        r.report.runtime_cycles
                    );
                }
                *slots[i].lock().unwrap() = Some(r);
            });
        }
    });

    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .unwrap()
                .expect("every job index was queued exactly once")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{SweepGrid, Variant};
    use scorpio::Protocol;
    use scorpio_workloads::WorkloadParams;

    fn tiny_grid() -> SweepGrid {
        SweepGrid::over(vec![WorkloadParams::by_name("lu").unwrap()])
            .meshes(&[2])
            .protocols(&[Protocol::Scorpio, Protocol::TokenB])
            .variants(vec![Variant::baseline()])
            .seeds(&[1, 2, 3])
    }

    #[test]
    fn results_come_back_in_enumeration_order() {
        let grid = tiny_grid();
        let opts = ExecOptions {
            threads: 3,
            ops_per_core: 5,
            ..ExecOptions::default()
        };
        let results = run_grid(&grid, &opts);
        assert_eq!(results.len(), 6);
        for (i, r) in results.iter().enumerate() {
            assert_eq!(r.spec.index, i);
        }
    }

    #[test]
    fn thread_count_does_not_change_reports() {
        let grid = tiny_grid();
        let serial = run_grid(
            &grid,
            &ExecOptions {
                threads: 1,
                ops_per_core: 8,
                ..ExecOptions::default()
            },
        );
        for workers in [2, 4, 7] {
            let parallel = run_grid(
                &grid,
                &ExecOptions {
                    threads: workers,
                    ops_per_core: 8,
                    ..ExecOptions::default()
                },
            );
            assert_eq!(serial.len(), parallel.len());
            for (a, b) in serial.iter().zip(&parallel) {
                assert_eq!(a.spec, b.spec);
                assert_eq!(a.config_hash, b.config_hash);
                assert_eq!(
                    a.report.to_json(),
                    b.report.to_json(),
                    "{} must not depend on worker count",
                    a.spec.key()
                );
            }
        }
    }

    #[test]
    fn more_threads_than_jobs_is_fine() {
        let grid = SweepGrid::over(vec![WorkloadParams::by_name("fft").unwrap()]).meshes(&[2]);
        let results = run_grid(
            &grid,
            &ExecOptions {
                threads: 64,
                ops_per_core: 4,
                ..ExecOptions::default()
            },
        );
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].report.ops_completed, 4 * 4);
    }

    #[test]
    fn empty_grid_returns_empty() {
        let grid = SweepGrid::default();
        assert!(run_grid(&grid, &ExecOptions::default()).is_empty());
    }

    // Regression test: the steal path once held the worker's own queue
    // lock across the steal attempt, so two workers going idle together
    // deadlocked on each other's locks. The race window is the sweep
    // tail, so hammer many short sweeps where workers drain their queues
    // near-simultaneously.
    #[test]
    fn executor_tail_does_not_deadlock() {
        let grid = SweepGrid::over(vec![WorkloadParams::by_name("lu").unwrap()])
            .meshes(&[2])
            .seeds(&[1, 2, 3, 4, 5, 6]);
        let specs = grid.enumerate();
        for _ in 0..150 {
            let r = run_specs(
                &specs,
                &ExecOptions {
                    threads: 4,
                    ops_per_core: 2,
                    ..ExecOptions::default()
                },
            );
            assert_eq!(r.len(), 6);
        }
    }
}
