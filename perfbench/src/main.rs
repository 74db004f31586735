//! End-to-end and per-layer benchmark of the SCORPIO simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     [--workload kilocore-burst|chip-canneal|dir-unicast|all] \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! `--trace 0` repeats the workload untraced for `S` seconds and prints the
//! end-to-end metrics (see `end_to_end`). `--trace 1`
//! alternates untraced and traced repetitions, runs the standalone network
//! probe and prints the per-layer metrics. The last line of standard output is one JSON object
//! with the keys `correct`, `attempted`, `failed` and `metrics`; the exit
//! code is non-zero when any correctness check fails. `--workload all`
//! (the default) runs each workload in a child process of its own, so a
//! wedged workload cannot stop the others and each one's peak memory is
//! its own. See `README.md` for the design.

mod layers;
mod run;
mod stats;
mod workload;

use run::{run_rep, OpsTally, Outcome, Rep};
use stats::{median, percentile_of, ratio, result_line, Metric};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use workload::{Workload, ALL};

/// The seed used when none is given.
const DEFAULT_SEED: u64 = 1;
/// The run length used when none is given (the benchmark's
/// `run_seconds`).
const DEFAULT_SECONDS: u64 = 40;
/// The longest run accepted, so that every run ends within `HARD_LIMIT`.
const MAX_SECONDS: u64 = 120;
/// Fewest untraced repetitions a `--trace 0` run makes.
const MIN_REPS: usize = 3;
/// Set-ups made and discarded before `setup_s` is timed: the first ones
/// in a fresh process also pay for its first page faults.
const WARMUP_SETUPS: usize = 5;
/// Set-ups timed back to back for `setup_s`, which is their median. The
/// repetitions' own set-ups follow a simulation that has filled the
/// caches, so they are slower; mixing the two kinds would make the median
/// depend on how many repetitions fit in the run.
const TIMED_SETUPS: usize = 25;
/// The percentile of the repetitions' throughputs reported as throughput.
/// On a shared host the speed switches every few seconds between a
/// contended plateau and faster spells when neighbours idle. Repetitions
/// shorter than those spells fall on one side or the other, and the slow
/// side's level holds from run to run where a median, which mixes in a
/// varying share of fast spells, does not. The 5th percentile rather
/// than the minimum, so that one stalled repetition does not set it.
const THROUGHPUT_PERCENTILE: f64 = 0.05;
/// Longest the standalone network probe may run.
const PROBE_LIMIT: Duration = Duration::from_secs(10);
/// Any repetition still running this long after start is cut and fails,
/// so the process ends well within three minutes.
const HARD_LIMIT: Duration = Duration::from_secs(150);

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || val.parse::<u64>().map_err(|_| format!("bad {flag} {val}"));
        match flag.as_str() {
            "--workload" if val == "all" => a.workload = None,
            "--workload" => {
                a.workload = Some(Workload::by_name(&val).ok_or(format!("unknown workload {val}"))?)
            }
            "--seed" => a.seed = num()?,
            "--seconds" => a.seconds = num()?.clamp(1, MAX_SECONDS),
            "--trace" => {
                a.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {val}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (correct, tally, metrics) = match args.workload {
        Some(w) => run_workload(&w, &args),
        None => run_all(&args),
    };
    println!(
        "{}",
        result_line(correct, tally.attempted, tally.failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs one workload in this process and prints its human-readable lines.
fn run_workload(w: &Workload, args: &Args) -> (bool, OpsTally, Vec<Metric>) {
    let start = Instant::now();
    let hard = start + HARD_LIMIT;
    // A traced run alternates untraced and traced repetitions, so drift in
    // host speed touches both sides of `core.traced_slowdown` alike, and
    // leaves a quarter of its time for the network probe.
    let (budget, min_rounds) = if args.trace {
        (Duration::from_secs(args.seconds) * 3 / 4, 2)
    } else {
        (Duration::from_secs(args.seconds), MIN_REPS)
    };
    let setups: Vec<f64> = if args.trace {
        Vec::new()
    } else {
        (0..WARMUP_SETUPS + TIMED_SETUPS)
            .filter_map(|_| run::setup_only(w, args.seed))
            .skip(WARMUP_SETUPS)
            .collect()
    };
    let mut reps: Vec<Rep> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    loop {
        reps.push(run_rep(w, args.seed, false, hard));
        if args.trace {
            traced.push(run_rep(w, args.seed, true, hard));
        }
        let spent = start.elapsed();
        let per_round = spent / reps.len() as u32;
        let failed = reps
            .iter()
            .chain(&traced)
            .any(|r| r.outcome != Outcome::Complete);
        if failed || (reps.len() >= min_rounds && spent + per_round > budget) {
            break;
        }
    }

    let mut errors: Vec<String> = Vec::new();
    let mut tally = OpsTally::default();
    for (kind, group) in [("repetition", &reps), ("traced repetition", &traced)] {
        for (i, r) in group.iter().enumerate() {
            check_rep(&format!("{kind} {i}"), r, &mut errors);
            tally.add(r.tally);
        }
        let digests: Vec<u64> = group.iter().filter_map(Rep::digest).collect();
        if digests.windows(2).any(|p| p[0] != p[1]) {
            errors.push(format!("report digest differs between {kind}s of one seed"));
        }
    }

    println!(
        "workload {} seed {} trace {} reps {}",
        w.name,
        args.seed,
        u8::from(args.trace),
        reps.len()
    );
    if let Some(d) = reps.iter().find_map(Rep::digest) {
        println!("report_digest {d:#018x}");
    }
    for (kind, group) in [("rep", &reps), ("traced_rep", &traced)] {
        for (i, r) in group.iter().enumerate() {
            println!(
                "{kind} {i} setup_s {:.6} sim_s {:.4} cycles {}",
                r.setup_s(),
                r.sim_s,
                r.cycles
            );
        }
    }

    let metrics = if args.trace {
        if let Some(u) = &reps[0].report {
            for t in traced.iter().filter_map(|t| t.report.as_ref()) {
                errors.extend(layers::check_base_matches(t, u).err());
                errors.extend(layers::check_spans(t).err());
            }
        }
        let probe = match &traced[0].report {
            Some(r) => layers::noc_probe(
                &w.system_config(args.seed, false),
                r,
                args.seed,
                PROBE_LIMIT,
            ),
            None => layers::Probe::default(),
        };
        if probe.cut {
            println!(
                "noc probe stopped at its time budget after {} steps",
                probe.steps
            );
        }
        layers::metrics(&traced, &reps, &probe)
    } else {
        end_to_end(&reps, &setups)
    };
    for m in metrics.iter().filter(|m| !stats::valid_name(&m.name)) {
        errors.push(format!("invalid metric name {}", m.name));
    }
    println!(
        "ops attempted {} completed {} failed {} ops_failed_ratio {}",
        tally.attempted,
        tally.completed,
        tally.failed,
        tally.failed_ratio()
    );
    for m in &metrics {
        println!("metric {} {} {}", m.name, m.value, m.unit);
    }
    for e in &errors {
        println!("check FAILED: {e}");
    }
    (errors.is_empty(), tally, metrics)
}

/// Records why repetition `what` failed, if it did.
fn check_rep(what: &str, r: &Rep, errors: &mut Vec<String>) {
    match r.outcome {
        Outcome::Complete => {}
        Outcome::Truncated { cycle } => errors.push(format!("{what} truncated at cycle {cycle}")),
        Outcome::Panicked => errors.push(format!("{what} panicked")),
    }
    if !r.tally.balanced() {
        errors.push(format!(
            "{what}: attempted {} != completed {} + failed {}",
            r.tally.attempted, r.tally.completed, r.tally.failed
        ));
    }
}

/// The end-to-end metrics. Throughput is the [`THROUGHPUT_PERCENTILE`]
/// of the repetitions' own throughputs; `setup_s` is the median of
/// `setups`; simulated figures come from the (identical) reports.
fn end_to_end(reps: &[Rep], setups: &[f64]) -> Vec<Metric> {
    let low = |f: &dyn Fn(&Rep) -> f64| {
        percentile_of(
            &reps.iter().map(f).collect::<Vec<_>>(),
            THROUGHPUT_PERCENTILE,
        )
    };
    let report = reps.iter().find_map(|r| r.report.as_ref());
    let mut tally = OpsTally::default();
    reps.iter().for_each(|r| tally.add(r.tally));
    vec![
        Metric::new(
            "sim_cycles_per_s",
            "cycles/s",
            low(&|r| r.cycles as f64 / r.sim_s.max(1e-9)),
        ),
        Metric::new(
            "ops_per_s",
            "ops/s",
            low(&|r| r.tally.completed as f64 / r.sim_s.max(1e-9)),
        ),
        Metric::new("setup_s", "s", median(setups)),
        Metric::new("peak_rss_mb", "MB", peak_rss_mb()),
        Metric::new(
            "sim_runtime_cycles",
            "cycles",
            report.map_or(0, |r| r.runtime_cycles) as f64,
        ),
        Metric::new(
            "l2_service_cycles_mean",
            "cycles",
            report.map_or(0.0, |r| r.l2_service_latency.mean()),
        ),
        Metric::new(
            "ops_completed_ratio",
            "ratio",
            ratio(tally.completed, tally.attempted),
        ),
    ]
}

/// This process's resident-memory high-water mark in MB (`VmHWM`), or 0
/// where the kernel does not report it.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs every workload, each in a child process of this executable, and
/// merges their results with metric names prefixed by the workload.
fn run_all(args: &Args) -> (bool, OpsTally, Vec<Metric>) {
    let exe = std::env::current_exe().expect("the running executable has a path");
    let mut correct = true;
    let mut tally = OpsTally::default();
    let mut metrics = Vec::new();
    for w in &ALL {
        let child = Command::new(&exe)
            .args(["--workload", w.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stdout(Stdio::piped())
            .spawn();
        let out = child
            .ok()
            .and_then(|c| wait_with_limit(c, HARD_LIMIT + Duration::from_secs(20)));
        let (ok, t, ms) = match out {
            Some((ok, text)) => parse_child(&text, ok),
            None => (false, None, Vec::new()),
        };
        // A child that died or hung counts every operation as failed.
        let t = t.unwrap_or_else(|| OpsTally::of(Outcome::Panicked, w.ops_attempted(), 0));
        correct &= ok;
        tally.add(t);
        metrics.extend(
            ms.into_iter()
                .map(|m| Metric::new(format!("{}.{}", w.name, m.name), m.unit, m.value)),
        );
    }
    (correct, tally, metrics)
}

/// Waits for `child` for at most `limit`, killing it past that. Returns
/// whether it succeeded and its standard output, or `None` if it was
/// killed or could not be read.
fn wait_with_limit(mut child: std::process::Child, limit: Duration) -> Option<(bool, String)> {
    use std::io::Read;
    let mut stdout = child.stdout.take().expect("the child's stdout is piped");
    let reader = std::thread::spawn(move || {
        let mut s = String::new();
        stdout.read_to_string(&mut s).map(|_| s)
    });
    let end = Instant::now() + limit;
    let status = loop {
        match child.try_wait() {
            Ok(Some(s)) => break Some(s),
            Ok(None) if Instant::now() < end => std::thread::sleep(Duration::from_millis(50)),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                break None;
            }
        }
    };
    let text = reader.join().ok()?.ok()?;
    // Forward the child's report, keeping only this process's result line.
    for line in text.lines().filter(|l| !l.starts_with('{')) {
        println!("{line}");
    }
    status.map(|s| (s.success(), text))
}

/// Reads a child's `ops` and `metric` lines.
fn parse_child(text: &str, ok: bool) -> (bool, Option<OpsTally>, Vec<Metric>) {
    let mut tally = None;
    let mut metrics = Vec::new();
    for line in text.lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        match f.as_slice() {
            ["ops", "attempted", a, "completed", c, "failed", x, ..] => {
                tally = Some(OpsTally {
                    attempted: a.parse().unwrap_or(0),
                    completed: c.parse().unwrap_or(0),
                    failed: x.parse().unwrap_or(0),
                })
            }
            ["metric", name, value, unit] => {
                if let (Ok(v), Some(u)) = (value.parse(), known_unit(unit)) {
                    metrics.push(Metric::new(*name, u, v));
                }
            }
            _ => {}
        }
    }
    (ok && tally.is_some(), tally, metrics)
}

/// The static spelling of a unit this benchmark prints.
fn known_unit(unit: &str) -> Option<&'static str> {
    const UNITS: [&str; 9] = [
        "cycles/s",
        "ops/s",
        "s",
        "MB",
        "cycles",
        "ratio",
        "ns",
        "count",
        "packet-cycles",
    ];
    UNITS.iter().copied().find(|u| *u == unit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use run::tests::TINY;

    /// The `name` values listed in `section` of `BENCHMARK.json`.
    fn declared(section: &str) -> Vec<String> {
        let text = include_str!("../../BENCHMARK.json");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section is present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section is a list")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("closed string")].to_string())
            .collect()
    }

    fn names(metrics: &[Metric]) -> Vec<String> {
        metrics.iter().map(|m| m.name.clone()).collect()
    }

    fn later() -> Instant {
        Instant::now() + Duration::from_secs(60)
    }

    #[test]
    fn declared_names_are_valid_and_unique() {
        for section in ["workloads", "end_to_end", "per_layer"] {
            let mut names = declared(section);
            assert!(!names.is_empty(), "{section}");
            assert!(names.iter().all(|n| stats::valid_name(n)), "{section}");
            names.sort();
            names.dedup();
            assert_eq!(
                names.len(),
                declared(section).len(),
                "{section} repeats a name"
            );
        }
        let wl: Vec<&str> = ALL.iter().map(|w| w.name).collect();
        assert_eq!(declared("workloads"), wl);
    }

    #[test]
    fn printed_metrics_match_the_declared_ones() {
        let reps = vec![
            run_rep(&TINY, 1, false, later()),
            run_rep(&TINY, 1, false, later()),
        ];
        let e2e = end_to_end(&reps, &[0.1, 0.2]);
        assert_eq!(names(&e2e), declared("end_to_end"));
        assert!(
            e2e.iter().all(|m| m.value > 0.0),
            "end-to-end metrics are never 0"
        );

        let traced = run_rep(&TINY, 1, true, later());
        let cfg = TINY.system_config(1, false);
        let probe = layers::noc_probe(
            &cfg,
            traced.report.as_ref().expect("complete"),
            1,
            Duration::from_secs(10),
        );
        assert!(!probe.cut && probe.steps > 0 && probe.flit_hops > 0);
        let per_layer = layers::metrics(&[traced], &reps, &probe);
        assert_eq!(names(&per_layer), declared("per_layer"));
    }

    #[test]
    fn traced_run_passes_the_observability_checks() {
        let untraced = run_rep(&TINY, 2, false, later());
        let traced = run_rep(&TINY, 2, true, later());
        let (t, u) = (traced.report.unwrap(), untraced.report.unwrap());
        assert_eq!(layers::check_base_matches(&t, &u), Ok(()));
        assert_eq!(layers::check_spans(&t), Ok(()));
        // A report from another seed is caught.
        let other = run_rep(&TINY, 3, false, later()).report.unwrap();
        assert!(layers::check_base_matches(&t, &other).is_err());
        // A traced report without spans fails the span check.
        assert!(layers::check_spans(&u).is_err());
    }

    #[test]
    fn child_output_parses_back() {
        let text = "workload x seed 1 trace 0 reps 3\n\
                    ops attempted 10 completed 9 failed 1 ops_failed_ratio 0.1\n\
                    metric setup_s 0.5 s\n\
                    metric bogus 1 furlongs\n";
        let (ok, tally, ms) = parse_child(text, true);
        assert!(ok);
        assert_eq!(
            tally,
            Some(OpsTally {
                attempted: 10,
                completed: 9,
                failed: 1
            })
        );
        assert_eq!(ms, vec![Metric::new("setup_s", "s", 0.5)]);
        let (ok, tally, _) = parse_child("garbage", true);
        assert!(!ok && tally.is_none());
    }
}
