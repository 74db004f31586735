//! One repetition of a workload: generate the traces, build the system,
//! step it to completion from the benchmark's own loop and report. Each
//! phase is timed from outside the program, through public calls only.

use crate::stats::digest;
use crate::workload::Workload;
use scorpio::{System, SystemReport};
use scorpio_workloads::generate;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// How a repetition ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Every core finished and the machine drained.
    Complete,
    /// Stopped at the configured cycle limit or the wall-clock deadline
    /// before completing.
    Truncated {
        /// Simulated cycle at which the run stopped.
        cycle: u64,
    },
    /// The simulator panicked.
    Panicked,
}

/// Attempted, completed and failed memory operations of one or more runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpsTally {
    /// Operations the traces asked for.
    pub attempted: u64,
    /// Operations the simulator reported as completed.
    pub completed: u64,
    /// Operations counted as failed.
    pub failed: u64,
}

impl OpsTally {
    /// The tally of a run that ended with `outcome` after the report
    /// counted `completed` operations. A complete run fails nothing; a
    /// truncated run fails every missing operation; a panicked run has no
    /// report, so every operation counts as failed.
    pub fn of(outcome: Outcome, attempted: u64, completed: u64) -> OpsTally {
        match outcome {
            Outcome::Complete => OpsTally {
                attempted,
                completed,
                failed: 0,
            },
            Outcome::Truncated { .. } => OpsTally {
                attempted,
                completed,
                failed: attempted.saturating_sub(completed),
            },
            Outcome::Panicked => OpsTally {
                attempted,
                completed: 0,
                failed: attempted,
            },
        }
    }

    /// `(attempted − completed) ÷ attempted`; 0 when nothing was
    /// attempted.
    pub fn failed_ratio(&self) -> f64 {
        crate::stats::ratio(
            self.attempted.saturating_sub(self.completed),
            self.attempted,
        )
    }

    /// Whether attempted equals completed plus failed.
    pub fn balanced(&self) -> bool {
        self.completed.checked_add(self.failed) == Some(self.attempted)
    }

    /// Adds another run's tally.
    pub fn add(&mut self, other: OpsTally) {
        self.attempted += other.attempted;
        self.completed += other.completed;
        self.failed += other.failed;
    }
}

/// Measurements of one repetition.
pub struct Rep {
    /// How the run ended.
    pub outcome: Outcome,
    /// Its operation counts.
    pub tally: OpsTally,
    /// Host seconds in `generate`.
    pub generate_s: f64,
    /// Host seconds in `System::with_traces`.
    pub build_s: f64,
    /// Host seconds of the step loop.
    pub sim_s: f64,
    /// Host seconds in `System::report`.
    pub report_s: f64,
    /// Simulated cycles at the end of the run.
    pub cycles: u64,
    /// `System::step` calls.
    pub steps: u64,
    /// Host nanoseconds of each `System::step` call (traced runs only).
    pub step_ns: Vec<u64>,
    /// The final report (absent after a panic).
    pub report: Option<SystemReport>,
}

impl Rep {
    /// Host seconds of set-up: trace generation plus system build.
    pub fn setup_s(&self) -> f64 {
        self.generate_s + self.build_s
    }

    /// The digest of the report's JSON (`report_digest`).
    pub fn digest(&self) -> Option<u64> {
        self.report.as_ref().map(|r| digest(r.to_json().as_bytes()))
    }
}

/// Runs `f`, turning a panic into [`Outcome::Panicked`] with every one of
/// `attempted` operations failed, so one broken run cannot abort the rest.
pub fn isolate(attempted: u64, f: impl FnOnce() -> Rep) -> Rep {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|_| Rep {
        outcome: Outcome::Panicked,
        tally: OpsTally::of(Outcome::Panicked, attempted, 0),
        generate_s: 0.0,
        build_s: 0.0,
        sim_s: 0.0,
        report_s: 0.0,
        cycles: 0,
        steps: 0,
        step_ns: Vec::new(),
        report: None,
    })
}

/// One repetition of `w` for `seed`. A traced repetition enables the
/// observability layer and times every `System::step` call. The run stops
/// early at the configured cycle limit or at `deadline`.
pub fn run_rep(w: &Workload, seed: u64, traced: bool, deadline: Instant) -> Rep {
    isolate(w.ops_attempted(), || {
        let Setup {
            mut sys,
            attempted,
            generate_s,
            build_s,
        } = set_up(w, seed, traced);
        let mut step_ns = Vec::new();
        let t = Instant::now();
        let outcome = if traced {
            drive(&mut sys, deadline, |sys| {
                let s = Instant::now();
                sys.step();
                step_ns.push(s.elapsed().as_nanos() as u64);
            })
        } else {
            drive(&mut sys, deadline, System::step)
        };
        let sim_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let report = sys.report();
        let report_s = t.elapsed().as_secs_f64();
        Rep {
            outcome,
            tally: OpsTally::of(outcome, attempted, report.ops_completed),
            generate_s,
            build_s,
            sim_s,
            report_s,
            cycles: sys.cycle().as_u64(),
            steps: sys.stepped_cycles(),
            step_ns,
            report: Some(report),
        }
    })
}

/// A built, unstepped system and what building it took.
struct Setup {
    sys: System,
    attempted: u64,
    generate_s: f64,
    build_s: f64,
}

/// Generates the traces for `seed` and builds the system, timing each.
fn set_up(w: &Workload, seed: u64, traced: bool) -> Setup {
    let cfg = w.system_config(seed, traced);
    let t = Instant::now();
    let traces = generate(&(w.params)(), cfg.cores(), seed);
    let generate_s = t.elapsed().as_secs_f64();
    let attempted = traces.iter().map(|tr| tr.len() as u64).sum();
    let t = Instant::now();
    let sys = System::with_traces(cfg, traces);
    Setup {
        sys,
        attempted,
        generate_s,
        build_s: t.elapsed().as_secs_f64(),
    }
}

/// Host seconds of one set-up alone (`generate` plus
/// `System::with_traces`); `None` if it panicked.
pub fn setup_only(w: &Workload, seed: u64) -> Option<f64> {
    catch_unwind(|| {
        let s = set_up(w, seed, false);
        s.generate_s + s.build_s
    })
    .ok()
}

/// The loop `System::run_to_completion` performs, with the benchmark's
/// own stop conditions in place of its watchdog panic.
fn drive(sys: &mut System, deadline: Instant, mut step: impl FnMut(&mut System)) -> Outcome {
    let max = sys.config().max_cycles;
    let mut n: u64 = 0;
    while !sys.is_complete() {
        let cycle = sys.cycle().as_u64();
        if cycle >= max || (n.is_multiple_of(1024) && Instant::now() >= deadline) {
            return Outcome::Truncated { cycle };
        }
        step(sys);
        n += 1;
    }
    Outcome::Complete
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use scorpio::SystemConfig;
    use scorpio_workloads::WorkloadParams;
    use std::time::Duration;

    fn tiny_config() -> SystemConfig {
        SystemConfig::square(2)
    }

    fn tiny_params() -> WorkloadParams {
        WorkloadParams::by_name("barnes")
            .expect("barnes is a registered preset")
            .with_ops(20)
    }

    fn cut_config() -> SystemConfig {
        let mut cfg = tiny_config();
        cfg.max_cycles = 50;
        cfg
    }

    /// A 2×2 system running 20 ops per core.
    pub(crate) const TINY: Workload = Workload {
        name: "tiny",
        config: tiny_config,
        params: tiny_params,
    };

    fn later() -> Instant {
        Instant::now() + Duration::from_secs(60)
    }

    #[test]
    fn complete_run_fails_nothing() {
        let rep = run_rep(&TINY, 3, false, later());
        assert_eq!(rep.outcome, Outcome::Complete);
        assert_eq!(rep.tally.attempted, 80);
        assert_eq!(rep.tally.completed, 80);
        assert_eq!(rep.tally.failed, 0);
        assert!(rep.tally.balanced());
        assert_eq!(rep.tally.failed_ratio(), 0.0);
    }

    #[test]
    fn truncated_run_counts_missing_ops_as_failed() {
        let w = Workload {
            config: cut_config,
            ..TINY
        };
        let rep = run_rep(&w, 3, false, later());
        assert_eq!(rep.outcome, Outcome::Truncated { cycle: 50 });
        let t = rep.tally;
        assert!(t.completed < t.attempted);
        assert_eq!(t.failed, t.attempted - t.completed);
        assert!(t.balanced());
        assert_eq!(t.failed_ratio(), t.failed as f64 / t.attempted as f64);
    }

    #[test]
    fn passed_deadline_truncates_at_once() {
        let rep = run_rep(&TINY, 3, false, Instant::now());
        assert_eq!(rep.outcome, Outcome::Truncated { cycle: 0 });
        assert_eq!(rep.tally.failed, 80);
        assert_eq!(rep.tally.failed_ratio(), 1.0);
    }

    #[test]
    fn panicking_run_is_isolated_and_all_failed() {
        let rep = isolate(80, || panic!("simulated wedge"));
        assert_eq!(rep.outcome, Outcome::Panicked);
        assert_eq!(rep.tally.failed, 80);
        assert_eq!(rep.tally.completed, 0);
        assert!(rep.tally.balanced());
        assert_eq!(rep.tally.failed_ratio(), 1.0);
        assert!(rep.digest().is_none());
    }

    #[test]
    fn tally_detects_an_unbalanced_complete_run() {
        // A run that claims completion but reports fewer ops than its
        // traces held is caught by the balance check.
        let t = OpsTally::of(Outcome::Complete, 80, 79);
        assert!(!t.balanced());
        let mut sum = OpsTally::default();
        sum.add(OpsTally::of(Outcome::Complete, 80, 80));
        sum.add(OpsTally::of(Outcome::Panicked, 80, 0));
        assert_eq!((sum.attempted, sum.completed, sum.failed), (160, 80, 80));
        assert_eq!(sum.failed_ratio(), 0.5);
    }

    #[test]
    fn digest_repeats_for_a_seed_and_moves_with_it() {
        let a = run_rep(&TINY, 5, false, later()).digest();
        let b = run_rep(&TINY, 5, false, later()).digest();
        let c = run_rep(&TINY, 6, false, later()).digest();
        assert!(a.is_some());
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn traced_run_times_every_step() {
        let rep = run_rep(&TINY, 3, true, later());
        assert_eq!(rep.outcome, Outcome::Complete);
        assert_eq!(rep.step_ns.len() as u64, rep.steps);
        assert!(rep.report.as_ref().is_some_and(|r| r.obs.is_some()));
    }
}
