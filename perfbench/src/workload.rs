//! The three benchmark workloads. Each is a system configuration plus a
//! synthetic traffic shape; the seed only reaches `generate`, and the
//! simulator receives nothing but the generated traces.

use scorpio::{Protocol, SystemConfig};
use scorpio_workloads::WorkloadParams;

/// One benchmark workload.
#[derive(Clone, Copy)]
pub struct Workload {
    /// Name used on the command line and in metric output.
    pub name: &'static str,
    /// The simulated machine.
    pub config: fn() -> SystemConfig,
    /// The traffic shape, including ops per core.
    pub params: fn() -> WorkloadParams,
}

/// Every workload, in the order the all-workload mode runs them.
pub const ALL: [Workload; 3] = [
    Workload {
        name: "kilocore-burst",
        config: kilocore_config,
        params: uniform_low,
    },
    Workload {
        name: "chip-canneal",
        config: SystemConfig::chip,
        params: canneal,
    },
    Workload {
        name: "dir-unicast",
        config: dir_config,
        params: uniform_med,
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        ALL.iter().copied().find(|w| w.name == name)
    }

    /// The machine for `seed`, with or without the traced run's
    /// observability (histograms, counters and transaction spans).
    pub fn system_config(&self, seed: u64, traced: bool) -> SystemConfig {
        let mut cfg = (self.config)();
        cfg.seed = seed;
        if traced {
            cfg = cfg.with_obs(scorpio::ObsLevel::Counters).with_spans(true);
        }
        cfg
    }

    /// Memory operations one run attempts (every core runs its whole
    /// trace).
    pub fn ops_attempted(&self) -> u64 {
        ((self.params)().ops_per_core * (self.config)().cores()) as u64
    }
}

/// 16×16 SCORPIO mesh, one memory controller per 16 tiles, flat
/// notification.
fn kilocore_config() -> SystemConfig {
    SystemConfig::square(16).with_proportional_mcs()
}

/// 8×8 mesh running the limited-pointer directory protocol (LPD-D).
fn dir_config() -> SystemConfig {
    SystemConfig::square(8).with_protocol(Protocol::LpdDir)
}

/// The `uniform-low` shape of the harness's scaling scenarios: 12-op
/// memory bursts over a mostly private, cache-resident footprint, each
/// followed by a 40 000-cycle synchronized compute phase.
fn uniform_low() -> WorkloadParams {
    WorkloadParams {
        name: "uniform-low",
        ops_per_core: 24,
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

/// The `uniform-med` shape of the harness's scaling scenarios:
/// continuous traffic, half of it to a shared region, 35% writes.
fn uniform_med() -> WorkloadParams {
    WorkloadParams {
        name: "uniform-med",
        ops_per_core: 100,
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

/// The `canneal` preset: 70% shared, 45% migratory, continuous.
fn canneal() -> WorkloadParams {
    WorkloadParams::by_name("canneal")
        .expect("canneal is a registered preset")
        .with_ops(100)
}
