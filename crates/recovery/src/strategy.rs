//! The design axis: the three MPI recovery strategies compared by MATCH plus the
//! beyond-the-paper ULFM *shrinking* mode.
//!
//! The axis is split into three pieces so recovery semantics live behind one
//! interface instead of being smeared across the driver, the figures and the cache:
//!
//! * [`RecoveryStrategy`] — the tiny `Copy` tag that experiment identities, caches
//!   and figures carry around;
//! * [`DesignDescriptor`] — the data-carrying description of a design's static
//!   properties (names, programming effort, whether the world shrinks, and the
//!   [`HealthyRuntime`] that fixes its background interference);
//! * [`RecoveryProtocol`] — the behavioural half (the modelled MPI-recovery cost),
//!   with one implementation per design.
//!
//! Adding a design means adding one protocol impl and one `ALL` entry; everything
//! downstream enumerates the axis through `RecoveryStrategy::ALL` (or the
//! `MATCH_SHRINK`-aware registry in `match-core`).

use mpisim::{MachineModel, SimTime};

/// The MPI recovery strategy of a fault-tolerance design.
///
/// Combined with FTI checkpointing these form the paper's three designs
/// `RESTART-FTI`, `ULFM-FTI` and `REINIT-FTI`, plus the beyond-the-paper
/// `SHRINK-FTI` shrinking mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RecoveryStrategy {
    /// Tear the job down and restart it from the scheduler (the baseline).
    Restart,
    /// ULFM global non-shrinking recovery: revoke, shrink, spawn, merge, agree.
    Ulfm,
    /// Reinit runtime-level global restart.
    Reinit,
    /// ULFM shrinking recovery: revoke, shrink, agree — the failed processes are
    /// permanently retired and the application continues on the survivor
    /// communicator after redistributing the protected data.
    Shrink,
}

/// The MPI runtime a design runs on while no failure is being handled. Until the
/// first failure, a design affects a run only through this runtime's background
/// interference, so two designs on the same runtime simulate identical
/// failure-free runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HealthyRuntime {
    /// Plain MPI (RESTART, REINIT): nothing runs until a failure happens.
    PlainMpi,
    /// The ULFM runtime (ULFM, SHRINK): its heartbeat failure detector and MPI-call
    /// interposition run always.
    Ulfm,
}

impl HealthyRuntime {
    /// The fractional interference this runtime imposes on application execution
    /// and on checkpoint I/O while no failure is being handled, as
    /// `(app_fraction, io_fraction)`.
    pub fn background_interference(self, machine: &MachineModel, nprocs: usize) -> (f64, f64) {
        match self {
            HealthyRuntime::PlainMpi => (0.0, 0.0),
            HealthyRuntime::Ulfm => (machine.ulfm_app_overhead(nprocs), machine.ulfm_io_overhead),
        }
    }

    /// The first design of [`RecoveryStrategy::ALL`] on this runtime: the one whose
    /// failure-free run stands for every design on the runtime.
    pub fn representative(self) -> RecoveryStrategy {
        match self {
            HealthyRuntime::PlainMpi => RecoveryStrategy::Restart,
            HealthyRuntime::Ulfm => RecoveryStrategy::Ulfm,
        }
    }
}

/// The static, data-carrying half of a design: everything about it that is a fact
/// rather than a computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DesignDescriptor {
    /// The design name used in the figures (e.g. `"REINIT-FTI"`).
    pub design_name: &'static str,
    /// A short lowercase identifier (e.g. `"reinit"`).
    pub short_name: &'static str,
    /// Approximate lines of code needed to add the design to a proxy application
    /// (the paper reports Reinit < 5, ULFM > 200, Restart 0 beyond FTI itself;
    /// shrinking additionally needs the data-redistribution logic).
    pub programming_effort_loc: usize,
    /// Whether recovery retires the failed ranks and continues on the survivor
    /// communicator (`true`), or restores the original world size (`false`).
    pub shrinks_world: bool,
    /// The runtime the design runs on while healthy.
    pub healthy_runtime: HealthyRuntime,
}

/// The behavioural half of a design: what its MPI-level recovery costs when a
/// failure strikes (how it loads the machine while healthy is its descriptor's
/// [`HealthyRuntime`]).
pub trait RecoveryProtocol: Sync {
    /// The static description of this design.
    fn descriptor(&self) -> &'static DesignDescriptor;

    /// The modelled MPI-recovery cost for a job of `nprocs` processes of which
    /// `nfailed` failed, *excluding* the failure-detection latency (which is
    /// identical for all designs and added by the driver).
    fn recovery_cost(&self, machine: &MachineModel, nprocs: usize, nfailed: usize) -> SimTime;
}

struct RestartProtocol;
struct UlfmProtocol;
struct ReinitProtocol;
struct ShrinkProtocol;

static RESTART_DESCRIPTOR: DesignDescriptor = DesignDescriptor {
    design_name: "RESTART-FTI",
    short_name: "restart",
    programming_effort_loc: 0,
    shrinks_world: false,
    healthy_runtime: HealthyRuntime::PlainMpi,
};
static ULFM_DESCRIPTOR: DesignDescriptor = DesignDescriptor {
    design_name: "ULFM-FTI",
    short_name: "ulfm",
    programming_effort_loc: 200,
    shrinks_world: false,
    healthy_runtime: HealthyRuntime::Ulfm,
};
static REINIT_DESCRIPTOR: DesignDescriptor = DesignDescriptor {
    design_name: "REINIT-FTI",
    short_name: "reinit",
    programming_effort_loc: 5,
    shrinks_world: false,
    healthy_runtime: HealthyRuntime::PlainMpi,
};
static SHRINK_DESCRIPTOR: DesignDescriptor = DesignDescriptor {
    design_name: "SHRINK-FTI",
    short_name: "shrink",
    programming_effort_loc: 250,
    shrinks_world: true,
    healthy_runtime: HealthyRuntime::Ulfm,
};

impl RecoveryProtocol for RestartProtocol {
    fn descriptor(&self) -> &'static DesignDescriptor {
        &RESTART_DESCRIPTOR
    }
    fn recovery_cost(&self, machine: &MachineModel, nprocs: usize, _nfailed: usize) -> SimTime {
        machine.restart_recovery_cost(nprocs)
    }
}

impl RecoveryProtocol for UlfmProtocol {
    fn descriptor(&self) -> &'static DesignDescriptor {
        &ULFM_DESCRIPTOR
    }
    fn recovery_cost(&self, machine: &MachineModel, nprocs: usize, nfailed: usize) -> SimTime {
        machine.ulfm_recovery_cost(nprocs, nfailed.max(1))
    }
}

impl RecoveryProtocol for ReinitProtocol {
    fn descriptor(&self) -> &'static DesignDescriptor {
        &REINIT_DESCRIPTOR
    }
    fn recovery_cost(&self, machine: &MachineModel, nprocs: usize, _nfailed: usize) -> SimTime {
        machine.reinit_recovery_cost(nprocs)
    }
}

impl RecoveryProtocol for ShrinkProtocol {
    fn descriptor(&self) -> &'static DesignDescriptor {
        &SHRINK_DESCRIPTOR
    }
    fn recovery_cost(&self, machine: &MachineModel, nprocs: usize, _nfailed: usize) -> SimTime {
        // Revoke + shrink + agree only: no spawn and no merge, because the failed
        // processes are never replaced. The data-redistribution traffic is *not*
        // part of this lump cost — it is sent as real simulated messages by the FTI
        // layer so link domains are charged faithfully.
        machine.ulfm_revoke_cost(nprocs)
            + machine.ulfm_shrink_cost(nprocs)
            + machine.ulfm_agree_cost(nprocs)
    }
}

impl RecoveryStrategy {
    /// All strategies in figure order: the paper's three designs first, then the
    /// beyond-the-paper shrinking mode.
    pub const ALL: [RecoveryStrategy; 4] = [
        RecoveryStrategy::Restart,
        RecoveryStrategy::Ulfm,
        RecoveryStrategy::Reinit,
        RecoveryStrategy::Shrink,
    ];

    /// The paper's original three designs, in figure order, without `SHRINK-FTI`.
    pub const PAPER: [RecoveryStrategy; 3] = [
        RecoveryStrategy::Restart,
        RecoveryStrategy::Ulfm,
        RecoveryStrategy::Reinit,
    ];

    /// The behavioural implementation of this design.
    pub fn protocol(&self) -> &'static dyn RecoveryProtocol {
        match self {
            RecoveryStrategy::Restart => &RestartProtocol,
            RecoveryStrategy::Ulfm => &UlfmProtocol,
            RecoveryStrategy::Reinit => &ReinitProtocol,
            RecoveryStrategy::Shrink => &ShrinkProtocol,
        }
    }

    /// The static description of this design.
    pub fn descriptor(&self) -> &'static DesignDescriptor {
        self.protocol().descriptor()
    }

    /// The design name used in the paper's figures (e.g. `"REINIT-FTI"`).
    pub fn design_name(&self) -> &'static str {
        self.descriptor().design_name
    }

    /// A short lowercase identifier (`"restart"`, `"ulfm"`, `"reinit"`, `"shrink"`).
    pub fn short_name(&self) -> &'static str {
        self.descriptor().short_name
    }

    /// Whether recovery retires the failed ranks and continues on the survivor
    /// communicator instead of restoring the original world size.
    pub fn shrinks_world(&self) -> bool {
        self.descriptor().shrinks_world
    }

    /// The runtime this design runs on while healthy.
    pub fn healthy_runtime(&self) -> HealthyRuntime {
        self.descriptor().healthy_runtime
    }

    /// The fractional interference this strategy imposes on application execution and
    /// on checkpoint I/O while *no* failure is being handled: its
    /// [`HealthyRuntime`]'s. Only the ULFM-based designs run background work
    /// (heartbeat failure detector and MPI-call interposition); Restart and Reinit
    /// are free until a failure happens.
    pub fn background_interference(&self, machine: &MachineModel, nprocs: usize) -> (f64, f64) {
        self.healthy_runtime()
            .background_interference(machine, nprocs)
    }

    /// The modelled MPI-recovery cost of this strategy for a job of `nprocs` processes
    /// of which `nfailed` failed, *excluding* the failure-detection latency (which is
    /// identical for all strategies and added by the driver).
    pub fn recovery_cost(&self, machine: &MachineModel, nprocs: usize, nfailed: usize) -> SimTime {
        self.protocol().recovery_cost(machine, nprocs, nfailed)
    }

    /// Approximate lines of code the paper reports for adding this design to a proxy
    /// application. Exposed for the suite's programming-effort table.
    pub fn programming_effort_loc(&self) -> usize {
        self.descriptor().programming_effort_loc
    }
}

impl std::fmt::Display for RecoveryStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.design_name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_match_the_paper() {
        assert_eq!(RecoveryStrategy::Restart.design_name(), "RESTART-FTI");
        assert_eq!(RecoveryStrategy::Ulfm.design_name(), "ULFM-FTI");
        assert_eq!(RecoveryStrategy::Reinit.design_name(), "REINIT-FTI");
        assert_eq!(RecoveryStrategy::Shrink.design_name(), "SHRINK-FTI");
        assert_eq!(RecoveryStrategy::Reinit.to_string(), "REINIT-FTI");
        assert_eq!(RecoveryStrategy::Ulfm.short_name(), "ulfm");
        assert_eq!(RecoveryStrategy::Shrink.short_name(), "shrink");
        assert_eq!(RecoveryStrategy::ALL.len(), 4);
        // The paper's three designs come first so figure ordering is unchanged, and
        // they are exactly the non-shrinking prefix of the axis.
        assert_eq!(RecoveryStrategy::ALL[..3], RecoveryStrategy::PAPER);
        assert_eq!(RecoveryStrategy::ALL[3], RecoveryStrategy::Shrink);
        assert!(RecoveryStrategy::PAPER.iter().all(|s| !s.shrinks_world()));
        assert!(RecoveryStrategy::Shrink.shrinks_world());
    }

    #[test]
    fn only_the_ulfm_runtime_has_background_interference() {
        let m = MachineModel::default();
        for p in [64, 512] {
            let (app, io) = RecoveryStrategy::Ulfm.background_interference(&m, p);
            assert!(app > 0.0 && io > 0.0);
            // Shrink runs on the same ULFM runtime and pays the same overhead.
            assert_eq!(
                RecoveryStrategy::Shrink.background_interference(&m, p),
                (app, io)
            );
            assert_eq!(
                RecoveryStrategy::Reinit.background_interference(&m, p),
                (0.0, 0.0)
            );
            assert_eq!(
                RecoveryStrategy::Restart.background_interference(&m, p),
                (0.0, 0.0)
            );
        }
        // Each design pays exactly its healthy runtime's interference.
        for s in RecoveryStrategy::ALL {
            let runtime = s.healthy_runtime();
            assert_eq!(runtime.representative().healthy_runtime(), runtime);
            for p in [4, 64, 512] {
                assert_eq!(
                    s.background_interference(&m, p),
                    runtime.background_interference(&m, p),
                    "{s} at {p} procs"
                );
            }
        }
        assert_eq!(
            RecoveryStrategy::Reinit.healthy_runtime(),
            HealthyRuntime::PlainMpi
        );
        assert_eq!(
            RecoveryStrategy::Shrink.healthy_runtime(),
            HealthyRuntime::Ulfm
        );
        // ULFM interference grows with scale.
        let (a64, _) = RecoveryStrategy::Ulfm.background_interference(&m, 64);
        let (a512, _) = RecoveryStrategy::Ulfm.background_interference(&m, 512);
        assert!(a512 > a64);
    }

    #[test]
    fn each_runtime_is_represented_by_its_first_design() {
        for runtime in [HealthyRuntime::PlainMpi, HealthyRuntime::Ulfm] {
            let first = RecoveryStrategy::ALL
                .into_iter()
                .find(|s| s.healthy_runtime() == runtime);
            assert_eq!(Some(runtime.representative()), first, "{runtime:?}");
        }
    }

    #[test]
    fn recovery_cost_ordering_matches_the_paper() {
        let m = MachineModel::default();
        for p in [64, 128, 256, 512] {
            let restart = RecoveryStrategy::Restart.recovery_cost(&m, p, 1);
            let ulfm = RecoveryStrategy::Ulfm.recovery_cost(&m, p, 1);
            let reinit = RecoveryStrategy::Reinit.recovery_cost(&m, p, 1);
            let shrink = RecoveryStrategy::Shrink.recovery_cost(&m, p, 1);
            assert!(reinit < ulfm, "at {p} procs");
            assert!(ulfm < restart, "at {p} procs");
            // The shrink protocol skips spawn + merge, so its lump MPI cost is
            // strictly below non-shrinking ULFM (redistribution is charged
            // separately as real messages).
            assert!(shrink < ulfm, "at {p} procs");
            assert!(shrink.as_secs() > 0.0, "at {p} procs");
        }
        // Reinit is scale-independent, ULFM is not.
        let m = MachineModel::default();
        let reinit_growth = RecoveryStrategy::Reinit.recovery_cost(&m, 512, 1).as_secs()
            / RecoveryStrategy::Reinit.recovery_cost(&m, 64, 1).as_secs();
        let ulfm_growth = RecoveryStrategy::Ulfm.recovery_cost(&m, 512, 1).as_secs()
            / RecoveryStrategy::Ulfm.recovery_cost(&m, 64, 1).as_secs();
        assert!(reinit_growth < 1.1);
        assert!(ulfm_growth > 2.0);
    }

    #[test]
    fn programming_effort_reflects_the_paper() {
        assert!(
            RecoveryStrategy::Ulfm.programming_effort_loc()
                >= 40 * RecoveryStrategy::Reinit.programming_effort_loc()
        );
        assert_eq!(RecoveryStrategy::Restart.programming_effort_loc(), 0);
        // Shrinking needs everything non-shrinking ULFM needs plus redistribution.
        assert!(
            RecoveryStrategy::Shrink.programming_effort_loc()
                > RecoveryStrategy::Ulfm.programming_effort_loc()
        );
    }
}
