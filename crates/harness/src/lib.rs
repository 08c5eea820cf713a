//! # acidrain-harness
//!
//! Attack execution and experiment infrastructure for the ACIDRain
//! reproduction: a deterministic statement-level interleaving scheduler, a
//! threaded stress executor, witness-driven attack drivers with invariant
//! verification, and runners that regenerate every table and figure of the
//! paper's evaluation.

#![warn(missing_docs)]

pub mod adviser;
pub mod attack;
pub mod chaos;
pub mod experiments;
pub mod explore;
pub mod netchaos;
pub mod replay;
pub mod sched;
pub mod stress;
pub mod texttable;

pub use adviser::{advise_all, advise_scenario, advise_surface};
pub use attack::{
    audit_cell, probe_trace, probe_trace_on, run_attack, run_serial_control, statement_index,
    try_audit_cell, AuditDegraded, AuditStage, CellReport, Invariant, Race,
};
pub use chaos::{
    recover_app_store, run_chaos, run_chaos_instrumented, scratch_dir, state_digest, ChaosConfig,
    ChaosReport,
};
pub use explore::{exhaustive, randomized, run_schedule, Exploration, Scenario};
pub use netchaos::{flaky_client_campaign, run_net_chaos, NetChaosConfig, NetChaosReport};
pub use replay::{execute_replay_plan, replay_scenario, replay_surface, ReplayCaches};
pub use sched::{run_deterministic, run_deterministic_on, GatedConn, StepOutcome, Stepper};
pub use stress::{run_concurrent, run_concurrent_watchdog, DelayConn, TaskOutcome};
