//! # acidrain-static
//!
//! Static 2AD: an execution-free, API-level anomaly audit of the
//! application corpus.
//!
//! The dynamic pipeline (paper §3) lifts anomalies from *observed* query
//! logs — whatever traffic happened to run. This crate removes the
//! traffic: each endpoint is recorded in **one deterministic solo pass**
//! (no scheduler, no concurrency, no flakiness), its statements are
//! abstracted to typed-placeholder templates
//! ([`acidrain_sql::fingerprint`]), and the 2AD witness machinery from
//! `acidrain-core` is run over the resulting *symbolic* units: an
//! abstract history whose operations are statement templates. Because the
//! abstract history already quantifies over all pairwise interleavings of
//! API instances (Theorem 1), the solo recording loses nothing — the
//! detector explores exactly the interleavings the dynamic harness would
//! need luck to produce.
//!
//! The audit runs per isolation level by replaying the level's refinement
//! config (the same one the dynamic detector uses), so the per-app ×
//! per-level report is directly comparable with the dynamic Table-5
//! matrix. The cross-validation suite (`tests/static_superset.rs` at the
//! workspace root) proves the static report is a **superset** of every
//! anomaly the dynamic harness detects, for every app at every level.
//!
//! Every report — this audit, the witness replay and the repair adviser
//! — is one tree, apps → levels → scenarios ([`Report`]), over the
//! per-scenario type its view of the analysis yields; [`render_text`] and
//! [`render_json`] render any of them.
//!
//! ```
//! use acidrain_apps::endpoints::flexcoin_surface;
//! use acidrain_core::AnomalyScope;
//! use acidrain_db::IsolationLevel;
//! use acidrain_static::{audit_surface, render_text, Report};
//!
//! let audit = audit_surface(&flexcoin_surface()).unwrap();
//! let rc = audit.level(IsolationLevel::ReadCommitted).unwrap();
//! assert!(rc.finding_count() > 0, "the transfer endpoint is vulnerable");
//! // transfer is unscoped (no transaction), so its anomalies are
//! // scope-based — Serializable does not remove them (§4.2.5).
//! let ser = audit.level(IsolationLevel::Serializable).unwrap();
//! assert!(ser.outcomes().all(|f| f.scope == AnomalyScope::ScopeBased));
//! let text = render_text(&Report { apps: vec![audit] });
//! assert!(text.contains("flexcoin / exchange @ SERIALIZABLE"));
//! ```

#![warn(missing_docs)]

pub mod audit;
pub mod remediate;
pub mod replay;
pub mod report;
pub mod serialize;
pub mod template;

pub use acidrain_db::{json_escape, Json};
pub use audit::{
    audit_surface, refinement_at, refinement_for, sweep_surface, AppAudit, AuditError, LevelAudit,
    ScenarioAnalysis, ScenarioAudit, SeedRef, StaticAuditReport, StaticFinding,
};
pub use remediate::{
    fix_set_label, remediate_scenario, AppRemedies, Fix, LevelRemedies, RemedyOutcome,
    RemedyReport, ScenarioRemedies,
};
pub use replay::{
    plan_scenario, AppReplay, FindingPlan, LevelReplay, ReplayOutcome, ReplayPlan, ReplayReport,
    ScenarioPlans, ScenarioReplay, SessionScript, Verdict,
};
pub use report::{render_json, render_text, AppReport, LevelReport, Report, ScenarioReport};
pub use serialize::{document, SCHEMA_VERSION};
pub use template::symbolize_trace;
