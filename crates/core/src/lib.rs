//! # acidrain-core — 2AD (Abstract Anomaly Detection)
//!
//! A from-scratch implementation of the 2AD analysis from *ACIDRain:
//! Concurrency-Related Attacks on Database-Backed Web Applications*
//! (Warszawski & Bailis, SIGMOD 2017), §3 and Appendix A.
//!
//! The pipeline (paper Figure 2):
//!
//! 1. **Trace generation** — a SQL query log tagged by API call
//!    ([`lift::lift_trace`], §3.1.1);
//! 2. **Abstract history generation** — a finite multigraph of operation /
//!    transaction / API nodes with read and write conflict edges,
//!    representing *every* concurrent expansion of the trace
//!    ([`history::AbstractHistory`], §3.1.2);
//! 3. **Witness generation** — non-trivial abstract cycle search over seed
//!    pairs; by Theorem 1, a cycle exists iff some expansion is
//!    non-serializable in that pair ([`detect::Detector`], §3.1.3);
//! 4. **Witness refinement** — isolation-based, `SELECT FOR UPDATE`, and
//!    application-level (session locking, concurrency bounds) restrictions
//!    that remove unachievable witnesses ([`refine::RefinementConfig`],
//!    §3.1.4);
//! 5. Concrete witness schedules rendered per Lemma 4
//!    ([`witness::WitnessTrace`], Figure 5).
//!
//! ```
//! use acidrain_core::prelude::*;
//!
//! // The Figure-1 withdraw endpoint, unscoped: two statements, two
//! // autocommitted transactions.
//! let trace = TraceBuilder::new()
//!     .api("withdraw", vec![
//!         ops::auto(ops::read_key("accounts", &["balance"])),
//!         ops::auto(ops::write("accounts", &["balance"])),
//!     ])
//!     .build();
//! let analyzer = Analyzer::from_trace(trace);
//! let report = analyzer.analyze(&RefinementConfig::none());
//! assert!(report.finding_count() > 0, "overdraft anomaly detected");
//! ```

pub mod detect;
pub mod dot;
pub mod history;
pub mod lift;
pub mod refine;
pub mod report;
pub mod trace;
pub mod witness;

pub use detect::{ColumnTarget, CycleWitness, Detector, Finding};
pub use dot::to_dot;
pub use history::{AbstractHistory, EdgeKind, GraphStats};
pub use lift::{lift_trace, lift_trace_with, LiftError};
pub use refine::{AnomalyPattern, AnomalyScope, RefinementConfig};
pub use report::{AnalysisReport, Analyzer};
pub use trace::{ApiCall, Op, OpKind, Trace, TraceBuilder, Txn};
pub use witness::{statement_fingerprint, WitnessStep, WitnessTrace};

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::detect::{ColumnTarget, Detector, Finding};
    pub use crate::history::AbstractHistory;
    pub use crate::lift::lift_trace;
    pub use crate::refine::{AnomalyPattern, AnomalyScope, RefinementConfig};
    pub use crate::report::{AnalysisReport, Analyzer};
    pub use crate::trace::{ops, Trace, TraceBuilder};
    pub use crate::witness::{statement_fingerprint, WitnessTrace};
}
