//! Template extraction: from a lifted trace to its symbolic
//! (template-level) form.

use acidrain_core::Trace;
use acidrain_sql::fingerprint::template_of;
use acidrain_sql::{ParseError, ParseMemo};

/// Rewrite every operation of a lifted trace to its statement template,
/// turning the trace into the symbolic unit the static audit analyzes.
///
/// Only the rendered SQL changes; the operations' read/write footprints
/// (what conflict edges and detection depend on) are untouched, so the
/// abstract history built from the symbolized trace is identical to the
/// concrete one — but every witness schedule now renders provenance down
/// to the statement template.
pub fn symbolize_trace(trace: &mut Trace) -> Result<(), ParseError> {
    symbolize_trace_with(trace, &ParseMemo::new())
}

/// [`symbolize_trace`], parsing each statement text through `memo` (the
/// one the trace was lifted with already holds every text).
pub(crate) fn symbolize_trace_with(trace: &mut Trace, memo: &ParseMemo) -> Result<(), ParseError> {
    for api in &mut trace.api_calls {
        for txn in &mut api.txns {
            for op in &mut txn.ops {
                op.sql = template_of(&*memo.parse(&op.sql)?).text;
            }
        }
    }
    Ok(())
}
