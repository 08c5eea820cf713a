//! Template extraction: from a recorded solo log to per-endpoint
//! parameterized statement sequences, and from a lifted trace to its
//! symbolic (template-level) form.

use acidrain_core::Trace;
use acidrain_db::LogEntry;
use acidrain_sql::fingerprint::{statement_template, template_of, StatementTemplate};
use acidrain_sql::{ParseError, ParseMemo};

/// One endpoint's parameterized statement sequence, in issue order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EndpointTemplates {
    /// Endpoint (API) name.
    pub api: String,
    /// Templates of every statement the endpoint issued, including
    /// transaction control.
    pub statements: Vec<StatementTemplate>,
}

/// Harvest each endpoint's statement-template sequence from a recorded
/// solo log. Untagged statements are grouped under `"(session)"`.
pub fn endpoint_templates(log: &[LogEntry]) -> Result<Vec<EndpointTemplates>, ParseError> {
    let mut out: Vec<EndpointTemplates> = Vec::new();
    for entry in log {
        let api = entry
            .api
            .as_ref()
            .map(|t| t.name.as_str())
            .unwrap_or("(session)");
        let template = statement_template(&entry.sql)?;
        match out.last_mut() {
            Some(group) if group.api == api => group.statements.push(template),
            _ => out.push(EndpointTemplates {
                api: api.to_string(),
                statements: vec![template],
            }),
        }
    }
    Ok(out)
}

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

#[cfg(test)]
mod tests {
    use super::*;
    use acidrain_db::{ApiTag, StmtOutcome};

    fn entry(seq: u64, api: Option<&str>, sql: &str) -> LogEntry {
        LogEntry {
            seq,
            session: 1,
            api: api.map(|name| ApiTag {
                name: name.to_string(),
                invocation: 0,
            }),
            sql: sql.to_string(),
            outcome: StmtOutcome::Ok,
        }
    }

    #[test]
    fn groups_by_api_and_abstracts_literals() {
        let log = vec![
            entry(
                0,
                Some("add_to_cart"),
                "SELECT qty FROM cart_items WHERE cart_id = 1",
            ),
            entry(
                1,
                Some("add_to_cart"),
                "INSERT INTO cart_items (cart_id, qty) VALUES (1, 2)",
            ),
            entry(
                2,
                Some("checkout"),
                "SELECT qty FROM cart_items WHERE cart_id = 1",
            ),
        ];
        let groups = endpoint_templates(&log).unwrap();
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].api, "add_to_cart");
        assert_eq!(
            groups[0].statements[0].text,
            "SELECT qty FROM cart_items WHERE cart_id = :int"
        );
        assert_eq!(
            groups[0].statements[1].text,
            "INSERT INTO cart_items (cart_id, qty) VALUES (:int, :int)"
        );
        assert_eq!(groups[1].api, "checkout");
    }
}
