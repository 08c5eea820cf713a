//! The document envelope shared by every machine-readable report this
//! crate emits (`acidrain audit | replay | advise --json`): [`document`]
//! stamps [`SCHEMA_VERSION`] and the report kind on the top-level object
//! so consumers can dispatch without sniffing the shape. The value tree
//! and its rendering rules are `acidrain_obs::json`, reached through
//! `acidrain_db`'s re-export.

use acidrain_db::{field, Json};

/// Version stamp shared by every JSON report (`"schema_version"` key on
/// the top-level object). Bump when any report's shape changes.
pub const SCHEMA_VERSION: u64 = 1;

/// Render a top-level report document: an object led by
/// `"schema_version"` and `"kind"`, followed by `fields`.
pub fn document(kind: &str, fields: Vec<(String, Json)>) -> String {
    let mut obj = vec![
        field("schema_version", Json::Num(SCHEMA_VERSION)),
        field("kind", Json::str(kind)),
    ];
    obj.extend(fields);
    Json::Obj(obj).render()
}
