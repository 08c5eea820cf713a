//! The golden-file check shared by the report golden tests of
//! `acidrain-static` and `acidrain-harness`. Every golden lives in
//! `crates/static/tests/golden/`; both crates are siblings under
//! `crates/`, so one relative path reaches it from either manifest.
//!
//! Regenerate after an intentional detector, engine or renderer change
//! with `UPDATE_GOLDEN=1` on the test run.

use std::path::PathBuf;

/// Compare `rendered` with the golden file `name`, or overwrite the file
/// with it when `UPDATE_GOLDEN` is set.
pub fn check_golden(name: &str, rendered: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../static/tests/golden")
        .join(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, rendered).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{}: {e}; run with UPDATE_GOLDEN=1 to create",
            path.display()
        )
    });
    assert_eq!(
        rendered,
        expected,
        "{name} drifted from {} (rerun with UPDATE_GOLDEN=1 if the change is intentional)",
        path.display()
    );
}
