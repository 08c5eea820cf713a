//! Per-table ordered indexes over unique and declared-indexed columns.
//!
//! An index lives inside its table's [`crate::storage::TableData`], so
//! every maintenance step is naturally covered by the table write latch
//! the mutating statement already holds. Each indexed column owns **one**
//! ordered set of `(key, slot)` entries, and it is deliberately a
//! **visibility-agnostic superset**: `(k, slot)` is present whenever *any*
//! version in the slot's chain carries a value with key `k` for the
//! column — regardless of commit status or snapshot bounds. Probes
//! therefore return candidate slots only; the caller runs the statement's
//! normal visibility rule and predicate over them, which keeps every
//! isolation level's read semantics byte-identical to the full-scan path.
//!
//! Maintenance points:
//!
//! * version **create** (INSERT new slot, UPDATE appending a version) —
//!   the slot is inserted under the new values' keys (a set: re-inserting
//!   an entry an older version already made is a no-op);
//! * version **end** (DELETE / the superseded half of UPDATE) — nothing:
//!   the ended version stays in the chain, so its index entries stay too
//!   (superset invariant);
//! * **rollback** of a `Created` undo record — the removed version's
//!   entries are removed, unless another version of the same slot still
//!   carries the key.
//!
//! There is one probe, over an *inclusive* interval `[lower, upper]` with
//! either side optional; `col = k` is the interval `[k, k]`. Callers widen
//! exclusive bounds to inclusive (a superset) and re-verify candidates
//! against the exact predicate. Keys order numerics before strings
//! ([`IndexKey`]), and [`Value::compare`] never orders a string against a
//! numeric, so a missing bound is the edge of the *present* bound's
//! keyspace: `qty > 5` stops before the first string key, `s <= 'm'`
//! starts at the empty string. Bounds from different keyspaces match
//! nothing.
//!
//! Probes return slots in **ascending slot order**, deduplicated. That
//! makes row-lock acquisition order, result order, and therefore abstract
//! histories and seeded chaos digests identical to the full-scan path,
//! which iterates slots in the same order.

use std::collections::BTreeSet;
use std::ops::Bound;

use crate::value::Value;

/// An orderable, equality-compatible rendering of a [`Value`].
///
/// Two values that compare SQL-equal must map to the same key, and the
/// mapping must be monotone in [`Value::compare`] order; distinct values
/// *may* collide (the caller re-verifies candidates against the
/// predicate), but SQL-equal values must never map apart. Numerics
/// (`Int`, `Float`, `Bool`) compare through `f64` coercion in
/// [`Value::compare`], so they all key on their `f64` rendering; strings
/// key on themselves. `NULL` and `NaN` have no key — they compare to
/// nothing, so a probe bounded by one matches no rows, exactly like the
/// scan path. The derived order puts every `Num` before every `Str`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum IndexKey {
    /// The value's `f64` rendering.
    Num(NumKey),
    /// A string value, keyed exactly.
    Str(String),
}

/// The key `v` indexes and probes under, if it has one.
pub fn index_key(v: &Value) -> Option<IndexKey> {
    let f = match v {
        Value::Int(i) => *i as f64,
        Value::Float(f) => *f,
        Value::Bool(b) => i64::from(*b) as f64,
        Value::Str(s) => return Some(IndexKey::Str(s.clone())),
        Value::Null => return None,
    };
    if f.is_nan() {
        return None;
    }
    Some(IndexKey::Num(NumKey(if f == 0.0 { 0.0 } else { f })))
}

/// A numeric key: an `f64` (`-0.0` normalized to `0.0`, `NaN` never
/// keyed), totally ordered via [`f64::total_cmp`] — which on such values
/// *is* SQL comparison order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NumKey(f64);

impl Eq for NumKey {}

impl Ord for NumKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl PartialOrd for NumKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The indexes of one table: one ordered set per indexed column.
#[derive(Debug, Clone, Default)]
pub struct TableIndexes {
    /// Indexed column positions, ascending.
    columns: Vec<usize>,
    /// `(key, slot)` entries, parallel to `columns`.
    entries: Vec<BTreeSet<(IndexKey, usize)>>,
}

impl TableIndexes {
    /// Indexes over the given column positions (empty = no indexes).
    pub fn new(mut columns: Vec<usize>) -> Self {
        columns.sort_unstable();
        columns.dedup();
        let entries = columns.iter().map(|_| BTreeSet::new()).collect();
        TableIndexes { columns, entries }
    }

    /// Whether `column` is index-backed.
    pub fn covers(&self, column: usize) -> bool {
        self.columns.binary_search(&column).is_ok()
    }

    /// The indexed column positions, ascending (used to rebuild indexes
    /// from scratch when recovery installs a snapshot).
    pub fn indexed_columns(&self) -> &[usize] {
        &self.columns
    }

    /// Record that `slot` now has a version carrying `values`.
    pub fn add(&mut self, slot: usize, values: &[Value]) {
        for (entries, &col) in self.entries.iter_mut().zip(&self.columns) {
            if let Some(key) = values.get(col).and_then(index_key) {
                entries.insert((key, slot));
            }
        }
    }

    /// Unwind the entries `add` created for a rolled-back version.
    /// `remaining` yields the value vectors of the versions still in the
    /// slot's chain; an entry survives if any of them carries the same
    /// key.
    pub fn unwind<'a>(
        &mut self,
        slot: usize,
        removed: &[Value],
        remaining: impl Iterator<Item = &'a [Value]> + Clone,
    ) {
        for (entries, &col) in self.entries.iter_mut().zip(&self.columns) {
            let Some(key) = removed.get(col).and_then(index_key) else {
                continue;
            };
            let still_carried = remaining
                .clone()
                .any(|values| values.get(col).and_then(index_key).as_ref() == Some(&key));
            if !still_carried {
                entries.remove(&(key, slot));
            }
        }
    }

    /// Candidate slots whose chains may carry a value in the *inclusive*
    /// interval `[lower, upper]` for `column`, in ascending slot order; a
    /// missing bound is the edge of the other bound's keyspace, and
    /// `lower == upper` is the point lookup. `None` when the column is not
    /// indexed or both bounds are absent — the caller must fall back to a
    /// full scan. `Some(vec![])` when the interval can match nothing: a
    /// `NULL` / `NaN` bound (comparisons with them are never true), bounds
    /// from different keyspaces (a string never orders against a numeric)
    /// or an inverted range.
    pub fn probe(
        &self,
        column: usize,
        lower: Option<&Value>,
        upper: Option<&Value>,
    ) -> Option<Vec<usize>> {
        use Bound::{Excluded, Included, Unbounded};
        let entries = &self.entries[self.columns.binary_search(&column).ok()?];
        let (lo, hi) = match (lower.map(index_key), upper.map(index_key)) {
            (None, None) => return None,
            (Some(None), _) | (_, Some(None)) => return Some(Vec::new()),
            (lo, hi) => (lo.flatten(), hi.flatten()),
        };
        let numeric = |k: &IndexKey| matches!(k, IndexKey::Num(_));
        if let (Some(lo), Some(hi)) = (&lo, &hi) {
            // An inverted range would also panic `BTreeSet::range`.
            if numeric(lo) != numeric(hi) || lo > hi {
                return Some(Vec::new());
            }
        }
        let point = lo == hi;
        let in_nums = lo.as_ref().or(hi.as_ref()).is_some_and(numeric);
        let least_str = || (IndexKey::Str(String::new()), 0);
        let start = match lo {
            Some(key) => Included((key, 0)),
            None if in_nums => Unbounded,
            None => Included(least_str()),
        };
        let end = match hi {
            Some(key) => Included((key, usize::MAX)),
            None if in_nums => Excluded(least_str()),
            None => Unbounded,
        };
        let mut slots: Vec<usize> = entries.range((start, end)).map(|&(_, slot)| slot).collect();
        // One key's entries are already ascending by slot and distinct;
        // across keys a slot recurs once per key its chain carries.
        if !point {
            slots.sort_unstable();
            slots.dedup();
        }
        Some(slots)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sql_equal_values_share_a_key() {
        assert_eq!(index_key(&Value::Int(2)), index_key(&Value::Float(2.0)));
        assert_eq!(index_key(&Value::Bool(true)), index_key(&Value::Int(1)));
        assert_eq!(
            index_key(&Value::Float(-0.0)),
            index_key(&Value::Int(0)),
            "-0.0 and 0 compare equal and must share a key"
        );
        assert_ne!(index_key(&Value::Int(1)), index_key(&Value::Int(2)));
        assert_ne!(
            index_key(&Value::Str("1".into())),
            index_key(&Value::Int(1)),
            "strings never compare equal to numerics"
        );
        assert_eq!(index_key(&Value::Null), None);
        assert_eq!(index_key(&Value::Float(f64::NAN)), None);
    }

    /// `column = value`: the interval `[value, value]`.
    fn point(idx: &TableIndexes, column: usize, value: Value) -> Option<Vec<usize>> {
        idx.probe(column, Some(&value), Some(&value))
    }

    fn s(text: &str) -> Value {
        Value::Str(text.into())
    }

    #[test]
    fn add_probe_roundtrip_in_ascending_order() {
        let mut idx = TableIndexes::new(vec![0]);
        idx.add(7, &[Value::Int(5)]);
        idx.add(3, &[Value::Int(5)]);
        idx.add(4, &[Value::Int(6)]);
        assert_eq!(point(&idx, 0, Value::Int(5)), Some(vec![3, 7]));
        assert_eq!(point(&idx, 0, Value::Float(5.0)), Some(vec![3, 7]));
        assert_eq!(point(&idx, 0, Value::Int(9)), Some(vec![]));
        assert_eq!(point(&idx, 0, Value::Null), Some(vec![]));
        assert_eq!(point(&idx, 1, Value::Int(5)), None, "unindexed column");
    }

    #[test]
    fn range_probe_spans_numeric_keyspace() {
        let mut idx = TableIndexes::new(vec![0]);
        idx.add(0, &[Value::Int(10)]);
        idx.add(1, &[Value::Int(20)]);
        idx.add(2, &[Value::Float(15.5)]);
        idx.add(3, &[Value::Int(30)]);
        idx.add(4, &[s("20")]);
        // Inclusive both-bounds range; the string "20" is a different
        // keyspace and never matches a numeric range.
        assert_eq!(
            idx.probe(0, Some(&Value::Int(10)), Some(&Value::Int(20))),
            Some(vec![0, 1, 2])
        );
        // Half-open ranges.
        assert_eq!(idx.probe(0, Some(&Value::Int(16)), None), Some(vec![1, 3]));
        assert_eq!(
            idx.probe(0, None, Some(&Value::Float(15.5))),
            Some(vec![0, 2])
        );
        // Unindexed column and no bounds at all: fall back to the scan.
        assert_eq!(idx.probe(1, Some(&Value::Int(0)), None), None);
        assert_eq!(idx.probe(0, None, None), None);
        // NULL bound, mixed keyspaces, inverted range: provably empty.
        assert_eq!(
            idx.probe(0, Some(&Value::Null), Some(&Value::Int(20))),
            Some(vec![])
        );
        assert_eq!(
            idx.probe(0, Some(&Value::Int(0)), Some(&s("z"))),
            Some(vec![])
        );
        assert_eq!(
            idx.probe(0, Some(&s("a")), Some(&Value::Int(99))),
            Some(vec![])
        );
        assert_eq!(
            idx.probe(0, Some(&Value::Int(20)), Some(&Value::Int(10))),
            Some(vec![])
        );
    }

    #[test]
    fn range_probe_spans_string_keyspace() {
        let mut idx = TableIndexes::new(vec![0]);
        idx.add(0, &[s("apple")]);
        idx.add(1, &[s("mango")]);
        idx.add(2, &[s("zebra")]);
        idx.add(3, &[Value::Int(5)]);
        assert_eq!(
            idx.probe(0, Some(&s("apple")), Some(&s("mango"))),
            Some(vec![0, 1])
        );
        assert_eq!(idx.probe(0, Some(&s("n")), None), Some(vec![2]));
        assert_eq!(idx.probe(0, Some(&s("n")), Some(&s("b"))), Some(vec![]));
    }

    #[test]
    fn a_missing_bound_is_the_edge_of_the_present_bounds_keyspace() {
        let mut idx = TableIndexes::new(vec![0]);
        idx.add(0, &[Value::Int(3)]);
        idx.add(1, &[Value::Float(f64::INFINITY)]);
        idx.add(2, &[s("")]);
        idx.add(3, &[s("abc")]);
        idx.add(4, &[s("zebra")]);
        idx.add(5, &[Value::Float(f64::NEG_INFINITY)]);
        // `qty > 5` stops before the first string key ...
        assert_eq!(idx.probe(0, Some(&Value::Int(5)), None), Some(vec![1]));
        // ... `qty < 5` starts at the least numeric ...
        assert_eq!(idx.probe(0, None, Some(&Value::Int(5))), Some(vec![0, 5]));
        // ... `s >= ''` and `s <= 'm'` include the empty string ...
        assert_eq!(idx.probe(0, Some(&s("")), None), Some(vec![2, 3, 4]));
        assert_eq!(idx.probe(0, None, Some(&s("m"))), Some(vec![2, 3]));
        // ... and neither returns a numeric-keyed slot.
        assert_eq!(idx.probe(0, None, Some(&s(""))), Some(vec![2]));
    }

    #[test]
    fn a_slot_keyed_twice_in_a_range_comes_back_once_in_slot_order() {
        let mut idx = TableIndexes::new(vec![0]);
        // Slot 9 carries 1 then 4 (an UPDATE appended a version); slot 2
        // sits between them in key order.
        idx.add(9, &[Value::Int(1)]);
        idx.add(2, &[Value::Int(3)]);
        idx.add(9, &[Value::Int(4)]);
        assert_eq!(
            idx.probe(0, Some(&Value::Int(0)), Some(&Value::Int(5))),
            Some(vec![2, 9])
        );
    }

    #[test]
    fn range_maps_follow_add_and_unwind() {
        let mut idx = TableIndexes::new(vec![0]);
        let vals = vec![Value::Int(7)];
        idx.add(1, &vals);
        assert_eq!(
            idx.probe(0, Some(&Value::Int(0)), Some(&Value::Int(10))),
            Some(vec![1])
        );
        idx.unwind(1, &vals, std::iter::empty());
        assert_eq!(
            idx.probe(0, Some(&Value::Int(0)), Some(&Value::Int(10))),
            Some(vec![])
        );
    }

    #[test]
    fn unwind_respects_surviving_versions() {
        let mut idx = TableIndexes::new(vec![0]);
        let old = vec![Value::Int(5)];
        let new = vec![Value::Int(5)];
        idx.add(2, &old);
        idx.add(2, &new);
        // Rolling back the new version: the old one still carries key 5.
        idx.unwind(2, &new, std::iter::once(old.as_slice()));
        assert_eq!(point(&idx, 0, Value::Int(5)), Some(vec![2]));
        // Rolling back the old one too: the entry goes away.
        idx.unwind(2, &old, std::iter::empty());
        assert_eq!(point(&idx, 0, Value::Int(5)), Some(vec![]));
    }
}
