//! Isolation levels and per-level behaviour flags.
//!
//! The level set mirrors the paper's evaluation (Table 2 plus footnote 6):
//! the engines' *defaults* are Read Committed everywhere, MySQL's nominal
//! "Repeatable Read" actually admits Lost Update (it behaves as Read
//! Committed for writes), and the strongest available levels are Snapshot
//! Isolation (Oracle, SAP HANA) or Serializable (MySQL, PostgreSQL).

use std::fmt;

/// The isolation level a transaction executes under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum IsolationLevel {
    /// Reads see the latest version, committed or not (dirty reads).
    ReadUncommitted,
    /// Each statement reads the latest committed state (Adya PL-2).
    ReadCommitted,
    /// MySQL/InnoDB's "REPEATABLE READ": consistent snapshot for plain
    /// reads, but writes act on the latest committed versions without
    /// validation — Lost Update is observable (paper footnote 6: MySQL
    /// does not provide PL-2.99; see the hermitage test suite).
    MySqlRepeatableRead,
    /// True Repeatable Read (Adya PL-2.99): read locks on items held to
    /// commit; only phantoms remain.
    RepeatableRead,
    /// Snapshot Isolation: transaction-begin snapshot plus
    /// first-committer-wins write validation (Adya PL-SI). Write skew and
    /// predicate-read anomalies remain.
    SnapshotIsolation,
    /// Full serializability via strict two-phase locking with table-level
    /// predicate locks.
    Serializable,
}

impl IsolationLevel {
    /// All levels, weakest first.
    pub const ALL: [IsolationLevel; 6] = [
        IsolationLevel::ReadUncommitted,
        IsolationLevel::ReadCommitted,
        IsolationLevel::MySqlRepeatableRead,
        IsolationLevel::RepeatableRead,
        IsolationLevel::SnapshotIsolation,
        IsolationLevel::Serializable,
    ];

    /// Dense `u8` encoding (index into [`IsolationLevel::ALL`]) for
    /// storing a level in an atomic.
    pub(crate) fn code(self) -> u8 {
        IsolationLevel::ALL
            .iter()
            .position(|l| *l == self)
            .expect("level in ALL") as u8
    }

    /// Parse a level from any spelling the tools and the wire accept,
    /// case-insensitively: the short codes (`RU`, `RC`, `MRR` /
    /// `MYSQL-RR` / `default`, `RR`, `SI` / `snapshot`, `S` / `SER`), the
    /// hyphenated long forms (`read-committed`, ...), and every
    /// [`IsolationLevel::name`].
    pub fn parse(text: &str) -> Option<IsolationLevel> {
        const SPELLINGS: [&[&str]; 6] = [
            &["ru", "read-uncommitted"],
            &["rc", "read-committed"],
            &["mrr", "mysql-rr", "default"],
            &["rr", "repeatable-read"],
            &["si", "snapshot"],
            &["s", "ser"],
        ];
        IsolationLevel::ALL
            .into_iter()
            .zip(SPELLINGS)
            .find(|(level, spellings)| {
                level.name().eq_ignore_ascii_case(text)
                    || spellings.iter().any(|s| s.eq_ignore_ascii_case(text))
            })
            .map(|(level, _)| level)
    }

    /// Whether plain reads use a transaction-long snapshot (vs a
    /// per-statement one).
    pub fn uses_txn_snapshot(self) -> bool {
        matches!(
            self,
            IsolationLevel::MySqlRepeatableRead | IsolationLevel::SnapshotIsolation
        )
    }

    /// Whether reads may observe uncommitted data.
    pub fn reads_uncommitted(self) -> bool {
        self == IsolationLevel::ReadUncommitted
    }

    /// Whether plain reads acquire shared item locks held to commit.
    pub fn read_locks_items(self) -> bool {
        matches!(
            self,
            IsolationLevel::RepeatableRead | IsolationLevel::Serializable
        )
    }

    /// Whether predicate reads acquire a shared table (predicate) lock.
    pub fn read_locks_predicates(self) -> bool {
        self == IsolationLevel::Serializable
    }

    /// Whether writes validate first-committer-wins against the snapshot.
    pub fn validates_write_snapshot(self) -> bool {
        self == IsolationLevel::SnapshotIsolation
    }

    /// Whether this level admits Lost Update under some interleaving.
    pub fn allows_lost_update(self) -> bool {
        matches!(
            self,
            IsolationLevel::ReadUncommitted
                | IsolationLevel::ReadCommitted
                | IsolationLevel::MySqlRepeatableRead
        )
    }

    /// Whether this level admits phantom-read anomalies (including
    /// predicate-based write skew under SI).
    pub fn allows_phantom(self) -> bool {
        self != IsolationLevel::Serializable
    }

    /// The SQL-style display name, as a static string (what
    /// [`fmt::Display`] prints; also used allocation-free by the
    /// observability probes).
    pub fn name(self) -> &'static str {
        match self {
            IsolationLevel::ReadUncommitted => "READ UNCOMMITTED",
            IsolationLevel::ReadCommitted => "READ COMMITTED",
            IsolationLevel::MySqlRepeatableRead => "REPEATABLE READ (MySQL)",
            IsolationLevel::RepeatableRead => "REPEATABLE READ",
            IsolationLevel::SnapshotIsolation => "SNAPSHOT ISOLATION",
            IsolationLevel::Serializable => "SERIALIZABLE",
        }
    }
}

impl fmt::Display for IsolationLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A database profile from the paper's Table 2: which isolation level a
/// popular engine defaults to and the strongest one it offers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DatabaseProfile {
    /// Engine name as the paper gives it.
    pub name: &'static str,
    /// The engine's default isolation level.
    pub default_level: IsolationLevel,
    /// The strongest level the engine offers.
    pub maximum_level: IsolationLevel,
}

/// The four engines of Table 2. MySQL's *nominal* default is REPEATABLE
/// READ, but per footnote 6 its behaviour is Read Committed for the access
/// patterns at issue; we model it with [`IsolationLevel::MySqlRepeatableRead`].
pub const PAPER_DATABASES: [DatabaseProfile; 4] = [
    DatabaseProfile {
        name: "MySQL",
        default_level: IsolationLevel::MySqlRepeatableRead,
        maximum_level: IsolationLevel::Serializable,
    },
    DatabaseProfile {
        name: "Oracle",
        default_level: IsolationLevel::ReadCommitted,
        maximum_level: IsolationLevel::SnapshotIsolation,
    },
    DatabaseProfile {
        name: "Postgres",
        default_level: IsolationLevel::ReadCommitted,
        maximum_level: IsolationLevel::Serializable,
    },
    DatabaseProfile {
        name: "SAP HANA",
        default_level: IsolationLevel::ReadCommitted,
        maximum_level: IsolationLevel::SnapshotIsolation,
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lost_update_envelope_matches_paper() {
        // Lost Update is possible under RC and MySQL-RR, prevented by true
        // RR, SI, and Serializable (paper §4.2.5 and footnote 6).
        assert!(IsolationLevel::ReadCommitted.allows_lost_update());
        assert!(IsolationLevel::MySqlRepeatableRead.allows_lost_update());
        assert!(!IsolationLevel::RepeatableRead.allows_lost_update());
        assert!(!IsolationLevel::SnapshotIsolation.allows_lost_update());
        assert!(!IsolationLevel::Serializable.allows_lost_update());
    }

    #[test]
    fn phantoms_blocked_only_by_serializability() {
        for level in IsolationLevel::ALL {
            assert_eq!(
                level.allows_phantom(),
                level != IsolationLevel::Serializable
            );
        }
    }

    #[test]
    fn parse_round_trips_names_and_wire_codes() {
        // The wire codes are `net::protocol::isolation_code`'s, in ALL order.
        let codes = ["RU", "RC", "MRR", "RR", "SI", "SER"];
        for (level, code) in IsolationLevel::ALL.into_iter().zip(codes) {
            assert_eq!(IsolationLevel::parse(level.name()), Some(level));
            assert_eq!(IsolationLevel::parse(code), Some(level));
            assert_eq!(IsolationLevel::parse(&code.to_lowercase()), Some(level));
        }
        for (alias, level) in [
            ("mysql-rr", IsolationLevel::MySqlRepeatableRead),
            ("default", IsolationLevel::MySqlRepeatableRead),
            ("read-committed", IsolationLevel::ReadCommitted),
            ("snapshot", IsolationLevel::SnapshotIsolation),
            ("s", IsolationLevel::Serializable),
        ] {
            assert_eq!(IsolationLevel::parse(alias), Some(level), "{alias}");
        }
        assert_eq!(IsolationLevel::parse(""), None);
        assert_eq!(IsolationLevel::parse("bogus"), None);
    }

    #[test]
    fn paper_table2_profiles() {
        // Every default is effectively Read Committed (i.e., admits all
        // five level-based anomalies in the paper's findings).
        for p in PAPER_DATABASES {
            assert!(p.default_level.allows_lost_update(), "{}", p.name);
            assert!(p.default_level.allows_phantom(), "{}", p.name);
        }
        // Oracle and HANA max out at SI (1 anomaly remains); MySQL and
        // Postgres reach Serializable (0 remain).
        let si: Vec<_> = PAPER_DATABASES
            .iter()
            .filter(|p| p.maximum_level == IsolationLevel::SnapshotIsolation)
            .map(|p| p.name)
            .collect();
        assert_eq!(si, vec!["Oracle", "SAP HANA"]);
    }
}
