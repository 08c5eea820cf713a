//! Property tests: AST → SQL text → AST round-trips, read/write-set
//! extraction invariants, the transaction-control gate's exactness and
//! the executor's access-kind shortcut, over randomly generated
//! statements.
//!
//! Three properties also have `#[ignore]`d `*_high_case` twins at 4 096
//! cases (the shim seeds by test name, so they reach new inputs); run them
//! in release:
//! `cargo test --release -q -p acidrain-sql --test proptest_roundtrip -- --ignored`.

use proptest::prelude::*;

use acidrain_sql::ast::*;
use acidrain_sql::may_be_transaction_control;
use acidrain_sql::parser::parse_statement;
use acidrain_sql::rwset::{select_access_kind, statement_accesses, AccessKind, EXISTS_COLUMN};
use acidrain_sql::schema::{ColumnDef, ColumnType, Schema, TableSchema};

fn ident() -> impl Strategy<Value = String> {
    // Lowercase identifiers that are not dialect keywords.
    "[a-z][a-z0-9_]{0,8}".prop_filter("not a keyword", |s| {
        !matches!(
            s.to_ascii_uppercase().as_str(),
            "SELECT"
                | "FROM"
                | "WHERE"
                | "INSERT"
                | "UPDATE"
                | "DELETE"
                | "SET"
                | "VALUES"
                | "INTO"
                | "AND"
                | "OR"
                | "NOT"
                | "ORDER"
                | "BY"
                | "LIMIT"
                | "JOIN"
                | "INNER"
                | "ON"
                | "COMMIT"
                | "BEGIN"
                | "ROLLBACK"
                | "START"
                | "FOR"
                | "AS"
                | "IN"
                | "IS"
                | "NULL"
                | "TRUE"
                | "FALSE"
                | "CASE"
                | "WHEN"
                | "THEN"
                | "ELSE"
                | "END"
                | "ASC"
                | "DESC"
                | "GROUP"
                | "WORK"
                | "TRANSACTION"
                | "SAVEPOINT"
                | "RELEASE"
                | "TO"
        )
    })
}

fn literal() -> impl Strategy<Value = Literal> {
    prop_oneof![
        any::<i32>().prop_map(|v| Literal::Int(v as i64)),
        // Finite floats with exact decimal rendering survive round-trips.
        (-1000i32..1000, 1u8..100).prop_map(|(a, b)| Literal::Float(a as f64 + b as f64 / 100.0)),
        "[a-zA-Z '.,_-]{0,12}".prop_map(Literal::Str),
        Just(Literal::Null),
    ]
}

fn column_ref() -> impl Strategy<Value = ColumnRef> {
    (proptest::option::of(ident()), ident()).prop_map(|(table, column)| ColumnRef { table, column })
}

fn expr(depth: u32) -> BoxedStrategy<Expr> {
    let leaf = prop_oneof![
        column_ref().prop_map(Expr::Column),
        literal().prop_map(Expr::Literal),
    ];
    leaf.prop_recursive(depth, 24, 4, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone(), binop()).prop_map(|(l, r, op)| Expr::Binary {
                left: Box::new(l),
                op,
                right: Box::new(r)
            }),
            (inner.clone(), any::<bool>()).prop_map(|(e, negated)| Expr::IsNull {
                expr: Box::new(e),
                negated
            }),
            (
                inner.clone(),
                proptest::collection::vec(inner.clone(), 1..3),
                any::<bool>()
            )
                .prop_map(|(e, list, negated)| Expr::InList {
                    expr: Box::new(e),
                    list,
                    negated
                }),
            (ident(), proptest::collection::vec(inner.clone(), 0..3)).prop_map(|(name, args)| {
                Expr::Function {
                    name,
                    args,
                    wildcard: false,
                }
            }),
            (
                proptest::option::of(inner.clone()),
                proptest::collection::vec((inner.clone(), inner.clone()), 1..3),
                proptest::option::of(inner.clone())
            )
                .prop_map(|(operand, branches, else_branch)| Expr::Case {
                    operand: operand.map(Box::new),
                    branches,
                    else_branch: else_branch.map(Box::new),
                }),
            inner.clone().prop_map(|e| Expr::Unary {
                op: UnaryOp::Not,
                expr: Box::new(e)
            }),
        ]
    })
    .boxed()
}

fn binop() -> impl Strategy<Value = BinOp> {
    prop_oneof![
        Just(BinOp::Or),
        Just(BinOp::And),
        Just(BinOp::Eq),
        Just(BinOp::NotEq),
        Just(BinOp::Lt),
        Just(BinOp::LtEq),
        Just(BinOp::Gt),
        Just(BinOp::GtEq),
        Just(BinOp::Add),
        Just(BinOp::Sub),
        Just(BinOp::Mul),
        Just(BinOp::Div),
    ]
}

fn statement() -> impl Strategy<Value = Statement> {
    prop_oneof![
        select().prop_map(Statement::Select),
        insert().prop_map(Statement::Insert),
        update().prop_map(Statement::Update),
        delete().prop_map(Statement::Delete),
        Just(Statement::Begin),
        Just(Statement::Commit),
        Just(Statement::Rollback),
        any::<bool>().prop_map(Statement::SetAutocommit),
        ident().prop_map(Statement::Savepoint),
        ident().prop_map(Statement::RollbackToSavepoint),
        ident().prop_map(Statement::ReleaseSavepoint),
    ]
}

fn table_ref() -> impl Strategy<Value = TableRef> {
    (ident(), proptest::option::of(ident())).prop_map(|(name, alias)| TableRef { name, alias })
}

fn select() -> impl Strategy<Value = Select> {
    (
        proptest::collection::vec(
            prop_oneof![
                Just(SelectItem::Wildcard),
                ident().prop_map(SelectItem::QualifiedWildcard),
                (expr(2), proptest::option::of(ident()))
                    .prop_map(|(expr, alias)| SelectItem::Expr { expr, alias }),
            ],
            1..3,
        ),
        table_ref(),
        proptest::collection::vec((table_ref(), expr(1)), 0..2),
        proptest::option::of(expr(2)),
        proptest::collection::vec((expr(1), any::<bool>()), 0..2),
        proptest::option::of(0u64..1000),
        any::<bool>(),
    )
        .prop_map(
            |(projection, from, joins, selection, order_by, limit, for_update)| Select {
                projection,
                from: Some(from),
                joins: joins
                    .into_iter()
                    .map(|(table, on)| Join { table, on })
                    .collect(),
                selection,
                order_by: order_by
                    .into_iter()
                    .map(|(expr, asc)| OrderByItem { expr, asc })
                    .collect(),
                limit,
                for_update,
            },
        )
}

fn insert() -> impl Strategy<Value = Insert> {
    (
        ident(),
        proptest::collection::vec(ident(), 0..4),
        1usize..3,
        1usize..4,
    )
        .prop_flat_map(|(table, columns, nrows, ncols)| {
            let ncols = if columns.is_empty() {
                ncols
            } else {
                columns.len().max(1)
            };
            proptest::collection::vec(
                proptest::collection::vec(expr(1), ncols..=ncols),
                nrows..=nrows,
            )
            .prop_map(move |rows| Insert {
                table: table.clone(),
                columns: columns.clone(),
                rows,
            })
        })
}

fn update() -> impl Strategy<Value = Update> {
    (
        ident(),
        proptest::collection::vec((ident(), expr(2)), 1..3),
        proptest::option::of(expr(2)),
    )
        .prop_map(|(table, assignments, selection)| Update {
            table,
            assignments: assignments
                .into_iter()
                .map(|(column, value)| Assignment { column, value })
                .collect(),
            selection,
        })
}

fn delete() -> impl Strategy<Value = Delete> {
    (ident(), proptest::option::of(expr(2)))
        .prop_map(|(table, selection)| Delete { table, selection })
}

/// Text shaped like transaction control and its near misses: comments
/// and whitespace first, a control word or a lookalike in mixed case,
/// bare or quoted, then a plausible or arbitrary tail.
fn control_like_text() -> impl Strategy<Value = String> {
    let trivia = prop_oneof!["", " ", "\n\t", "-- note\n", " -- a\n-- b\r\n", "-", "--"];
    let quote = prop_oneof!["", "`", "\"", "'"];
    let word = prop_oneof![
        Just("begin"),
        Just("start"),
        Just("commit"),
        Just("rollback"),
        Just("set"),
        Just("savepoint"),
        Just("release"),
        Just("beginning"),
        Just("commits"),
        Just("_begin"),
        Just("re"),
        Just("select"),
        Just("update"),
    ];
    let tail = prop_oneof![
        "",
        ";",
        " TRANSACTION",
        " work",
        " TO SAVEPOINT a",
        " to a",
        " SAVEPOINT a",
        " a",
        " autocommit = 0",
        " AUTOCOMMIT = 1;",
        "NING OF NOTHING",
        "[ -~]{0,12}",
    ];
    (
        trivia,
        quote,
        word,
        proptest::collection::vec(any::<bool>(), 9),
        tail,
    )
        .prop_map(|(trivia, quote, word, upper, tail)| {
            let word: String = word
                .chars()
                .zip(upper)
                .map(|(c, up)| if up { c.to_ascii_uppercase() } else { c })
                .collect();
            format!("{trivia}{quote}{word}{quote}{tail}")
        })
}

/// `t` or `u`, maybe aliased (`t AS t` and two tables under one alias
/// included).
fn keyed_table() -> impl Strategy<Value = TableRef> {
    (
        prop_oneof![Just("t"), Just("u")],
        proptest::option::of(prop_oneof![Just("a"), Just("b"), Just("t")]),
    )
        .prop_map(|(name, alias)| TableRef {
            name: name.into(),
            alias: alias.map(Into::into),
        })
}

/// `column = literal` either way round, on a unique (`id`) or plain (`v`)
/// column, bare or qualified by any name in play.
fn key_equality() -> impl Strategy<Value = Expr> {
    (
        proptest::option::of(prop_oneof![Just("a"), Just("b"), Just("t"), Just("u")]),
        prop_oneof![Just("id"), Just("v")],
        literal(),
        any::<bool>(),
    )
        .prop_map(|(qualifier, column, lit, flipped)| {
            let column = Expr::Column(ColumnRef {
                table: qualifier.map(Into::into),
                column: column.into(),
            });
            let lit = Expr::Literal(lit);
            if flipped {
                Expr::binary(lit, BinOp::Eq, column)
            } else {
                Expr::binary(column, BinOp::Eq, lit)
            }
        })
}

/// SELECTs over a schema with unique `id` columns, with aliases,
/// self-joins and key equalities in the WHERE clause, so that both access
/// kinds occur.
fn keyed_select() -> impl Strategy<Value = Select> {
    let conjunct = prop_oneof![key_equality(), key_equality(), expr(1)];
    (
        keyed_table(),
        proptest::collection::vec((keyed_table(), expr(1)), 0..3),
        proptest::collection::vec(conjunct, 0..4),
        select(),
    )
        .prop_map(|(from, joins, conjuncts, base)| Select {
            from: Some(from),
            joins: joins
                .into_iter()
                .map(|(table, on)| Join { table, on })
                .collect(),
            selection: conjuncts
                .into_iter()
                .reduce(|l, r| Expr::binary(l, BinOp::And, r)),
            ..base
        })
}

/// display(stmt) must re-parse to the same AST.
fn check_display_parse_roundtrip(stmt: Statement) {
    let rendered = stmt.to_string();
    let reparsed = parse_statement(&rendered)
        .unwrap_or_else(|e| panic!("failed to re-parse {rendered:?}: {e}"));
    assert_eq!(stmt, reparsed, "rendering: {rendered}");
}

/// The gate is exact: text it turns away never parses as transaction
/// control.
fn check_gate_is_exact(sql: &str) {
    if !may_be_transaction_control(sql) {
        let parsed = parse_statement(sql);
        assert!(
            !parsed.as_ref().is_ok_and(Statement::is_transaction_control),
            "gate turned away {sql:?}, which parses as {parsed:?}"
        );
    }
}

/// The executor's access-kind shortcut answers, for every table of a
/// SELECT (and one it does not read), what the first `statement_accesses`
/// entry for that table says.
fn check_select_access_kind(s: &Select) {
    let schema = Schema::new()
        .with_table(TableSchema::new(
            "t",
            vec![
                ColumnDef::new("id", ColumnType::Int).unique(),
                ColumnDef::new("v", ColumnType::Int),
            ],
        ))
        .with_table(TableSchema::new(
            "u",
            vec![
                ColumnDef::new("id", ColumnType::Int).unique(),
                ColumnDef::new("v", ColumnType::Int),
            ],
        ));
    let accesses = statement_accesses(&Statement::Select(s.clone()), &schema);
    for table in ["t", "u", "w"] {
        let first = accesses
            .iter()
            .find(|a| a.table == table)
            .map_or(AccessKind::Predicate, |a| a.access);
        assert_eq!(
            select_access_kind(s, table, &schema),
            first,
            "{table} in {s}"
        );
    }
}

#[test]
fn gate_edge_cases() {
    for (sql, gate, control) in [
        ("begin", true, true),
        ("`BEGIN`", true, true),
        ("\"commit\"", true, true),
        ("-- note\nCOMMIT", true, true),
        ("START TRANSACTION", true, true),
        ("BEGIN;", true, true),
        ("ROLLBACK TO SAVEPOINT a", true, true),
        ("SET autocommit = 0", true, true),
        ("SET names = 0", true, false),
        ("BEGINNING OF NOTHING", false, false),
        ("SELECT 1", false, false),
        ("'BEGIN'", false, false),
        ("`BEGIN", false, false),
        ("", false, false),
    ] {
        assert_eq!(may_be_transaction_control(sql), gate, "gate on {sql:?}");
        let parsed = parse_statement(sql).is_ok_and(|s| s.is_transaction_control());
        assert_eq!(parsed, control, "parser on {sql:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn display_parse_roundtrip(stmt in statement()) {
        check_display_parse_roundtrip(stmt);
    }
    /// SELECT statements never produce write columns; INSERT and DELETE
    /// always write row membership.
    #[test]
    fn rwset_invariants(stmt in statement()) {
        let schema = Schema::new().with_table(TableSchema::new(
            "t",
            vec![ColumnDef::new("id", ColumnType::Int).unique()],
        ));
        let accesses = statement_accesses(&stmt, &schema);
        match &stmt {
            Statement::Select(_) => {
                for a in &accesses {
                    prop_assert!(a.write_columns.is_empty());
                    prop_assert!(a.read_columns.contains(EXISTS_COLUMN));
                }
            }
            Statement::Insert(_) | Statement::Delete(_) => {
                prop_assert_eq!(accesses.len(), 1);
                prop_assert!(accesses[0].write_columns.contains(EXISTS_COLUMN));
            }
            Statement::Update(u) => {
                prop_assert_eq!(accesses.len(), 1);
                for a in &u.assignments {
                    prop_assert!(accesses[0].write_columns.contains(&a.column));
                }
            }
            _ => prop_assert!(accesses.is_empty()),
        }
    }

    /// The lexer either tokenizes arbitrary input or errors; it never
    /// panics, and parsing never panics either.
    #[test]
    fn parser_total_on_arbitrary_input(input in "[ -~]{0,80}") {
        let _ = parse_statement(&input);
    }

    /// Over rendered statements, control-shaped text and arbitrary
    /// printable input.
    #[test]
    fn gate_is_exact(stmt in statement(), text in control_like_text(), input in "[ -~]{0,80}") {
        check_gate_is_exact(&stmt.to_string());
        check_gate_is_exact(&text);
        check_gate_is_exact(&input);
    }

    #[test]
    fn select_access_kind_matches_statement_accesses(s in keyed_select()) {
        check_select_access_kind(&s);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    #[ignore = "high-case pass: run in release with --ignored"]
    fn display_parse_roundtrip_high_case(stmt in statement()) {
        check_display_parse_roundtrip(stmt);
    }

    #[test]
    #[ignore = "high-case pass: run in release with --ignored"]
    fn gate_is_exact_high_case(
        stmt in statement(),
        text in control_like_text(),
        input in "[ -~]{0,80}",
    ) {
        check_gate_is_exact(&stmt.to_string());
        check_gate_is_exact(&text);
        check_gate_is_exact(&input);
    }

    #[test]
    #[ignore = "high-case pass: run in release with --ignored"]
    fn select_access_kind_matches_statement_accesses_high_case(s in keyed_select()) {
        check_select_access_kind(&s);
    }
}
