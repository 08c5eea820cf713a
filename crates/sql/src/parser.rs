//! Recursive-descent parser for the reproduction's SQL dialect.
//!
//! Every statement an application issues is parsed on the engine path, so
//! the parser avoids allocating to look at tokens: identifier tokens
//! borrow the statement text and keywords compare in place, so only an
//! identifier the AST keeps is copied out; consumed string literals move
//! into the AST (the parser never revisits a consumed token).

use std::mem;

use crate::ast::*;
use crate::error::ParseError;
use crate::token::{tokenize, Token, TokenKind};

/// Parse a single SQL statement (a trailing semicolon is permitted).
pub fn parse_statement(input: &str) -> Result<Statement, ParseError> {
    let tokens = tokenize(input)?;
    let mut p = Parser { tokens, pos: 0 };
    let stmt = p.parse_statement()?;
    p.eat_kind(&TokenKind::Semicolon);
    p.expect_eof()?;
    Ok(stmt)
}

/// Parse a schema description: a script of `CREATE TABLE` statements.
pub fn parse_schema(input: &str) -> Result<crate::schema::Schema, ParseError> {
    let mut schema = crate::schema::Schema::new();
    for stmt in parse_script(input)? {
        match stmt {
            Statement::CreateTable(table) => {
                schema.add_table(table);
            }
            other => {
                return Err(ParseError::at(
                    0,
                    format!("schema scripts may only contain CREATE TABLE, found {other}"),
                ));
            }
        }
    }
    Ok(schema)
}

/// Parse a script of semicolon-separated statements.
pub fn parse_script(input: &str) -> Result<Vec<Statement>, ParseError> {
    let tokens = tokenize(input)?;
    let mut p = Parser { tokens, pos: 0 };
    let mut stmts = Vec::new();
    loop {
        while p.eat_kind(&TokenKind::Semicolon) {}
        if p.peek_kind() == &TokenKind::Eof {
            break;
        }
        stmts.push(p.parse_statement()?);
        if !p.eat_kind(&TokenKind::Semicolon) {
            break;
        }
    }
    p.expect_eof()?;
    Ok(stmts)
}

struct Parser<'a> {
    tokens: Vec<Token<'a>>,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> &Token<'a> {
        &self.tokens[self.pos]
    }

    fn peek_kind(&self) -> &TokenKind<'a> {
        &self.tokens[self.pos].kind
    }

    /// Step past the current token (never past the final `Eof`).
    fn bump(&mut self) {
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
    }

    /// Consume the current token, moving its kind out.
    fn next_kind(&mut self) -> TokenKind<'a> {
        let kind = mem::replace(&mut self.tokens[self.pos].kind, TokenKind::Eof);
        self.bump();
        kind
    }

    fn error(&self, msg: impl Into<String>) -> ParseError {
        ParseError::at(self.peek().offset, msg)
    }

    /// Consume the next token if it equals `kind`.
    fn eat_kind(&mut self, kind: &TokenKind<'_>) -> bool {
        if self.peek_kind() == kind {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_kind(&mut self, kind: &TokenKind<'_>) -> Result<(), ParseError> {
        if self.eat_kind(kind) {
            Ok(())
        } else {
            Err(self.error(format!("expected {kind}, found {}", self.peek_kind())))
        }
    }

    fn expect_eof(&self) -> Result<(), ParseError> {
        if self.peek_kind() == &TokenKind::Eof {
            Ok(())
        } else {
            Err(self.error(format!("unexpected trailing input: {}", self.peek_kind())))
        }
    }

    /// Consume the next token if it is the given keyword (case-insensitive).
    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.peek_keyword(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(self.error(format!("expected {kw}, found {}", self.peek_kind())))
        }
    }

    fn peek_keyword(&self, kw: &str) -> bool {
        self.peek_kind().is_keyword(kw)
    }

    /// Consume an identifier token, borrowing its text (keywords are
    /// accepted as identifiers in identifier position, matching MySQL's
    /// lenient quoting-free style).
    fn ident(&mut self) -> Result<&'a str, ParseError> {
        if let TokenKind::Ident(name) = *self.peek_kind() {
            self.bump();
            return Ok(name);
        }
        Err(self.error(format!("expected identifier, found {}", self.peek_kind())))
    }

    /// [`Parser::ident`], copied out for the AST to keep.
    fn parse_ident(&mut self) -> Result<String, ParseError> {
        self.ident().map(str::to_owned)
    }

    fn parse_statement(&mut self) -> Result<Statement, ParseError> {
        const STATEMENT_KEYWORDS: [&str; 12] = [
            "SELECT",
            "INSERT",
            "UPDATE",
            "DELETE",
            "BEGIN",
            "START",
            "COMMIT",
            "ROLLBACK",
            "SAVEPOINT",
            "RELEASE",
            "CREATE",
            "SET",
        ];
        let TokenKind::Ident(word) = self.peek_kind() else {
            return Err(self.error("expected a statement keyword"));
        };
        let Some(kw) = STATEMENT_KEYWORDS
            .into_iter()
            .find(|kw| word.eq_ignore_ascii_case(kw))
        else {
            let word = word.to_ascii_uppercase();
            return Err(self.error(format!("unsupported statement keyword {word}")));
        };
        match kw {
            "SELECT" => self.parse_select().map(Statement::Select),
            "INSERT" => self.parse_insert().map(Statement::Insert),
            "UPDATE" => self.parse_update().map(Statement::Update),
            "DELETE" => self.parse_delete().map(Statement::Delete),
            "BEGIN" => {
                self.bump();
                self.eat_keyword("TRANSACTION");
                self.eat_keyword("WORK");
                Ok(Statement::Begin)
            }
            "START" => {
                self.bump();
                self.expect_keyword("TRANSACTION")?;
                Ok(Statement::Begin)
            }
            "COMMIT" => {
                self.bump();
                self.eat_keyword("WORK");
                Ok(Statement::Commit)
            }
            "ROLLBACK" => {
                self.bump();
                self.eat_keyword("WORK");
                if self.eat_keyword("TO") {
                    self.eat_keyword("SAVEPOINT");
                    let name = self.parse_ident()?;
                    Ok(Statement::RollbackToSavepoint(name))
                } else {
                    Ok(Statement::Rollback)
                }
            }
            "SAVEPOINT" => {
                self.bump();
                let name = self.parse_ident()?;
                Ok(Statement::Savepoint(name))
            }
            "RELEASE" => {
                self.bump();
                self.eat_keyword("SAVEPOINT");
                let name = self.parse_ident()?;
                Ok(Statement::ReleaseSavepoint(name))
            }
            "CREATE" => self.parse_create_table().map(Statement::CreateTable),
            "SET" => {
                self.bump();
                let name = self.ident()?;
                if !name.eq_ignore_ascii_case("autocommit") {
                    return Err(self.error(format!("unsupported SET target {name:?}")));
                }
                self.expect_kind(&TokenKind::Eq)?;
                match self.next_kind() {
                    TokenKind::Int(0) => Ok(Statement::SetAutocommit(false)),
                    TokenKind::Int(1) => Ok(Statement::SetAutocommit(true)),
                    other => Err(self.error(format!("expected 0 or 1, found {other}"))),
                }
            }
            _ => unreachable!("every statement keyword has an arm"),
        }
    }

    /// `CREATE TABLE name (col TYPE [PRIMARY KEY] [AUTO_INCREMENT]
    /// [UNIQUE] [NOT NULL] [DEFAULT lit], ...)`.
    fn parse_create_table(&mut self) -> Result<crate::schema::TableSchema, ParseError> {
        use crate::schema::{ColumnDef, ColumnType, TableSchema};
        self.expect_keyword("CREATE")?;
        self.expect_keyword("TABLE")?;
        self.eat_keyword("IF"); // IF NOT EXISTS
        self.eat_keyword("NOT");
        self.eat_keyword("EXISTS");
        let name = self.parse_ident()?;
        self.expect_kind(&TokenKind::LParen)?;
        let mut columns = Vec::new();
        loop {
            let col_name = self.parse_ident()?;
            let ty_name = self.ident()?.to_ascii_uppercase();
            let ty = match ty_name.as_str() {
                "INT" | "INTEGER" | "BIGINT" | "SMALLINT" | "TINYINT" => ColumnType::Int,
                "FLOAT" | "DOUBLE" | "REAL" | "DECIMAL" | "NUMERIC" => ColumnType::Float,
                "TEXT" | "VARCHAR" | "CHAR" | "STRING" | "DATE" | "DATETIME" | "TIMESTAMP" => {
                    ColumnType::Str
                }
                "BOOL" | "BOOLEAN" => ColumnType::Bool,
                other => {
                    return Err(self.error(format!("unsupported column type {other}")));
                }
            };
            // Optional length like VARCHAR(255) or DECIMAL(10, 2).
            if self.eat_kind(&TokenKind::LParen) {
                while self.peek_kind() != &TokenKind::RParen {
                    self.bump();
                }
                self.expect_kind(&TokenKind::RParen)?;
            }
            let mut col = ColumnDef::new(col_name, ty);
            loop {
                if self.eat_keyword("PRIMARY") {
                    self.expect_keyword("KEY")?;
                    col.unique = true;
                } else if self.eat_keyword("AUTO_INCREMENT") || self.eat_keyword("AUTOINCREMENT") {
                    col.auto_increment = true;
                    col.unique = true;
                } else if self.eat_keyword("UNIQUE") {
                    col.unique = true;
                } else if self.eat_keyword("INDEX") || self.eat_keyword("INDEXED") {
                    col.indexed = true;
                } else if self.eat_keyword("NOT") {
                    self.expect_keyword("NULL")?;
                } else if self.eat_keyword("NULL") {
                    // nullable marker: accepted, no effect
                } else if self.eat_keyword("DEFAULT") {
                    let value = self.parse_expr()?;
                    match value {
                        Expr::Literal(lit) => col.default = Some(lit),
                        other => {
                            return Err(
                                self.error(format!("DEFAULT must be a literal, found {other:?}"))
                            );
                        }
                    }
                } else {
                    break;
                }
            }
            columns.push(col);
            if !self.eat_kind(&TokenKind::Comma) {
                break;
            }
        }
        self.expect_kind(&TokenKind::RParen)?;
        Ok(TableSchema::new(name, columns))
    }

    fn parse_select(&mut self) -> Result<Select, ParseError> {
        self.expect_keyword("SELECT")?;
        let mut projection = vec![self.parse_select_item()?];
        while self.eat_kind(&TokenKind::Comma) {
            projection.push(self.parse_select_item()?);
        }
        let mut from = None;
        let mut joins = Vec::new();
        if self.eat_keyword("FROM") {
            from = Some(self.parse_table_ref()?);
            loop {
                if self.eat_keyword("INNER") {
                    self.expect_keyword("JOIN")?;
                } else if !self.eat_keyword("JOIN") {
                    break;
                }
                let table = self.parse_table_ref()?;
                self.expect_keyword("ON")?;
                let on = self.parse_expr()?;
                joins.push(Join { table, on });
            }
        }
        let selection = if self.eat_keyword("WHERE") {
            Some(self.parse_expr()?)
        } else {
            None
        };
        let mut order_by = Vec::new();
        if self.eat_keyword("ORDER") {
            self.expect_keyword("BY")?;
            loop {
                let expr = self.parse_expr()?;
                let asc = if self.eat_keyword("DESC") {
                    false
                } else {
                    self.eat_keyword("ASC");
                    true
                };
                order_by.push(OrderByItem { expr, asc });
                if !self.eat_kind(&TokenKind::Comma) {
                    break;
                }
            }
        }
        let limit = if self.eat_keyword("LIMIT") {
            match self.next_kind() {
                TokenKind::Int(n) if n >= 0 => Some(n as u64),
                other => return Err(self.error(format!("expected LIMIT count, found {other}"))),
            }
        } else {
            None
        };
        let for_update = if self.eat_keyword("FOR") {
            self.expect_keyword("UPDATE")?;
            true
        } else {
            false
        };
        Ok(Select {
            projection,
            from,
            joins,
            selection,
            order_by,
            limit,
            for_update,
        })
    }

    fn parse_select_item(&mut self) -> Result<SelectItem, ParseError> {
        if self.eat_kind(&TokenKind::Star) {
            return Ok(SelectItem::Wildcard);
        }
        // Look ahead for `ident.*`.
        if matches!(self.peek_kind(), TokenKind::Ident(_))
            && self.tokens.get(self.pos + 1).map(|t| &t.kind) == Some(&TokenKind::Dot)
            && self.tokens.get(self.pos + 2).map(|t| &t.kind) == Some(&TokenKind::Star)
        {
            let name = self.parse_ident()?;
            self.bump();
            self.bump();
            return Ok(SelectItem::QualifiedWildcard(name));
        }
        let expr = self.parse_expr()?;
        let alias = if self.eat_keyword("AS") {
            Some(match self.next_kind() {
                TokenKind::Ident(name) => name.to_owned(),
                // MySQL logs sometimes alias with a string: `SELECT (1) AS 'a'`.
                TokenKind::Str(name) => name,
                other => return Err(self.error(format!("expected alias, found {other}"))),
            })
        } else {
            None
        };
        Ok(SelectItem::Expr { expr, alias })
    }

    fn parse_table_ref(&mut self) -> Result<TableRef, ParseError> {
        let name = self.parse_ident()?;
        // Optional alias: `AS alias` or a bare identifier that is not a
        // clause keyword.
        let alias = if self.eat_keyword("AS") {
            Some(self.parse_ident()?)
        } else if let TokenKind::Ident(_) = self.peek_kind() {
            const CLAUSE_KEYWORDS: &[&str] = &[
                "WHERE", "INNER", "JOIN", "ON", "ORDER", "LIMIT", "FOR", "SET", "GROUP", "VALUES",
            ];
            if CLAUSE_KEYWORDS.iter().any(|kw| self.peek_keyword(kw)) {
                None
            } else {
                Some(self.parse_ident()?)
            }
        } else {
            None
        };
        Ok(TableRef { name, alias })
    }

    fn parse_insert(&mut self) -> Result<Insert, ParseError> {
        self.expect_keyword("INSERT")?;
        self.expect_keyword("INTO")?;
        let table = self.parse_ident()?;
        let mut columns = Vec::new();
        if self.eat_kind(&TokenKind::LParen) {
            loop {
                columns.push(self.parse_ident()?);
                if !self.eat_kind(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect_kind(&TokenKind::RParen)?;
        }
        self.expect_keyword("VALUES")?;
        let mut rows = Vec::new();
        loop {
            self.expect_kind(&TokenKind::LParen)?;
            let mut row = Vec::new();
            if self.peek_kind() != &TokenKind::RParen {
                loop {
                    row.push(self.parse_expr()?);
                    if !self.eat_kind(&TokenKind::Comma) {
                        break;
                    }
                }
            }
            self.expect_kind(&TokenKind::RParen)?;
            rows.push(row);
            if !self.eat_kind(&TokenKind::Comma) {
                break;
            }
        }
        Ok(Insert {
            table,
            columns,
            rows,
        })
    }

    fn parse_update(&mut self) -> Result<Update, ParseError> {
        self.expect_keyword("UPDATE")?;
        let table = self.parse_ident()?;
        self.expect_keyword("SET")?;
        let mut assignments = Vec::new();
        loop {
            let column = self.parse_ident()?;
            self.expect_kind(&TokenKind::Eq)?;
            let value = self.parse_expr()?;
            assignments.push(Assignment { column, value });
            if !self.eat_kind(&TokenKind::Comma) {
                break;
            }
        }
        let selection = if self.eat_keyword("WHERE") {
            Some(self.parse_expr()?)
        } else {
            None
        };
        Ok(Update {
            table,
            assignments,
            selection,
        })
    }

    fn parse_delete(&mut self) -> Result<Delete, ParseError> {
        self.expect_keyword("DELETE")?;
        self.expect_keyword("FROM")?;
        let table = self.parse_ident()?;
        let selection = if self.eat_keyword("WHERE") {
            Some(self.parse_expr()?)
        } else {
            None
        };
        Ok(Delete { table, selection })
    }

    // ---- expressions ----------------------------------------------------

    pub(crate) fn parse_expr(&mut self) -> Result<Expr, ParseError> {
        self.parse_or()
    }

    fn parse_or(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.parse_and()?;
        while self.eat_keyword("OR") {
            let right = self.parse_and()?;
            left = Expr::binary(left, BinOp::Or, right);
        }
        Ok(left)
    }

    fn parse_and(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.parse_not()?;
        while self.eat_keyword("AND") {
            let right = self.parse_not()?;
            left = Expr::binary(left, BinOp::And, right);
        }
        Ok(left)
    }

    fn parse_not(&mut self) -> Result<Expr, ParseError> {
        if self.eat_keyword("NOT") {
            let inner = self.parse_not()?;
            Ok(Expr::Unary {
                op: UnaryOp::Not,
                expr: Box::new(inner),
            })
        } else {
            self.parse_comparison()
        }
    }

    fn parse_comparison(&mut self) -> Result<Expr, ParseError> {
        let left = self.parse_additive()?;
        // `IS [NOT] NULL`
        if self.eat_keyword("IS") {
            let negated = self.eat_keyword("NOT");
            self.expect_keyword("NULL")?;
            return Ok(Expr::IsNull {
                expr: Box::new(left),
                negated,
            });
        }
        // `[NOT] IN (list)` / `[NOT] BETWEEN lo AND hi`
        let negated_in = if self.peek_keyword("NOT") {
            // Only treat NOT as part of NOT IN / NOT BETWEEN here.
            let next = self.tokens.get(self.pos + 1).map(|t| &t.kind);
            if next.is_some_and(|k| k.is_keyword("IN") || k.is_keyword("BETWEEN")) {
                self.bump();
                true
            } else {
                return Ok(left);
            }
        } else {
            false
        };
        if self.eat_keyword("BETWEEN") {
            // Desugar at parse time: `a BETWEEN x AND y` is exactly
            // `a >= x AND a <= y` (negated: `a < x OR a > y`), so every
            // later stage — evaluation, planning, canonical rendering —
            // sees plain comparisons. Bounds parse at additive precedence
            // so the separating AND is not swallowed.
            let lo = self.parse_additive()?;
            self.expect_keyword("AND")?;
            let hi = self.parse_additive()?;
            return Ok(if negated_in {
                Expr::binary(
                    Expr::binary(left.clone(), BinOp::Lt, lo),
                    BinOp::Or,
                    Expr::binary(left, BinOp::Gt, hi),
                )
            } else {
                Expr::binary(
                    Expr::binary(left.clone(), BinOp::GtEq, lo),
                    BinOp::And,
                    Expr::binary(left, BinOp::LtEq, hi),
                )
            });
        }
        if self.eat_keyword("IN") {
            self.expect_kind(&TokenKind::LParen)?;
            let mut list = Vec::new();
            if self.peek_kind() != &TokenKind::RParen {
                loop {
                    list.push(self.parse_expr()?);
                    if !self.eat_kind(&TokenKind::Comma) {
                        break;
                    }
                }
            }
            self.expect_kind(&TokenKind::RParen)?;
            return Ok(Expr::InList {
                expr: Box::new(left),
                list,
                negated: negated_in,
            });
        }
        let op = match self.peek_kind() {
            TokenKind::Eq => BinOp::Eq,
            TokenKind::NotEq => BinOp::NotEq,
            TokenKind::Lt => BinOp::Lt,
            TokenKind::LtEq => BinOp::LtEq,
            TokenKind::Gt => BinOp::Gt,
            TokenKind::GtEq => BinOp::GtEq,
            _ => return Ok(left),
        };
        self.bump();
        let right = self.parse_additive()?;
        Ok(Expr::binary(left, op, right))
    }

    fn parse_additive(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.parse_multiplicative()?;
        loop {
            let op = match self.peek_kind() {
                TokenKind::Plus => BinOp::Add,
                TokenKind::Minus => BinOp::Sub,
                _ => break,
            };
            self.bump();
            let right = self.parse_multiplicative()?;
            left = Expr::binary(left, op, right);
        }
        Ok(left)
    }

    fn parse_multiplicative(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.parse_unary()?;
        loop {
            let op = match self.peek_kind() {
                TokenKind::Star => BinOp::Mul,
                TokenKind::Slash => BinOp::Div,
                _ => break,
            };
            self.bump();
            let right = self.parse_unary()?;
            left = Expr::binary(left, op, right);
        }
        Ok(left)
    }

    fn parse_unary(&mut self) -> Result<Expr, ParseError> {
        if self.eat_kind(&TokenKind::Minus) {
            let inner = self.parse_unary()?;
            // Fold negation of numeric literals so `-5` is the literal -5,
            // matching the canonical rendering.
            return Ok(match inner {
                Expr::Literal(Literal::Int(v)) => Expr::Literal(Literal::Int(-v)),
                Expr::Literal(Literal::Float(v)) => Expr::Literal(Literal::Float(-v)),
                other => Expr::Unary {
                    op: UnaryOp::Neg,
                    expr: Box::new(other),
                },
            });
        }
        self.parse_primary()
    }

    fn parse_primary(&mut self) -> Result<Expr, ParseError> {
        let literal = match &mut self.tokens[self.pos].kind {
            TokenKind::Int(v) => Literal::Int(*v),
            TokenKind::Float(v) => Literal::Float(*v),
            TokenKind::Str(s) => Literal::Str(mem::take(s)),
            k if k.is_keyword("NULL") => Literal::Null,
            k if k.is_keyword("TRUE") => Literal::Bool(true),
            k if k.is_keyword("FALSE") => Literal::Bool(false),
            TokenKind::LParen => {
                self.bump();
                let inner = self.parse_expr()?;
                self.expect_kind(&TokenKind::RParen)?;
                return Ok(inner);
            }
            TokenKind::Ident(_) => return self.parse_named(),
            other => {
                let msg = format!("unexpected token {other} in expression");
                return Err(self.error(msg));
            }
        };
        self.bump();
        Ok(Expr::Literal(literal))
    }

    /// An expression opening with an identifier other than a keyword
    /// constant: `CASE`, a function call or a (qualified) column.
    fn parse_named(&mut self) -> Result<Expr, ParseError> {
        // Reserved words may not appear as bare column references; this
        // catches malformed statements like `SELECT FROM t`.
        const RESERVED: &[&str] = &[
            "SELECT", "FROM", "WHERE", "INSERT", "UPDATE", "DELETE", "SET", "VALUES", "INTO",
            "AND", "OR", "ORDER", "BY", "LIMIT", "JOIN", "INNER", "ON", "COMMIT", "BEGIN",
            "ROLLBACK", "WHEN", "THEN", "ELSE", "END", "GROUP",
        ];
        if self.peek_keyword("CASE") {
            return self.parse_case();
        }
        if RESERVED.iter().any(|kw| self.peek_keyword(kw)) {
            return Err(self.error(format!(
                "reserved keyword {} cannot start an expression",
                self.peek_kind()
            )));
        }
        let name = self.parse_ident()?;
        // Function call?
        if self.eat_kind(&TokenKind::LParen) {
            // Distinguish `f(...)` from a parenthesised expression following
            // an identifier (not valid in this dialect), so always treat as a
            // call.
            if self.eat_kind(&TokenKind::Star) {
                self.expect_kind(&TokenKind::RParen)?;
                return Ok(Expr::Function {
                    name,
                    args: vec![],
                    wildcard: true,
                });
            }
            let mut args = Vec::new();
            if self.peek_kind() != &TokenKind::RParen {
                loop {
                    args.push(self.parse_expr()?);
                    if !self.eat_kind(&TokenKind::Comma) {
                        break;
                    }
                }
            }
            self.expect_kind(&TokenKind::RParen)?;
            return Ok(Expr::Function {
                name,
                args,
                wildcard: false,
            });
        }
        // Qualified column `table.column`?
        if self.eat_kind(&TokenKind::Dot) {
            let column = self.parse_ident()?;
            return Ok(Expr::Column(ColumnRef::qualified(name, column)));
        }
        Ok(Expr::Column(ColumnRef::bare(name)))
    }

    fn parse_case(&mut self) -> Result<Expr, ParseError> {
        self.expect_keyword("CASE")?;
        let operand = if self.peek_keyword("WHEN") {
            None
        } else {
            Some(Box::new(self.parse_expr()?))
        };
        let mut branches = Vec::new();
        while self.eat_keyword("WHEN") {
            let when = self.parse_expr()?;
            self.expect_keyword("THEN")?;
            let then = self.parse_expr()?;
            branches.push((when, then));
        }
        if branches.is_empty() {
            return Err(self.error("CASE requires at least one WHEN branch"));
        }
        let else_branch = if self.eat_keyword("ELSE") {
            Some(Box::new(self.parse_expr()?))
        } else {
            None
        };
        self.expect_keyword("END")?;
        Ok(Expr::Case {
            operand,
            branches,
            else_branch,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn select(input: &str) -> Select {
        match parse_statement(input).unwrap() {
            Statement::Select(s) => s,
            other => panic!("expected SELECT, got {other:?}"),
        }
    }

    #[test]
    fn parses_savepoint_statements() {
        assert_eq!(
            parse_statement("SAVEPOINT sp1").unwrap(),
            Statement::Savepoint("sp1".into())
        );
        assert_eq!(
            parse_statement("ROLLBACK TO sp1").unwrap(),
            Statement::RollbackToSavepoint("sp1".into())
        );
        assert_eq!(
            parse_statement("ROLLBACK TO SAVEPOINT sp1").unwrap(),
            Statement::RollbackToSavepoint("sp1".into())
        );
        assert_eq!(
            parse_statement("ROLLBACK WORK TO SAVEPOINT sp1").unwrap(),
            Statement::RollbackToSavepoint("sp1".into())
        );
        assert_eq!(
            parse_statement("RELEASE sp1").unwrap(),
            Statement::ReleaseSavepoint("sp1".into())
        );
        assert_eq!(
            parse_statement("release savepoint sp1;").unwrap(),
            Statement::ReleaseSavepoint("sp1".into())
        );
        // A bare ROLLBACK still parses as full rollback.
        assert_eq!(parse_statement("ROLLBACK").unwrap(), Statement::Rollback);
        assert!(parse_statement("SAVEPOINT").is_err());
        assert!(parse_statement("ROLLBACK TO SAVEPOINT").is_err());
    }

    #[test]
    fn savepoint_statements_roundtrip_through_display() {
        for sql in [
            "SAVEPOINT retry_mark",
            "ROLLBACK TO SAVEPOINT retry_mark",
            "RELEASE SAVEPOINT retry_mark",
        ] {
            let stmt = parse_statement(sql).unwrap();
            assert_eq!(stmt.to_string(), sql);
            assert_eq!(parse_statement(&stmt.to_string()).unwrap(), stmt);
        }
    }

    #[test]
    fn parses_paper_fig3_statements() {
        // Every statement from Figure 3b of the paper must parse.
        let script = "
            BEGIN TRANSACTION;
            SELECT COUNT(*) FROM employees WHERE first_name='John' AND last_name='Doe';
            INSERT INTO employees (first_name, last_name, salary) VALUES ('John', 'Doe', 50000);
            COMMIT;
            UPDATE employees SET salary=salary+1000;
            BEGIN TRANSACTION;
            SELECT COUNT(*) FROM employees;
            UPDATE salary SET total=total+3000;
            COMMIT;
        ";
        let stmts = parse_script(script).unwrap();
        assert_eq!(stmts.len(), 9);
        assert_eq!(stmts[0], Statement::Begin);
        assert!(matches!(stmts[4], Statement::Update(_)));
    }

    #[test]
    fn parses_paper_fig6_oscar_voucher() {
        let stmts = parse_script(
            "set autocommit=0;
             SELECT (1) AS `a` FROM `voucher_voucherapplication` WHERE \
               `voucher_voucherapplication`.`voucher_id` = 6 LIMIT 1;
             INSERT INTO `voucher_voucherapplication` (`voucher_id`, `user_id`, `order_id`, \
               `date_created`) VALUES (6, 4, 23, '2016-11-06');
             commit;",
        )
        .unwrap();
        assert_eq!(stmts[0], Statement::SetAutocommit(false));
        let Statement::Select(s) = &stmts[1] else {
            panic!()
        };
        assert_eq!(s.limit, Some(1));
        let Statement::Insert(i) = &stmts[2] else {
            panic!()
        };
        assert_eq!(i.table, "voucher_voucherapplication");
        assert_eq!(i.columns.len(), 4);
        assert_eq!(stmts[3], Statement::Commit);
    }

    #[test]
    fn parses_paper_fig7_magento_inventory() {
        // The joined FOR UPDATE select.
        let s = select(
            "SELECT `si`.*, `p`.`type_id` FROM `cataloginventory_stock_item` AS `si` \
             INNER JOIN `catalog_product_entity` AS `p` ON p.entity_id=si.product_id \
             WHERE (website_id=0) AND (product_id IN(2048)) FOR UPDATE",
        );
        assert!(s.for_update);
        assert_eq!(s.joins.len(), 1);
        assert_eq!(s.from.as_ref().unwrap().alias.as_deref(), Some("si"));
        assert!(matches!(s.projection[0], SelectItem::QualifiedWildcard(ref t) if t == "si"));

        // The CASE update.
        let Statement::Update(u) = parse_statement(
            "UPDATE `cataloginventory_stock_item` SET `qty` = CASE product_id WHEN 2048 \
             THEN qty-1 ELSE qty END WHERE (product_id IN (2048)) AND (website_id = 0)",
        )
        .unwrap() else {
            panic!()
        };
        assert_eq!(u.assignments.len(), 1);
        assert!(matches!(u.assignments[0].value, Expr::Case { .. }));
    }

    #[test]
    fn parses_paper_fig8_lfs_cart() {
        let s = select(
            "SELECT `cart_cartitem`.* FROM `cart_cartitem` WHERE \
             `cart_cartitem`.`cart_id` = 8 ORDER BY `cart_cartitem`.`id` ASC",
        );
        assert_eq!(s.order_by.len(), 1);
        assert!(s.order_by[0].asc);
    }

    #[test]
    fn parses_order_by_desc_and_multiple_keys() {
        let s = select("SELECT * FROM t ORDER BY a DESC, b");
        assert_eq!(s.order_by.len(), 2);
        assert!(!s.order_by[0].asc);
        assert!(s.order_by[1].asc);
    }

    #[test]
    fn parses_start_transaction() {
        assert_eq!(
            parse_statement("START TRANSACTION").unwrap(),
            Statement::Begin
        );
        assert_eq!(parse_statement("BEGIN").unwrap(), Statement::Begin);
        assert_eq!(parse_statement("ROLLBACK").unwrap(), Statement::Rollback);
    }

    #[test]
    fn parses_multi_row_insert() {
        let Statement::Insert(i) =
            parse_statement("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')").unwrap()
        else {
            panic!()
        };
        assert_eq!(i.rows.len(), 2);
    }

    #[test]
    fn parses_insert_without_column_list() {
        let Statement::Insert(i) = parse_statement("INSERT INTO t VALUES (1, 2)").unwrap() else {
            panic!()
        };
        assert!(i.columns.is_empty());
        assert_eq!(i.rows[0].len(), 2);
    }

    #[test]
    fn parses_delete() {
        let Statement::Delete(d) =
            parse_statement("DELETE FROM cart_items WHERE cart_id = 14").unwrap()
        else {
            panic!()
        };
        assert_eq!(d.table, "cart_items");
        assert!(d.selection.is_some());
    }

    #[test]
    fn parses_not_in_and_is_null() {
        let s = select("SELECT * FROM t WHERE a NOT IN (1, 2) AND b IS NOT NULL");
        let Some(Expr::Binary {
            left,
            op: BinOp::And,
            right,
        }) = s.selection
        else {
            panic!()
        };
        assert!(matches!(*left, Expr::InList { negated: true, .. }));
        assert!(matches!(*right, Expr::IsNull { negated: true, .. }));
    }

    #[test]
    fn between_desugars_to_comparisons() {
        let s = select("SELECT * FROM t WHERE qty BETWEEN 3 AND 7");
        let Some(Expr::Binary {
            left,
            op: BinOp::And,
            right,
        }) = s.selection
        else {
            panic!()
        };
        assert!(matches!(
            *left,
            Expr::Binary {
                op: BinOp::GtEq,
                ..
            }
        ));
        assert!(matches!(
            *right,
            Expr::Binary {
                op: BinOp::LtEq,
                ..
            }
        ));
        // NOT BETWEEN is the complementary disjunction.
        let s = select("SELECT * FROM t WHERE qty NOT BETWEEN 3 AND 7");
        let Some(Expr::Binary {
            left,
            op: BinOp::Or,
            right,
        }) = s.selection
        else {
            panic!()
        };
        assert!(matches!(*left, Expr::Binary { op: BinOp::Lt, .. }));
        assert!(matches!(*right, Expr::Binary { op: BinOp::Gt, .. }));
        // The separating AND binds to BETWEEN, not the surrounding
        // conjunction; a trailing conjunct still parses.
        let s = select("SELECT * FROM t WHERE qty BETWEEN 1 AND 5 AND id = 2");
        assert!(matches!(
            s.selection,
            Some(Expr::Binary { op: BinOp::And, .. })
        ));
    }

    #[test]
    fn parses_arithmetic_precedence() {
        let s = select("SELECT * FROM t WHERE a + b * 2 >= 10");
        let Some(Expr::Binary {
            left,
            op: BinOp::GtEq,
            ..
        }) = s.selection
        else {
            panic!()
        };
        let Expr::Binary {
            op: BinOp::Add,
            right,
            ..
        } = *left
        else {
            panic!()
        };
        assert!(matches!(*right, Expr::Binary { op: BinOp::Mul, .. }));
    }

    #[test]
    fn parses_unary_negation() {
        // Negated literals fold to negative literals.
        let s = select("SELECT * FROM t WHERE a = -1");
        let Some(Expr::Binary { right, .. }) = s.selection else {
            panic!()
        };
        assert_eq!(*right, Expr::int(-1));
        // Negation of a non-literal stays a unary expression.
        let s = select("SELECT * FROM t WHERE a = -b");
        let Some(Expr::Binary { right, .. }) = s.selection else {
            panic!()
        };
        assert!(matches!(
            *right,
            Expr::Unary {
                op: UnaryOp::Neg,
                ..
            }
        ));
    }

    #[test]
    fn parses_not_operator() {
        let s = select("SELECT * FROM t WHERE NOT a = 1");
        assert!(matches!(
            s.selection,
            Some(Expr::Unary {
                op: UnaryOp::Not,
                ..
            })
        ));
    }

    #[test]
    fn parses_aggregates() {
        let s = select("SELECT COUNT(*), SUM(qty * price) FROM order_items");
        assert_eq!(s.projection.len(), 2);
        let SelectItem::Expr {
            expr: Expr::Function { name, wildcard, .. },
            ..
        } = &s.projection[0]
        else {
            panic!()
        };
        assert_eq!(name, "COUNT");
        assert!(wildcard);
    }

    #[test]
    fn parses_string_alias() {
        let s = select("SELECT (1) AS 'a' FROM t");
        let SelectItem::Expr { alias, .. } = &s.projection[0] else {
            panic!()
        };
        assert_eq!(alias.as_deref(), Some("a"));
    }

    #[test]
    fn parses_tableless_select() {
        let s = select("SELECT 1");
        assert!(s.from.is_none());
    }

    #[test]
    fn parses_set_autocommit() {
        assert_eq!(
            parse_statement("set autocommit=0").unwrap(),
            Statement::SetAutocommit(false)
        );
        assert_eq!(
            parse_statement("SET autocommit = 1").unwrap(),
            Statement::SetAutocommit(true)
        );
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_statement("FOO BAR").is_err());
        assert!(parse_statement("SELECT FROM").is_err());
        assert!(parse_statement("UPDATE t").is_err());
        assert!(parse_statement("INSERT INTO t (a VALUES (1)").is_err());
        assert!(parse_statement("SELECT 1 extra garbage ,").is_err());
        assert!(parse_statement("SET autocommit=2").is_err());
        assert!(parse_statement("SET foo=1").is_err());
    }

    #[test]
    fn rejects_case_without_branches() {
        assert!(parse_statement("SELECT CASE END FROM t").is_err());
    }

    #[test]
    fn parses_script_with_blank_statements() {
        let stmts = parse_script(";;SELECT 1;;COMMIT;").unwrap();
        assert_eq!(stmts.len(), 2);
    }

    #[test]
    fn parses_create_table() {
        use crate::schema::ColumnType;
        let Statement::CreateTable(t) = parse_statement(
            "CREATE TABLE vouchers (id INT PRIMARY KEY AUTO_INCREMENT, code VARCHAR(32) \
             UNIQUE NOT NULL, value DECIMAL(10, 2), used INT DEFAULT 0, active BOOLEAN)",
        )
        .unwrap() else {
            panic!()
        };
        assert_eq!(t.name, "vouchers");
        assert_eq!(t.columns.len(), 5);
        assert!(t.columns[0].auto_increment && t.columns[0].unique);
        assert!(t.columns[1].unique);
        assert_eq!(t.columns[1].ty, ColumnType::Str);
        assert_eq!(t.columns[2].ty, ColumnType::Float);
        assert_eq!(t.columns[3].default, Some(Literal::Int(0)));
        assert_eq!(t.columns[4].ty, ColumnType::Bool);
    }

    #[test]
    fn parses_schema_script() {
        let schema =
            parse_schema("CREATE TABLE a (x INT); CREATE TABLE b (y TEXT, z INT UNIQUE);").unwrap();
        assert_eq!(schema.len(), 2);
        assert!(schema.table("b").unwrap().is_unique_column("z"));
        assert!(parse_schema("SELECT 1").is_err());
    }

    #[test]
    fn create_table_rejects_bad_types() {
        assert!(parse_statement("CREATE TABLE t (x BLOB)").is_err());
        assert!(parse_statement("CREATE TABLE t (x INT DEFAULT 1 + 2)").is_err());
    }

    #[test]
    fn create_table_display_roundtrips() {
        let sql = "CREATE TABLE t (id INT PRIMARY KEY AUTO_INCREMENT, name TEXT DEFAULT 'x')";
        let stmt = parse_statement(sql).unwrap();
        let rendered = stmt.to_string();
        assert_eq!(parse_statement(&rendered).unwrap(), stmt, "{rendered}");
    }

    #[test]
    fn table_alias_without_as() {
        let s = select("SELECT t.a FROM my_table t WHERE t.a = 1");
        assert_eq!(s.from.as_ref().unwrap().alias.as_deref(), Some("t"));
    }
}
