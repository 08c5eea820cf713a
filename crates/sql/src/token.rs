//! Lexical analysis for the SQL dialect used throughout the reproduction.
//!
//! The dialect is scoped to the statements that appear in the ACIDRain
//! paper's traces (Figures 3b and 5–8): `SELECT` (with joins, aggregates,
//! `ORDER BY`, `LIMIT`, `FOR UPDATE`), `INSERT`, `UPDATE` (with arithmetic
//! and `CASE` expressions), `DELETE`, transaction control, and
//! `SET autocommit`. Identifiers may be MySQL-style backquoted, and string
//! literals are single-quoted with `''` escaping.

use std::fmt;

use crate::error::ParseError;

/// A single lexical token, carrying its source offset for error reporting.
/// Identifier tokens borrow their text from the input (`'a`).
#[derive(Debug, Clone, PartialEq)]
pub struct Token<'a> {
    pub kind: TokenKind<'a>,
    /// Byte offset of the first character of the token in the input.
    pub offset: usize,
}

/// The kinds of token the lexer produces.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind<'a> {
    /// A bare or backquoted identifier, borrowed from the input (quotes
    /// stripped). Keywords are resolved by the parser via
    /// [`TokenKind::is_keyword`] so that identifiers like `count` can still
    /// be used as column names; lexing one allocates nothing.
    Ident(&'a str),
    /// A single-quoted string literal (already unescaped).
    Str(String),
    /// An integer literal.
    Int(i64),
    /// A floating-point literal.
    Float(f64),
    LParen,
    RParen,
    Comma,
    Semicolon,
    Dot,
    Star,
    Plus,
    Minus,
    Slash,
    Eq,
    /// `!=` or `<>`.
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    /// End of input marker.
    Eof,
}

impl TokenKind<'_> {
    /// Whether this token is an identifier spelling the keyword `kw`,
    /// ignoring ASCII case. Compares in place.
    pub fn is_keyword(&self, kw: &str) -> bool {
        matches!(self, TokenKind::Ident(s) if s.eq_ignore_ascii_case(kw))
    }
}

impl fmt::Display for TokenKind<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Ident(s) => write!(f, "{s}"),
            TokenKind::Str(s) => write!(f, "'{s}'"),
            TokenKind::Int(v) => write!(f, "{v}"),
            TokenKind::Float(v) => write!(f, "{v}"),
            TokenKind::LParen => f.write_str("("),
            TokenKind::RParen => f.write_str(")"),
            TokenKind::Comma => f.write_str(","),
            TokenKind::Semicolon => f.write_str(";"),
            TokenKind::Dot => f.write_str("."),
            TokenKind::Star => f.write_str("*"),
            TokenKind::Plus => f.write_str("+"),
            TokenKind::Minus => f.write_str("-"),
            TokenKind::Slash => f.write_str("/"),
            TokenKind::Eq => f.write_str("="),
            TokenKind::NotEq => f.write_str("!="),
            TokenKind::Lt => f.write_str("<"),
            TokenKind::LtEq => f.write_str("<="),
            TokenKind::Gt => f.write_str(">"),
            TokenKind::GtEq => f.write_str(">="),
            TokenKind::Eof => f.write_str("<eof>"),
        }
    }
}

/// Tokenize `input` into a vector of tokens terminated by [`TokenKind::Eof`].
/// The vector is sized once for one token per three bytes of input, which
/// holds a typical statement's tokens (a name, a keyword or a literal and
/// its separator); denser text grows it by doubling.
pub fn tokenize(input: &str) -> Result<Vec<Token<'_>>, ParseError> {
    let bytes = input.as_bytes();
    let mut tokens = Vec::with_capacity(input.len() / 3 + 2);
    let mut i = skip_trivia(bytes, 0);
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            '(' => {
                tokens.push(Token {
                    kind: TokenKind::LParen,
                    offset: i,
                });
                i += 1;
            }
            ')' => {
                tokens.push(Token {
                    kind: TokenKind::RParen,
                    offset: i,
                });
                i += 1;
            }
            ',' => {
                tokens.push(Token {
                    kind: TokenKind::Comma,
                    offset: i,
                });
                i += 1;
            }
            ';' => {
                tokens.push(Token {
                    kind: TokenKind::Semicolon,
                    offset: i,
                });
                i += 1;
            }
            '.' => {
                tokens.push(Token {
                    kind: TokenKind::Dot,
                    offset: i,
                });
                i += 1;
            }
            '*' => {
                tokens.push(Token {
                    kind: TokenKind::Star,
                    offset: i,
                });
                i += 1;
            }
            '+' => {
                tokens.push(Token {
                    kind: TokenKind::Plus,
                    offset: i,
                });
                i += 1;
            }
            '-' => {
                tokens.push(Token {
                    kind: TokenKind::Minus,
                    offset: i,
                });
                i += 1;
            }
            '/' => {
                tokens.push(Token {
                    kind: TokenKind::Slash,
                    offset: i,
                });
                i += 1;
            }
            '=' => {
                tokens.push(Token {
                    kind: TokenKind::Eq,
                    offset: i,
                });
                i += 1;
            }
            '!' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token {
                        kind: TokenKind::NotEq,
                        offset: i,
                    });
                    i += 2;
                } else {
                    return Err(ParseError::at(i, "unexpected character '!'"));
                }
            }
            '<' => match bytes.get(i + 1) {
                Some(&b'=') => {
                    tokens.push(Token {
                        kind: TokenKind::LtEq,
                        offset: i,
                    });
                    i += 2;
                }
                Some(&b'>') => {
                    tokens.push(Token {
                        kind: TokenKind::NotEq,
                        offset: i,
                    });
                    i += 2;
                }
                _ => {
                    tokens.push(Token {
                        kind: TokenKind::Lt,
                        offset: i,
                    });
                    i += 1;
                }
            },
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token {
                        kind: TokenKind::GtEq,
                        offset: i,
                    });
                    i += 2;
                } else {
                    tokens.push(Token {
                        kind: TokenKind::Gt,
                        offset: i,
                    });
                    i += 1;
                }
            }
            '\'' => {
                let (s, next) = lex_string(input, i)?;
                tokens.push(Token {
                    kind: TokenKind::Str(s),
                    offset: i,
                });
                i = next;
            }
            '`' | '"' => {
                let (s, next) = lex_quoted_ident(input, i, c)?;
                tokens.push(Token {
                    kind: TokenKind::Ident(s),
                    offset: i,
                });
                i = next;
            }
            '0'..='9' => {
                let (kind, next) = lex_number(input, i)?;
                tokens.push(Token { kind, offset: i });
                i = next;
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                i = word_end(bytes, i);
                tokens.push(Token {
                    kind: TokenKind::Ident(&input[start..i]),
                    offset: start,
                });
            }
            other => {
                return Err(ParseError::at(i, format!("unexpected character {other:?}")));
            }
        }
        i = skip_trivia(bytes, i);
    }
    tokens.push(Token {
        kind: TokenKind::Eof,
        offset: bytes.len(),
    });
    Ok(tokens)
}

/// Skip whitespace and `--` line comments from `i`; returns the offset of
/// the next token's first byte (or the input's length).
fn skip_trivia(bytes: &[u8], mut i: usize) -> usize {
    while i < bytes.len() {
        match bytes[i] {
            b' ' | b'\t' | b'\r' | b'\n' => i += 1,
            b'-' if bytes.get(i + 1) == Some(&b'-') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            _ => break,
        }
    }
    i
}

/// The end of the bare word (`[A-Za-z0-9_]*`) starting at `start`.
fn word_end(bytes: &[u8], start: usize) -> usize {
    start
        + bytes[start..]
            .iter()
            .take_while(|b| b.is_ascii_alphanumeric() || **b == b'_')
            .count()
}

/// The words that can open a transaction-control statement.
const TRANSACTION_CONTROL_WORDS: [&str; 7] = [
    "BEGIN",
    "START",
    "COMMIT",
    "ROLLBACK",
    "SET",
    "SAVEPOINT",
    "RELEASE",
];

/// Whether `sql` may be a transaction-control statement, read off its
/// first token alone: true iff that token is an identifier (bare,
/// backquoted or double-quoted, after whitespace and `--` comments, by the
/// lexer's own rules) spelling `BEGIN`, `START`, `COMMIT`, `ROLLBACK`,
/// `SET`, `SAVEPOINT` or `RELEASE` in any ASCII case.
///
/// Exact in one direction: [`crate::parse_statement`] dispatches on that
/// same first token, so when this answers false the statement can never
/// parse as [`crate::Statement::is_transaction_control`]. A true answer
/// only says the parse is worth making. Allocates nothing, so callers that
/// only need to tell control statements apart skip the parse of every data
/// statement.
pub fn may_be_transaction_control(sql: &str) -> bool {
    let bytes = sql.as_bytes();
    let i = skip_trivia(bytes, 0);
    let word = match bytes.get(i) {
        Some(&q @ (b'`' | b'"')) => match lex_quoted_ident(sql, i, q as char) {
            Ok((word, _)) => word,
            Err(_) => return false,
        },
        Some(b) if b.is_ascii_alphabetic() || *b == b'_' => &sql[i..word_end(bytes, i)],
        _ => return false,
    };
    TRANSACTION_CONTROL_WORDS
        .iter()
        .any(|kw| word.eq_ignore_ascii_case(kw))
}

/// Lex a single-quoted string starting at `start` (which must point at the
/// opening quote). `''` inside the literal encodes a single quote.
fn lex_string(input: &str, start: usize) -> Result<(String, usize), ParseError> {
    let bytes = input.as_bytes();
    let mut out = String::new();
    let mut i = start + 1;
    while i < bytes.len() {
        if bytes[i] == b'\'' {
            if bytes.get(i + 1) == Some(&b'\'') {
                out.push('\'');
                i += 2;
            } else {
                return Ok((out, i + 1));
            }
        } else {
            // Strings in our traces are ASCII or UTF-8; copy byte-wise along
            // char boundaries.
            let ch_len = utf8_len(bytes[i]);
            out.push_str(&input[i..i + ch_len]);
            i += ch_len;
        }
    }
    Err(ParseError::at(start, "unterminated string literal"))
}

/// Lex a quoted identifier delimited by `quote` (`` ` `` or `"`).
fn lex_quoted_ident(input: &str, start: usize, quote: char) -> Result<(&str, usize), ParseError> {
    let bytes = input.as_bytes();
    let q = quote as u8;
    let mut i = start + 1;
    let ident_start = i;
    while i < bytes.len() {
        if bytes[i] == q {
            return Ok((&input[ident_start..i], i + 1));
        }
        i += utf8_len(bytes[i]);
    }
    Err(ParseError::at(start, "unterminated quoted identifier"))
}

/// Lex an integer or float literal.
fn lex_number(input: &str, start: usize) -> Result<(TokenKind<'static>, usize), ParseError> {
    let bytes = input.as_bytes();
    let mut i = start;
    while i < bytes.len() && bytes[i].is_ascii_digit() {
        i += 1;
    }
    let mut is_float = false;
    if i < bytes.len() && bytes[i] == b'.' && bytes.get(i + 1).is_some_and(u8::is_ascii_digit) {
        is_float = true;
        i += 1;
        while i < bytes.len() && bytes[i].is_ascii_digit() {
            i += 1;
        }
    }
    let text = &input[start..i];
    if is_float {
        let v: f64 = text
            .parse()
            .map_err(|_| ParseError::at(start, format!("invalid float literal {text:?}")))?;
        Ok((TokenKind::Float(v), i))
    } else {
        let v: i64 = text.parse().map_err(|_| {
            ParseError::at(start, format!("integer literal out of range: {text:?}"))
        })?;
        Ok((TokenKind::Int(v), i))
    }
}

fn utf8_len(first_byte: u8) -> usize {
    match first_byte {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(input: &str) -> Vec<TokenKind<'_>> {
        tokenize(input)
            .unwrap()
            .into_iter()
            .map(|t| t.kind)
            .collect()
    }

    #[test]
    fn lexes_simple_select() {
        let ks = kinds("SELECT stock FROM product WHERE item_id=2;");
        assert_eq!(
            ks,
            vec![
                TokenKind::Ident("SELECT"),
                TokenKind::Ident("stock"),
                TokenKind::Ident("FROM"),
                TokenKind::Ident("product"),
                TokenKind::Ident("WHERE"),
                TokenKind::Ident("item_id"),
                TokenKind::Eq,
                TokenKind::Int(2),
                TokenKind::Semicolon,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn lexes_backquoted_identifiers() {
        let ks = kinds("SELECT `cart_cartitem`.`cart_id` FROM `cart_cartitem`");
        assert!(ks.contains(&TokenKind::Ident("cart_cartitem")));
        assert!(ks.contains(&TokenKind::Ident("cart_id")));
        assert!(ks.contains(&TokenKind::Dot));
    }

    #[test]
    fn lexes_string_with_escaped_quote() {
        let ks = kinds("'John''s'");
        assert_eq!(ks[0], TokenKind::Str("John's".into()));
    }

    #[test]
    fn lexes_numbers() {
        assert_eq!(kinds("42")[0], TokenKind::Int(42));
        assert_eq!(kinds("3.5")[0], TokenKind::Float(3.5));
        // A dot not followed by a digit is a separate token.
        assert_eq!(
            kinds("2.x")[..3],
            [TokenKind::Int(2), TokenKind::Dot, TokenKind::Ident("x")]
        );
    }

    #[test]
    fn lexes_comparison_operators() {
        let ks = kinds("a >= b <= c <> d != e < f > g");
        assert!(ks.contains(&TokenKind::GtEq));
        assert!(ks.contains(&TokenKind::LtEq));
        assert!(ks.contains(&TokenKind::Lt));
        assert!(ks.contains(&TokenKind::Gt));
        assert_eq!(ks.iter().filter(|k| **k == TokenKind::NotEq).count(), 2);
    }

    #[test]
    fn skips_line_comments() {
        let ks = kinds("SELECT 1 -- trailing comment\n, 2");
        assert!(ks.contains(&TokenKind::Int(2)));
    }

    #[test]
    fn rejects_unterminated_string() {
        assert!(tokenize("'oops").is_err());
    }

    #[test]
    fn rejects_unterminated_quoted_ident() {
        assert!(tokenize("`oops").is_err());
    }

    #[test]
    fn rejects_stray_bang() {
        assert!(tokenize("a ! b").is_err());
    }

    #[test]
    fn lexes_double_quoted_ident() {
        assert_eq!(kinds("\"order\"")[0], TokenKind::Ident("order"));
    }

    #[test]
    fn token_offsets_point_into_input() {
        let toks = tokenize("SELECT x").unwrap();
        assert_eq!(toks[0].offset, 0);
        assert_eq!(toks[1].offset, 7);
    }
}
