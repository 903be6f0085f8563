//! A small SQL front-end for SPJ queries.
//!
//! Parses the fragment the paper's workloads live in — conjunctive
//! select-project-join blocks:
//!
//! ```sql
//! SELECT COUNT(*)
//! FROM store_sales AS ss, date_dim d, item
//! WHERE ss.ss_sold_date_sk = d.d_date_sk   -- epp
//!   AND ss.ss_item_sk = item.i_item_sk
//!   AND item.i_current_price <= 42
//! ```
//!
//! * `FROM` items take an optional alias (`AS a`, bare `a`, or none — the
//!   table name then serves as the alias); repeating a table with distinct
//!   aliases yields a self-join pair of query-local relations;
//! * `WHERE` is a conjunction of `col = col` (equi-join), `col <= const`
//!   and `col = const` (filters);
//! * a predicate followed by an `-- epp` comment is marked error-prone;
//!   ESS dimensions follow predicate order. (Alternatively leave the SQL
//!   clean and re-dimension with an epp-identification policy.) Other
//!   line comments are ignored, but one whose text opens with `epp` is a
//!   marker wherever it stands, so a header comment must not start so;
//! * predicate labels name tables for joins (`store_sales⋈date_dim`) and
//!   the column for filters (`i_current_price<=42`, `d_moy=11`), so the
//!   aliases a query is written with never reach its [`QuerySpec`]: the
//!   SQL that [`QuerySpec::to_sql`] renders parses back byte-equal.

use crate::query::{Predicate, PredicateKind, QuerySpec};
use rqp_catalog::Catalog;
use rqp_common::{Result, RqpError};

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Number(i64),
    Comma,
    Dot,
    Eq,
    Le,
    LParen,
    RParen,
    Star,
    /// `-- epp` marker attached to the preceding predicate.
    EppMark,
}

fn err(msg: impl Into<String>) -> RqpError {
    RqpError::InvalidQuery(format!("SQL parse error: {}", msg.into()))
}

fn tokenize(sql: &str) -> Result<Vec<Tok>> {
    let mut out = Vec::new();
    let mut chars = sql.char_indices().peekable();
    while let Some(&(i, c)) = chars.peek() {
        match c {
            c if c.is_whitespace() => {
                chars.next();
            }
            ',' => {
                chars.next();
                out.push(Tok::Comma);
            }
            '.' => {
                chars.next();
                out.push(Tok::Dot);
            }
            '=' => {
                chars.next();
                out.push(Tok::Eq);
            }
            '(' => {
                chars.next();
                out.push(Tok::LParen);
            }
            ')' => {
                chars.next();
                out.push(Tok::RParen);
            }
            '*' => {
                chars.next();
                out.push(Tok::Star);
            }
            ';' => {
                chars.next();
            }
            '<' => {
                chars.next();
                match chars.peek() {
                    Some(&(_, '=')) => {
                        chars.next();
                        out.push(Tok::Le);
                    }
                    _ => return Err(err(format!("expected '<=' at byte {i}"))),
                }
            }
            '-' => {
                chars.next();
                match chars.peek() {
                    Some(&(_, '-')) => {
                        // line comment; `-- epp` marks the last predicate
                        chars.next();
                        let mut comment = String::new();
                        for (_, cc) in chars.by_ref() {
                            if cc == '\n' {
                                break;
                            }
                            comment.push(cc);
                        }
                        if comment.trim().to_ascii_lowercase().starts_with("epp") {
                            out.push(Tok::EppMark);
                        }
                    }
                    Some(&(_, d)) if d.is_ascii_digit() => {
                        let n = lex_number(&mut chars)?;
                        out.push(Tok::Number(-n));
                    }
                    _ => return Err(err(format!("stray '-' at byte {i}"))),
                }
            }
            c if c.is_ascii_digit() => {
                let n = lex_number(&mut chars)?;
                out.push(Tok::Number(n));
            }
            c if c.is_alphabetic() || c == '_' => {
                let mut s = String::new();
                while let Some(&(_, cc)) = chars.peek() {
                    if cc.is_alphanumeric() || cc == '_' {
                        s.push(cc);
                        chars.next();
                    } else {
                        break;
                    }
                }
                out.push(Tok::Ident(s));
            }
            other => return Err(err(format!("unexpected character {other:?} at byte {i}"))),
        }
    }
    Ok(out)
}

fn lex_number(chars: &mut std::iter::Peekable<std::str::CharIndices<'_>>) -> Result<i64> {
    let mut s = String::new();
    while let Some(&(_, c)) = chars.peek() {
        if c.is_ascii_digit() {
            s.push(c);
            chars.next();
        } else {
            break;
        }
    }
    s.parse().map_err(|_| err(format!("bad number {s}")))
}

struct Parser<'a> {
    toks: &'a [Tok],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }

    fn next(&mut self) -> Option<&Tok> {
        let t = self.toks.get(self.pos);
        self.pos += 1;
        t
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        match self.next() {
            Some(Tok::Ident(s)) if s.eq_ignore_ascii_case(kw) => Ok(()),
            other => Err(err(format!("expected {kw}, got {other:?}"))),
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.next() {
            Some(Tok::Ident(s)) => Ok(s.clone()),
            other => Err(err(format!("expected identifier, got {other:?}"))),
        }
    }
}

const KEYWORDS: [&str; 5] = ["select", "from", "where", "and", "as"];

fn is_keyword(s: &str) -> bool {
    KEYWORDS.iter().any(|k| s.eq_ignore_ascii_case(k))
}

/// Parses an SPJ SQL block into a [`QuerySpec`] bound to `catalog`.
/// Predicates annotated `-- epp` become the ESS dimensions, in order.
pub fn parse_sql(catalog: &Catalog, name: &str, sql: &str) -> Result<QuerySpec> {
    let toks = tokenize(sql)?;
    let mut p = Parser {
        toks: &toks,
        pos: 0,
    };

    // SELECT <anything up to FROM> — we accept COUNT(*) or *.
    p.expect_kw("select")?;
    while let Some(t) = p.peek() {
        if matches!(t, Tok::Ident(s) if s.eq_ignore_ascii_case("from")) {
            break;
        }
        p.next();
    }
    p.expect_kw("from")?;

    // FROM list: table [AS alias][, ...]
    let mut relations: Vec<usize> = Vec::new();
    let mut aliases: Vec<String> = Vec::new();
    loop {
        let table = p.ident()?;
        let tid = catalog.table_id(&table)?;
        // optional alias
        let alias = match p.peek() {
            Some(Tok::Ident(s)) if s.eq_ignore_ascii_case("as") => {
                p.next();
                p.ident()?
            }
            Some(Tok::Ident(s)) if !is_keyword(s) => {
                let a = s.clone();
                p.next();
                a
            }
            _ => table.clone(),
        };
        if aliases.iter().any(|a| a.eq_ignore_ascii_case(&alias)) {
            return Err(err(format!("duplicate alias {alias}")));
        }
        relations.push(tid);
        aliases.push(alias);
        match p.peek() {
            Some(Tok::Comma) => {
                p.next();
            }
            _ => break,
        }
    }

    // WHERE conjunction (optional).
    let mut predicates: Vec<Predicate> = Vec::new();
    let mut epps: Vec<usize> = Vec::new();
    if matches!(p.peek(), Some(Tok::Ident(s)) if s.eq_ignore_ascii_case("where")) {
        p.next();
        loop {
            let (pred, is_epp) = parse_predicate(catalog, &mut p, &relations, &aliases)?;
            predicates.push(pred);
            if is_epp {
                epps.push(predicates.len() - 1);
            }
            match p.peek() {
                Some(Tok::Ident(s)) if s.eq_ignore_ascii_case("and") => {
                    p.next();
                }
                None => break,
                other => return Err(err(format!("expected AND or end, got {other:?}"))),
            }
        }
    }
    if p.peek().is_some() {
        return Err(err("trailing tokens after WHERE clause"));
    }

    let query = QuerySpec {
        name: name.into(),
        relations,
        predicates,
        epps,
    };
    query.validate(catalog)?;
    Ok(query)
}

/// `alias.column` reference → (query-local relation, column id).
fn column_ref(
    catalog: &Catalog,
    p: &mut Parser<'_>,
    relations: &[usize],
    aliases: &[String],
) -> Result<(usize, usize)> {
    let alias = p.ident()?;
    let rel = aliases
        .iter()
        .position(|a| a.eq_ignore_ascii_case(&alias))
        .ok_or_else(|| err(format!("unknown alias {alias}")))?;
    match p.next() {
        Some(Tok::Dot) => {}
        other => return Err(err(format!("expected '.', got {other:?}"))),
    }
    let column = p.ident()?;
    let col = catalog
        .table(relations[rel])
        .col_id(&column)
        .ok_or_else(|| {
            err(format!(
                "unknown column {column} on {}",
                catalog.table(relations[rel]).name
            ))
        })?;
    Ok((rel, col))
}

fn parse_predicate(
    catalog: &Catalog,
    p: &mut Parser<'_>,
    relations: &[usize],
    aliases: &[String],
) -> Result<(Predicate, bool)> {
    let (lrel, lcol) = column_ref(catalog, p, relations, aliases)?;
    let op = p.next().cloned();
    let kind = match op {
        Some(Tok::Eq) => match p.peek().cloned() {
            Some(Tok::Ident(_)) => {
                let (rrel, rcol) = column_ref(catalog, p, relations, aliases)?;
                PredicateKind::Join {
                    left: lrel,
                    left_col: lcol,
                    right: rrel,
                    right_col: rcol,
                }
            }
            Some(Tok::Number(v)) => {
                p.next();
                PredicateKind::FilterEq {
                    rel: lrel,
                    col: lcol,
                    value: v,
                }
            }
            other => return Err(err(format!("expected column or constant, got {other:?}"))),
        },
        Some(Tok::Le) => match p.next().cloned() {
            Some(Tok::Number(v)) => PredicateKind::FilterLe {
                rel: lrel,
                col: lcol,
                value: v,
            },
            other => return Err(err(format!("expected constant after <=, got {other:?}"))),
        },
        other => return Err(err(format!("expected '=' or '<=', got {other:?}"))),
    };
    // optional `-- epp` marker
    let is_epp = match p.peek() {
        Some(Tok::EppMark) => {
            p.next();
            true
        }
        _ => false,
    };
    let label = match kind {
        PredicateKind::Join { left, right, .. } => format!(
            "{}⋈{}",
            catalog.table(relations[left]).name,
            catalog.table(relations[right]).name
        ),
        PredicateKind::FilterLe { rel, col, value } => format!(
            "{}<={value}",
            catalog.table(relations[rel]).columns[col].name
        ),
        PredicateKind::FilterEq { rel, col, value } => format!(
            "{}={value}",
            catalog.table(relations[rel]).columns[col].name
        ),
    };
    Ok((Predicate { label, kind }, is_epp))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rqp_catalog::tpcds;

    #[test]
    fn parses_a_paper_style_query() {
        let cat = tpcds::catalog_sf100();
        let q = parse_sql(
            &cat,
            "parsed",
            "SELECT COUNT(*)
             FROM store_sales AS ss, date_dim d, item
             WHERE ss.ss_sold_date_sk = d.d_date_sk -- epp
               AND ss.ss_item_sk = item.i_item_sk -- epp
               AND item.i_current_price <= 42
               AND d.d_moy = 11;",
        )
        .unwrap();
        assert_eq!(q.relations.len(), 3);
        assert_eq!(q.predicates.len(), 4);
        assert_eq!(q.ndims(), 2);
        assert_eq!(q.epps, vec![0, 1]);
        assert!(matches!(
            q.predicates[2].kind,
            PredicateKind::FilterLe { value: 42, .. }
        ));
        assert!(matches!(
            q.predicates[3].kind,
            PredicateKind::FilterEq { value: 11, .. }
        ));
    }

    #[test]
    fn self_joins_via_distinct_aliases() {
        let cat = tpcds::catalog_sf100();
        let q = parse_sql(
            &cat,
            "selfjoin",
            "SELECT * FROM customer_demographics cd1, customer_demographics cd2, customer c
             WHERE c.c_current_cdemo_sk = cd1.cd_demo_sk
               AND c.c_current_hdemo_sk = cd2.cd_demo_sk -- epp",
        )
        .unwrap();
        assert_eq!(q.relations.len(), 3);
        assert_eq!(q.relations[0], q.relations[1]);
        assert_eq!(q.ndims(), 1);
    }

    #[test]
    fn negative_constants_parse() {
        let cat = tpcds::catalog_sf100();
        let q = parse_sql(
            &cat,
            "neg",
            "SELECT * FROM customer_address ca, customer c
             WHERE c.c_current_addr_sk = ca.ca_address_sk
               AND ca.ca_gmt_offset <= -5",
        )
        .unwrap();
        assert!(matches!(
            q.predicates[1].kind,
            PredicateKind::FilterLe { value: -5, .. }
        ));
    }

    #[test]
    fn rejects_unknown_objects_and_syntax() {
        let cat = tpcds::catalog_sf100();
        assert!(parse_sql(&cat, "x", "SELECT * FROM nonexistent").is_err());
        assert!(parse_sql(
            &cat,
            "x",
            "SELECT * FROM customer c WHERE c.no_such_col = 1"
        )
        .is_err());
        assert!(
            parse_sql(
                &cat,
                "x",
                "SELECT * FROM customer c, customer c WHERE c.c_customer_sk = 1"
            )
            .is_err(),
            "duplicate alias"
        );
        assert!(parse_sql(&cat, "x", "FROM customer").is_err(), "no SELECT");
        assert!(
            parse_sql(
                &cat,
                "x",
                "SELECT * FROM customer c WHERE c.c_birth_year < 5"
            )
            .is_err(),
            "strict '<' unsupported"
        );
        // disconnected join graph caught by validation
        assert!(parse_sql(&cat, "x", "SELECT * FROM customer, item").is_err());
    }

    #[test]
    fn parse_then_render_round_trips_semantics() {
        let cat = tpcds::catalog_sf100();
        let q = parse_sql(
            &cat,
            "roundtrip",
            "SELECT COUNT(*) FROM catalog_returns cr, date_dim d
             WHERE cr.cr_returned_date_sk = d.d_date_sk -- epp",
        )
        .unwrap();
        let sql = q.to_sql(&cat);
        let q2 = parse_sql(&cat, "roundtrip2", &sql).unwrap();
        assert_eq!(q.relations, q2.relations);
        assert_eq!(q.epps, q2.epps);
        assert_eq!(q.predicates.len(), q2.predicates.len());
        for (a, b) in q.predicates.iter().zip(&q2.predicates) {
            assert_eq!(a.kind, b.kind);
        }
    }
}
