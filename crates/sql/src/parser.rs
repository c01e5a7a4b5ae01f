//! Recursive-descent parser for the supported SELECT dialect.
//!
//! Grammar (roughly):
//!
//! ```text
//! select    := SELECT select_list FROM ident (',' ident)*
//!              [WHERE expr] [GROUP BY expr_list]
//!              [ORDER BY order_list] [LIMIT int] [';']
//! select_list := '*' | item (',' item)*        item := expr [AS ident]
//! expr      := and_expr (OR and_expr)*
//! and_expr  := cmp (AND cmp)*
//! cmp       := add [cmp_op add]
//! add       := mul (('+'|'-') mul)*
//! mul       := primary ('*' primary)*
//! primary   := '(' expr ')' | literal | DATE 'Y-M-D'
//!            | AGG '(' (expr | '*') ')' | ident ['.' ident]
//! ```
//!
//! The top-level WHERE expression is split into its conjuncts, which is
//! the form the planner, the distributed decomposer, and the
//! access-control rewriter all operate on.
//!
//! No expression nests deeper than [`MAX_EXPR_DEPTH`], so neither the
//! parser nor any walker of the tree it builds recurses without bound
//! on hostile SQL.

use bestpeer_common::{Error, Result, Value};

use crate::ast::{AggFunc, ArithOp, CmpOp, ColumnRef, Expr, OrderKey, SelectItem, SelectStmt};
use crate::lexer::{lex, Sym, Token};

/// The deepest expression the parser accepts, counted two ways: as
/// nested parentheses and aggregate arguments, which the parser recurses
/// into before any node exists, and as operator nodes on one
/// root-to-leaf path, which every walker after the parser recurses
/// into. A node parses the SQL of every `Subquery` and `Query` frame on
/// a connection thread with a 2 MiB stack, so the limit is sized for a
/// debug build's frames on such a thread.
pub const MAX_EXPR_DEPTH: usize = 128;

/// Parse a single `SELECT` statement.
pub fn parse_select(sql: &str) -> Result<SelectStmt> {
    let tokens = lex(sql)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        nesting: 0,
    };
    let stmt = p.select()?;
    p.eat_symbol(Sym::Semi); // optional trailing semicolon
    if !p.at_end() {
        return Err(Error::Parse(format!(
            "trailing input after statement: {:?}",
            p.peek()
        )));
    }
    Ok(stmt)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Parentheses and aggregate arguments open at `pos`.
    nesting: usize,
}

/// An expression and its depth: the operator nodes on its deepest
/// root-to-leaf path.
type Parsed = (Expr, usize);

fn too_deep() -> Error {
    Error::Parse(format!(
        "expression nests deeper than {MAX_EXPR_DEPTH} levels"
    ))
}

/// The depth of a node over children of depths `a` and `b`.
fn node_depth(a: usize, b: usize) -> Result<usize> {
    let depth = 1 + a.max(b);
    if depth > MAX_EXPR_DEPTH {
        return Err(too_deep());
    }
    Ok(depth)
}

impl Parser {
    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn peek2(&self) -> Option<&Token> {
        self.tokens.get(self.pos + 1)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    /// Consume an identifier equal to `kw` (case-insensitive).
    fn eat_keyword(&mut self, kw: &str) -> bool {
        if let Some(Token::Ident(s)) = self.peek() {
            if s.eq_ignore_ascii_case(kw) {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<()> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(Error::Parse(format!(
                "expected keyword {kw}, found {:?}",
                self.peek()
            )))
        }
    }

    fn eat_symbol(&mut self, s: Sym) -> bool {
        if self.peek() == Some(&Token::Symbol(s)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_symbol(&mut self, s: Sym) -> Result<()> {
        if self.eat_symbol(s) {
            Ok(())
        } else {
            Err(Error::Parse(format!(
                "expected {s:?}, found {:?}",
                self.peek()
            )))
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.next() {
            Some(Token::Ident(s)) => Ok(s),
            other => Err(Error::Parse(format!(
                "expected identifier, found {other:?}"
            ))),
        }
    }

    fn select(&mut self) -> Result<SelectStmt> {
        self.expect_keyword("SELECT")?;
        let projections = self.select_list()?;
        self.expect_keyword("FROM")?;
        let mut from = vec![self.ident()?.to_ascii_lowercase()];
        while self.eat_symbol(Sym::Comma) {
            from.push(self.ident()?.to_ascii_lowercase());
        }
        let mut predicates = Vec::new();
        if self.eat_keyword("WHERE") {
            split_conjuncts(self.expr()?.0, &mut predicates);
        }
        let mut group_by = Vec::new();
        if self.eat_keyword("GROUP") {
            self.expect_keyword("BY")?;
            group_by.push(self.expr()?.0);
            while self.eat_symbol(Sym::Comma) {
                group_by.push(self.expr()?.0);
            }
        }
        let mut order_by = Vec::new();
        if self.eat_keyword("ORDER") {
            self.expect_keyword("BY")?;
            loop {
                let expr = self.expr()?.0;
                let desc = if self.eat_keyword("DESC") {
                    true
                } else {
                    self.eat_keyword("ASC");
                    false
                };
                order_by.push(OrderKey { expr, desc });
                if !self.eat_symbol(Sym::Comma) {
                    break;
                }
            }
        }
        let mut limit = None;
        if self.eat_keyword("LIMIT") {
            match self.next() {
                Some(Token::Int(n)) if n >= 0 => limit = Some(n as usize),
                other => {
                    return Err(Error::Parse(format!(
                        "expected LIMIT count, found {other:?}"
                    )))
                }
            }
        }
        Ok(SelectStmt {
            projections,
            from,
            predicates,
            group_by,
            order_by,
            limit,
        })
    }

    fn select_list(&mut self) -> Result<Vec<SelectItem>> {
        // Bare `*` means all columns, encoded as an empty projection list.
        if self.peek() == Some(&Token::Symbol(Sym::Star)) {
            self.pos += 1;
            return Ok(Vec::new());
        }
        let mut items = vec![self.select_item()?];
        while self.eat_symbol(Sym::Comma) {
            items.push(self.select_item()?);
        }
        Ok(items)
    }

    fn select_item(&mut self) -> Result<SelectItem> {
        let expr = self.expr()?.0;
        let alias = if self.eat_keyword("AS") {
            Some(self.ident()?)
        } else {
            None
        };
        Ok(SelectItem { expr, alias })
    }

    /// Parse an expression one nesting level down: inside parentheses
    /// or as an aggregate's argument.
    fn nested_expr(&mut self) -> Result<Parsed> {
        if self.nesting == MAX_EXPR_DEPTH {
            return Err(too_deep());
        }
        self.nesting += 1;
        let parsed = self.expr();
        self.nesting -= 1;
        parsed
    }

    fn expr(&mut self) -> Result<Parsed> {
        let (mut left, mut depth) = self.and_expr()?;
        while self.eat_keyword("OR") {
            let (right, d) = self.and_expr()?;
            depth = node_depth(depth, d)?;
            left = Expr::Or(Box::new(left), Box::new(right));
        }
        Ok((left, depth))
    }

    fn and_expr(&mut self) -> Result<Parsed> {
        let (mut left, mut depth) = self.cmp_expr()?;
        while self.eat_keyword("AND") {
            let (right, d) = self.cmp_expr()?;
            depth = node_depth(depth, d)?;
            left = Expr::And(Box::new(left), Box::new(right));
        }
        Ok((left, depth))
    }

    fn cmp_expr(&mut self) -> Result<Parsed> {
        let (left, depth) = self.add_expr()?;
        let op = match self.peek() {
            Some(Token::Symbol(Sym::Eq)) => Some(CmpOp::Eq),
            Some(Token::Symbol(Sym::Ne)) => Some(CmpOp::Ne),
            Some(Token::Symbol(Sym::Lt)) => Some(CmpOp::Lt),
            Some(Token::Symbol(Sym::Le)) => Some(CmpOp::Le),
            Some(Token::Symbol(Sym::Gt)) => Some(CmpOp::Gt),
            Some(Token::Symbol(Sym::Ge)) => Some(CmpOp::Ge),
            _ => None,
        };
        if let Some(op) = op {
            self.pos += 1;
            let (right, d) = self.add_expr()?;
            let cmp = Expr::Cmp {
                left: Box::new(left),
                op,
                right: Box::new(right),
            };
            Ok((cmp, node_depth(depth, d)?))
        } else {
            Ok((left, depth))
        }
    }

    fn add_expr(&mut self) -> Result<Parsed> {
        let (mut left, mut depth) = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                Some(Token::Symbol(Sym::Plus)) => ArithOp::Add,
                Some(Token::Symbol(Sym::Minus)) => ArithOp::Sub,
                _ => break,
            };
            self.pos += 1;
            let (right, d) = self.mul_expr()?;
            depth = node_depth(depth, d)?;
            left = Expr::Arith {
                left: Box::new(left),
                op,
                right: Box::new(right),
            };
        }
        Ok((left, depth))
    }

    fn mul_expr(&mut self) -> Result<Parsed> {
        let (mut left, mut depth) = self.primary()?;
        loop {
            let op = match self.peek() {
                Some(Token::Symbol(Sym::Star)) => ArithOp::Mul,
                Some(Token::Symbol(Sym::Slash)) => ArithOp::Div,
                _ => break,
            };
            self.pos += 1;
            let (right, d) = self.primary()?;
            depth = node_depth(depth, d)?;
            left = Expr::Arith {
                left: Box::new(left),
                op,
                right: Box::new(right),
            };
        }
        Ok((left, depth))
    }

    fn primary(&mut self) -> Result<Parsed> {
        match self.peek().cloned() {
            Some(Token::Symbol(Sym::LParen)) => {
                self.pos += 1;
                let parsed = self.nested_expr()?;
                self.expect_symbol(Sym::RParen)?;
                Ok(parsed)
            }
            Some(Token::Int(v)) => {
                self.pos += 1;
                Ok((Expr::Literal(Value::Int(v)), 0))
            }
            Some(Token::Float(v)) => {
                self.pos += 1;
                Ok((Expr::Literal(Value::Float(v)), 0))
            }
            Some(Token::Str(s)) => {
                self.pos += 1;
                Ok((Expr::Literal(Value::Str(s)), 0))
            }
            Some(Token::Ident(id)) => {
                // DATE 'YYYY-MM-DD' literal
                if id.eq_ignore_ascii_case("DATE") {
                    if let Some(Token::Str(_)) = self.peek2() {
                        self.pos += 1; // DATE
                        if let Some(Token::Str(s)) = self.next() {
                            return Ok((Expr::Literal(Value::date_from_str(&s)?), 0));
                        }
                        unreachable!("peeked a string literal");
                    }
                }
                // Aggregate call?
                if let Some(func) = agg_of(&id) {
                    if self.peek2() == Some(&Token::Symbol(Sym::LParen)) {
                        self.pos += 2; // name + '('
                        if self.eat_symbol(Sym::Star) {
                            self.expect_symbol(Sym::RParen)?;
                            if func != AggFunc::Count {
                                return Err(Error::Parse(format!("{func}(*) is not valid")));
                            }
                            return Ok((Expr::Agg { func, arg: None }, 1));
                        }
                        let (arg, d) = self.nested_expr()?;
                        self.expect_symbol(Sym::RParen)?;
                        let agg = Expr::Agg {
                            func,
                            arg: Some(Box::new(arg)),
                        };
                        return Ok((agg, node_depth(d, 0)?));
                    }
                }
                // Plain or qualified column.
                self.pos += 1;
                if self.peek() == Some(&Token::Symbol(Sym::Dot)) {
                    self.pos += 1;
                    let col = self.ident()?;
                    let column =
                        ColumnRef::qualified(id.to_ascii_lowercase(), col.to_ascii_lowercase());
                    Ok((Expr::Column(column), 0))
                } else {
                    Ok((Expr::Column(ColumnRef::new(id.to_ascii_lowercase())), 0))
                }
            }
            other => Err(Error::Parse(format!(
                "expected expression, found {other:?}"
            ))),
        }
    }
}

fn agg_of(name: &str) -> Option<AggFunc> {
    match name.to_ascii_uppercase().as_str() {
        "COUNT" => Some(AggFunc::Count),
        "SUM" => Some(AggFunc::Sum),
        "AVG" => Some(AggFunc::Avg),
        "MIN" => Some(AggFunc::Min),
        "MAX" => Some(AggFunc::Max),
        _ => None,
    }
}

/// Flatten top-level `AND`s into a conjunct list.
fn split_conjuncts(e: Expr, out: &mut Vec<Expr>) {
    match e {
        Expr::And(a, b) => {
            split_conjuncts(*a, out);
            split_conjuncts(*b, out);
        }
        other => out.push(other),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paper_q1_shape() {
        let stmt = parse_select(
            "SELECT l_orderkey, l_partkey, l_quantity \
             FROM lineitem \
             WHERE l_shipdate > DATE '1998-11-05' AND l_commitdate > DATE '1998-11-01'",
        )
        .unwrap();
        assert_eq!(stmt.from, vec!["lineitem"]);
        assert_eq!(stmt.projections.len(), 3);
        assert_eq!(stmt.predicates.len(), 2);
        let (c, op, v) = stmt.predicates[0].as_column_literal().unwrap();
        assert_eq!(c.column, "l_shipdate");
        assert_eq!(op, CmpOp::Gt);
        assert_eq!(*v, Value::date_from_str("1998-11-05").unwrap().clone());
    }

    #[test]
    fn parses_aggregate_with_arithmetic() {
        let stmt =
            parse_select("SELECT SUM(l_extendedprice * (1 - l_discount)) AS revenue FROM lineitem")
                .unwrap();
        assert!(stmt.is_aggregate());
        assert_eq!(stmt.projections[0].output_name(), "revenue");
        assert!(stmt.projections[0].expr.contains_agg());
    }

    #[test]
    fn parses_join_group_order_limit() {
        let stmt = parse_select(
            "SELECT o_orderdate, COUNT(*), MAX(l_quantity) FROM lineitem, orders \
             WHERE l_orderkey = o_orderkey AND o_totalprice >= 100.5 \
             GROUP BY o_orderdate ORDER BY o_orderdate DESC LIMIT 10;",
        )
        .unwrap();
        assert_eq!(stmt.from, vec!["lineitem", "orders"]);
        assert_eq!(stmt.join_count(), 1);
        assert_eq!(stmt.join_predicates().len(), 1);
        assert_eq!(stmt.group_by.len(), 1);
        assert!(stmt.order_by[0].desc);
        assert_eq!(stmt.limit, Some(10));
    }

    #[test]
    fn parses_select_star() {
        let stmt = parse_select("SELECT * FROM nation").unwrap();
        assert!(stmt.projections.is_empty());
    }

    #[test]
    fn parses_qualified_columns() {
        let stmt =
            parse_select("SELECT lineitem.l_orderkey FROM lineitem WHERE lineitem.l_tax < 0.05")
                .unwrap();
        match &stmt.projections[0].expr {
            Expr::Column(c) => {
                assert_eq!(c.table.as_deref(), Some("lineitem"));
                assert_eq!(c.column, "l_orderkey");
            }
            other => panic!("expected column, got {other:?}"),
        }
    }

    #[test]
    fn or_kept_within_single_conjunct() {
        let stmt = parse_select("SELECT a FROM t WHERE a = 1 OR a = 2 AND b = 3").unwrap();
        // AND binds tighter than OR: one top-level conjunct (the OR).
        assert_eq!(stmt.predicates.len(), 1);
        assert!(matches!(stmt.predicates[0], Expr::Or(_, _)));
        let stmt2 = parse_select("SELECT a FROM t WHERE (a = 1 OR a = 2) AND b = 3").unwrap();
        assert_eq!(stmt2.predicates.len(), 2);
    }

    #[test]
    fn count_star_only_for_count() {
        assert!(parse_select("SELECT COUNT(*) FROM t").is_ok());
        assert!(parse_select("SELECT SUM(*) FROM t").is_err());
    }

    #[test]
    fn keywords_case_insensitive() {
        let stmt =
            parse_select("select N_NAME from NATION where n_nationkey = 3 order by n_name asc")
                .unwrap();
        assert_eq!(stmt.from, vec!["nation"]);
        assert!(!stmt.order_by[0].desc);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_select("SELECT FROM t").is_err());
        assert!(parse_select("SELECT a WHERE x").is_err());
        assert!(parse_select("SELECT a FROM t WHERE").is_err());
        assert!(parse_select("SELECT a FROM t LIMIT x").is_err());
        assert!(parse_select("SELECT a FROM t extra").is_err());
        assert!(parse_select("SELECT a FROM t WHERE a = DATE 'nope'").is_err());
    }

    /// Parse `sql` and drop the result on a thread with the 2 MiB stack
    /// a node serves each connection on; returns the error kind.
    fn parse_on_small_stack(sql: &str) -> Option<&'static str> {
        std::thread::scope(|s| {
            std::thread::Builder::new()
                .stack_size(2 << 20)
                .spawn_scoped(s, || parse_select(sql).err().map(|e| e.kind()))
                .unwrap()
                .join()
                .unwrap()
        })
    }

    #[test]
    fn deep_expressions_fail_with_parse() {
        let d = MAX_EXPR_DEPTH;
        let nested = format!(
            "SELECT a FROM t WHERE {}a = 1{}",
            "(".repeat(2_000),
            ")".repeat(2_000)
        );
        let ands = format!(
            "SELECT a FROM t WHERE a = 1{}",
            " AND a = 1".repeat(200_000)
        );
        let ors = format!("SELECT a FROM t WHERE a = 1{}", " OR a = 1".repeat(100_000));
        let sum = format!("SELECT a{} FROM t", " + 1".repeat(100_000));
        // Nesting within the limit, but each level's AND chain adds a node.
        let chains = format!(
            "SELECT a FROM t WHERE {}a = 1{}",
            "(a = 1 AND a = 2 AND ".repeat(d - 1),
            ")".repeat(d - 1)
        );
        // One level past the limit, counted either way.
        let past_nesting = format!(
            "SELECT a FROM t WHERE {}a{} = 1",
            "(".repeat(d + 1),
            ")".repeat(d + 1)
        );
        let past_depth = format!("SELECT a FROM t WHERE a{} = 1", " + 1".repeat(d));
        for sql in [nested, ands, ors, sum, chains, past_nesting, past_depth] {
            assert_eq!(parse_on_small_stack(&sql), Some("parse"), "{}", &sql[..40]);
        }
    }

    #[test]
    fn statements_at_the_depth_limit_parse() {
        let d = MAX_EXPR_DEPTH;
        let (open, close) = ("(".repeat(d), ")".repeat(d));
        // `d` parentheses around a chain of `d - 1` additions under one
        // comparison, and `d` nested aggregates: both counts at the limit.
        let at_limit = format!(
            "SELECT a FROM t WHERE {open}a{}{close} = 1",
            " + 1".repeat(d - 1)
        );
        let aggregates = format!("SELECT {}a{close} FROM t", "SUM(".repeat(d));
        assert_eq!(parse_on_small_stack(&at_limit), None);
        assert_eq!(parse_on_small_stack(&aggregates), None);
    }

    #[test]
    fn display_parses_back() {
        let sql = "SELECT n_name, COUNT(*) AS cnt FROM nation, region \
                   WHERE n_regionkey = r_regionkey AND n_name <> 'FRANCE' \
                   GROUP BY n_name ORDER BY cnt DESC LIMIT 3";
        let stmt = parse_select(sql).unwrap();
        let round = parse_select(&stmt.to_string()).unwrap();
        assert_eq!(stmt, round);
    }
}
