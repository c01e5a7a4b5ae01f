//! The abstract syntax tree for the supported SQL dialect.

use std::fmt;

use bestpeer_common::Value;

/// A (possibly qualified) column reference, e.g. `l_shipdate` or
/// `lineitem.l_shipdate`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ColumnRef {
    /// Optional table qualifier.
    pub table: Option<String>,
    /// Column name.
    pub column: String,
}

impl ColumnRef {
    /// An unqualified reference.
    pub fn new(column: impl Into<String>) -> Self {
        ColumnRef {
            table: None,
            column: column.into(),
        }
    }

    /// A table-qualified reference.
    pub fn qualified(table: impl Into<String>, column: impl Into<String>) -> Self {
        ColumnRef {
            table: Some(table.into()),
            column: column.into(),
        }
    }
}

impl fmt::Display for ColumnRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.table {
            Some(t) => write!(f, "{t}.{}", self.column),
            None => write!(f, "{}", self.column),
        }
    }
}

/// Binary comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>` / `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Evaluate this comparison on two values. Comparisons against NULL
    /// yield false (SQL's UNKNOWN treated as not-selected).
    pub fn eval(self, a: &Value, b: &Value) -> bool {
        if a.is_null() || b.is_null() {
            return false;
        }
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        }
    }

    /// The operator with its operands swapped (`a op b` ⇔ `b op.flip() a`).
    pub fn flip(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        })
    }
}

/// Arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArithOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/` — always produces a float (used by AVG finalization).
    Div,
}

impl fmt::Display for ArithOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ArithOp::Add => "+",
            ArithOp::Sub => "-",
            ArithOp::Mul => "*",
            ArithOp::Div => "/",
        })
    }
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// `COUNT(expr)` / `COUNT(*)`
    Count,
    /// `SUM(expr)`
    Sum,
    /// `AVG(expr)`
    Avg,
    /// `MIN(expr)`
    Min,
    /// `MAX(expr)`
    Max,
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Avg => "AVG",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
        })
    }
}

/// A scalar or aggregate expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Column reference.
    Column(ColumnRef),
    /// Literal constant.
    Literal(Value),
    /// Comparison producing a boolean.
    Cmp {
        /// Left operand.
        left: Box<Expr>,
        /// Operator.
        op: CmpOp,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Arithmetic over numerics.
    Arith {
        /// Left operand.
        left: Box<Expr>,
        /// Operator.
        op: ArithOp,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Conjunction.
    And(Box<Expr>, Box<Expr>),
    /// Disjunction.
    Or(Box<Expr>, Box<Expr>),
    /// Aggregate call; `None` argument encodes `COUNT(*)`.
    Agg {
        /// The aggregate function.
        func: AggFunc,
        /// Argument expression (`None` only for `COUNT(*)`).
        arg: Option<Box<Expr>>,
    },
}

impl Expr {
    /// Shorthand for a column expression.
    pub fn col(name: impl Into<String>) -> Expr {
        Expr::Column(ColumnRef::new(name))
    }

    /// Shorthand for a literal.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Literal(v.into())
    }

    /// Shorthand comparison builder.
    pub fn cmp(left: Expr, op: CmpOp, right: Expr) -> Expr {
        Expr::Cmp {
            left: Box::new(left),
            op,
            right: Box::new(right),
        }
    }

    /// Does this expression contain an aggregate call?
    pub fn contains_agg(&self) -> bool {
        match self {
            Expr::Agg { .. } => true,
            Expr::Column(_) | Expr::Literal(_) => false,
            Expr::Cmp { left, right, .. } | Expr::Arith { left, right, .. } => {
                left.contains_agg() || right.contains_agg()
            }
            Expr::And(a, b) | Expr::Or(a, b) => a.contains_agg() || b.contains_agg(),
        }
    }

    /// All column references in this expression, in syntactic order.
    pub fn referenced_columns(&self) -> Vec<&ColumnRef> {
        let mut out = Vec::new();
        self.collect_columns(&mut out);
        out
    }

    /// Append this expression's column references to `out`, in
    /// syntactic order.
    pub(crate) fn collect_columns<'a>(&'a self, out: &mut Vec<&'a ColumnRef>) {
        match self {
            Expr::Column(c) => out.push(c),
            Expr::Literal(_) => {}
            Expr::Cmp { left, right, .. } | Expr::Arith { left, right, .. } => {
                left.collect_columns(out);
                right.collect_columns(out);
            }
            Expr::And(a, b) | Expr::Or(a, b) => {
                a.collect_columns(out);
                b.collect_columns(out);
            }
            Expr::Agg { arg, .. } => {
                if let Some(a) = arg {
                    a.collect_columns(out);
                }
            }
        }
    }

    /// If this expression is an equi-join predicate `colA = colB` between
    /// two *different* columns, return the pair.
    pub fn as_equi_join(&self) -> Option<(&ColumnRef, &ColumnRef)> {
        if let Expr::Cmp {
            left,
            op: CmpOp::Eq,
            right,
        } = self
        {
            if let (Expr::Column(a), Expr::Column(b)) = (left.as_ref(), right.as_ref()) {
                if a != b {
                    return Some((a, b));
                }
            }
        }
        None
    }

    /// If this expression is a comparison of a single column against a
    /// literal (`col op lit` or `lit op col`), return
    /// `(column, operator-with-column-on-left, literal)`.
    pub fn as_column_literal(&self) -> Option<(&ColumnRef, CmpOp, &Value)> {
        if let Expr::Cmp { left, op, right } = self {
            match (left.as_ref(), right.as_ref()) {
                (Expr::Column(c), Expr::Literal(v)) => return Some((c, *op, v)),
                (Expr::Literal(v), Expr::Column(c)) => return Some((c, op.flip(), v)),
                _ => {}
            }
        }
        None
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Column(c) => write!(f, "{c}"),
            Expr::Literal(Value::Str(s)) => write!(f, "'{s}'"),
            Expr::Literal(Value::Date(_)) => {
                write!(f, "DATE '{}'", self_literal(self))
            }
            Expr::Literal(v) => write!(f, "{v}"),
            Expr::Cmp { left, op, right } => write!(f, "{left} {op} {right}"),
            Expr::Arith { left, op, right } => write!(f, "({left} {op} {right})"),
            Expr::And(a, b) => write!(f, "({a} AND {b})"),
            Expr::Or(a, b) => write!(f, "({a} OR {b})"),
            Expr::Agg { func, arg: Some(a) } => write!(f, "{func}({a})"),
            Expr::Agg { func, arg: None } => write!(f, "{func}(*)"),
        }
    }
}

fn self_literal(e: &Expr) -> String {
    match e {
        Expr::Literal(v) => v.to_string(),
        _ => String::new(),
    }
}

/// One item of the SELECT list: an expression plus optional alias.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectItem {
    /// The expression to output.
    pub expr: Expr,
    /// Optional `AS` alias.
    pub alias: Option<String>,
}

impl SelectItem {
    /// The output column name: the alias when present, otherwise the
    /// printed expression.
    pub fn output_name(&self) -> String {
        self.alias.clone().unwrap_or_else(|| self.expr.to_string())
    }
}

/// An `ORDER BY` key.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderKey {
    /// Expression to sort by.
    pub expr: Expr,
    /// Descending order?
    pub desc: bool,
}

/// A parsed `SELECT` statement.
///
/// The WHERE clause is kept as a *list of conjuncts*: the paper's
/// corporate-network workload is conjunctive, and a flat list is what the
/// distributed decomposition, the access-control rewriter, and the index
/// search all want to manipulate. (`OR` is supported *inside* a conjunct.)
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SelectStmt {
    /// SELECT list.
    pub projections: Vec<SelectItem>,
    /// FROM tables (comma join).
    pub from: Vec<String>,
    /// WHERE conjuncts, implicitly AND-ed.
    pub predicates: Vec<Expr>,
    /// GROUP BY expressions.
    pub group_by: Vec<Expr>,
    /// ORDER BY keys.
    pub order_by: Vec<OrderKey>,
    /// LIMIT row count.
    pub limit: Option<usize>,
}

impl SelectStmt {
    /// Whether the statement aggregates (has aggregate calls or GROUP BY).
    pub fn is_aggregate(&self) -> bool {
        !self.group_by.is_empty() || self.projections.iter().any(|p| p.expr.contains_agg())
    }

    /// The equi-join conjuncts (column = column across tables).
    pub fn join_predicates(&self) -> Vec<&Expr> {
        self.predicates
            .iter()
            .filter(|p| p.as_equi_join().is_some())
            .collect()
    }

    /// Number of joins implied by the FROM list (|tables| − 1, min 0).
    pub fn join_count(&self) -> usize {
        self.from.len().saturating_sub(1)
    }

    /// Every column referenced anywhere in the statement (projections,
    /// predicates, grouping, ordering). Drives projection pushdown in
    /// the distributed engines.
    pub fn all_referenced_columns(&self) -> Vec<&ColumnRef> {
        let mut out = Vec::new();
        for p in &self.projections {
            out.extend(p.expr.referenced_columns());
        }
        for p in &self.predicates {
            out.extend(p.referenced_columns());
        }
        for g in &self.group_by {
            out.extend(g.referenced_columns());
        }
        for k in &self.order_by {
            out.extend(k.expr.referenced_columns());
        }
        out
    }
}

impl fmt::Display for SelectStmt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SELECT ")?;
        for (i, p) in self.projections.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", p.expr)?;
            if let Some(a) = &p.alias {
                write!(f, " AS {a}")?;
            }
        }
        write!(f, " FROM {}", self.from.join(", "))?;
        if !self.predicates.is_empty() {
            write!(f, " WHERE ")?;
            for (i, p) in self.predicates.iter().enumerate() {
                if i > 0 {
                    write!(f, " AND ")?;
                }
                write!(f, "{p}")?;
            }
        }
        if !self.group_by.is_empty() {
            let keys: Vec<String> = self.group_by.iter().map(|e| e.to_string()).collect();
            write!(f, " GROUP BY {}", keys.join(", "))?;
        }
        if !self.order_by.is_empty() {
            let keys: Vec<String> = self
                .order_by
                .iter()
                .map(|k| format!("{}{}", k.expr, if k.desc { " DESC" } else { "" }))
                .collect();
            write!(f, " ORDER BY {}", keys.join(", "))?;
        }
        if let Some(n) = self.limit {
            write!(f, " LIMIT {n}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cmp_eval_handles_null() {
        assert!(!CmpOp::Eq.eval(&Value::Null, &Value::Null));
        assert!(!CmpOp::Lt.eval(&Value::Int(1), &Value::Null));
        assert!(CmpOp::Lt.eval(&Value::Int(1), &Value::Int(2)));
        assert!(CmpOp::Ne.eval(&Value::Int(1), &Value::Int(2)));
    }

    #[test]
    fn cmp_flip_round_trips() {
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            assert_eq!(op.flip().flip(), op);
            // a op b == b flip(op) a
            let (a, b) = (Value::Int(1), Value::Int(2));
            assert_eq!(op.eval(&a, &b), op.flip().eval(&b, &a));
        }
    }

    #[test]
    fn equi_join_detection() {
        let e = Expr::cmp(Expr::col("l_orderkey"), CmpOp::Eq, Expr::col("o_orderkey"));
        let (a, b) = e.as_equi_join().unwrap();
        assert_eq!(a.column, "l_orderkey");
        assert_eq!(b.column, "o_orderkey");
        // column-to-same-column and column-to-literal are not joins
        let same = Expr::cmp(Expr::col("x"), CmpOp::Eq, Expr::col("x"));
        assert!(same.as_equi_join().is_none());
        let lit = Expr::cmp(Expr::col("x"), CmpOp::Eq, Expr::lit(5i64));
        assert!(lit.as_equi_join().is_none());
        assert!(lit.as_column_literal().is_some());
    }

    #[test]
    fn column_literal_normalizes_direction() {
        let e = Expr::cmp(Expr::lit(10i64), CmpOp::Lt, Expr::col("p_size"));
        let (c, op, v) = e.as_column_literal().unwrap();
        assert_eq!(c.column, "p_size");
        assert_eq!(op, CmpOp::Gt);
        assert_eq!(v, &Value::Int(10));
    }

    #[test]
    fn agg_detection() {
        let sum = Expr::Agg {
            func: AggFunc::Sum,
            arg: Some(Box::new(Expr::col("x"))),
        };
        assert!(sum.contains_agg());
        let nested = Expr::Arith {
            left: Box::new(sum),
            op: ArithOp::Mul,
            right: Box::new(Expr::lit(2i64)),
        };
        assert!(nested.contains_agg());
        assert!(!Expr::col("x").contains_agg());
    }

    #[test]
    fn referenced_columns_deep() {
        let e = Expr::And(
            Box::new(Expr::cmp(Expr::col("a"), CmpOp::Gt, Expr::lit(1i64))),
            Box::new(Expr::Or(
                Box::new(Expr::cmp(Expr::col("b"), CmpOp::Eq, Expr::col("c"))),
                Box::new(Expr::Agg {
                    func: AggFunc::Max,
                    arg: Some(Box::new(Expr::col("d"))),
                }),
            )),
        );
        let cols: Vec<_> = e
            .referenced_columns()
            .iter()
            .map(|c| c.column.clone())
            .collect();
        assert_eq!(cols, vec!["a", "b", "c", "d"]);
    }

    #[test]
    fn display_round_trip_shape() {
        let stmt = SelectStmt {
            projections: vec![
                SelectItem {
                    expr: Expr::col("n_name"),
                    alias: None,
                },
                SelectItem {
                    expr: Expr::Agg {
                        func: AggFunc::Count,
                        arg: None,
                    },
                    alias: Some("cnt".into()),
                },
            ],
            from: vec!["nation".into(), "region".into()],
            predicates: vec![Expr::cmp(
                Expr::col("n_regionkey"),
                CmpOp::Eq,
                Expr::col("r_regionkey"),
            )],
            group_by: vec![Expr::col("n_name")],
            order_by: vec![OrderKey {
                expr: Expr::col("n_name"),
                desc: true,
            }],
            limit: Some(5),
        };
        let s = stmt.to_string();
        assert!(s.starts_with("SELECT n_name, COUNT(*) AS cnt FROM nation, region WHERE"));
        assert!(s.contains("GROUP BY n_name"));
        assert!(s.contains("ORDER BY n_name DESC"));
        assert!(s.ends_with("LIMIT 5"));
        assert!(stmt.is_aggregate());
        assert_eq!(stmt.join_count(), 1);
        assert_eq!(stmt.join_predicates().len(), 1);
    }
}
