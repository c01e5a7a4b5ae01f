//! Query decomposition helpers for the distributed engines.
//!
//! BestPeer++'s fetch-and-process and parallel strategies and the SMS
//! planner (`bestpeer_mapreduce::sqlcompile`, shared by HadoopDB and the
//! MapReduce engine) all start the same way: each base table of the
//! query is reduced to a single-table subquery with its selection
//! predicates and the referenced columns pushed down, executed wherever
//! the table's data lives. [`decompose`] performs that split for all of
//! them and reports the greedy left-deep join order with per-level
//! residual predicates. The P2P engines first move the most selective
//! table to the front ([`reorder_for_selectivity`]); the SMS planner
//! keeps FROM order.

use bestpeer_common::{Error, Result, TableSchema};

use crate::ast::{ColumnRef, Expr, SelectStmt};
use crate::plan::Binding;

/// One base table's share of a distributed query.
#[derive(Debug, Clone, PartialEq)]
pub struct TablePart {
    /// The table.
    pub table: String,
    /// The single-table subquery a data owner evaluates locally
    /// (projection pruned to referenced columns, selections pushed).
    pub subquery: SelectStmt,
    /// Binding of the subquery's output rows.
    pub binding: Binding,
}

/// One join of the left-deep order.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinStep {
    /// Index into [`Decomposition::parts`] of the table joined in.
    pub part: usize,
    /// Key positions `(left, right)` within the untagged rows of each
    /// side; `None` = cross join.
    pub keys: Option<(usize, usize)>,
    /// Residual predicates that become evaluable at this level.
    pub residuals: Vec<Expr>,
    /// Binding of this level's output.
    pub out_binding: Binding,
}

/// The decomposed query.
#[derive(Debug, Clone, PartialEq)]
pub struct Decomposition {
    /// Per-table subqueries, in `FROM` order.
    pub parts: Vec<TablePart>,
    /// Join steps in execution order (empty for single-table queries).
    /// The pipeline starts from `parts\[0\]`.
    pub joins: Vec<JoinStep>,
}

impl Decomposition {
    /// The binding of the fully-joined row stream.
    pub fn final_binding(&self) -> &Binding {
        match self.joins.last() {
            Some(j) => &j.out_binding,
            None => &self.parts[0].binding,
        }
    }
}

/// Columns of `schema` referenced anywhere in the query, in schema
/// order; the first column when nothing is referenced (a row must have
/// at least one column).
pub fn needed_columns(stmt: &SelectStmt, schema: &TableSchema) -> Vec<String> {
    let refs = stmt.all_referenced_columns();
    let mut out: Vec<String> = schema
        .columns
        .iter()
        .filter(|c| {
            refs.iter()
                .any(|r| r.column == c.name && r.table.as_deref().is_none_or(|t| t == schema.name))
        })
        .map(|c| c.name.clone())
        .collect();
    if out.is_empty() {
        out.push(schema.columns[0].name.clone());
    }
    out
}

/// Check that every column `stmt` references names a column of one of
/// its FROM tables, whose schemas are looked up by name in `schemas`;
/// an ORDER BY key may also name an output column. Fails with
/// [`Error::Plan`] on the first reference that does not resolve, so
/// every engine rejects a misspelt name the same way, however many
/// peers hold the data and whether or not a row reaches it. A FROM
/// table missing from `schemas` leaves the statement to the catalog
/// checks that follow.
pub fn check_columns(stmt: &SelectStmt, schemas: &[TableSchema]) -> Result<()> {
    let mut from = Vec::with_capacity(stmt.from.len());
    for t in &stmt.from {
        match schemas.iter().find(|s| s.name == *t) {
            Some(s) => from.push(s),
            None => return Ok(()),
        }
    }
    let in_from = |c: &ColumnRef| {
        from.iter().any(|s| {
            c.table.as_deref().is_none_or(|t| t == s.name)
                && s.columns.iter().any(|col| col.name == c.column)
        })
    };
    let is_output = |c: &ColumnRef| {
        c.table.is_none() && stmt.projections.iter().any(|p| p.output_name() == c.column)
    };
    let mut refs = Vec::new();
    let evaluated = stmt.projections.iter().map(|p| &p.expr);
    for e in evaluated.chain(&stmt.predicates).chain(&stmt.group_by) {
        e.collect_columns(&mut refs);
    }
    let first_key = refs.len();
    for k in &stmt.order_by {
        k.expr.collect_columns(&mut refs);
    }
    match refs
        .iter()
        .enumerate()
        .find(|&(i, c)| !(in_from(c) || (i >= first_key && is_output(c))))
    {
        Some((_, c)) => Err(Error::Plan(format!("unresolved column `{c}`"))),
        None => Ok(()),
    }
}

/// Reorder a statement's FROM list (and the schema list alongside it)
/// so tables carrying pushable single-table predicates come first. The
/// fetch-and-process engine fetches tables in this order, which lets a
/// Bloom filter built from the selective side prune the unfiltered side
/// before it crosses the network; the parallel engine likewise uses the
/// most selective table as the replicated (small) side.
pub fn reorder_for_selectivity(
    stmt: &SelectStmt,
    schemas: &[TableSchema],
) -> (SelectStmt, Vec<TableSchema>) {
    let mut scored: Vec<(usize, usize)> = stmt
        .from
        .iter()
        .enumerate()
        .map(|(i, _)| {
            let schema = &schemas[i];
            let hits = stmt
                .predicates
                .iter()
                .filter(|p| {
                    p.as_column_literal().is_some_and(|(c, _, _)| {
                        schema.column_index(&c.column).is_ok()
                            && c.table.as_deref().is_none_or(|t| t == schema.name)
                    })
                })
                .count();
            (i, hits)
        })
        .collect();
    // Stable sort: more predicate hits first; original order on ties.
    scored.sort_by_key(|&(_, hits)| std::cmp::Reverse(hits));
    let mut out = stmt.clone();
    out.from = scored.iter().map(|(i, _)| stmt.from[*i].clone()).collect();
    let new_schemas = scored.iter().map(|(i, _)| schemas[*i].clone()).collect();
    (out, new_schemas)
}

/// Decompose `stmt` against the given table schemas (one per FROM
/// table, in order).
pub fn decompose(stmt: &SelectStmt, schemas: &[TableSchema]) -> Result<Decomposition> {
    assert_eq!(schemas.len(), stmt.from.len(), "one schema per FROM table");
    let mut parts = Vec::with_capacity(stmt.from.len());
    let mut pushed = vec![false; stmt.predicates.len()];
    for (t, schema) in stmt.from.iter().zip(schemas) {
        let binding = Binding::from_cols(
            needed_columns(stmt, schema)
                .into_iter()
                .map(|c| (Some(t.clone()), c))
                .collect(),
        );
        let mut preds = Vec::new();
        for (i, p) in stmt.predicates.iter().enumerate() {
            if !pushed[i] && p.as_equi_join().is_none() && binding.covers(p) {
                preds.push(p.clone());
                pushed[i] = true;
            }
        }
        parts.push(TablePart {
            table: t.clone(),
            subquery: SelectStmt {
                projections: binding.select_items(),
                from: vec![t.clone()],
                predicates: preds,
                group_by: Vec::new(),
                order_by: Vec::new(),
                limit: None,
            },
            binding,
        });
    }
    let mut residual: Vec<Expr> = stmt
        .predicates
        .iter()
        .enumerate()
        .filter(|(i, _)| !pushed[*i])
        .map(|(_, p)| p.clone())
        .collect();

    // Greedy left-deep join order.
    let mut current = parts[0].binding.clone();
    let mut remaining: Vec<usize> = (1..parts.len()).collect();
    let mut joins = Vec::new();
    while !remaining.is_empty() {
        let mut chosen: Option<(usize, usize, usize, usize)> = None;
        'outer: for (ri, &ti) in remaining.iter().enumerate() {
            for (pi, p) in residual.iter().enumerate() {
                if let Some((a, b)) = p.as_equi_join() {
                    if let (Ok(l), Ok(r)) = (current.resolve(a), parts[ti].binding.resolve(b)) {
                        chosen = Some((ri, pi, l, r));
                        break 'outer;
                    }
                    if let (Ok(l), Ok(r)) = (current.resolve(b), parts[ti].binding.resolve(a)) {
                        chosen = Some((ri, pi, l, r));
                        break 'outer;
                    }
                }
            }
        }
        let (ri, keys) = match chosen {
            Some((ri, pi, l, r)) => {
                residual.remove(pi);
                (ri, Some((l, r)))
            }
            None => (0, None),
        };
        let ti = remaining.remove(ri);
        let out_binding = current.concat(&parts[ti].binding);
        let mut level_residuals = Vec::new();
        residual.retain(|p| {
            if out_binding.covers(p) {
                level_residuals.push(p.clone());
                false
            } else {
                true
            }
        });
        current = out_binding.clone();
        joins.push(JoinStep {
            part: ti,
            keys,
            residuals: level_residuals,
            out_binding,
        });
    }
    if !residual.is_empty() {
        return Err(Error::Plan(format!(
            "unresolvable predicates: {}",
            residual
                .iter()
                .map(|p| p.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        )));
    }
    Ok(Decomposition { parts, joins })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_select;
    use bestpeer_common::{ColumnDef, ColumnType};

    fn schema(name: &str, cols: &[&str]) -> TableSchema {
        TableSchema::new(
            name,
            cols.iter()
                .map(|c| ColumnDef::new(*c, ColumnType::Int))
                .collect(),
            vec![],
        )
        .unwrap()
    }

    #[test]
    fn single_table_pushdown() {
        let stmt = parse_select("SELECT a FROM t WHERE a > 1 AND b = 2 ORDER BY c").unwrap();
        let d = decompose(&stmt, &[schema("t", &["a", "b", "c", "unused"])]).unwrap();
        assert!(d.joins.is_empty());
        let part = &d.parts[0];
        assert_eq!(part.subquery.predicates.len(), 2, "all predicates pushed");
        // Projection pruned: a, b, c referenced; `unused` dropped.
        assert_eq!(part.subquery.projections.len(), 3);
        assert_eq!(d.final_binding().arity(), 3);
    }

    #[test]
    fn join_order_and_keys() {
        let stmt = parse_select(
            "SELECT a1 FROM t1, t2, t3 \
             WHERE a1 = a2 AND b2 = b3 AND c3 > 5",
        )
        .unwrap();
        let d = decompose(
            &stmt,
            &[
                schema("t1", &["a1"]),
                schema("t2", &["a2", "b2"]),
                schema("t3", &["b3", "c3"]),
            ],
        )
        .unwrap();
        assert_eq!(d.joins.len(), 2);
        assert_eq!(d.joins[0].part, 1, "t2 joins first via a1 = a2");
        assert!(d.joins[0].keys.is_some());
        assert_eq!(d.joins[1].part, 2);
        // c3 > 5 was pushed into t3's subquery, not residual.
        assert!(d.parts[2].subquery.predicates.len() == 1);
        assert!(d.joins.iter().all(|j| j.residuals.is_empty()));
    }

    #[test]
    fn cross_join_fallback_and_residuals() {
        let stmt = parse_select("SELECT a1 FROM t1, t2 WHERE a1 + a2 > 3").unwrap();
        let d = decompose(&stmt, &[schema("t1", &["a1"]), schema("t2", &["a2"])]).unwrap();
        assert_eq!(d.joins.len(), 1);
        assert!(d.joins[0].keys.is_none(), "no equi-join predicate");
        assert_eq!(d.joins[0].residuals.len(), 1, "a1+a2>3 applied post-join");
    }

    #[test]
    fn every_column_must_name_a_from_column_or_an_output_for_order_by() {
        let schemas = [schema("t1", &["a1", "b1"]), schema("t2", &["a2"])];
        let check = |sql: &str| check_columns(&parse_select(sql).unwrap(), &schemas);
        for ok in [
            "SELECT a1 AS x, t2.a2 FROM t1, t2 WHERE a1 = a2 ORDER BY x, t1.b1",
            "SELECT b1, COUNT(*) AS n FROM t1 GROUP BY b1 ORDER BY n DESC",
            "SELECT * FROM t1 ORDER BY b1",
            // An unknown FROM table is left to the catalog checks.
            "SELECT zzz FROM nosuch",
        ] {
            check(ok).unwrap_or_else(|e| panic!("{ok}: {e}"));
        }
        for bad in [
            "SELECT zzz FROM t1 WHERE a1 < 0",
            "SELECT a1 FROM t1 ORDER BY zzz LIMIT 3",
            "SELECT a1 FROM t1 WHERE t2.a2 > 1",
            "SELECT a1 AS x FROM t1 GROUP BY x",
            "SELECT a1 FROM t1 ORDER BY t1.x",
        ] {
            assert_eq!(check(bad).unwrap_err().kind(), "plan", "{bad}");
        }
    }

    #[test]
    fn table_with_no_referenced_columns_keeps_one() {
        let stmt = parse_select("SELECT a1 FROM t1, t2").unwrap();
        let d = decompose(&stmt, &[schema("t1", &["a1"]), schema("t2", &["x", "y"])]).unwrap();
        assert_eq!(d.parts[1].subquery.projections.len(), 1);
    }
}
