//! Query decomposition, and the pushdown and join order every planner
//! shares.
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
//!
//! The two decisions inside, which table each conjunct is pushed to and
//! the order tables are joined in, are one routine each
//! (`push_down` and `join_order`). The local planner
//! ([`crate::phys::plan_physical`]) calls the same two, ranking tables by
//! estimated scan size where [`decompose`] ranks them all equal.

use std::borrow::Borrow;

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

/// Check that every FROM table names one of `schemas` and every column
/// `stmt` references names a column of one of its FROM tables; an ORDER
/// BY key may also name an output column. Fails with [`Error::Catalog`]
/// on the first unknown table and with [`Error::Plan`] on the first
/// reference that does not resolve, so every engine rejects a misspelt
/// name the same way, however many peers hold the data and whether or
/// not a row reaches it.
pub fn check_columns(stmt: &SelectStmt, schemas: &[TableSchema]) -> Result<()> {
    let from = stmt
        .from
        .iter()
        .map(|t| {
            schemas
                .iter()
                .find(|s| s.name == *t)
                .ok_or_else(|| Error::Catalog(format!("no global table `{t}`")))
        })
        .collect::<Result<Vec<_>>>()?;
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
pub fn reorder_for_selectivity<'s>(
    stmt: &SelectStmt,
    schemas: &[&'s TableSchema],
) -> (SelectStmt, Vec<&'s TableSchema>) {
    let mut scored: Vec<(usize, usize)> = stmt
        .from
        .iter()
        .enumerate()
        .map(|(i, _)| {
            let schema = schemas[i];
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
    let new_schemas = scored.iter().map(|(i, _)| schemas[*i]).collect();
    (out, new_schemas)
}

/// Decompose `stmt` against the given table schemas (one per FROM
/// table, in order). Each part binds the columns the statement
/// references, and the join order keeps FROM order wherever it has a
/// choice, so the pipeline starts from `parts[0]`.
pub fn decompose<S: Borrow<TableSchema>>(
    stmt: &SelectStmt,
    schemas: &[S],
) -> Result<Decomposition> {
    assert_eq!(schemas.len(), stmt.from.len(), "one schema per FROM table");
    let bindings: Vec<Binding> = stmt
        .from
        .iter()
        .zip(schemas)
        .map(|(t, schema)| {
            let cols = needed_columns(stmt, schema.borrow()).into_iter();
            Binding::from_cols(cols.map(|c| (Some(t.clone()), c)).collect())
        })
        .collect();
    let (pushed, rest) = push_down(stmt, &bindings)?;
    let (_, joins) = join_order(&bindings, &vec![0.0; bindings.len()], rest)?;
    let parts = stmt
        .from
        .iter()
        .zip(bindings)
        .zip(pushed)
        .map(|((t, binding), predicates)| TablePart {
            table: t.clone(),
            subquery: SelectStmt {
                projections: binding.select_items(),
                from: vec![t.clone()],
                predicates,
                ..SelectStmt::default()
            },
            binding,
        })
        .collect();
    Ok(Decomposition { parts, joins })
}

/// Push `stmt`'s WHERE conjuncts down to its FROM tables, whose rows
/// `bindings` describe (one per FROM table, in order). Returns each
/// table's selections and, in statement order, the conjuncts no single
/// table covers: join predicates and cross-table residuals.
///
/// - A conjunct that a table covers is a selection on the first table
///   that covers it.
/// - A column equality `a = b` is a selection only when both columns
///   name columns of one and the same table and of no other; otherwise
///   it stays a join predicate.
/// - Any other conjunct with an unqualified column that more than one
///   table has fails with [`Error::Plan`] (`ambiguous column
///   reference`) rather than binding to the first of them.
pub(crate) fn push_down(
    stmt: &SelectStmt,
    bindings: &[Binding],
) -> Result<(Vec<Vec<Expr>>, Vec<Expr>)> {
    let sole_home = |c: &ColumnRef| {
        let mut hs = homes(bindings, c);
        match (hs.next(), hs.next()) {
            (Some(t), None) => Some(t),
            _ => None,
        }
    };
    let mut pushed = vec![Vec::new(); bindings.len()];
    let mut rest = Vec::new();
    for p in &stmt.predicates {
        let home = match p.as_equi_join() {
            Some((a, b)) => sole_home(a).filter(|&t| sole_home(b) == Some(t)),
            None => {
                let ambiguous = p
                    .referenced_columns()
                    .into_iter()
                    .find(|c| c.table.is_none() && homes(bindings, c).nth(1).is_some());
                if let Some(c) = ambiguous {
                    return Err(Error::Plan(format!("ambiguous column reference `{c}`")));
                }
                bindings.iter().position(|b| b.covers(p))
            }
        };
        match home {
            Some(t) => pushed[t].push(p.clone()),
            None => rest.push(p.clone()),
        }
    }
    Ok((pushed, rest))
}

/// The positions of the bindings that resolve `c`.
fn homes<'a>(bindings: &'a [Binding], c: &'a ColumnRef) -> impl Iterator<Item = usize> + 'a {
    let resolves = move |(i, b): (usize, &Binding)| b.resolve(c).is_ok().then_some(i);
    bindings.iter().enumerate().filter_map(resolves)
}

/// The greedy left-deep join order over the tables `bindings` describe,
/// given the conjuncts `rest` that [`push_down`] left over. Returns the
/// table the pipeline starts from and the joins that follow it.
///
/// The start is the table of smallest `rank`. Each step then joins the
/// smallest-ranked pending table that an equi-join conjunct connects to
/// the joined prefix, keyed on the first such conjunct, or, when none
/// connects, cross-joins the smallest pending table. Ties keep FROM
/// order, so equal ranks give FROM order. After each join, the
/// conjuncts the joined binding now covers become that step's
/// residuals; one that never does fails with [`Error::Plan`].
pub(crate) fn join_order(
    bindings: &[Binding],
    rank: &[f64],
    mut rest: Vec<Expr>,
) -> Result<(usize, Vec<JoinStep>)> {
    let smallest = |tables: &[usize]| {
        (1..tables.len()).fold(0, |best, i| {
            if rank[tables[i]] < rank[tables[best]] {
                i
            } else {
                best
            }
        })
    };
    let mut pending: Vec<usize> = (0..bindings.len()).collect();
    let start = pending.remove(smallest(&pending));
    let mut joins: Vec<JoinStep> = Vec::with_capacity(pending.len());
    while !pending.is_empty() {
        let prefix = joins.last().map_or(&bindings[start], |j| &j.out_binding);
        // The first conjunct keying `right` to the prefix.
        let connection = |right: &Binding| {
            rest.iter().enumerate().find_map(|(pi, p)| {
                let (a, b) = p.as_equi_join()?;
                let keys = |l: &ColumnRef, r: &ColumnRef| {
                    Some((prefix.resolve(l).ok()?, right.resolve(r).ok()?))
                };
                Some((pi, keys(a, b).or_else(|| keys(b, a))?))
            })
        };
        let mut chosen: Option<(usize, usize, (usize, usize))> = None;
        for (i, &t) in pending.iter().enumerate() {
            if chosen.is_none_or(|(c, ..)| rank[t] < rank[pending[c]]) {
                if let Some((pi, keys)) = connection(&bindings[t]) {
                    chosen = Some((i, pi, keys));
                }
            }
        }
        let (i, keys) = match chosen {
            Some((i, pi, keys)) => {
                rest.remove(pi);
                (i, Some(keys))
            }
            None => (smallest(&pending), None),
        };
        let part = pending.remove(i);
        let out_binding = prefix.concat(&bindings[part]);
        let mut residuals = Vec::new();
        rest.retain(|p| {
            let covered = out_binding.covers(p);
            if covered {
                residuals.push(p.clone());
            }
            !covered
        });
        joins.push(JoinStep {
            part,
            keys,
            residuals,
            out_binding,
        });
    }
    if !rest.is_empty() {
        let preds: Vec<String> = rest.iter().map(|p| p.to_string()).collect();
        return Err(Error::Plan(format!(
            "unresolvable predicates: {}",
            preds.join(", ")
        )));
    }
    Ok((start, joins))
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
    fn column_equality_within_one_table_lands_in_its_subquery() {
        let stmt = parse_select(
            "SELECT COUNT(*) FROM lineitem, orders \
             WHERE l_orderkey = o_orderkey AND l_partkey = l_suppkey",
        )
        .unwrap();
        let schemas = [
            schema("lineitem", &["l_orderkey", "l_partkey", "l_suppkey"]),
            schema("orders", &["o_orderkey"]),
        ];
        let d = decompose(&stmt, &schemas).unwrap();
        let lineitem = &d.parts[0].subquery;
        assert_eq!(lineitem.from, ["lineitem"]);
        let preds: Vec<String> = lineitem.predicates.iter().map(|p| p.to_string()).collect();
        assert_eq!(preds, ["l_partkey = l_suppkey"]);
        assert!(d.parts[1].subquery.predicates.is_empty());
        assert_eq!(d.joins[0].keys, Some((0, 0)), "l_orderkey = o_orderkey");
        assert!(d.joins[0].residuals.is_empty());
    }

    #[test]
    fn ambiguous_unqualified_column_fails_and_a_shared_equality_joins() {
        let schemas = [schema("t1", &["x", "a1"]), schema("t2", &["x", "a2"])];
        let plan = |sql: &str| decompose(&parse_select(sql).unwrap(), &schemas);
        let err = plan("SELECT a1 FROM t1, t2 WHERE a1 = a2 AND x > 3").unwrap_err();
        assert_eq!(
            err.to_string(),
            "plan error: ambiguous column reference `x`"
        );
        let d = plan("SELECT a1 FROM t1, t2 WHERE a1 = a2 AND t1.x > 3").unwrap();
        assert_eq!(d.parts[0].subquery.predicates.len(), 1);
        // `x` names a column of both tables, so `x = a2` stays a join
        // predicate and keys on the prefix's `x`.
        let d = plan("SELECT a1 FROM t1, t2 WHERE x = a2").unwrap();
        assert!(d.parts.iter().all(|p| p.subquery.predicates.is_empty()));
        assert_eq!(d.joins[0].keys, Some((0, 1)));
    }

    #[test]
    fn every_column_must_name_a_from_column_or_an_output_for_order_by() {
        let schemas = [schema("t1", &["a1", "b1"]), schema("t2", &["a2"])];
        let check = |sql: &str| check_columns(&parse_select(sql).unwrap(), &schemas);
        for ok in [
            "SELECT a1 AS x, t2.a2 FROM t1, t2 WHERE a1 = a2 ORDER BY x, t1.b1",
            "SELECT b1, COUNT(*) AS n FROM t1 GROUP BY b1 ORDER BY n DESC",
            "SELECT * FROM t1 ORDER BY b1",
        ] {
            check(ok).unwrap_or_else(|e| panic!("{ok}: {e}"));
        }
        for unknown in ["SELECT zzz FROM nosuch", "SELECT a1 FROM t1, nosuch"] {
            assert_eq!(check(unknown).unwrap_err().kind(), "catalog", "{unknown}");
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
