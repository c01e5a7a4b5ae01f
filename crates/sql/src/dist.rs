//! Distributed aggregation: partial/final splitting.
//!
//! Both engines push work to data: BestPeer++'s basic engine sends "the
//! entire SQL query to each data owner peer ... the partial aggregation
//! results are then sent back to the query submitting peer where the
//! final aggregation is performed" (paper §6.1.7), and HadoopDB's map
//! tasks run the query on the local PostgreSQL and shuffle partials to a
//! reducer. [`split_aggregate`] produces the *partial* statement each
//! source runs locally, plus a [`Combine`] step that merges partial rows
//! into the final result (including the SUM/COUNT decomposition of AVG).

use bestpeer_common::{Error, Result, Row, Value};

use crate::ast::{AggFunc, Expr, SelectItem, SelectStmt};
use crate::exec::ResultSet;
use crate::plan::{Binding, OutputStage};

/// How one final aggregate is reassembled from partial columns.
#[derive(Debug, Clone, PartialEq)]
pub enum CombineSpec {
    /// Sum the named partial column (finalizes SUM and COUNT partials).
    Sum(String),
    /// Min of the named partial column.
    Min(String),
    /// Max of the named partial column.
    Max(String),
    /// `sum_col / cnt_col` (finalizes AVG).
    AvgPair {
        /// Column holding per-source sums.
        sum_col: String,
        /// Column holding per-source counts.
        cnt_col: String,
    },
}

/// The coordinator-side half of a split aggregate.
#[derive(Debug, Clone, PartialEq)]
pub struct Combine {
    /// Names of the group-key columns in the partial output (prefix).
    pub group_cols: Vec<String>,
    /// One spec per aggregate call of [`OutputStage::aggs`], in order.
    pub specs: Vec<CombineSpec>,
    /// The statement's output stage; its binding names the combined
    /// row `[group keys.., one value per spec..]`.
    pub output: OutputStage,
}

/// A distributed aggregate: run `partial` at every source, then
/// [`Combine::apply`] over the union of partial rows.
#[derive(Debug, Clone, PartialEq)]
pub struct DistAgg {
    /// The statement each source evaluates over its local partition.
    pub partial: SelectStmt,
    /// The coordinator-side merge.
    pub combine: Combine,
}

/// Split an aggregate query into a per-source partial statement and a
/// coordinator combine step. Fails on non-aggregate statements.
pub fn split_aggregate(stmt: &SelectStmt) -> Result<DistAgg> {
    if !stmt.is_aggregate() {
        return Err(Error::Plan(
            "split_aggregate on a non-aggregate query".into(),
        ));
    }
    if stmt.projections.is_empty() {
        return Err(Error::Plan("aggregate query cannot use SELECT *".into()));
    }
    // The combine step evaluates the final projections over group keys
    // then one value per aggregate call: the statement's aggregate
    // output, laid out by its output stage.
    let output = OutputStage::new(stmt, &Binding::new());

    // Partial projection list: group keys first, then partial aggregates.
    let mut partial_projs: Vec<SelectItem> = Vec::new();
    let mut group_cols = Vec::new();
    for (i, g) in stmt.group_by.iter().enumerate() {
        let name = format!("g{i}");
        group_cols.push(name.clone());
        partial_projs.push(SelectItem {
            expr: g.clone(),
            alias: Some(name),
        });
    }
    let mut specs = Vec::new();
    for (j, agg) in output.aggs.iter().enumerate() {
        let partial = |func, alias: &str| SelectItem {
            expr: Expr::Agg {
                func,
                arg: agg.arg.clone().map(Box::new),
            },
            alias: Some(alias.to_string()),
        };
        if agg.func == AggFunc::Avg {
            let sum_col = format!("a{j}_s");
            let cnt_col = format!("a{j}_c");
            partial_projs.push(partial(AggFunc::Sum, &sum_col));
            partial_projs.push(partial(AggFunc::Count, &cnt_col));
            specs.push(CombineSpec::AvgPair { sum_col, cnt_col });
            continue;
        }
        let col = format!("a{j}");
        partial_projs.push(partial(agg.func, &col));
        specs.push(match agg.func {
            AggFunc::Min => CombineSpec::Min(col),
            AggFunc::Max => CombineSpec::Max(col),
            // Sums and counts are both merged by summation.
            _ => CombineSpec::Sum(col),
        });
    }

    let partial = SelectStmt {
        projections: partial_projs,
        from: stmt.from.clone(),
        predicates: stmt.predicates.clone(),
        group_by: stmt.group_by.clone(),
        order_by: Vec::new(),
        limit: None,
    };

    Ok(DistAgg {
        partial,
        combine: Combine {
            group_cols,
            specs,
            output,
        },
    })
}

impl Combine {
    /// Merge partial rows (with the given column names, as produced by
    /// the partial statement) into the final result set.
    pub fn apply(&self, partial_columns: &[String], rows: &[Row]) -> Result<ResultSet> {
        let col_idx = |name: &str| -> Result<usize> {
            partial_columns
                .iter()
                .position(|c| c == name)
                .ok_or_else(|| Error::Plan(format!("partial column `{name}` missing")))
        };
        let k = self.group_cols.len();
        // Group partial rows by the key prefix, preserving order.
        let mut order: Vec<Vec<Value>> = Vec::new();
        let mut groups: std::collections::HashMap<Vec<Value>, Vec<&Row>> =
            std::collections::HashMap::new();
        for row in rows {
            let key: Vec<Value> = (0..k).map(|i| row.get(i).clone()).collect();
            if !groups.contains_key(&key) {
                order.push(key.clone());
            }
            groups.entry(key).or_default().push(row);
        }
        if k == 0 && groups.is_empty() {
            // Global aggregate over zero sources still yields one row.
            order.push(Vec::new());
            groups.insert(Vec::new(), Vec::new());
        }

        let mut out_rows = Vec::with_capacity(order.len());
        for key in order {
            let members = &groups[&key];
            let mut combined = key.clone();
            for spec in &self.specs {
                let v = match spec {
                    CombineSpec::Sum(col) => {
                        let i = col_idx(col)?;
                        let mut acc = Value::Null;
                        for r in members {
                            if !r.get(i).is_null() {
                                acc = acc.checked_add(r.get(i))?;
                            }
                        }
                        acc
                    }
                    CombineSpec::Min(col) => {
                        let i = col_idx(col)?;
                        members
                            .iter()
                            .map(|r| r.get(i))
                            .filter(|v| !v.is_null())
                            .min()
                            .cloned()
                            .unwrap_or(Value::Null)
                    }
                    CombineSpec::Max(col) => {
                        let i = col_idx(col)?;
                        members
                            .iter()
                            .map(|r| r.get(i))
                            .filter(|v| !v.is_null())
                            .max()
                            .cloned()
                            .unwrap_or(Value::Null)
                    }
                    CombineSpec::AvgPair { sum_col, cnt_col } => {
                        let si = col_idx(sum_col)?;
                        let ci = col_idx(cnt_col)?;
                        let mut sum = Value::Null;
                        let mut cnt: i64 = 0;
                        for r in members {
                            if !r.get(si).is_null() {
                                sum = sum.checked_add(r.get(si))?;
                            }
                            cnt += r.get(ci).as_int().unwrap_or(0);
                        }
                        if cnt == 0 || sum.is_null() {
                            Value::Null
                        } else {
                            Value::Float(sum.as_f64()? / cnt as f64)
                        }
                    }
                };
                combined.push(v);
            }
            out_rows.push(self.output.project(&Row::new(combined))?);
        }
        Ok(ResultSet {
            columns: self.output.columns.clone(),
            rows: out_rows,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::execute_select;
    use crate::parser::parse_select;
    use bestpeer_common::{ColumnDef, ColumnType, TableSchema};
    use bestpeer_storage::Database;

    /// Build one partition database with the given (key, qty) rows.
    fn partition(rows: &[(i64, i64)]) -> Database {
        let mut db = Database::new();
        db.create_table(
            TableSchema::new(
                "t",
                vec![
                    ColumnDef::new("k", ColumnType::Int),
                    ColumnDef::new("q", ColumnType::Int),
                ],
                vec![],
            )
            .unwrap(),
        )
        .unwrap();
        for (k, q) in rows {
            db.insert("t", Row::new(vec![Value::Int(*k), Value::Int(*q)]))
                .unwrap();
        }
        db
    }

    /// Run the distributed plan over partitions and also the plain query
    /// over the union; both must agree.
    fn check_distributed_equals_central(sql: &str, parts: &[Vec<(i64, i64)>]) {
        let stmt = parse_select(sql).unwrap();
        let dist = split_aggregate(&stmt).unwrap();
        // Distributed: partial per partition, then combine.
        let mut partial_rows = Vec::new();
        let mut partial_cols = Vec::new();
        for p in parts {
            let db = partition(p);
            let (rs, _) = execute_select(&dist.partial, &db).unwrap();
            partial_cols = rs.columns.clone();
            partial_rows.extend(rs.rows);
        }
        let mut dist_result = dist.combine.apply(&partial_cols, &partial_rows).unwrap();
        // Central: all rows in one database.
        let all: Vec<(i64, i64)> = parts.iter().flatten().copied().collect();
        let db = partition(&all);
        let (mut central, _) = execute_select(&stmt, &db).unwrap();
        dist_result.rows.sort();
        central.rows.sort();
        assert_eq!(dist_result.rows, central.rows, "query: {sql}");
        assert_eq!(dist_result.columns, central.columns);
    }

    #[test]
    fn sum_count_group_by() {
        check_distributed_equals_central(
            "SELECT k, SUM(q) AS total, COUNT(*) AS n FROM t GROUP BY k",
            &[
                vec![(1, 10), (2, 20), (1, 5)],
                vec![(1, 1), (3, 30)],
                vec![],
            ],
        );
    }

    #[test]
    fn global_aggregates_without_group() {
        check_distributed_equals_central(
            "SELECT SUM(q), COUNT(*), MIN(q), MAX(q) FROM t",
            &[vec![(1, 10), (2, -3)], vec![(3, 7)]],
        );
    }

    #[test]
    fn avg_decomposes_into_sum_and_count() {
        check_distributed_equals_central(
            "SELECT k, AVG(q) AS a FROM t GROUP BY k",
            &[vec![(1, 10), (1, 20)], vec![(1, 40), (2, 5)]],
        );
        // Naive AVG-of-AVGs would give (15 + 40)/2 = 27.5 for k=1;
        // correct is 70/3. The helper must produce the correct one.
        let stmt = parse_select("SELECT AVG(q) AS a FROM t GROUP BY k").unwrap();
        let dist = split_aggregate(&stmt).unwrap();
        assert!(matches!(dist.combine.specs[0], CombineSpec::AvgPair { .. }));
    }

    #[test]
    fn arithmetic_over_aggregates() {
        check_distributed_equals_central(
            "SELECT k, SUM(q) * 2 + COUNT(*) AS mixed FROM t GROUP BY k",
            &[vec![(1, 10)], vec![(1, 3), (2, 4)]],
        );
    }

    #[test]
    fn selection_pushed_into_partials() {
        let stmt = parse_select("SELECT SUM(q) FROM t WHERE q > 5").unwrap();
        let dist = split_aggregate(&stmt).unwrap();
        assert_eq!(dist.partial.predicates, stmt.predicates);
    }

    #[test]
    fn empty_everywhere_yields_sql_semantics() {
        let stmt = parse_select("SELECT COUNT(*), SUM(q) FROM t").unwrap();
        let dist = split_aggregate(&stmt).unwrap();
        let rs = dist
            .combine
            .apply(&["a0".into(), "a1".into()], &[])
            .unwrap();
        assert_eq!(rs.rows.len(), 1);
        assert_eq!(rs.rows[0].get(0), &Value::Null); // no partials at all
    }

    #[test]
    fn non_aggregate_is_rejected() {
        let stmt = parse_select("SELECT k FROM t").unwrap();
        assert!(split_aggregate(&stmt).is_err());
    }
}
