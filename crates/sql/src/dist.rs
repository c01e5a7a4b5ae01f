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

/// How one final aggregate is reassembled from the partial row, by
/// column position in the layout [`split_aggregate`] builds.
#[derive(Debug, Clone, PartialEq)]
pub enum CombineSpec {
    /// Sum the partial column (finalizes SUM; NULL over no partials).
    Sum(usize),
    /// Sum the partial counts (finalizes COUNT; 0 over no partials).
    Count(usize),
    /// Min of the partial column.
    Min(usize),
    /// Max of the partial column.
    Max(usize),
    /// `sum / cnt` (finalizes AVG).
    AvgPair {
        /// Column holding per-source sums.
        sum: usize,
        /// Column holding per-source counts.
        cnt: usize,
    },
}

/// The coordinator-side half of a split aggregate.
#[derive(Debug, Clone, PartialEq)]
pub struct Combine {
    /// How many group-key columns prefix each partial row.
    pub group_keys: usize,
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

    // Partial projection list: group keys first, then partial aggregates;
    // each spec addresses its partial columns by their position here.
    let mut partial_projs: Vec<SelectItem> = Vec::new();
    for (i, g) in stmt.group_by.iter().enumerate() {
        partial_projs.push(SelectItem {
            expr: g.clone(),
            alias: Some(format!("g{i}")),
        });
    }
    let mut specs = Vec::new();
    for (j, agg) in output.aggs.iter().enumerate() {
        let mut partial = |func, alias: String| {
            partial_projs.push(SelectItem {
                expr: Expr::Agg {
                    func,
                    arg: agg.arg.clone().map(Box::new),
                },
                alias: Some(alias),
            });
            partial_projs.len() - 1
        };
        specs.push(match agg.func {
            AggFunc::Avg => CombineSpec::AvgPair {
                sum: partial(AggFunc::Sum, format!("a{j}_s")),
                cnt: partial(AggFunc::Count, format!("a{j}_c")),
            },
            AggFunc::Sum => CombineSpec::Sum(partial(AggFunc::Sum, format!("a{j}"))),
            AggFunc::Count => CombineSpec::Count(partial(AggFunc::Count, format!("a{j}"))),
            AggFunc::Min => CombineSpec::Min(partial(AggFunc::Min, format!("a{j}"))),
            AggFunc::Max => CombineSpec::Max(partial(AggFunc::Max, format!("a{j}"))),
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
            group_keys: stmt.group_by.len(),
            specs,
            output,
        },
    })
}

impl Combine {
    /// Merge partial rows (laid out as the partial statement projects
    /// them) into the final result set. A global aggregate over no
    /// partial rows still yields its one row, as a local aggregate over
    /// no rows does.
    pub fn apply(&self, rows: &[Row]) -> Result<ResultSet> {
        let k = self.group_keys;
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
            order.push(Vec::new());
            groups.insert(Vec::new(), Vec::new());
        }

        let mut out_rows = Vec::with_capacity(order.len());
        for key in order {
            let members = &groups[&key];
            let sum = |i: usize, init: Value| {
                members
                    .iter()
                    .map(|r| r.get(i))
                    .filter(|v| !v.is_null())
                    .try_fold(init, |acc, v| acc.checked_add(v))
            };
            let non_null = |i: usize| {
                members
                    .iter()
                    .map(move |r| r.get(i))
                    .filter(|v| !v.is_null())
            };
            let mut combined = key.clone();
            for spec in &self.specs {
                let v = match *spec {
                    CombineSpec::Sum(i) => sum(i, Value::Null)?,
                    CombineSpec::Count(i) => sum(i, Value::Int(0))?,
                    CombineSpec::Min(i) => non_null(i).min().cloned().unwrap_or(Value::Null),
                    CombineSpec::Max(i) => non_null(i).max().cloned().unwrap_or(Value::Null),
                    CombineSpec::AvgPair { sum: si, cnt: ci } => {
                        let total = sum(si, Value::Null)?;
                        let cnt: i64 = members
                            .iter()
                            .map(|r| r.get(ci).as_int().unwrap_or(0))
                            .sum();
                        if cnt == 0 || total.is_null() {
                            Value::Null
                        } else {
                            Value::Float(total.as_f64()? / cnt as f64)
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
        for p in parts {
            let db = partition(p);
            let (rs, _) = execute_select(&dist.partial, &db).unwrap();
            partial_rows.extend(rs.rows);
        }
        let mut dist_result = dist.combine.apply(&partial_rows).unwrap();
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
        // No partials at all (no source answered): the one row a local
        // aggregate over zero rows yields — COUNT 0, SUM and AVG NULL.
        let stmt = parse_select("SELECT COUNT(*), SUM(q), AVG(q) FROM t").unwrap();
        let dist = split_aggregate(&stmt).unwrap();
        let rs = dist.combine.apply(&[]).unwrap();
        assert_eq!(
            rs.rows,
            vec![Row::new(vec![Value::Int(0), Value::Null, Value::Null])]
        );
        let (central, _) = execute_select(&stmt, &partition(&[])).unwrap();
        assert_eq!(rs.rows, central.rows);
    }

    #[test]
    fn non_aggregate_is_rejected() {
        let stmt = parse_select("SELECT k FROM t").unwrap();
        assert!(split_aggregate(&stmt).is_err());
    }
}
