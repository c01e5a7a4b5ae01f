//! The normal peer (paper §4).
//!
//! Each participating business owns one normal peer: the local database
//! (its horizontal partition of the global schema), the data loader, the
//! locally-administered user accounts and role assignments, and the
//! subquery service other peers call during distributed query processing
//! — which enforces access control and the snapshot-timestamp semantics
//! of Definition 2. Where the peer runs (its cloud instance), whose it is
//! and its certificate are the bootstrap's
//! [`crate::bootstrap::PeerRecord`].

use std::collections::BTreeMap;

use bestpeer_common::{Error, PeerId, Result, UserId};
use bestpeer_sql::ast::{Expr, SelectStmt};
use bestpeer_sql::exec::{execute_select, ExecStats, ResultSet};
use bestpeer_storage::Database;

use crate::access::Role;
use crate::loader::DataLoader;

/// One business's peer.
#[derive(Debug)]
pub struct NormalPeer {
    /// Network-wide peer id.
    pub id: PeerId,
    /// The local database (global-schema partition).
    pub db: Database,
    /// The ETL pipeline from the business's production system.
    pub loader: Option<DataLoader>,
    /// Local role assignments: user → role name. Role *definitions*
    /// live at the bootstrap peer; assignment is a local-administrator
    /// decision (paper §4.4).
    assignments: BTreeMap<UserId, String>,
}

impl NormalPeer {
    /// A fresh peer with an empty database.
    pub fn new(id: PeerId) -> Self {
        NormalPeer {
            id,
            db: Database::new(),
            loader: None,
            assignments: BTreeMap::new(),
        }
    }

    /// Assign a role (by name) to a user. The local administrator "can
    /// assign the new user with an existing role" (§4.4).
    pub fn assign_role(&mut self, user: UserId, role_name: impl Into<String>) {
        self.assignments.insert(user, role_name.into());
    }

    /// The role name assigned to `user` at this peer, if any.
    pub fn role_of(&self, user: UserId) -> Option<&str> {
        self.assignments.get(&user).map(String::as_str)
    }

    /// Serve a subquery on behalf of a remote user.
    ///
    /// Enforces, in order:
    /// 1. **Snapshot semantics** (Definition 2): the query carries a
    ///    timestamp `query_ts`; if this peer's last completed load is
    ///    older, the query is rejected with [`Error::StaleSnapshot`] and
    ///    the submitter resubmits after the loader catches up.
    /// 2. **Access control** (§4.4): every column the query *evaluates*
    ///    (predicates, aggregate arguments, expressions) must be
    ///    readable under `role`; plainly-projected columns the role
    ///    cannot read come back as NULL, and readable-but-ranged columns
    ///    are masked value-wise outside the granted range.
    pub fn serve_subquery(
        &self,
        stmt: &SelectStmt,
        role: &Role,
        query_ts: u64,
    ) -> Result<(ResultSet, ExecStats)> {
        if self.db.load_timestamp() < query_ts {
            return Err(Error::StaleSnapshot(format!(
                "peer {} data timestamp {} is older than query timestamp {query_ts}",
                self.id,
                self.db.load_timestamp()
            )));
        }
        self.check_access(stmt, role)?;
        self.execute_subquery(stmt, role)
    }

    /// The execution half of [`NormalPeer::serve_subquery`]: run the
    /// statement against the local partition and mask the results per
    /// the role. Pure with respect to the peer (`&self`, no interior
    /// mutation), so it is safe to run on a pool worker.
    pub fn execute_subquery(
        &self,
        stmt: &SelectStmt,
        role: &Role,
    ) -> Result<(ResultSet, ExecStats)> {
        let (mut rs, stats) = execute_select(stmt, &self.db)?;
        self.mask_results(stmt, role, &mut rs)?;
        Ok((rs, stats))
    }

    /// The access-control half of [`NormalPeer::serve_subquery`]:
    /// column references that the query *evaluates* (as opposed to
    /// merely projecting) must be readable. Batched serving runs every
    /// owner's check sequentially, after its snapshot check (so error
    /// ordering matches the one-at-a-time path exactly), before fanning
    /// the execution half out to pool workers.
    pub(crate) fn check_access(&self, stmt: &SelectStmt, role: &Role) -> Result<()> {
        let check = |e: &Expr| -> Result<()> {
            for c in e.referenced_columns() {
                let table = self.owning_table(stmt, &c.column, c.table.as_deref())?;
                if !role.can_read(&table, &c.column) {
                    return Err(Error::AccessDenied(format!(
                        "role `{}` cannot read {table}.{}",
                        role.name, c.column
                    )));
                }
            }
            Ok(())
        };
        for p in &stmt.predicates {
            check(p)?;
        }
        for g in &stmt.group_by {
            check(g)?;
        }
        for k in &stmt.order_by {
            check(&k.expr)?;
        }
        for item in &stmt.projections {
            // A bare column projection may be masked later; anything the
            // peer must *compute* over (arithmetic, aggregates) needs
            // read access now.
            if !matches!(item.expr, Expr::Column(_)) {
                check(&item.expr)?;
            }
        }
        Ok(())
    }

    /// NULL-mask plainly-projected columns per the role.
    fn mask_results(&self, stmt: &SelectStmt, role: &Role, rs: &mut ResultSet) -> Result<()> {
        // Positions of plain-column projections: (output idx, table, column).
        let mut plain: Vec<(usize, String, String)> = Vec::new();
        if stmt.projections.is_empty() {
            // SELECT *: all columns of the single FROM table, in order.
            let table = &stmt.from[0];
            for (i, col) in rs.columns.iter().enumerate() {
                plain.push((i, table.clone(), col.clone()));
            }
        } else {
            for (i, item) in stmt.projections.iter().enumerate() {
                if let Expr::Column(c) = &item.expr {
                    let table = self.owning_table(stmt, &c.column, c.table.as_deref())?;
                    plain.push((i, table, c.column.clone()));
                }
            }
        }
        let columns = plain.iter().map(|(i, t, c)| (*i, t.as_str(), c.as_str()));
        role.mask_rows(columns, &mut rs.rows);
        Ok(())
    }

    /// Resolve which FROM table owns `column` (via local schemas).
    fn owning_table(
        &self,
        stmt: &SelectStmt,
        column: &str,
        qualifier: Option<&str>,
    ) -> Result<String> {
        if let Some(t) = qualifier {
            return Ok(t.to_owned());
        }
        for t in &stmt.from {
            if let Ok(table) = self.db.table(t) {
                if table.schema().column_index(column).is_ok() {
                    return Ok(t.clone());
                }
            }
        }
        Err(Error::Plan(format!(
            "cannot resolve column `{column}` to a table"
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::{AccessRule, Privilege};
    use bestpeer_common::{ColumnDef, ColumnType, Row, TableSchema, Value};
    use bestpeer_sql::parse_select;

    fn peer() -> NormalPeer {
        let mut p = NormalPeer::new(PeerId::new(1));
        p.db.create_table(
            TableSchema::new(
                "lineitem",
                vec![
                    ColumnDef::new("l_orderkey", ColumnType::Int),
                    ColumnDef::new("l_extendedprice", ColumnType::Float),
                    ColumnDef::new("l_shipdate", ColumnType::Date),
                ],
                vec![0],
            )
            .unwrap(),
        )
        .unwrap();
        for (k, price, d) in [(1, 50.0, 100), (2, 500.0, 200), (3, 80.0, 300)] {
            p.db.insert(
                "lineitem",
                Row::new(vec![Value::Int(k), Value::Float(price), Value::Date(d)]),
            )
            .unwrap();
        }
        p.db.set_load_timestamp(5).unwrap();
        p
    }

    fn sales_role() -> Role {
        Role::new("sales")
            .plus(
                AccessRule::read("lineitem", "l_extendedprice")
                    .with_range(Value::Float(0.0), Value::Float(100.0)),
            )
            .plus(AccessRule::read("lineitem", "l_shipdate"))
    }

    #[test]
    fn stale_snapshot_rejected() {
        let p = peer();
        let stmt = parse_select("SELECT l_shipdate FROM lineitem").unwrap();
        let err = p.serve_subquery(&stmt, &sales_role(), 9).unwrap_err();
        assert_eq!(err.kind(), "stale-snapshot");
        assert!(p.serve_subquery(&stmt, &sales_role(), 5).is_ok());
        assert!(p.serve_subquery(&stmt, &sales_role(), 0).is_ok());
    }

    #[test]
    fn ranged_column_masked_value_wise() {
        let p = peer();
        let stmt = parse_select("SELECT l_extendedprice, l_shipdate FROM lineitem").unwrap();
        let (rs, _) = p.serve_subquery(&stmt, &sales_role(), 0).unwrap();
        let prices: Vec<&Value> = rs.rows.iter().map(|r| r.get(0)).collect();
        assert_eq!(prices[0], &Value::Float(50.0));
        assert_eq!(prices[1], &Value::Null, "500 outside [0,100]");
        assert_eq!(prices[2], &Value::Float(80.0));
    }

    #[test]
    fn unreadable_projection_masked_fully() {
        let p = peer();
        let stmt = parse_select("SELECT l_orderkey, l_shipdate FROM lineitem").unwrap();
        let (rs, _) = p.serve_subquery(&stmt, &sales_role(), 0).unwrap();
        assert!(
            rs.rows.iter().all(|r| r.get(0).is_null()),
            "no rule on l_orderkey"
        );
        assert!(rs.rows.iter().all(|r| !r.get(1).is_null()));
    }

    #[test]
    fn predicate_on_unreadable_column_denied() {
        let p = peer();
        let stmt = parse_select("SELECT l_shipdate FROM lineitem WHERE l_orderkey = 1").unwrap();
        let err = p.serve_subquery(&stmt, &sales_role(), 0).unwrap_err();
        assert_eq!(err.kind(), "access-denied");
    }

    #[test]
    fn aggregate_over_unreadable_column_denied() {
        let p = peer();
        let stmt = parse_select("SELECT SUM(l_orderkey) FROM lineitem").unwrap();
        let err = p.serve_subquery(&stmt, &sales_role(), 0).unwrap_err();
        assert_eq!(err.kind(), "access-denied");
    }

    #[test]
    fn full_read_role_sees_everything() {
        let p = peer();
        let role = Role::full_read(
            "R",
            &[("lineitem", &["l_orderkey", "l_extendedprice", "l_shipdate"])],
        );
        let stmt =
            parse_select("SELECT l_orderkey FROM lineitem WHERE l_extendedprice > 60.0").unwrap();
        let (rs, _) = p.serve_subquery(&stmt, &role, 0).unwrap();
        assert_eq!(rs.rows.len(), 2);
        assert!(rs.rows.iter().all(|r| !r.get(0).is_null()));
    }

    #[test]
    fn select_star_masks_per_column() {
        let p = peer();
        let stmt = parse_select("SELECT * FROM lineitem").unwrap();
        let (rs, _) = p.serve_subquery(&stmt, &sales_role(), 0).unwrap();
        assert_eq!(
            rs.columns,
            vec!["l_orderkey", "l_extendedprice", "l_shipdate"]
        );
        assert!(rs.rows.iter().all(|r| r.get(0).is_null()));
        assert!(rs.rows.iter().any(|r| !r.get(1).is_null()));
    }

    /// `column` of every row `role` gets back from `SELECT column, l_shipdate`.
    fn served_column(p: &NormalPeer, role: &Role, column: &str) -> Vec<Value> {
        let stmt = parse_select(&format!("SELECT {column}, l_shipdate FROM lineitem")).unwrap();
        let (rs, _) = p.serve_subquery(&stmt, role, 0).unwrap();
        assert!(rs.rows.iter().all(|r| !r.get(1).is_null()));
        rs.rows.iter().map(|r| r.get(0).clone()).collect()
    }

    fn price_rule(lo: f64, hi: f64) -> AccessRule {
        AccessRule::read("lineitem", "l_extendedprice")
            .with_range(Value::Float(lo), Value::Float(hi))
    }

    #[test]
    fn two_ranged_rules_admit_the_union_of_their_ranges() {
        let p = peer();
        let role = Role::new("split")
            .plus(price_rule(0.0, 60.0))
            .plus(price_rule(400.0, 600.0))
            .plus(AccessRule::read("lineitem", "l_shipdate"));
        assert_eq!(
            served_column(&p, &role, "l_extendedprice"),
            [Value::Float(50.0), Value::Float(500.0), Value::Null]
        );
    }

    #[test]
    fn a_whole_column_rule_opens_a_ranged_column() {
        let p = peer();
        let role = sales_role().plus(AccessRule::read("lineitem", "l_extendedprice"));
        assert_eq!(
            served_column(&p, &role, "l_extendedprice"),
            [Value::Float(50.0), Value::Float(500.0), Value::Float(80.0)]
        );
    }

    #[test]
    fn a_write_only_rule_grants_no_read() {
        let p = peer();
        let write_only = AccessRule {
            privileges: Privilege {
                read: false,
                write: true,
            },
            ..AccessRule::read("lineitem", "l_orderkey")
        };
        let role = sales_role().plus(write_only);
        assert!(role.can_write("lineitem", "l_orderkey"));
        assert!(served_column(&p, &role, "l_orderkey")
            .iter()
            .all(Value::is_null));
        let stmt = parse_select("SELECT SUM(l_orderkey) FROM lineitem").unwrap();
        let err = p.serve_subquery(&stmt, &role, 0).unwrap_err();
        assert_eq!(err.kind(), "access-denied");
    }

    #[test]
    fn ranged_string_column_masked_value_wise() {
        let mut p = peer();
        p.db.create_table(
            TableSchema::new(
                "part",
                vec![
                    ColumnDef::new("p_partkey", ColumnType::Int),
                    ColumnDef::new("p_type", ColumnType::Str),
                ],
                vec![0],
            )
            .unwrap(),
        )
        .unwrap();
        for (k, ty) in [(1, "ANODIZED"), (2, "ECONOMY"), (3, "M"), (4, "MEDIUM")] {
            p.db.insert("part", Row::new(vec![Value::Int(k), Value::str(ty)]))
                .unwrap();
        }
        let role = Role::new("types")
            .plus(AccessRule::read("part", "p_type").with_range(Value::str("B"), Value::str("M")))
            .plus(AccessRule::read("part", "p_partkey"));
        let stmt = parse_select("SELECT p_partkey, p_type FROM part").unwrap();
        let (rs, _) = p.serve_subquery(&stmt, &role, 0).unwrap();
        let types: Vec<&Value> = rs.rows.iter().map(|r| r.get(1)).collect();
        // The range is inclusive, and strings order lexicographically.
        assert_eq!(
            types,
            [
                &Value::Null,
                &Value::str("ECONOMY"),
                &Value::str("M"),
                &Value::Null
            ]
        );
        assert!(rs.rows.iter().all(|r| !r.get(0).is_null()));
    }

    #[test]
    fn role_assignment_is_local() {
        let mut p = peer();
        p.assign_role(UserId::new(9), "sales");
        assert_eq!(p.role_of(UserId::new(9)), Some("sales"));
        assert_eq!(p.role_of(UserId::new(8)), None);
    }
}
