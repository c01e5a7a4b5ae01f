//! SQL layer: lexing, parsing, planning, and local execution.
//!
//! BestPeer++ peers and HadoopDB workers both evaluate SQL against their
//! local database (the paper pushes subqueries into per-node MySQL /
//! PostgreSQL instances). This crate is the SQL engine for our embedded
//! store: a recursive-descent parser for the dialect used by the paper's
//! workload (conjunctive selections, equi-joins, aggregation with GROUP
//! BY, ORDER BY, LIMIT), one cost-based planner that builds physical
//! plans directly ([`phys::plan_physical`]: predicate pushdown,
//! cardinality-ordered left-deep join trees, per-table SeqScan/IndexScan
//! access-path selection), and a materializing executor. The planner's
//! pushdown and join order are the same routines the distributed
//! decomposition ([`decompose`]) runs.
//!
//! The AST is deliberately easy to rewrite: the distributed engines in
//! `bestpeer-core` decompose a query into per-peer subqueries by editing
//! [`ast::SelectStmt`] directly (dropping joins, renaming tables,
//! splitting aggregates into partial/final pairs), and the access-control
//! module rewrites predicates and projections per the user's role.

pub mod ast;
pub mod bloom;
pub mod decompose;
pub mod dist;
pub mod exec;
pub mod join;
pub mod lexer;
pub mod parser;
pub mod phys;
pub mod plan;

pub use ast::{Expr, SelectStmt};
pub use dist::{split_aggregate, Combine, DistAgg};
pub use exec::{
    apply_order_limit, execute_select, execute_select_with, expose_order_keys, ExecStats, ResultSet,
};
pub use parser::parse_select;
pub use phys::{explain_physical, plan_physical, AccessPath, PhysPlan};
pub use plan::{NoStats, SelectivityEstimator};
