//! The adaptive query processor (paper §5.5, Algorithm 2).
//!
//! "When a query is submitted, the query planner retrieves related
//! histogram and index information from the bootstrap node, analyzes
//! the query and constructs a processing graph for the query. Then the
//! costs of both the P2P engine and MapReduce engine are predicted based
//! on the histograms and runtime parameters of the cost models. The
//! query planner compares the costs between two methods and executes the
//! one with lower cost."

use std::collections::BTreeMap;

use bestpeer_common::{Error, PeerId, Result};
use bestpeer_sql::ast::SelectStmt;
use bestpeer_sql::decompose::decompose;
use bestpeer_sql::SelectivityEstimator;

use crate::cost::{self, EngineDecision, LevelOp, LevelSpec, ProcessingGraph};
use crate::histogram::{Histogram, HistogramSelectivity};

use super::{mr, parallel, EngineCtx, EngineOutput};

/// Which engine the adaptive planner ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChosenEngine {
    /// The parallel P2P engine (replicated joins).
    ParallelP2P,
    /// The MapReduce engine (symmetric hash joins).
    MapReduce,
}

/// The planner's report alongside the query result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveReport {
    /// The cost comparison.
    pub decision: EngineDecision,
    /// The engine that actually ran.
    pub ran: ChosenEngine,
}

/// Per-table global statistics the planner works from (gathered by the
/// statistics module between the storage engine and the bootstrap node).
#[derive(Debug, Clone, Default)]
pub struct GlobalStats {
    /// Per-table `(rows, bytes, partitions)` across the network.
    pub tables: BTreeMap<String, (u64, u64, u64)>,
    /// Optional per-table histograms for selectivity estimation.
    pub histograms: BTreeMap<String, Histogram>,
    /// Per-table fingerprint of the mutation versions the statistics
    /// were built at (a deterministic fold of each owning peer's
    /// `Table::version`). `BestPeerNetwork::validate_statistics`
    /// recomputes the fold before planning and drops histograms whose
    /// fingerprint moved — the fix for planners costing access paths
    /// from dead MHIST buckets after post-collection mutations.
    pub versions: BTreeMap<String, u64>,
}

impl GlobalStats {
    fn rows(&self, table: &str) -> f64 {
        self.tables.get(table).map_or(0.0, |t| t.0 as f64)
    }
    fn bytes(&self, table: &str) -> f64 {
        self.tables.get(table).map_or(0.0, |t| t.1 as f64)
    }
    fn partitions(&self, table: &str) -> f64 {
        self.tables
            .get(table)
            .map_or(1.0, |t| (t.2 as f64).max(1.0))
    }

    /// Fraction of a table's tuples satisfying the query's predicates on
    /// it, from the histogram when available (1.0 otherwise). Delegates
    /// to the same [`HistogramSelectivity`] hook the SQL planner's
    /// access-path and join-order decisions consult.
    fn predicate_selectivity(&self, stmt: &SelectStmt, table: &str) -> f64 {
        self.estimator()
            .selectivity(table, &stmt.predicates)
            .unwrap_or(1.0)
    }

    /// A [`SelectivityEstimator`] view over these statistics, pluggable
    /// into [`bestpeer_sql::plan_physical`] and
    /// [`bestpeer_sql::explain_physical`].
    pub fn estimator(&self) -> HistogramSelectivity<'_> {
        HistogramSelectivity::new(&self.histograms)
    }
}

/// Build the processing graph of Definition 3 for a query.
pub fn build_processing_graph(
    stmt: &SelectStmt,
    stats: &GlobalStats,
    schemas: &[&bestpeer_common::TableSchema],
) -> Result<ProcessingGraph> {
    let decomp = decompose(stmt, schemas)?;
    let mut levels = Vec::new();

    let sel0 = stats.predicate_selectivity(stmt, &decomp.parts[0].table);
    let mut inter_rows = stats.rows(&decomp.parts[0].table) * sel0;
    let mut inter_bytes = stats.bytes(&decomp.parts[0].table) * sel0;
    let driving_bytes = inter_bytes.max(1.0);
    // Eq. 5's product starts at 1 — the driving table's qualified size
    // is folded into g(L), so s(L) comes out as the first join's
    // estimated output bytes.
    let mut prev_s = 1.0;

    for step in &decomp.joins {
        let part = &decomp.parts[step.part];
        let sel = stats.predicate_selectivity(stmt, &part.table);
        let t_rows = (stats.rows(&part.table) * sel).max(1.0);
        let t_bytes = (stats.bytes(&part.table) * sel).max(1.0);
        // PK–FK heuristic: an equi-join on a key keeps the FK side's
        // cardinality; a cross join multiplies.
        let out_rows = match step.keys {
            Some(_) => inter_rows.max(t_rows),
            None => inter_rows * t_rows,
        }
        .max(1.0);
        let width = inter_bytes / inter_rows.max(1.0) + t_bytes / t_rows;
        let out_bytes = (out_rows * width).max(1.0);
        // g(i) chosen so that s(i) = s(i+1) · S(T_i) · g(i) equals the
        // estimated join output size.
        let g = out_bytes / (prev_s * t_bytes);
        levels.push(LevelSpec {
            op: LevelOp::Join,
            table: part.table.clone(),
            size: t_bytes,
            partitions: stats.partitions(&part.table),
            selectivity: g,
            warm: 0.0,
        });
        prev_s = out_bytes;
        inter_rows = out_rows;
        inter_bytes = out_bytes;
    }
    if stmt.is_aggregate() {
        let partitions = decomp
            .joins
            .last()
            .map(|j| stats.partitions(&decomp.parts[j.part].table))
            .unwrap_or(1.0);
        levels.push(LevelSpec {
            op: LevelOp::GroupBy,
            table: String::new(),
            size: 1.0,
            // Grouping typically collapses the stream hard; 10% is the
            // planner's default reduction when no histogram applies.
            partitions,
            selectivity: 0.1,
            warm: 0.0,
        });
    }
    Ok(ProcessingGraph {
        levels,
        driving_bytes,
    })
}

/// Algorithm 2: predict both costs from the context's collected
/// statistics, run the cheaper engine.
pub fn execute(
    ctx: &mut EngineCtx<'_>,
    submitter: PeerId,
    stmt: &SelectStmt,
) -> Result<(EngineOutput, AdaptiveReport)> {
    let stats = ctx.stats.ok_or_else(|| {
        Error::Internal("the adaptive planner runs on collected statistics".into())
    })?;
    let mut graph = build_processing_graph(stmt, stats, &ctx.from_schemas(stmt)?)?;
    // Cache-aware costing: the fraction of a base table already resident
    // in the submitter's result cache is read from memory, not scanned.
    let cache = &*ctx.rescache;
    if cache.enabled() {
        for level in &mut graph.levels {
            if level.op == LevelOp::Join && !level.table.is_empty() {
                let total = stats.bytes(&level.table);
                if total > 0.0 {
                    level.warm = (cache.table_bytes(&level.table) as f64 / total).clamp(0.0, 1.0);
                }
            }
        }
    }
    let decision = cost::decide(&ctx.config.cost, &graph);
    let (output, ran) = if decision.choose_p2p {
        (
            parallel::execute(ctx, submitter, stmt)?,
            ChosenEngine::ParallelP2P,
        )
    } else {
        (mr::execute(ctx, submitter, stmt)?, ChosenEngine::MapReduce)
    };
    Ok((output, AdaptiveReport { decision, ran }))
}
