//! The learned routing advisor: mine the query log into peer
//! communities and short-circuit BATON lookups for recurring templates.
//!
//! BestPeer++ routes every query through the BATON indices (level 1
//! caching notwithstanding) even when the same query templates recur
//! against the same answering peers for hours. Following the
//! query-mining line of work (queries mining for efficient P2P routing,
//! super-peer-based routing), this module observes the history already
//! flowing through the locate path and learns it:
//!
//! - every located query is fingerprinted into a **template** — a
//!   [`stable_hash_bytes`] over the normalized plan shape (table set,
//!   referenced columns, predicate shape with constants stripped,
//!   grouping/ordering shape) — plus an **instance** hash that keeps
//!   the constants, because routing *does* depend on them (the range
//!   index prunes owners by literal);
//! - the advisor records which peers answered each (template, instance)
//!   and periodically clusters the (template → answering-peer-set)
//!   pairs into **communities** with a deterministic, seeded
//!   agglomerative merge over Jaccard similarity — no wall clock, no
//!   RNG outside the seed, so replays stay byte-identical;
//! - a *confirmed* template (hit count ≥ `min_hits`, assigned to a
//!   community by the last clustering pass, observed within the
//!   `freshness` window) short-circuits the BATON lookup: the engine
//!   routes straight to the remembered owner map, charging zero overlay
//!   hops;
//! - the **verification tail** keeps the short-circuit honest: the
//!   network feeds every delta-publish invalidation
//!   ([`RoutingAdvisor::invalidate`]) and every full-invalidation event
//!   ([`RoutingAdvisor::demote_all`]) through the advisor, and any
//!   mutation touching a template's index keys *or any member of its
//!   answering peer set* demotes the template back to BATON routing.
//!
//! The demotion rule is a strict superset of the index-entry cache's
//! invalidation restricted to the template's keys: every BATON key the
//! template's lookup could consult (its tables' table/range keys, its
//! referenced columns' column keys) is a dependency, so whenever a
//! locator cache line the template relies on would be dropped, the
//! template is demoted too. The advisor therefore only ever answers
//! with a map a fresh BATON lookup would also return — it changes *who
//! is asked*, never *what is returned* (see DESIGN.md §18).

use std::collections::{BTreeMap, BTreeSet};

use bestpeer_baton::Key;
use bestpeer_common::{mix64, stable_hash_bytes, PeerId};
use bestpeer_sql::ast::{Expr, SelectStmt};

use crate::indexer::{column_key, range_key, table_key};

/// Routing-advisor knobs, embedded in
/// [`crate::network::NetworkConfig`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouterConfig {
    /// Learn and short-circuit at all. Disabled advisors observe
    /// nothing and route nothing — the network behaves byte-identically
    /// to before this module existed.
    pub enabled: bool,
    /// BATON-backed observations of a template before it may be
    /// confirmed.
    pub min_hits: u32,
    /// Maximum advisor-clock age (observations network-wide since the
    /// template was last seen) at which a confirmed template is still
    /// trusted; staler templates fall back to BATON and re-earn
    /// confirmation.
    pub freshness: u64,
    /// Re-cluster templates into communities every this many
    /// observations.
    pub cluster_interval: u64,
    /// Minimum Jaccard similarity of answering-peer sets for two
    /// clusters to merge.
    pub jaccard: f64,
    /// Seed for the clustering pass's deterministic tie-breaks.
    pub seed: u64,
    /// Maximum templates tracked; beyond it the least recently seen is
    /// forgotten.
    pub max_templates: usize,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            enabled: true,
            min_hits: 2,
            freshness: 4096,
            cluster_interval: 8,
            jaccard: 0.5,
            seed: 0xBE57_12077E, // "route"
            max_templates: 1024,
        }
    }
}

/// Monotone advisor counters (never reset; the network diffs them for
/// per-query reports and mirrors deltas into the metrics registry).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouterStats {
    /// Lookups answered from a confirmed template (BATON bypassed).
    pub hits: u64,
    /// Lookups that fell through to BATON (and were observed).
    pub misses: u64,
    /// Confirmed templates demoted back to BATON routing.
    pub demotions: u64,
    /// Shed retries rerouted to a community alternate peer.
    pub shed_reroutes: u64,
}

/// The two-level fingerprint of one query: the `template` identifies
/// the normalized plan shape (constants stripped — the unit of
/// community mining and confirmation), the `instance` additionally
/// binds the constants (the unit of remembered owner maps, because the
/// range index routes by literal).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryFingerprint {
    /// Shape hash, constants stripped.
    pub template: u64,
    /// Exact-statement hash, constants included.
    pub instance: u64,
}

impl QueryFingerprint {
    /// Fingerprint a statement.
    pub fn of(stmt: &SelectStmt) -> Self {
        let mut shape = String::with_capacity(128);
        let mut tables: Vec<&str> = stmt.from.iter().map(String::as_str).collect();
        tables.sort_unstable();
        for t in &tables {
            shape.push_str(t);
            shape.push('\u{1}');
        }
        shape.push('\u{2}');
        for p in &stmt.projections {
            expr_shape(&p.expr, &mut shape);
            shape.push('\u{1}');
        }
        shape.push('\u{2}');
        for p in &stmt.predicates {
            expr_shape(p, &mut shape);
            shape.push('\u{1}');
        }
        shape.push('\u{2}');
        for g in &stmt.group_by {
            expr_shape(g, &mut shape);
            shape.push('\u{1}');
        }
        shape.push('\u{2}');
        for k in &stmt.order_by {
            expr_shape(&k.expr, &mut shape);
            shape.push(if k.desc { 'D' } else { 'A' });
            shape.push('\u{1}');
        }
        if stmt.limit.is_some() {
            shape.push('L');
        }
        QueryFingerprint {
            template: stable_hash_bytes(shape.as_bytes()),
            instance: stable_hash_bytes(stmt.to_string().as_bytes()),
        }
    }
}

/// Append an expression's shape — operators and column references kept,
/// every literal flattened to `?` — to the canonical template string.
fn expr_shape(e: &Expr, out: &mut String) {
    match e {
        Expr::Column(c) => {
            if let Some(t) = &c.table {
                out.push_str(t);
                out.push('.');
            }
            out.push_str(&c.column);
        }
        Expr::Literal(_) => out.push('?'),
        Expr::Cmp { left, op, right } => {
            expr_shape(left, out);
            out.push_str(&format!("{op}"));
            expr_shape(right, out);
        }
        Expr::Arith { left, op, right } => {
            expr_shape(left, out);
            out.push_str(&format!("{op}"));
            expr_shape(right, out);
        }
        Expr::And(a, b) => {
            out.push('(');
            expr_shape(a, out);
            out.push('&');
            expr_shape(b, out);
            out.push(')');
        }
        Expr::Or(a, b) => {
            out.push('(');
            expr_shape(a, out);
            out.push('|');
            expr_shape(b, out);
            out.push(')');
        }
        Expr::Agg { func, arg } => {
            out.push_str(&format!("{func}("));
            if let Some(a) = arg {
                expr_shape(a, out);
            } else {
                out.push('*');
            }
            out.push(')');
        }
    }
}

/// One mined template: its remembered owner maps per instance, the
/// BATON keys its lookup could consult, the union of peers that
/// answered it, and its confirmation state.
#[derive(Debug, Default)]
struct TemplateState {
    /// Owner map per instance hash — exactly what
    /// `PeerLocator::peers_for_query` returned last time.
    routes: BTreeMap<u64, BTreeMap<String, Vec<PeerId>>>,
    /// Every BATON key the template's lookup could consult
    /// (table/range keys of its FROM tables, column keys of its
    /// referenced columns) — the demotion dependency set.
    deps: BTreeSet<Key>,
    /// Union of answering peers across instances (the community-mining
    /// feature vector).
    peers: BTreeSet<PeerId>,
    /// BATON-backed observations since the last demotion.
    hits: u64,
    /// Advisor-clock stamp of the last observation or routed hit.
    last_seen: u64,
    /// Community assigned by the last clustering pass.
    community: Option<u32>,
}

/// The per-network routing advisor. Owned by the network and lent to
/// the engines through [`crate::engine::EngineCtx`], which consults it
/// on every locate; all state is `BTreeMap`-ordered and clocked by an
/// observation counter, so equal workloads produce equal routing
/// decisions at any thread count.
#[derive(Debug)]
pub struct RoutingAdvisor {
    config: RouterConfig,
    templates: BTreeMap<u64, TemplateState>,
    /// Advisor clock: total observations + routed hits.
    clock: u64,
    /// Observations since the last clustering pass.
    since_cluster: u64,
    /// Number of communities formed by the last clustering pass.
    communities: u32,
    stats: RouterStats,
}

impl RoutingAdvisor {
    /// An advisor for `config`.
    pub fn new(config: RouterConfig) -> Self {
        RoutingAdvisor {
            config,
            templates: BTreeMap::new(),
            clock: 0,
            since_cluster: 0,
            communities: 0,
            stats: RouterStats::default(),
        }
    }

    /// Whether the advisor learns and routes at all.
    pub fn enabled(&self) -> bool {
        self.config.enabled
    }

    /// The monotone counters.
    pub fn stats(&self) -> RouterStats {
        self.stats
    }

    /// Communities formed by the last clustering pass.
    pub fn communities(&self) -> u32 {
        self.communities
    }

    /// Tracked templates (inspection).
    pub fn template_count(&self) -> usize {
        self.templates.len()
    }

    /// Is `fp`'s template confirmed (hot, clustered, fresh) with a
    /// remembered owner map for this instance? Non-mutating preview for
    /// EXPLAIN; returns the community id.
    pub fn route_preview(&self, fp: &QueryFingerprint) -> Option<u32> {
        if !self.config.enabled {
            return None;
        }
        let t = self.templates.get(&fp.template)?;
        let community = t.community?;
        let fresh = self.clock.saturating_sub(t.last_seen) <= self.config.freshness;
        if t.hits >= u64::from(self.config.min_hits) && fresh && t.routes.contains_key(&fp.instance)
        {
            Some(community)
        } else {
            None
        }
    }

    /// Route `fp` from a confirmed template: returns the remembered
    /// owner map (zero overlay hops) or `None` when the query must take
    /// the BATON path. Counts a hit or a miss.
    pub fn route(&mut self, fp: &QueryFingerprint) -> Option<BTreeMap<String, Vec<PeerId>>> {
        if !self.config.enabled {
            return None;
        }
        match self.route_preview(fp) {
            Some(_) => {
                self.clock += 1;
                self.stats.hits += 1;
                let t = self.templates.get_mut(&fp.template).expect("previewed");
                t.last_seen = self.clock;
                Some(t.routes[&fp.instance].clone())
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Record one BATON-backed lookup: `located` is exactly what the
    /// locator returned for `stmt`. Advances the advisor clock and, at
    /// every `cluster_interval`, re-clusters templates into
    /// communities.
    pub fn observe(
        &mut self,
        fp: &QueryFingerprint,
        located: &BTreeMap<String, Vec<PeerId>>,
        stmt: &SelectStmt,
    ) {
        if !self.config.enabled {
            return;
        }
        self.clock += 1;
        self.since_cluster += 1;
        let t = self.templates.entry(fp.template).or_default();
        if t.deps.is_empty() {
            for table in &stmt.from {
                t.deps.insert(table_key(table));
                t.deps.insert(range_key(table));
            }
            for c in stmt.all_referenced_columns() {
                t.deps.insert(column_key(&c.column));
            }
        }
        t.routes.insert(fp.instance, located.clone());
        for peers in located.values() {
            t.peers.extend(peers.iter().copied());
        }
        t.hits += 1;
        t.last_seen = self.clock;
        self.evict_over_budget();
        if self.since_cluster >= self.config.cluster_interval {
            self.since_cluster = 0;
            self.recluster();
        }
    }

    /// Forget least-recently-seen templates beyond the budget.
    fn evict_over_budget(&mut self) {
        while self.templates.len() > self.config.max_templates {
            let victim = self
                .templates
                .iter()
                .min_by_key(|(id, t)| (t.last_seen, **id))
                .map(|(id, _)| *id)
                .expect("non-empty over budget");
            self.templates.remove(&victim);
        }
    }

    /// The verification tail, fine-grained: `peer`'s entries changed
    /// under `keys`. Demotes every template whose dependency keys
    /// intersect the delta *or* whose answering-peer set contains the
    /// mutated peer (any mutation of a community member's tables sends
    /// its templates back to BATON).
    pub fn invalidate(&mut self, peer: PeerId, keys: &[Key]) {
        if !self.config.enabled {
            return;
        }
        let ids: Vec<u64> = self
            .templates
            .iter()
            .filter(|(_, t)| t.peers.contains(&peer) || keys.iter().any(|k| t.deps.contains(k)))
            .map(|(id, _)| *id)
            .collect();
        for id in ids {
            self.demote(id);
        }
    }

    /// The verification tail, full-fallback: crash/recovery,
    /// maintenance, and scale events invalidate every cached route.
    pub fn demote_all(&mut self) {
        if !self.config.enabled {
            return;
        }
        let ids: Vec<u64> = self.templates.keys().copied().collect();
        for id in ids {
            self.demote(id);
        }
    }

    /// Scrub a departed peer (graceful `leave` or elastic scale-in):
    /// every template it ever answered is demoted, so no remembered map
    /// routes to it again.
    pub fn remove_peer(&mut self, peer: PeerId) {
        if !self.config.enabled {
            return;
        }
        let ids: Vec<u64> = self
            .templates
            .iter()
            .filter(|(_, t)| t.peers.contains(&peer))
            .map(|(id, _)| *id)
            .collect();
        for id in ids {
            self.demote(id);
        }
    }

    /// Demote one template: remembered routes, peer set, hit count, and
    /// community assignment are all reset, so the template must re-earn
    /// confirmation from fresh BATON observations. Counted only when
    /// the template had actually reached confirmation.
    fn demote(&mut self, id: u64) {
        let Some(t) = self.templates.get_mut(&id) else {
            return;
        };
        if t.community.is_some() && t.hits >= u64::from(self.config.min_hits) {
            self.stats.demotions += 1;
        }
        t.routes.clear();
        t.peers.clear();
        t.deps.clear();
        t.hits = 0;
        t.community = None;
    }

    /// Community alternates for an overloaded peer, for shed-retry
    /// rerouting: every *other* member of a confirmed, fresh template's
    /// answering-peer set that shares a community with `peer`, sorted
    /// ascending. Empty when the advisor knows nothing fresh about the
    /// peer.
    pub fn shed_alternates(&self, peer: PeerId) -> Vec<PeerId> {
        if !self.config.enabled {
            return Vec::new();
        }
        let communities: BTreeSet<u32> = self
            .templates
            .values()
            .filter(|t| {
                t.peers.contains(&peer)
                    && t.hits >= u64::from(self.config.min_hits)
                    && self.clock.saturating_sub(t.last_seen) <= self.config.freshness
            })
            .filter_map(|t| t.community)
            .collect();
        let mut out: BTreeSet<PeerId> = BTreeSet::new();
        for t in self.templates.values() {
            if t.community.is_some_and(|c| communities.contains(&c)) {
                out.extend(t.peers.iter().copied());
            }
        }
        out.remove(&peer);
        out.into_iter().collect()
    }

    /// Count one shed retry successfully rerouted to an alternate.
    pub fn note_shed_reroute(&mut self) {
        self.stats.shed_reroutes += 1;
    }

    /// Cluster candidate templates (hit count ≥ `min_hits`, non-empty
    /// peer set) into communities: seeded agglomerative merge over the
    /// Jaccard similarity of answering-peer sets. Deterministic — the
    /// candidate order is the `BTreeMap` template order, the best merge
    /// is chosen by highest similarity with ties broken by the seeded
    /// [`mix64`] of the pair's indices, and community ids are assigned
    /// in order of each cluster's smallest template id.
    fn recluster(&mut self) {
        let candidates: Vec<u64> = self
            .templates
            .iter()
            .filter(|(_, t)| t.hits >= u64::from(self.config.min_hits) && !t.peers.is_empty())
            .map(|(id, _)| *id)
            .collect();
        // Working set: (answering peers, member template ids).
        let mut clusters: Vec<(BTreeSet<PeerId>, Vec<u64>)> = candidates
            .iter()
            .map(|id| (self.templates[id].peers.clone(), vec![*id]))
            .collect();
        loop {
            let mut best: Option<(usize, usize, f64, u64)> = None;
            for i in 0..clusters.len() {
                for j in (i + 1)..clusters.len() {
                    let inter = clusters[i].0.intersection(&clusters[j].0).count();
                    let union = clusters[i].0.union(&clusters[j].0).count();
                    if union == 0 {
                        continue;
                    }
                    let sim = inter as f64 / union as f64;
                    if sim < self.config.jaccard {
                        continue;
                    }
                    let tie = mix64(self.config.seed ^ ((i as u64) << 32) ^ j as u64);
                    let better = match best {
                        None => true,
                        Some((_, _, s, t)) => sim > s || (sim == s && tie < t),
                    };
                    if better {
                        best = Some((i, j, sim, tie));
                    }
                }
            }
            let Some((i, j, _, _)) = best else { break };
            let (peers, members) = clusters.remove(j);
            clusters[i].0.extend(peers);
            clusters[i].1.extend(members);
        }
        // Stable ids: order clusters by their smallest member template.
        clusters.sort_by_key(|(_, members)| members.iter().min().copied());
        for t in self.templates.values_mut() {
            t.community = None;
        }
        for (cid, (_, members)) in clusters.iter().enumerate() {
            for id in members {
                if let Some(t) = self.templates.get_mut(id) {
                    t.community = Some(cid as u32);
                }
            }
        }
        self.communities = clusters.len() as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bestpeer_sql::parse_select;

    fn located(pairs: &[(&str, &[u64])]) -> BTreeMap<String, Vec<PeerId>> {
        pairs
            .iter()
            .map(|(t, ps)| {
                (
                    (*t).to_string(),
                    ps.iter().copied().map(PeerId::new).collect(),
                )
            })
            .collect()
    }

    fn advisor(cluster_interval: u64) -> RoutingAdvisor {
        RoutingAdvisor::new(RouterConfig {
            cluster_interval,
            ..RouterConfig::default()
        })
    }

    #[test]
    fn templates_strip_constants_but_instances_keep_them() {
        let a = parse_select("SELECT x FROM t WHERE k = 3").unwrap();
        let b = parse_select("SELECT x FROM t WHERE k = 4").unwrap();
        let c = parse_select("SELECT x FROM t WHERE k > 3").unwrap();
        let (fa, fb, fc) = (
            QueryFingerprint::of(&a),
            QueryFingerprint::of(&b),
            QueryFingerprint::of(&c),
        );
        assert_eq!(fa.template, fb.template, "same shape, different constant");
        assert_ne!(fa.instance, fb.instance, "constants distinguish instances");
        assert_ne!(fa.template, fc.template, "operator is part of the shape");
    }

    #[test]
    fn confirmation_needs_hits_and_a_clustering_pass() {
        let mut adv = advisor(2);
        let stmt = parse_select("SELECT x FROM t WHERE k = 3").unwrap();
        let fp = QueryFingerprint::of(&stmt);
        let map = located(&[("t", &[3])]);
        assert!(adv.route(&fp).is_none(), "unknown template");
        adv.observe(&fp, &map, &stmt);
        assert!(adv.route(&fp).is_none(), "one observation is not hot");
        adv.observe(&fp, &map, &stmt); // second observation + cluster pass
        assert_eq!(adv.route(&fp), Some(map));
        assert_eq!(adv.communities(), 1);
        let s = adv.stats();
        assert_eq!((s.hits, s.misses), (1, 2));
    }

    #[test]
    fn different_instances_route_independently() {
        let mut adv = advisor(1);
        let a = parse_select("SELECT x FROM t WHERE k = 3").unwrap();
        let b = parse_select("SELECT x FROM t WHERE k = 4").unwrap();
        let (fa, fb) = (QueryFingerprint::of(&a), QueryFingerprint::of(&b));
        let ma = located(&[("t", &[3])]);
        let mb = located(&[("t", &[4])]);
        adv.observe(&fa, &ma, &a);
        adv.observe(&fa, &ma, &a);
        adv.observe(&fb, &mb, &b);
        assert_eq!(adv.route(&fa), Some(ma), "instance a routes to peer 3");
        assert_eq!(adv.route(&fb), Some(mb), "instance b routes to peer 4");
    }

    #[test]
    fn invalidation_by_key_and_by_peer_demotes() {
        let stmt = parse_select("SELECT x FROM t WHERE k = 3").unwrap();
        let fp = QueryFingerprint::of(&stmt);
        let map = located(&[("t", &[3, 5])]);
        // Key intersection: the template's own table key.
        let mut adv = advisor(1);
        adv.observe(&fp, &map, &stmt);
        adv.observe(&fp, &map, &stmt);
        assert!(adv.route(&fp).is_some());
        adv.invalidate(PeerId::new(99), &[table_key("t")]);
        assert!(adv.route(&fp).is_none(), "key delta demotes");
        assert_eq!(adv.stats().demotions, 1);
        // Peer membership: a mutation at an answering peer, disjoint keys.
        let mut adv = advisor(1);
        adv.observe(&fp, &map, &stmt);
        adv.observe(&fp, &map, &stmt);
        assert!(adv.route(&fp).is_some());
        adv.invalidate(PeerId::new(5), &[table_key("unrelated")]);
        assert!(
            adv.route(&fp).is_none(),
            "community-member mutation demotes"
        );
        // Unrelated peer + unrelated keys: stays confirmed.
        let mut adv = advisor(1);
        adv.observe(&fp, &map, &stmt);
        adv.observe(&fp, &map, &stmt);
        adv.invalidate(PeerId::new(99), &[table_key("unrelated")]);
        assert!(adv.route(&fp).is_some(), "unrelated delta must not demote");
    }

    #[test]
    fn demote_all_and_remove_peer_scrub() {
        let stmt = parse_select("SELECT x FROM t WHERE k = 3").unwrap();
        let fp = QueryFingerprint::of(&stmt);
        let map = located(&[("t", &[3])]);
        let mut adv = advisor(1);
        adv.observe(&fp, &map, &stmt);
        adv.observe(&fp, &map, &stmt);
        adv.demote_all();
        assert!(adv.route(&fp).is_none());
        let mut adv = advisor(1);
        adv.observe(&fp, &map, &stmt);
        adv.observe(&fp, &map, &stmt);
        adv.remove_peer(PeerId::new(3));
        assert!(adv.route(&fp).is_none());
        assert!(adv.shed_alternates(PeerId::new(3)).is_empty());
    }

    #[test]
    fn clustering_merges_overlapping_peer_sets() {
        let mut adv = advisor(4);
        let qs: Vec<SelectStmt> = (0..4)
            .map(|i| parse_select(&format!("SELECT c{i} FROM t WHERE k = 1")).unwrap())
            .collect();
        // Templates 0/1 answered by {1,2}, templates 2/3 by {8,9}.
        for (i, q) in qs.iter().enumerate() {
            let map = if i < 2 {
                located(&[("t", &[1, 2])])
            } else {
                located(&[("t", &[8, 9])])
            };
            let fp = QueryFingerprint::of(q);
            adv.observe(&fp, &map, q);
            adv.observe(&fp, &map, q);
        }
        assert_eq!(adv.communities(), 2, "two disjoint communities");
        let alts = adv.shed_alternates(PeerId::new(1));
        assert_eq!(alts, vec![PeerId::new(2)], "community sibling only");
        let alts = adv.shed_alternates(PeerId::new(9));
        assert_eq!(alts, vec![PeerId::new(8)]);
    }

    #[test]
    fn same_seed_same_communities() {
        let run = || {
            let mut adv = advisor(3);
            for i in 0..6u64 {
                let q = parse_select(&format!("SELECT c{i} FROM t WHERE k = 1")).unwrap();
                let fp = QueryFingerprint::of(&q);
                let map = located(&[("t", &[i % 3, (i + 1) % 3])]);
                adv.observe(&fp, &map, &q);
                adv.observe(&fp, &map, &q);
            }
            (adv.communities(), adv.stats())
        };
        assert_eq!(run(), run(), "seeded clustering must be deterministic");
    }

    #[test]
    fn freshness_window_expires_stale_templates() {
        let mut adv = RoutingAdvisor::new(RouterConfig {
            cluster_interval: 1,
            freshness: 3,
            ..RouterConfig::default()
        });
        let hot = parse_select("SELECT x FROM t WHERE k = 3").unwrap();
        let fph = QueryFingerprint::of(&hot);
        let map = located(&[("t", &[3])]);
        adv.observe(&fph, &map, &hot);
        adv.observe(&fph, &map, &hot);
        assert!(adv.route_preview(&fph).is_some());
        // Other traffic ages the advisor clock past the window.
        for i in 0..4u64 {
            let q = parse_select(&format!("SELECT c{i} FROM u WHERE k = 1")).unwrap();
            adv.observe(&QueryFingerprint::of(&q), &located(&[("u", &[7])]), &q);
        }
        assert!(adv.route_preview(&fph).is_none(), "stale template expired");
    }

    #[test]
    fn disabled_advisor_is_inert() {
        let mut adv = RoutingAdvisor::new(RouterConfig {
            enabled: false,
            ..RouterConfig::default()
        });
        let stmt = parse_select("SELECT x FROM t WHERE k = 3").unwrap();
        let fp = QueryFingerprint::of(&stmt);
        let map = located(&[("t", &[3])]);
        for _ in 0..10 {
            adv.observe(&fp, &map, &stmt);
        }
        assert!(adv.route(&fp).is_none());
        assert_eq!(adv.template_count(), 0);
        assert_eq!(adv.stats(), RouterStats::default());
    }

    #[test]
    fn template_budget_evicts_least_recently_seen() {
        let mut adv = RoutingAdvisor::new(RouterConfig {
            max_templates: 2,
            cluster_interval: 1000,
            ..RouterConfig::default()
        });
        for i in 0..3u64 {
            let q = parse_select(&format!("SELECT c{i} FROM t")).unwrap();
            adv.observe(&QueryFingerprint::of(&q), &located(&[("t", &[1])]), &q);
        }
        assert_eq!(adv.template_count(), 2, "oldest template evicted");
    }
}
