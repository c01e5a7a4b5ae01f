//! The BATON overlay: routing, membership, load balancing, replication.
//!
//! The overlay owns every node's state (peers are simulated in-process),
//! but all routing decisions read only the *current* node's links —
//! parent, children, adjacent nodes, and the positional routing tables —
//! exactly as a real deployment would. Every operation returns the
//! number of messages (hops) it used; the test suite bounds search hops
//! by `O(log N)`.
//!
//! Interface (paper Table 1): `join`, `leave`, `search_exact`,
//! `search_range`, `insert`, `remove`.

use std::collections::{BTreeMap, HashMap};

use bestpeer_common::{Error, PeerId, Result};

use crate::key::{Key, KeyRange, DOMAIN_MAX};
use crate::node::Node;

/// Counters describing overlay activity (for tests and benchmarks).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OverlayStats {
    /// Completed exact/range searches.
    pub searches: u64,
    /// Total routing hops across all searches.
    pub search_hops: u64,
    /// Completed joins.
    pub joins: u64,
    /// Completed departures.
    pub leaves: u64,
    /// Load-balancing operations (boundary shifts + relocations).
    pub balance_ops: u64,
    /// Lookups served from a replica because the owner had failed.
    pub replica_lookups: u64,
    /// Index-insert messages dropped by fault injection.
    pub dropped_inserts: u64,
}

/// The BATON overlay over item type `V` (the index-entry payload).
#[derive(Debug, Clone)]
pub struct Overlay<V> {
    nodes: HashMap<PeerId, Node<V>>,
    by_pos: BTreeMap<(u32, u64), PeerId>,
    root: Option<PeerId>,
    replicate: bool,
    /// For each owner, the peers currently holding a replica of its items.
    replica_sites: HashMap<PeerId, Vec<PeerId>>,
    stats: OverlayStats,
    /// Fault injection: the next this-many insert messages are lost in
    /// transit (routed, but never stored or replicated).
    drop_inserts: u32,
}

impl<V: Clone> Default for Overlay<V> {
    fn default() -> Self {
        Self::new(true)
    }
}

impl<V: Clone> Overlay<V> {
    /// An empty overlay. `replicate` enables adjacent-node replication
    /// of index items (the paper's two-tier partial replication).
    pub fn new(replicate: bool) -> Self {
        Overlay {
            nodes: HashMap::new(),
            by_pos: BTreeMap::new(),
            root: None,
            replicate,
            replica_sites: HashMap::new(),
            stats: OverlayStats::default(),
            drop_inserts: 0,
        }
    }

    /// Number of member peers.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no peer has joined.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Is `peer` a member?
    pub fn contains(&self, peer: PeerId) -> bool {
        self.nodes.contains_key(&peer)
    }

    /// Activity counters.
    pub fn stats(&self) -> OverlayStats {
        self.stats
    }

    /// Immutable access to a node's state (for inspection and tests).
    pub fn node(&self, peer: PeerId) -> Result<&Node<V>> {
        self.nodes
            .get(&peer)
            .ok_or_else(|| Error::Network(format!("{peer} is not in the overlay")))
    }

    fn node_mut(&mut self, peer: PeerId) -> &mut Node<V> {
        self.nodes
            .get_mut(&peer)
            .expect("internal link to missing node")
    }

    /// All member peer ids (arbitrary order).
    pub fn peers(&self) -> impl Iterator<Item = PeerId> + '_ {
        self.nodes.keys().copied()
    }

    /// The number of index items stored at `peer` (its load).
    pub fn load_of(&self, peer: PeerId) -> Result<u64> {
        Ok(self.node(peer)?.load())
    }

    /// Height of the tree (1 = root only; 0 = empty).
    pub fn height(&self) -> u32 {
        self.nodes.values().map(|n| n.level + 1).max().unwrap_or(0)
    }

    // ------------------------------------------------------------------
    // Membership
    // ------------------------------------------------------------------

    /// Join `peer` into the overlay. The join request walks down from
    /// the root, at each step choosing the lighter subtree, until it
    /// finds a node with a free child slot; that node splits its range
    /// (at the median of its stored items, sharing load with the
    /// newcomer). Returns the hops used.
    pub fn join(&mut self, peer: PeerId) -> Result<u32> {
        if self.contains(peer) {
            return Err(Error::Membership(format!("{peer} already joined")));
        }
        let Some(root) = self.root else {
            self.nodes
                .insert(peer, Node::new(peer, 0, 1, KeyRange::full()));
            self.by_pos.insert((0, 1), peer);
            self.root = Some(peer);
            self.stats.joins += 1;
            return Ok(0);
        };
        let mut cur = root;
        let mut hops = 0u32;
        let mut path = Vec::new();
        let parent = loop {
            path.push(cur);
            let n = self.node(cur)?;
            match (n.left_child, n.right_child) {
                (None, _) | (_, None) => break cur,
                (Some(l), Some(r)) => {
                    let (ls, rs) = (self.node(l)?.subtree_size, self.node(r)?.subtree_size);
                    cur = if ls <= rs { l } else { r };
                    hops += 1;
                }
            }
        };
        let attach_left = self.node(parent)?.left_child.is_none();
        self.attach_child(parent, peer, attach_left);
        for p in path {
            self.node_mut(p).subtree_size += 1;
        }
        self.stats.joins += 1;
        Ok(hops + 1)
    }

    /// Attach `child` under `parent` on the given side, splitting the
    /// parent's range (and items) at the item median.
    fn attach_child(&mut self, parent: PeerId, child: PeerId, left: bool) {
        let p = self.node_mut(parent);
        let (plevel, ppos, prange) = (p.level, p.pos, p.range);
        let split = split_point(&p.items, prange, left);
        let low = KeyRange::new(prange.lb, split);
        let high = KeyRange::new(split, prange.ub);
        // In-order: the left child takes the low half, the right child
        // the high half.
        let (child_range, parent_range) = if left { (low, high) } else { (high, low) };

        let pos = if left { 2 * ppos - 1 } else { 2 * ppos };
        let mut z: Node<V> = Node::new(child, plevel + 1, pos, child_range);
        z.parent = Some(parent);

        // Move the parent's items that now fall into the child's range.
        {
            let p = self.node_mut(parent);
            let moved: Vec<Key> = p
                .items
                .keys()
                .copied()
                .filter(|k| child_range.contains(*k))
                .collect();
            for k in moved {
                if let Some(v) = p.items.remove(&k) {
                    z.items.insert(k, v);
                }
            }
            p.range = parent_range;
        }

        // Adjacency rewiring.
        if left {
            let old_la = self.node(parent).expect("parent exists").left_adj;
            z.left_adj = old_la;
            z.right_adj = Some(parent);
            if let Some(la) = old_la {
                self.node_mut(la).right_adj = Some(child);
            }
            let p = self.node_mut(parent);
            p.left_adj = Some(child);
            p.left_child = Some(child);
        } else {
            let old_ra = self.node(parent).expect("parent exists").right_adj;
            z.right_adj = old_ra;
            z.left_adj = Some(parent);
            if let Some(ra) = old_ra {
                self.node_mut(ra).left_adj = Some(child);
            }
            let p = self.node_mut(parent);
            p.right_adj = Some(child);
            p.right_child = Some(child);
        }

        self.by_pos.insert((z.level, z.pos), child);
        self.nodes.insert(child, z);
        if self.replicate {
            self.resync_replicas(parent);
            self.resync_replicas(child);
        }
    }

    /// Remove `peer` from the overlay. A leaf hands its range and items
    /// to an adjacent node; an internal node is replaced by a leaf drawn
    /// from its own subtree (the leaf first departs its leaf position,
    /// then assumes the departing node's position, range, and items).
    pub fn leave(&mut self, peer: PeerId) -> Result<()> {
        if !self.contains(peer) {
            return Err(Error::Membership(format!("{peer} is not a member")));
        }
        if self.nodes.len() == 1 {
            self.nodes.clear();
            self.by_pos.clear();
            self.root = None;
            self.replica_sites.clear();
            self.stats.leaves += 1;
            return Ok(());
        }
        if self.node(peer)?.is_leaf() {
            self.detach_leaf(peer);
        } else {
            let replacement = self.find_leaf_in_subtree(peer)?;
            self.detach_leaf(replacement);
            // The departing node may have become a leaf itself (its only
            // descendant was the replacement we just detached) — then it
            // simply hands over its state before removal either way.
            self.substitute(peer, replacement);
        }
        self.drop_replicas_of(peer);
        self.stats.leaves += 1;
        Ok(())
    }

    /// Mark `peer` crashed, losing its primary index items (they remain
    /// available on adjacent replicas when replication is on).
    pub fn crash(&mut self, peer: PeerId) -> Result<()> {
        let n = self
            .nodes
            .get_mut(&peer)
            .ok_or_else(|| Error::Network(format!("{peer} is not in the overlay")))?;
        n.failed = true;
        n.items.clear();
        Ok(())
    }

    /// Recover a crashed peer: restore its items from an adjacent
    /// replica and mark it healthy again.
    pub fn recover(&mut self, peer: PeerId) -> Result<()> {
        let (la, ra) = {
            let n = self.node(peer)?;
            if !n.failed {
                return Ok(());
            }
            (n.left_adj, n.right_adj)
        };
        let mut restored: Option<BTreeMap<Key, Vec<V>>> = None;
        for site in [la, ra].into_iter().flatten() {
            let site_node = self.node(site)?;
            // Replica maps are durable (EBS-style): they survive the
            // site's own process crash, so recovery can read them even
            // while the site is down — only live *lookups* need a live
            // process at the replica site.
            if let Some(rep) = site_node.replicas.get(&peer) {
                restored = Some(rep.clone());
                break;
            }
        }
        let n = self.node_mut(peer);
        if let Some(items) = restored {
            n.items = items;
        }
        n.failed = false;
        Ok(())
    }

    fn find_leaf_in_subtree(&self, peer: PeerId) -> Result<PeerId> {
        let mut cur = peer;
        loop {
            let n = self.node(cur)?;
            match (n.left_child, n.right_child) {
                (None, None) => return Ok(cur),
                (Some(l), None) => cur = l,
                (None, Some(r)) => cur = r,
                (Some(l), Some(r)) => {
                    cur = if self.node(l)?.subtree_size >= self.node(r)?.subtree_size {
                        l
                    } else {
                        r
                    };
                }
            }
        }
    }

    /// Remove a leaf, merging its range and items into an adjacent node.
    fn detach_leaf(&mut self, leaf: PeerId) {
        let n = self.nodes.get(&leaf).expect("detach of missing leaf");
        debug_assert!(n.is_leaf(), "detach_leaf on internal node");
        let (la, ra, range, level, pos, parent) =
            (n.left_adj, n.right_adj, n.range, n.level, n.pos, n.parent);
        let items = std::mem::take(&mut self.node_mut(leaf).items);

        // Merge range + items into the in-order predecessor when present
        // (its upper bound abuts our lower bound), else the successor.
        if let Some(heir) = la {
            let h = self.node_mut(heir);
            debug_assert_eq!(h.range.ub, range.lb, "in-order contiguity");
            h.range = KeyRange::new(h.range.lb, range.ub);
            for (k, vs) in items {
                h.items.entry(k).or_default().extend(vs);
            }
            if self.replicate {
                self.resync_replicas(heir);
            }
        } else if let Some(heir) = ra {
            let h = self.node_mut(heir);
            debug_assert_eq!(range.ub, h.range.lb, "in-order contiguity");
            h.range = KeyRange::new(range.lb, h.range.ub);
            for (k, vs) in items {
                h.items.entry(k).or_default().extend(vs);
            }
            if self.replicate {
                self.resync_replicas(heir);
            }
        } else {
            unreachable!("non-singleton leaf has at least one adjacent node");
        }

        // Adjacency unlink.
        if let Some(la) = la {
            self.node_mut(la).right_adj = ra;
        }
        if let Some(ra) = ra {
            self.node_mut(ra).left_adj = la;
        }
        // Parent unlink + ancestor subtree sizes.
        if let Some(p) = parent {
            let pn = self.node_mut(p);
            if pn.left_child == Some(leaf) {
                pn.left_child = None;
            }
            if pn.right_child == Some(leaf) {
                pn.right_child = None;
            }
            let mut cur = Some(p);
            while let Some(c) = cur {
                let n = self.node_mut(c);
                n.subtree_size -= 1;
                cur = n.parent;
            }
        }
        self.by_pos.remove(&(level, pos));
        self.nodes.remove(&leaf);
        self.drop_replicas_of(leaf);
    }

    /// `replacement` (already detached from the tree) assumes `old`'s
    /// position, links, range, and items; `old` is removed.
    fn substitute(&mut self, old: PeerId, replacement: PeerId) {
        let o = self.nodes.remove(&old).expect("substitute of missing node");
        let mut r = Node::new(replacement, o.level, o.pos, o.range);
        r.parent = o.parent;
        r.left_child = o.left_child;
        r.right_child = o.right_child;
        r.left_adj = o.left_adj;
        r.right_adj = o.right_adj;
        r.subtree_size = o.subtree_size;
        r.items = o.items;
        r.failed = o.failed;

        if let Some(p) = o.parent {
            let pn = self.node_mut(p);
            if pn.left_child == Some(old) {
                pn.left_child = Some(replacement);
            }
            if pn.right_child == Some(old) {
                pn.right_child = Some(replacement);
            }
        } else {
            self.root = Some(replacement);
        }
        for c in [o.left_child, o.right_child].into_iter().flatten() {
            self.node_mut(c).parent = Some(replacement);
        }
        if let Some(la) = o.left_adj {
            self.node_mut(la).right_adj = Some(replacement);
        }
        if let Some(ra) = o.right_adj {
            self.node_mut(ra).left_adj = Some(replacement);
        }
        self.by_pos.insert((o.level, o.pos), replacement);
        self.nodes.insert(replacement, r);
        if self.replicate {
            self.resync_replicas(replacement);
        }
    }

    // ------------------------------------------------------------------
    // Routing and search
    // ------------------------------------------------------------------

    /// Route from `start` to the owner of `key` using only local links.
    /// Returns `(owner, hops)`.
    pub fn route_from(&self, start: PeerId, key: Key) -> Result<(PeerId, u32)> {
        let mut cur = start;
        let mut hops = 0u32;
        let budget = 64 * (self.height() + 2);
        loop {
            let n = self.node(cur)?;
            if n.range.contains(key) {
                return Ok((cur, hops));
            }
            let next = if key < n.range.lb {
                self.step_left(n, key)
            } else {
                self.step_right(n, key)
            };
            cur = next.ok_or_else(|| {
                Error::Internal(format!("routing dead-end at {cur} for key {key}"))
            })?;
            hops += 1;
            if hops > budget {
                return Err(Error::Internal(format!(
                    "routing did not converge for key {key} within {budget} hops"
                )));
            }
        }
    }

    /// One left-routing step: jump to the farthest same-level neighbor
    /// that has not overshot the key, else descend / follow the left
    /// adjacent / climb to the parent.
    fn step_left(&self, n: &Node<V>, key: Key) -> Option<PeerId> {
        for i in (0..64).rev() {
            let Some(pos) = n.left_route_pos(i) else {
                continue;
            };
            let Some(&u) = self.by_pos.get(&pos) else {
                continue;
            };
            if self.nodes[&u].range.ub > key {
                return Some(u);
            }
        }
        n.left_child.or(n.left_adj).or(n.parent)
    }

    /// Mirror of [`Self::step_left`].
    fn step_right(&self, n: &Node<V>, key: Key) -> Option<PeerId> {
        for i in (0..64).rev() {
            let Some(pos) = n.right_route_pos(i) else {
                continue;
            };
            let Some(&u) = self.by_pos.get(&pos) else {
                continue;
            };
            if self.nodes[&u].range.lb <= key {
                return Some(u);
            }
        }
        n.right_child.or(n.right_adj).or(n.parent)
    }

    /// Find the peer responsible for `key`. Returns `(owner, hops)`.
    pub fn owner_of(&self, key: Key) -> Result<(PeerId, u32)> {
        let root = self
            .root
            .ok_or_else(|| Error::Network("overlay is empty".into()))?;
        self.route_from(root, key)
    }

    /// Exact-match search: all values stored under `key`. Falls back to
    /// an adjacent replica when the owner has failed.
    pub fn search_exact(&mut self, key: Key) -> Result<(Vec<V>, u32)> {
        let root = self
            .root
            .ok_or_else(|| Error::Network("overlay is empty".into()))?;
        self.search_exact_from(root, key)
    }

    /// Exact-match search routed from `start`'s overlay node — the
    /// peer-to-peer search of the paper, where the *requesting* peer
    /// initiates routing from its own position in the tree rather than
    /// through any central entry point, so the hop count is the tree
    /// distance from requester to owner. Falls back to an adjacent
    /// replica when the owner has failed.
    pub fn search_exact_from(&mut self, start: PeerId, key: Key) -> Result<(Vec<V>, u32)> {
        let (owner, mut hops) = self.route_from(start, key)?;
        let n = &self.nodes[&owner];
        let values = if !n.failed {
            n.items.get(&key).cloned().unwrap_or_default()
        } else {
            hops += 1;
            self.stats.replica_lookups += 1;
            self.replica_read(owner, key)?
        };
        self.stats.searches += 1;
        self.stats.search_hops += u64::from(hops);
        Ok((values, hops))
    }

    fn replica_read(&self, owner: PeerId, key: Key) -> Result<Vec<V>> {
        let n = &self.nodes[&owner];
        for site in [n.left_adj, n.right_adj].into_iter().flatten() {
            // A failed replica site cannot serve either.
            if self.nodes[&site].failed {
                continue;
            }
            if let Some(rep) = self.nodes[&site].replicas.get(&owner) {
                return Ok(rep.get(&key).cloned().unwrap_or_default());
            }
        }
        Err(Error::Unavailable(format!(
            "owner {owner} failed and no replica is available for key {key}"
        )))
    }

    /// Range search over `[lo, hi)`: route to the owner of `lo`, then
    /// sweep right along the in-order adjacency chain.
    pub fn search_range(&mut self, lo: Key, hi: Key) -> Result<(Vec<(Key, V)>, u32)> {
        if lo >= hi {
            return Ok((Vec::new(), 0));
        }
        let (mut cur, mut hops) = self.owner_of(lo)?;
        let mut out = Vec::new();
        loop {
            let n = &self.nodes[&cur];
            if !n.failed {
                for (k, vs) in n.items.range(lo..hi) {
                    for v in vs {
                        out.push((*k, v.clone()));
                    }
                }
            } else {
                hops += 1;
                self.stats.replica_lookups += 1;
                let rep_items = self.replica_items_of(cur)?;
                for (k, vs) in rep_items.range(lo..hi) {
                    for v in vs {
                        out.push((*k, v.clone()));
                    }
                }
            }
            let n = &self.nodes[&cur];
            if n.range.ub >= hi {
                break;
            }
            match n.right_adj {
                Some(next) => {
                    cur = next;
                    hops += 1;
                }
                None => break,
            }
        }
        self.stats.searches += 1;
        self.stats.search_hops += u64::from(hops);
        Ok((out, hops))
    }

    fn replica_items_of(&self, owner: PeerId) -> Result<&BTreeMap<Key, Vec<V>>> {
        let n = &self.nodes[&owner];
        for site in [n.left_adj, n.right_adj].into_iter().flatten() {
            // A failed replica site cannot serve either.
            if self.nodes[&site].failed {
                continue;
            }
            if let Some(rep) = self.nodes[&site].replicas.get(&owner) {
                return Ok(rep);
            }
        }
        Err(Error::Unavailable(format!(
            "no replica available for failed {owner}"
        )))
    }

    // ------------------------------------------------------------------
    // Index item maintenance
    // ------------------------------------------------------------------

    /// Fault injection: lose the next `n` insert messages in transit.
    /// Each dropped insert is still routed (the hops are real) but the
    /// item is never stored or replicated — exactly what a lost network
    /// message looks like to the rest of the system. A republish heals
    /// the index.
    pub fn drop_next_inserts(&mut self, n: u32) {
        self.drop_inserts += n;
    }

    /// Close the lossy window: inserts are delivered reliably again even
    /// if fewer than the armed number were actually dropped.
    pub fn clear_insert_drops(&mut self) {
        self.drop_inserts = 0;
    }

    /// How many future inserts are still armed to be dropped. Delta
    /// index maintenance checks this: while a lossy window is open, a
    /// diff against remembered state would silently skip entries the
    /// fault already ate, so publishers fall back to a full republish.
    pub fn pending_insert_drops(&self) -> u32 {
        self.drop_inserts
    }

    /// Insert an index item. Routes to the owner, stores the value, and
    /// (when enabled) replicates it to the owner's adjacent nodes.
    pub fn insert(&mut self, key: Key, value: V) -> Result<u32> {
        let (owner, hops) = self.owner_of(key)?;
        if self.drop_inserts > 0 {
            self.drop_inserts -= 1;
            self.stats.dropped_inserts += 1;
            return Ok(hops);
        }
        self.node_mut(owner)
            .items
            .entry(key)
            .or_default()
            .push(value.clone());
        if self.replicate {
            let n = &self.nodes[&owner];
            let sites: Vec<PeerId> = [n.left_adj, n.right_adj].into_iter().flatten().collect();
            for site in &sites {
                self.node_mut(*site)
                    .replicas
                    .entry(owner)
                    .or_default()
                    .entry(key)
                    .or_default()
                    .push(value.clone());
            }
            self.replica_sites.insert(owner, sites);
        }
        Ok(hops)
    }

    /// Remove all values under `key` matching `pred`. Returns the number
    /// removed and the hops used.
    pub fn remove<F: Fn(&V) -> bool>(&mut self, key: Key, pred: F) -> Result<(usize, u32)> {
        let (owner, hops) = self.owner_of(key)?;
        let n = self.node_mut(owner);
        let mut removed = strip(&mut n.items, key, &pred);
        if n.failed {
            // A crashed owner's items survive only in the replicas its
            // adjacent nodes hold, which `recover` restores from: strip
            // them there too.
            for site in [n.left_adj, n.right_adj].into_iter().flatten() {
                if let Some(rep) = self.node_mut(site).replicas.get_mut(&owner) {
                    removed = removed.max(strip(rep, key, &pred));
                }
            }
        } else if removed > 0 && self.replicate {
            self.resync_replicas(owner);
        }
        Ok((removed, hops))
    }

    /// Re-copy `owner`'s full item map to its current adjacent nodes and
    /// retire stale replicas at former sites.
    fn resync_replicas(&mut self, owner: PeerId) {
        if !self.replicate || !self.nodes.contains_key(&owner) {
            return;
        }
        let old_sites = self.replica_sites.remove(&owner).unwrap_or_default();
        for site in old_sites {
            if let Some(n) = self.nodes.get_mut(&site) {
                n.replicas.remove(&owner);
            }
        }
        let (items, sites) = {
            let n = &self.nodes[&owner];
            let sites: Vec<PeerId> = [n.left_adj, n.right_adj].into_iter().flatten().collect();
            (n.items.clone(), sites)
        };
        for site in &sites {
            self.node_mut(*site).replicas.insert(owner, items.clone());
        }
        self.replica_sites.insert(owner, sites);
    }

    fn drop_replicas_of(&mut self, owner: PeerId) {
        for site in self.replica_sites.remove(&owner).unwrap_or_default() {
            if let Some(n) = self.nodes.get_mut(&site) {
                n.replicas.remove(&owner);
            }
        }
    }

    // ------------------------------------------------------------------
    // Load balancing
    // ------------------------------------------------------------------

    /// Try to balance `peer` against its lighter adjacent node by
    /// shifting the range boundary (the paper's first scheme). Returns
    /// true when items moved. `theta` is the imbalance trigger ratio.
    pub fn balance_with_adjacent(&mut self, peer: PeerId, theta: f64) -> Result<bool> {
        let (load, la, ra) = {
            let n = self.node(peer)?;
            (n.load(), n.left_adj, n.right_adj)
        };
        if load < 2 {
            return Ok(false);
        }
        let mut best: Option<(PeerId, u64, bool)> = None; // (adj, load, is_left)
        if let Some(a) = la {
            let al = self.node(a)?.load();
            best = Some((a, al, true));
        }
        if let Some(a) = ra {
            let al = self.node(a)?.load();
            if best.is_none_or(|(_, bl, _)| al < bl) {
                best = Some((a, al, false));
            }
        }
        let Some((adj, adj_load, is_left)) = best else {
            return Ok(false);
        };
        if (load as f64) <= theta * (adj_load as f64).max(1.0) {
            return Ok(false);
        }
        let to_move = (load - adj_load) / 2;
        if to_move == 0 {
            return Ok(false);
        }
        self.shift_items(peer, adj, is_left, to_move);
        self.stats.balance_ops += 1;
        Ok(true)
    }

    /// Move `count` items from `from` to its adjacent `to`, adjusting
    /// the shared range boundary so ownership stays consistent.
    fn shift_items(&mut self, from: PeerId, to: PeerId, to_is_left: bool, count: u64) {
        let moved: Vec<(Key, Vec<V>)> = {
            let n = self.node_mut(from);
            let keys: Vec<Key> = if to_is_left {
                n.items.keys().copied().take(count as usize).collect()
            } else {
                n.items.keys().rev().copied().take(count as usize).collect()
            };
            keys.into_iter()
                .filter_map(|k| n.items.remove(&k).map(|v| (k, v)))
                .collect()
        };
        if moved.is_empty() {
            return;
        }
        // New boundary: just past the moved keys, flush with what `from`
        // keeps, so ranges remain contiguous.
        let from_node = self.node_mut(from);
        if to_is_left {
            let new_lb = match from_node.items.keys().next() {
                Some(&k) => {
                    // keep boundary at or below the smallest remaining key
                    let max_moved = moved.iter().map(|(k, _)| *k).max().expect("non-empty");
                    (max_moved + 1).min(k)
                }
                None => from_node.range.ub,
            };
            from_node.range = KeyRange::new(new_lb, from_node.range.ub);
            let t = self.node_mut(to);
            t.range = KeyRange::new(t.range.lb, new_lb);
        } else {
            let new_ub = match from_node.items.keys().next_back() {
                Some(&k) => {
                    let min_moved = moved.iter().map(|(k, _)| *k).min().expect("non-empty");
                    min_moved.max(k + 1)
                }
                None => from_node.range.lb,
            };
            from_node.range = KeyRange::new(from_node.range.lb, new_ub);
            let t = self.node_mut(to);
            t.range = KeyRange::new(new_ub, t.range.ub);
        }
        let t = self.node_mut(to);
        for (k, vs) in moved {
            t.items.entry(k).or_default().extend(vs);
        }
        if self.replicate {
            self.resync_replicas(from);
            self.resync_replicas(to);
        }
    }

    /// The paper's second scheme: global adjustment. Finds the least
    /// loaded leaf in the network (in BestPeer++ the bootstrap peer has
    /// this global view), detaches it, and re-attaches it in the
    /// overloaded region so the overloaded node's range splits. Returns
    /// true when a relocation happened.
    pub fn global_adjust(&mut self, overloaded: PeerId) -> Result<bool> {
        if !self.contains(overloaded) {
            return Err(Error::Network(format!(
                "{overloaded} is not in the overlay"
            )));
        }
        if self.nodes.len() < 4 {
            return Ok(false);
        }
        // Least-loaded leaf that is neither the overloaded node nor one
        // of its neighbors in the tree.
        let excluded: Vec<PeerId> = {
            let n = self.node(overloaded)?;
            [
                Some(overloaded),
                n.left_adj,
                n.right_adj,
                n.parent,
                n.left_child,
                n.right_child,
            ]
            .into_iter()
            .flatten()
            .collect()
        };
        let candidate = self
            .nodes
            .values()
            .filter(|n| n.is_leaf() && !excluded.contains(&n.id))
            .min_by_key(|n| (n.load(), n.id));
        let Some(cand) = candidate else {
            return Ok(false);
        };
        if cand.load() >= self.node(overloaded)?.load() {
            return Ok(false);
        }
        let leaf = cand.id;

        // Detach the light leaf from its current position...
        self.detach_leaf(leaf);
        // ...and re-attach it in the overloaded region: directly under
        // the overloaded node when a child slot is free, else under the
        // nearest descendant slot (the overloaded node first spills half
        // its items toward that slot through boundary shifts — here the
        // median split at attach time achieves the same effect because
        // the attach parent is found by walking the overloaded node's
        // subtree, whose ranges abut the hot range).
        let mut parent = overloaded;
        let mut path = vec![];
        loop {
            path.push(parent);
            let n = self.node(parent)?;
            match (n.left_child, n.right_child) {
                (None, _) | (_, None) => break,
                (Some(l), Some(r)) => {
                    parent = if self.node(l)?.load() >= self.node(r)?.load() {
                        l
                    } else {
                        r
                    };
                }
            }
        }
        let attach_left = self.node(parent)?.left_child.is_none();
        self.attach_child(parent, leaf, attach_left);
        // Fix subtree sizes along the ancestor chain of the new child.
        let mut cur = Some(parent);
        while let Some(c) = cur {
            let n = self.node_mut(c);
            n.subtree_size += 1;
            cur = n.parent;
        }
        self.stats.balance_ops += 1;
        Ok(true)
    }

    /// Run adjacent balancing across all peers until quiescent (bounded
    /// passes), then globally adjust the single worst hotspot if the
    /// imbalance persists.
    pub fn rebalance_all(&mut self, theta: f64) -> Result<u32> {
        let mut ops = 0u32;
        for _ in 0..4 {
            let peers: Vec<PeerId> = self.peers().collect();
            let mut moved = false;
            for p in peers {
                if self.balance_with_adjacent(p, theta)? {
                    moved = true;
                    ops += 1;
                }
            }
            if !moved {
                break;
            }
        }
        if let Some(worst) = self
            .nodes
            .values()
            .max_by_key(|n| (n.load(), n.id))
            .map(|n| n.id)
        {
            let avg = self.total_items() as f64 / self.len().max(1) as f64;
            if self.node(worst)?.load() as f64 > theta * avg.max(1.0)
                && self.global_adjust(worst)?
            {
                ops += 1;
            }
        }
        Ok(ops)
    }

    /// Total index items stored network-wide.
    pub fn total_items(&self) -> u64 {
        self.nodes.values().map(Node::load).sum()
    }

    // ------------------------------------------------------------------
    // Invariant checking (tests, debugging)
    // ------------------------------------------------------------------

    /// The in-order traversal as reconstructed from adjacency links.
    pub fn in_order(&self) -> Vec<PeerId> {
        let Some(root) = self.root else {
            return Vec::new();
        };
        // Leftmost node: follow left children from the root.
        let mut cur = root;
        while let Some(l) = self.nodes[&cur].left_child {
            cur = l;
        }
        let mut out = vec![cur];
        while let Some(next) = self.nodes[&cur].right_adj {
            out.push(next);
            cur = next;
        }
        out
    }

    /// Verify every structural invariant; returns an error naming the
    /// first violation. Used liberally by tests.
    pub fn validate(&self) -> Result<()> {
        let Some(root) = self.root else {
            return if self.nodes.is_empty() {
                Ok(())
            } else {
                Err(Error::Internal("nodes exist but no root".into()))
            };
        };
        // Recursive structural in-order, with link checks.
        let mut order = Vec::new();
        self.check_subtree(root, None, &mut order)?;
        if order.len() != self.nodes.len() {
            return Err(Error::Internal(format!(
                "tree reaches {} of {} nodes",
                order.len(),
                self.nodes.len()
            )));
        }
        // Adjacency chain must equal structural in-order.
        let chain = self.in_order();
        if chain != order {
            return Err(Error::Internal(
                "adjacency chain diverges from in-order".into(),
            ));
        }
        // Ranges: contiguous ascending partition of the domain.
        let mut expect = 0u64;
        for (i, p) in order.iter().enumerate() {
            let n = &self.nodes[p];
            if n.range.lb != expect {
                return Err(Error::Internal(format!(
                    "range gap before {p}: expected lb {expect}, found {}",
                    n.range
                )));
            }
            expect = n.range.ub;
            if i == order.len() - 1 && n.range.ub != DOMAIN_MAX {
                return Err(Error::Internal("domain not fully covered".into()));
            }
            // Items live inside the owner's range.
            for k in n.items.keys() {
                if !n.range.contains(*k) {
                    return Err(Error::Internal(format!(
                        "item key {k} outside {p}'s range {}",
                        n.range
                    )));
                }
            }
            // Position map agreement.
            if self.by_pos.get(&(n.level, n.pos)) != Some(p) {
                return Err(Error::Internal(format!("position map out of sync for {p}")));
            }
        }
        Ok(())
    }

    fn check_subtree(
        &self,
        cur: PeerId,
        parent: Option<PeerId>,
        order: &mut Vec<PeerId>,
    ) -> Result<u64> {
        let n = self
            .nodes
            .get(&cur)
            .ok_or_else(|| Error::Internal(format!("dangling link to {cur}")))?;
        if n.parent != parent {
            return Err(Error::Internal(format!("{cur} has wrong parent link")));
        }
        let mut size = 1;
        if let Some(l) = n.left_child {
            let ln = &self.nodes[&l];
            if (ln.level, ln.pos) != (n.level + 1, 2 * n.pos - 1) {
                return Err(Error::Internal(format!(
                    "{l} has wrong left-child position"
                )));
            }
            size += self.check_subtree(l, Some(cur), order)?;
        }
        order.push(cur);
        if let Some(r) = n.right_child {
            let rn = &self.nodes[&r];
            if (rn.level, rn.pos) != (n.level + 1, 2 * n.pos) {
                return Err(Error::Internal(format!(
                    "{r} has wrong right-child position"
                )));
            }
            size += self.check_subtree(r, Some(cur), order)?;
        }
        if n.subtree_size != size {
            return Err(Error::Internal(format!(
                "{cur} subtree size {} should be {size}",
                n.subtree_size
            )));
        }
        Ok(size)
    }
}

/// Remove the values under `key` matching `pred` from one item map;
/// returns how many went.
fn strip<V>(items: &mut BTreeMap<Key, Vec<V>>, key: Key, pred: &impl Fn(&V) -> bool) -> usize {
    let Some(vs) = items.get_mut(&key) else {
        return 0;
    };
    let before = vs.len();
    vs.retain(|v| !pred(v));
    let removed = before - vs.len();
    if vs.is_empty() {
        items.remove(&key);
    }
    removed
}

/// Choose a split key for a parent range: the median of the stored items
/// when present (so the child takes roughly half the load), else the
/// range midpoint. The result is clamped strictly inside the range so
/// both halves are non-empty.
fn split_point<V>(items: &BTreeMap<Key, Vec<V>>, range: KeyRange, _left: bool) -> Key {
    let desired = if items.is_empty() {
        range.midpoint()
    } else {
        let total: usize = items.values().map(Vec::len).sum();
        let mut acc = 0usize;
        let mut med = range.midpoint();
        for (k, vs) in items {
            acc += vs.len();
            if acc * 2 >= total {
                med = k.saturating_add(1);
                break;
            }
        }
        med
    };
    if range.len() <= 1 {
        range.lb
    } else {
        desired.clamp(range.lb + 1, range.ub - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn overlay_of(n: u64) -> Overlay<u64> {
        let mut o = Overlay::new(true);
        for i in 0..n {
            o.join(PeerId::new(i)).unwrap();
        }
        o
    }

    #[test]
    fn join_preserves_invariants() {
        for n in [1, 2, 3, 5, 8, 17, 40] {
            let o = overlay_of(n);
            o.validate().unwrap_or_else(|e| panic!("n={n}: {e}"));
            assert_eq!(o.len(), n as usize);
        }
    }

    #[test]
    fn tree_stays_balanced_under_sequential_joins() {
        let o = overlay_of(64);
        // Weight-guided placement keeps height within ~log2(N)+1.
        assert!(
            o.height() <= 8,
            "height {} too large for 64 nodes",
            o.height()
        );
    }

    #[test]
    fn search_finds_inserted_items() {
        let mut o = overlay_of(20);
        for k in (0..1000u64).map(|i| i * 7_919_777) {
            o.insert(k, k).unwrap();
        }
        for k in (0..1000u64).map(|i| i * 7_919_777) {
            let (vals, _) = o.search_exact(k).unwrap();
            assert_eq!(vals, vec![k]);
        }
        let (missing, _) = o.search_exact(123_456_789_000).unwrap();
        assert!(missing.is_empty());
    }

    #[test]
    fn search_hops_are_logarithmic() {
        let mut o = overlay_of(128);
        let bound = 2 * 7 + 4; // 2·log2(128) + slack
        for i in 0..500u64 {
            let key = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let (_, hops) = o.search_exact(key).unwrap();
            assert!(hops <= bound, "key {key}: {hops} hops > {bound}");
        }
    }

    #[test]
    fn range_search_sweeps_adjacent_chain() {
        let mut o = overlay_of(16);
        for k in 0..200u64 {
            o.insert(k * 1_000_000_007, k).unwrap();
        }
        let (hits, _) = o
            .search_range(10 * 1_000_000_007, 20 * 1_000_000_007)
            .unwrap();
        let mut got: Vec<u64> = hits.iter().map(|(_, v)| *v).collect();
        got.sort_unstable();
        assert_eq!(got, (10..20).collect::<Vec<u64>>());
    }

    #[test]
    fn empty_range_is_empty() {
        let mut o = overlay_of(4);
        o.insert(5, 1u64).unwrap();
        let (hits, hops) = o.search_range(9, 9).unwrap();
        assert!(hits.is_empty());
        assert_eq!(hops, 0);
    }

    #[test]
    fn remove_deletes_matching_values() {
        let mut o = overlay_of(8);
        o.insert(42, 1u64).unwrap();
        o.insert(42, 2u64).unwrap();
        o.insert(42, 3u64).unwrap();
        let (removed, _) = o.remove(42, |v| *v % 2 == 1).unwrap();
        assert_eq!(removed, 2);
        let (vals, _) = o.search_exact(42).unwrap();
        assert_eq!(vals, vec![2]);
    }

    #[test]
    fn leaf_leave_merges_range() {
        let mut o = overlay_of(10);
        for k in 0..100u64 {
            o.insert(k * 400_000_000_000_000, k).unwrap();
        }
        let total_before = o.total_items();
        // Leave a handful of peers; items must survive by merging.
        for p in [9u64, 4, 7] {
            o.leave(PeerId::new(p)).unwrap();
            o.validate().unwrap();
        }
        assert_eq!(o.len(), 7);
        assert_eq!(o.total_items(), total_before);
    }

    #[test]
    fn internal_node_leave_is_replaced_by_leaf() {
        let mut o = overlay_of(15);
        let root = o.in_order()[7]; // some mid node; root is internal
                                    // Find an internal node explicitly.
        let internal = o
            .peers()
            .find(|p| !o.node(*p).unwrap().is_leaf())
            .unwrap_or(root);
        o.leave(internal).unwrap();
        o.validate().unwrap();
        assert_eq!(o.len(), 14);
        assert!(!o.contains(internal));
    }

    #[test]
    fn everyone_can_leave() {
        let mut o = overlay_of(12);
        for k in 0..50u64 {
            o.insert(k * 300_000_000_000_000_000, k).unwrap();
        }
        let peers: Vec<PeerId> = o.in_order();
        for p in peers {
            o.leave(p).unwrap();
            o.validate().unwrap();
        }
        assert!(o.is_empty());
    }

    #[test]
    fn double_join_and_unknown_leave_fail() {
        let mut o = overlay_of(3);
        assert!(o.join(PeerId::new(1)).is_err());
        assert!(o.leave(PeerId::new(99)).is_err());
    }

    #[test]
    fn crash_and_replica_failover() {
        let mut o = overlay_of(10);
        for k in 0..200u64 {
            o.insert(k * 90_000_000_000_000_000, k).unwrap();
        }
        // Crash the peer owning one known key.
        let key = 90_000_000_000_000_000u64;
        let (owner, _) = o.owner_of(key).unwrap();
        o.crash(owner).unwrap();
        let (vals, _) = o.search_exact(key).unwrap();
        assert_eq!(vals, vec![1], "replica served the lookup");
        assert!(o.stats().replica_lookups > 0);
        // Recovery restores primary items.
        o.recover(owner).unwrap();
        assert!(!o.node(owner).unwrap().failed);
        let (vals, _) = o.search_exact(key).unwrap();
        assert_eq!(vals, vec![1]);
    }

    #[test]
    fn recover_of_healthy_peer_is_a_noop() {
        let mut o = overlay_of(8);
        for k in 0..100u64 {
            o.insert(k * 180_000_000_000_000_000, k).unwrap();
        }
        let total = o.total_items();
        let p = o.in_order()[3];
        o.recover(p).unwrap();
        assert!(!o.node(p).unwrap().failed);
        assert_eq!(o.total_items(), total, "no item duplicated or lost");
        o.validate().unwrap();
    }

    #[test]
    fn removal_at_a_crashed_owner_outlives_its_recovery() {
        let mut o = overlay_of(8);
        for k in 0..100u64 {
            o.insert(k * 180_000_000_000_000_000, k).unwrap();
        }
        let key = 180_000_000_000_000_000u64;
        let (owner, _) = o.owner_of(key).unwrap();
        o.crash(owner).unwrap();
        let (removed, _) = o.remove(key, |v| *v == 1).unwrap();
        assert_eq!(removed, 1, "stripped from the replicas");
        o.recover(owner).unwrap();
        let (vals, _) = o.search_exact(key).unwrap();
        assert!(vals.is_empty(), "recovery restored a removed value");
        o.validate().unwrap();
    }

    #[test]
    fn double_crash_of_owner_and_replica_neighbors_is_unavailable() {
        let mut o = overlay_of(10);
        for k in 0..200u64 {
            o.insert(k * 90_000_000_000_000_000, k).unwrap();
        }
        let key = 90_000_000_000_000_000u64;
        let (owner, _) = o.owner_of(key).unwrap();
        let n = o.node(owner).unwrap();
        let neighbors: Vec<PeerId> = [n.left_adj, n.right_adj].into_iter().flatten().collect();
        o.crash(owner).unwrap();
        for nb in &neighbors {
            o.crash(*nb).unwrap();
        }
        // Owner and every replica site down: live lookups need a live
        // process, so strong consistency blocks.
        let err = o.search_exact(key).unwrap_err();
        assert_eq!(err.kind(), "unavailable");
        // Recovery, by contrast, reads the *durable* replica map, which
        // survives the site's own process crash: the owner heals even
        // while both neighbors are still down.
        o.recover(owner).unwrap();
        assert!(!o.node(owner).unwrap().failed);
        let (vals, _) = o.search_exact(key).unwrap();
        assert_eq!(
            vals,
            vec![1],
            "restored from the downed neighbor's durable replica"
        );
        // The neighbors recover too; a later crash + recover of the
        // owner still heals fully.
        for nb in &neighbors {
            o.recover(*nb).unwrap();
        }
        o.crash(owner).unwrap();
        o.recover(owner).unwrap();
        let (vals, _) = o.search_exact(key).unwrap();
        assert_eq!(vals, vec![1], "restored from the recovered neighbor");
    }

    #[test]
    fn lookup_without_replica_reports_unavailable() {
        // Replication off: a crashed owner has no replica anywhere.
        let mut o: Overlay<u64> = Overlay::new(false);
        for i in 0..6 {
            o.join(PeerId::new(i)).unwrap();
        }
        o.insert(42, 7u64).unwrap();
        let (owner, _) = o.owner_of(42).unwrap();
        o.crash(owner).unwrap();
        let err = o.search_exact(42).unwrap_err();
        assert_eq!(err.kind(), "unavailable");
        assert!(
            err.to_string().contains("no replica is available for key"),
            "error names the missing replica: {err}"
        );
    }

    #[test]
    fn dropped_inserts_are_lost_until_republished() {
        let mut o = overlay_of(5);
        o.drop_next_inserts(2);
        o.insert(10, 1u64).unwrap();
        o.insert(20, 2u64).unwrap();
        o.insert(30, 3u64).unwrap();
        assert_eq!(o.stats().dropped_inserts, 2);
        assert_eq!(o.total_items(), 1, "first two messages lost in transit");
        assert!(o.search_exact(10).unwrap().0.is_empty());
        assert_eq!(o.search_exact(30).unwrap().0, vec![3]);
        // Republish heals.
        o.insert(10, 1u64).unwrap();
        o.insert(20, 2u64).unwrap();
        assert_eq!(o.search_exact(10).unwrap().0, vec![1]);
        assert_eq!(o.search_exact(20).unwrap().0, vec![2]);
    }

    #[test]
    fn adjacent_balancing_moves_items() {
        let mut o = overlay_of(6);
        // Pile items onto one owner's range.
        let (owner, _) = o.owner_of(1000).unwrap();
        let range = o.node(owner).unwrap().range;
        let width = range.len() / 1000;
        for i in 0..500u64 {
            o.insert(range.lb + i * width.max(1), i).unwrap();
        }
        let before = o.load_of(owner).unwrap();
        let moved = o.balance_with_adjacent(owner, 2.0).unwrap();
        assert!(moved);
        let after = o.load_of(owner).unwrap();
        assert!(after < before, "load should drop: {before} -> {after}");
        o.validate().unwrap();
        assert_eq!(o.total_items(), 500);
    }

    #[test]
    fn global_adjust_relocates_a_leaf() {
        let mut o = overlay_of(12);
        let (hot, _) = o.owner_of(12345).unwrap();
        let range = o.node(hot).unwrap().range;
        let step = (range.len() / 600).max(1);
        for i in 0..500u64 {
            o.insert(range.lb + i * step, i).unwrap();
        }
        let before = o.load_of(hot).unwrap();
        let adjusted = o.global_adjust(hot).unwrap();
        assert!(adjusted);
        o.validate().unwrap();
        assert!(o.load_of(hot).unwrap() < before);
        assert_eq!(o.total_items(), 500);
    }

    #[test]
    fn rebalance_all_bounds_hotspots() {
        let mut o = overlay_of(16);
        // Adversarial: all items into a narrow band.
        for i in 0..800u64 {
            o.insert(i * 1000, i).unwrap();
        }
        o.rebalance_all(1.5).unwrap();
        o.validate().unwrap();
        assert_eq!(o.total_items(), 800);
        let max = o.peers().map(|p| o.load_of(p).unwrap()).max().unwrap();
        assert!(max < 800, "rebalancing must spread a pathological hotspot");
    }

    #[test]
    fn in_order_ranges_ascend() {
        let o = overlay_of(25);
        let order = o.in_order();
        let mut prev_ub = 0;
        for p in order {
            let r = o.node(p).unwrap().range;
            assert_eq!(r.lb, prev_ub);
            prev_ub = r.ub;
        }
        assert_eq!(prev_ub, DOMAIN_MAX);
    }

    #[test]
    fn items_survive_membership_churn() {
        let mut o = overlay_of(9);
        for k in 0..300u64 {
            o.insert(k.wrapping_mul(0x9E37_79B9_7F4A_7C15), k).unwrap();
        }
        for i in 9..15u64 {
            o.join(PeerId::new(i)).unwrap();
            o.validate().unwrap();
        }
        for i in 0..5u64 {
            o.leave(PeerId::new(i)).unwrap();
            o.validate().unwrap();
        }
        assert_eq!(o.total_items(), 300);
        for k in (0..300u64).step_by(17) {
            let key = k.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let (vals, _) = o.search_exact(key).unwrap();
            assert!(vals.contains(&k), "key for {k} lost after churn");
        }
    }
}
