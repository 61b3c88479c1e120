//! The benchmark's own reference computations. They share no code with
//! the program's traversal engine (no msbfs, no views, no index): a
//! plain level-by-level BFS over the dominated subgraph with the
//! epoch's failed vertices, cut edges and defected brokers applied,
//! plus a bitset-union count of exact l-hop curves.

use brokerset::StitchAnswer;
use netgraph::{FaultState, Graph, NodeId};
use std::collections::BTreeSet;

/// Distance marker for "not reached within the cap".
pub const UNREACHED: u8 = u8::MAX;

/// The dominated subgraph of one epoch: an edge is usable when one end
/// is a live broker, neither end has failed, and the edge is not cut.
#[derive(Debug, Clone)]
pub struct Dominated<'a> {
    g: &'a Graph,
    live: Vec<bool>,
    down: Vec<bool>,
    cut: BTreeSet<(u32, u32)>,
}

impl<'a> Dominated<'a> {
    /// No faults: every roster broker is live.
    pub fn clear(g: &'a Graph, roster: &[NodeId]) -> Self {
        Self::under(g, roster, &FaultState::all_clear(g.node_count()))
    }

    /// Under `state`: failed vertices vanish, cut edges vanish, defected
    /// or failed brokers stop dominating.
    pub fn under(g: &'a Graph, roster: &[NodeId], state: &FaultState) -> Self {
        let n = g.node_count();
        let mut down = vec![false; n];
        for v in state.failed_nodes().iter() {
            if v.index() < n {
                down[v.index()] = true;
            }
        }
        let mut live = vec![false; n];
        for &b in roster {
            if b.index() < n && !down[b.index()] && !state.failed_brokers().contains(b) {
                live[b.index()] = true;
            }
        }
        Dominated {
            g,
            live,
            down,
            cut: state.failed_edges().clone(),
        }
    }

    /// Whether `b` dominates in this epoch.
    pub fn is_live_broker(&self, b: NodeId) -> bool {
        self.live.get(b.index()).copied().unwrap_or(false)
    }

    /// Hop distances from `src`, capped at `max_d` ([`UNREACHED`]
    /// beyond).
    pub fn bfs(&self, src: NodeId, max_d: u8) -> Vec<u8> {
        let n = self.g.node_count();
        let mut dist = vec![UNREACHED; n];
        if src.index() >= n || self.down[src.index()] {
            return dist;
        }
        dist[src.index()] = 0;
        let mut frontier = vec![src];
        let mut next = Vec::new();
        for d in 1..=max_d {
            for &u in &frontier {
                let u_live = self.live[u.index()];
                for &v in self.g.neighbors(u) {
                    let vi = v.index();
                    if dist[vi] != UNREACHED || self.down[vi] || !(u_live || self.live[vi]) {
                        continue;
                    }
                    if !self.cut.is_empty() && self.cut.contains(&(u.0.min(v.0), u.0.max(v.0))) {
                        continue;
                    }
                    dist[vi] = d;
                    next.push(v);
                }
            }
            if next.is_empty() {
                break;
            }
            std::mem::swap(&mut frontier, &mut next);
            next.clear();
        }
        dist
    }

    /// The stitch answer the index must give for `(s, t, l)`: the live
    /// broker with the fewest hops `d(s, b) + d(b, t) <= min(l, max_l)`,
    /// the smallest id on ties; the zero-hop self path when `s == t`.
    pub fn stitch(
        &self,
        roster: &[NodeId],
        s: NodeId,
        t: NodeId,
        l: usize,
        max_l: usize,
    ) -> Option<StitchAnswer> {
        let n = self.g.node_count();
        if s.index() >= n || t.index() >= n || self.down[s.index()] || self.down[t.index()] {
            return None;
        }
        if s == t {
            return Some(StitchAnswer {
                broker: s,
                hops_s: 0,
                hops_t: 0,
            });
        }
        let cap = l.min(max_l) as u8;
        let ds = self.bfs(s, cap);
        let dt = self.bfs(t, cap);
        let mut best: Option<(u8, NodeId)> = None;
        for &b in roster {
            if !self.is_live_broker(b) {
                continue;
            }
            let (a, c) = (ds[b.index()], dt[b.index()]);
            if a == UNREACHED || c == UNREACHED || a + c > cap {
                continue;
            }
            if best.is_none_or(|(tot, id)| a + c < tot || (a + c == tot && b < id)) {
                best = Some((a + c, b));
            }
        }
        best.map(|(_, b)| StitchAnswer {
            broker: b,
            hops_s: u32::from(ds[b.index()]),
            hops_t: u32::from(dt[b.index()]),
        })
    }
}

/// Exact l-hop pair counts with every vertex a source and no faults:
/// `cum[l - 1]` = ordered pairs `(s, t)`, `s != t`, joined by a
/// dominated path of at most `l` hops.
///
/// A broker's reach comes from its own BFS. A non-broker's first hop
/// must land on a broker, so its `l`-ball is the union of its broker
/// neighbours' `(l - 1)`-balls (plus itself), counted over bitsets.
pub fn curve_counts(g: &Graph, brokers: &[NodeId], max_l: usize) -> Vec<u64> {
    let n = g.node_count();
    let dom = Dominated::clear(g, brokers);
    let words = n.div_ceil(64);
    let mut cum = vec![0u64; max_l];
    let mut slot = vec![usize::MAX; n];
    // balls[(i * max_l + j) * words ..] = broker i's ball of radius j.
    let mut balls = vec![0u64; brokers.len() * max_l * words];
    for (i, &b) in brokers.iter().enumerate() {
        slot[b.index()] = i;
        let dist = dom.bfs(b, max_l as u8);
        for (v, &d) in dist.iter().enumerate() {
            if d == UNREACHED {
                continue;
            }
            for l in usize::from(d).max(1)..=max_l {
                if v != b.index() {
                    cum[l - 1] += 1;
                }
            }
            for j in usize::from(d)..max_l {
                balls[(i * max_l + j) * words + v / 64] |= 1 << (v % 64);
            }
        }
    }
    let mut union = vec![0u64; words];
    let mut via: Vec<usize> = Vec::new();
    for s in g.nodes() {
        if slot[s.index()] != usize::MAX {
            continue;
        }
        via.clear();
        via.extend(
            g.neighbors(s)
                .iter()
                .map(|v| slot[v.index()])
                .filter(|&i| i != usize::MAX),
        );
        if via.is_empty() {
            continue;
        }
        for l in 1..=max_l {
            union.fill(0);
            for &i in &via {
                let ball = &balls[(i * max_l + l - 1) * words..(i * max_l + l) * words];
                for (u, w) in union.iter_mut().zip(ball) {
                    *u |= w;
                }
            }
            let reached: u64 = union.iter().map(|w| u64::from(w.count_ones())).sum();
            let has_self = union[s.index() / 64] >> (s.index() % 64) & 1;
            cum[l - 1] += reached - has_self;
        }
    }
    cum
}

/// `|B ∪ N(B)|`: vertices a broker set covers.
pub fn coverage(g: &Graph, brokers: &[NodeId]) -> usize {
    let mut covered = vec![false; g.node_count()];
    for &b in brokers {
        covered[b.index()] = true;
        for &v in g.neighbors(b) {
            covered[v.index()] = true;
        }
    }
    covered.iter().filter(|&&c| c).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use netgraph::graph::from_edges;
    use netgraph::FaultSchedule;

    /// Path 0-1-2-3-4 with brokers {1, 3}.
    fn path() -> Graph {
        from_edges(5, (0..4).map(|i| (NodeId(i), NodeId(i + 1))))
    }

    #[test]
    fn bfs_uses_only_dominated_edges() {
        let g = path();
        let dom = Dominated::clear(&g, &[NodeId(1)]);
        // Edge 2-3 has no broker end: 3 and 4 are unreachable.
        assert_eq!(dom.bfs(NodeId(0), 6), vec![0, 1, 2, UNREACHED, UNREACHED]);
        let dom = Dominated::clear(&g, &[NodeId(1), NodeId(3)]);
        assert_eq!(dom.bfs(NodeId(0), 3), vec![0, 1, 2, 3, UNREACHED]);
    }

    #[test]
    fn stitch_respects_faults_and_cap() {
        let g = path();
        let roster = [NodeId(1), NodeId(3)];
        let dom = Dominated::clear(&g, &roster);
        let a = dom.stitch(&roster, NodeId(0), NodeId(4), 6, 6).unwrap();
        assert_eq!((a.broker, a.hops_s, a.hops_t), (NodeId(1), 1, 3));
        assert_eq!(dom.stitch(&roster, NodeId(0), NodeId(4), 3, 6), None);
        assert_eq!(dom.stitch(&roster, NodeId(0), NodeId(4), 6, 3), None);
        let mut sched = FaultSchedule::new(5);
        sched.fail_broker(1, NodeId(3));
        let dom = Dominated::under(&g, &roster, &sched.state_at(1));
        assert_eq!(dom.stitch(&roster, NodeId(0), NodeId(4), 6, 6), None);
        let mut sched = FaultSchedule::new(5);
        sched.fail_edge(1, NodeId(2), NodeId(1));
        let dom = Dominated::under(&g, &roster, &sched.state_at(1));
        assert_eq!(dom.stitch(&roster, NodeId(0), NodeId(2), 6, 6), None);
        let a = dom.stitch(&roster, NodeId(2), NodeId(4), 6, 6).unwrap();
        assert_eq!((a.broker, a.hops_s, a.hops_t), (NodeId(3), 1, 1));
    }

    #[test]
    fn curve_counts_match_all_pairs_bfs() {
        // A small graph with a non-broker hub and a pendant chain.
        let edges = [
            (0, 1),
            (1, 2),
            (2, 3),
            (3, 4),
            (1, 5),
            (5, 6),
            (6, 7),
            (2, 6),
            (0, 8),
        ];
        let g = from_edges(9, edges.iter().map(|&(a, b)| (NodeId(a), NodeId(b))));
        for roster in [
            vec![NodeId(1)],
            vec![NodeId(1), NodeId(6)],
            vec![NodeId(2), NodeId(5), NodeId(8)],
        ] {
            let dom = Dominated::clear(&g, &roster);
            let mut want = vec![0u64; 4];
            for s in g.nodes() {
                let d = dom.bfs(s, 4);
                for (t, &dt) in d.iter().enumerate() {
                    if t != s.index() && dt != UNREACHED {
                        for l in usize::from(dt)..=4 {
                            want[l - 1] += 1;
                        }
                    }
                }
            }
            assert_eq!(curve_counts(&g, &roster, 4), want, "roster {roster:?}");
        }
    }

    #[test]
    fn coverage_counts_closed_neighbourhood() {
        let g = path();
        assert_eq!(coverage(&g, &[NodeId(1)]), 3);
        assert_eq!(coverage(&g, &[NodeId(1), NodeId(3)]), 5);
    }
}
