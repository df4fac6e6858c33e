//! The lock-order graph: a directed graph over lock ids where an edge
//! `a → b` means "some thread held `a` while acquiring `b`".
//!
//! A cycle in this graph is a *potential deadlock*: two threads can
//! interleave the recorded acquisition orders so that each waits on a
//! lock the other holds (the classic ABBA inversion is the two-node
//! cycle).  This is the TSan/lockdep observation — the cycle condemns
//! the *ordering*, so one test run that merely exercises both orders
//! sequentially is enough to prove the hang without ever hanging.
//!
//! The structure here is pure data (no globals, no clocks) so it can be
//! property-tested in isolation; the live detector in
//! [`crate::lock_graph`] layers thread-local held stacks and acquisition
//! sites on top of it.

use std::collections::{BTreeMap, BTreeSet};

/// A directed graph over lock ids with reachability-based cycle checks.
///
/// Deterministic by construction (ordered maps), so cycle reports are
/// stable for a given insertion history.
#[derive(Clone, Debug, Default)]
pub struct LockOrderGraph {
    edges: BTreeMap<u64, BTreeSet<u64>>,
    edge_count: usize,
}

impl LockOrderGraph {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the edge `from → to`.  Returns `true` when the edge is
    /// new, `false` when it was already present.  Self-edges (reentrant
    /// read acquisitions of the same lock) are ignored.
    pub fn add_edge(&mut self, from: u64, to: u64) -> bool {
        if from == to {
            return false;
        }
        let new = self.edges.entry(from).or_default().insert(to);
        if new {
            self.edge_count += 1;
        }
        new
    }

    /// True when `from → to` has been recorded.
    pub fn has_edge(&self, from: u64, to: u64) -> bool {
        self.edges.get(&from).is_some_and(|s| s.contains(&to))
    }

    /// Number of distinct edges recorded.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Would adding `from → to` close a cycle?  If so, returns the lock
    /// ids along the return path `to → … → from` (inclusive at both
    /// ends), so the full cycle is `from → to → … → from`.  The probe
    /// does not mutate the graph — callers decide whether to record the
    /// condemned edge.
    pub fn cycle_on_add(&self, from: u64, to: u64) -> Option<Vec<u64>> {
        if from == to {
            return None;
        }
        // DFS from `to` looking for `from`, keeping the path explicit so
        // the report can name every lock on the cycle.
        let mut stack: Vec<(u64, usize)> = vec![(to, 0)];
        let mut path: Vec<u64> = vec![to];
        let mut visited: BTreeSet<u64> = BTreeSet::new();
        visited.insert(to);
        while let Some((node, child)) = stack.pop() {
            let Some(nexts) = self.edges.get(&node) else {
                path.pop();
                continue;
            };
            if let Some(&next) = nexts.iter().nth(child) {
                stack.push((node, child + 1));
                if next == from {
                    path.push(next);
                    return Some(path);
                }
                if visited.insert(next) {
                    stack.push((next, 0));
                    path.push(next);
                }
            } else {
                path.pop();
            }
        }
        None
    }

    /// True when the recorded graph is acyclic (every edge was accepted
    /// without closing a cycle).  Kahn's algorithm — used by the
    /// property tests as an independent oracle for [`cycle_on_add`].
    pub fn is_acyclic(&self) -> bool {
        let mut indegree: BTreeMap<u64, usize> = BTreeMap::new();
        for (from, tos) in &self.edges {
            indegree.entry(*from).or_insert(0);
            for to in tos {
                *indegree.entry(*to).or_insert(0) += 1;
            }
        }
        let mut ready: Vec<u64> = indegree
            .iter()
            .filter(|(_, d)| **d == 0)
            .map(|(n, _)| *n)
            .collect();
        let mut removed = 0usize;
        while let Some(node) = ready.pop() {
            removed += 1;
            if let Some(tos) = self.edges.get(&node) {
                for to in tos {
                    if let Some(d) = indegree.get_mut(to) {
                        *d -= 1;
                        if *d == 0 {
                            ready.push(*to);
                        }
                    }
                }
            }
        }
        removed == indegree.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_node_cycle_is_reported_with_the_return_path() {
        let mut g = LockOrderGraph::new();
        assert!(g.add_edge(1, 2));
        assert!(!g.add_edge(1, 2), "duplicate edge is not new");
        assert_eq!(g.cycle_on_add(2, 1), Some(vec![1, 2]));
        assert!(g.cycle_on_add(1, 2).is_none(), "re-recording is no cycle");
    }

    #[test]
    fn long_cycle_names_every_lock_on_the_path() {
        let mut g = LockOrderGraph::new();
        g.add_edge(1, 2);
        g.add_edge(2, 3);
        g.add_edge(3, 4);
        let path = g.cycle_on_add(4, 1).expect("4 → 1 closes the loop");
        assert_eq!(path, vec![1, 2, 3, 4]);
    }

    #[test]
    fn diamond_is_acyclic() {
        let mut g = LockOrderGraph::new();
        g.add_edge(1, 2);
        g.add_edge(1, 3);
        g.add_edge(2, 4);
        g.add_edge(3, 4);
        assert!(g.cycle_on_add(2, 3).is_none());
        assert!(g.is_acyclic());
    }

    #[test]
    fn self_edges_are_ignored() {
        let mut g = LockOrderGraph::new();
        assert!(!g.add_edge(7, 7));
        assert_eq!(g.edge_count(), 0);
        assert!(g.cycle_on_add(7, 7).is_none());
    }
}
