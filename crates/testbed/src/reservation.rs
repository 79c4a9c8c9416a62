//! Node inventory and reservations.

use crate::hardware::NodeSpec;
use std::collections::BTreeMap;
use std::fmt;

/// Identifies a node within a [`Testbed`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

/// A physical node: its spec plus allocation state.
#[derive(Debug, Clone)]
pub struct Node {
    /// Node identity.
    pub id: NodeId,
    /// Hostname in Grid'5000 style, e.g. `chifflot-3.lille`.
    pub hostname: String,
    /// Hardware description.
    pub spec: NodeSpec,
    reserved_by: Option<u64>,
}

impl Node {
    /// Whether the node is currently part of a reservation.
    pub fn is_reserved(&self) -> bool {
        self.reserved_by.is_some()
    }
}

/// Why a reservation could not be satisfied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReserveError {
    /// The named cluster does not exist in this testbed.
    UnknownCluster(String),
    /// Not enough free nodes: `(cluster, requested, available)`.
    Insufficient(String, usize, usize),
}

impl fmt::Display for ReserveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReserveError::UnknownCluster(c) => write!(f, "unknown cluster: {c}"),
            ReserveError::Insufficient(c, want, have) => {
                write!(f, "cluster {c}: requested {want} nodes, {have} free")
            }
        }
    }
}

impl std::error::Error for ReserveError {}

/// A granted reservation: a job id plus the node ids it holds.
#[derive(Debug, Clone)]
pub struct Reservation {
    /// OAR-style job identifier.
    pub job_id: u64,
    /// Nodes granted to this job.
    pub nodes: Vec<NodeId>,
}

/// The node inventory with reserve/release semantics (an OAR look-alike).
#[derive(Debug, Clone, Default)]
pub struct Testbed {
    nodes: Vec<Node>,
    clusters: BTreeMap<String, Vec<NodeId>>,
    next_job: u64,
}

impl Testbed {
    /// An empty testbed.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `count` identical nodes of the given model.
    pub fn add_cluster(&mut self, spec: NodeSpec, count: usize) {
        let cluster = spec.cluster.clone();
        let ids = self.clusters.entry(cluster.clone()).or_default();
        let base = ids.len();
        for i in 0..count {
            let id = NodeId(self.nodes.len() as u32);
            self.nodes.push(Node {
                id,
                hostname: format!("{}-{}.{}", cluster, base + i + 1, spec.site),
                spec: spec.clone(),
                reserved_by: None,
            });
            ids.push(id);
        }
    }

    /// Cluster names, sorted.
    pub fn clusters(&self) -> Vec<&str> {
        self.clusters.keys().map(|s| s.as_str()).collect()
    }

    /// Free node count in a cluster (0 for unknown clusters).
    pub fn free_in(&self, cluster: &str) -> usize {
        self.clusters
            .get(cluster)
            .map(|ids| {
                ids.iter()
                    .filter(|id| !self.nodes[id.0 as usize].is_reserved())
                    .count()
            })
            .unwrap_or(0)
    }

    /// Look up a node.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0 as usize]
    }

    /// Reserve `count` free nodes on `cluster`. Nodes are granted in
    /// deterministic (id) order, mirroring how a batch scheduler fills a
    /// cluster.
    pub fn reserve(&mut self, cluster: &str, count: usize) -> Result<Reservation, ReserveError> {
        let ids = self
            .clusters
            .get(cluster)
            .ok_or_else(|| ReserveError::UnknownCluster(cluster.to_string()))?;
        let free: Vec<NodeId> = ids
            .iter()
            .copied()
            .filter(|id| !self.nodes[id.0 as usize].is_reserved())
            .collect();
        if free.len() < count {
            return Err(ReserveError::Insufficient(
                cluster.to_string(),
                count,
                free.len(),
            ));
        }
        self.next_job += 1;
        let job_id = self.next_job;
        let granted: Vec<NodeId> = free.into_iter().take(count).collect();
        for id in &granted {
            self.nodes[id.0 as usize].reserved_by = Some(job_id);
        }
        Ok(Reservation {
            job_id,
            nodes: granted,
        })
    }

    /// Release every node held by a reservation.
    pub fn release(&mut self, reservation: &Reservation) {
        for id in &reservation.nodes {
            let node = &mut self.nodes[id.0 as usize];
            if node.reserved_by == Some(reservation.job_id) {
                node.reserved_by = None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid5000;

    #[test]
    fn reserve_and_release_roundtrip() {
        let mut tb = grid5000::paper_testbed();
        assert_eq!(tb.free_in("chifflot"), 2);
        let res = tb.reserve("chifflot", 2).unwrap();
        assert_eq!(res.nodes.len(), 2);
        assert_eq!(tb.free_in("chifflot"), 0);
        assert!(tb.node(res.nodes[0]).is_reserved());
        tb.release(&res);
        assert_eq!(tb.free_in("chifflot"), 2);
    }

    #[test]
    fn insufficient_nodes_error() {
        let mut tb = grid5000::paper_testbed();
        let err = tb.reserve("chifflot", 3).unwrap_err();
        assert_eq!(err, ReserveError::Insufficient("chifflot".into(), 3, 2));
        assert!(err.to_string().contains("3 nodes"));
    }

    #[test]
    fn unknown_cluster_error() {
        let mut tb = Testbed::new();
        assert_eq!(
            tb.reserve("nope", 1).unwrap_err(),
            ReserveError::UnknownCluster("nope".into())
        );
    }

    #[test]
    fn hostnames_follow_grid5000_convention() {
        let tb = grid5000::paper_testbed();
        assert_eq!(tb.node(NodeId(0)).hostname, "chifflot-1.lille");
        assert_eq!(tb.node(NodeId(1)).hostname, "chifflot-2.lille");
    }

    #[test]
    fn deterministic_grant_order() {
        let mut a = grid5000::paper_testbed();
        let mut b = grid5000::paper_testbed();
        let ra = a.reserve("gros", 4).unwrap();
        let rb = b.reserve("gros", 4).unwrap();
        assert_eq!(ra.nodes, rb.nodes);
    }

    #[test]
    fn jobs_do_not_release_each_other() {
        let mut tb = grid5000::paper_testbed();
        let r1 = tb.reserve("gros", 2).unwrap();
        let r2 = tb.reserve("gros", 2).unwrap();
        // Release r1 must not free r2's nodes.
        tb.release(&r1);
        assert_eq!(tb.free_in("gros"), 8);
        assert!(tb.node(r2.nodes[0]).is_reserved());
    }
}
