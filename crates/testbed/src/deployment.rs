//! Mapping experiment roles to reserved nodes.
//!
//! E2Clab's workflow configuration distributes *services* to *layers*
//! backed by physical machines. A [`Deployment`] is the resolved mapping:
//! each named role (e.g. `"engine"`, `"clients"`) owns a set of nodes.

use crate::reservation::{NodeId, Testbed};
use std::collections::BTreeMap;

/// Resolved role → nodes assignment for one experiment.
#[derive(Debug, Clone, Default)]
pub struct Deployment {
    roles: BTreeMap<String, Vec<NodeId>>,
}

impl Deployment {
    /// Empty deployment.
    pub fn new() -> Self {
        Self::default()
    }

    /// Assign nodes to a role (appends to any existing assignment).
    pub fn assign(&mut self, role: &str, nodes: &[NodeId]) {
        self.roles
            .entry(role.to_string())
            .or_default()
            .extend_from_slice(nodes);
    }

    /// Nodes backing a role (empty for unknown roles).
    pub fn nodes_of(&self, role: &str) -> &[NodeId] {
        self.roles.get(role).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// All role names, sorted.
    pub fn roles(&self) -> Vec<&str> {
        self.roles.keys().map(|s| s.as_str()).collect()
    }

    /// Render a human-readable deployment plan against a testbed, in role
    /// order — this is part of the reproducibility archive.
    pub fn describe(&self, testbed: &Testbed) -> String {
        let mut out = String::new();
        for (role, ids) in &self.roles {
            out.push_str(role);
            out.push_str(":\n");
            for id in ids {
                let node = testbed.node(*id);
                out.push_str(&format!(
                    "  {} ({} cores, {:.0} GB RAM{})\n",
                    node.hostname,
                    node.spec.cpu.total_cores(),
                    node.spec.memory_gb,
                    if node.spec.has_gpu() {
                        format!(", {:.0} GB GPU", node.spec.total_gpu_memory_gb())
                    } else {
                        String::new()
                    }
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid5000;

    #[test]
    fn assign_and_query() {
        let mut tb = grid5000::paper_testbed();
        let engine = tb.reserve("chifflot", 1).unwrap();
        let clients = tb.reserve("gros", 3).unwrap();
        let mut dep = Deployment::new();
        dep.assign("engine", &engine.nodes);
        dep.assign("clients", &clients.nodes);
        assert_eq!(dep.nodes_of("engine").len(), 1);
        assert_eq!(dep.nodes_of("clients").len(), 3);
        assert_eq!(dep.nodes_of("absent").len(), 0);
        assert_eq!(dep.roles(), vec!["clients", "engine"]);
    }

    #[test]
    fn describe_lists_hardware() {
        let mut tb = grid5000::paper_testbed();
        let engine = tb.reserve("chifflot", 1).unwrap();
        let mut dep = Deployment::new();
        dep.assign("engine", &engine.nodes);
        let text = dep.describe(&tb);
        assert!(text.contains("engine:"));
        assert!(text.contains("chifflot-1.lille"));
        assert!(text.contains("24 cores"));
        assert!(text.contains("64 GB GPU"));
    }

    #[test]
    fn assign_appends() {
        let mut dep = Deployment::new();
        dep.assign("r", &[NodeId(1)]);
        dep.assign("r", &[NodeId(2)]);
        assert_eq!(dep.nodes_of("r"), &[NodeId(1), NodeId(2)]);
    }
}
