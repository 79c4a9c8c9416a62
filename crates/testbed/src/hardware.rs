//! Hardware descriptions for testbed nodes.

/// CPU configuration of a node.
#[derive(Debug, Clone, PartialEq)]
pub struct CpuSpec {
    /// Marketing name, e.g. "Intel Xeon Gold 6126".
    pub model: String,
    /// Number of sockets.
    pub sockets: u32,
    /// Physical cores per socket.
    pub cores_per_socket: u32,
    /// Base clock in GHz.
    pub ghz: f64,
}

impl CpuSpec {
    /// Total physical cores across sockets.
    pub fn total_cores(&self) -> u32 {
        self.sockets * self.cores_per_socket
    }
}

/// GPU configuration of a node.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuSpec {
    /// Marketing name, e.g. "Nvidia Tesla V100-PCIE-32GB".
    pub model: String,
    /// Device memory per GPU, in GB.
    pub memory_gb: f64,
    /// Number of GPUs of this kind on the node.
    pub count: u32,
}

/// Full node description, as published in the Grid'5000 reference API.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSpec {
    /// Cluster this node model belongs to.
    pub cluster: String,
    /// Site hosting the cluster (e.g. "lille").
    pub site: String,
    /// CPU configuration.
    pub cpu: CpuSpec,
    /// GPU configuration, if the node has accelerators.
    pub gpu: Option<GpuSpec>,
    /// Main memory in GB.
    pub memory_gb: f64,
    /// Primary NIC speed in Gbps.
    pub nic_gbps: f64,
}

impl NodeSpec {
    /// Whether the node carries at least one GPU.
    pub fn has_gpu(&self) -> bool {
        self.gpu.as_ref().is_some_and(|g| g.count > 0)
    }

    /// Total GPU memory across devices (0 without GPUs).
    pub fn total_gpu_memory_gb(&self) -> f64 {
        self.gpu
            .as_ref()
            .map(|g| g.memory_gb * g.count as f64)
            .unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v100_node() -> NodeSpec {
        NodeSpec {
            cluster: "chifflot".into(),
            site: "lille".into(),
            cpu: CpuSpec {
                model: "Intel Xeon Gold 6126".into(),
                sockets: 2,
                cores_per_socket: 12,
                ghz: 2.6,
            },
            gpu: Some(GpuSpec {
                model: "Nvidia Tesla V100-PCIE-32GB".into(),
                memory_gb: 32.0,
                count: 2,
            }),
            memory_gb: 192.0,
            nic_gbps: 25.0,
        }
    }

    #[test]
    fn core_counts() {
        let n = v100_node();
        assert_eq!(n.cpu.total_cores(), 24);
    }

    #[test]
    fn gpu_memory_totals() {
        let n = v100_node();
        assert!(n.has_gpu());
        assert_eq!(n.total_gpu_memory_gb(), 64.0);
        let mut cpu_only = n.clone();
        cpu_only.gpu = None;
        assert!(!cpu_only.has_gpu());
        assert_eq!(cpu_only.total_gpu_memory_gb(), 0.0);
    }
}
