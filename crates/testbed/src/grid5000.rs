//! Catalog of the Grid'5000 clusters used by the paper's evaluation.
//!
//! Specs follow the Grid'5000 reference API for the five clusters named in
//! §IV ("Scenario Configuration"): the GPU-equipped `chifflot` nodes host
//! the Pl@ntNet Identification Engine; `chiclet`, `chetemi`, `chifflet` and
//! `gros` host the request clients.

use crate::hardware::{CpuSpec, GpuSpec, NodeSpec};
use crate::reservation::Testbed;

/// Node model of the Lille `chifflot` cluster (Dell PowerEdge R740):
/// 2× Xeon Gold 6126 (12 cores each), 192 GB RAM, 2× Tesla V100 32 GB,
/// 25 Gbps Ethernet.
pub fn chifflot() -> NodeSpec {
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

/// Node model of the Lille `chiclet` cluster: 2× AMD EPYC 7301 (16 cores
/// each), 128 GB RAM, 25 Gbps.
pub fn chiclet() -> NodeSpec {
    NodeSpec {
        cluster: "chiclet".into(),
        site: "lille".into(),
        cpu: CpuSpec {
            model: "AMD EPYC 7301".into(),
            sockets: 2,
            cores_per_socket: 16,
            ghz: 2.2,
        },
        gpu: None,
        memory_gb: 128.0,
        nic_gbps: 25.0,
    }
}

/// Node model of the Lille `chetemi` cluster: 2× Xeon E5-2630 v4 (10 cores
/// each), 256 GB RAM, 10 Gbps.
pub fn chetemi() -> NodeSpec {
    NodeSpec {
        cluster: "chetemi".into(),
        site: "lille".into(),
        cpu: CpuSpec {
            model: "Intel Xeon E5-2630 v4".into(),
            sockets: 2,
            cores_per_socket: 10,
            ghz: 2.2,
        },
        gpu: None,
        memory_gb: 256.0,
        nic_gbps: 10.0,
    }
}

/// Node model of the Lille `chifflet` cluster: 2× Xeon E5-2680 v4 (14 cores
/// each), 768 GB RAM, 2× GTX 1080 Ti, 10 Gbps.
pub fn chifflet() -> NodeSpec {
    NodeSpec {
        cluster: "chifflet".into(),
        site: "lille".into(),
        cpu: CpuSpec {
            model: "Intel Xeon E5-2680 v4".into(),
            sockets: 2,
            cores_per_socket: 14,
            ghz: 2.4,
        },
        gpu: Some(GpuSpec {
            model: "Nvidia GTX 1080 Ti".into(),
            memory_gb: 11.0,
            count: 2,
        }),
        memory_gb: 768.0,
        nic_gbps: 10.0,
    }
}

/// Node model of the Nancy `gros` cluster: 1× Xeon Gold 5220 (18 cores),
/// 96 GB RAM, 25 Gbps.
pub fn gros() -> NodeSpec {
    NodeSpec {
        cluster: "gros".into(),
        site: "nancy".into(),
        cpu: CpuSpec {
            model: "Intel Xeon Gold 5220".into(),
            sockets: 1,
            cores_per_socket: 18,
            ghz: 2.2,
        },
        gpu: None,
        memory_gb: 96.0,
        nic_gbps: 25.0,
    }
}

/// Build the testbed slice used in the paper: 42 nodes across the five
/// clusters. The paper does not give the exact split beyond "42 nodes"; we
/// allocate 2 GPU nodes for the engine and spread the 40 client nodes
/// evenly across the four client clusters.
pub fn paper_testbed() -> Testbed {
    let mut tb = Testbed::new();
    tb.add_cluster(chifflot(), 2);
    tb.add_cluster(chiclet(), 10);
    tb.add_cluster(chetemi(), 10);
    tb.add_cluster(chifflet(), 10);
    tb.add_cluster(gros(), 10);
    tb
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_testbed_has_42_nodes() {
        let tb = paper_testbed();
        assert_eq!(tb.clusters().len(), 5);
        let nodes: usize = tb.clusters().iter().map(|c| tb.free_in(c)).sum();
        assert_eq!(nodes, 42);
    }

    #[test]
    fn chifflot_matches_paper_specs() {
        let n = chifflot();
        // "Intel Xeon Gold 6126 (Skylake, 2.60GHz, 2 CPUs/node, 12
        // cores/CPU), 192GB of memory ... 25Gbps Ethernet" + V100 32GB.
        assert_eq!(n.cpu.total_cores(), 24);
        assert_eq!(n.memory_gb, 192.0);
        assert_eq!(n.nic_gbps, 25.0);
        assert!(n.has_gpu());
        assert_eq!(n.gpu.as_ref().unwrap().memory_gb, 32.0);
    }

    #[test]
    fn only_gpu_clusters_have_gpus() {
        assert!(chifflot().has_gpu());
        assert!(chifflet().has_gpu());
        assert!(!chiclet().has_gpu());
        assert!(!chetemi().has_gpu());
        assert!(!gros().has_gpu());
    }

    #[test]
    fn sites_are_recorded() {
        assert_eq!(gros().site, "nancy");
        assert_eq!(chiclet().site, "lille");
    }
}
