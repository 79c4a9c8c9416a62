//! Integration-level determinism for the network substrate: the crate is
//! pure arithmetic (no RNG, no wall clock), so two independent
//! instantiations of the same topology must agree bit-for-bit on every
//! derived quantity — the property the deterministic deployment layer
//! leans on when it replays an experiment.

use e2c_net::{LinkSpec, SharedLink, Topology};

/// The paper's three-layer continuum with asymmetric constraints.
fn build_topology() -> Topology {
    let mut topo = Topology::new().with_default(LinkSpec::unconstrained());
    for group in ["edge", "fog", "cloud"] {
        topo.add_group(group);
    }
    topo.constrain("edge", "fog", LinkSpec::new(25.0, 100.0).with_loss(0.01));
    topo.constrain("fog", "cloud", LinkSpec::new(10.0, 1000.0));
    topo.constrain("edge", "cloud", LinkSpec::new(60.0, 50.0).with_loss(0.02));
    topo
}

#[test]
fn independent_topology_instantiations_agree_bitwise() {
    let a = build_topology();
    let b = build_topology();
    assert_eq!(a.groups(), b.groups());
    assert_eq!(a.constraint_count(), b.constraint_count());
    let sizes = [1u64, 1_000, 65_536, 5_000_000, u32::MAX as u64];
    for x in ["edge", "fog", "cloud"] {
        for y in ["edge", "fog", "cloud"] {
            assert_eq!(
                a.rtt_secs(x, y).to_bits(),
                b.rtt_secs(x, y).to_bits(),
                "rtt {x}-{y}"
            );
            for bytes in sizes {
                assert_eq!(
                    a.transfer_secs(x, y, bytes).to_bits(),
                    b.transfer_secs(x, y, bytes).to_bits(),
                    "transfer {x}-{y} {bytes}B"
                );
            }
        }
    }
}

#[test]
fn topology_is_symmetric_and_ordering_insensitive() {
    // Constraints are pairwise: the (a, b) and (b, a) lookups must agree,
    // and the order in which constraints were added must not matter.
    let a = build_topology();
    let mut reordered = Topology::new().with_default(LinkSpec::unconstrained());
    for group in ["edge", "fog", "cloud"] {
        reordered.add_group(group);
    }
    reordered.constrain("edge", "cloud", LinkSpec::new(60.0, 50.0).with_loss(0.02));
    reordered.constrain("fog", "cloud", LinkSpec::new(10.0, 1000.0));
    reordered.constrain("edge", "fog", LinkSpec::new(25.0, 100.0).with_loss(0.01));
    for x in ["edge", "fog", "cloud"] {
        for y in ["edge", "fog", "cloud"] {
            assert_eq!(
                a.transfer_secs(x, y, 1_000_000).to_bits(),
                a.transfer_secs(y, x, 1_000_000).to_bits(),
                "asymmetric {x}-{y}"
            );
            assert_eq!(
                a.transfer_secs(x, y, 1_000_000).to_bits(),
                reordered.transfer_secs(x, y, 1_000_000).to_bits(),
                "order-sensitive {x}-{y}"
            );
        }
    }
}

#[test]
fn shared_link_flow_sequences_replay_identically() {
    // A scripted sequence of flow starts/ends (the shape of a trial's
    // concurrent image downloads) produces the same per-flow transfer
    // times on two independent links.
    let script: &[(bool, u64)] = &[
        (true, 100_000),
        (true, 2_000_000),
        (false, 0),
        (true, 50_000),
        (true, 750_000),
        (false, 0),
        (false, 0),
        (true, 5_000_000),
        (false, 0),
        (false, 0),
    ];
    let run = || {
        let mut link = SharedLink::new(LinkSpec::new(20.0, 200.0));
        let mut times = Vec::new();
        for &(begin, bytes) in script {
            if begin {
                times.push(link.begin_flow(bytes).to_bits());
            } else {
                link.end_flow();
            }
        }
        (times, link.active(), link.total_started())
    };
    assert_eq!(run(), run());
}
