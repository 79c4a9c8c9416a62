//! Link constraints and the shared-bandwidth flow model.

/// A `tc netem`-style constraint set on a (directed) link: one-way latency,
/// bandwidth, and packet loss.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSpec {
    /// One-way propagation delay in milliseconds.
    pub latency_ms: f64,
    /// Link rate in megabits per second.
    pub bandwidth_mbps: f64,
    /// Packet loss probability in `[0, 1)`. Loss inflates the effective
    /// transfer time by `1 / (1 - loss)` (each lost packet is retransmitted).
    pub loss: f64,
}

impl LinkSpec {
    /// A constraint with the given latency and bandwidth and no loss.
    pub fn new(latency_ms: f64, bandwidth_mbps: f64) -> Self {
        LinkSpec {
            latency_ms,
            bandwidth_mbps,
            loss: 0.0,
        }
    }

    /// Same link with a loss probability.
    pub fn with_loss(mut self, loss: f64) -> Self {
        assert!((0.0..1.0).contains(&loss), "loss must be in [0,1)");
        self.loss = loss;
        self
    }

    /// An effectively unconstrained link (datacenter-local).
    pub fn unconstrained() -> Self {
        LinkSpec::new(0.05, 100_000.0)
    }

    /// Time in seconds to move `bytes` across this link as a single flow:
    /// propagation + serialization, inflated by retransmissions.
    pub fn transfer_secs(&self, bytes: u64) -> f64 {
        assert!(self.bandwidth_mbps > 0.0, "zero-bandwidth link");
        let serialization = (bytes as f64 * 8.0) / (self.bandwidth_mbps * 1e6);
        let retrans = 1.0 / (1.0 - self.loss);
        self.latency_ms / 1e3 + serialization * retrans
    }

    /// Effective per-flow bandwidth (Mbps) when `flows` share the link
    /// fairly.
    pub fn per_flow_mbps(&self, flows: usize) -> f64 {
        if flows <= 1 {
            self.bandwidth_mbps
        } else {
            self.bandwidth_mbps / flows as f64
        }
    }
}

/// A link whose bandwidth is fair-shared among active flows.
///
/// This is the steady-state abstraction the Pl@ntNet download stage uses:
/// with `n` concurrent downloads on a `B` Mbps link each download sees
/// `B / n`. The struct tracks the active flow count and answers "how long
/// would this transfer take if the current concurrency persisted" — an
/// approximation that avoids rescheduling every in-flight transfer on each
/// membership change while preserving the congestion effect.
#[derive(Debug, Clone)]
pub struct SharedLink {
    spec: LinkSpec,
    active_flows: usize,
    started: u64,
    finished: u64,
}

impl SharedLink {
    /// New idle link.
    pub fn new(spec: LinkSpec) -> Self {
        SharedLink {
            spec,
            active_flows: 0,
            started: 0,
            finished: 0,
        }
    }

    /// Register a new flow and return its estimated transfer time in
    /// seconds for `bytes`, given the congestion it joins.
    pub fn begin_flow(&mut self, bytes: u64) -> f64 {
        self.active_flows += 1;
        self.started += 1;
        let eff = LinkSpec {
            bandwidth_mbps: self.spec.per_flow_mbps(self.active_flows),
            ..self.spec
        };
        eff.transfer_secs(bytes)
    }

    /// Mark one flow finished.
    pub fn end_flow(&mut self) {
        assert!(self.active_flows > 0, "end_flow on idle link");
        self.active_flows -= 1;
        self.finished += 1;
    }

    /// Currently active flows.
    pub fn active(&self) -> usize {
        self.active_flows
    }

    /// Flows started since creation.
    pub fn total_started(&self) -> u64 {
        self.started
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_has_latency_and_serialization() {
        // 10 ms + 1 MB over 8 Mbps = 10ms + 1s.
        let l = LinkSpec::new(10.0, 8.0);
        let t = l.transfer_secs(1_000_000);
        assert!((t - 1.010).abs() < 1e-9, "{t}");
    }

    #[test]
    fn loss_inflates_transfer() {
        let clean = LinkSpec::new(0.0, 8.0);
        let lossy = LinkSpec::new(0.0, 8.0).with_loss(0.5);
        let b = 1_000_000;
        assert!((lossy.transfer_secs(b) / clean.transfer_secs(b) - 2.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "loss must be in [0,1)")]
    fn full_loss_rejected() {
        let _ = LinkSpec::new(0.0, 1.0).with_loss(1.0);
    }

    #[test]
    fn per_flow_bandwidth_shares_fairly() {
        let l = LinkSpec::new(0.0, 100.0);
        assert_eq!(l.per_flow_mbps(0), 100.0);
        assert_eq!(l.per_flow_mbps(1), 100.0);
        assert_eq!(l.per_flow_mbps(4), 25.0);
    }

    #[test]
    fn shared_link_congestion_slows_new_flows() {
        let mut link = SharedLink::new(LinkSpec::new(0.0, 80.0));
        let solo = link.begin_flow(1_000_000); // 1 flow @ 80 Mbps = 0.1 s
        assert!((solo - 0.1).abs() < 1e-9);
        let crowded = link.begin_flow(1_000_000); // 2 flows -> 40 Mbps each
        assert!((crowded - 0.2).abs() < 1e-9);
        assert_eq!(link.active(), 2);
        link.end_flow();
        link.end_flow();
        assert_eq!(link.active(), 0);
        assert_eq!(link.total_started(), 2);
    }

    #[test]
    #[should_panic(expected = "end_flow on idle link")]
    fn end_flow_on_idle_panics() {
        let mut link = SharedLink::new(LinkSpec::unconstrained());
        link.end_flow();
    }

    #[test]
    fn unconstrained_is_fast() {
        let l = LinkSpec::unconstrained();
        assert!(l.transfer_secs(10_000_000) < 0.01);
    }
}
