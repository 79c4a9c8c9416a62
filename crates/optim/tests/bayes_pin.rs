//! Pins the paper's Phase III suggestion sequence: 200 asks of
//! `BayesOpt` with Extra Trees, `gp_hedge` and an LHS initial design on
//! the Pl@ntNet 4-integer space. Two points stay pending throughout, so
//! every guided ask also fits the constant-liar rows.
//!
//! The digest must not move when the surrogate kernel is optimised: every
//! fitted tree and every prediction has to stay bit-identical, and any
//! drift shows up here as a different suggestion somewhere in the run.

use e2c_optim::{Acquisition, BayesOpt, InitialDesign, Space, SurrogateKind};
use std::collections::VecDeque;

/// FNV-1a over a byte stream.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn f64(&mut self, v: f64) {
        self.bytes(&v.to_bits().to_le_bytes());
    }
}

/// A deterministic stand-in with the engine's response-surface shape:
/// a sweet spot inside the space, plus a small interaction term.
fn objective(p: &[f64]) -> f64 {
    (p[0] - 41.0).powi(2) / 16.0
        + (p[1] - 33.0).powi(2) / 9.0
        + (p[2] - 47.0).powi(2) / 25.0
        + (p[3] - 6.0).powi(2)
        + 0.01 * p[0] * p[3]
}

fn ask_digest(seed: u64, asks: usize) -> u64 {
    let mut opt = BayesOpt::new(Space::plantnet(), seed)
        .base_estimator(SurrogateKind::ExtraTrees)
        .acq_func(Acquisition::GpHedge)
        .initial_point_generator(InitialDesign::Lhs)
        .n_initial_points(20);
    let mut fnv = Fnv::new();
    let mut pending = VecDeque::new();
    for _ in 0..asks {
        let p = opt.ask();
        for &v in &p {
            fnv.f64(v);
        }
        pending.push_back(p);
        // Tell the oldest point once two others are in flight, so the
        // next ask sees two pending points.
        if pending.len() > 2 {
            let q = pending.pop_front().expect("three pending");
            let y = objective(&q);
            opt.tell(q, y);
        }
    }
    assert_eq!(opt.n_pending(), 2);
    let (best, value) = opt.best().expect("observations");
    for v in best {
        fnv.f64(v);
    }
    fnv.f64(value);
    fnv.0
}

#[test]
fn extra_trees_gp_hedge_suggestion_sequence_is_pinned() {
    assert_eq!(ask_digest(14, 200), 0x3b1e_f35e_1a86_cf10);
}
