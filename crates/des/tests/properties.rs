//! Property-based tests for the DES kernel invariants.

use e2c_des::resources::{Discipline, JobClass, ProcShare, Tokens};
use e2c_des::{EventQueue, SimTime};
use proptest::prelude::*;
use reference::RefProcShare;

proptest! {
    /// Events always pop in non-decreasing time order, whatever the
    /// insertion order.
    #[test]
    fn queue_pops_sorted(times in prop::collection::vec(0u64..1_000_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_micros(t), i);
        }
        let mut last = SimTime::ZERO;
        let mut count = 0;
        while let Some((at, _)) = q.pop() {
            prop_assert!(at >= last);
            last = at;
            count += 1;
        }
        prop_assert_eq!(count, times.len());
    }

    /// Token pool conservation: grants never exceed capacity, and everybody
    /// who queued is eventually served in FIFO order.
    #[test]
    fn tokens_conservation(cap in 1usize..16, n in 1usize..100) {
        let mut pool = Tokens::new(cap);
        let mut queued = Vec::new();
        for id in 0..n as u64 {
            if !pool.try_acquire(SimTime::from_micros(id), id) {
                queued.push(id);
            }
        }
        prop_assert_eq!(pool.busy(), n.min(cap));
        prop_assert_eq!(pool.queue_len(), n.saturating_sub(cap));
        // Drain: each release hands the token to the next FIFO waiter.
        let mut served = Vec::new();
        let mut now = SimTime::from_secs(1);
        for _ in 0..n.min(cap) + queued.len() {
            if pool.busy() == 0 { break; }
            if let Some(next) = pool.release(now) {
                served.push(next);
            }
            now += SimTime::from_micros(1);
        }
        prop_assert_eq!(served, queued);
        prop_assert_eq!(pool.busy(), 0);
    }

    /// Processor-sharing work conservation: with a single core and all jobs
    /// present from t=0, total completion time equals total demand.
    #[test]
    fn ps_work_conservation(demands in prop::collection::vec(0.01f64..5.0, 1..20)) {
        let mut ps = ProcShare::cores(1.0);
        for (id, &d) in demands.iter().enumerate() {
            ps.start(SimTime::ZERO, id as u64, d, 1.0);
        }
        let total: f64 = demands.iter().sum();
        let mut now = SimTime::ZERO;
        let mut finished = 0;
        while let Some((at, id)) = ps.next_completion(now) {
            now = at;
            ps.remove(now, id);
            finished += 1;
        }
        prop_assert_eq!(finished, demands.len());
        // Microsecond rounding accumulates at most 1us per completion.
        let slack = 1e-6 * demands.len() as f64 + 1e-6;
        prop_assert!((now.as_secs_f64() - total).abs() <= slack,
            "finished at {} expected {}", now.as_secs_f64(), total);
    }

    /// Under processor sharing, a job's sojourn time is never shorter than
    /// its demand (rate never exceeds 1).
    #[test]
    fn ps_no_speedup(demands in prop::collection::vec(0.01f64..2.0, 1..10),
                     cores in 1u32..8) {
        let mut ps = ProcShare::cores(cores as f64);
        for (id, &d) in demands.iter().enumerate() {
            ps.start(SimTime::ZERO, id as u64, d, 1.0);
        }
        let mut now = SimTime::ZERO;
        while let Some((at, id)) = ps.next_completion(now) {
            now = at;
            let demand = demands[id as usize];
            prop_assert!(now.as_secs_f64() + 2e-6 >= demand);
            ps.remove(now, id);
        }
    }

    /// Saturating (GPU) discipline: aggregate throughput is monotone
    /// non-decreasing in concurrency for alpha <= 1 (the physical regime —
    /// alpha > 1 would mean concurrency destroys throughput outright).
    #[test]
    fn gpu_throughput_monotone(alpha in 0.0f64..=1.0) {
        let mut last = 0.0;
        for n in 1..32 {
            let disc = Discipline::Saturating { alpha, cap: f64::INFINITY, devices: 1 };
            let mut gpu = ProcShare::new(disc);
            for id in 0..n {
                gpu.start(SimTime::ZERO, id, 1.0, 1.0);
            }
            let (at, _) = gpu.next_completion(SimTime::ZERO).unwrap();
            // All jobs finish at the same time; throughput = n / time.
            let throughput = n as f64 / at.as_secs_f64();
            prop_assert!(throughput >= last - 1e-9,
                "alpha={alpha} n={n}: {throughput} < {last}");
            last = throughput;
        }
    }
}

// ---------------------------------------------------------------------------
// ProcShare against a reference model
// ---------------------------------------------------------------------------

/// The `BTreeMap`-backed `ProcShare` that the sorted job table and then
/// the per-class lanes replaced, kept verbatim as a reference (one
/// division per job per scan): the two must agree bit for bit on every
/// completion time, tie-break and integral.
mod reference {
    use e2c_des::resources::{Discipline, JobClass};
    use e2c_des::SimTime;
    use std::collections::BTreeMap;

    const MIN_RATE: f64 = 1e-9;

    fn rate(
        discipline: Discipline,
        class: JobClass,
        reserved_weight: f64,
        normal_weight: f64,
        n_jobs: usize,
    ) -> f64 {
        match discipline {
            Discipline::ProcessorSharing { capacity } => match class {
                JobClass::Reserved => {
                    if reserved_weight <= capacity || reserved_weight == 0.0 {
                        1.0
                    } else {
                        capacity / reserved_weight
                    }
                }
                JobClass::Normal => {
                    let left = (capacity - reserved_weight.min(capacity)).max(0.0);
                    if normal_weight <= left || normal_weight == 0.0 {
                        1.0
                    } else {
                        (left / normal_weight).max(MIN_RATE)
                    }
                }
            },
            Discipline::Saturating {
                alpha,
                cap,
                devices,
            } => {
                if n_jobs == 0 {
                    1.0
                } else {
                    let d = devices.max(1) as f64;
                    let per_device = (n_jobs as f64 / d).ceil();
                    let eff = 1.0 / (1.0 + alpha * (per_device - 1.0));
                    eff.min(d * cap / n_jobs as f64).max(MIN_RATE)
                }
            }
        }
    }

    #[derive(Clone, Copy)]
    struct Job {
        remaining: f64,
        weight: f64,
        class: JobClass,
    }

    pub struct RefProcShare {
        discipline: Discipline,
        jobs: BTreeMap<u64, Job>,
        total_weight: f64,
        reserved_weight: f64,
        last_update: SimTime,
        demand_integral: f64,
        busy_integral: f64,
        completed: u64,
    }

    impl RefProcShare {
        pub fn new(discipline: Discipline) -> Self {
            RefProcShare {
                discipline,
                jobs: BTreeMap::new(),
                total_weight: 0.0,
                reserved_weight: 0.0,
                last_update: SimTime::ZERO,
                demand_integral: 0.0,
                busy_integral: 0.0,
                completed: 0,
            }
        }

        fn rate_of(&self, class: JobClass) -> f64 {
            rate(
                self.discipline,
                class,
                self.reserved_weight,
                self.total_weight - self.reserved_weight,
                self.jobs.len(),
            )
        }

        fn advance(&mut self, now: SimTime) {
            let dt = (now - self.last_update).as_secs_f64();
            if dt > 0.0 {
                if !self.jobs.is_empty() {
                    let r_normal = self.rate_of(JobClass::Normal);
                    let r_reserved = self.rate_of(JobClass::Reserved);
                    for job in self.jobs.values_mut() {
                        let rate = match job.class {
                            JobClass::Normal => r_normal,
                            JobClass::Reserved => r_reserved,
                        };
                        job.remaining = (job.remaining - rate * dt).max(0.0);
                    }
                    self.busy_integral += dt;
                }
                self.demand_integral += self.total_weight * dt;
            }
            self.last_update = now;
        }

        pub fn start(&mut self, now: SimTime, id: u64, demand: f64, weight: f64, class: JobClass) {
            self.advance(now);
            assert!(demand >= 0.0 && weight > 0.0, "bad job parameters");
            let prev = self.jobs.insert(
                id,
                Job {
                    remaining: demand,
                    weight,
                    class,
                },
            );
            assert!(prev.is_none(), "job {id} already running");
            self.total_weight += weight;
            if class == JobClass::Reserved {
                self.reserved_weight += weight;
            }
        }

        pub fn remove(&mut self, now: SimTime, id: u64) -> bool {
            self.advance(now);
            if let Some(job) = self.jobs.remove(&id) {
                self.total_weight -= job.weight;
                if job.class == JobClass::Reserved {
                    self.reserved_weight -= job.weight;
                    if self.reserved_weight < 1e-12 {
                        self.reserved_weight = 0.0;
                    }
                }
                if self.total_weight < 1e-12 {
                    self.total_weight = 0.0;
                }
                self.completed += 1;
                true
            } else {
                false
            }
        }

        pub fn next_completion(&mut self, now: SimTime) -> Option<(SimTime, u64)> {
            self.advance(now);
            if self.jobs.is_empty() {
                return None;
            }
            let r_normal = self.rate_of(JobClass::Normal);
            let r_reserved = self.rate_of(JobClass::Reserved);
            let mut best: Option<(f64, u64)> = None;
            for (&id, job) in &self.jobs {
                let rate = match job.class {
                    JobClass::Normal => r_normal,
                    JobClass::Reserved => r_reserved,
                };
                let finish = job.remaining / rate;
                match best {
                    None => best = Some((finish, id)),
                    Some((bf, bid)) => {
                        if finish < bf || (finish == bf && id < bid) {
                            best = Some((finish, id));
                        }
                    }
                }
            }
            let (finish, id) = best.expect("non-empty job set");
            let delta_us = (finish * 1e6).ceil().min(u64::MAX as f64 / 4.0) as u64;
            Some((SimTime(now.0.saturating_add(delta_us)), id))
        }

        pub fn contains(&self, id: u64) -> bool {
            self.jobs.contains_key(&id)
        }

        pub fn active_ids(&self) -> Vec<u64> {
            self.jobs.keys().copied().collect()
        }

        pub fn active(&self) -> usize {
            self.jobs.len()
        }

        pub fn demand(&self) -> f64 {
            self.total_weight
        }

        pub fn reserved_demand(&self) -> f64 {
            self.reserved_weight
        }

        pub fn completed(&self) -> u64 {
            self.completed
        }

        pub fn demand_integral(&mut self, now: SimTime) -> f64 {
            self.advance(now);
            self.demand_integral
        }

        pub fn busy_integral(&mut self, now: SimTime) -> f64 {
            self.advance(now);
            self.busy_integral
        }
    }
}

/// One step of a ProcShare interleaving.
#[derive(Debug, Clone)]
enum PsOp {
    /// Move the clock forward (zero keeps several operations at one time).
    Advance(u64),
    /// Start a job; skipped when the id is already active.
    Start {
        id: u64,
        demand: f64,
        weight: f64,
        reserved: bool,
    },
    /// Remove an id, active or not.
    Remove(u64),
    NextCompletion,
    /// Jump to the next completion and remove the job it names, as a
    /// model's completion event does.
    Complete,
    DemandIntegral,
    BusyIntegral,
}

/// Demands with repeats and adjacent floats: a base value, often one of
/// a few shared ones, nudged up by zero to two ulps (`x`, `x.next_up()`,
/// `x.next_up().next_up()`). Jobs started at one instant then finish
/// within rounding of each other, which is where the smaller-id
/// tie-break decides.
fn arb_demand() -> impl Strategy<Value = f64> {
    let base = prop_oneof![
        0.0f64..3.0,
        0.0f64..3.0,
        Just(0.3),
        Just(1.0 / 3.0),
        Just(0.7),
        Just(1.0),
        Just(0.0),
        Just(1e9),
    ];
    (base, 0usize..3).prop_map(|(x, ulps)| (0..ulps).fold(x, |x, _| x.next_up()))
}

fn arb_start() -> impl Strategy<Value = PsOp> {
    // Heavy weights oversubscribe the capacity; heavy reserved ones starve
    // normal jobs down to the rate floor.
    let weight = prop_oneof![0.05f64..4.0, Just(1.0), Just(1.0), 8.0f64..32.0];
    (0u64..24, arb_demand(), weight, any::<bool>()).prop_map(|(id, demand, weight, reserved)| {
        PsOp::Start {
            id,
            demand,
            weight,
            reserved,
        }
    })
}

fn arb_ps_op() -> impl Strategy<Value = PsOp> {
    // Arms are repeated to weight them (the vendored proptest has no
    // weighted `prop_oneof`).
    prop_oneof![
        prop_oneof![0u64..400_000, Just(0u64)].prop_map(PsOp::Advance),
        arb_start(),
        arb_start(),
        (0u64..24).prop_map(PsOp::Remove),
        Just(PsOp::NextCompletion),
        Just(PsOp::Complete),
        Just(PsOp::Complete),
        Just(PsOp::DemandIntegral),
        Just(PsOp::BusyIntegral),
    ]
}

fn arb_discipline() -> impl Strategy<Value = Discipline> {
    let saturating = |(alpha, cap, devices)| Discipline::Saturating {
        alpha,
        cap,
        devices,
    };
    prop_oneof![
        (0.5f64..8.0).prop_map(|capacity| Discipline::ProcessorSharing { capacity }),
        Just(Discipline::ProcessorSharing { capacity: 1.0 }),
        // Oversubscribed: a fraction of one core, so every rate is below 1.
        (0.05f64..1.0).prop_map(|capacity| Discipline::ProcessorSharing { capacity }),
        (
            0.0f64..1.0,
            prop_oneof![Just(f64::INFINITY), 1.0f64..4.0],
            1u32..4
        )
            .prop_map(saturating),
        // Steep efficiency loss, or a ceiling so low that every rate sits
        // on the `MIN_RATE` floor.
        (
            1.0f64..4.0,
            prop_oneof![Just(f64::INFINITY), Just(1e-12)],
            1u32..3
        )
            .prop_map(saturating),
    ]
}

/// 512 cases unless `PROPTEST_CASES` sets the count (CI runs 2000).
fn reference_config() -> ProptestConfig {
    if std::env::var_os("PROPTEST_CASES").is_some() {
        ProptestConfig::default()
    } else {
        ProptestConfig::with_cases(512)
    }
}

/// Apply a `PsOp::Start` to the implementation under test.
fn start_new(ps: &mut ProcShare, now: SimTime, op: &PsOp) {
    if let PsOp::Start {
        id,
        demand,
        weight,
        reserved,
    } = *op
    {
        if reserved {
            ps.start_reserved(now, id, demand, weight);
        } else {
            ps.start(now, id, demand, weight);
        }
    }
}

/// Apply a `PsOp::Start` to the reference model.
fn start_ref(model: &mut RefProcShare, now: SimTime, op: &PsOp) {
    if let PsOp::Start {
        id,
        demand,
        weight,
        reserved,
    } = *op
    {
        let class = if reserved {
            JobClass::Reserved
        } else {
            JobClass::Normal
        };
        model.start(now, id, demand, weight, class);
    }
}

/// Replay `ops` on both implementations, failing on the first observable
/// difference. Returns the clock at the end.
fn replay(
    ps: &mut ProcShare,
    model: &mut RefProcShare,
    ops: &[PsOp],
) -> Result<SimTime, proptest::test_runner::TestCaseError> {
    let mut now = SimTime::ZERO;
    for (step, op) in ops.iter().enumerate() {
        match *op {
            PsOp::Advance(us) => now += SimTime::from_micros(us),
            PsOp::Start { id, .. } => {
                if !model.contains(id) {
                    start_new(ps, now, op);
                    start_ref(model, now, op);
                }
            }
            PsOp::Remove(id) => {
                prop_assert_eq!(ps.remove(now, id), model.remove(now, id), "step {}", step);
            }
            PsOp::NextCompletion => {
                prop_assert_eq!(
                    ps.next_completion(now),
                    model.next_completion(now),
                    "step {}",
                    step
                );
            }
            PsOp::Complete => {
                let got = ps.next_completion(now);
                prop_assert_eq!(got, model.next_completion(now), "step {}", step);
                // A starved job's horizon is far away; leave it running.
                if let Some((at, id)) = got.filter(|&(at, _)| at.0 < u64::MAX / 8) {
                    now = at;
                    prop_assert!(ps.remove(now, id) && model.remove(now, id));
                }
            }
            PsOp::DemandIntegral => {
                prop_assert_eq!(
                    ps.demand_integral(now).to_bits(),
                    model.demand_integral(now).to_bits(),
                    "step {}",
                    step
                );
            }
            PsOp::BusyIntegral => {
                prop_assert_eq!(
                    ps.busy_integral(now).to_bits(),
                    model.busy_integral(now).to_bits(),
                    "step {}",
                    step
                );
            }
        }
        prop_assert_eq!(ps.active(), model.active(), "step {}", step);
        prop_assert_eq!(ps.completed(), model.completed(), "step {}", step);
        prop_assert_eq!(ps.demand().to_bits(), model.demand().to_bits());
        prop_assert_eq!(
            ps.reserved_demand().to_bits(),
            model.reserved_demand().to_bits()
        );
    }
    Ok(now)
}

proptest! {
    #![proptest_config(reference_config())]

    /// The per-class lanes and their division-free completion scan are
    /// observably identical to the `BTreeMap` job table under random
    /// interleavings at non-decreasing times, for both disciplines,
    /// oversubscribed and starved ones included: same completion
    /// `(time, id)` (near-ties and cross-class ties included), same
    /// removals, same integrals to the bit.
    #[test]
    fn procshare_matches_the_reference_model(
        discipline in arb_discipline(),
        ops in prop::collection::vec(arb_ps_op(), 1..120)
    ) {
        let mut ps = ProcShare::new(discipline);
        let mut model = RefProcShare::new(discipline);
        let mut now = replay(&mut ps, &mut model, &ops)?;
        // Drain: every remaining completion agrees too.
        while let Some((at, id)) = model.next_completion(now) {
            prop_assert_eq!(ps.next_completion(now), Some((at, id)));
            if at.0 >= u64::MAX / 8 {
                break;
            }
            now = at;
            prop_assert!(ps.remove(now, id) && model.remove(now, id));
        }
        prop_assert_eq!(
            ps.demand_integral(now).to_bits(),
            model.demand_integral(now).to_bits()
        );
        prop_assert_eq!(
            ps.busy_integral(now).to_bits(),
            model.busy_integral(now).to_bits()
        );
    }
}

proptest! {
    #![proptest_config(reference_config())]

    /// Starting an id that is already active panics in both
    /// implementations, with the same message.
    #[test]
    fn procshare_duplicate_start_panics_like_the_reference(
        discipline in arb_discipline(),
        ops in prop::collection::vec(arb_ps_op(), 1..40),
        pick in 0usize..64,
        reserved in any::<bool>()
    ) {
        let mut ps = ProcShare::new(discipline);
        let mut model = RefProcShare::new(discipline);
        let now = replay(&mut ps, &mut model, &ops)?;
        let ids = model.active_ids();
        if ids.is_empty() {
            return Ok(());
        }
        let id = ids[pick % ids.len()];
        let start = PsOp::Start {
            id,
            demand: 1.0,
            weight: 1.0,
            reserved,
        };
        let message = |r: std::thread::Result<()>| {
            r.err().and_then(|p| p.downcast_ref::<String>().cloned())
        };
        let got = message(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            start_new(&mut ps, now, &start)
        })));
        let want = message(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            start_ref(&mut model, now, &start)
        })));
        prop_assert_eq!(got.clone(), Some(format!("job {id} already running")));
        prop_assert_eq!(got, want);
    }
}

// ---------------------------------------------------------------------------
// Event queue against a reference model
// ---------------------------------------------------------------------------

/// One step of an event-queue interleaving. Delays are small so that
/// events, heap and timer alike, often share an instant.
#[derive(Debug, Clone)]
enum QueueOp {
    /// Schedule a heap event `delay` µs after the clock.
    Schedule(u64),
    /// Arm timer `key` `delay` µs after the clock.
    SetTimer {
        key: usize,
        delay: u64,
    },
    ClearTimer(usize),
    /// Pop the earliest event and move the clock to it.
    Pop,
    /// `pop_until` a horizon `delay` µs after the clock: the earliest
    /// event and the clock move only if it fires by then.
    PopUntil(u64),
}

fn arb_delay() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0u64), 0u64..4, 0u64..40]
}

fn arb_queue_op() -> impl Strategy<Value = QueueOp> {
    let set_timer =
        || (0usize..3, arb_delay()).prop_map(|(key, delay)| QueueOp::SetTimer { key, delay });
    prop_oneof![
        arb_delay().prop_map(QueueOp::Schedule),
        arb_delay().prop_map(QueueOp::Schedule),
        set_timer(),
        set_timer(),
        (0usize..3).prop_map(QueueOp::ClearTimer),
        Just(QueueOp::Pop),
        Just(QueueOp::Pop),
        Just(QueueOp::Pop),
        arb_delay().prop_map(QueueOp::PopUntil),
        arb_delay().prop_map(QueueOp::PopUntil),
    ]
}

/// The event queue written as plainly as possible: a flat list of
/// pending `(at, seq, payload)` entries, scanned for the minimum
/// `(at, seq)` on every pop. A timer is one keyed entry, removed when
/// re-armed or cleared; heap events and timers draw `seq` from one
/// counter.
#[derive(Default)]
struct RefQueue {
    pending: Vec<(SimTime, u64, u64)>,
    timers: [Option<u64>; 3],
    next_seq: u64,
}

impl RefQueue {
    fn push(&mut self, at: SimTime, payload: u64) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending.push((at, seq, payload));
        seq
    }

    fn schedule(&mut self, at: SimTime, payload: u64) {
        self.push(at, payload);
    }

    fn set_timer(&mut self, key: usize, at: SimTime, payload: u64) {
        self.clear_timer(key);
        self.timers[key] = Some(self.push(at, payload));
    }

    fn clear_timer(&mut self, key: usize) {
        if let Some(seq) = self.timers[key].take() {
            self.pending.retain(|&(_, s, _)| s != seq);
        }
    }

    fn earliest(&self) -> Option<usize> {
        (0..self.pending.len()).min_by_key(|&i| (self.pending[i].0, self.pending[i].1))
    }

    fn pop(&mut self) -> Option<(SimTime, u64)> {
        let (at, seq, payload) = self.pending.swap_remove(self.earliest()?);
        for timer in &mut self.timers {
            if *timer == Some(seq) {
                *timer = None;
            }
        }
        Some((at, payload))
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.earliest().map(|i| self.pending[i].0)
    }

    fn pop_until(&mut self, horizon: SimTime) -> Option<(SimTime, u64)> {
        if self.peek_time()? <= horizon {
            self.pop()
        } else {
            None
        }
    }
}

proptest! {
    #![proptest_config(reference_config())]

    /// The queue is observably the reference model: random interleavings
    /// of schedules, timer arms and clears, pops and horizon-bounded pops
    /// at non-decreasing times pop the same `(time, payload)` sequence,
    /// same-instant ties between timers and heap events included, with
    /// the same `len()` and `peek_time()` after every step. Horizons are
    /// as small as the delays, so a horizon often lands on an instant
    /// that holds both a timer and a heap event, and the seq order
    /// decides which of them a bounded pop takes first.
    #[test]
    fn queue_matches_the_reference_model(
        ops in prop::collection::vec(arb_queue_op(), 1..160)
    ) {
        let mut q = EventQueue::new();
        let mut model = RefQueue::default();
        let mut now = SimTime::ZERO;
        for (step, op) in ops.iter().enumerate() {
            let payload = step as u64;
            match *op {
                QueueOp::Schedule(delay) => {
                    let at = now + SimTime::from_micros(delay);
                    q.schedule(at, payload);
                    model.schedule(at, payload);
                }
                QueueOp::SetTimer { key, delay } => {
                    let at = now + SimTime::from_micros(delay);
                    q.set_timer(key, at, payload);
                    model.set_timer(key, at, payload);
                }
                QueueOp::ClearTimer(key) => {
                    q.clear_timer(key);
                    model.clear_timer(key);
                }
                QueueOp::Pop => {
                    let got = q.pop();
                    prop_assert_eq!(got, model.pop(), "step {}", step);
                    if let Some((at, _)) = got {
                        prop_assert!(at >= now, "step {}: time ran backwards", step);
                        now = at;
                    }
                }
                QueueOp::PopUntil(delay) => {
                    let horizon = now + SimTime::from_micros(delay);
                    let got = q.pop_until(horizon);
                    prop_assert_eq!(got, model.pop_until(horizon), "step {}", step);
                    if let Some((at, _)) = got {
                        prop_assert!(at >= now && at <= horizon, "step {}: {:?}", step, at);
                        now = at;
                    }
                }
            }
            prop_assert_eq!(q.len(), model.pending.len(), "step {}", step);
            prop_assert_eq!(q.is_empty(), model.pending.is_empty(), "step {}", step);
            prop_assert_eq!(q.peek_time(), model.peek_time(), "step {}", step);
        }
        // Drain: the rest of the order agrees too.
        loop {
            let got = q.pop();
            prop_assert_eq!(got, model.pop());
            prop_assert_eq!(q.len(), model.pending.len());
            if got.is_none() {
                break;
            }
        }
    }
}
