//! Reusable resource primitives for queueing models.
//!
//! * [`Tokens`] — a counting semaphore with FIFO waiters. Models a thread
//!   pool: `try_acquire` either grants a thread or queues the requester, and
//!   `release` hands the freed thread to the next waiter.
//! * [`ProcShare`] — a shared server where all active jobs progress
//!   concurrently. Two disciplines are provided:
//!   [`Discipline::ProcessorSharing`] (a multi-core CPU: jobs run at full
//!   speed until the summed core demand exceeds capacity, then everybody
//!   slows down uniformly) and [`Discipline::Saturating`] (a GPU: adding
//!   concurrency increases throughput sub-linearly; an individual inference
//!   never gets *faster* with more concurrency).
//!
//! Both resources integrate time-weighted statistics so monitors can sample
//! utilization over windows without instrumenting every state change.

use crate::time::SimTime;
use std::collections::VecDeque;

/// Opaque identifier chosen by the caller (e.g. a request id).
pub type JobId = u64;

/// Counting semaphore with FIFO waiters and busy-time accounting.
#[derive(Debug, Clone)]
pub struct Tokens {
    capacity: usize,
    busy: usize,
    waiters: VecDeque<JobId>,
    last_update: SimTime,
    /// Integral of `busy` over time, in thread-seconds.
    busy_integral: f64,
}

impl Tokens {
    /// A pool with `capacity` tokens, all free.
    pub fn new(capacity: usize) -> Self {
        Tokens {
            capacity,
            busy: 0,
            waiters: VecDeque::new(),
            last_update: SimTime::ZERO,
            busy_integral: 0.0,
        }
    }

    fn advance(&mut self, now: SimTime) {
        debug_assert!(now >= self.last_update, "time went backwards");
        let dt = (now - self.last_update).as_secs_f64();
        self.busy_integral += self.busy as f64 * dt;
        self.last_update = now;
    }

    /// Try to take a token for `id`. Returns `true` if granted immediately;
    /// otherwise `id` joins the FIFO queue and will be returned by a future
    /// [`Tokens::release`].
    pub fn try_acquire(&mut self, now: SimTime, id: JobId) -> bool {
        self.advance(now);
        if self.busy < self.capacity {
            self.busy += 1;
            true
        } else {
            self.waiters.push_back(id);
            false
        }
    }

    /// Release one token. If somebody is waiting, the token transfers
    /// directly to the head waiter, whose id is returned (the pool stays
    /// just as busy). Otherwise the token becomes free.
    pub fn release(&mut self, now: SimTime) -> Option<JobId> {
        self.advance(now);
        assert!(self.busy > 0, "release on an idle pool");
        if let Some(next) = self.waiters.pop_front() {
            Some(next)
        } else {
            self.busy -= 1;
            None
        }
    }

    /// Remove `id` from the wait queue (e.g. the requester timed out or was
    /// cancelled). Returns `true` if it was queued.
    pub fn cancel_wait(&mut self, now: SimTime, id: JobId) -> bool {
        self.advance(now);
        if let Some(pos) = self.waiters.iter().position(|&w| w == id) {
            self.waiters.remove(pos);
            true
        } else {
            false
        }
    }

    /// Number of tokens currently held.
    pub fn busy(&self) -> usize {
        self.busy
    }

    /// Pool size.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of queued waiters.
    pub fn queue_len(&self) -> usize {
        self.waiters.len()
    }

    /// Cumulative busy thread-seconds up to `now`.
    pub fn busy_integral(&mut self, now: SimTime) -> f64 {
        self.advance(now);
        self.busy_integral
    }

    /// Mean fraction of the pool in use since time zero.
    pub fn utilization(&mut self, now: SimTime) -> f64 {
        if self.capacity == 0 || now == SimTime::ZERO {
            return 0.0;
        }
        self.busy_integral(now) / (self.capacity as f64 * now.as_secs_f64())
    }
}

/// How a [`ProcShare`] divides progress among its active jobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Discipline {
    /// A pool of `capacity` cores. Each job asks for `weight` cores. While
    /// the total demand fits, every job progresses at full speed; when
    /// oversubscribed, [`JobClass::Reserved`] jobs are served first (they
    /// model latency-critical runtime threads that always win the
    /// scheduler, e.g. the GPU-feeding threads of an inference server) and
    /// [`JobClass::Normal`] jobs share whatever capacity remains.
    ProcessorSharing { capacity: f64 },
    /// Concurrency-dependent efficiency typical of GPU inference: with `n`
    /// concurrent jobs each progresses at
    /// `min(1 / (1 + alpha·(n−1)), cap / n)` — aggregate throughput
    /// `n / (1 + alpha (n−1))` grows sub-linearly and is hard-limited at
    /// `cap` job-equivalents (kernel-parallelism ceiling of the device).
    Saturating {
        /// Per-extra-job efficiency loss (per device).
        alpha: f64,
        /// Maximum effective parallelism in job units per device
        /// (`f64::INFINITY` disables the ceiling).
        cap: f64,
        /// Number of identical devices the jobs round-robin over: with
        /// `d` devices, `n` concurrent jobs behave like `ceil(n/d)` jobs
        /// per device and the ceiling scales to `d·cap`.
        devices: u32,
    },
}

/// Scheduling class of a [`ProcShare`] job (only meaningful under
/// [`Discipline::ProcessorSharing`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobClass {
    /// Shares the capacity left over by reserved jobs.
    Normal,
    /// Always served at full rate while reserved demand fits the capacity.
    Reserved,
}

/// Progress floor preventing a starved Normal job from never completing
/// (its completion would otherwise schedule at `SimTime::MAX`).
const MIN_RATE: f64 = 1e-9;

impl Discipline {
    /// Per-unit-weight progress rate for a class, given the current
    /// population split.
    fn rate(
        &self,
        class: JobClass,
        reserved_weight: f64,
        normal_weight: f64,
        n_jobs: usize,
    ) -> f64 {
        match *self {
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
                    let d = devices as f64;
                    let per_device = (n_jobs as f64 / d).ceil();
                    let eff = 1.0 / (1.0 + alpha * (per_device - 1.0));
                    eff.min(d * cap / n_jobs as f64).max(MIN_RATE)
                }
            }
        }
    }
}

/// One class's active jobs as parallel arrays, sorted by id. Passes walk
/// them in id order, so the float updates and the smaller-id tie-break
/// never depend on insertion order or hash state (detlint DET001/DET005).
/// Job ids mostly arrive in increasing order, so an insert lands at or
/// near the end.
#[derive(Debug, Clone, Default)]
struct Lane {
    ids: Vec<JobId>,
    /// Seconds of work left at full speed.
    remaining: Vec<f64>,
    /// Cores-equivalent demand (1.0 = one core).
    weight: Vec<f64>,
}

impl Lane {
    fn len(&self) -> usize {
        self.ids.len()
    }

    fn insert(&mut self, pos: usize, id: JobId, demand: f64, weight: f64) {
        self.ids.insert(pos, id);
        self.remaining.insert(pos, demand);
        self.weight.insert(pos, weight);
    }

    /// Remove job `id` if it is in this lane; returns its weight.
    fn remove(&mut self, id: JobId) -> Option<f64> {
        let pos = self.ids.binary_search(&id).ok()?;
        self.ids.remove(pos);
        self.remaining.remove(pos);
        Some(self.weight.remove(pos))
    }

    /// Progress every job by `dt` seconds at `rate`: one
    /// multiply-subtract-max per element, with no branch. Rust never
    /// contracts `r - rate * dt` into an FMA, so the bits are those of the
    /// per-job update.
    fn advance(&mut self, rate: f64, dt: f64) {
        for r in &mut self.remaining {
            *r = (*r - rate * dt).max(0.0);
        }
    }

    /// The lexicographic minimum of `(remaining / rate, id)` over the
    /// lane, or `None` when it is empty.
    ///
    /// Division by a positive constant rounds monotonically, so the
    /// smallest `remaining` gives the smallest finish: one division
    /// instead of one per job. The minimum is taken in four running
    /// minima (`if r < m { r } else { m }` is exactly a vector `min`); with
    /// no NaN in the lane, the order of the comparisons can change at most
    /// the sign of a zero minimum, which finishes at the same time. A job with a smaller id still wins the tie if
    /// its own quotient rounds to the same `best`; its exact quotient lies
    /// below `best.next_up()`, so its `remaining` is at most
    /// `best.next_up() * rate` (rounding is monotone again), and only
    /// those jobs are divided to confirm. Validated disciplines keep every
    /// rate in `(0, 1]`; any other rate falls back to one division per
    /// job.
    fn earliest(&self, rate: f64) -> Option<(f64, JobId)> {
        if !(rate > 0.0 && rate <= 1.0) {
            return self.earliest_by_division(rate);
        }
        let first = *self.remaining.first()?;
        let mut mins = [first; 4];
        let chunks = self.remaining.chunks_exact(4);
        let tail = chunks.remainder();
        for chunk in chunks {
            for (m, &r) in mins.iter_mut().zip(chunk) {
                *m = if r < *m { r } else { *m };
            }
        }
        let min = mins
            .iter()
            .chain(tail)
            .fold(first, |m, &r| if r < m { r } else { m });
        let best = min / rate;
        let limit = best.next_up() * rate;
        // The first job in id order whose quotient is `best`; the job
        // holding the minimum always qualifies.
        let i = self
            .remaining
            .iter()
            .position(|&r| r <= limit && r / rate == best)
            .expect("the job holding the minimum qualifies");
        Some((best, self.ids[i]))
    }

    /// [`Lane::earliest`] by dividing every job's `remaining`.
    fn earliest_by_division(&self, rate: f64) -> Option<(f64, JobId)> {
        let mut best: Option<(f64, JobId)> = None;
        for (&id, &r) in self.ids.iter().zip(&self.remaining) {
            let finish = r / rate;
            best = match best {
                Some(b) => Some(earlier(b, (finish, id))),
                None => Some((finish, id)),
            };
        }
        best
    }
}

/// The earlier of two `(finish, id)` candidates; ties go to the smaller
/// id, and `a` wins anything the comparison cannot order.
fn earlier(a: (f64, JobId), b: (f64, JobId)) -> (f64, JobId) {
    if b.0 < a.0 || (b.0 == a.0 && b.1 < a.1) {
        b
    } else {
        a
    }
}

/// A shared server processing all active jobs concurrently.
///
/// The owning model is responsible for scheduling the completion event:
/// once per handled event, after that event's last membership change,
/// call [`ProcShare::next_completion`], cancel the previously scheduled
/// completion and schedule the new one. Every call is an O(n) scan, and
/// a completion computed before a later change in the same event would
/// only be cancelled again.
#[derive(Debug, Clone)]
pub struct ProcShare {
    discipline: Discipline,
    /// Active jobs, one lane per [`JobClass`]: each class progresses at
    /// one rate, so a pass over a lane needs no per-job class match.
    normal: Lane,
    reserved: Lane,
    total_weight: f64,
    reserved_weight: f64,
    last_update: SimTime,
    /// Integral of ∑weight over time (demand-seconds).
    demand_integral: f64,
    /// Integral of time with ≥1 active job (busy seconds).
    busy_integral: f64,
    completed: u64,
}

impl ProcShare {
    /// New empty server with the given sharing discipline.
    ///
    /// Panics, naming the field, on a discipline it cannot serve: a
    /// `capacity` that is not finite and positive, an `alpha` that is not
    /// finite and non-negative, a `cap` that is NaN or not positive, or
    /// zero `devices`. Valid parameters keep every progress rate in
    /// `[MIN_RATE, 1]` for normal jobs and in `(0, 1]` for reserved ones.
    pub fn new(discipline: Discipline) -> Self {
        match discipline {
            Discipline::ProcessorSharing { capacity } => assert!(
                capacity.is_finite() && capacity > 0.0,
                "processor-sharing capacity must be finite and positive, got {capacity}"
            ),
            Discipline::Saturating {
                alpha,
                cap,
                devices,
            } => {
                assert!(
                    alpha.is_finite() && alpha >= 0.0,
                    "saturating alpha must be finite and non-negative, got {alpha}"
                );
                assert!(cap > 0.0, "saturating cap must be positive, got {cap}");
                assert!(devices > 0, "saturating devices must be at least 1");
            }
        }
        ProcShare {
            discipline,
            normal: Lane::default(),
            reserved: Lane::default(),
            total_weight: 0.0,
            reserved_weight: 0.0,
            last_update: SimTime::ZERO,
            demand_integral: 0.0,
            busy_integral: 0.0,
            completed: 0,
        }
    }

    /// Convenience: a processor-sharing server with `cores` capacity.
    pub fn cores(cores: f64) -> Self {
        ProcShare::new(Discipline::ProcessorSharing { capacity: cores })
    }

    fn rate_of(&self, class: JobClass) -> f64 {
        self.discipline.rate(
            class,
            self.reserved_weight,
            self.total_weight - self.reserved_weight,
            self.active(),
        )
    }

    /// Progress all jobs to `now`.
    fn advance(&mut self, now: SimTime) {
        debug_assert!(now >= self.last_update, "time went backwards");
        let dt = (now - self.last_update).as_secs_f64();
        if dt > 0.0 {
            if self.active() > 0 {
                let r_normal = self.rate_of(JobClass::Normal);
                let r_reserved = self.rate_of(JobClass::Reserved);
                self.normal.advance(r_normal, dt);
                self.reserved.advance(r_reserved, dt);
                self.busy_integral += dt;
            }
            self.demand_integral += self.total_weight * dt;
        }
        self.last_update = now;
    }

    /// Begin a [`JobClass::Normal`] job with `demand` seconds of full-speed
    /// work and the given core weight. Panics if `id` is already active.
    pub fn start(&mut self, now: SimTime, id: JobId, demand: f64, weight: f64) {
        self.start_class(now, id, demand, weight, JobClass::Normal);
    }

    /// Begin a [`JobClass::Reserved`] job: it always progresses at full
    /// speed (as long as reserved demand fits the capacity), squeezing
    /// Normal jobs.
    pub fn start_reserved(&mut self, now: SimTime, id: JobId, demand: f64, weight: f64) {
        self.start_class(now, id, demand, weight, JobClass::Reserved);
    }

    fn start_class(&mut self, now: SimTime, id: JobId, demand: f64, weight: f64, class: JobClass) {
        self.advance(now);
        assert!(demand >= 0.0, "bad job parameters: demand {demand}");
        // An infinite weight would turn `total_weight` into NaN once the
        // job is removed (inf - inf), poisoning every later rate.
        assert!(
            weight > 0.0 && weight.is_finite(),
            "bad job parameters: weight {weight} must be finite and positive"
        );
        let (lane, other) = match class {
            JobClass::Normal => (&mut self.normal, &self.reserved),
            JobClass::Reserved => (&mut self.reserved, &self.normal),
        };
        let pos = match lane.ids.binary_search(&id) {
            Err(pos) if other.ids.binary_search(&id).is_err() => pos,
            _ => panic!("job {id} already running"),
        };
        lane.insert(pos, id, demand, weight);
        self.total_weight += weight;
        if class == JobClass::Reserved {
            self.reserved_weight += weight;
        }
    }

    /// Remove a job (normally on its completion event). Returns `true` if
    /// the job existed.
    pub fn remove(&mut self, now: SimTime, id: JobId) -> bool {
        self.advance(now);
        let weight = if let Some(weight) = self.normal.remove(id) {
            weight
        } else if let Some(weight) = self.reserved.remove(id) {
            self.reserved_weight -= weight;
            if self.reserved_weight < 1e-12 {
                self.reserved_weight = 0.0;
            }
            weight
        } else {
            return false;
        };
        self.total_weight -= weight;
        if self.total_weight < 1e-12 {
            self.total_weight = 0.0;
        }
        self.completed += 1;
        true
    }

    /// The earliest `(time, id)` at which some job finishes, given the
    /// current population, or `None` when idle. Ties break on the smaller
    /// id for determinism. The returned time is rounded up to the next
    /// microsecond so the work is fully done when the event fires.
    pub fn next_completion(&mut self, now: SimTime) -> Option<(SimTime, JobId)> {
        self.advance(now);
        let normal = self.normal.earliest(self.rate_of(JobClass::Normal));
        let reserved = self.reserved.earliest(self.rate_of(JobClass::Reserved));
        let (finish, id) = match (normal, reserved) {
            (Some(n), Some(r)) => earlier(n, r),
            (one, other) => one.or(other)?,
        };
        // Guard against the starved-job horizon overflowing SimTime.
        let delta_us = (finish * 1e6).ceil().min(u64::MAX as f64 / 4.0) as u64;
        let at = SimTime(now.0.saturating_add(delta_us));
        Some((at, id))
    }

    /// Currently reserved (priority) weight.
    pub fn reserved_demand(&self) -> f64 {
        self.reserved_weight
    }

    /// Number of active jobs.
    pub fn active(&self) -> usize {
        self.normal.len() + self.reserved.len()
    }

    /// Current total weight (cores-equivalents demanded).
    pub fn demand(&self) -> f64 {
        self.total_weight
    }

    /// Jobs completed so far.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Cumulative demand-seconds (∑weight · dt) up to `now`.
    pub fn demand_integral(&mut self, now: SimTime) -> f64 {
        self.advance(now);
        self.demand_integral
    }

    /// Cumulative seconds with at least one active job, up to `now`.
    pub fn busy_integral(&mut self, now: SimTime) -> f64 {
        self.advance(now);
        self.busy_integral
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    // ---- Tokens ----

    #[test]
    fn tokens_grant_until_full_then_queue_fifo() {
        let mut p = Tokens::new(2);
        assert!(p.try_acquire(t(0.0), 1));
        assert!(p.try_acquire(t(0.0), 2));
        assert!(!p.try_acquire(t(0.0), 3));
        assert!(!p.try_acquire(t(0.0), 4));
        assert_eq!(p.busy(), 2);
        assert_eq!(p.queue_len(), 2);
        assert_eq!(p.release(t(1.0)), Some(3));
        assert_eq!(p.release(t(2.0)), Some(4));
        assert_eq!(p.release(t(3.0)), None);
        assert_eq!(p.busy(), 1);
    }

    #[test]
    fn tokens_busy_integral() {
        let mut p = Tokens::new(4);
        p.try_acquire(t(0.0), 1);
        p.try_acquire(t(0.0), 2);
        // 2 busy threads for 5 seconds = 10 thread-seconds.
        assert!((p.busy_integral(t(5.0)) - 10.0).abs() < 1e-9);
        // utilization = 10 / (4 * 5) = 0.5
        assert!((p.utilization(t(5.0)) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn tokens_cancel_wait() {
        let mut p = Tokens::new(1);
        p.try_acquire(t(0.0), 1);
        p.try_acquire(t(0.0), 2);
        p.try_acquire(t(0.0), 3);
        assert!(p.cancel_wait(t(1.0), 2));
        assert!(!p.cancel_wait(t(1.0), 2));
        assert_eq!(p.release(t(2.0)), Some(3));
    }

    #[test]
    #[should_panic(expected = "release on an idle pool")]
    fn tokens_release_idle_panics() {
        let mut p = Tokens::new(1);
        p.release(t(0.0));
    }

    // ---- ProcShare: processor sharing ----

    #[test]
    fn ps_single_job_runs_at_full_speed() {
        let mut ps = ProcShare::cores(4.0);
        ps.start(t(0.0), 1, 2.0, 1.0);
        let (at, id) = ps.next_completion(t(0.0)).unwrap();
        assert_eq!(id, 1);
        assert_eq!(at, t(2.0));
    }

    #[test]
    fn ps_undersubscribed_jobs_do_not_interfere() {
        let mut ps = ProcShare::cores(4.0);
        ps.start(t(0.0), 1, 2.0, 1.0);
        ps.start(t(0.0), 2, 3.0, 1.0);
        let (at, id) = ps.next_completion(t(0.0)).unwrap();
        assert_eq!((at, id), (t(2.0), 1));
        ps.remove(t(2.0), 1);
        let (at, id) = ps.next_completion(t(2.0)).unwrap();
        assert_eq!((at, id), (t(3.0), 2));
    }

    #[test]
    fn ps_oversubscription_slows_everyone() {
        // 1 core, two jobs of 1s each => processor sharing finishes both at 2s.
        let mut ps = ProcShare::cores(1.0);
        ps.start(t(0.0), 1, 1.0, 1.0);
        ps.start(t(0.0), 2, 1.0, 1.0);
        let (at, id) = ps.next_completion(t(0.0)).unwrap();
        assert_eq!(id, 1); // tie breaks to smaller id
        assert_eq!(at, t(2.0));
        ps.remove(t(2.0), 1);
        // Job 2 also has zero remaining at t=2.
        let (at2, id2) = ps.next_completion(t(2.0)).unwrap();
        assert_eq!((at2, id2), (t(2.0), 2));
    }

    #[test]
    fn ps_rate_changes_mid_flight() {
        // 1 core. Job A (2s) alone for 1s (does 1s of work), then job B
        // arrives: both at rate 0.5. A needs 2 more wall seconds.
        let mut ps = ProcShare::cores(1.0);
        ps.start(t(0.0), 1, 2.0, 1.0);
        ps.start(t(1.0), 2, 1.0, 1.0);
        let (at, id) = ps.next_completion(t(1.0)).unwrap();
        assert_eq!(id, 1);
        assert_eq!(at, t(3.0));
        ps.remove(t(3.0), 1);
        // B did 1s of its work at rate .5 over [1,3]; 0 remaining? B had 1s
        // demand, progressed 2s * 0.5 = 1s. Done at t=3 as well.
        let (at2, id2) = ps.next_completion(t(3.0)).unwrap();
        assert_eq!((at2, id2), (t(3.0), 2));
    }

    #[test]
    fn ps_weights_count_as_cores() {
        // 4 cores, one job weighing 8 => rate 0.5, 1s of work takes 2s.
        let mut ps = ProcShare::cores(4.0);
        ps.start(t(0.0), 1, 1.0, 8.0);
        let (at, _) = ps.next_completion(t(0.0)).unwrap();
        assert_eq!(at, t(2.0));
    }

    #[test]
    fn ps_demand_integral_accumulates() {
        let mut ps = ProcShare::cores(10.0);
        ps.start(t(0.0), 1, 100.0, 2.0);
        ps.start(t(0.0), 2, 100.0, 3.0);
        assert!((ps.demand_integral(t(4.0)) - 20.0).abs() < 1e-9);
        assert!((ps.busy_integral(t(4.0)) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn ps_remove_unknown_returns_false() {
        let mut ps = ProcShare::cores(1.0);
        assert!(!ps.remove(t(0.0), 99));
    }

    #[test]
    #[should_panic(expected = "already running")]
    fn ps_duplicate_start_panics() {
        let mut ps = ProcShare::cores(1.0);
        ps.start(t(0.0), 1, 1.0, 1.0);
        ps.start(t(0.0), 1, 1.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "must be finite and positive")]
    fn ps_infinite_weight_panics() {
        let mut ps = ProcShare::cores(1.0);
        ps.start(t(0.0), 1, 1.0, f64::INFINITY);
    }

    // ---- ProcShare: saturating (GPU) ----

    #[test]
    fn saturating_single_job_full_speed() {
        let mut gpu = ProcShare::new(Discipline::Saturating {
            alpha: 0.3,
            cap: f64::INFINITY,
            devices: 1,
        });
        gpu.start(t(0.0), 1, 0.5, 1.0);
        let (at, _) = gpu.next_completion(t(0.0)).unwrap();
        assert_eq!(at, t(0.5));
    }

    #[test]
    fn saturating_concurrency_slows_individuals_but_raises_throughput() {
        let alpha = 0.5;
        // n jobs of 1s each, started together: each runs at 1/(1+alpha(n-1)).
        for n in 2..6u64 {
            let mut gpu = ProcShare::new(Discipline::Saturating {
                alpha,
                cap: f64::INFINITY,
                devices: 1,
            });
            for id in 0..n {
                gpu.start(t(0.0), id, 1.0, 1.0);
            }
            let (at, _) = gpu.next_completion(t(0.0)).unwrap();
            let expect = 1.0 + alpha * (n as f64 - 1.0);
            assert!(
                (at.as_secs_f64() - expect).abs() < 1e-5,
                "n={n}: {at} vs {expect}"
            );
            // Throughput n/expect must increase with n (sub-linear growth).
            if n > 2 {
                let prev = (n - 1) as f64 / (1.0 + alpha * (n as f64 - 2.0));
                assert!(n as f64 / expect > prev);
            }
        }
    }

    #[test]
    fn saturating_devices_split_the_population() {
        // 4 jobs on 2 devices behave like 2 jobs per device: each runs at
        // 1/(1+alpha) instead of 1/(1+3 alpha).
        let alpha = 0.5;
        let mut one = ProcShare::new(Discipline::Saturating {
            alpha,
            cap: f64::INFINITY,
            devices: 1,
        });
        let mut two = ProcShare::new(Discipline::Saturating {
            alpha,
            cap: f64::INFINITY,
            devices: 2,
        });
        for id in 0..4 {
            one.start(t(0.0), id, 1.0, 1.0);
            two.start(t(0.0), id, 1.0, 1.0);
        }
        let (at1, _) = one.next_completion(t(0.0)).unwrap();
        let (at2, _) = two.next_completion(t(0.0)).unwrap();
        assert!((at1.as_secs_f64() - 2.5).abs() < 1e-5, "{at1}");
        assert!((at2.as_secs_f64() - 1.5).abs() < 1e-5, "{at2}");
        // The per-device cap scales with devices.
        let mut capped = ProcShare::new(Discipline::Saturating {
            alpha: 0.0,
            cap: 1.0,
            devices: 2,
        });
        for id in 0..4 {
            capped.start(t(0.0), id, 1.0, 1.0);
        }
        // 4 jobs on total cap 2: each at rate 0.5 -> done at 2s.
        let (at, _) = capped.next_completion(t(0.0)).unwrap();
        assert!((at.as_secs_f64() - 2.0).abs() < 1e-5, "{at}");
    }

    // ---- ProcShare: discipline validation ----

    /// The panic message `ProcShare::new` gives for `discipline`.
    fn rejection(discipline: Discipline) -> String {
        let err = std::panic::catch_unwind(|| ProcShare::new(discipline))
            .expect_err("discipline accepted");
        match err.downcast_ref::<&str>() {
            Some(msg) => msg.to_string(),
            None => err.downcast_ref::<String>().cloned().unwrap_or_default(),
        }
    }

    fn gpu(alpha: f64, cap: f64, devices: u32) -> Discipline {
        Discipline::Saturating {
            alpha,
            cap,
            devices,
        }
    }

    #[test]
    fn rejects_a_capacity_that_is_not_finite_and_positive() {
        for capacity in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let msg = rejection(Discipline::ProcessorSharing { capacity });
            assert!(msg.contains("capacity"), "{capacity}: {msg}");
        }
    }

    #[test]
    fn rejects_an_alpha_that_is_negative_or_not_finite() {
        for alpha in [-0.1, f64::NAN, f64::INFINITY] {
            let msg = rejection(gpu(alpha, 2.0, 1));
            assert!(msg.contains("alpha"), "{alpha}: {msg}");
        }
    }

    #[test]
    fn rejects_a_cap_that_is_nan_or_not_positive() {
        for cap in [f64::NAN, 0.0, -2.0] {
            let msg = rejection(gpu(0.3, cap, 1));
            assert!(msg.contains("cap"), "{cap}: {msg}");
        }
    }

    #[test]
    fn rejects_zero_devices() {
        assert!(rejection(gpu(0.3, f64::INFINITY, 0)).contains("devices"));
    }

    #[test]
    fn accepts_the_boundary_parameters() {
        ProcShare::new(gpu(0.0, f64::INFINITY, 1));
        ProcShare::new(gpu(0.0, f64::MIN_POSITIVE, u32::MAX));
        ProcShare::cores(f64::MIN_POSITIVE);
    }

    // ---- ProcShare: the division-free lane scan ----

    /// Near-tied demands at rates a validated discipline produces and at
    /// ones it never does: the lane scan always equals dividing every job.
    #[test]
    fn lane_scan_matches_per_job_division_at_any_rate() {
        let x = 0.3_f64;
        let demands = [
            1.0,
            x.next_up().next_up(),
            x.next_up(),
            x,
            x.next_up(),
            2.0_f64.next_down(),
            2.0,
            0.0,
            f64::MIN_POSITIVE / 4.0,
        ];
        let rates = [
            1.0,
            1.0_f64.next_down(),
            0.7,
            1.0 / 3.0,
            MIN_RATE,
            1.5,
            3.0_f64.next_up(),
            1e300,
            0.0,
            f64::NAN,
        ];
        for len in 1..=demands.len() {
            for skip in 0..len {
                let mut lane = Lane::default();
                for (i, &d) in demands[skip..len].iter().enumerate() {
                    lane.insert(i, 10 * i as JobId, d, 1.0);
                }
                for &rate in &rates {
                    let bits = |r: Option<(f64, JobId)>| r.map(|(f, id)| (f.to_bits(), id));
                    assert_eq!(
                        bits(lane.earliest(rate)),
                        bits(lane.earliest_by_division(rate)),
                        "rate {rate}, demands {:?}",
                        &demands[skip..len]
                    );
                }
            }
        }
    }

    #[test]
    fn completion_time_rounds_up() {
        let mut ps = ProcShare::cores(1.0);
        // 1/3 second of work does not divide evenly into microseconds.
        ps.start(t(0.0), 1, 1.0 / 3.0, 1.0);
        let (at, _) = ps.next_completion(t(0.0)).unwrap();
        assert!(at.as_micros() >= 333_333);
        assert!(at.as_micros() <= 333_334);
    }
}
