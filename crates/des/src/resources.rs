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
    /// Integral of queue length over time, in waiter-seconds.
    queue_integral: f64,
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
            queue_integral: 0.0,
        }
    }

    fn advance(&mut self, now: SimTime) {
        debug_assert!(now >= self.last_update, "time went backwards");
        let dt = (now - self.last_update).as_secs_f64();
        self.busy_integral += self.busy as f64 * dt;
        self.queue_integral += self.waiters.len() as f64 * dt;
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

    /// Cumulative waiter-seconds up to `now`.
    pub fn queue_integral(&mut self, now: SimTime) -> f64 {
        self.advance(now);
        self.queue_integral
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
                    let d = devices.max(1) as f64;
                    let per_device = (n_jobs as f64 / d).ceil();
                    let eff = 1.0 / (1.0 + alpha * (per_device - 1.0));
                    eff.min(d * cap / n_jobs as f64).max(MIN_RATE)
                }
            }
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Job {
    /// Seconds of work left at full speed.
    remaining: f64,
    /// Cores-equivalent demand (1.0 = one core).
    weight: f64,
    /// Scheduling class.
    class: JobClass,
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
    /// Active jobs, sorted by id. `advance()` and `next_completion` walk
    /// them in id order, so the float updates and the smaller-id
    /// tie-break never depend on insertion order or hash state (detlint
    /// DET001/DET005). Job ids mostly arrive in increasing order, so an
    /// insert lands at or near the end.
    jobs: Vec<(JobId, Job)>,
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
    pub fn new(discipline: Discipline) -> Self {
        ProcShare {
            discipline,
            jobs: Vec::new(),
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
            self.jobs.len(),
        )
    }

    /// Progress all jobs to `now`.
    fn advance(&mut self, now: SimTime) {
        debug_assert!(now >= self.last_update, "time went backwards");
        let dt = (now - self.last_update).as_secs_f64();
        if dt > 0.0 {
            if !self.jobs.is_empty() {
                let r_normal = self.rate_of(JobClass::Normal);
                let r_reserved = self.rate_of(JobClass::Reserved);
                for (_, job) in &mut self.jobs {
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
        assert!(demand >= 0.0 && weight > 0.0, "bad job parameters");
        let pos = match self.jobs.binary_search_by_key(&id, |&(j, _)| j) {
            Ok(_) => panic!("job {id} already running"),
            Err(pos) => pos,
        };
        let job = Job {
            remaining: demand,
            weight,
            class,
        };
        self.jobs.insert(pos, (id, job));
        self.total_weight += weight;
        if class == JobClass::Reserved {
            self.reserved_weight += weight;
        }
    }

    /// Remove a job (normally on its completion event). Returns `true` if
    /// the job existed.
    pub fn remove(&mut self, now: SimTime, id: JobId) -> bool {
        self.advance(now);
        if let Ok(pos) = self.jobs.binary_search_by_key(&id, |&(j, _)| j) {
            let (_, job) = self.jobs.remove(pos);
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

    /// The earliest `(time, id)` at which some job finishes, given the
    /// current population, or `None` when idle. Ties break on the smaller
    /// id for determinism. The returned time is rounded up to the next
    /// microsecond so the work is fully done when the event fires.
    pub fn next_completion(&mut self, now: SimTime) -> Option<(SimTime, JobId)> {
        self.advance(now);
        if self.jobs.is_empty() {
            return None;
        }
        let r_normal = self.rate_of(JobClass::Normal);
        let r_reserved = self.rate_of(JobClass::Reserved);
        let mut best: Option<(f64, JobId)> = None;
        for &(id, job) in &self.jobs {
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
        self.jobs.len()
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

    /// Instantaneous utilization of a processor-sharing server: demanded
    /// cores over capacity, clamped to 1. For [`Discipline::Saturating`]
    /// this returns the saturation level `n·rate / (1/alpha)`—close to 1
    /// when concurrency no longer buys throughput.
    pub fn utilization_now(&self) -> f64 {
        match self.discipline {
            Discipline::ProcessorSharing { capacity } => (self.total_weight / capacity).min(1.0),
            Discipline::Saturating {
                alpha,
                cap,
                devices,
            } => {
                if self.jobs.is_empty() {
                    0.0
                } else {
                    let d = devices.max(1) as f64;
                    let n = self.jobs.len() as f64;
                    let per_device = (n / d).ceil();
                    let throughput = (n / (1.0 + alpha * (per_device - 1.0))).min(d * cap);
                    let ceiling = if cap.is_finite() { d * cap } else { d / alpha };
                    (throughput / ceiling).min(1.0)
                }
            }
        }
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
    fn tokens_queue_integral() {
        let mut p = Tokens::new(1);
        p.try_acquire(t(0.0), 1);
        p.try_acquire(t(0.0), 2); // queued
        let q = p.queue_integral(t(4.0));
        assert!((q - 4.0).abs() < 1e-9);
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
        assert!((ps.utilization_now() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ps_demand_integral_accumulates() {
        let mut ps = ProcShare::cores(10.0);
        ps.start(t(0.0), 1, 100.0, 2.0);
        ps.start(t(0.0), 2, 100.0, 3.0);
        assert!((ps.demand_integral(t(4.0)) - 20.0).abs() < 1e-9);
        assert!((ps.busy_integral(t(4.0)) - 4.0).abs() < 1e-9);
        assert!((ps.utilization_now() - 0.5).abs() < 1e-12);
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
