//! Discrete-event simulation of the Identification Engine.
//!
//! One [`Experiment`] simulates a Pl@ntNet engine node serving a
//! closed-loop population of clients:
//!
//! * the four thread pools are counting semaphores
//!   ([`e2c_des::resources::Tokens`]) — the `wait-*` steps of Table I are
//!   their queues;
//! * all CPU-side work (pre-process, download decode, process, simsearch,
//!   post-process, *and the per-inference GPU feeding load*) shares the
//!   node's cores under processor sharing;
//! * GPU inference runs on a saturating-efficiency server: concurrency
//!   raises throughput sub-linearly and never shortens one inference;
//! * image transfer times come from a fair-shared network link.
//!
//! Every run is fully determined by `(spec, seed)`. An optional
//! [`ServiceFault`] perturbs a run at a fixed simulated time — a
//! [`ServiceFaultKind::Crash`] stops the engine (the run reports a NaN
//! response mean, which the tuning layer classifies as a failed,
//! retryable evaluation), a [`ServiceFaultKind::SlowDown`] multiplies
//! every service time from the trigger onwards.

use crate::config::PoolConfig;
use crate::model::EngineModel;
use crate::monitor::{names, EngineMetrics, OverloadTotals, RepeatedMetrics};
use crate::pipeline::Task;
use e2c_des::resources::{Discipline, ProcShare, Tokens};
use e2c_des::{Context, Dist, Model, Sampler, SimTime, Simulation};
use e2c_metrics::{Histogram, OnlineStats, Registry, Summary};
use e2c_net::{LinkSpec, SharedLink};
use e2c_workload::{ImageMix, RateSchedule};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::collections::VecDeque;

/// What a [`ServiceFault`] does to the engine once it triggers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ServiceFaultKind {
    /// The engine process dies: no event after the trigger is handled
    /// and the run reports a NaN response mean.
    Crash,
    /// Every service time sampled after the trigger is multiplied by
    /// `factor` (a degraded node, a noisy neighbour).
    SlowDown {
        /// Service-time multiplier; must be finite and positive.
        factor: f64,
    },
}

/// A deterministic engine-level fault: at simulated time `at`, `kind`
/// happens. Exactly one per run; `None` (the default in
/// [`ExperimentSpec::paper`]) reproduces the paper's fault-free setup.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceFault {
    /// Simulated trigger time.
    pub at: SimTime,
    /// What happens.
    pub kind: ServiceFaultKind,
}

/// Overload policy for an open-loop serving run.
///
/// The HTTP pool's wait queue becomes a *bounded* admission queue:
/// arrivals finding `queue_bound` requests already waiting are rejected
/// outright, and queued requests older than `shed_after` are shed —
/// deterministically, at service-start and window boundaries — instead
/// of serving a response the user gave up on long ago. Completions
/// slower than `slo` count as SLO violations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverloadPolicy {
    /// Maximum admission-queue depth; arrivals beyond it are rejected.
    pub queue_bound: usize,
    /// Shed queued requests older than this (`None`: never shed).
    pub shed_after: Option<SimTime>,
    /// Response-time SLO bound in seconds (the paper's 4 s tolerance).
    pub slo: f64,
}

impl OverloadPolicy {
    /// A policy with the paper's 4 s SLO, a queue bound sized like a
    /// production listen backlog, and shedding at twice the SLO.
    pub fn paper_slo(queue_bound: usize) -> Self {
        OverloadPolicy {
            queue_bound,
            shed_after: Some(SimTime::from_secs(8)),
            slo: 4.0,
        }
    }
}

/// Open-loop serving bookkeeping. Lives on the model (not the `Copy`
/// spec): the arrival schedule is data, and the overload counters are
/// run state.
struct Serving {
    policy: Option<OverloadPolicy>,
    /// FIFO mirror of the HTTP admission queue: `(req, enqueued_at)`.
    /// `Tokens` keeps the authoritative queue; this adds the enqueue
    /// timestamps shedding needs. Orders always agree (both FIFO).
    waiting: VecDeque<(u64, SimTime)>,
    totals: OverloadTotals,
    // Window counters, reset at each sample boundary.
    win_offered: u64,
    win_rejected: u64,
    win_shed: u64,
    win_slo: u64,
}

impl Serving {
    fn new(policy: Option<OverloadPolicy>) -> Self {
        if let Some(p) = policy {
            assert!(
                p.slo.is_finite() && p.slo > 0.0,
                "SLO bound must be finite and positive, got {}",
                p.slo
            );
        }
        Serving {
            policy,
            waiting: VecDeque::new(),
            totals: OverloadTotals::default(),
            win_offered: 0,
            win_rejected: 0,
            win_shed: 0,
            win_slo: 0,
        }
    }
}

/// Full description of one engine experiment.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentSpec {
    /// Thread-pool sizes under test.
    pub config: PoolConfig,
    /// Engine constants (hardware + service times).
    pub model: EngineModel,
    /// Closed-loop simultaneous requests (the paper's workload knob).
    pub clients: usize,
    /// Client think time between response and next request.
    pub think: Dist,
    /// Experiment duration (the paper: 1380 s).
    pub duration: SimTime,
    /// Monitoring window (the paper: 10 s).
    pub sample_interval: SimTime,
    /// Samples at or before this time are excluded from summaries (the
    /// pipeline starts empty; the first seconds are not steady-state).
    pub warmup: SimTime,
    /// Client → engine network link.
    pub link: LinkSpec,
    /// Optional engine-level fault injected at a fixed simulated time.
    pub fault: Option<ServiceFault>,
}

impl ExperimentSpec {
    /// The paper's experimental setup for a configuration and workload:
    /// 1380 s runs, 10 s sampling, saturating closed loop, 10 Gbps
    /// client links.
    pub fn paper(config: PoolConfig, clients: usize) -> Self {
        ExperimentSpec {
            config,
            model: EngineModel::default(),
            clients,
            think: Dist::Constant(0.0),
            duration: SimTime::from_secs(1380),
            sample_interval: SimTime::from_secs(10),
            warmup: SimTime::from_secs(60),
            link: LinkSpec::new(0.5, 10_000.0),
            fault: None,
        }
    }

    /// A shortened variant for tests: same mechanics, 1/10 the duration.
    pub fn quick(config: PoolConfig, clients: usize) -> Self {
        ExperimentSpec {
            duration: SimTime::from_secs(138),
            warmup: SimTime::from_secs(20),
            ..ExperimentSpec::paper(config, clients)
        }
    }

    /// Spec for an open-loop serving run over `horizon` of simulated
    /// time. `clients` is irrelevant in open loop (arrivals come from
    /// the schedule); no warm-up exclusion — a serving window accounts
    /// for every request it saw. The sampling interval adapts to short
    /// horizons so every run gets a handful of windows.
    pub fn serving(config: PoolConfig, horizon: SimTime) -> Self {
        let interval =
            SimTime((horizon.0 / 12).clamp(SimTime::from_secs(1).0, SimTime::from_secs(10).0));
        ExperimentSpec {
            duration: horizon,
            sample_interval: interval,
            warmup: SimTime::ZERO,
            ..ExperimentSpec::paper(config, 1)
        }
    }
}

/// Simulation events (public because `Experiment` implements `Model`;
/// construct experiments through [`Experiment::run`] instead).
#[derive(Debug, Clone, Copy)]
pub enum Ev {
    /// A client submits a request.
    Arrive { client: u32 },
    /// A CPU job finished.
    CpuDone { job: u64 },
    /// A GPU inference finished.
    GpuDone { req: u64 },
    /// A network transfer finished.
    NetDone { req: u64 },
    /// Monitoring window boundary.
    Sample,
}

/// Queue timer keys: each resource's next completion is one re-armed
/// timer rather than a cancelled and rescheduled heap event.
const GPU_TIMER: usize = 0;
const CPU_TIMER: usize = 1;

/// CPU job-id codes (job id = `req_id * 8 + code`).
mod code {
    pub const PRE: u64 = 0;
    pub const DOWNLOAD: u64 = 1;
    pub const PROCESS: u64 = 2;
    pub const SIMSEARCH: u64 = 3;
    pub const POST: u64 = 4;
    /// Persistent CPU load while this request's inference occupies the GPU.
    pub const GPU_FEED: u64 = 7;
}

fn jid(req: u64, c: u64) -> u64 {
    req * 8 + c
}

struct Req {
    client: u32,
    arrived: SimTime,
    phase_start: SimTime,
}

/// Requests in flight, indexed by id. Ids are issued sequentially, so the
/// live requests sit in a window starting at the oldest one still alive:
/// slot `i` holds request `first + i`, `None` once it has left.
#[derive(Default)]
struct ReqWindow {
    first: u64,
    slots: VecDeque<Option<Req>>,
}

impl ReqWindow {
    /// Admit request `id`, which must be the next id issued.
    fn insert(&mut self, id: u64, req: Req) {
        assert_eq!(
            id,
            self.first + self.slots.len() as u64,
            "request ids must be issued in sequence"
        );
        self.slots.push_back(Some(req));
    }

    fn get(&self, id: u64) -> Option<&Req> {
        let i = id.checked_sub(self.first)?;
        self.slots.get(i as usize)?.as_ref()
    }

    fn get_mut(&mut self, id: u64) -> Option<&mut Req> {
        let i = id.checked_sub(self.first)?;
        self.slots.get_mut(i as usize)?.as_mut()
    }

    fn remove(&mut self, id: u64) -> Option<Req> {
        let i = id.checked_sub(self.first)?;
        let req = self.slots.get_mut(i as usize)?.take();
        // Slide the window past every request that has already left.
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.first += 1;
        }
        req
    }
}

/// The spec's service-time and think-time distributions, prepared once
/// per run (a run draws hundreds of thousands of them).
struct ServiceTimes {
    preprocess: Sampler,
    download_net: Sampler,
    download_cpu: Sampler,
    extract_gpu: Sampler,
    process: Sampler,
    simsearch: Sampler,
    postprocess: Sampler,
    think: Sampler,
}

impl ServiceTimes {
    fn new(spec: &ExperimentSpec) -> Self {
        let m = &spec.model;
        ServiceTimes {
            preprocess: m.t_preprocess.prepare(),
            download_net: m.t_download_net.prepare(),
            download_cpu: m.t_download_cpu.prepare(),
            extract_gpu: m.t_extract_gpu.prepare(),
            process: m.t_process.prepare(),
            simsearch: m.t_simsearch.prepare(),
            postprocess: m.t_postprocess.prepare(),
            think: spec.think.prepare(),
        }
    }
}

/// The engine model driven by the DES kernel.
pub struct Experiment {
    spec: ExperimentSpec,
    // Resources.
    http: Tokens,
    download: Tokens,
    extract: Tokens,
    simsearch: Tokens,
    cpu: ProcShare,
    gpu: ProcShare,
    link: SharedLink,
    images: ImageMix,
    times: ServiceTimes,
    /// Set by a CPU/GPU membership change; the completion timer is
    /// re-armed once, at the end of the handled event.
    cpu_dirty: bool,
    gpu_dirty: bool,
    reqs: ReqWindow,
    next_req: u64,
    // Statistics.
    /// Per-task durations, indexed by `Task as usize` (`Task::ORDER`).
    task_stats: [OnlineStats; 9],
    registry: Registry,
    window_resp: OnlineStats,
    /// Per-request response distribution after warm-up (for tail
    /// percentiles); 50 ms bins over [0, 60) s cover every sane run.
    responses: Histogram,
    completed: u64,
    completed_after_warmup: u64,
    /// Set once a [`ServiceFaultKind::Crash`] triggers; every later
    /// event is dropped and `finish` reports a NaN response mean.
    crashed: bool,
    /// Open-loop serving state (`None` in the closed-loop protocol).
    serving: Option<Serving>,
    /// Optional trace sink: per-window `sim/queues` events (pool queue
    /// depths) and the `sim/crash` marker, stamped with sim microseconds.
    tracer: Option<e2c_trace::Tracer>,
    // Previous-window integrals for windowed utilizations.
    prev_cpu_demand: f64,
    prev_busy: [f64; 4],
}

impl Experiment {
    /// Build the model for a spec.
    pub fn new(spec: ExperimentSpec) -> Self {
        spec.config.validate().expect("invalid pool configuration");
        if let Some(ServiceFault {
            kind: ServiceFaultKind::SlowDown { factor },
            ..
        }) = spec.fault
        {
            assert!(
                factor.is_finite() && factor > 0.0,
                "slow-down factor must be finite and positive, got {factor}"
            );
        }
        Experiment {
            http: Tokens::new(spec.config.http as usize),
            download: Tokens::new(spec.config.download as usize),
            extract: Tokens::new(spec.config.extract as usize),
            simsearch: Tokens::new(spec.config.simsearch as usize),
            cpu: ProcShare::cores(spec.model.cores),
            gpu: ProcShare::new(Discipline::Saturating {
                alpha: spec.model.gpu_alpha,
                cap: spec.model.gpu_parallel_cap,
                devices: spec.model.gpus,
            }),
            link: SharedLink::new(spec.link),
            images: ImageMix::new(spec.model.image_bytes_mean, spec.model.image_bytes_cv),
            times: ServiceTimes::new(&spec),
            cpu_dirty: false,
            gpu_dirty: false,
            reqs: ReqWindow::default(),
            next_req: 0,
            task_stats: Default::default(),
            registry: Registry::new(),
            window_resp: OnlineStats::new(),
            responses: Histogram::new(0.0, 60.0, 1200),
            completed: 0,
            completed_after_warmup: 0,
            crashed: false,
            serving: None,
            tracer: None,
            prev_cpu_demand: 0.0,
            prev_busy: [0.0; 4],
            spec,
        }
    }

    /// Run the experiment once with a seed; returns the collected metrics.
    pub fn run(spec: ExperimentSpec, seed: u64) -> EngineMetrics {
        Experiment::run_traced(spec, seed, None)
    }

    /// [`Experiment::run`] with an optional trace sink: the DES kernel
    /// emits per-segment `des/run` events and the model per-window
    /// `sim/queues` depths, all stamped with sim time (deterministic).
    pub fn run_traced(
        spec: ExperimentSpec,
        seed: u64,
        tracer: Option<e2c_trace::Tracer>,
    ) -> EngineMetrics {
        assert!(spec.clients > 0, "need at least one client");
        let mut model = Experiment::new(spec);
        model.tracer = tracer.clone();
        let mut sim = Simulation::new(model, seed);
        if let Some(tr) = tracer {
            sim.set_trace(tr, "plantnet");
        }
        // Clients ramp in over the first two seconds.
        let ramp = SimTime::from_secs(2);
        let n = spec.clients as u64;
        for client in 0..spec.clients as u32 {
            let at = SimTime(ramp.0 * client as u64 / n);
            sim.schedule(at, Ev::Arrive { client });
        }
        sim.schedule(spec.sample_interval, Ev::Sample);
        sim.run_until(spec.duration);
        sim.into_model().finish()
    }

    /// Open-loop serving run: arrivals replay `schedule` (thinned
    /// deterministically from `seed`), the closed loop is off, and
    /// `policy` — if any — bounds admission and sheds stale queue
    /// entries. With `policy = None` the run is bitwise-identical to
    /// the engine without overload semantics: the policy checks draw no
    /// randomness and touch no service path.
    pub fn run_serving(
        spec: ExperimentSpec,
        schedule: &RateSchedule,
        policy: Option<OverloadPolicy>,
        seed: u64,
    ) -> EngineMetrics {
        Experiment::run_serving_traced(spec, schedule, policy, seed, None)
    }

    /// [`Experiment::run_serving`] with an optional trace sink
    /// (per-window `sim/queues` and `sim/overload` events).
    pub fn run_serving_traced(
        spec: ExperimentSpec,
        schedule: &RateSchedule,
        policy: Option<OverloadPolicy>,
        seed: u64,
        tracer: Option<e2c_trace::Tracer>,
    ) -> EngineMetrics {
        let mut model = Experiment::new(spec);
        model.serving = Some(Serving::new(policy));
        model.tracer = tracer.clone();
        let mut sim = Simulation::new(model, seed);
        if let Some(tr) = tracer {
            sim.set_trace(tr, "plantnet");
        }
        // The arrival stream comes from its own derived RNG so it is a
        // pure function of (schedule, seed) — independent of how many
        // service times the engine happens to draw.
        let mut arr_rng = StdRng::seed_from_u64(seed ^ 0xA5A5_5A5A_0F0F_F0F0);
        let horizon = spec.duration.min(schedule.horizon());
        for (i, at) in schedule.arrivals(&mut arr_rng).into_iter().enumerate() {
            if at > horizon {
                break;
            }
            sim.schedule(at, Ev::Arrive { client: i as u32 });
        }
        sim.schedule(spec.sample_interval, Ev::Sample);
        sim.run_until(spec.duration);
        sim.into_model().finish()
    }

    /// Run `reps` repetitions with derived seeds and pool the windows —
    /// the paper's "repeat each configuration 7 times" protocol.
    pub fn run_repeated(spec: ExperimentSpec, reps: usize, base_seed: u64) -> RepeatedMetrics {
        Experiment::run_repeated_traced(spec, reps, base_seed, None)
    }

    /// [`Experiment::run_repeated`] with an optional trace sink shared by
    /// every repetition.
    pub fn run_repeated_traced(
        spec: ExperimentSpec,
        reps: usize,
        base_seed: u64,
        tracer: Option<e2c_trace::Tracer>,
    ) -> RepeatedMetrics {
        assert!(reps > 0, "need at least one repetition");
        let runs: Vec<EngineMetrics> = (0..reps)
            .map(|r| {
                Experiment::run_traced(
                    spec,
                    base_seed.wrapping_mul(0x9E37_79B9).wrapping_add(r as u64),
                    tracer.clone(),
                )
            })
            .collect();
        RepeatedMetrics::from_runs(runs)
    }

    // ---- statistics helpers ----

    fn record_task(&mut self, task: Task, start: SimTime, now: SimTime) {
        self.task_stats[task as usize].push((now - start).as_secs_f64());
    }

    /// Service-time multiplier at `now` (1.0 unless a slow-down fault
    /// has triggered).
    fn service_scale(&self, now: SimTime) -> f64 {
        match self.spec.fault {
            Some(ServiceFault {
                at,
                kind: ServiceFaultKind::SlowDown { factor },
            }) if now >= at => factor,
            _ => 1.0,
        }
    }

    fn sample_dist(&self, d: Sampler, now: SimTime, rng: &mut impl rand::Rng) -> f64 {
        (d.sample(rng) * self.service_scale(now)).max(1e-6)
    }

    // ---- resource completion rescheduling ----

    /// Re-arm the completion timer of every resource whose membership
    /// changed during the handled event: GPU first, then CPU. All of an
    /// event's changes happen at one instant, so the next completion
    /// depends only on the final membership; and GPU-then-CPU is the
    /// order in which rescheduling after every change left the surviving
    /// events, so same-time tie order is unchanged too.
    fn flush_completions(&mut self, ctx: &mut Context<'_, Ev>) {
        if std::mem::take(&mut self.gpu_dirty) {
            match self.gpu.next_completion(ctx.now()) {
                Some((at, req)) => ctx.set_timer(GPU_TIMER, at, Ev::GpuDone { req }),
                None => ctx.clear_timer(GPU_TIMER),
            }
        }
        if std::mem::take(&mut self.cpu_dirty) {
            match self.cpu.next_completion(ctx.now()) {
                Some((at, job)) => ctx.set_timer(CPU_TIMER, at, Ev::CpuDone { job }),
                None => ctx.clear_timer(CPU_TIMER),
            }
        }
    }

    // ---- pipeline transitions ----

    fn start_preprocess(&mut self, ctx: &mut Context<'_, Ev>, req: u64) {
        let t = self.sample_dist(self.times.preprocess, ctx.now(), ctx.rng());
        self.reqs.get_mut(req).expect("live request").phase_start = ctx.now();
        self.cpu.start(
            ctx.now(),
            jid(req, code::PRE),
            t,
            self.spec.model.http_cpu_weight,
        );
        self.cpu_dirty = true;
    }

    fn request_download(&mut self, ctx: &mut Context<'_, Ev>, req: u64) {
        let now = ctx.now();
        self.reqs.get_mut(req).expect("live request").phase_start = now;
        if self.download.try_acquire(now, req) {
            self.record_task(Task::WaitDownload, now, now);
            self.start_net_transfer(ctx, req);
        }
        // Otherwise the request sits in the download queue; the release
        // path resumes it (its wait-download time runs from phase_start).
    }

    fn start_net_transfer(&mut self, ctx: &mut Context<'_, Ev>, req: u64) {
        let bytes = self.images.sample_bytes(ctx.rng());
        // The fetch is dominated by the user-side uplink; the testbed link
        // only matters if it is more congested than the uplink.
        let uplink = self.sample_dist(self.times.download_net, ctx.now(), ctx.rng());
        let secs = self.link.begin_flow(bytes).max(uplink);
        self.reqs.get_mut(req).expect("live request").phase_start = ctx.now();
        ctx.schedule_in(SimTime::from_secs_f64(secs), Ev::NetDone { req });
    }

    fn start_download_cpu(&mut self, ctx: &mut Context<'_, Ev>, req: u64) {
        let t = self.sample_dist(self.times.download_cpu, ctx.now(), ctx.rng());
        self.cpu.start(
            ctx.now(),
            jid(req, code::DOWNLOAD),
            t,
            self.spec.model.download_cpu_weight,
        );
        self.cpu_dirty = true;
    }

    fn request_extract(&mut self, ctx: &mut Context<'_, Ev>, req: u64) {
        let now = ctx.now();
        self.reqs.get_mut(req).expect("live request").phase_start = now;
        if self.extract.try_acquire(now, req) {
            self.record_task(Task::WaitExtract, now, now);
            self.start_extract(ctx, req);
        }
    }

    fn start_extract(&mut self, ctx: &mut Context<'_, Ev>, req: u64) {
        let t = self.sample_dist(self.times.extract_gpu, ctx.now(), ctx.rng());
        let now = ctx.now();
        self.reqs.get_mut(req).expect("live request").phase_start = now;
        self.gpu.start(now, req, t, 1.0);
        // CPU-side feeding load for the duration of the inference: a
        // *reserved* job (feeding always wins the scheduler) that never
        // completes on its own (removed at GpuDone).
        self.cpu.start_reserved(
            now,
            jid(req, code::GPU_FEED),
            1e9,
            self.spec.model.extract_cpu_weight,
        );
        self.gpu_dirty = true;
        self.cpu_dirty = true;
    }

    fn start_process(&mut self, ctx: &mut Context<'_, Ev>, req: u64) {
        let t = self.sample_dist(self.times.process, ctx.now(), ctx.rng());
        self.reqs.get_mut(req).expect("live request").phase_start = ctx.now();
        self.cpu.start(
            ctx.now(),
            jid(req, code::PROCESS),
            t,
            self.spec.model.http_cpu_weight,
        );
        self.cpu_dirty = true;
    }

    fn request_simsearch(&mut self, ctx: &mut Context<'_, Ev>, req: u64) {
        let now = ctx.now();
        self.reqs.get_mut(req).expect("live request").phase_start = now;
        if self.simsearch.try_acquire(now, req) {
            self.record_task(Task::WaitSimsearch, now, now);
            self.start_simsearch(ctx, req);
        }
    }

    fn start_simsearch(&mut self, ctx: &mut Context<'_, Ev>, req: u64) {
        let t = self.sample_dist(self.times.simsearch, ctx.now(), ctx.rng());
        self.reqs.get_mut(req).expect("live request").phase_start = ctx.now();
        self.cpu.start(
            ctx.now(),
            jid(req, code::SIMSEARCH),
            t,
            self.spec.model.simsearch_cpu_weight,
        );
        self.cpu_dirty = true;
    }

    fn start_postprocess(&mut self, ctx: &mut Context<'_, Ev>, req: u64) {
        let t = self.sample_dist(self.times.postprocess, ctx.now(), ctx.rng());
        self.reqs.get_mut(req).expect("live request").phase_start = ctx.now();
        self.cpu.start(
            ctx.now(),
            jid(req, code::POST),
            t,
            self.spec.model.http_cpu_weight,
        );
        self.cpu_dirty = true;
    }

    fn complete_request(&mut self, ctx: &mut Context<'_, Ev>, req: u64) {
        let now = ctx.now();
        let r = self.reqs.remove(req).expect("live request");
        let response = (now - r.arrived).as_secs_f64();
        self.window_resp.push(response);
        self.completed += 1;
        if now > self.spec.warmup {
            self.completed_after_warmup += 1;
            self.responses.record(response);
        }
        if let Some(s) = &mut self.serving {
            if let Some(p) = s.policy {
                if response > p.slo {
                    s.totals.slo_violations += 1;
                    s.win_slo += 1;
                }
            }
            // Open loop: no client to reschedule. Pass the freed HTTP
            // slot down the admission queue (shedding stale waiters).
            self.release_admission(ctx);
            return;
        }
        // Release the HTTP slot; an admission-queued request starts now.
        if let Some(waiter) = self.http.release(now) {
            self.start_preprocess(ctx, waiter);
        }
        // Closed loop: the client thinks, then submits again.
        let think = SimTime::from_secs_f64(self.times.think.sample(ctx.rng()));
        ctx.schedule_in(think, Ev::Arrive { client: r.client });
    }

    /// Serving-mode release path: grant the freed HTTP slot to the
    /// oldest waiter, shedding any whose queueing delay already exceeds
    /// the policy deadline at the moment it would start service.
    fn release_admission(&mut self, ctx: &mut Context<'_, Ev>) {
        let now = ctx.now();
        while let Some(waiter) = self.http.release(now) {
            let s = self.serving.as_mut().expect("serving mode");
            let (id, enqueued) = s.waiting.pop_front().expect("mirrored admission queue");
            debug_assert_eq!(id, waiter, "admission FIFO mirror out of sync");
            let stale = s
                .policy
                .and_then(|p| p.shed_after)
                .map(|d| now - enqueued > d)
                .unwrap_or(false);
            if stale {
                s.totals.shed += 1;
                s.win_shed += 1;
                self.reqs.remove(waiter);
                // The shed request held the freshly granted slot;
                // release again for the next waiter.
                continue;
            }
            s.totals.admitted += 1;
            self.start_preprocess(ctx, waiter);
            break;
        }
    }

    // ---- monitoring ----

    fn sample_window(&mut self, ctx: &mut Context<'_, Ev>) {
        let now = ctx.now();
        let t = now.as_secs_f64();
        let dt = self.spec.sample_interval.as_secs_f64();

        if now > self.spec.warmup && self.window_resp.count() > 0 {
            self.registry
                .record(names::RESPONSE, t, self.window_resp.mean());
            self.registry
                .record(names::THROUGHPUT, t, self.window_resp.count() as f64 / dt);
        }
        self.window_resp = OnlineStats::new();

        // Serving mode: shed expired waiters at the boundary (they are
        // a prefix of the FIFO — enqueue times are monotone), then
        // record this window's overload counters.
        if let Some(s) = &mut self.serving {
            if let Some(d) = s.policy.and_then(|p| p.shed_after) {
                while let Some(&(id, enq)) = s.waiting.front() {
                    if now - enq > d {
                        let cancelled = self.http.cancel_wait(now, id);
                        debug_assert!(cancelled, "mirrored waiter not in queue");
                        s.waiting.pop_front();
                        self.reqs.remove(id);
                        s.totals.shed += 1;
                        s.win_shed += 1;
                    } else {
                        break;
                    }
                }
            }
            self.registry
                .record(names::OFFERED, t, s.win_offered as f64);
            self.registry
                .record(names::REJECTED, t, s.win_rejected as f64);
            self.registry.record(names::SHED, t, s.win_shed as f64);
            self.registry
                .record(names::SLO_VIOLATIONS, t, s.win_slo as f64);
            if let Some(tr) = &self.tracer {
                tr.point_at(
                    now.as_micros(),
                    "sim",
                    "overload",
                    None,
                    e2c_trace::fields([
                        ("offered", s.win_offered.into()),
                        ("rejected", s.win_rejected.into()),
                        ("shed", s.win_shed.into()),
                        ("slo_violations", s.win_slo.into()),
                    ]),
                );
            }
            s.win_offered = 0;
            s.win_rejected = 0;
            s.win_shed = 0;
            s.win_slo = 0;
        }

        // Windowed CPU utilization from the demand integral.
        let cpu_int = self.cpu.demand_integral(now);
        let cpu_util = ((cpu_int - self.prev_cpu_demand) / dt / self.spec.model.cores).min(1.0);
        self.prev_cpu_demand = cpu_int;
        self.registry.record(names::CPU, t, cpu_util);

        // Windowed pool busy fractions.
        let caps = [
            self.spec.config.http as f64,
            self.spec.config.download as f64,
            self.spec.config.extract as f64,
            self.spec.config.simsearch as f64,
        ];
        let metric_names = [
            names::HTTP_BUSY,
            names::DOWNLOAD_BUSY,
            names::EXTRACT_BUSY,
            names::SIMSEARCH_BUSY,
        ];
        let ints = [
            self.http.busy_integral(now),
            self.download.busy_integral(now),
            self.extract.busy_integral(now),
            self.simsearch.busy_integral(now),
        ];
        for i in 0..4 {
            let frac = (ints[i] - self.prev_busy[i]) / (dt * caps[i]);
            self.prev_busy[i] = ints[i];
            self.registry.record(metric_names[i], t, frac.min(1.0));
        }

        // Per-pool queue depths at the window boundary: where requests
        // pile up is exactly what the trace layer needs to explain a
        // configuration's response time.
        let depths = [
            (names::HTTP_QUEUE, self.http.queue_len()),
            (names::DOWNLOAD_QUEUE, self.download.queue_len()),
            (names::EXTRACT_QUEUE, self.extract.queue_len()),
            (names::SIMSEARCH_QUEUE, self.simsearch.queue_len()),
        ];
        for (name, depth) in depths {
            self.registry.record(name, t, depth as f64);
        }
        if let Some(tr) = &self.tracer {
            tr.point_at(
                now.as_micros(),
                "sim",
                "queues",
                None,
                e2c_trace::fields([
                    ("http", depths[0].1.into()),
                    ("download", depths[1].1.into()),
                    ("extract", depths[2].1.into()),
                    ("simsearch", depths[3].1.into()),
                ]),
            );
        }

        // Constant-per-config footprints, recorded each window so the
        // series render flat (Fig. 9d/9e style).
        self.registry.record(
            names::GPU_MEM,
            t,
            self.spec.model.gpu_memory_gb(self.spec.config.extract),
        );
        self.registry.record(
            names::SYS_MEM,
            t,
            self.spec
                .model
                .sys_memory_gb(self.spec.config.extract, self.spec.config.http),
        );

        let next = now + self.spec.sample_interval;
        if next <= self.spec.duration {
            ctx.schedule(next, Ev::Sample);
        }
    }

    /// Final packaging of a finished run.
    fn finish(mut self) -> EngineMetrics {
        if let Some(s) = &mut self.serving {
            // Requests still queued at the horizon were offered but
            // never served: account them as sheds so conservation
            // (admitted + rejected + shed == offered) holds exactly.
            s.totals.shed += s.waiting.len() as u64;
            s.waiting.clear();
        }
        if self.registry.get(names::RESPONSE).is_none() && self.responses.count() > 0 {
            // A run shorter than one sampling window after warm-up closes
            // none: its one measurement is the partial window at the
            // horizon, over every request completed after warm-up.
            let t = self.spec.duration.as_secs_f64();
            self.registry
                .record(names::RESPONSE, t, self.responses.mean());
        }
        let mut response = self.registry.summary(names::RESPONSE);
        if self.crashed || response.n == 0 {
            // A crashed engine, or a run in which no request completed
            // after warm-up, produced no valid measurement; a NaN mean is
            // the sentinel the tuning layer maps to a failed trial (an
            // empty summary's mean of 0 would win every search).
            response.mean = f64::NAN;
        }
        let task_times: BTreeMap<String, Summary> = Task::ORDER
            .iter()
            .zip(&self.task_stats)
            .filter(|(_, stats)| stats.count() > 0)
            .map(|(task, stats)| (task.label().to_string(), Summary::from(stats)))
            .collect();
        let measured = self.spec.duration.saturating_sub(self.spec.warmup);
        let throughput = if measured.as_secs_f64() > 0.0 {
            self.completed_after_warmup as f64 / measured.as_secs_f64()
        } else {
            0.0
        };
        // `None` when no request finished after warm-up — an empty
        // histogram used to masquerade as "all-zero latencies" here.
        let response_percentiles = if self.responses.count() == 0 {
            None
        } else {
            let pct = |q| self.responses.quantile(q).expect("non-empty histogram");
            Some((pct(0.50), pct(0.95), pct(0.99)))
        };
        EngineMetrics {
            config: self.spec.config,
            clients: self.spec.clients,
            response,
            response_percentiles,
            task_times,
            completed: self.completed,
            throughput,
            gpu_mem_gb: self.spec.model.gpu_memory_gb(self.spec.config.extract),
            sys_mem_gb: self
                .spec
                .model
                .sys_memory_gb(self.spec.config.extract, self.spec.config.http),
            overload: self.serving.as_ref().map(|s| s.totals),
            registry: self.registry,
        }
    }
}

impl Model for Experiment {
    type Event = Ev;

    fn handle(&mut self, ctx: &mut Context<'_, Ev>, ev: Ev) {
        // Crash fault: once the trigger time is reached the engine is
        // gone — drop every event, schedule nothing, let the queue drain.
        if let Some(ServiceFault {
            at,
            kind: ServiceFaultKind::Crash,
        }) = self.spec.fault
        {
            if ctx.now() >= at {
                if !self.crashed {
                    if let Some(tr) = &self.tracer {
                        tr.point_at(
                            ctx.now().as_micros(),
                            "sim",
                            "crash",
                            None,
                            e2c_trace::Fields::new(),
                        );
                    }
                }
                self.crashed = true;
                return;
            }
        }
        match ev {
            Ev::Arrive { client } => {
                let req = self.next_req;
                self.next_req += 1;
                let now = ctx.now();
                if let Some(s) = &mut self.serving {
                    s.totals.offered += 1;
                    s.win_offered += 1;
                }
                self.reqs.insert(
                    req,
                    Req {
                        client,
                        arrived: now,
                        phase_start: now,
                    },
                );
                if self.http.try_acquire(now, req) {
                    if let Some(s) = &mut self.serving {
                        s.totals.admitted += 1;
                    }
                    self.start_preprocess(ctx, req);
                } else if let Some(s) = &mut self.serving {
                    // Queued. Enforce the admission bound: the arrival
                    // that would push the queue past it is bounced.
                    let over = s
                        .policy
                        .map(|p| self.http.queue_len() > p.queue_bound)
                        .unwrap_or(false);
                    if over {
                        let cancelled = self.http.cancel_wait(now, req);
                        debug_assert!(cancelled, "rejected arrival not in queue");
                        self.reqs.remove(req);
                        s.totals.rejected += 1;
                        s.win_rejected += 1;
                    } else {
                        s.waiting.push_back((req, now));
                        s.totals.peak_queue_depth =
                            s.totals.peak_queue_depth.max(self.http.queue_len());
                    }
                }
                // Closed loop: the request waits in the (unbounded) HTTP
                // admission queue; complete_request's release starts it.
            }

            Ev::CpuDone { job } => {
                let now = ctx.now();
                let req = job / 8;
                let c = job % 8;
                let removed = self.cpu.remove(now, job);
                debug_assert!(removed, "completion for unknown CPU job");
                let phase_start = self.reqs.get(req).expect("live request").phase_start;
                match c {
                    code::PRE => {
                        self.record_task(Task::PreProcess, phase_start, now);
                        self.request_download(ctx, req);
                    }
                    code::DOWNLOAD => {
                        self.record_task(Task::Download, phase_start, now);
                        // Free the download thread; resume the next waiter
                        // (its wait-download span ends now).
                        if let Some(waiter) = self.download.release(now) {
                            let ws = self.reqs.get(waiter).expect("live waiter").phase_start;
                            self.record_task(Task::WaitDownload, ws, now);
                            self.start_net_transfer(ctx, waiter);
                        }
                        self.request_extract(ctx, req);
                    }
                    code::PROCESS => {
                        self.record_task(Task::Process, phase_start, now);
                        self.request_simsearch(ctx, req);
                    }
                    code::SIMSEARCH => {
                        self.record_task(Task::Simsearch, phase_start, now);
                        if let Some(waiter) = self.simsearch.release(now) {
                            let ws = self.reqs.get(waiter).expect("live waiter").phase_start;
                            self.record_task(Task::WaitSimsearch, ws, now);
                            self.start_simsearch(ctx, waiter);
                        }
                        self.start_postprocess(ctx, req);
                    }
                    code::POST => {
                        self.record_task(Task::PostProcess, phase_start, now);
                        self.complete_request(ctx, req);
                    }
                    other => unreachable!("unexpected CPU job code {other}"),
                }
                self.cpu_dirty = true;
            }

            Ev::GpuDone { req } => {
                let now = ctx.now();
                let removed = self.gpu.remove(now, req);
                debug_assert!(removed, "completion for unknown GPU job");
                self.cpu.remove(now, jid(req, code::GPU_FEED));
                let phase_start = self.reqs.get(req).expect("live request").phase_start;
                self.record_task(Task::Extract, phase_start, now);
                if let Some(waiter) = self.extract.release(now) {
                    let ws = self.reqs.get(waiter).expect("live waiter").phase_start;
                    self.record_task(Task::WaitExtract, ws, now);
                    self.start_extract(ctx, waiter);
                }
                self.start_process(ctx, req);
                self.gpu_dirty = true;
                self.cpu_dirty = true;
            }

            Ev::NetDone { req } => {
                self.link.end_flow();
                self.start_download_cpu(ctx, req);
            }

            Ev::Sample => self.sample_window(ctx),
        }
        self.flush_completions(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec(config: PoolConfig, clients: usize) -> ExperimentSpec {
        ExperimentSpec {
            duration: SimTime::from_secs(60),
            warmup: SimTime::from_secs(10),
            ..ExperimentSpec::paper(config, clients)
        }
    }

    #[test]
    fn single_client_flows_through_pipeline() {
        let spec = tiny_spec(PoolConfig::baseline(), 1);
        let m = Experiment::run(spec, 1);
        assert!(m.completed > 10, "completed {}", m.completed);
        // One uncontended request: roughly the sum of service means.
        let resp = m.response.mean;
        assert!(
            (0.9..1.6).contains(&resp),
            "uncontended response {resp} out of expected band"
        );
        // Every pipeline task appears in the stats.
        for t in Task::ORDER {
            assert!(
                m.task_times.contains_key(t.label()),
                "missing task {}",
                t.label()
            );
        }
        // No waiting with a single client.
        assert!(m.task_mean("wait-extract") < 1e-6);
        assert!(m.task_mean("wait-simsearch") < 1e-6);
    }

    #[test]
    fn response_time_grows_with_load() {
        let cfg = PoolConfig::baseline();
        let r40 = Experiment::run(tiny_spec(cfg, 40), 2).response.mean;
        let r80 = Experiment::run(tiny_spec(cfg, 80), 2).response.mean;
        let r120 = Experiment::run(tiny_spec(cfg, 120), 2).response.mean;
        assert!(r40 < r80 && r80 < r120, "{r40} {r80} {r120}");
    }

    #[test]
    fn conservation_little_law_roughly_holds() {
        let spec = tiny_spec(PoolConfig::baseline(), 80);
        let m = Experiment::run(spec, 3);
        // N = X * R within ~15% (finite run, warm-up effects).
        let n = m.throughput * m.response.mean;
        assert!(
            (n - 80.0).abs() / 80.0 < 0.15,
            "Little's law: X*R = {n}, N = 80"
        );
    }

    #[test]
    fn baseline_is_admission_limited_with_hot_extract_pool() {
        // With the baseline's HTTP pool of 40, the engine is admission-
        // limited: the extract pool runs hot (but not pinned - the admitted
        // population can't quite keep it saturated) and simsearch retains
        // headroom. Raising HTTP to the optimum's 54 saturates extract.
        let m = Experiment::run(tiny_spec(PoolConfig::baseline(), 80), 4);
        let extract_busy = m.mean_busy(names::EXTRACT_BUSY);
        assert!(
            (0.70..0.999).contains(&extract_busy),
            "extract busy {extract_busy}"
        );
        let ss_busy = m.mean_busy(names::SIMSEARCH_BUSY);
        assert!(ss_busy < 0.95, "simsearch busy {ss_busy}");
        let opt = Experiment::run(tiny_spec(PoolConfig::preliminary_optimum(), 80), 4);
        assert!(
            opt.mean_busy(names::EXTRACT_BUSY) > extract_busy,
            "wider admission must push the extract pool harder"
        );
    }

    #[test]
    fn gpu_memory_reflects_extract_pool() {
        let mut cfg = PoolConfig::baseline();
        cfg.extract = 9;
        let m9 = Experiment::run(tiny_spec(cfg, 10), 5);
        cfg.extract = 5;
        let m5 = Experiment::run(tiny_spec(cfg, 10), 5);
        assert!(m9.gpu_mem_gb > m5.gpu_mem_gb);
    }

    #[test]
    fn deterministic_per_seed() {
        let spec = tiny_spec(PoolConfig::baseline(), 40);
        let a = Experiment::run(spec, 42);
        let b = Experiment::run(spec, 42);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.response.mean, b.response.mean);
        let c = Experiment::run(spec, 43);
        assert_ne!(a.completed, c.completed);
    }

    #[test]
    fn percentiles_are_ordered_and_bracket_the_mean() {
        let m = Experiment::run(tiny_spec(PoolConfig::baseline(), 80), 21);
        let (p50, p95, p99) = m.response_percentiles.expect("healthy run has data");
        assert!(p50 > 0.0);
        assert!(p50 <= p95 && p95 <= p99, "({p50}, {p95}, {p99})");
        // The mean of a right-skewed queueing distribution sits between
        // the median and the upper tail.
        assert!(
            p99 >= m.response.mean,
            "p99 {p99} < mean {}",
            m.response.mean
        );
    }

    #[test]
    fn repeated_runs_pool_windows() {
        let spec = tiny_spec(PoolConfig::baseline(), 40);
        let rep = Experiment::run_repeated(spec, 3, 7);
        assert_eq!(rep.runs.len(), 3);
        let per_run: u64 = rep.runs.iter().map(|r| r.response.n).sum();
        assert_eq!(rep.response.n, per_run);
        assert!(rep.response.std >= 0.0);
    }

    #[test]
    fn http_admission_queues_excess_clients() {
        // 80 clients on an HTTP pool of 40: mean in-service concurrency
        // equals the pool, so HTTP busy ≈ 100%.
        let spec = tiny_spec(PoolConfig::baseline(), 80);
        let m = Experiment::run(spec, 8);
        assert!(m.mean_busy(names::HTTP_BUSY) > 0.99);
    }

    #[test]
    #[should_panic(expected = "invalid pool configuration")]
    fn zero_pool_rejected() {
        let mut cfg = PoolConfig::baseline();
        cfg.download = 0;
        Experiment::new(ExperimentSpec::paper(cfg, 10));
    }

    #[test]
    fn crash_fault_yields_nan_response() {
        let mut spec = tiny_spec(PoolConfig::baseline(), 20);
        spec.fault = Some(ServiceFault {
            at: SimTime::from_secs(30),
            kind: ServiceFaultKind::Crash,
        });
        let m = Experiment::run(spec, 9);
        assert!(m.response.mean.is_nan(), "crash must report NaN");
        // Work stopped at the trigger: far fewer completions than the
        // fault-free run with the same seed.
        let healthy = Experiment::run(tiny_spec(PoolConfig::baseline(), 20), 9);
        assert!(
            m.completed < healthy.completed / 2 + 1,
            "crashed {} vs healthy {}",
            m.completed,
            healthy.completed
        );
    }

    #[test]
    fn queue_depths_are_sampled_every_window() {
        let m = Experiment::run(tiny_spec(PoolConfig::baseline(), 80), 6);
        for name in [
            names::HTTP_QUEUE,
            names::DOWNLOAD_QUEUE,
            names::EXTRACT_QUEUE,
            names::SIMSEARCH_QUEUE,
        ] {
            let series = m.registry.get(name).expect("queue series recorded");
            assert!(series.len() > 3, "{name}: {} windows", series.len());
        }
        // 80 clients on an HTTP pool of 40: admission must queue.
        assert!(
            m.registry.summary(names::HTTP_QUEUE).mean > 1.0,
            "expected admission queueing"
        );
    }

    #[test]
    fn a_run_shorter_than_one_window_measures_its_partial_window() {
        // 5 s closes no 10 s window: the one sample is the horizon's
        // partial window, never an empty summary's 0.
        let spec = ExperimentSpec {
            duration: SimTime::from_secs(5),
            warmup: SimTime::ZERO,
            ..ExperimentSpec::paper(PoolConfig::baseline(), 80)
        };
        let m = Experiment::run(spec, 3);
        let series = m.registry.get(names::RESPONSE).expect("one sample");
        assert_eq!(series.times(), &[5.0]);
        assert!(m.response.mean > 0.0, "{}", m.response.mean);
        assert_eq!(series.values(), &[m.response.mean]);
        // Nothing completes after a warm-up that spans the run: no
        // measurement at all, which the tuner fails as non-finite.
        let spec = ExperimentSpec {
            warmup: SimTime::from_secs(5),
            ..spec
        };
        assert!(Experiment::run(spec, 3).response.mean.is_nan());
    }

    #[test]
    fn early_crash_reports_no_percentiles() {
        // Crash before warm-up ends: zero post-warmup requests, so the
        // percentiles must read "no data", not (0.0, 0.0, 0.0).
        let mut spec = tiny_spec(PoolConfig::baseline(), 20);
        spec.fault = Some(ServiceFault {
            at: SimTime::from_secs(5),
            kind: ServiceFaultKind::Crash,
        });
        let m = Experiment::run(spec, 9);
        assert_eq!(m.response_percentiles, None);
    }

    #[test]
    fn traced_crash_run_completes_and_marks_the_crash() {
        let tracer = e2c_trace::Tracer::new();
        let mut spec = tiny_spec(PoolConfig::baseline(), 20);
        spec.fault = Some(ServiceFault {
            at: SimTime::from_secs(30),
            kind: ServiceFaultKind::Crash,
        });
        let m = Experiment::run_traced(spec, 9, Some(tracer.clone()));
        assert!(m.response.mean.is_nan());
        let events = tracer.snapshot();
        let crashes: Vec<_> = events
            .iter()
            .filter(|e| e.phase == "sim" && e.name == "crash")
            .collect();
        assert_eq!(crashes.len(), 1, "exactly one crash marker");
        assert_eq!(crashes[0].vt, SimTime::from_secs(30).as_micros());
        assert!(
            events
                .iter()
                .any(|e| e.phase == "sim" && e.name == "queues"),
            "queue-depth events recorded before the crash"
        );
    }

    #[test]
    fn traced_run_matches_untraced_metrics() {
        let spec = tiny_spec(PoolConfig::baseline(), 40);
        let plain = Experiment::run(spec, 42);
        let traced = Experiment::run_traced(spec, 42, Some(e2c_trace::Tracer::new()));
        assert_eq!(plain.completed, traced.completed);
        assert_eq!(plain.response.mean, traced.response.mean);
    }

    #[test]
    fn crash_poisons_repeated_runs() {
        let mut spec = tiny_spec(PoolConfig::baseline(), 10);
        spec.fault = Some(ServiceFault {
            at: SimTime::from_secs(30),
            kind: ServiceFaultKind::Crash,
        });
        let rep = Experiment::run_repeated(spec, 3, 7);
        assert!(rep.response.mean.is_nan());
    }

    #[test]
    fn slowdown_fault_inflates_response_times() {
        let base = tiny_spec(PoolConfig::baseline(), 20);
        let healthy = Experiment::run(base, 11).response.mean;
        let mut slowed = base;
        slowed.fault = Some(ServiceFault {
            at: SimTime::ZERO,
            kind: ServiceFaultKind::SlowDown { factor: 3.0 },
        });
        let degraded = Experiment::run(slowed, 11).response.mean;
        assert!(
            degraded > healthy * 1.5,
            "slow-down: degraded {degraded} vs healthy {healthy}"
        );
    }

    #[test]
    fn fault_after_the_run_changes_nothing() {
        let base = tiny_spec(PoolConfig::baseline(), 20);
        let mut inert = base;
        inert.fault = Some(ServiceFault {
            at: base.duration + SimTime::from_secs(1),
            kind: ServiceFaultKind::SlowDown { factor: 10.0 },
        });
        let a = Experiment::run(base, 13);
        let b = Experiment::run(inert, 13);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.response.mean, b.response.mean);
    }

    #[test]
    #[should_panic(expected = "slow-down factor")]
    fn nonpositive_slowdown_factor_rejected() {
        let mut spec = tiny_spec(PoolConfig::baseline(), 5);
        spec.fault = Some(ServiceFault {
            at: SimTime::ZERO,
            kind: ServiceFaultKind::SlowDown { factor: 0.0 },
        });
        Experiment::new(spec);
    }

    // ---- open-loop serving ----

    fn serving_bits(m: &EngineMetrics) -> (u64, u64, u64) {
        (
            m.completed,
            m.response.mean.to_bits(),
            m.throughput.to_bits(),
        )
    }

    #[test]
    fn light_serving_run_admits_everything() {
        let sched = RateSchedule::constant(5.0, SimTime::from_secs(120)).unwrap();
        let spec = ExperimentSpec::serving(PoolConfig::baseline(), sched.horizon());
        let policy = OverloadPolicy::paper_slo(100);
        let m = Experiment::run_serving(spec, &sched, Some(policy), 3);
        let o = m.overload.expect("serving run reports overload totals");
        assert!(o.offered > 300, "offered {}", o.offered);
        assert_eq!(o.rejected, 0);
        assert_eq!(o.shed, 0);
        assert_eq!(o.admitted + o.rejected + o.shed, o.offered);
        assert!(m.completed > 0);
    }

    #[test]
    fn saturating_serving_run_rejects_and_sheds() {
        // ~100 req/s against the baseline config (capacity well below
        // that): the bounded queue fills, rejections and sheds follow.
        let sched = RateSchedule::constant(100.0, SimTime::from_secs(120)).unwrap();
        let spec = ExperimentSpec::serving(PoolConfig::baseline(), sched.horizon());
        let policy = OverloadPolicy {
            queue_bound: 50,
            shed_after: Some(SimTime::from_secs(8)),
            slo: 4.0,
        };
        let m = Experiment::run_serving(spec, &sched, Some(policy), 3);
        let o = m.overload.unwrap();
        assert!(o.rejected > 0, "expected rejections: {o:?}");
        assert!(o.shed > 0, "expected sheds: {o:?}");
        assert!(o.slo_violations > 0, "expected SLO violations: {o:?}");
        assert_eq!(o.admitted + o.rejected + o.shed, o.offered);
        assert!(o.peak_queue_depth <= 50, "bound violated: {o:?}");
        // The window series rode the registry.
        assert!(m.registry.summary(names::REJECTED).mean > 0.0);
        assert!(m.registry.summary(names::SHED).mean >= 0.0);
    }

    #[test]
    fn no_op_policy_is_bitwise_identical_to_no_policy() {
        // A policy that never triggers must not perturb the run at all:
        // admission checks draw no randomness.
        let sched = RateSchedule::constant(60.0, SimTime::from_secs(120)).unwrap();
        let spec = ExperimentSpec::serving(PoolConfig::baseline(), sched.horizon());
        let inert = OverloadPolicy {
            queue_bound: usize::MAX,
            shed_after: None,
            slo: 4.0,
        };
        let a = Experiment::run_serving(spec, &sched, None, 11);
        let b = Experiment::run_serving(spec, &sched, Some(inert), 11);
        assert_eq!(serving_bits(&a), serving_bits(&b));
        let (oa, mut ob) = (a.overload.unwrap(), b.overload.unwrap());
        // SLO accounting is pure bookkeeping that needs a policy to
        // define the bound; everything else must match exactly.
        assert!(ob.slo_violations > 0, "saturated run must violate SLO");
        ob.slo_violations = oa.slo_violations;
        assert_eq!(oa, ob);
        assert_eq!(oa.rejected, 0);
        // Deadline sheds are impossible without a policy; any sheds
        // here are the end-of-run queue flush, identical in both runs.
        assert_eq!(oa.admitted + oa.shed, oa.offered);
    }

    #[test]
    fn serving_is_deterministic_per_seed() {
        let sched = RateSchedule::constant(80.0, SimTime::from_secs(90)).unwrap();
        let spec = ExperimentSpec::serving(PoolConfig::baseline(), sched.horizon());
        let policy = OverloadPolicy::paper_slo(30);
        let a = Experiment::run_serving(spec, &sched, Some(policy), 42);
        let b = Experiment::run_serving(spec, &sched, Some(policy), 42);
        assert_eq!(serving_bits(&a), serving_bits(&b));
        assert_eq!(a.overload, b.overload);
        let c = Experiment::run_serving(spec, &sched, Some(policy), 43);
        assert_ne!(a.overload.unwrap().offered, c.overload.unwrap().offered);
    }

    #[test]
    fn zero_rate_schedule_serves_nothing() {
        let sched = RateSchedule::constant(0.0, SimTime::from_secs(60)).unwrap();
        let spec = ExperimentSpec::serving(PoolConfig::baseline(), sched.horizon());
        let m = Experiment::run_serving(spec, &sched, None, 1);
        let o = m.overload.unwrap();
        assert_eq!(o.offered, 0);
        assert_eq!(m.completed, 0);
    }
}
