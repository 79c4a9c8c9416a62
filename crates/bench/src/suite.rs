//! The default benchmark suite: one [`Benchmark`] per load-bearing path
//! named by the roadmap.
//!
//! * [`DesMm1Bench`] — the DES event loop: queue push/pop/cancel under an
//!   M/M/1 workload with per-job timeouts (most timeouts are cancelled,
//!   so the cancellation path is exercised as hard as scheduling).
//! * [`ProcShareChurnBench`] — the engine's processor-sharing CPU model:
//!   64 jobs started and drained completion by completion on a 40-core
//!   [`ProcShare`].
//! * [`PlantnetRunBench`] — a full 600 s simulated Pl@ntNet engine run at
//!   the paper's 80-client workload.
//! * [`BayesCycleBench`] — a 50-trial Bayesian optimization cycle
//!   (Extra-Trees fit + `gp_hedge` ask per suggestion).
//! * [`SurrogateFitBench`] — the surrogate work of one late suggestion:
//!   a 50-tree Extra-Trees fit on 320 rows plus one 512-candidate batch
//!   prediction.
//! * [`JournalWalBench`] — WAL append (fsync'd) + recovery-scan replay.
//! * [`JournalWireBench`] — the escaped-TSV wire codec alone
//!   (`RunEvent::to_line` / `RunEvent::parse`), no I/O.
//! * [`DetlintWorkspaceBench`] — analyzer throughput: the full detlint
//!   pipeline (lexer, test-region detection, all rule families,
//!   suppression matching) over a synthetic in-memory workspace.
//! * [`WorkerFarmOverheadBench`] — the multi-process trial farm's
//!   dispatch tax: asks round-tripped through live `e2clab worker`
//!   processes running a near-free builtin objective.
//! * [`ServingEpochBench`] — one serving epoch under overload: an
//!   open-loop run at the 2.5M-users/day spring-peak rate against the
//!   baseline pools, with bounded admission and deadline shedding.
//!
//! Every suite benchmark carries the `smoke` tag so
//! `e2clab bench --filter smoke` (the CI job) runs them all.

use crate::harness::{BenchPolicy, BenchRegistry, Benchmark};
use e2c_des::resources::ProcShare;
use e2c_des::{Context, Dist, Model, SimTime, Simulation};
use e2c_optim::bayes::BayesOpt;
use e2c_optim::space::Space;
use e2c_optim::surrogate::SurrogateKind;
use e2c_tune::journal::RunEvent;
use e2c_tune::TrialError;
use plantnet::sim::{Experiment, ExperimentSpec};
use plantnet::PoolConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;

/// The registry with every suite benchmark registered, ready for
/// `with_*` configuration and [`BenchRegistry::run`].
pub fn default_registry() -> BenchRegistry {
    BenchRegistry::new()
        .register(DesMm1Bench::new())
        .register(ProcShareChurnBench)
        .register(PlantnetRunBench::new())
        .register(BayesCycleBench::new())
        .register(SurrogateFitBench::new())
        .register(JournalWalBench::new())
        .register(JournalWireBench::new())
        .register(DetlintWorkspaceBench::new())
        .register(WorkerFarmOverheadBench::new())
        .register(ServingEpochBench::new())
}

// ---------------------------------------------------------------------------
// DES event loop
// ---------------------------------------------------------------------------

/// M/M/1 queue with a per-job timeout event that is cancelled when the job
/// completes in time — the common DES pattern that stresses all three
/// event-queue operations (schedule, pop, cancel).
struct Mm1 {
    interarrival: Dist,
    service: Dist,
    timeout: SimTime,
    horizon: SimTime,
    /// Jobs waiting for the server: `(job id, timeout handle)`.
    waiting: VecDeque<(u64, e2c_des::EventHandle)>,
    /// The job in service, with its timeout handle.
    in_service: Option<(u64, e2c_des::EventHandle)>,
    next_job: u64,
    served: u64,
    timed_out: u64,
}

enum Mm1Ev {
    Arrive,
    Depart,
    Timeout(u64),
}

impl Model for Mm1 {
    type Event = Mm1Ev;

    fn handle(&mut self, ctx: &mut Context<'_, Mm1Ev>, event: Mm1Ev) {
        match event {
            Mm1Ev::Arrive => {
                let job = self.next_job;
                self.next_job += 1;
                let timeout = ctx.schedule_in(self.timeout, Mm1Ev::Timeout(job));
                if self.in_service.is_none() {
                    let s = SimTime::from_secs_f64(self.service.sample(ctx.rng()));
                    ctx.schedule_in(s, Mm1Ev::Depart);
                    self.in_service = Some((job, timeout));
                } else {
                    self.waiting.push_back((job, timeout));
                }
                if ctx.now() < self.horizon {
                    let a = SimTime::from_secs_f64(self.interarrival.sample(ctx.rng()));
                    ctx.schedule_in(a, Mm1Ev::Arrive);
                }
            }
            Mm1Ev::Depart => {
                if let Some((_, timeout)) = self.in_service.take() {
                    ctx.cancel(timeout);
                    self.served += 1;
                }
                if let Some((job, timeout)) = self.waiting.pop_front() {
                    let s = SimTime::from_secs_f64(self.service.sample(ctx.rng()));
                    ctx.schedule_in(s, Mm1Ev::Depart);
                    self.in_service = Some((job, timeout));
                }
            }
            Mm1Ev::Timeout(job) => {
                // Fires only for jobs still waiting (in-service and
                // completed jobs cancelled theirs): the job abandons.
                if let Some(i) = self.waiting.iter().position(|&(j, _)| j == job) {
                    self.waiting.remove(i);
                    self.timed_out += 1;
                }
            }
        }
    }
}

/// DES event-loop benchmark (`crates/des`): ~120 k arrivals per iteration
/// through [`Simulation::run`], heavy on cancellations.
pub struct DesMm1Bench {
    seed: u64,
}

impl DesMm1Bench {
    pub fn new() -> Self {
        DesMm1Bench { seed: 0 }
    }
}

impl Default for DesMm1Bench {
    fn default() -> Self {
        Self::new()
    }
}

impl Benchmark for DesMm1Bench {
    fn name(&self) -> &'static str {
        "des_mm1"
    }
    fn tags(&self) -> &'static [&'static str] {
        &["smoke", "des"]
    }
    fn policy(&self) -> BenchPolicy {
        BenchPolicy::new(2, 7)
    }
    fn setup(&mut self, seed: u64) {
        self.seed = seed;
    }
    fn iter(&mut self, round: u64) -> u64 {
        // ρ = 0.8 with a timeout deep enough that most jobs finish first:
        // the cancel path dominates over the timeout-fires path.
        let horizon = SimTime::from_secs(120_000);
        let model = Mm1 {
            interarrival: Dist::Exp { mean: 1.0 },
            service: Dist::Exp { mean: 0.8 },
            timeout: SimTime::from_secs(25),
            horizon,
            waiting: VecDeque::new(),
            in_service: None,
            next_job: 0,
            served: 0,
            timed_out: 0,
        };
        let mut sim = Simulation::new(model, self.seed ^ round.wrapping_mul(0x9E37));
        sim.schedule(SimTime::ZERO, Mm1Ev::Arrive);
        // Drain fully (the arrival chain stops at the horizon).
        sim.run()
    }
}

// ---------------------------------------------------------------------------
// Processor-sharing churn
// ---------------------------------------------------------------------------

/// Processor-sharing benchmark (`crates/des` resources): 64 jobs start
/// 100 µs apart on a 40-core [`ProcShare`], then drain completion by
/// completion — the start / next-completion / remove cycle the Pl@ntNet
/// engine runs per request. One iteration repeats the churn 1 000 times;
/// the workload is fixed, so the seed is unused.
pub struct ProcShareChurnBench;

impl Benchmark for ProcShareChurnBench {
    fn name(&self) -> &'static str {
        "procshare_churn"
    }
    fn tags(&self) -> &'static [&'static str] {
        &["smoke", "des"]
    }
    fn policy(&self) -> BenchPolicy {
        BenchPolicy::new(2, 7)
    }
    fn iter(&mut self, _round: u64) -> u64 {
        let mut completed = 0;
        for _ in 0..1_000 {
            let mut cpu = ProcShare::cores(40.0);
            let mut now = SimTime::ZERO;
            for id in 0..64u64 {
                cpu.start(now, id, 0.5, 1.0);
                now += SimTime::from_micros(100);
            }
            while let Some((at, id)) = cpu.next_completion(now) {
                now = at;
                cpu.remove(now, id);
                completed += 1;
            }
        }
        completed
    }
}

// ---------------------------------------------------------------------------
// Pl@ntNet engine run
// ---------------------------------------------------------------------------

/// Full Pl@ntNet engine simulation (`crates/plantnet`): 600 simulated
/// seconds at the paper's 80-client closed loop, baseline pool sizes.
pub struct PlantnetRunBench {
    seed: u64,
}

impl PlantnetRunBench {
    pub fn new() -> Self {
        PlantnetRunBench { seed: 0 }
    }
}

impl Default for PlantnetRunBench {
    fn default() -> Self {
        Self::new()
    }
}

impl Benchmark for PlantnetRunBench {
    fn name(&self) -> &'static str {
        "plantnet_600s"
    }
    fn tags(&self) -> &'static [&'static str] {
        &["smoke", "plantnet"]
    }
    fn policy(&self) -> BenchPolicy {
        BenchPolicy::new(1, 5)
    }
    fn setup(&mut self, seed: u64) {
        self.seed = seed;
    }
    fn iter(&mut self, round: u64) -> u64 {
        let mut spec = ExperimentSpec::paper(PoolConfig::baseline(), 80);
        spec.duration = SimTime::from_secs(600);
        spec.warmup = SimTime::from_secs(60);
        let metrics = Experiment::run(spec, self.seed.wrapping_add(round));
        metrics.completed
    }
}

// ---------------------------------------------------------------------------
// Bayesian optimization cycle
// ---------------------------------------------------------------------------

/// 50-trial Bayesian cycle (`crates/optim`): Extra-Trees surrogate refit
/// plus a `gp_hedge` candidate ranking per suggestion, over a
/// paper-shaped 4-dimensional integer space.
pub struct BayesCycleBench {
    seed: u64,
}

impl BayesCycleBench {
    pub fn new() -> Self {
        BayesCycleBench { seed: 0 }
    }
}

impl Default for BayesCycleBench {
    fn default() -> Self {
        Self::new()
    }
}

impl Benchmark for BayesCycleBench {
    fn name(&self) -> &'static str {
        "bayes_cycle50"
    }
    fn tags(&self) -> &'static [&'static str] {
        &["smoke", "optim"]
    }
    fn policy(&self) -> BenchPolicy {
        BenchPolicy::new(1, 5)
    }
    fn setup(&mut self, seed: u64) {
        self.seed = seed;
    }
    fn iter(&mut self, round: u64) -> u64 {
        let space = Space::new()
            .int("http", 2, 60)
            .int("download", 2, 40)
            .int("simsearch", 2, 30)
            .int("extract", 2, 20);
        let mut opt = BayesOpt::new(space, self.seed.wrapping_add(round)).n_initial_points(10);
        let trials = 50u64;
        for _ in 0..trials {
            let p = opt.ask();
            // A deterministic stand-in objective with the response-surface
            // shape of the engine (sweet spot mid-space).
            let y = (p[0] - 40.0).powi(2) / 16.0
                + (p[1] - 24.0).powi(2) / 9.0
                + (p[2] - 11.0).powi(2) / 4.0
                + (p[3] - 9.0).powi(2);
            opt.tell(p, y);
        }
        trials
    }
}

/// Surrogate fit + ranking (`crates/optim/src/surrogate`): a 50-tree
/// Extra-Trees fit on 320 observations of a 4-integer space in unit
/// coordinates, then one 512-candidate `predict_many` — the work of one
/// suggestion late in a 320-trial run. Units are suggestions.
pub struct SurrogateFitBench {
    seed: u64,
    x: Vec<Vec<f64>>,
    y: Vec<f64>,
    candidates: Vec<Vec<f64>>,
}

impl SurrogateFitBench {
    pub fn new() -> Self {
        SurrogateFitBench {
            seed: 0,
            x: Vec::new(),
            y: Vec::new(),
            candidates: Vec::new(),
        }
    }
}

impl Default for SurrogateFitBench {
    fn default() -> Self {
        Self::new()
    }
}

impl Benchmark for SurrogateFitBench {
    fn name(&self) -> &'static str {
        "surrogate_fit"
    }
    fn tags(&self) -> &'static [&'static str] {
        &["smoke", "optim"]
    }
    fn policy(&self) -> BenchPolicy {
        BenchPolicy::new(2, 15)
    }
    fn setup(&mut self, seed: u64) {
        let space = Space::plantnet();
        let mut rng = StdRng::seed_from_u64(seed);
        self.seed = seed;
        self.x = (0..320)
            .map(|_| space.to_unit(&space.sample(&mut rng)))
            .collect();
        // The engine's response-surface shape: a sweet spot mid-space.
        self.y = self
            .x
            .iter()
            .map(|u| (u[0] - 0.5).powi(2) + (u[1] - 0.35).powi(2) + (u[3] - 0.5).abs())
            .collect();
        self.candidates = (0..512)
            .map(|_| space.to_unit(&space.sample(&mut rng)))
            .collect();
    }
    fn iter(&mut self, round: u64) -> u64 {
        let mut model = SurrogateKind::ExtraTrees.build(self.seed.wrapping_add(round));
        model.fit(&self.x, &self.y);
        std::hint::black_box(model.predict_many(&self.candidates));
        1
    }
}

// ---------------------------------------------------------------------------
// Journal: WAL + wire codec
// ---------------------------------------------------------------------------

/// A realistic mix of run-journal events (asks with 4-dim configs,
/// scheduler reports, attempt outcomes, tells with trace marks).
fn journal_events(n: usize, seed: u64) -> Vec<RunEvent> {
    let mut events = Vec::with_capacity(n + 1);
    events.push(RunEvent::meta(format!(
        "bench-journal;seed={seed};space=4d;faults=none"
    )));
    let mut trial = 0u64;
    while events.len() < n {
        let t = trial;
        let frac = (t.wrapping_mul(seed | 1) % 1000) as f64 / 1000.0;
        events.push(RunEvent::Ask {
            trial: t,
            config: vec![2.0 + frac * 58.0, 24.0, 11.0 + frac, 9.0],
        });
        events.push(RunEvent::Report {
            trial: t,
            iteration: 1,
            normalized: 0.25 + frac,
            stop: t.is_multiple_of(7),
        });
        events.push(RunEvent::Attempt {
            trial: t,
            index: 0,
            secs: 0.125 + frac,
            raw: Some(840.0 + frac * 100.0),
            error: if t % 11 == 3 {
                Some(TrialError::Injected("injected fault: scripted".to_string()))
            } else {
                None
            },
        });
        events.push(RunEvent::Tell {
            trial: t,
            feedback: 840.0 + frac * 100.0,
            status: "terminated".to_string(),
            value: Some(840.0 + frac * 100.0),
            trace_mark: Some((t * 12, t * 1000)),
            asks: Some(t + 1),
        });
        trial += 1;
    }
    events.truncate(n);
    events
}

/// WAL throughput (`crates/journal`): fsync'd appends of realistic
/// journal records, then a recovery scan + parse of the whole log.
pub struct JournalWalBench {
    events: Vec<RunEvent>,
}

impl JournalWalBench {
    pub fn new() -> Self {
        JournalWalBench { events: Vec::new() }
    }
}

impl Default for JournalWalBench {
    fn default() -> Self {
        Self::new()
    }
}

impl Benchmark for JournalWalBench {
    fn name(&self) -> &'static str {
        "journal_wal"
    }
    fn tags(&self) -> &'static [&'static str] {
        &["smoke", "journal"]
    }
    fn policy(&self) -> BenchPolicy {
        BenchPolicy::new(1, 5)
    }
    fn setup(&mut self, seed: u64) {
        self.events = journal_events(400, seed);
    }
    fn iter(&mut self, round: u64) -> u64 {
        let path =
            std::env::temp_dir().join(format!("e2c-bench-wal-{}-{round}.wal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let mut wal = e2c_journal::Wal::create(&path).expect("create bench WAL");
        for event in &self.events {
            wal.append(event.to_line().as_bytes()).expect("append");
        }
        drop(wal);
        // Replay: recovery scan + wire parse, as `--resume` does.
        let (_, records) = e2c_journal::Wal::open(&path).expect("open bench WAL");
        let mut parsed = 0u64;
        for record in &records {
            let line = std::str::from_utf8(record).expect("utf8 record");
            std::hint::black_box(RunEvent::parse(line).expect("parse record"));
            parsed += 1;
        }
        let _ = std::fs::remove_file(&path);
        self.events.len() as u64 + parsed
    }
}

/// Wire-codec throughput (`crates/tune/src/journal.rs`): encode + parse
/// round-trips of the escaped-TSV format, no filesystem.
pub struct JournalWireBench {
    events: Vec<RunEvent>,
}

impl JournalWireBench {
    pub fn new() -> Self {
        JournalWireBench { events: Vec::new() }
    }
}

impl Default for JournalWireBench {
    fn default() -> Self {
        Self::new()
    }
}

impl Benchmark for JournalWireBench {
    fn name(&self) -> &'static str {
        "journal_wire"
    }
    fn tags(&self) -> &'static [&'static str] {
        &["smoke", "journal"]
    }
    fn policy(&self) -> BenchPolicy {
        BenchPolicy::new(3, 15)
    }
    fn setup(&mut self, seed: u64) {
        self.events = journal_events(2000, seed);
    }
    fn iter(&mut self, _round: u64) -> u64 {
        let mut bytes = 0usize;
        for event in &self.events {
            let line = event.to_line();
            bytes += line.len();
            std::hint::black_box(RunEvent::parse(&line).expect("roundtrip"));
        }
        std::hint::black_box(bytes);
        self.events.len() as u64
    }
}

// ---------------------------------------------------------------------------
// detlint analyzer throughput
// ---------------------------------------------------------------------------

/// One synthetic source file exercising every analyzer stage: ordinary
/// code, string/comment stripping, unordered containers, panic/IO/lock
/// sites, suppressions and a test module. Content varies with `(seed,
/// index)` but is fully deterministic.
fn synthetic_source(seed: u64, index: u64) -> String {
    use std::fmt::Write as _;
    let mut src = String::with_capacity(4096);
    let salt = seed.wrapping_mul(0x9E37_79B9).wrapping_add(index);
    src.push_str("//! Synthetic detlint workload file.\n");
    src.push_str("use std::collections::HashMap;\n\n");
    for block in 0..12u64 {
        let v = salt.wrapping_add(block);
        let _ = writeln!(src, "fn work_{index}_{block}(xs: &[u64]) -> u64 {{");
        let _ = writeln!(src, "    let mut map: HashMap<u64, u64> = HashMap::new();");
        let _ = writeln!(src, "    map.insert({v}, xs.len() as u64);");
        match v % 5 {
            0 => {
                let _ = writeln!(src, "    let head = xs.first().unwrap(); // panic site");
                let _ = writeln!(src, "    *head + xs[{}]", v % 7);
            }
            1 => {
                let _ = writeln!(src, "    // detlint: allow(PANIC003) bench corpus");
                let _ = writeln!(src, "    xs[0]");
            }
            2 => {
                let _ = writeln!(src, "    let s = r#\"raw {v} \"quoted\" body\"#;");
                let _ = writeln!(src, "    /* nested /* comment */ here */ s.len() as u64");
            }
            3 => {
                let _ = writeln!(src, "    std::fs::write(\"out.json\", b\"{v}\").ok();");
                let _ = writeln!(src, "    xs.iter().sum::<u64>()");
            }
            _ => {
                let _ = writeln!(src, "    let g = LOCKS.lock();");
                let _ = writeln!(src, "    g.append(&[{v}]).ok();");
                let _ = writeln!(src, "    0");
            }
        }
        src.push_str("}\n\n");
    }
    src.push_str("#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n");
    src.push_str(
        "        assert_eq!(super::work_0_0(&[1]).to_string().parse::<u64>().unwrap(), 1);\n",
    );
    src.push_str("    }\n}\n");
    src
}

/// Analyzer throughput (`crates/detlint`): lex + all rule families +
/// suppression matching over a synthetic 48-file workspace held in
/// memory, so the number tracks the analyzer, not the disk. Units are
/// source lines processed.
pub struct DetlintWorkspaceBench {
    /// `(path label, source)` pairs, regenerated per seed.
    files: Vec<(String, String)>,
    config: detlint::Config,
}

impl DetlintWorkspaceBench {
    pub fn new() -> Self {
        DetlintWorkspaceBench {
            files: Vec::new(),
            config: detlint::Config::default(),
        }
    }
}

impl Default for DetlintWorkspaceBench {
    fn default() -> Self {
        Self::new()
    }
}

impl Benchmark for DetlintWorkspaceBench {
    fn name(&self) -> &'static str {
        "detlint_workspace"
    }
    fn tags(&self) -> &'static [&'static str] {
        &["smoke", "detlint"]
    }
    fn policy(&self) -> BenchPolicy {
        BenchPolicy::new(2, 10)
    }
    fn setup(&mut self, seed: u64) {
        self.files = (0..48)
            .map(|i| {
                (
                    format!("crates/synthetic/src/file_{i:02}.rs"),
                    synthetic_source(seed, i),
                )
            })
            .collect();
        let mut config = detlint::Config::default();
        // Scope the token families onto the synthetic corpus so every
        // rule pass runs (the realistic worst case for throughput).
        config.critical_paths.push("crates/synthetic/".to_string());
        config.artifact_paths.push("crates/synthetic/".to_string());
        self.config = config;
    }
    fn iter(&mut self, _round: u64) -> u64 {
        let mut lines = 0u64;
        for (path, text) in &self.files {
            std::hint::black_box(detlint::lint_source(path, text, &self.config));
            lines += text.lines().count() as u64;
        }
        lines
    }
}

// ---------------------------------------------------------------------------
// worker-farm dispatch overhead
// ---------------------------------------------------------------------------

/// Locate a binary that speaks the `e2clab worker` protocol.
///
/// * `E2C_WORKER_BIN` overrides everything (CI and local experiments);
/// * when the running process *is* `e2clab` (the `e2clab bench` path),
///   it serves as its own worker;
/// * under `cargo test` the current executable is a test harness, so the
///   workspace's `e2clab` binary is searched for next to it
///   (`target/<profile>/e2clab`, one directory above `deps/`).
fn worker_binary() -> Option<std::path::PathBuf> {
    if let Some(path) = std::env::var_os("E2C_WORKER_BIN") {
        return Some(std::path::PathBuf::from(path));
    }
    let exe = std::env::current_exe().ok()?;
    if exe.file_stem().is_some_and(|s| s == "e2clab") {
        return Some(exe);
    }
    let mut dir = exe.parent()?;
    for _ in 0..3 {
        for name in ["e2clab", "e2clab.exe"] {
            let candidate = dir.join(name);
            if candidate.is_file() {
                return Some(candidate);
            }
        }
        dir = dir.parent()?;
    }
    None
}

/// Multi-process farm dispatch overhead (`crates/tune/src/farm.rs`): asks
/// round-tripped through live `e2clab worker --builtin quad` processes —
/// frame encode, pipe write, worker turnaround, result parse, supervisor
/// bookkeeping — with the objective itself near-free, so the number *is*
/// the farm tax per evaluation. Units are completed asks.
pub struct WorkerFarmOverheadBench {
    farm: Option<e2c_tune::WorkerFarm>,
    trial: u64,
}

impl WorkerFarmOverheadBench {
    pub fn new() -> Self {
        WorkerFarmOverheadBench {
            farm: None,
            trial: 0,
        }
    }

    /// Asks dispatched per iteration.
    const ASKS: u64 = 64;
}

impl Default for WorkerFarmOverheadBench {
    fn default() -> Self {
        Self::new()
    }
}

impl Benchmark for WorkerFarmOverheadBench {
    fn name(&self) -> &'static str {
        "worker_farm_overhead"
    }
    fn tags(&self) -> &'static [&'static str] {
        &["smoke", "farm"]
    }
    fn policy(&self) -> BenchPolicy {
        BenchPolicy::new(1, 5)
    }
    fn setup(&mut self, seed: u64) {
        let bin = worker_binary().expect(
            "no `e2clab` binary found for the farm bench: build the workspace \
             (cargo build) or point E2C_WORKER_BIN at one",
        );
        let spec = e2c_tune::FarmSpec::new(
            bin,
            vec![
                "worker".to_string(),
                "--builtin".to_string(),
                "quad".to_string(),
            ],
            2,
            seed,
        );
        self.farm = Some(e2c_tune::WorkerFarm::launch(spec).expect("launch farm"));
        self.trial = 0;
    }
    fn iter(&mut self, _round: u64) -> u64 {
        let farm = self.farm.as_ref().expect("setup ran");
        for i in 0..Self::ASKS {
            let config = [self.trial as f64, (i % 7) as f64, 1.0];
            let outcome = farm
                .execute(self.trial, 0, &config, None)
                .expect("farm ask");
            match outcome {
                e2c_tune::FarmOutcome::Value { value, .. } => {
                    std::hint::black_box(value);
                }
                e2c_tune::FarmOutcome::Panicked { payload } => {
                    panic!("builtin quad objective panicked: {payload}")
                }
            }
            self.trial += 1;
        }
        Self::ASKS
    }
}

// ---------------------------------------------------------------------------
// open-loop serving epoch
// ---------------------------------------------------------------------------

/// One serving epoch under overload (`crates/plantnet` serving path +
/// `crates/workload` thinning): 120 simulated seconds of open-loop
/// arrivals at the 2.5M-users/day spring-peak rate (~55 req/s) against
/// the baseline pools, with a bounded admission queue and deadline
/// shedding — the hot loop behind every `e2clab serve` trial. Units are
/// offered arrivals processed.
pub struct ServingEpochBench {
    seed: u64,
}

impl ServingEpochBench {
    pub fn new() -> Self {
        ServingEpochBench { seed: 0 }
    }
}

impl Default for ServingEpochBench {
    fn default() -> Self {
        Self::new()
    }
}

impl Benchmark for ServingEpochBench {
    fn name(&self) -> &'static str {
        "serving_epoch"
    }
    fn tags(&self) -> &'static [&'static str] {
        &["smoke", "plantnet", "serve"]
    }
    fn policy(&self) -> BenchPolicy {
        BenchPolicy::new(1, 5)
    }
    fn setup(&mut self, seed: u64) {
        self.seed = seed;
    }
    fn iter(&mut self, round: u64) -> u64 {
        // The May peak of a 2.5M-users/day trace: mean ~29 req/s times
        // the 1.9× seasonal factor, saturating the baseline engine so
        // rejection, shedding and SLO accounting are all on the path.
        let schedule = e2c_workload::RateSchedule::constant(55.0, SimTime::from_secs(120))
            .expect("valid rate");
        let spec =
            plantnet::sim::ExperimentSpec::serving(PoolConfig::baseline(), schedule.horizon());
        let metrics = Experiment::run_serving(
            spec,
            &schedule,
            Some(plantnet::OverloadPolicy::paper_slo(64)),
            self.seed.wrapping_add(round),
        );
        let overload = metrics.overload.expect("serving run has overload totals");
        overload.offered
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_registry_names_cover_the_roadmap_paths() {
        let reg = default_registry();
        assert_eq!(
            reg.selected(),
            vec![
                "des_mm1",
                "procshare_churn",
                "plantnet_600s",
                "bayes_cycle50",
                "surrogate_fit",
                "journal_wal",
                "journal_wire",
                "detlint_workspace",
                "worker_farm_overhead",
                "serving_epoch"
            ]
        );
        // Every suite benchmark answers the CI smoke filter.
        assert_eq!(default_registry().with_filter("smoke").selected().len(), 10);
    }

    #[test]
    fn serving_epoch_bench_saturates_and_is_deterministic() {
        let mut a = ServingEpochBench::new();
        let mut b = ServingEpochBench::new();
        a.setup(7);
        b.setup(7);
        assert_eq!(a.iter(0), b.iter(0));
        // 55 req/s over 120 s: thousands of offered arrivals.
        assert!(a.iter(1) > 5_000);
    }

    #[test]
    fn detlint_bench_finds_real_findings_deterministically() {
        let mut a = DetlintWorkspaceBench::new();
        a.setup(3);
        let (path, text) = &a.files[0];
        let findings = detlint::lint_source(path, text, &a.config);
        // The synthetic corpus must exercise the token families for the
        // throughput number to mean anything.
        assert!(
            findings
                .iter()
                .any(|f| f.rule.code().starts_with("PANIC") || f.rule.code() == "IO001"),
            "{findings:?}"
        );
        let mut b = DetlintWorkspaceBench::new();
        b.setup(3);
        assert_eq!(a.iter(0), b.iter(0));
    }

    #[test]
    fn procshare_churn_drains_every_job() {
        assert_eq!(ProcShareChurnBench.iter(0), 64_000);
    }

    #[test]
    fn mm1_workload_is_seed_deterministic() {
        let mut a = DesMm1Bench::new();
        let mut b = DesMm1Bench::new();
        a.setup(7);
        b.setup(7);
        // Same seed+round ⇒ same event count; different round ⇒ different
        // workload instance (still the same size class).
        assert_eq!(a.iter(0), b.iter(0));
        assert!(a.iter(1) > 100_000);
    }

    #[test]
    fn journal_events_roundtrip_and_cover_variants() {
        let events = journal_events(40, 3);
        assert!(matches!(events[0], RunEvent::Meta { .. }));
        let mut kinds = std::collections::BTreeSet::new();
        for e in &events {
            kinds.insert(match e {
                RunEvent::Meta { .. } => "meta",
                RunEvent::Ask { .. } => "ask",
                RunEvent::Report { .. } => "report",
                RunEvent::Attempt { .. } => "attempt",
                RunEvent::Tell { .. } => "tell",
                _ => "other",
            });
            assert_eq!(&RunEvent::parse(&e.to_line()).unwrap(), e);
        }
        assert!(kinds.contains("ask") && kinds.contains("tell") && kinds.contains("attempt"));
    }
}
