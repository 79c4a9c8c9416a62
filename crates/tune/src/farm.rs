//! Parent side of the multi-process trial farm: process wrangling around
//! the pure [`crate::supervisor::Supervisor`].
//!
//! A [`WorkerFarm`] spawns `workers` copies of a worker command (in
//! production, `e2clab worker …`), speaks the framed stdio protocol of
//! [`crate::worker`] to them, and exposes one blocking call —
//! [`WorkerFarm::execute`] — that a caller's objective (in production,
//! the `e2clab` cycle's) uses in place of running the evaluation in
//! process; the optimization manager never sees the farm. Everything
//! decision-bearing stays in the parent: the farm moves only the
//! *execution* of an attempt out of process, so `evaluations.csv`,
//! `trials.jsonl` and `trace.jsonl` are byte-identical to an in-process
//! run at any worker count.
//!
//! ## Crash tolerance
//!
//! Worker death in any form — process exit, EOF on its pipe, a frame
//! that fails CRC or parse, a missed heartbeat deadline — funnels into
//! one path: the supervisor marks the slot dead, the orphaned ask (if
//! any) resolves as *lost*, and the waiting `execute` call transparently
//! re-dispatches it to another worker while the monitor respawns the
//! dead slot under seeded backoff. Only when the re-dispatch budget is
//! spent (or every slot is terminally dead) does the attempt surface a
//! typed [`TrialError::WorkerLost`] into the ordinary retry machinery.
//! An isolated `SIGKILL` therefore never shows up in the artifacts at
//! all — which is exactly what the chaos gate asserts.
//!
//! Worker lifecycle noise (spawns, losses, respawns) goes to stderr,
//! deliberately *not* to the trace: the trace must replay byte-identically
//! across worker counts and kill schedules.

use std::collections::{BTreeSet, HashMap};
use std::io::BufReader;
use std::path::PathBuf;
use std::process::{Child, ChildStdin, ChildStdout, Command, ExitStatus, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use crate::clock;
use crate::fault::RetryPolicy;
use crate::supervisor::{SlotState, Supervisor};
use crate::trial::TrialError;
use crate::worker::{read_frame, write_frame, WireMsg, WorkerAsk, PROTOCOL_VERSION};

/// How long shutdown waits for the workers to exit on their own before
/// SIGKILLing the stragglers.
const SHUTDOWN_GRACE: Duration = Duration::from_millis(500);

/// How the farm spawns and supervises its workers.
#[derive(Debug, Clone)]
pub struct FarmSpec {
    /// The worker executable.
    pub program: PathBuf,
    /// Its arguments (e.g. `["worker", "--conf", "cluster.yaml"]`).
    pub args: Vec<String>,
    /// Number of worker processes.
    pub workers: usize,
    /// A worker silent this long is declared stalled and killed. Must be
    /// comfortably larger than the 250 ms heartbeat interval.
    pub heartbeat_timeout: Duration,
    /// Per-slot respawn budget after crashes.
    pub max_respawns: u32,
    /// How many times one ask may be re-dispatched after losing its
    /// worker before the attempt fails with
    /// [`TrialError::WorkerLost`].
    pub redispatch_budget: u32,
    /// Seeds the deterministic respawn backoff.
    pub seed: u64,
    /// Backoff shape for respawns (delay before restarting a dead slot).
    pub respawn_backoff: RetryPolicy,
    /// Chaos hook for the crash gates: `(worker, n)` SIGKILLs worker
    /// `worker` immediately after the `n`-th ask (1-based) is dispatched
    /// to it — i.e. mid-trial, the worst possible moment.
    pub kill_after: Option<(usize, u64)>,
}

impl FarmSpec {
    /// A spec with production defaults: 2 s heartbeat deadline, 3
    /// respawns per slot, a re-dispatch budget of `2 × workers`, and a
    /// 100 ms-based exponential respawn backoff.
    pub fn new(program: PathBuf, args: Vec<String>, workers: usize, seed: u64) -> Self {
        FarmSpec {
            program,
            args,
            workers: workers.max(1),
            heartbeat_timeout: Duration::from_secs(2),
            max_respawns: 3,
            redispatch_budget: 2 * workers.max(1) as u32,
            seed,
            respawn_backoff: RetryPolicy {
                max_retries: u32::MAX,
                base_delay: Duration::from_millis(100),
                factor: 2.0,
                max_delay: Duration::from_secs(2),
                jitter: 0.5,
            },
            kill_after: None,
        }
    }
}

/// What a farmed attempt produced (infrastructure failures are the `Err`
/// side of [`WorkerFarm::execute`]).
#[derive(Debug)]
pub enum FarmOutcome {
    /// The objective returned; the value is classified by the tuner
    /// exactly as an in-process return would be.
    Value {
        /// The objective's raw return.
        value: f64,
        /// Auxiliary pairs carrying the evaluation's side artifacts back
        /// to the calling objective.
        aux: Vec<(String, String)>,
    },
    /// The objective panicked in the worker. The caller re-raises the
    /// payload so the tuner's panic classification sees the exact string
    /// an in-process panic would have produced.
    Panicked {
        /// The panic payload.
        payload: String,
    },
}

/// How one worker process ended when its farm shut down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerExit {
    /// It closed its result stream within the grace period and exited
    /// with this status.
    Exited(ExitStatus),
    /// It was still running when the grace period ran out and was
    /// SIGKILLed.
    Killed,
}

/// A parsed successful reply, trace events decoded.
struct ParsedReply {
    value: f64,
    aux: Vec<(String, String)>,
    events: Vec<(e2c_trace::TraceEvent, bool)>,
    end_clock: u64,
}

/// Terminal resolution of one dispatched ask.
enum AskOutcome {
    Value(ParsedReply),
    Panicked(String),
    /// The worker was lost mid-ask; the string says how.
    Lost(String),
}

/// One live worker process.
struct Proc {
    child: Child,
    stdin: Option<ChildStdin>,
}

struct FarmState {
    sup: Supervisor,
    procs: Vec<Option<Proc>>,
    /// ticket → the `(trial, attempt)` it carries, for routing replies.
    inflight: HashMap<u64, (u64, u32)>,
    /// ticket → resolution, drained by the waiting `execute` call.
    results: HashMap<u64, AskOutcome>,
    /// Per-slot count of asks dispatched (drives `kill_after`).
    dispatched: Vec<u64>,
    kill_fired: bool,
    readers: Vec<std::thread::JoinHandle<()>>,
    /// `(worker, generation)` of every incarnation whose result stream
    /// reached end-of-stream: the process has exited, or is exiting.
    at_eof: BTreeSet<(usize, u64)>,
}

struct FarmInner {
    spec: FarmSpec,
    state: Mutex<FarmState>,
    cv: Condvar,
    /// Wakes the monitor: notified on every loss (a new respawn
    /// deadline) and at shutdown. Results and heartbeats only push stall
    /// deadlines later, so they leave the monitor asleep.
    monitor_cv: Condvar,
    epoch: Instant,
    down: AtomicBool,
}

impl FarmInner {
    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    /// Funnel for every flavour of worker loss. `generation` is the
    /// incarnation the caller observed; a stale generation means a newer
    /// process already owns the slot and the event is ignored.
    fn lose_worker(&self, worker: usize, generation: u64, reason: &str) {
        let now = self.now_ms();
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if st.sup.generation(worker) != Some(generation)
            || matches!(st.sup.state(worker), Some(SlotState::Dead { .. }))
        {
            return;
        }
        if let Some(mut proc) = st.procs[worker].take() {
            let _ = proc.child.kill();
            let _ = proc.child.wait();
        }
        if let Some(ticket) = st.sup.lost(worker, now) {
            st.inflight.remove(&ticket);
            st.results.insert(
                ticket,
                AskOutcome::Lost(format!("worker {worker} {reason}")),
            );
        }
        eprintln!("e2clab: farm: worker {worker} {reason}");
        self.cv.notify_all();
        self.monitor_cv.notify_one();
    }
}

/// A running farm. Cheap to share (`&self` methods, internal locking);
/// dropping it drains the workers (see [`WorkerFarm::shutdown`]).
pub struct WorkerFarm {
    inner: Arc<FarmInner>,
    monitor: Option<std::thread::JoinHandle<()>>,
}

impl WorkerFarm {
    /// Spawn the workers and start supervision. Fails if no worker can
    /// be spawned at all; individual spawn failures consume that slot's
    /// respawn budget instead.
    pub fn launch(spec: FarmSpec) -> Result<WorkerFarm, String> {
        let workers = spec.workers;
        let sup = Supervisor::new(
            workers,
            spec.heartbeat_timeout.as_millis() as u64,
            spec.max_respawns,
            spec.seed,
            spec.respawn_backoff,
        );
        let inner = Arc::new(FarmInner {
            spec,
            state: Mutex::new(FarmState {
                sup,
                procs: (0..workers).map(|_| None).collect(),
                inflight: HashMap::new(),
                results: HashMap::new(),
                dispatched: vec![0; workers],
                kill_fired: false,
                readers: Vec::new(),
                at_eof: BTreeSet::new(),
            }),
            cv: Condvar::new(),
            monitor_cv: Condvar::new(),
            epoch: clock::now(),
            down: AtomicBool::new(false),
        });
        let mut spawned = 0;
        for worker in 0..workers {
            match spawn_process(&inner.spec) {
                Ok((proc, stdout)) => {
                    let mut st = inner.state.lock().unwrap_or_else(PoisonError::into_inner);
                    st.procs[worker] = Some(proc);
                    let generation = st.sup.generation(worker).unwrap_or(0);
                    let handle = spawn_reader(Arc::clone(&inner), worker, generation, stdout);
                    st.readers.push(handle);
                    spawned += 1;
                }
                Err(e) => {
                    let mut st = inner.state.lock().unwrap_or_else(PoisonError::into_inner);
                    let now = inner.epoch.elapsed().as_millis() as u64;
                    st.sup.lost(worker, now);
                    eprintln!("e2clab: farm: worker {worker} failed to spawn: {e}");
                }
            }
        }
        if spawned == 0 {
            return Err(format!(
                "no worker could be spawned ({} requested)",
                workers
            ));
        }
        let monitor = {
            let inner = Arc::clone(&inner);
            std::thread::spawn(move || monitor_loop(&inner))
        };
        Ok(WorkerFarm {
            inner,
            monitor: Some(monitor),
        })
    }

    /// Run one attempt on some worker, blocking until it resolves.
    ///
    /// Waits for a free slot (the admission permit *is* the idle slot,
    /// so at most `workers` asks are in flight), ships the ask, and
    /// waits for the reply. A worker lost mid-ask is handled here:
    /// the ask transparently re-dispatches to another worker until the
    /// budget in [`FarmSpec::redispatch_budget`] is spent, at which
    /// point the attempt fails with [`TrialError::WorkerLost`] and the
    /// ordinary retry machinery takes over.
    ///
    /// On success the worker's trace buffer is spliced onto `tracer`
    /// (when given), reproducing byte-for-byte what an in-process traced
    /// attempt would have recorded.
    pub fn execute(
        &self,
        trial: u64,
        attempt: u32,
        config: &[f64],
        tracer: Option<&e2c_trace::Tracer>,
    ) -> Result<FarmOutcome, TrialError> {
        let mut redispatches = 0u32;
        loop {
            let ticket = self.dispatch(trial, attempt, config, tracer.is_some())?;
            let outcome = {
                let mut st = self
                    .inner
                    .state
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                loop {
                    if let Some(o) = st.results.remove(&ticket) {
                        break o;
                    }
                    st = self
                        .inner
                        .cv
                        .wait(st)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            };
            match outcome {
                AskOutcome::Value(parsed) => {
                    if let Some(tr) = tracer {
                        tr.splice(&parsed.events, parsed.end_clock);
                    }
                    return Ok(FarmOutcome::Value {
                        value: parsed.value,
                        aux: parsed.aux,
                    });
                }
                AskOutcome::Panicked(payload) => return Ok(FarmOutcome::Panicked { payload }),
                AskOutcome::Lost(reason) => {
                    redispatches += 1;
                    if redispatches > self.inner.spec.redispatch_budget {
                        return Err(TrialError::WorkerLost(format!(
                            "{reason} (re-dispatch budget of {} spent)",
                            self.inner.spec.redispatch_budget
                        )));
                    }
                    eprintln!(
                        "e2clab: farm: re-dispatching trial {trial} attempt {attempt} \
                         ({redispatches}/{})",
                        self.inner.spec.redispatch_budget
                    );
                }
            }
        }
    }

    /// Claim a slot and ship one ask; returns the ticket to wait on.
    fn dispatch(
        &self,
        trial: u64,
        attempt: u32,
        config: &[f64],
        traced: bool,
    ) -> Result<u64, TrialError> {
        let inner = &self.inner;
        let mut st = inner.state.lock().unwrap_or_else(PoisonError::into_inner);
        let (worker, ticket) = loop {
            if let Some(pair) = st.sup.try_assign(inner.now_ms()) {
                break pair;
            }
            if st.sup.all_lost() {
                return Err(TrialError::WorkerLost(format!(
                    "every worker is dead and the respawn budget is spent \
                     (trial {trial} attempt {attempt})"
                )));
            }
            st = inner.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        };
        st.inflight.insert(ticket, (trial, attempt));
        let ask = WireMsg::Ask(WorkerAsk {
            trial,
            attempt,
            traced,
            config: config.to_vec(),
        });
        // Ask frames are tiny and at most one is outstanding per worker,
        // so this write cannot fill the pipe; holding the lock keeps the
        // dispatch counter and the chaos kill atomic with it.
        let wrote = match st.procs[worker].as_mut().and_then(|p| p.stdin.as_mut()) {
            Some(stdin) => write_frame(stdin, &ask).map_err(|e| e.to_string()),
            None => Err("its stdin is already closed".to_string()),
        };
        st.dispatched[worker] += 1;
        let generation = st.sup.generation(worker).unwrap_or(0);
        match wrote {
            Ok(()) => {
                if let Some((target, nth)) = inner.spec.kill_after {
                    if !st.kill_fired && target == worker && st.dispatched[worker] >= nth {
                        st.kill_fired = true;
                        if let Some(proc) = st.procs[worker].as_mut() {
                            eprintln!(
                                "e2clab: farm: chaos kill of worker {worker} after ask {nth}"
                            );
                            let _ = proc.child.kill();
                            // The reader sees EOF and routes the loss.
                        }
                    }
                }
                Ok(ticket)
            }
            Err(e) => {
                drop(st);
                inner.lose_worker(worker, generation, &format!("rejected an ask: {e}"));
                // The loss just resolved our ticket; hand it back so the
                // caller's wait loop picks up the Lost outcome.
                Ok(ticket)
            }
        }
    }

    /// Whether the chaos kill of [`FarmSpec::kill_after`] has fired.
    pub fn kill_fired(&self) -> bool {
        let st = self
            .inner
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        st.kill_fired
    }

    /// Drain the workers and report how each ended: a `shutdown` frame
    /// each, then a wait for every worker's result stream to reach EOF
    /// within the grace period, then SIGKILL for the stragglers. Returns
    /// as soon as the last worker has exited. Dropping the farm does the
    /// same and discards the report.
    pub fn shutdown(mut self) -> Vec<WorkerExit> {
        self.close()
    }

    fn close(&mut self) -> Vec<WorkerExit> {
        let inner = &self.inner;
        inner.down.store(true, Ordering::SeqCst);
        let mut children = Vec::new();
        let mut st = inner.state.lock().unwrap_or_else(PoisonError::into_inner);
        for worker in 0..st.procs.len() {
            if let Some(mut p) = st.procs[worker].take() {
                if let Some(mut stdin) = p.stdin.take() {
                    let _ = write_frame(&mut stdin, &WireMsg::Shutdown);
                    // Dropping stdin closes the pipe: EOF backstops
                    // a worker that missed the frame.
                }
                let generation = st.sup.generation(worker).unwrap_or(0);
                children.push(((worker, generation), p.child));
            }
        }
        // The monitor exits on `down`.
        inner.monitor_cv.notify_one();
        let deadline = clock::now() + SHUTDOWN_GRACE;
        loop {
            let now = clock::now();
            if now >= deadline || children.iter().all(|(id, _)| st.at_eof.contains(id)) {
                break;
            }
            st = inner
                .cv
                .wait_timeout(st, deadline - now)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
        let at_eof = std::mem::take(&mut st.at_eof);
        let readers = std::mem::take(&mut st.readers);
        drop(st);
        // A worker holds its stdout until it exits, so EOF means the
        // process is gone or going and `wait` returns promptly.
        let exits = children
            .into_iter()
            .filter_map(|(id, mut child)| {
                if at_eof.contains(&id) {
                    child.wait().ok().map(WorkerExit::Exited)
                } else {
                    let _ = child.kill();
                    let _ = child.wait();
                    Some(WorkerExit::Killed)
                }
            })
            .collect();
        for handle in readers {
            let _ = handle.join();
        }
        if let Some(monitor) = self.monitor.take() {
            let _ = monitor.join();
        }
        exits
    }
}

impl Drop for WorkerFarm {
    fn drop(&mut self) {
        self.close();
    }
}

/// Spawn one worker process with a sanitized environment: everything is
/// cleared, then `PATH`/`HOME`/`TMPDIR` and the `E2C_*` knobs are pinned
/// back explicitly. A worker must see exactly the configuration the
/// parent chose for it — not whatever happened to be exported in the
/// launching shell (locale, `RUST_LOG`, allocator tweaks …), which made
/// farmed runs differ across hosts.
fn spawn_process(spec: &FarmSpec) -> Result<(Proc, ChildStdout), String> {
    let mut cmd = Command::new(&spec.program);
    cmd.args(&spec.args)
        .env_clear()
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    for key in ["PATH", "HOME", "TMPDIR"] {
        if let Ok(value) = std::env::var(key) {
            cmd.env(key, value);
        }
    }
    for (key, value) in std::env::vars() {
        if key.starts_with("E2C_") {
            cmd.env(key, value);
        }
    }
    let mut child = cmd
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", spec.program.display()))?;
    let stdin = child.stdin.take().ok_or("worker stdin not piped")?;
    let stdout = child.stdout.take().ok_or("worker stdout not piped")?;
    Ok((
        Proc {
            child,
            stdin: Some(stdin),
        },
        stdout,
    ))
}

/// Per-incarnation reader: parses frames off one worker's stdout and
/// routes them. Any protocol violation — bad CRC, unparseable record,
/// frames only the tuner may send, an undecodable trace event — is a
/// lost worker, not a guess.
fn spawn_reader(
    inner: Arc<FarmInner>,
    worker: usize,
    generation: u64,
    stdout: ChildStdout,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        let mut reader = BufReader::new(stdout);
        loop {
            match read_frame(&mut reader) {
                Ok(Some(WireMsg::Hello { version })) => {
                    if version != PROTOCOL_VERSION {
                        inner.lose_worker(
                            worker,
                            generation,
                            &format!(
                                "spoke protocol version {version} (expected {PROTOCOL_VERSION})"
                            ),
                        );
                        return;
                    }
                    let now = inner.now_ms();
                    let mut st = inner.state.lock().unwrap_or_else(PoisonError::into_inner);
                    if st.sup.generation(worker) == Some(generation) {
                        st.sup.heartbeat(worker, now);
                    }
                }
                Ok(Some(WireMsg::Heartbeat { .. })) => {
                    let now = inner.now_ms();
                    let mut st = inner.state.lock().unwrap_or_else(PoisonError::into_inner);
                    if st.sup.generation(worker) == Some(generation) {
                        st.sup.heartbeat(worker, now);
                    }
                }
                Ok(Some(WireMsg::ResultOk {
                    trial,
                    attempt,
                    reply,
                })) => {
                    // Decode trace events outside the lock; a worker that
                    // ships undecodable events is lost, not trusted.
                    let events: Result<Vec<_>, String> = reply
                        .events
                        .iter()
                        .map(|(json, ticked)| {
                            e2c_trace::TraceEvent::from_json(json).map(|ev| (ev, *ticked))
                        })
                        .collect();
                    let events = match events {
                        Ok(events) => events,
                        Err(e) => {
                            inner.lose_worker(
                                worker,
                                generation,
                                &format!("shipped an undecodable trace event: {e}"),
                            );
                            return;
                        }
                    };
                    let parsed = ParsedReply {
                        value: reply.value,
                        aux: reply.aux,
                        events,
                        end_clock: reply.end_clock,
                    };
                    if !route_result(&inner, worker, generation, trial, attempt, || {
                        AskOutcome::Value(parsed)
                    }) {
                        return;
                    }
                }
                Ok(Some(WireMsg::ResultPanic {
                    trial,
                    attempt,
                    payload,
                })) => {
                    if !route_result(&inner, worker, generation, trial, attempt, || {
                        AskOutcome::Panicked(payload)
                    }) {
                        return;
                    }
                }
                Ok(Some(WireMsg::Ask(_))) | Ok(Some(WireMsg::Shutdown)) => {
                    inner.lose_worker(worker, generation, "spoke a tuner-side frame");
                    return;
                }
                Ok(None) => {
                    // Shutdown waits for this mark before reaping.
                    inner
                        .state
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .at_eof
                        .insert((worker, generation));
                    inner.cv.notify_all();
                    if !inner.down.load(Ordering::SeqCst) {
                        inner.lose_worker(worker, generation, "exited (EOF on its result stream)");
                    }
                    return;
                }
                Err(e) => {
                    if !inner.down.load(Ordering::SeqCst) {
                        inner.lose_worker(
                            worker,
                            generation,
                            &format!("spoke protocol garbage: {e}"),
                        );
                    }
                    return;
                }
            }
        }
    })
}

/// Resolve the slot's outstanding ticket with `outcome` if the reply
/// matches what we dispatched; a mismatched reply is protocol garbage.
/// Returns whether the reader should keep going.
fn route_result(
    inner: &FarmInner,
    worker: usize,
    generation: u64,
    trial: u64,
    attempt: u32,
    outcome: impl FnOnce() -> AskOutcome,
) -> bool {
    let now = inner.now_ms();
    let mut st = inner.state.lock().unwrap_or_else(PoisonError::into_inner);
    if st.sup.generation(worker) != Some(generation) {
        return false; // stale incarnation; a newer process owns the slot
    }
    let ticket = match st.sup.state(worker) {
        Some(SlotState::Busy { ticket }) => ticket,
        _ => {
            drop(st);
            inner.lose_worker(worker, generation, "sent a result while idle");
            return false;
        }
    };
    if st.inflight.get(&ticket) != Some(&(trial, attempt)) {
        drop(st);
        inner.lose_worker(
            worker,
            generation,
            &format!("answered for trial {trial} attempt {attempt}, which it was not asked"),
        );
        return false;
    }
    if st.sup.complete(worker, ticket, now).is_ok() {
        st.inflight.remove(&ticket);
        st.results.insert(ticket, outcome());
        inner.cv.notify_all();
    }
    true
}

/// Stall sweeps and respawns, each run when the supervisor says it is
/// due ([`Supervisor::next_deadline`]), until shutdown. In between the
/// monitor waits on `monitor_cv` until that deadline.
fn monitor_loop(inner: &Arc<FarmInner>) {
    loop {
        let (stalled, due) = {
            let mut st = inner.state.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                if inner.down.load(Ordering::SeqCst) {
                    return;
                }
                let now = inner.now_ms();
                let (stalled, due) = (st.sup.stalled(now), st.sup.due_respawns(now));
                if !stalled.is_empty() || !due.is_empty() {
                    break (stalled, due);
                }
                st = match st.sup.next_deadline(now) {
                    Some(at) => {
                        inner
                            .monitor_cv
                            .wait_timeout(st, Duration::from_millis(at - now))
                            .unwrap_or_else(PoisonError::into_inner)
                            .0
                    }
                    None => inner
                        .monitor_cv
                        .wait(st)
                        .unwrap_or_else(PoisonError::into_inner),
                };
            }
        };
        for worker in stalled {
            let generation = inner
                .state
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .sup
                .generation(worker)
                .unwrap_or(0);
            inner.lose_worker(worker, generation, "missed its heartbeat deadline");
        }
        for worker in due {
            if inner.down.load(Ordering::SeqCst) {
                break;
            }
            match spawn_process(&inner.spec) {
                Ok((mut proc, stdout)) => {
                    let mut st = inner.state.lock().unwrap_or_else(PoisonError::into_inner);
                    if inner.down.load(Ordering::SeqCst)
                        || !matches!(st.sup.state(worker), Some(SlotState::Dead { .. }))
                    {
                        // The farm is shutting down, or someone revived
                        // the slot meanwhile; reap the spare process
                        // instead of leaking it.
                        drop(st);
                        let _ = proc.child.kill();
                        let _ = proc.child.wait();
                        continue;
                    }
                    st.sup.respawned(worker, inner.now_ms());
                    let generation = st.sup.generation(worker).unwrap_or(0);
                    st.procs[worker] = Some(proc);
                    let handle = spawn_reader(Arc::clone(inner), worker, generation, stdout);
                    st.readers.push(handle);
                    eprintln!("e2clab: farm: respawned worker {worker} (generation {generation})");
                    inner.cv.notify_all();
                }
                Err(e) => {
                    // Burn one respawn and fall back into Dead with the
                    // next backoff (or terminally, if the budget is out).
                    let mut st = inner.state.lock().unwrap_or_else(PoisonError::into_inner);
                    let now = inner.now_ms();
                    st.sup.respawned(worker, now);
                    st.sup.lost(worker, now);
                    eprintln!("e2clab: farm: worker {worker} failed to respawn: {e}");
                    inner.cv.notify_all();
                }
            }
        }
    }
}
