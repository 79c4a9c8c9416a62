//! The `e2clab` command-line interface.
//!
//! Mirrors the workflow the paper demonstrates, including the repeatability
//! command it quotes verbatim ("*one may repeat those experiments easily by
//! issuing: `e2clab optimize --repeat 6 --duration 1380 ...`*"):
//!
//! ```text
//! e2clab validate <conf.yaml>
//!     Parse and validate an experiment configuration.
//! e2clab deploy <conf.yaml>
//!     Dry-run deployment: reserve nodes on the simulated Grid'5000
//!     testbed, apply network emulation, print the scenario.
//! e2clab optimize [--repeat N] [--duration SECS] [--seed S]
//!                 [--archive DIR] [--faults SPEC] [--trace DIR]
//!                 [--replay-check] [--journal DIR | --resume DIR]
//!                 [--crash-at N] <conf.yaml>
//!     Run the optimization cycle of the configuration's `optimization`
//!     section against the Pl@ntNet engine model and print the Phase III
//!     summary. `--faults` injects deterministic trial failures for
//!     testing the retry layer, e.g.
//!     `--faults "fail:2@0;delay:4:500;nan:5"` (fail trial 2's first
//!     attempt, delay trial 4 by 500 ms, make trial 5 return NaN).
//!     `--trace DIR` records the deterministic structured event log
//!     (worker lifecycle, scheduler rung decisions, searcher ask/tell,
//!     DES batches, engine queue depths) to `DIR/trace.jsonl`, plus
//!     Prometheus text snapshots: `DIR/metrics.prom` for the cycle and
//!     `DIR/cycles/cycle_<trial>.prom` per evaluated trial.
//!     `--replay-check` runs the same seeded cycle twice (at the
//!     configured `max_concurrent` — the commit sequencer makes even
//!     concurrent cycles replay bit-exactly) and byte-diffs
//!     `evaluations.csv` and `trials/trials.jsonl` — and, with `--trace`,
//!     every trace artifact — between the two runs: a self-check that the
//!     run is actually replayable.
//!     `--journal DIR` makes the run crash-safe: every searcher ask/tell,
//!     scheduler decision and attempt outcome is appended (fsync'd) to a
//!     write-ahead log in `DIR` before taking effect; `--resume DIR`
//!     continues a killed run from its journal (replaying the decision
//!     sequence deterministically) and converges on byte-identical
//!     artifacts; `--crash-at N` is the chaos knob — the process exits
//!     (code 86) right after the Nth journal append of this process.
//!     Journaled runs execute trials on up to `max_concurrent` workers;
//!     effects commit in canonical ask order, so resume is deterministic
//!     at any concurrency.
//!     `--workers N` farms evaluations out to N `e2clab worker` child
//!     processes over a framed stdio protocol. The commit sequencer is
//!     unchanged, so every artifact is byte-identical to an in-process
//!     run — even when workers are killed mid-trial (the supervisor
//!     detects the loss, respawns with seeded backoff and re-dispatches
//!     the ask transparently). `--kill-worker W@N` is the matching chaos
//!     knob: SIGKILL worker W after its Nth dispatched ask.
//! e2clab worker [--repeat N] [--duration SECS] [--clients N]
//!               [--builtin quad]
//!     Farm child process (spawned by `optimize --workers`): speaks the
//!     length-prefixed, CRC-framed protocol on stdin/stdout and runs one
//!     engine evaluation per ask. `--builtin quad` swaps in a cheap
//!     deterministic quadratic objective for tests and benches.
//! e2clab serve --out DIR [--scale USERS_PER_DAY] [--epochs N]
//!              [--epoch-duration SECS] [--samples N] [--concurrent N]
//!              [--slo SECS] [--queue-bound N] [--shed-after SECS]
//!              [--seed S] [--first-year Y] [--replay-check]
//!              [--journal DIR | --resume DIR] [--crash-at N]
//!              [--crash-at-epoch K]
//!     Open-loop serving mode with continuous re-optimization: replay
//!     the Fig. 2 seasonal growth curve scaled to `--scale` users/day as
//!     a piecewise-constant arrival schedule (one epoch per trace
//!     month), and re-run the seeded optimization cycle per epoch under
//!     overload semantics (admission queue bounded at `--queue-bound`,
//!     deadline shedding after `--shed-after` seconds, `--slo` response
//!     bound). Writes `DIR/serving.csv` (one row per epoch: offered /
//!     admitted / rejected / shed / SLO violations plus the tuned pool
//!     config), `DIR/trace.jsonl` and a full per-epoch archive under
//!     `DIR/epochs/epoch_NN/`. `--journal` makes the run crash-safe
//!     (per-epoch journals plus a serving-level WAL of rendered CSV
//!     rows); `--resume` continues a killed run to byte-identical
//!     artifacts; `--crash-at N` kills mid-epoch after the Nth journal
//!     append, `--crash-at-epoch K` kills at the epoch-K boundary (both
//!     exit 86). `--replay-check` runs the whole serving loop twice and
//!     byte-diffs serving.csv, trace.jsonl and every epoch archive.
//! e2clab report <archive-dir>
//!     Re-print the summary of a previously written archive.
//! e2clab trace summarize <dir|trace.jsonl>
//!     Render a recorded trace as per-phase breakdowns and per-trial
//!     critical paths (ask -> execute -> tell, in virtual-time units).
//! e2clab lint [--config FILE] [--format text|json|sarif] [--out FILE]
//!             [--baseline FILE] [--update-baseline] [--no-baseline] [root]
//!     Run the detlint static-analysis pass — determinism (DET001–005),
//!     crash-safety panics (PANIC001–003), non-atomic artifact I/O
//!     (IO001–002), blocking-under-lock (LOCK001) and stale suppressions
//!     (SUP001) — over every `.rs` file under `root` (default: this
//!     workspace). Findings recorded in the committed baseline
//!     (`<root>/lint.baseline`, override with `--baseline`) are reported
//!     as accepted debt; only *new* findings fail the run.
//!     `--update-baseline` regenerates the baseline from the current
//!     findings and exits clean; `--no-baseline` gates on the raw finding
//!     set. `--format json|sarif` emits machine-readable output (byte-
//!     stable, fixed key order); `--out FILE` writes it atomically via
//!     the journal crate's write-rename path while the text summary still
//!     goes to stdout.
//! e2clab bench [--filter PAT] [--out DIR] [--iters N] [--warmup N]
//!              [--seed S] [--list]
//!     Run the registered benchmark suite (DES event loop, Pl@ntNet 600 s
//!     run, 50-trial Bayesian cycle, journal WAL append/replay, journal
//!     wire encode/decode) and write one `BENCH_<name>.json` report per
//!     benchmark to `--out` (default: current directory). `--filter`
//!     selects by name substring or exact tag (`smoke` matches every
//!     registered benchmark); `--iters`/`--warmup` override each
//!     benchmark's measurement policy (as do the `E2C_BENCH_ITERS` /
//!     `E2C_BENCH_WARMUP` environment variables); `--list` prints the
//!     selected names without running anything.
//! ```

use e2c_conf::schema::ExperimentConf;
use e2c_core::experiment::Experiment;
use e2c_core::optimization::{JournalConfig, OptimizationManager};
use e2c_des::SimTime;
use e2c_testbed::grid5000;
use e2c_tune::FaultPlan;
use plantnet::sim::{Experiment as EngineRun, ExperimentSpec};
use plantnet::PoolConfig;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  e2clab validate <conf.yaml>\n  e2clab deploy <conf.yaml>\n  \
         e2clab optimize [--repeat N] [--duration SECS] [--seed S] [--archive DIR] \
         [--faults SPEC] [--trace DIR] [--replay-check] [--journal DIR | --resume DIR] \
         [--crash-at N] [--workers N] [--kill-worker W@N] <conf.yaml>\n  \
         e2clab worker [--repeat N] [--duration SECS] [--clients N] [--builtin quad]\n  \
         e2clab serve --out DIR [--scale USERS_PER_DAY] [--epochs N] [--epoch-duration SECS] \
         [--samples N] [--concurrent N] [--slo SECS] [--queue-bound N] [--shed-after SECS] \
         [--seed S] [--first-year Y] [--replay-check] [--journal DIR | --resume DIR] \
         [--crash-at N] [--crash-at-epoch K]\n  \
         e2clab report <archive-dir>\n  \
         e2clab trace summarize <dir|trace.jsonl>\n  \
         e2clab lint [--config FILE] [--format text|json|sarif] [--out FILE] \
         [--baseline FILE] [--update-baseline] [--no-baseline] [root]\n  \
         e2clab bench [--filter PAT] [--out DIR] [--iters N] [--warmup N] [--seed S] [--list]\n  \
         e2clab fuzz [--codec NAME] [--iters N] [--seed S] [--out DIR] [--list]"
    );
    ExitCode::from(2)
}

/// Workspace root for `lint` when no explicit path is given: the compiled
/// source tree if it still exists (dev checkout), otherwise the current
/// directory.
fn workspace_root() -> PathBuf {
    // The binary lives in the workspace's root package, so its manifest
    // directory IS the workspace root.
    let compiled = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    if compiled.join("Cargo.toml").is_file() {
        // Canonicalize so report labels are workspace-relative.
        compiled.canonicalize().unwrap_or(compiled)
    } else {
        PathBuf::from(".")
    }
}

/// Workload knobs shared by every evaluation of a cycle (the engine run
/// behind the objective).
#[derive(Clone, Copy)]
struct CycleSpec {
    repeat: usize,
    duration: u64,
    clients: usize,
}

/// Run one full optimization cycle. With a trace directory this wires a
/// fresh [`e2c_trace::Tracer`] through the manager, tuner, scheduler and
/// the Pl@ntNet engine, then exports `trace.jsonl`, a cycle-level
/// `metrics.prom` and one `cycles/cycle_<trial>.prom` snapshot per trial.
#[allow(clippy::too_many_arguments)]
fn run_cycle(
    opt_conf: &e2c_conf::schema::OptimizationConf,
    seed: u64,
    faults: &FaultPlan,
    archive: Option<PathBuf>,
    trace_dir: Option<&std::path::Path>,
    spec: CycleSpec,
    journal: Option<JournalConfig>,
    farm: Option<e2c_tune::FarmSpec>,
) -> Result<e2c_core::optimization::OptimizationSummary, String> {
    let tracer = trace_dir.map(|_| e2c_trace::Tracer::new());
    if let Some(dir) = trace_dir {
        std::fs::create_dir_all(dir.join("cycles"))
            .map_err(|e| format!("--trace {}: {e}", dir.display()))?;
    }
    // Cycle-level samples keyed by trial id. Collected in a map rather
    // than a Registry because concurrent workers finish trials out of
    // order, while a TimeSeries only accepts in-order appends — the
    // registry is built from the sorted map after the run, which also
    // keeps `metrics.prom` deterministic under concurrency. Shared (Arc)
    // between the in-process objective and the farm's aux hook — farmed
    // runs must land their samples in exactly the same map.
    let cycle_samples =
        std::sync::Arc::new(std::sync::Mutex::new(std::collections::BTreeMap::new()));
    // Journaled + traced runs persist the per-trial samples in a side WAL
    // (`samples.wal`): completed trials are not re-evaluated on resume,
    // yet `metrics.prom` must still cover them.
    let samples_wal = match (&journal, trace_dir) {
        (Some(jc), Some(_)) => {
            let path = jc.dir.join("samples.wal");
            let wal = if jc.resume && path.is_file() {
                let (wal, records) = e2c_journal::Wal::open(&path)
                    .map_err(|e| format!("--resume: open {}: {e}", path.display()))?;
                let mut map = cycle_samples
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                for (i, rec) in records.iter().enumerate() {
                    let line = std::str::from_utf8(rec)
                        .map_err(|e| format!("samples.wal record {i}: not UTF-8: {e}"))?;
                    let mut parts = line.split('\t');
                    let (trial, mean, completed) = (|| {
                        Some((
                            parts.next()?.parse::<u64>().ok()?,
                            parts.next()?.parse::<f64>().ok()?,
                            parts.next()?.parse::<f64>().ok()?,
                        ))
                    })()
                    .ok_or_else(|| format!("samples.wal record {i}: malformed: {line:?}"))?;
                    map.insert(trial, (mean, completed));
                }
                wal
            } else {
                e2c_journal::Wal::create(&path).map_err(|e| {
                    if e.kind() == std::io::ErrorKind::AlreadyExists {
                        format!(
                            "--journal: {} already exists — use --resume to continue it",
                            path.display()
                        )
                    } else {
                        format!("--journal: create {}: {e}", path.display())
                    }
                })?
            };
            Some(std::sync::Arc::new(std::sync::Mutex::new(wal)))
        }
        _ => None,
    };
    let trace_out = trace_dir.map(std::path::Path::to_path_buf);
    let obj_trace_out = trace_out.clone();
    let samples = std::sync::Arc::clone(&cycle_samples);
    let samples_wal_obj = samples_wal.clone();
    let objective = move |ctx: &e2c_core::optimization::EvalContext| {
        let trace_out = &obj_trace_out;
        let samples_wal = &samples_wal_obj;
        let cfg = PoolConfig::from_point(&ctx.point);
        let mut espec = ExperimentSpec::paper(cfg, spec.clients);
        espec.duration = SimTime::from_secs(spec.duration);
        espec.warmup = SimTime::from_secs((spec.duration / 10).min(60));
        // Engine events go through the evaluation's own trace handle:
        // under concurrent execution it is a per-trial buffer the commit
        // sequencer splices into the run trace in canonical order.
        let metrics = EngineRun::run_repeated_traced(
            espec,
            spec.repeat,
            1000 + ctx.trial_id,
            ctx.tracer.clone(),
        );
        if let Some(dir) = &trace_out {
            // Per-trial engine snapshot: repetitions concatenated on one
            // time axis, exported in Prometheus text form.
            let mut merged = e2c_metrics::Registry::new();
            for (rep, run) in metrics.runs.iter().enumerate() {
                merged.append_shifted(&run.registry, (rep as u64 * spec.duration) as f64);
            }
            let mut buf = Vec::new();
            let _ = merged.write_prometheus(&mut buf);
            let path = dir
                .join("cycles")
                .join(format!("cycle_{:04}.prom", ctx.trial_id));
            if let Err(e) = e2c_journal::write_atomic(&path, &buf) {
                eprintln!("trace: {}: {e}", path.display());
            }
            let completed = metrics.runs.iter().map(|r| r.completed).sum::<u64>();
            samples
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .insert(ctx.trial_id, (metrics.response.mean, completed as f64));
            if let Some(wal) = samples_wal {
                let line = format!(
                    "{}\t{}\t{}",
                    ctx.trial_id, metrics.response.mean, completed as f64
                );
                if let Err(e) = wal
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .append(line.as_bytes())
                {
                    eprintln!("samples.wal: {e}");
                }
            }
        }
        metrics.response.mean
    };
    let mut manager = OptimizationManager::new(opt_conf.clone())
        .with_seed(seed)
        .with_faults(faults.clone());
    if let Some(dir) = archive {
        manager = manager.with_archive(dir);
    }
    if let Some(tr) = &tracer {
        manager = manager.with_trace(tr.clone());
    }
    if let Some(jc) = journal {
        manager = manager.with_journal(jc);
    }
    if let Some(spec) = farm {
        // Multi-process execution: the engine runs in `e2clab worker`
        // children; this hook lands each result's side artifacts exactly
        // where the in-process objective would have written them, so a
        // farmed run's outputs are byte-identical to an in-process one.
        manager = manager.with_farm(spec);
        let trace_out = trace_out.clone();
        let samples = std::sync::Arc::clone(&cycle_samples);
        let samples_wal = samples_wal.clone();
        manager = manager.with_aux_hook(std::sync::Arc::new(
            move |ctx: &e2c_core::optimization::EvalContext, aux: &[(String, String)]| {
                let Some(dir) = &trace_out else { return };
                let field =
                    |name: &str| aux.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str());
                if let Some(prom) = field("prom") {
                    let path = dir
                        .join("cycles")
                        .join(format!("cycle_{:04}.prom", ctx.trial_id));
                    if let Err(e) = e2c_journal::write_atomic(&path, prom.as_bytes()) {
                        eprintln!("trace: {}: {e}", path.display());
                    }
                }
                let mean = field("mean").and_then(|v| v.parse::<f64>().ok());
                let completed = field("completed").and_then(|v| v.parse::<f64>().ok());
                if let (Some(mean), Some(completed)) = (mean, completed) {
                    samples
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                        .insert(ctx.trial_id, (mean, completed));
                    if let Some(wal) = &samples_wal {
                        let line = format!("{}\t{}\t{}", ctx.trial_id, mean, completed);
                        if let Err(e) = wal
                            .lock()
                            .unwrap_or_else(std::sync::PoisonError::into_inner)
                            .append(line.as_bytes())
                        {
                            eprintln!("samples.wal: {e}");
                        }
                    }
                }
            },
        ));
    }
    let summary = manager.run(objective).map_err(|e| e.to_string())?;
    if let (Some(tr), Some(dir)) = (&tracer, trace_dir) {
        tr.save(&dir.join("trace.jsonl"))
            .map_err(|e| format!("trace: {}: {e}", dir.display()))?;
        let mut registry = e2c_metrics::Registry::new();
        for (&trial, &(mean, completed)) in cycle_samples
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .iter()
        {
            let t = trial as f64;
            registry.record("objective_response_mean", t, mean);
            registry.record("trial_completed_requests", t, completed);
        }
        let mut buf = Vec::new();
        let _ = registry.write_prometheus(&mut buf);
        e2c_journal::write_atomic(&dir.join("metrics.prom"), &buf)
            .map_err(|e| format!("trace: {}: {e}", dir.display()))?;
    }
    Ok(summary)
}

/// Run the same seeded optimization twice at the configured concurrency
/// (the commit sequencer orders effects canonically, so bit-exact replay
/// holds under concurrent suggestion too) and byte-diff the
/// reproducibility artifacts of the two runs. With `--trace`, the trace
/// artifacts (`trace.jsonl`, `metrics.prom`, `cycles/*.prom`) are diffed
/// too.
fn run_replay_check(
    opt_conf: e2c_conf::schema::OptimizationConf,
    seed: u64,
    faults: FaultPlan,
    archive: Option<PathBuf>,
    trace: Option<PathBuf>,
    spec: CycleSpec,
) -> ExitCode {
    let pid = std::process::id();
    let dir_a = archive
        .clone()
        .unwrap_or_else(|| std::env::temp_dir().join(format!("e2clab-replay-a-{pid}")));
    let dir_b = std::env::temp_dir().join(format!("e2clab-replay-b-{pid}"));
    let _ = std::fs::remove_dir_all(&dir_b);
    let trace_b = trace
        .as_ref()
        .map(|_| std::env::temp_dir().join(format!("e2clab-replay-trace-b-{pid}")));
    if let Some(tb) = &trace_b {
        let _ = std::fs::remove_dir_all(tb);
    }
    for (dir, tdir) in [(&dir_a, trace.as_deref()), (&dir_b, trace_b.as_deref())] {
        match run_cycle(
            &opt_conf,
            seed,
            &faults,
            Some(dir.clone()),
            tdir,
            spec,
            None,
            None,
        ) {
            Ok(summary) => {
                if dir == &dir_a {
                    print!("{}", summary.render());
                }
            }
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let mut ok = compare_artifacts(
        "",
        &dir_a,
        &dir_b,
        &[
            "evaluations.csv".to_string(),
            "trials/trials.jsonl".to_string(),
        ],
    );
    if let (Some(ta), Some(tb)) = (&trace, &trace_b) {
        let mut rels = vec!["trace.jsonl".to_string(), "metrics.prom".to_string()];
        rels.extend(
            sorted_names(&ta.join("cycles"))
                .into_iter()
                .map(|n| format!("cycles/{n}")),
        );
        ok &= compare_artifacts("trace/", ta, tb, &rels);
    }
    let _ = std::fs::remove_dir_all(&dir_b);
    if let Some(tb) = &trace_b {
        let _ = std::fs::remove_dir_all(tb);
    }
    if archive.is_none() {
        let _ = std::fs::remove_dir_all(&dir_a);
    } else {
        println!("archive written to {}", dir_a.display());
    }
    if let Some(dir) = &trace {
        println!("trace written to {}", dir.display());
    }
    if ok {
        println!("replay-check: PASS — seeded run replays byte-identically");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// File names directly under `dir`, sorted; empty when `dir` is missing.
fn sorted_names(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .map(|read| {
            read.flatten()
                .filter_map(|e| e.file_name().into_string().ok())
                .collect()
        })
        .unwrap_or_default();
    names.sort();
    names
}

/// The replay-check comparison: byte-compare each relative path under the
/// two run roots, printing `identical` or `DIFFERS` per file (labelled
/// `{prefix}{rel}`). True when every file exists in both runs and matches.
fn compare_artifacts(prefix: &str, root_a: &Path, root_b: &Path, rels: &[String]) -> bool {
    let mut ok = true;
    for rel in rels {
        let label = format!("{prefix}{rel}");
        match (
            std::fs::read(root_a.join(rel)),
            std::fs::read(root_b.join(rel)),
        ) {
            (Ok(a), Ok(b)) if a == b => {
                println!("replay-check: {label} identical ({} bytes)", a.len());
            }
            (Ok(a), Ok(b)) => {
                eprintln!(
                    "replay-check: {label} DIFFERS ({} vs {} bytes) — run is not replayable",
                    a.len(),
                    b.len()
                );
                ok = false;
            }
            (a, b) => {
                eprintln!("replay-check: {label}: {:?} vs {:?}", a.err(), b.err());
                ok = false;
            }
        }
    }
    ok
}

/// Run the serving loop twice — the second time into scratch dirs — and
/// byte-diff every serving artifact: `serving.csv`, `trace.jsonl` and
/// the per-epoch archives. The serving driver layers epoch cycles over
/// the same commit sequencer as `optimize`, so the whole multi-epoch run
/// must replay bit-exactly.
fn run_serve_replay_check(cfg: &e2c_core::ServingConfig) -> ExitCode {
    let pid = std::process::id();
    let dir_b = std::env::temp_dir().join(format!("e2clab-serve-replay-b-{pid}"));
    let _ = std::fs::remove_dir_all(&dir_b);
    let mut cfg_b = cfg.clone();
    cfg_b.out_dir = dir_b.clone();
    for (c, first) in [(cfg, true), (&cfg_b, false)] {
        match e2c_core::serving::run_serving(c) {
            Ok(report) => {
                if first {
                    print!("{}", report.render());
                }
            }
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let mut rels = vec!["serving.csv".to_string(), "trace.jsonl".to_string()];
    for name in sorted_names(&cfg.out_dir.join("epochs")) {
        for file in ["evaluations.csv", "best.yaml", "trials/trials.jsonl"] {
            rels.push(format!("epochs/{name}/{file}"));
        }
    }
    let ok = compare_artifacts("", &cfg.out_dir, &dir_b, &rels);
    let _ = std::fs::remove_dir_all(&dir_b);
    if ok {
        println!("replay-check: PASS — serving run replays byte-identically");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn load_conf(path: &str) -> Result<ExperimentConf, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = e2c_conf::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    ExperimentConf::from_value(&doc).map_err(|e| format!("{path}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first().map(|s| s.as_str()) else {
        return usage();
    };
    match command {
        "validate" => {
            let Some(path) = args.get(1) else {
                return usage();
            };
            match load_conf(path) {
                Ok(conf) => {
                    println!("ok: experiment `{}`", conf.name);
                    println!(
                        "  layers: {}  network rules: {}  optimization: {}",
                        conf.layers.len(),
                        conf.network.len(),
                        if conf.optimization.is_some() {
                            "yes"
                        } else {
                            "no"
                        }
                    );
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("invalid: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "deploy" => {
            let Some(path) = args.get(1) else {
                return usage();
            };
            let conf = match load_conf(path) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("invalid: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let mut exp = Experiment::new(conf, grid5000::paper_testbed());
            match exp.deploy() {
                Ok(()) => {
                    print!("{}", exp.describe());
                    exp.teardown();
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("deployment failed: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "optimize" => {
            // Flag parsing: --repeat N --duration SECS --seed S
            // --archive DIR --faults SPEC --trace DIR.
            let mut repeat = 1usize;
            let mut duration = 1380u64;
            let mut seed = 0u64;
            let mut archive: Option<PathBuf> = None;
            let mut trace: Option<PathBuf> = None;
            let mut faults = FaultPlan::new();
            let mut replay_check = false;
            let mut journal: Option<PathBuf> = None;
            let mut resume: Option<PathBuf> = None;
            let mut crash_at: Option<u64> = None;
            let mut workers = 0usize;
            let mut kill_worker: Option<(usize, u64)> = None;
            let mut conf_path: Option<String> = None;
            let mut it = args[1..].iter();
            while let Some(arg) = it.next() {
                let mut grab = |name: &str| -> Option<String> {
                    let v = it.next();
                    if v.is_none() {
                        eprintln!("{name} needs a value");
                    }
                    v.cloned()
                };
                match arg.as_str() {
                    "--repeat" => match grab("--repeat").and_then(|v| v.parse().ok()) {
                        Some(v) => repeat = v,
                        None => return usage(),
                    },
                    "--duration" => match grab("--duration").and_then(|v| v.parse().ok()) {
                        Some(v) => duration = v,
                        None => return usage(),
                    },
                    "--seed" => match grab("--seed").and_then(|v| v.parse().ok()) {
                        Some(v) => seed = v,
                        None => return usage(),
                    },
                    "--archive" => match grab("--archive") {
                        Some(v) => archive = Some(PathBuf::from(v)),
                        None => return usage(),
                    },
                    "--trace" => match grab("--trace") {
                        Some(v) => trace = Some(PathBuf::from(v)),
                        None => return usage(),
                    },
                    "--faults" => match grab("--faults") {
                        Some(v) => match FaultPlan::parse(&v) {
                            Ok(plan) => faults = plan,
                            Err(e) => {
                                eprintln!("--faults: {e}");
                                return usage();
                            }
                        },
                        None => return usage(),
                    },
                    "--journal" => match grab("--journal") {
                        Some(v) => journal = Some(PathBuf::from(v)),
                        None => return usage(),
                    },
                    "--resume" => match grab("--resume") {
                        Some(v) => resume = Some(PathBuf::from(v)),
                        None => return usage(),
                    },
                    "--crash-at" => match grab("--crash-at").and_then(|v| v.parse().ok()) {
                        Some(v) => crash_at = Some(v),
                        None => return usage(),
                    },
                    "--workers" => match grab("--workers").and_then(|v| v.parse().ok()) {
                        Some(v) => workers = v,
                        None => return usage(),
                    },
                    // Chaos knob for the crash gate: SIGKILL worker W after
                    // its Nth dispatched ask. `W@N`, e.g. `--kill-worker 1@2`.
                    "--kill-worker" => match grab("--kill-worker").and_then(|v| {
                        let (w, n) = v.split_once('@')?;
                        Some((w.parse().ok()?, n.parse().ok()?))
                    }) {
                        Some(v) => kill_worker = Some(v),
                        None => return usage(),
                    },
                    "--replay-check" => replay_check = true,
                    other if !other.starts_with("--") => conf_path = Some(other.to_string()),
                    other => {
                        eprintln!("unknown flag {other}");
                        return usage();
                    }
                }
            }
            let Some(path) = conf_path else {
                return usage();
            };
            let conf = match load_conf(&path) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("invalid: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let Some(opt_conf) = conf.optimization else {
                eprintln!("{path}: no `optimization` section");
                return ExitCode::FAILURE;
            };
            // Workload: total concurrent requests of all client services
            // (falls back to the paper's 80).
            let clients: usize = conf
                .layers
                .iter()
                .flat_map(|l| &l.services)
                .filter(|s| s.name.contains("client"))
                .map(|s| s.quantity * 20)
                .sum::<usize>()
                .max(80);
            let spec = CycleSpec {
                repeat,
                duration,
                clients,
            };
            if journal.is_some() && resume.is_some() {
                eprintln!("--journal and --resume are mutually exclusive");
                return usage();
            }
            if crash_at.is_some() && journal.is_none() && resume.is_none() {
                eprintln!("--crash-at needs --journal or --resume");
                return usage();
            }
            if replay_check && (journal.is_some() || resume.is_some()) {
                eprintln!("--replay-check cannot be combined with --journal/--resume");
                return usage();
            }
            if kill_worker.is_some() && workers == 0 {
                eprintln!("--kill-worker needs --workers");
                return usage();
            }
            if workers > 0 && replay_check {
                eprintln!("--workers cannot be combined with --replay-check");
                return usage();
            }
            // `--workers N` farms evaluations out to N `e2clab worker`
            // child processes. Deliberately NOT part of the journal
            // fingerprint: the worker count shapes wall-clock only, never
            // artifacts, so a resume may change it freely.
            let farm_spec = (workers > 0).then(|| {
                let exe = match std::env::current_exe() {
                    Ok(p) => p,
                    Err(e) => {
                        eprintln!("--workers: cannot locate own binary: {e}");
                        std::process::exit(1);
                    }
                };
                let wargs = vec![
                    "worker".to_string(),
                    "--repeat".to_string(),
                    spec.repeat.to_string(),
                    "--duration".to_string(),
                    spec.duration.to_string(),
                    "--clients".to_string(),
                    spec.clients.to_string(),
                ];
                let mut fs = e2c_tune::FarmSpec::new(exe, wargs, workers, seed);
                fs.kill_after = kill_worker;
                fs
            });
            let journal_conf = journal
                .map(JournalConfig::fresh)
                .or_else(|| resume.map(JournalConfig::resume))
                .map(|jc| {
                    // Fold the CLI-level knobs that shape the objective into
                    // the journal fingerprint: a resume under a different
                    // workload must be refused, not silently diverge.
                    jc.crash_after(crash_at).extra_fingerprint(format!(
                        "repeat={repeat};duration={duration};clients={clients};faults={faults:?}",
                        repeat = spec.repeat,
                        duration = spec.duration,
                        clients = spec.clients,
                    ))
                });
            if replay_check {
                return run_replay_check(opt_conf, seed, faults, archive, trace, spec);
            }
            match run_cycle(
                &opt_conf,
                seed,
                &faults,
                archive.clone(),
                trace.as_deref(),
                spec,
                journal_conf,
                farm_spec,
            ) {
                Ok(summary) => {
                    print!("{}", summary.render());
                    if let Some(dir) = archive {
                        println!("archive written to {}", dir.display());
                    }
                    if let Some(dir) = trace {
                        println!("trace written to {}", dir.display());
                    }
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("{e}");
                    ExitCode::FAILURE
                }
            }
        }
        "serve" => {
            let mut out: Option<PathBuf> = None;
            let mut scale = 2_500_000.0f64;
            let mut epochs = 6usize;
            let mut epoch_duration = 180u64;
            let mut samples = 8usize;
            let mut concurrent = 2usize;
            let mut slo = 4.0f64;
            let mut queue_bound = 64usize;
            let mut shed_after = 8.0f64;
            let mut seed = 0u64;
            let mut first_year = 2017u32;
            let mut replay_check = false;
            let mut journal: Option<PathBuf> = None;
            let mut resume: Option<PathBuf> = None;
            let mut crash_at: Option<u64> = None;
            let mut crash_at_epoch: Option<usize> = None;
            let mut it = args[1..].iter();
            while let Some(arg) = it.next() {
                let mut grab = |name: &str| -> Option<String> {
                    let v = it.next();
                    if v.is_none() {
                        eprintln!("{name} needs a value");
                    }
                    v.cloned()
                };
                match arg.as_str() {
                    "--out" => match grab("--out") {
                        Some(v) => out = Some(PathBuf::from(v)),
                        None => return usage(),
                    },
                    "--scale" => match grab("--scale").and_then(|v| v.parse().ok()) {
                        Some(v) => scale = v,
                        None => return usage(),
                    },
                    "--epochs" => match grab("--epochs").and_then(|v| v.parse().ok()) {
                        Some(v) => epochs = v,
                        None => return usage(),
                    },
                    "--epoch-duration" => {
                        match grab("--epoch-duration").and_then(|v| v.parse().ok()) {
                            Some(v) => epoch_duration = v,
                            None => return usage(),
                        }
                    }
                    "--samples" => match grab("--samples").and_then(|v| v.parse().ok()) {
                        Some(v) => samples = v,
                        None => return usage(),
                    },
                    "--concurrent" => match grab("--concurrent").and_then(|v| v.parse().ok()) {
                        Some(v) => concurrent = v,
                        None => return usage(),
                    },
                    "--slo" => match grab("--slo").and_then(|v| v.parse().ok()) {
                        Some(v) => slo = v,
                        None => return usage(),
                    },
                    "--queue-bound" => match grab("--queue-bound").and_then(|v| v.parse().ok()) {
                        Some(v) => queue_bound = v,
                        None => return usage(),
                    },
                    // `--shed-after 0` disables deadline shedding.
                    "--shed-after" => match grab("--shed-after").and_then(|v| v.parse().ok()) {
                        Some(v) => shed_after = v,
                        None => return usage(),
                    },
                    "--seed" => match grab("--seed").and_then(|v| v.parse().ok()) {
                        Some(v) => seed = v,
                        None => return usage(),
                    },
                    "--first-year" => match grab("--first-year").and_then(|v| v.parse().ok()) {
                        Some(v) => first_year = v,
                        None => return usage(),
                    },
                    "--journal" => match grab("--journal") {
                        Some(v) => journal = Some(PathBuf::from(v)),
                        None => return usage(),
                    },
                    "--resume" => match grab("--resume") {
                        Some(v) => resume = Some(PathBuf::from(v)),
                        None => return usage(),
                    },
                    "--crash-at" => match grab("--crash-at").and_then(|v| v.parse().ok()) {
                        Some(v) => crash_at = Some(v),
                        None => return usage(),
                    },
                    "--crash-at-epoch" => {
                        match grab("--crash-at-epoch").and_then(|v| v.parse().ok()) {
                            Some(v) => crash_at_epoch = Some(v),
                            None => return usage(),
                        }
                    }
                    "--replay-check" => replay_check = true,
                    other => {
                        eprintln!("unknown flag {other}");
                        return usage();
                    }
                }
            }
            let Some(out) = out else {
                eprintln!("serve needs --out DIR");
                return usage();
            };
            if journal.is_some() && resume.is_some() {
                eprintln!("--journal and --resume are mutually exclusive");
                return usage();
            }
            if (crash_at.is_some() || crash_at_epoch.is_some())
                && journal.is_none()
                && resume.is_none()
            {
                eprintln!("--crash-at/--crash-at-epoch need --journal or --resume");
                return usage();
            }
            if replay_check && (journal.is_some() || resume.is_some()) {
                eprintln!("--replay-check cannot be combined with --journal/--resume");
                return usage();
            }
            let mut cfg = e2c_core::ServingConfig::new(out);
            cfg.scale = scale;
            cfg.epochs = epochs;
            cfg.epoch_duration = SimTime::from_secs(epoch_duration);
            cfg.samples = samples;
            cfg.max_concurrent = concurrent;
            cfg.slo = slo;
            cfg.queue_bound = queue_bound;
            cfg.shed_after = (shed_after > 0.0).then(|| SimTime::from_secs_f64(shed_after));
            cfg.seed = seed;
            cfg.first_year = first_year;
            cfg.resume = resume.is_some();
            cfg.journal_dir = journal.or(resume);
            cfg.crash_at = crash_at;
            cfg.crash_at_epoch = crash_at_epoch;
            if replay_check {
                return run_serve_replay_check(&cfg);
            }
            match e2c_core::serving::run_serving(&cfg) {
                Ok(report) => {
                    print!("{}", report.render());
                    println!("serving artifacts written to {}", cfg.out_dir.display());
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("{e}");
                    ExitCode::FAILURE
                }
            }
        }
        "worker" => {
            // Farm child: speaks the framed stdio protocol on stdin/stdout
            // and runs one engine evaluation per ask. Spawned by
            // `optimize --workers N`; not intended for interactive use.
            let mut repeat = 1usize;
            let mut duration = 1380u64;
            let mut clients = 80usize;
            let mut builtin: Option<String> = None;
            let mut it = args[1..].iter();
            while let Some(arg) = it.next() {
                let mut grab = |name: &str| -> Option<String> {
                    let v = it.next();
                    if v.is_none() {
                        eprintln!("{name} needs a value");
                    }
                    v.cloned()
                };
                match arg.as_str() {
                    "--repeat" => match grab("--repeat").and_then(|v| v.parse().ok()) {
                        Some(v) => repeat = v,
                        None => return usage(),
                    },
                    "--duration" => match grab("--duration").and_then(|v| v.parse().ok()) {
                        Some(v) => duration = v,
                        None => return usage(),
                    },
                    "--clients" => match grab("--clients").and_then(|v| v.parse().ok()) {
                        Some(v) => clients = v,
                        None => return usage(),
                    },
                    // Cheap deterministic objective for farm tests and
                    // benches: no engine run, just a quadratic bowl.
                    "--builtin" => match grab("--builtin") {
                        Some(v) => builtin = Some(v),
                        None => return usage(),
                    },
                    other => {
                        eprintln!("unknown flag {other}");
                        return usage();
                    }
                }
            }
            let result = match builtin.as_deref() {
                Some("quad") => e2c_tune::worker::serve(|ask, _tracer| {
                    let value = ask
                        .config
                        .iter()
                        .map(|x| (x - 3.0) * (x - 3.0))
                        .sum::<f64>();
                    (value, Vec::new())
                }),
                Some(other) => {
                    eprintln!("unknown --builtin objective `{other}` (expected quad)");
                    return ExitCode::FAILURE;
                }
                // The engine objective: the exact computation the
                // in-process path runs, with side artifacts shipped back
                // as aux strings instead of written locally — the parent
                // owns the archive/trace directories.
                None => e2c_tune::worker::serve(move |ask, tracer| {
                    let cfg = PoolConfig::from_point(&ask.config);
                    let mut espec = ExperimentSpec::paper(cfg, clients);
                    espec.duration = SimTime::from_secs(duration);
                    espec.warmup = SimTime::from_secs((duration / 10).min(60));
                    let metrics = EngineRun::run_repeated_traced(
                        espec,
                        repeat,
                        1000 + ask.trial,
                        tracer.cloned(),
                    );
                    let mut aux = Vec::new();
                    if ask.traced {
                        let mut merged = e2c_metrics::Registry::new();
                        for (rep, run) in metrics.runs.iter().enumerate() {
                            merged.append_shifted(&run.registry, (rep as u64 * duration) as f64);
                        }
                        let mut buf = Vec::new();
                        let _ = merged.write_prometheus(&mut buf);
                        let completed = metrics.runs.iter().map(|r| r.completed).sum::<u64>();
                        // f64 `Display` round-trips exactly through `parse`,
                        // so the parent re-renders identical bytes.
                        aux.push(("mean".to_string(), metrics.response.mean.to_string()));
                        aux.push(("completed".to_string(), (completed as f64).to_string()));
                        aux.push((
                            "prom".to_string(),
                            String::from_utf8_lossy(&buf).into_owned(),
                        ));
                    }
                    (metrics.response.mean, aux)
                }),
            };
            match result {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("worker: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "trace" => {
            // `trace summarize <dir|trace.jsonl>`: render a recorded trace.
            let (Some(sub), Some(target)) = (args.get(1), args.get(2)) else {
                return usage();
            };
            if sub != "summarize" {
                return usage();
            }
            let path = PathBuf::from(target);
            let file = if path.is_dir() {
                path.join("trace.jsonl")
            } else {
                path
            };
            match e2c_trace::load_jsonl(&file) {
                Ok(events) => {
                    print!("{}", e2c_trace::TraceSummary::from_events(&events).render());
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("{e}");
                    ExitCode::FAILURE
                }
            }
        }
        "lint" => {
            let mut config = detlint::Config::default();
            let mut root: Option<PathBuf> = None;
            let mut format = String::from("text");
            let mut out_path: Option<PathBuf> = None;
            let mut baseline_path: Option<PathBuf> = None;
            let mut update_baseline = false;
            let mut no_baseline = false;
            let mut it = args[1..].iter();
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--config" => {
                        let Some(path) = it.next() else {
                            eprintln!("--config needs a value");
                            return usage();
                        };
                        let text = match std::fs::read_to_string(path) {
                            Ok(t) => t,
                            Err(e) => {
                                eprintln!("{path}: {e}");
                                return ExitCode::FAILURE;
                            }
                        };
                        if let Err(e) = config.apply_file(&text) {
                            eprintln!("{path}: {e}");
                            return ExitCode::FAILURE;
                        }
                    }
                    "--format" => {
                        let Some(value) = it.next() else {
                            eprintln!("--format needs a value");
                            return usage();
                        };
                        if !matches!(value.as_str(), "text" | "json" | "sarif") {
                            eprintln!("--format must be text, json or sarif");
                            return usage();
                        }
                        format = value.clone();
                    }
                    "--out" => {
                        let Some(value) = it.next() else {
                            eprintln!("--out needs a value");
                            return usage();
                        };
                        out_path = Some(PathBuf::from(value));
                    }
                    "--baseline" => {
                        let Some(value) = it.next() else {
                            eprintln!("--baseline needs a value");
                            return usage();
                        };
                        baseline_path = Some(PathBuf::from(value));
                    }
                    "--update-baseline" => update_baseline = true,
                    "--no-baseline" => no_baseline = true,
                    other if !other.starts_with("--") => root = Some(PathBuf::from(other)),
                    other => {
                        eprintln!("unknown flag {other}");
                        return usage();
                    }
                }
            }
            let root = root.unwrap_or_else(workspace_root);
            let baseline_file = baseline_path.unwrap_or_else(|| root.join("lint.baseline"));
            // A directory inside this workspace keeps workspace-relative
            // labels, so the path-scoped rules apply to it as they do to
            // the whole tree.
            let workspace = workspace_root();
            let (label_root, dir) = match root.canonicalize() {
                Ok(dir) if dir.starts_with(&workspace) => (workspace, dir),
                _ => (root.clone(), root.clone()),
            };
            let mut report = match detlint::lint_workspace(&label_root, &dir, &config) {
                Ok(report) => report,
                Err(e) => {
                    eprintln!("lint failed: {e}");
                    return ExitCode::FAILURE;
                }
            };
            if update_baseline {
                // Record the current raw finding set as accepted debt,
                // then gate this run against it (always clean).
                let baseline = detlint::Baseline::from_findings(report.errors.iter());
                let rendered = baseline.render();
                if let Err(e) = e2c_journal::write_atomic(&baseline_file, rendered.as_bytes()) {
                    eprintln!("{}: {e}", baseline_file.display());
                    return ExitCode::FAILURE;
                }
                eprintln!(
                    "wrote {} ({} entr{})",
                    baseline_file.display(),
                    baseline.len(),
                    if baseline.len() == 1 { "y" } else { "ies" }
                );
                report.apply_baseline(&baseline);
            } else if !no_baseline && baseline_file.is_file() {
                let text = match std::fs::read_to_string(&baseline_file) {
                    Ok(t) => t,
                    Err(e) => {
                        eprintln!("{}: {e}", baseline_file.display());
                        return ExitCode::FAILURE;
                    }
                };
                match detlint::Baseline::parse(&text) {
                    Ok(baseline) => report.apply_baseline(&baseline),
                    Err(e) => {
                        eprintln!("{}: {e}", baseline_file.display());
                        return ExitCode::FAILURE;
                    }
                }
            }
            let machine = match format.as_str() {
                "json" => Some(detlint::to_json(&report)),
                "sarif" => Some(detlint::to_sarif(&report)),
                _ => None,
            };
            match (machine, out_path) {
                (Some(rendered), Some(path)) => {
                    if let Err(e) = e2c_journal::write_atomic(&path, rendered.as_bytes()) {
                        eprintln!("{}: {e}", path.display());
                        return ExitCode::FAILURE;
                    }
                    // Keep the human summary on stdout for CI logs.
                    print!("{}", report.render());
                }
                (Some(rendered), None) => print!("{rendered}"),
                (None, Some(path)) => {
                    let rendered = report.render();
                    if let Err(e) = e2c_journal::write_atomic(&path, rendered.as_bytes()) {
                        eprintln!("{}: {e}", path.display());
                        return ExitCode::FAILURE;
                    }
                    print!("{rendered}");
                }
                (None, None) => print!("{}", report.render()),
            }
            if report.is_clean() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        "bench" => {
            let mut filter: Option<String> = None;
            let mut out: Option<PathBuf> = None;
            let mut iters: Option<u32> = None;
            let mut warmup: Option<u32> = None;
            let mut seed = 0u64;
            let mut list = false;
            let mut it = args[1..].iter();
            while let Some(arg) = it.next() {
                let mut grab = |name: &str| -> Option<String> {
                    let v = it.next();
                    if v.is_none() {
                        eprintln!("{name} needs a value");
                    }
                    v.cloned()
                };
                match arg.as_str() {
                    "--filter" => match grab("--filter") {
                        Some(v) => filter = Some(v),
                        None => return usage(),
                    },
                    "--out" => match grab("--out") {
                        Some(v) => out = Some(PathBuf::from(v)),
                        None => return usage(),
                    },
                    "--iters" => match grab("--iters").and_then(|v| v.parse().ok()) {
                        Some(v) => iters = Some(v),
                        None => return usage(),
                    },
                    "--warmup" => match grab("--warmup").and_then(|v| v.parse().ok()) {
                        Some(v) => warmup = Some(v),
                        None => return usage(),
                    },
                    "--seed" => match grab("--seed").and_then(|v| v.parse().ok()) {
                        Some(v) => seed = v,
                        None => return usage(),
                    },
                    "--list" => list = true,
                    other => {
                        eprintln!("unknown flag {other}");
                        return usage();
                    }
                }
            }
            let mut registry = e2c_bench::default_registry().with_seed(seed);
            if let Some(pat) = filter {
                registry = registry.with_filter(pat);
            }
            // --iters/--warmup override every benchmark's own policy;
            // either alone keeps the other knob at the registry default.
            if iters.is_some() || warmup.is_some() {
                let base = e2c_bench::BenchPolicy::default();
                registry = registry.with_policy(e2c_bench::BenchPolicy::new(
                    warmup.unwrap_or(base.warmup_iters),
                    iters.unwrap_or(base.measure_iters),
                ));
            }
            if list {
                for name in registry.selected() {
                    println!("{name}");
                }
                return ExitCode::SUCCESS;
            }
            if registry.selected().is_empty() {
                eprintln!("bench: no benchmark matches the filter");
                return ExitCode::FAILURE;
            }
            let out_dir = out.unwrap_or_else(|| PathBuf::from("."));
            if let Err(e) = std::fs::create_dir_all(&out_dir) {
                eprintln!("bench: create {}: {e}", out_dir.display());
                return ExitCode::FAILURE;
            }
            registry = registry.with_out_dir(out_dir.clone());
            match registry.run() {
                Ok(reports) => {
                    for r in &reports {
                        println!("{}", r.render_row());
                    }
                    println!(
                        "bench: {} report(s) written to {}",
                        reports.len(),
                        out_dir.display()
                    );
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("bench: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "fuzz" => {
            let mut codec: Option<String> = None;
            let mut out: Option<PathBuf> = None;
            let mut iters = 10_000u64;
            let mut seed = 1u64;
            let mut list = false;
            let mut it = args[1..].iter();
            while let Some(arg) = it.next() {
                let mut grab = |name: &str| -> Option<String> {
                    let v = it.next();
                    if v.is_none() {
                        eprintln!("{name} needs a value");
                    }
                    v.cloned()
                };
                match arg.as_str() {
                    "--codec" => match grab("--codec") {
                        Some(v) => codec = Some(v),
                        None => return usage(),
                    },
                    "--out" => match grab("--out") {
                        Some(v) => out = Some(PathBuf::from(v)),
                        None => return usage(),
                    },
                    "--iters" => match grab("--iters").and_then(|v| v.parse().ok()) {
                        Some(v) => iters = v,
                        None => return usage(),
                    },
                    "--seed" => match grab("--seed").and_then(|v| v.parse().ok()) {
                        Some(v) => seed = v,
                        None => return usage(),
                    },
                    "--list" => list = true,
                    other => {
                        eprintln!("unknown flag {other}");
                        return usage();
                    }
                }
            }
            let mut registry = e2c_fuzz::default_registry()
                .with_seed(seed)
                .with_iters(iters);
            if let Some(pat) = codec {
                registry = registry.with_filter(pat);
            }
            if list {
                for name in registry.selected() {
                    println!("{name}");
                }
                return ExitCode::SUCCESS;
            }
            if registry.selected().is_empty() {
                eprintln!("fuzz: no codec matches the filter");
                return ExitCode::FAILURE;
            }
            let out_dir = out.unwrap_or_else(|| PathBuf::from("."));
            if let Err(e) = std::fs::create_dir_all(&out_dir) {
                eprintln!("fuzz: create {}: {e}", out_dir.display());
                return ExitCode::FAILURE;
            }
            registry = registry.with_out_dir(out_dir.clone());
            match registry.run() {
                Ok(reports) => {
                    let mut failed = false;
                    for r in &reports {
                        println!("{}", r.render_row());
                        if let Some(f) = &r.failure {
                            failed = true;
                            eprintln!(
                                "fuzz: {}: {}\nreproduce: e2clab fuzz --codec {} --seed {} --iters {}\nartifact: {}",
                                r.name,
                                f.kind,
                                r.name,
                                r.seed,
                                r.iters_requested,
                                out_dir.join(format!("FUZZ_{}.crash", r.name)).display()
                            );
                        }
                    }
                    if failed {
                        ExitCode::FAILURE
                    } else {
                        println!("fuzz: {} codec(s) clean", reports.len());
                        ExitCode::SUCCESS
                    }
                }
                Err(e) => {
                    eprintln!("fuzz: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "report" => {
            let Some(dir) = args.get(1) else {
                return usage();
            };
            let path = PathBuf::from(dir).join("summary.txt");
            match std::fs::read_to_string(&path) {
                Ok(text) => {
                    print!("{text}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("{}: {e}", path.display());
                    ExitCode::FAILURE
                }
            }
        }
        _ => usage(),
    }
}
