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
//!                 [--crash-at N] [--workers N] [--kill-worker N]
//!                 <conf.yaml>
//!     Run the optimization cycle of the configuration's `optimization`
//!     section against the Pl@ntNet engine model and print the Phase III
//!     summary. `--repeat` and `--duration` must be at least 1.
//!     `--faults` injects deterministic trial failures for
//!     testing the retry layer, e.g.
//!     `--faults "fail:2@0;delay:4:500;nan:5"` (fail trial 2's first
//!     attempt, delay trial 4 by 500 ms, make trial 5 return NaN).
//!     `--trace DIR` records the deterministic structured event log
//!     (worker lifecycle, searcher ask/tell, DES batches, engine queue
//!     depths) to `DIR/trace.jsonl`, plus
//!     Prometheus text snapshots: `DIR/metrics.prom` for the cycle and
//!     `DIR/cycles/cycle_<trial>.prom` per evaluated trial.
//!     `--replay-check` runs the same seeded cycle twice (at the
//!     configured `max_concurrent` — the commit sequencer makes even
//!     concurrent cycles replay bit-exactly), the second into fresh
//!     scratch directories, and checks every file of the second run's
//!     archive (and, with `--trace`, its trace) against the first, byte
//!     for byte: a self-check that the run is actually replayable.
//!     `--journal DIR` makes the run crash-safe: every searcher ask/tell
//!     and attempt outcome is appended (fsync'd) to a write-ahead log, `DIR/run.wal`, before taking effect; `--resume DIR`
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
//!     the ask transparently). `--kill-worker N` is the matching chaos
//!     knob: SIGKILL whichever worker receives the run's Nth (1-based)
//!     dispatched ask; a run that never fires it exits 1.
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
//!     `DIR/epochs/epoch_NN/`. `--journal J` makes the run crash-safe
//!     (`J/run.wal` journals each committed epoch's rendered CSV row,
//!     `J/epoch_NN/run.wal` each epoch's cycle); `--resume` continues a
//!     killed run to byte-identical artifacts; `--crash-at N` kills
//!     mid-epoch after the Nth cycle-journal append of the process,
//!     counted across epochs, and `--crash-at-epoch K` kills at the
//!     epoch-K boundary (both exit 86; a run that never reaches its knob
//!     exits 1). `--replay-check` runs the whole serving loop twice and
//!     checks every file of the second run (serving.csv, trace.jsonl and
//!     every epoch archive) against the first, byte for byte.
//! e2clab report <archive-dir>
//!     Re-print the summary of a previously written archive.
//! e2clab trace summarize <dir|trace.jsonl>
//!     Render a recorded trace as per-phase breakdowns and per-trial
//!     critical paths (ask -> execute -> tell, in virtual-time units).
//! e2clab lint [--format text|json|sarif] [--out FILE] [root]
//!     Run the detlint static-analysis pass — determinism (DET001–005),
//!     crash-safety panics (PANIC001–003), non-atomic artifact I/O
//!     (IO001–002), blocking-under-lock (LOCK001) and stale suppressions
//!     (SUP001) — over every `.rs` file under `root` (default: this
//!     workspace). Every rule is an error: any finding without a
//!     justified `// detlint: allow(CODE) <why>` fails the run.
//!     `--format json|sarif` emits machine-readable output (byte-
//!     stable, fixed key order); `--out FILE` writes it atomically via
//!     the journal crate's write-rename path while the text summary still
//!     goes to stdout.
//! e2clab bench [--filter PAT] [--out DIR] [--iters N] [--warmup N]
//!              [--seed S] [--list]
//!     Run the registered benchmark suite (DES event loop, processor-
//!     sharing churn, Pl@ntNet 600 s run, 50-trial Bayesian cycle,
//!     surrogate fit + batch prediction, journal WAL append/replay,
//!     journal wire encode/decode, detlint workspace scan, worker-farm
//!     dispatch overhead, one overloaded serving epoch) and write one
//!     `BENCH_<name>.json` report per benchmark to `--out` (default:
//!     current directory). `--filter` selects by name substring or exact
//!     tag (`smoke` matches every registered benchmark);
//!     `--iters`/`--warmup` override each benchmark's measurement
//!     policy; `--list` prints the selected names without running
//!     anything.
//! e2clab fuzz [--codec NAME] [--iters N] [--seed S] [--out DIR] [--list]
//!     Fuzz the hand-rolled codecs (YAML conf, journal wire, worker
//!     frames, `--faults` plans, trace JSON, WAL, `serve` journal rows,
//!     and this command line's flag tables: `cli_flags`) with
//!     seeded byte mutation, checking no-panic, roundtrip and
//!     differential properties. `--codec` selects by name
//!     substring or exact tag; a failure prints a reproduce command and
//!     writes the minimized input to `DIR/FUZZ_<name>.crash`.
//! ```

use e2c_conf::schema::ExperimentConf;
use e2c_core::experiment::Experiment;
use e2c_core::optimization::JournalConfig;
use e2c_core::ServingConfig;
use e2c_des::SimTime;
use e2c_journal::Sameness;
use e2c_testbed::grid5000;
use e2c_tune::{FarmSpec, FaultPlan};
use e2clab::cycle::{Cycle, CycleSpec};
use std::fmt::Display;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  e2clab validate <conf.yaml>\n  e2clab deploy <conf.yaml>\n  \
         e2clab optimize [--repeat N] [--duration SECS] [--seed S] [--archive DIR] \
         [--faults SPEC] [--trace DIR] [--replay-check] [--journal DIR | --resume DIR] \
         [--crash-at N] [--workers N] [--kill-worker N] <conf.yaml>\n  \
         e2clab worker [--repeat N] [--duration SECS] [--clients N] [--builtin quad]\n  \
         e2clab serve --out DIR [--scale USERS_PER_DAY] [--epochs N] [--epoch-duration SECS] \
         [--samples N] [--concurrent N] [--slo SECS] [--queue-bound N] [--shed-after SECS] \
         [--seed S] [--first-year Y] [--replay-check] [--journal DIR | --resume DIR] \
         [--crash-at N] [--crash-at-epoch K]\n  \
         e2clab report <archive-dir>\n  \
         e2clab trace summarize <dir|trace.jsonl>\n  \
         e2clab lint [--format text|json|sarif] [--out FILE] [root]\n  \
         e2clab bench [--filter PAT] [--out DIR] [--iters N] [--warmup N] [--seed S] [--list]\n  \
         e2clab fuzz [--codec NAME] [--iters N] [--seed S] [--out DIR] [--list]"
    );
    ExitCode::from(2)
}

/// Why a subcommand stopped early.
enum Exit {
    /// A malformed command line: exits 2 with the usage text.
    Usage(String),
    /// A run-time failure: exits 1.
    Failed(String),
}

impl From<String> for Exit {
    fn from(msg: String) -> Exit {
        Exit::Usage(msg)
    }
}

impl From<&str> for Exit {
    fn from(msg: &str) -> Exit {
        Exit::Usage(msg.to_string())
    }
}

fn failed(msg: impl Display) -> Exit {
    Exit::Failed(msg.to_string())
}

/// A run-time failure about `path`.
fn failed_at(path: &Path, e: impl Display) -> Exit {
    failed(format!("{}: {e}", path.display()))
}

/// A subcommand's result: its exit code, or why it stopped early.
type Outcome = Result<ExitCode, Exit>;

/// Print why a subcommand stopped, if it did, and pick the exit code.
fn exit_code(outcome: Outcome) -> ExitCode {
    match outcome {
        Ok(code) => code,
        Err(Exit::Usage(msg)) => {
            eprintln!("{msg}");
            usage()
        }
        Err(Exit::Failed(msg)) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}

// ---------------------------------------------------------------------------
// Flags
// ---------------------------------------------------------------------------

/// One subcommand's flag table: the flags that take a value, the
/// switches, and whether a bare (non-`--`) argument is accepted.
struct FlagSpec {
    /// Value-taking flags, space-separated.
    values: &'static str,
    /// Switches, space-separated.
    switches: &'static str,
    positional: bool,
}

/// A command line split by its [`FlagSpec`]. Values keep their order; a
/// flag given twice reads as its last value, and so does a repeated
/// positional.
#[derive(Debug, Default, PartialEq)]
struct Flags {
    values: Vec<(&'static str, String)>,
    switches: Vec<&'static str>,
    positional: Option<String>,
}

impl FlagSpec {
    /// Split `args` by this table. A value flag takes the next argument
    /// verbatim; a flag missing its value, an unknown flag, or a bare
    /// argument where none is accepted is an error naming it.
    fn parse(&self, args: &[String]) -> Result<Flags, String> {
        let mut flags = Flags::default();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if let Some(name) = self.values.split_whitespace().find(|&f| f == arg) {
                let value = it.next().ok_or_else(|| format!("{name} needs a value"))?;
                flags.values.push((name, value.clone()));
            } else if let Some(name) = self.switches.split_whitespace().find(|&f| f == arg) {
                flags.switches.push(name);
            } else if self.positional && !arg.starts_with("--") {
                flags.positional = Some(arg.clone());
            } else {
                return Err(format!("unknown flag {arg}"));
            }
        }
        Ok(flags)
    }
}

impl Flags {
    /// The last value given for `flag`.
    fn raw(&self, flag: &'static str) -> Option<&str> {
        self.values
            .iter()
            .rev()
            .find(|(f, _)| *f == flag)
            .map(|(_, v)| v.as_str())
    }

    fn switch(&self, flag: &'static str) -> bool {
        self.switches.contains(&flag)
    }

    fn path(&self, flag: &'static str) -> Option<PathBuf> {
        self.raw(flag).map(PathBuf::from)
    }

    /// `flag`'s value read by `parse`; its error becomes `{flag}: {e}`.
    fn parsed<T, E: Display>(
        &self,
        flag: &'static str,
        parse: impl FnOnce(&str) -> Result<T, E>,
    ) -> Result<Option<T>, String> {
        self.raw(flag)
            .map(|v| parse(v).map_err(|e| format!("{flag}: {e}")))
            .transpose()
    }

    fn opt<T: FromStr>(&self, flag: &'static str) -> Result<Option<T>, String> {
        self.parsed(flag, |v| {
            v.parse::<T>().map_err(|_| format!("invalid value `{v}`"))
        })
    }

    fn get<T: FromStr>(&self, flag: &'static str, default: T) -> Result<T, String> {
        Ok(self.opt(flag)?.unwrap_or(default))
    }

    /// [`Flags::get`] for a count that must be at least 1.
    fn positive<T: FromStr + Default + PartialEq>(
        &self,
        flag: &'static str,
        default: T,
    ) -> Result<T, String> {
        let v = self.get(flag, default)?;
        if v == T::default() {
            return Err(format!("{flag} must be at least 1"));
        }
        Ok(v)
    }
}

/// Parse `args` by `spec` and run `cmd` on the flags.
fn with_flags(spec: &FlagSpec, args: &[String], cmd: fn(&Flags) -> Outcome) -> ExitCode {
    exit_code(spec.parse(args).map_err(Exit::Usage).and_then(|f| cmd(&f)))
}

// ---------------------------------------------------------------------------
// Fuzzing the flag tables
// ---------------------------------------------------------------------------

/// Every subcommand's flag table.
const TABLES: [&FlagSpec; 6] = [&OPTIMIZE, &SERVE, &WORKER, &LINT, &BENCH, &FUZZ];

impl Flags {
    /// The command line these flags read back from: the values in order,
    /// then the switches, then the positional.
    fn to_args(&self) -> Vec<String> {
        let values = self
            .values
            .iter()
            .flat_map(|(f, v)| [f.to_string(), v.clone()]);
        let switches = self.switches.iter().map(|s| s.to_string());
        values
            .chain(switches)
            .chain(self.positional.clone())
            .collect()
    }
}

/// The `cli_flags` fuzz target: [`FlagSpec::parse`] reads every command
/// line. The input is a NUL-separated argv, parsed by each subcommand's
/// table. Parsing must never panic, and on an accepted argv: every flag
/// read is one of the table's, a positional is read only where the table
/// takes one, every value is the argument that followed its flag, and
/// the flags rendered back to an argv parse to equal flags.
struct CliFlagsTarget;

/// A short argument: empty, a number, or a few printable characters.
fn random_arg(rng: &mut e2c_fuzz::SplitMix64) -> String {
    match rng.below(4) {
        0 => String::new(),
        1 => rng.below(1000).to_string(),
        _ => (0..1 + rng.index(6)).map(|_| rng.ascii() as char).collect(),
    }
}

impl e2c_fuzz::FuzzTarget for CliFlagsTarget {
    fn name(&self) -> &'static str {
        "cli_flags"
    }

    fn tags(&self) -> &'static [&'static str] {
        &["text", "smoke"]
    }

    fn generate(&mut self, rng: &mut e2c_fuzz::SplitMix64) -> Vec<u8> {
        // Mostly one table's own flags, so each table accepts its share.
        let names = |t: &FlagSpec| -> Vec<&str> {
            t.values
                .split_whitespace()
                .chain(t.switches.split_whitespace())
                .collect()
        };
        let own = names(TABLES[rng.index(TABLES.len())]);
        let any: Vec<&str> = TABLES.iter().flat_map(|t| names(t)).collect();
        let args: Vec<String> = (0..rng.index(7))
            .map(|_| match rng.below(8) {
                0..=3 => own[rng.index(own.len())].to_string(),
                4 => any[rng.index(any.len())].to_string(),
                5 => format!("--{}", random_arg(rng)),
                _ => random_arg(rng),
            })
            .collect();
        let mut bytes = args.join("\0").into_bytes();
        if rng.chance(1, 4) {
            e2c_fuzz::engine::mutate(rng, &mut bytes);
        }
        bytes
    }

    fn check(&self, input: &[u8]) -> Result<(), String> {
        let text = String::from_utf8_lossy(input);
        let args: Vec<String> = if text.is_empty() {
            Vec::new()
        } else {
            text.split('\0').map(String::from).collect()
        };
        for spec in TABLES {
            if let Ok(flags) = spec.parse(&args) {
                check_accepted(spec, &args, &flags).map_err(|e| format!("{args:?}: {e}"))?;
            }
        }
        Ok(())
    }
}

/// The properties of `flags`, which `spec` read from `args`.
fn check_accepted(spec: &FlagSpec, args: &[String], flags: &Flags) -> Result<(), String> {
    let listed = |table: &str, flag: &str| table.split_whitespace().any(|f| f == flag);
    if let Some((flag, _)) = flags.values.iter().find(|(f, _)| !listed(spec.values, f)) {
        return Err(format!("{flag} read as a value flag of a table without it"));
    }
    if let Some(flag) = flags.switches.iter().find(|f| !listed(spec.switches, f)) {
        return Err(format!("{flag} read as a switch of a table without it"));
    }
    if let Some(arg) = &flags.positional {
        if !spec.positional || arg.starts_with("--") || !args.contains(arg) {
            return Err(format!("positional {arg:?} read where none may be"));
        }
    }
    let mut rest = args;
    for (flag, value) in &flags.values {
        let at = rest
            .windows(2)
            .position(|w| w[0] == *flag && w[1] == *value)
            .ok_or_else(|| format!("{flag} {value:?} does not follow in the argv"))?;
        rest = &rest[at + 2..];
    }
    match spec.parse(&flags.to_args()) {
        Ok(again) if again == *flags => Ok(()),
        Ok(again) => Err(format!("{flags:?} renders and re-parses as {again:?}")),
        Err(e) => Err(format!("{flags:?} renders to an argv it refuses: {e}")),
    }
}

/// The crash-safety flags `optimize` and `serve` share, checked once:
/// `--journal` and `--resume` are exclusive, the crash knobs need one of
/// them, and `--replay-check` excludes both.
fn journal_conf(flags: &Flags) -> Result<Option<JournalConfig>, String> {
    let journal = match (flags.path("--journal"), flags.path("--resume")) {
        (Some(_), Some(_)) => return Err("--journal and --resume are mutually exclusive".into()),
        (Some(dir), None) => JournalConfig::fresh(dir),
        (None, Some(dir)) => JournalConfig::resume(dir),
        (None, None) => {
            return match ["--crash-at", "--crash-at-epoch"]
                .into_iter()
                .find(|&knob| flags.raw(knob).is_some())
            {
                Some(knob) => Err(format!("{knob} needs --journal or --resume")),
                None => Ok(None),
            };
        }
    };
    if flags.switch("--replay-check") {
        return Err("--replay-check cannot be combined with --journal/--resume".into());
    }
    Ok(Some(journal.crash_after(flags.opt("--crash-at")?)))
}

// ---------------------------------------------------------------------------
// Replay checks
// ---------------------------------------------------------------------------

/// Where `--replay-check` runs its second run, under `b/`, and the first
/// when it has no `--archive`, under `a/`. Removed after the check.
fn replay_scratch() -> PathBuf {
    std::env::temp_dir().join(format!("e2clab-replay-{}", std::process::id()))
}

/// `--replay-check`: run the seeded `what` a second time with `again`,
/// into a fresh scratch directory, and check every file that run wrote
/// ([`e2c_journal::compare_tree`]). Each `(prefix, sub, first)` compares
/// `<scratch>/<sub>` with the first run's `first`, printing `identical`
/// per file and each mismatch, labelled `{prefix}{rel}`. The commit
/// sequencer orders effects canonically, so a seeded cycle, and a serve
/// run of such cycles, replays bit-exactly at any concurrency.
fn replay(
    what: &str,
    again: impl FnOnce(&Path) -> Result<(), String>,
    trees: &[(&str, &str, &Path)],
) -> Outcome {
    let dir_b = replay_scratch().join("b");
    let _ = std::fs::remove_dir_all(&dir_b);
    let ok = again(&dir_b).map_err(failed).and_then(|()| {
        let mut ok = true;
        for (prefix, sub, first) in trees {
            let fresh = dir_b.join(sub);
            let entries =
                e2c_journal::compare_tree(&fresh, first).map_err(|e| failed_at(&fresh, e))?;
            for (rel, same) in entries {
                if let Sameness::Identical(len) = same {
                    println!("replay-check: {prefix}{rel} identical ({len} bytes)");
                } else {
                    eprintln!("replay-check: {prefix}{rel} {same:?} — run is not replayable");
                    ok = false;
                }
            }
        }
        Ok(ok)
    });
    let _ = std::fs::remove_dir_all(replay_scratch());
    if !ok? {
        return Ok(ExitCode::FAILURE);
    }
    println!("replay-check: PASS — {what} replays byte-identically");
    Ok(ExitCode::SUCCESS)
}

// ---------------------------------------------------------------------------
// Subcommands
// ---------------------------------------------------------------------------

/// Read and validate an experiment configuration; a failure reads
/// `invalid: <path>: <why>` and exits 1.
fn load_conf(path: &str) -> Result<ExperimentConf, Exit> {
    std::fs::read_to_string(path)
        .map_err(|e| e.to_string())
        .and_then(|text| e2c_conf::parse(&text).map_err(|e| e.to_string()))
        .and_then(|doc| ExperimentConf::from_value(&doc).map_err(|e| e.to_string()))
        .map_err(|e| failed(format!("invalid: {path}: {e}")))
}

fn validate(path: &str) -> Outcome {
    let conf = load_conf(path)?;
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
    Ok(ExitCode::SUCCESS)
}

fn deploy(path: &str) -> Outcome {
    let mut exp = Experiment::new(load_conf(path)?, grid5000::paper_testbed());
    exp.deploy()
        .map_err(|e| failed(format!("deployment failed: {e}")))?;
    print!("{}", exp.describe());
    exp.teardown();
    Ok(ExitCode::SUCCESS)
}

/// `report <archive-dir>`: re-print a written archive's summary.
fn show_summary(dir: &str) -> Outcome {
    let path = PathBuf::from(dir).join("summary.txt");
    let text = std::fs::read_to_string(&path).map_err(|e| failed_at(&path, e))?;
    print!("{text}");
    Ok(ExitCode::SUCCESS)
}

/// `trace summarize <dir|trace.jsonl>`: render a recorded trace.
fn summarize_trace(target: &str) -> Outcome {
    let path = PathBuf::from(target);
    let file = if path.is_dir() {
        path.join("trace.jsonl")
    } else {
        path
    };
    let events = e2c_trace::load_jsonl(&file).map_err(failed)?;
    print!("{}", e2c_trace::TraceSummary::from_events(&events).render());
    Ok(ExitCode::SUCCESS)
}

const OPTIMIZE: FlagSpec = FlagSpec {
    values: "--repeat --duration --seed --archive --faults --trace --journal --resume \
             --crash-at --workers --kill-worker",
    switches: "--replay-check",
    positional: true,
};

fn optimize(flags: &Flags) -> Outcome {
    let path = flags
        .positional
        .as_deref()
        .ok_or("optimize needs a <conf.yaml>")?;
    let repeat = flags.positive("--repeat", 1)?;
    let duration = flags.positive("--duration", 1380)?;
    let seed = flags.get("--seed", 0)?;
    let archive = flags.path("--archive");
    let trace = flags.path("--trace");
    let faults = flags
        .parsed("--faults", FaultPlan::parse)?
        .unwrap_or_default();
    let replay_check = flags.switch("--replay-check");
    let journal = journal_conf(flags)?;
    let workers = flags.get("--workers", 0)?;
    // Chaos knob for the crash gate: SIGKILL whichever worker receives
    // the run's Nth (1-based) dispatched ask, e.g. `--kill-worker 2`.
    let kill_worker: Option<u64> = flags.opt("--kill-worker")?;
    // Without a farm, or at a zeroth ask, the kill could never fire.
    if let Some(n) = kill_worker.filter(|&n| workers == 0 || n == 0) {
        return Err(format!("--kill-worker {n} needs --workers, and N >= 1").into());
    }
    if workers > 0 && replay_check {
        return Err("--workers cannot be combined with --replay-check".into());
    }

    let conf = load_conf(path)?;
    let opt_conf = conf
        .optimization
        .ok_or_else(|| failed(format!("{path}: no `optimization` section")))?;
    // Workload: total concurrent requests of all client services (falls
    // back to the paper's 80).
    let clients = conf
        .layers
        .iter()
        .flat_map(|l| &l.services)
        .filter(|s| s.name.contains("client"))
        .map(|s| s.quantity * 20)
        .sum::<usize>()
        .max(80);
    // `--workers N` farms evaluations out to N `e2clab worker` child
    // processes. Deliberately NOT part of the journal fingerprint: the
    // worker count shapes wall-clock only, never artifacts, so a resume
    // may change it freely.
    let farm = if workers > 0 {
        let exe = std::env::current_exe()
            .map_err(|e| failed(format!("--workers: cannot locate own binary: {e}")))?;
        let wargs = format!("worker --repeat {repeat} --duration {duration} --clients {clients}");
        let wargs = wargs.split(' ').map(String::from).collect();
        let mut fs = FarmSpec::new(exe, wargs, workers, seed);
        fs.kill_after = kill_worker;
        Some(fs)
    } else {
        None
    };
    // Fold the CLI-level knobs that shape the objective into the journal
    // fingerprint: a resume under a different workload must be refused,
    // not silently diverge.
    let journal = journal.map(|jc| {
        jc.extra_fingerprint(format!(
            "repeat={repeat};duration={duration};clients={clients};faults={faults:?}"
        ))
    });
    let cycle = Cycle {
        opt_conf,
        seed,
        faults,
        spec: CycleSpec {
            repeat,
            duration,
            clients,
        },
        journal,
        farm,
    };
    // `--replay-check` compares a second run with this one, which
    // archives into scratch when `--archive` is not given.
    let dir_a = archive
        .clone()
        .or_else(|| replay_check.then(|| replay_scratch().join("a")));
    let summary = cycle.run(dir_a.clone(), trace.as_deref()).map_err(failed)?;
    // The crash knob exits the process when it fires; a run that got here
    // never reached it, and a chaos test relying on it would pass vacuously.
    if let Some(n) = cycle.journal.as_ref().and_then(|jc| jc.crash_after) {
        return Err(failed(format!(
            "--crash-at {n} never fired: this process appended only {} journal records",
            summary.journal_appended
        )));
    }
    print!("{}", summary.render());
    if let Some(dir) = &archive {
        println!("archive written to {}", dir.display());
    }
    if let Some(dir) = &trace {
        println!("trace written to {}", dir.display());
    }
    let Some(dir_a) = dir_a.as_deref().filter(|_| replay_check) else {
        return Ok(ExitCode::SUCCESS);
    };
    let mut trees = vec![("", "archive", dir_a)];
    trees.extend(trace.as_deref().map(|t| ("trace/", "trace", t)));
    let again = |b: &Path| {
        let trace_b = trace.as_ref().map(|_| b.join("trace"));
        cycle
            .run(Some(b.join("archive")), trace_b.as_deref())
            .map(drop)
    };
    replay("seeded run", again, &trees)
}

const SERVE: FlagSpec = FlagSpec {
    values: "--out --scale --epochs --epoch-duration --samples --concurrent --slo \
             --queue-bound --shed-after --seed --first-year --journal --resume --crash-at \
             --crash-at-epoch",
    switches: "--replay-check",
    positional: false,
};

fn serve(flags: &Flags) -> Outcome {
    let out = flags.path("--out").ok_or("serve needs --out DIR")?;
    let mut cfg = ServingConfig::new(out);
    cfg.scale = flags.get("--scale", cfg.scale)?;
    cfg.epochs = flags.get("--epochs", cfg.epochs)?;
    cfg.epoch_duration = SimTime::from_secs(flags.get("--epoch-duration", 180)?);
    cfg.samples = flags.get("--samples", cfg.samples)?;
    cfg.max_concurrent = flags.get("--concurrent", cfg.max_concurrent)?;
    cfg.slo = flags.get("--slo", cfg.slo)?;
    cfg.queue_bound = flags.get("--queue-bound", cfg.queue_bound)?;
    // `--shed-after 0` disables deadline shedding.
    let shed_after: f64 = flags.get("--shed-after", 8.0)?;
    cfg.shed_after = (shed_after > 0.0).then(|| SimTime::from_secs_f64(shed_after));
    cfg.seed = flags.get("--seed", cfg.seed)?;
    cfg.first_year = flags.get("--first-year", cfg.first_year)?;
    if let Some(jc) = journal_conf(flags)? {
        cfg.journal_dir = Some(jc.dir);
        cfg.resume = jc.resume;
        cfg.crash_at = jc.crash_after;
    }
    cfg.crash_at_epoch = flags.opt("--crash-at-epoch")?;
    let report = e2c_core::serving::run_serving(&cfg).map_err(failed)?;
    // As in `optimize`: a crash knob that never fired would let a chaos
    // test pass vacuously.
    if let Some(n) = cfg.crash_at {
        return Err(failed(format!(
            "--crash-at {n} never fired: this process appended only {} journal records",
            report.journal_appended
        )));
    }
    if let Some(k) = cfg.crash_at_epoch {
        return Err(failed(format!(
            "--crash-at-epoch {k} never fired: this process committed no epoch {k}"
        )));
    }
    print!("{}", report.render());
    println!("serving artifacts written to {}", cfg.out_dir.display());
    if flags.switch("--replay-check") {
        let mut cfg_b = cfg.clone();
        let again = move |b: &Path| {
            cfg_b.out_dir = b.to_path_buf();
            e2c_core::serving::run_serving(&cfg_b).map(drop)
        };
        return replay("serving run", again, &[("", "", &cfg.out_dir)]);
    }
    Ok(ExitCode::SUCCESS)
}

const WORKER: FlagSpec = FlagSpec {
    values: "--repeat --duration --clients --builtin",
    switches: "",
    positional: false,
};

/// Farm child: speaks the framed stdio protocol on stdin/stdout and runs
/// one engine evaluation per ask. Spawned by `optimize --workers N`; not
/// intended for interactive use.
fn worker(flags: &Flags) -> Outcome {
    let spec = CycleSpec {
        repeat: flags.positive("--repeat", 1)?,
        duration: flags.positive("--duration", 1380)?,
        clients: flags.get("--clients", 80)?,
    };
    let served = match flags.raw("--builtin") {
        // Cheap deterministic objective for farm tests and benches: no
        // engine run, just a quadratic bowl.
        Some("quad") => e2c_tune::worker::serve(|ask, _tracer| {
            let value = ask
                .config
                .iter()
                .map(|x| (x - 3.0) * (x - 3.0))
                .sum::<f64>();
            (value, Vec::new())
        }),
        Some(other) => {
            return Err(failed(format!(
                "unknown --builtin objective `{other}` (expected quad)"
            )))
        }
        // The engine objective the in-process path runs; the side
        // artifacts travel back as aux pairs, since the parent owns the
        // archive and trace directories.
        None => e2c_tune::worker::serve(move |ask, tracer| {
            let ev = spec.evaluate(&ask.config, ask.trial, tracer.cloned(), tracer.is_some());
            (ev.mean, ev.into_aux())
        }),
    };
    served.map_err(|e| failed(format!("worker: {e}")))?;
    Ok(ExitCode::SUCCESS)
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

const LINT: FlagSpec = FlagSpec {
    values: "--format --out",
    switches: "",
    positional: true,
};

fn lint(flags: &Flags) -> Outcome {
    let format = flags.raw("--format").unwrap_or("text");
    if !matches!(format, "text" | "json" | "sarif") {
        return Err("--format must be text, json or sarif".into());
    }
    let root = flags
        .positional
        .as_ref()
        .map_or_else(workspace_root, PathBuf::from);
    // A directory inside this workspace keeps workspace-relative labels,
    // so the path-scoped rules apply to it as they do to the whole tree.
    let workspace = workspace_root();
    let (label_root, dir) = match root.canonicalize() {
        Ok(dir) if dir.starts_with(&workspace) => (workspace, dir),
        _ => (root.clone(), root),
    };
    let report = detlint::lint_workspace(&label_root, &dir, &detlint::Config::default())
        .map_err(|e| failed(format!("lint failed: {e}")))?;
    let text = report.render();
    let machine = match format {
        "json" => Some(detlint::to_json(&report)),
        "sarif" => Some(detlint::to_sarif(&report)),
        _ => None,
    };
    if let Some(path) = flags.path("--out") {
        // The file gets the selected format; stdout keeps the human
        // summary for CI logs.
        let rendered = machine.as_ref().unwrap_or(&text);
        e2c_journal::write_atomic(&path, rendered.as_bytes()).map_err(|e| failed_at(&path, e))?;
        print!("{text}");
    } else {
        print!("{}", machine.as_ref().unwrap_or(&text));
    }
    Ok(if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `--out DIR` (default: the current directory), created if missing;
/// `what` prefixes the error.
fn out_dir(flags: &Flags, what: &str) -> Result<PathBuf, Exit> {
    let dir = flags.path("--out").unwrap_or_else(|| PathBuf::from("."));
    std::fs::create_dir_all(&dir)
        .map_err(|e| failed(format!("{what}: create {}: {e}", dir.display())))?;
    Ok(dir)
}

const BENCH: FlagSpec = FlagSpec {
    values: "--filter --out --iters --warmup --seed",
    switches: "--list",
    positional: false,
};

fn bench(flags: &Flags) -> Outcome {
    let iters: Option<u32> = flags.opt("--iters")?;
    let warmup: Option<u32> = flags.opt("--warmup")?;
    let mut registry = e2c_bench::default_registry().with_seed(flags.get("--seed", 0)?);
    if let Some(pat) = flags.raw("--filter") {
        registry = registry.with_filter(pat.to_string());
    }
    // --iters/--warmup override every benchmark's own policy; either
    // alone keeps the other knob at the registry default.
    if iters.is_some() || warmup.is_some() {
        let base = e2c_bench::BenchPolicy::default();
        registry = registry.with_policy(e2c_bench::BenchPolicy::new(
            warmup.unwrap_or(base.warmup_iters),
            iters.unwrap_or(base.measure_iters),
        ));
    }
    if flags.switch("--list") {
        for name in registry.selected() {
            println!("{name}");
        }
        return Ok(ExitCode::SUCCESS);
    }
    if registry.selected().is_empty() {
        return Err(failed("bench: no benchmark matches the filter"));
    }
    let out = out_dir(flags, "bench")?;
    let reports = registry
        .with_out_dir(out.clone())
        .run()
        .map_err(|e| failed(format!("bench: {e}")))?;
    for r in &reports {
        println!("{}", r.render_row());
    }
    println!(
        "bench: {} report(s) written to {}",
        reports.len(),
        out.display()
    );
    Ok(ExitCode::SUCCESS)
}

const FUZZ: FlagSpec = FlagSpec {
    values: "--codec --out --iters --seed",
    switches: "--list",
    positional: false,
};

fn fuzz(flags: &Flags) -> Outcome {
    let mut registry = e2c_fuzz::default_registry()
        .register(CliFlagsTarget)
        .with_seed(flags.get("--seed", 1)?)
        .with_iters(flags.get("--iters", 10_000)?);
    if let Some(pat) = flags.raw("--codec") {
        registry = registry.with_filter(pat.to_string());
    }
    if flags.switch("--list") {
        for name in registry.selected() {
            println!("{name}");
        }
        return Ok(ExitCode::SUCCESS);
    }
    if registry.selected().is_empty() {
        return Err(failed("fuzz: no codec matches the filter"));
    }
    let out = out_dir(flags, "fuzz")?;
    let reports = registry
        .with_out_dir(out.clone())
        .run()
        .map_err(|e| failed(format!("fuzz: {e}")))?;
    let mut clean = true;
    for r in &reports {
        println!("{}", r.render_row());
        if let Some(f) = &r.failure {
            clean = false;
            eprintln!(
                "fuzz: {}: {}\nreproduce: e2clab fuzz --codec {} --seed {} --iters {}\nartifact: {}",
                r.name,
                f.kind,
                r.name,
                r.seed,
                r.iters_requested,
                out.join(format!("FUZZ_{}.crash", r.name)).display()
            );
        }
    }
    if !clean {
        return Ok(ExitCode::FAILURE);
    }
    println!("fuzz: {} codec(s) clean", reports.len());
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first().map(|s| s.as_str()) else {
        return usage();
    };
    let rest = &args[1..];
    let first = rest.first().map(String::as_str);
    match (command, first) {
        ("optimize", _) => with_flags(&OPTIMIZE, rest, optimize),
        ("serve", _) => with_flags(&SERVE, rest, serve),
        ("worker", _) => with_flags(&WORKER, rest, worker),
        ("lint", _) => with_flags(&LINT, rest, lint),
        ("bench", _) => with_flags(&BENCH, rest, bench),
        ("fuzz", _) => with_flags(&FUZZ, rest, fuzz),
        ("validate", Some(path)) => exit_code(validate(path)),
        ("deploy", Some(path)) => exit_code(deploy(path)),
        ("report", Some(dir)) => exit_code(show_summary(dir)),
        ("trace", Some("summarize")) => match rest.get(1) {
            Some(target) => exit_code(summarize_trace(target)),
            None => usage(),
        },
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use e2clab::cycle::Evaluation;

    /// Parse a space-separated command line by `spec`.
    fn parse(spec: &FlagSpec, line: &str) -> Result<Flags, String> {
        spec.parse(
            &line
                .split_whitespace()
                .map(String::from)
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn the_table_splits_values_switches_and_positionals() {
        let flags = parse(&OPTIMIZE, "--seed 7 --replay-check a.yaml --seed 9 b.yaml").unwrap();
        // The last value and the last positional win.
        assert_eq!(flags.get("--seed", 0u64), Ok(9));
        assert!(flags.switch("--replay-check"));
        assert_eq!(flags.positional.as_deref(), Some("b.yaml"));
        assert_eq!(flags.get("--workers", 3usize), Ok(3));
        // A value flag takes the next argument verbatim.
        let flags = parse(&OPTIMIZE, "--archive --trace").unwrap();
        assert_eq!(flags.path("--archive"), Some(PathBuf::from("--trace")));
        // A repeated `lint --format` reads as its last value.
        let flags = parse(&LINT, "--format json --format sarif").unwrap();
        assert_eq!(flags.raw("--format"), Some("sarif"));
    }

    #[test]
    fn malformed_command_lines_name_the_flag() {
        let err = |spec, line| parse(spec, line).unwrap_err();
        assert_eq!(err(&OPTIMIZE, "c.yaml --seed"), "--seed needs a value");
        assert_eq!(err(&BENCH, "--list --iters"), "--iters needs a value");
        assert_eq!(err(&OPTIMIZE, "--bogus"), "unknown flag --bogus");
        for spec in [&SERVE, &WORKER, &BENCH, &FUZZ] {
            assert_eq!(err(spec, "extra"), "unknown flag extra");
        }
        let flags = parse(&WORKER, "--clients abc --repeat 0").unwrap();
        let clients = flags.get("--clients", 80usize);
        assert_eq!(clients.unwrap_err(), "--clients: invalid value `abc`");
        let repeat = flags.positive("--repeat", 1usize);
        assert_eq!(repeat.unwrap_err(), "--repeat must be at least 1");
        assert_eq!(flags.positive("--duration", 1380u64), Ok(1380));
    }

    #[test]
    fn cli_flags_target_holds_on_accepted_argvs_of_every_table() {
        use e2c_fuzz::FuzzTarget;
        let mut target = CliFlagsTarget;
        let mut rng = e2c_fuzz::SplitMix64::new(0xE2C);
        let mut accepted = [0usize; TABLES.len()];
        for i in 0..3000 {
            let input = target.generate(&mut rng);
            let outcome = e2c_fuzz::engine::guard(|| target.check(&input));
            assert_eq!(outcome, Ok(()), "iteration {i}");
            let args: Vec<String> = String::from_utf8_lossy(&input)
                .split('\0')
                .map(String::from)
                .collect();
            for (n, spec) in accepted.iter_mut().zip(TABLES) {
                *n += usize::from(spec.parse(&args).is_ok_and(|f| !f.values.is_empty()));
            }
        }
        // The properties only bite on argvs a table accepts with values.
        assert!(accepted.iter().all(|&n| n > 50), "{accepted:?}");
        // An argv that ends in a value flag holds too: every table
        // refuses it, or reads the flag's value from it.
        assert_eq!(CliFlagsTarget.check(b"--seed"), Ok(()));
        assert_eq!(CliFlagsTarget.check(b"extra\0--out"), Ok(()));
    }

    #[test]
    fn journal_flags_are_checked_once_for_both_commands() {
        let conf = |spec, line| journal_conf(&parse(spec, line).unwrap());
        for spec in [&OPTIMIZE, &SERVE] {
            assert!(conf(spec, "--journal a --resume b").is_err());
            assert!(conf(spec, "--replay-check --resume a").is_err());
            let crash = conf(spec, "--crash-at 2").unwrap_err();
            assert_eq!(crash, "--crash-at needs --journal or --resume");
            assert!(conf(spec, "").unwrap().is_none());
        }
        assert!(conf(&SERVE, "--crash-at-epoch 0").is_err());
        let jc = conf(&SERVE, "--resume j --crash-at 3").unwrap().unwrap();
        assert!(jc.resume);
        assert_eq!((jc.dir, jc.crash_after), (PathBuf::from("j"), Some(3)));
    }

    #[test]
    fn traced_evaluations_round_trip_through_aux_pairs() {
        let prom = Some("# TYPE x gauge\nx 1\n".to_string());
        let (mean, completed) = (0.1 + 0.2, 4242.0);
        let aux = Evaluation {
            mean,
            completed,
            prom: prom.clone(),
        }
        .into_aux();
        let keys: Vec<&str> = aux.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["completed", "prom"]);
        let back = Evaluation::from_aux(mean, &aux);
        assert_eq!(
            (back.mean, back.completed, back.prom),
            (mean, completed, prom)
        );
        // An untraced evaluation ships nothing, and reads back no count.
        let untraced = Evaluation {
            mean,
            completed,
            prom: None,
        };
        assert!(untraced.into_aux().is_empty());
        let back = Evaluation::from_aux(mean, &[]);
        assert!(back.completed.is_nan() && back.prom.is_none());
    }
}
