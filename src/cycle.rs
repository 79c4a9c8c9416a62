//! The engine-backed optimization cycle behind `e2clab optimize`.
//!
//! [`CycleSpec::evaluate`] is the one Pl@ntNet engine evaluation, run in
//! process or in the `e2clab worker` farm children; [`Cycle::run`]
//! launches the farm, drives the Optimization Manager over one objective
//! that runs the evaluation in either place, and lands each traced
//! trial's side artifacts.
//!
//! The per-trial artifacts (`cycles/cycle_NNNN.prom` here and the
//! archive's `evals/trial_N/result.csv`) are *views* of `run.wal`: they
//! are written with [`e2c_journal::write_view`], without fsync, and a
//! `--resume` renders any that a machine crash lost or tore again. A
//! prom's landing attempt notes a digest of its bytes for that check.
//! A journaled run writes its run-level snapshots (`trace.jsonl` and
//! `metrics.prom` here, the archive's files in `e2c_core`) as views too,
//! rewritten whole by every run, resumed or not; so it fsyncs `run.wal`
//! alone. A run without a journal fsyncs each snapshot.

use e2c_conf::schema::OptimizationConf;
use e2c_core::optimization::{
    EvalContext, JournalConfig, OptimizationManager, OptimizationSummary,
};
use e2c_des::SimTime;
use e2c_tune::{FarmOutcome, FarmSpec, FaultPlan, Trial, WorkerFarm};
use plantnet::sim::{Experiment as EngineRun, ExperimentSpec};
use plantnet::PoolConfig;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The attempt note carrying [`prom_digest`] of the trial's landed
/// `cycles/cycle_NNNN.prom`.
const PROM_DIGEST: &str = "prom_digest";

/// Workload knobs shared by every evaluation of a cycle (the engine run
/// behind the objective).
#[derive(Clone, Copy)]
pub struct CycleSpec {
    /// Engine repetitions per evaluation.
    pub repeat: usize,
    /// Simulated seconds per repetition.
    pub duration: u64,
    /// Concurrent clients driving the engine.
    pub clients: usize,
}

/// What one engine evaluation yields: the objective value, the trial's
/// completed-request count and, when asked for, its per-trial Prometheus
/// snapshot.
#[derive(Debug, PartialEq)]
pub struct Evaluation {
    /// The objective: the mean response time over the repetitions.
    pub mean: f64,
    /// Requests completed over the repetitions.
    pub completed: f64,
    /// The repetitions' metrics as Prometheus text.
    pub prom: Option<String>,
}

impl CycleSpec {
    /// Run the Pl@ntNet engine on `point` for `trial`. Engine events go
    /// through `tracer`: under concurrent execution it is a per-trial
    /// buffer the commit sequencer splices into the run trace in
    /// canonical order. With `prom`, the evaluation also renders its
    /// repetitions, concatenated on one time axis, as Prometheus text.
    /// The text comes from the engine's metrics registry alone, so its
    /// bytes are the same whether or not a tracer is attached, and the
    /// run is seeded by `trial`, so re-running an evaluation renders them
    /// again.
    pub fn evaluate(
        &self,
        point: &[f64],
        trial: u64,
        tracer: Option<e2c_trace::Tracer>,
        prom: bool,
    ) -> Evaluation {
        let mut espec = ExperimentSpec::paper(PoolConfig::from_point(point), self.clients);
        espec.duration = SimTime::from_secs(self.duration);
        espec.warmup = SimTime::from_secs((self.duration / 10).min(60));
        let metrics = EngineRun::run_repeated_traced(espec, self.repeat, 1000 + trial, tracer);
        let prom = prom.then(|| {
            let mut merged = e2c_metrics::Registry::new();
            for (rep, run) in metrics.runs.iter().enumerate() {
                merged.append_shifted(&run.registry, (rep as u64 * self.duration) as f64);
            }
            let mut buf = Vec::new();
            let _ = merged.write_prometheus(&mut buf);
            String::from_utf8_lossy(&buf).into_owned()
        });
        Evaluation {
            mean: metrics.response.mean,
            completed: metrics.runs.iter().map(|r| r.completed).sum::<u64>() as f64,
            prom,
        }
    }
}

impl Evaluation {
    /// The aux pairs a worker ships back to the parent, which owns the
    /// trace directory; empty without a prom. The mean travels as the
    /// objective's value, so only the side artifacts ride here. f64
    /// `Display` round-trips exactly through `parse`, so the parent
    /// re-renders identical bytes.
    pub fn into_aux(self) -> Vec<(String, String)> {
        let Some(prom) = self.prom else {
            return Vec::new();
        };
        vec![
            ("completed".to_string(), self.completed.to_string()),
            ("prom".to_string(), prom),
        ]
    }

    /// The evaluation a worker returned as `mean` and the aux pairs of
    /// [`Evaluation::into_aux`]. An untraced ask ships no pairs, and its
    /// completed-request count reads NaN.
    pub fn from_aux(mean: f64, aux: &[(String, String)]) -> Evaluation {
        let field = |name: &str| aux.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str());
        Evaluation {
            mean,
            completed: field("completed")
                .and_then(|v| v.parse().ok())
                .unwrap_or(f64::NAN),
            prom: field("prom").map(str::to_owned),
        }
    }
}

/// A 52-bit FNV-1a digest of `bytes`, as an integer-valued f64: exact in
/// an attempt note and in the journal's float spelling.
fn prom_digest(bytes: &[u8]) -> f64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (hash & ((1 << 52) - 1)) as f64
}

/// Where a traced cycle lands each trial's side artifacts. Each
/// evaluation writes its `cycles/cycle_NNNN.prom` snapshot as a view and
/// notes its completed-request count and the snapshot's digest on its
/// attempt record; after the run, `metrics.prom` is rendered from the
/// trials themselves (the response mean is the attempt's raw value), so
/// a resumed run covers the trials it did not re-run from their
/// journaled attempts. The cycle's one objective lands every evaluation
/// here, whether it ran in process or in a farm worker, so a farmed
/// run's artifacts are byte-identical to an in-process one.
struct TrialSink {
    dir: PathBuf,
}

impl TrialSink {
    fn open(dir: &Path) -> Result<TrialSink, String> {
        std::fs::create_dir_all(dir.join("cycles"))
            .map_err(|e| format!("--trace {}: {e}", dir.display()))?;
        Ok(TrialSink {
            dir: dir.to_path_buf(),
        })
    }

    fn prom_path(&self, trial: u64) -> PathBuf {
        self.dir
            .join("cycles")
            .join(format!("cycle_{trial:04}.prom"))
    }

    fn land(&self, ctx: &EvalContext, completed: f64, prom: Option<&str>) {
        ctx.note("completed", completed);
        if let Some(prom) = prom {
            let path = self.prom_path(ctx.trial_id);
            if let Err(e) = e2c_journal::write_view(&path, prom.as_bytes()) {
                eprintln!("trace: {}: {e}", path.display());
            }
            ctx.note(PROM_DIGEST, prom_digest(prom.as_bytes()));
        }
    }

    /// Render again every snapshot the journal vouches for that the disk
    /// does not hold: missing, or not the bytes whose digest its landing
    /// attempt noted. The trial's evaluation re-runs in process. The tmp
    /// file of a snapshot write that a kill cut short goes.
    fn restore(&self, spec: &CycleSpec, trials: &[Trial]) -> Result<(), String> {
        for t in trials {
            let path = self.prom_path(t.id);
            e2c_journal::remove_view_tmp(&path)
                .map_err(|e| format!("trace: {}: {e}", path.display()))?;
            let Some(digest) = t.attempts.iter().rev().find_map(|a| a.note(PROM_DIGEST)) else {
                continue;
            };
            if std::fs::read(&path).is_ok_and(|bytes| prom_digest(&bytes) == digest) {
                continue;
            }
            let prom = spec
                .evaluate(&t.config, t.id, None, true)
                .prom
                .unwrap_or_default();
            if prom_digest(prom.as_bytes()) != digest {
                return Err(format!(
                    "trace: trial {}: the re-run evaluation does not render the journaled snapshot",
                    t.id
                ));
            }
            e2c_journal::write_view(&path, prom.as_bytes())
                .map_err(|e| format!("trace: {}: {e}", path.display()))?;
        }
        Ok(())
    }

    /// Render the cycle-level `metrics.prom` through `write`: per trial,
    /// the last attempt whose objective returned, with its noted
    /// completed-request count.
    fn write_metrics(
        &self,
        trials: &[Trial],
        write: fn(&Path, &[u8]) -> std::io::Result<()>,
    ) -> Result<(), String> {
        let mut registry = e2c_metrics::Registry::new();
        for t in trials {
            let Some((mean, completed)) = t
                .attempts
                .iter()
                .rev()
                .find_map(|a| Some((a.raw?, a.note("completed")?)))
            else {
                continue;
            };
            let id = t.id as f64;
            registry.record("objective_response_mean", id, mean);
            registry.record("trial_completed_requests", id, completed);
        }
        let mut buf = Vec::new();
        let _ = registry.write_prometheus(&mut buf);
        write(&self.dir.join("metrics.prom"), &buf)
            .map_err(|e| format!("trace: {}: {e}", self.dir.display()))
    }
}

/// Everything one optimization cycle needs besides where its archive and
/// trace go.
pub struct Cycle {
    /// The configuration's `optimization` section.
    pub opt_conf: OptimizationConf,
    /// The experiment seed.
    pub seed: u64,
    /// Injected trial faults.
    pub faults: FaultPlan,
    /// The engine workload of every evaluation.
    pub spec: CycleSpec,
    /// The run journal (`--journal` / `--resume`), if any.
    pub journal: Option<JournalConfig>,
    /// The worker farm (`--workers`), if any.
    pub farm: Option<FarmSpec>,
}

impl Cycle {
    /// Run the cycle. With a trace directory this wires a fresh
    /// [`e2c_trace::Tracer`] through the manager, tuner and the Pl@ntNet
    /// engine, then exports `trace.jsonl`, a cycle-level
    /// `metrics.prom` and one `cycles/cycle_<trial>.prom` per trial. A
    /// resumed traced run first renders again any per-trial snapshot its
    /// journal vouches for that is missing or differs.
    pub fn run(
        &self,
        archive: Option<PathBuf>,
        trace_dir: Option<&Path>,
    ) -> Result<OptimizationSummary, String> {
        // Spawn the worker processes before the journal opens: a farm
        // that cannot start at all is a run error that leaves no journal
        // behind.
        let farm = self
            .farm
            .clone()
            .map(WorkerFarm::launch)
            .transpose()
            .map_err(|e| format!("--workers: {e}"))?
            .map(Arc::new);
        let sink = trace_dir.map(TrialSink::open).transpose()?.map(Arc::new);
        let spec = self.spec;
        let (obj_farm, obj_sink) = (farm.clone(), sink.clone());
        let objective = move |ctx: &EvalContext| {
            let traced = obj_sink.is_some();
            let ev = match &obj_farm {
                None => spec.evaluate(&ctx.point, ctx.trial_id, ctx.tracer.clone(), traced),
                // The engine runs in an `e2clab worker` child. Its panics
                // re-raise with their original payload, so they classify
                // as an in-process panic would; only a worker lost past
                // the re-dispatch budget fails the attempt.
                Some(farm) => {
                    match farm.execute(ctx.trial_id, ctx.attempt, &ctx.point, ctx.tracer.as_ref()) {
                        Ok(FarmOutcome::Value { value, aux }) => Evaluation::from_aux(value, &aux),
                        Ok(FarmOutcome::Panicked { payload }) => std::panic::panic_any(payload),
                        Err(error) => return ctx.fail_attempt(error),
                    }
                }
            };
            if let Some(sink) = &obj_sink {
                sink.land(ctx, ev.completed, ev.prom.as_deref());
            }
            ev.mean
        };
        let tracer = sink.as_ref().map(|_| e2c_trace::Tracer::new());
        let mut manager = OptimizationManager::new(self.opt_conf.clone())
            .with_seed(self.seed)
            .with_faults(self.faults.clone());
        if let Some(dir) = archive {
            manager = manager.with_archive(dir);
        }
        if let Some(tr) = &tracer {
            manager = manager.with_trace(tr.clone());
        }
        if let Some(jc) = &self.journal {
            manager = manager.with_journal(jc.clone());
        }
        let summary = manager.run(objective).map_err(|e| e.to_string())?;
        // The objective held the only other handle, so this drains the
        // workers before the exports.
        let kill_fired = farm.map(|farm| farm.kill_fired());
        if let (Some(tr), Some(sink)) = (&tracer, &sink) {
            if self.journal.as_ref().is_some_and(|jc| jc.resume) {
                sink.restore(&spec, summary.analysis.trials())?;
            }
            let write = e2c_journal::snapshot_writer(self.journal.is_some());
            write(&sink.dir.join("trace.jsonl"), tr.to_jsonl().as_bytes())
                .map_err(|e| format!("trace: {}: {e}", sink.dir.display()))?;
            sink.write_metrics(summary.analysis.trials(), write)?;
        }
        // The chaos knob fires inside the farm; a run that never fired it
        // would let a chaos test pass without testing anything.
        if let (Some(false), Some(nth)) =
            (kill_fired, self.farm.as_ref().and_then(|f| f.kill_after))
        {
            return Err(format!(
                "--kill-worker {nth} never fired: the farm dispatched fewer than {nth} asks"
            ));
        }
        Ok(summary)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_snapshot_renders_the_same_bytes_with_and_without_a_tracer() {
        let spec = CycleSpec {
            repeat: 2,
            duration: 20,
            clients: 80,
        };
        let point = [40.0, 30.0, 25.0, 8.0];
        let tracer = e2c_trace::Tracer::new();
        let traced = spec.evaluate(&point, 3, Some(tracer.clone()), true);
        let plain = spec.evaluate(&point, 3, None, true);
        assert!(!tracer.is_empty(), "the traced evaluation emitted no event");
        assert!(traced.prom.as_ref().is_some_and(|p| !p.is_empty()));
        assert_eq!(traced, plain);
        // Without `prom` only the snapshot is left out.
        let bare = spec.evaluate(&point, 3, None, false);
        assert_eq!(
            (bare.mean, bare.completed, bare.prom),
            (plain.mean, plain.completed, None)
        );
    }

    #[test]
    fn the_digest_is_an_exact_52_bit_integer() {
        for bytes in [&b""[..], b"# TYPE x gauge\nx 1\n", &[0xff; 300]] {
            let d = prom_digest(bytes);
            assert_eq!(d.fract(), 0.0);
            assert!((0.0..(1u64 << 52) as f64).contains(&d));
            // The journal spells notes with f64 `Display`.
            assert_eq!(d.to_string().parse::<f64>(), Ok(d));
        }
        // FNV-1a offset basis, masked: the digest of no bytes.
        assert_eq!(
            prom_digest(b""),
            (0xcbf2_9ce4_8422_2325u64 & ((1 << 52) - 1)) as f64
        );
        assert_ne!(prom_digest(b"x 1\n"), prom_digest(b"x 2\n"));
    }
}
