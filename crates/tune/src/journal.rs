//! The run journal: a typed write-ahead log of everything the tuner
//! decides, and the replay that rebuilds searcher state after a crash.
//!
//! Every state transition of a journaled run is appended (and fsync'd) to
//! an [`e2c_journal::Wal`] *after* it takes effect in memory. Appends
//! happen in the run's *canonical commit order*: asks are journaled in
//! id order as the sequencer admits them, and each trial's effects
//! (attempts, tell) are journaled as one block when the trial commits —
//! so the journal's record order *is* the searcher's op order, under any
//! worker interleaving, and replay re-drives it to the same state by
//! simply walking the records.
//!
//! The wire format is versioned ([`WIRE_VERSION`], carried by the meta
//! record). Version 2 added the tell record's ask count — the ask/commit
//! permutation — letting replay verify that the interleaving it
//! reconstructs matches the one the live run journaled. Version 3 added
//! the attempt record's notes and the serve journal's epoch record.
//! Version 4 replaced the tell record's trace mark with its trace block,
//! so a traced run's journal is its only durable state. A journal of an
//! older version is refused with an error that names its version. The
//! early-stopping `report` record is retired without a version bump: no
//! `optimize` or `serve` run ever wrote one, so a `report` line is
//! refused by name and every journal those runs wrote still resumes.
//! The attempt record's `secs` field stays for the same reason: earlier
//! builds journaled the attempt's wall-clock duration there, and this
//! build writes `0` and drops the field on replay, so a journal holds no
//! wall-clock reading and two runs of one seed journal the same bytes.
//!
//! Every journal — an optimization cycle's and a serve run's — is opened
//! through [`RunJournal::open`]: it refuses to overwrite an existing file,
//! and on resume checks the meta record's fingerprint before handing the
//! decoded records back.
//!
//! Field parsing is *strict*: integers must be canonical decimals (no
//! sign, no leading zeros, and the attempt index must fit `u32`), floats
//! must be the exact shortest-round-trip `Display` spelling the encoder
//! writes (`NaN`/`inf`/`-inf` round-trip; `nan`, `+inf`, `infinity`,
//! `1e6`, `007` are rejected), and escapes are limited to the four the
//! escaper emits. Consequently every *accepted* record re-encodes
//! byte-identically, which is the roundtrip property `e2clab fuzz
//! --codec journal_wire` checks.
//!
//! * [`RunEvent::Meta`] — the wire version and a configuration
//!   fingerprint, written first; resume refuses a journal whose
//!   fingerprint does not match or whose version is newer than this
//!   build understands.
//! * [`RunEvent::Ask`] — the searcher suggested a configuration for a
//!   trial (the RNG stream advanced by one draw).
//! * [`RunEvent::Restart`] — a resumed run is re-executing a trial that
//!   was mid-flight at the crash; all earlier partial records of that
//!   trial are discarded by subsequent replays.
//! * [`RunEvent::Attempt`] — one execution attempt's outcome (typed
//!   error, raw objective return when the objective actually ran, and the
//!   named values the objective noted).
//! * [`RunEvent::Tell`] — the searcher was fed the trial's final
//!   feedback; carries the trial's settled status and, when tracing, the
//!   trace block: the JSONL lines the run recorded since the previous
//!   tell, through this trial's tell point. Commits are the only journal
//!   turns that splice trace events; ask points land in the next tell's
//!   block.
//! * [`RunEvent::Complete`] — the sample budget is spent.
//! * [`RunEvent::Epoch`] — a serve run committed one epoch's rendered
//!   `serving.csv` row. Only a serve journal holds these; cycle replay
//!   refuses them.
//!
//! [`replay`] rebuilds state *by re-execution*: every journaled `Ask` is
//! re-asked against a freshly seeded searcher and the suggestion is
//! compared byte-for-byte against the journal — this restores the RNG
//! stream position implicitly and turns a mismatched seed, space or
//! search configuration into a hard error instead of silent divergence.
//!
//! Trials that were asked but never told ("dangling") are returned as
//! pending work: the resumed run re-executes them from attempt 0 with the
//! journaled configuration, regenerating their trace events and archive
//! rows exactly as an uninterrupted run would have.
//! The tells' trace blocks, concatenated, are the trace prefix the
//! resumed run continues from.

use crate::searcher::Searcher;
use crate::trial::{Attempt, Trial, TrialError, TrialStatus};
use crate::tuner::Mode;
use e2c_optim::space::Point;
use e2c_trace::TraceEvent;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Exit code of a `--crash-at` self-kill, distinct from ordinary failure
/// exits so the chaos harness can tell a scripted crash from a bug.
pub const CRASH_EXIT_CODE: i32 = 86;

/// Current journal wire version, carried by [`RunEvent::Meta`]. Version 2
/// added the meta version field itself and the tell record's ask count
/// (the ask/commit permutation); version 3 the attempt notes and the epoch
/// record; version 4 the tell record's trace block in place of its trace
/// mark. Parsing refuses older versions and replay hard-errors on
/// journals from a newer build.
pub const WIRE_VERSION: u64 = 4;

/// One journaled state transition. See the module docs for the protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum RunEvent {
    /// Wire version and configuration fingerprint (always the first
    /// record). Build with [`RunEvent::meta`]; `version` only differs
    /// from [`WIRE_VERSION`] when parsed back from a newer journal.
    Meta { version: u64, fingerprint: String },
    /// The searcher proposed `config` for `trial`.
    Ask { trial: u64, config: Point },
    /// A resumed run is re-executing the dangling `trial` from scratch.
    Restart { trial: u64 },
    /// One execution attempt finished. `raw` is the objective's return
    /// value when it was actually invoked and returned (even if the
    /// attempt was then classified as failed), `None` when the objective
    /// never ran or panicked. `notes` are the named values the objective
    /// attached to the attempt, in the order it noted them.
    Attempt {
        trial: u64,
        index: u32,
        /// Written as `0` and dropped by replay (see the module docs).
        secs: f64,
        raw: Option<f64>,
        error: Option<TrialError>,
        notes: Vec<(String, f64)>,
    },
    /// The searcher was fed `feedback` for the settled `trial`.
    /// `status`/`value` settle the trial record. `asks` is the number of
    /// `Ask` records journaled before this tell — the run's ask/commit
    /// permutation, one point per commit — which replay verifies against
    /// its own running count. `trace` is the trace block: the JSONL lines
    /// the run recorded since the previous tell, ending with this trial's
    /// tell point (empty when untraced).
    Tell {
        trial: u64,
        feedback: f64,
        status: String,
        value: Option<f64>,
        asks: u64,
        trace: String,
    },
    /// The sample budget is spent; artifacts may be (re)written.
    Complete,
    /// A serve run committed `epoch`; `row` is its rendered `serving.csv`
    /// row, kept as bytes so a resume never re-renders a float.
    Epoch { epoch: u64, row: String },
}

// The field spelling — escaping, canonical integers and floats — is the
// shared `e2c_journal::wire` dialect, factored out so the worker-farm
// protocol (`crate::worker`) cannot drift from the journal's.
use e2c_journal::wire::{escape, parse_f64, parse_opt_f64, parse_u32, parse_u64, unescape};

impl RunEvent {
    /// A meta record at the current [`WIRE_VERSION`].
    pub fn meta(fingerprint: impl Into<String>) -> RunEvent {
        RunEvent::Meta {
            version: WIRE_VERSION,
            fingerprint: fingerprint.into(),
        }
    }

    /// Serialize as one tab-separated line. `f64` fields use Rust's
    /// shortest-round-trip `Display`, so parsing back is exact. The line
    /// is assembled in a single buffer — no per-field allocations — which
    /// matters because every journaled state transition encodes through
    /// here before its fsync'd append.
    pub fn to_line(&self) -> String {
        use std::fmt::Write;
        let mut line = String::with_capacity(48);
        // Writing to a String cannot fail; the results are discarded with
        // `let _ =` instead of unwrapped so the encode path — which runs
        // inside the commit sequence of every journaled transition —
        // carries no panic sites.
        match self {
            RunEvent::Meta {
                version,
                fingerprint,
            } => {
                let _ = write!(line, "meta\t{version}\t{}", escape(fingerprint));
            }
            RunEvent::Ask { trial, config } => {
                let _ = write!(line, "ask\t{trial}\t");
                for (i, v) in config.iter().enumerate() {
                    if i > 0 {
                        line.push(',');
                    }
                    let _ = write!(line, "{v}");
                }
            }
            RunEvent::Restart { trial } => {
                let _ = write!(line, "restart\t{trial}");
            }
            RunEvent::Attempt {
                trial,
                index,
                secs,
                raw,
                error,
                notes,
            } => {
                let _ = write!(line, "attempt\t{trial}\t{index}\t{secs}\t");
                match raw {
                    Some(r) => {
                        let _ = write!(line, "{r}");
                    }
                    None => line.push('-'),
                }
                match error {
                    Some(e) => {
                        let _ = write!(line, "\t{}\t{}", e.kind(), escape(e.payload()));
                    }
                    None => line.push_str("\t-\t"),
                }
                for (name, value) in notes {
                    let _ = write!(line, "\t{}\t{value}", escape(name));
                }
            }
            RunEvent::Tell {
                trial,
                feedback,
                status,
                value,
                asks,
                trace,
            } => {
                let _ = write!(line, "tell\t{trial}\t{feedback}\t{status}\t");
                match value {
                    Some(v) => {
                        let _ = write!(line, "{v}");
                    }
                    None => line.push('-'),
                }
                let _ = write!(line, "\t{asks}\t{}", escape(trace));
            }
            RunEvent::Complete => line.push_str("complete"),
            RunEvent::Epoch { epoch, row } => {
                let _ = write!(line, "epoch\t{epoch}\t{}", escape(row));
            }
        }
        line
    }

    /// Parse a line produced by [`RunEvent::to_line`]. Matching on field
    /// *slices* (not positional indexing) makes every arity check part of
    /// the pattern, so a short record is a typed error, never a panic —
    /// this is journal-recovery code, and a corrupt record must surface
    /// as `Err`, not tear the resuming process down.
    pub fn parse(line: &str) -> Result<RunEvent, String> {
        let fields: Vec<&str> = line.split('\t').collect();
        let int = parse_u64;
        match fields.as_slice() {
            // The unversioned 2-field meta is the version-1 form.
            ["meta", _] => Err(retired_version(1)),
            ["meta", version, fingerprint] => {
                let version = int(version)?;
                if version < WIRE_VERSION {
                    return Err(retired_version(version));
                }
                Ok(RunEvent::Meta {
                    version,
                    fingerprint: unescape(fingerprint)?,
                })
            }
            ["ask", trial, config] => {
                let config = if config.is_empty() {
                    Vec::new()
                } else {
                    config.split(',').map(parse_f64).collect::<Result<_, _>>()?
                };
                Ok(RunEvent::Ask {
                    trial: int(trial)?,
                    config,
                })
            }
            ["restart", trial] => Ok(RunEvent::Restart { trial: int(trial)? }),
            ["attempt", trial, index, secs, raw, kind, payload, notes @ ..] => {
                let error = if *kind == "-" {
                    // The no-error form writes an empty payload field;
                    // accepting a non-empty one here would drop it on
                    // re-encode.
                    if !payload.is_empty() {
                        return Err(format!(
                            "attempt without error carries a payload `{payload}`"
                        ));
                    }
                    None
                } else {
                    Some(TrialError::from_parts(kind, &unescape(payload)?)?)
                };
                Ok(RunEvent::Attempt {
                    trial: int(trial)?,
                    index: parse_u32(index)?,
                    secs: parse_f64(secs)?,
                    raw: parse_opt_f64(raw)?,
                    error,
                    notes: notes
                        .chunks(2)
                        .map(|note| match note {
                            [name, value] => Ok((unescape(name)?, parse_f64(value)?)),
                            _ => Err(format!("attempt note `{}` has no value", note.concat())),
                        })
                        .collect::<Result<_, String>>()?,
                })
            }
            ["tell", trial, feedback, status, value, asks, trace] => Ok(RunEvent::Tell {
                trial: int(trial)?,
                feedback: parse_f64(feedback)?,
                status: status.to_string(),
                value: parse_opt_f64(value)?,
                asks: int(asks)?,
                trace: unescape(trace)?,
            }),
            ["complete"] => Ok(RunEvent::Complete),
            ["epoch", epoch, row] => Ok(RunEvent::Epoch {
                epoch: int(epoch)?,
                row: unescape(row)?,
            }),
            ["report", ..] => Err("journal record `report` is retired: early-stopping \
                 reports are no longer journaled, and no optimize or serve run wrote one"
                .to_string()),
            [kind, ..] if KINDS.contains(kind) => Err(format!(
                "journal record `{kind}...`: wrong field count ({})",
                fields.len()
            )),
            [other, ..] => Err(format!("unknown journal record `{other}`")),
            [] => Err("empty journal record".to_string()),
        }
    }
}

/// Every record kind's leading field.
const KINDS: [&str; 7] = [
    "meta", "ask", "restart", "attempt", "tell", "complete", "epoch",
];

/// The refusal of a journal written in a retired wire version.
fn retired_version(version: u64) -> String {
    format!(
        "journal wire version {version} is not supported (this build reads version \
         {WIRE_VERSION}); finish the run with the build that wrote it, or start afresh"
    )
}

struct JournalInner {
    wal: Mutex<e2c_journal::Wal>,
    /// Records appended *by this process* (replayed records don't count):
    /// the `--crash-at` boundary index is per-process.
    appended: AtomicU64,
    crash_after: Option<u64>,
}

/// Shared, cheap-to-clone handle onto the run's write-ahead log.
///
/// Appends never fail softly: a journal that cannot persist invalidates
/// every crash-safety promise, so an append error aborts the process
/// (exit 1) rather than continuing with an unprotected run.
#[derive(Clone)]
pub struct RunJournal {
    inner: Arc<JournalInner>,
}

impl RunJournal {
    /// Wrap an open WAL. `crash_after` arms the chaos knob: the process
    /// exits with [`CRASH_EXIT_CODE`] immediately after the Nth record
    /// (1-based, counted in this process) is durably appended.
    pub fn new(wal: e2c_journal::Wal, crash_after: Option<u64>) -> Self {
        RunJournal {
            inner: Arc::new(JournalInner {
                wal: Mutex::new(wal),
                appended: AtomicU64::new(0),
                crash_after,
            }),
        }
    }

    /// Append one event; fsync'd before returning. May exit the process
    /// (see [`RunJournal::new`] and the type docs).
    pub fn append(&self, event: &RunEvent) {
        let line = event.to_line();
        {
            let mut wal = self
                .inner
                .wal
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            // detlint: allow(LOCK001) the WAL mutex IS the append serialization point — every holder is doing exactly this fsync'd append, there is no faster work being starved
            if let Err(e) = wal.append(line.as_bytes()) {
                eprintln!("journal: append to {} failed: {e}", wal.path().display());
                std::process::exit(1);
            }
        }
        let n = self.inner.appended.fetch_add(1, Ordering::SeqCst) + 1;
        if self.inner.crash_after == Some(n) {
            eprintln!("journal: --crash-at {n}: simulated crash after record boundary");
            std::process::exit(CRASH_EXIT_CODE);
        }
    }

    /// Records appended by this process so far.
    pub fn appended(&self) -> u64 {
        self.inner.appended.load(Ordering::SeqCst)
    }

    /// Open the journal at `path` for the run `fingerprint` names — the
    /// one opener of every journal, an optimization cycle's or a serve
    /// run's. A fresh open (`resume` false) refuses an existing file and
    /// writes the meta record. A resume decodes every intact record (a
    /// torn tail is cut off); a log the crash left empty gets the meta
    /// record as if fresh, and otherwise the first record must be a meta
    /// record with this fingerprint. Returns the journal, positioned for
    /// appends, and the records it already held. `crash_after` is the
    /// chaos knob of [`RunJournal::new`]; the meta append counts.
    pub fn open(
        path: &Path,
        fingerprint: &str,
        resume: bool,
        crash_after: Option<u64>,
    ) -> Result<(RunJournal, Vec<RunEvent>), OpenError> {
        let refused = |why: String| OpenError::Refused(format!("{}: {why}", path.display()));
        let (wal, events) = if resume {
            let (wal, records) =
                e2c_journal::Wal::open(path).map_err(|e| refused(e.to_string()))?;
            (wal, decode(&records).map_err(refused)?)
        } else if path.exists() {
            return Err(refused("already holds a run journal — use --resume".into()));
        } else {
            let wal = e2c_journal::Wal::create(path).map_err(|e| refused(e.to_string()))?;
            (wal, Vec::new())
        };
        match events.first() {
            Some(RunEvent::Meta { fingerprint: f, .. }) if f != fingerprint => {
                return Err(OpenError::Mismatch)
            }
            Some(RunEvent::Meta { .. }) | None => {}
            Some(_) => return Err(refused("does not start with a meta record".into())),
        }
        let journal = RunJournal::new(wal, crash_after);
        if events.is_empty() {
            journal.append(&RunEvent::meta(fingerprint));
        }
        Ok((journal, events))
    }
}

/// Why [`RunJournal::open`] refused a journal.
#[derive(Debug, PartialEq)]
pub enum OpenError {
    /// The meta record carries another run's fingerprint; each caller
    /// words this refusal for its own run.
    Mismatch,
    /// Anything else, rendered: a fresh open onto an existing file, an
    /// I/O error, a record that does not decode, or a first record that
    /// is not meta.
    Refused(String),
}

/// Everything [`replay`] recovered from the journal: the tuner continues
/// a run from this instead of starting fresh.
#[derive(Debug, Clone, Default)]
pub struct ResumeState {
    /// Settled trials, in tell order (re-sorted by id for the analysis).
    pub trials: Vec<Trial>,
    /// Dangling trials to re-execute, in ask order: `(id, config)`.
    pub pending: Vec<(u64, Point)>,
    /// Next fresh trial id (all smaller ids are settled or pending).
    pub next_id: u64,
    /// Running maximum of normalized successful values (feeds the
    /// failure penalty).
    pub worst_seen: f64,
    /// Whether the journal already holds a [`RunEvent::Complete`].
    pub complete: bool,
    /// The trace prefix of the settled trials: every tell's trace block,
    /// in journal order. A traced resume restores its tracer to these
    /// events, at the virtual time of the last one (the last tell point).
    pub trace: Vec<TraceEvent>,
    /// Ask count recorded by the last tell: asks with an index at or past
    /// this were traced after its block, so their trace points are lost
    /// with the unjournaled suffix and must be re-emitted when the
    /// dangling trial re-dispatches. `None` (no tell yet) means re-emit.
    pub asks_at_mark: Option<u64>,
}

impl ResumeState {
    /// A state equivalent to "nothing happened yet".
    pub fn empty() -> Self {
        ResumeState {
            worst_seen: f64::NEG_INFINITY,
            ..Default::default()
        }
    }
}

/// Read a journal's records back as parsed events.
pub fn load_events(path: &Path) -> Result<Vec<RunEvent>, String> {
    let records =
        e2c_journal::read_records(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    decode(&records)
}

/// Parse WAL records as events; an error names the record's index.
fn decode(records: &[Vec<u8>]) -> Result<Vec<RunEvent>, String> {
    records
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let line = std::str::from_utf8(r)
                .map_err(|e| format!("journal record {i}: not UTF-8: {e}"))?;
            RunEvent::parse(line).map_err(|e| format!("journal record {i}: {e}"))
        })
        .collect()
}

/// The tuner's trial scheduling: first in, first out, every trial run to
/// completion (Ray Tune's `FIFOScheduler`). It is the only scheduling
/// there is, so [`replay`] takes it, and the run's [`Mode`], without
/// reading either.
pub struct Fifo;

/// Rebuild run state by re-executing the journal against a freshly seeded
/// searcher. `searcher` must be constructed exactly as for the original
/// run; every re-derived suggestion is verified against the journal and a
/// divergence (different seed, space or search configuration) is a hard
/// error.
pub fn replay(
    events: &[RunEvent],
    searcher: &mut dyn Searcher,
    _: &Fifo,
    _: Mode,
) -> Result<ResumeState, String> {
    // Pass 1: which trials settled, where each trial's canonical timeline
    // starts (after its last restart), and the settled trace prefix.
    let mut last_restart: BTreeMap<u64, usize> = BTreeMap::new();
    let mut settled: BTreeMap<u64, usize> = BTreeMap::new();
    let mut complete = false;
    let mut trace: Vec<TraceEvent> = Vec::new();
    let mut asks_at_mark: Option<u64> = None;
    for (i, ev) in events.iter().enumerate() {
        match ev {
            RunEvent::Restart { trial } => {
                last_restart.insert(*trial, i);
            }
            RunEvent::Tell {
                trial,
                asks,
                trace: block,
                ..
            } => {
                if settled.insert(*trial, i).is_some() {
                    return Err(format!("journal tells trial {trial} twice"));
                }
                for line in block.lines() {
                    let event = TraceEvent::from_json(line)
                        .map_err(|e| format!("journal record {i}: trace line: {e}"))?;
                    // The blocks tile the trace: each picks up at the
                    // sequence number where the previous one stopped.
                    if event.seq != trace.len() as u64 {
                        return Err(format!(
                            "journal record {i}: trace line has seq {} where {} was due",
                            event.seq,
                            trace.len()
                        ));
                    }
                    trace.push(event);
                }
                asks_at_mark = Some(*asks);
            }
            RunEvent::Complete => complete = true,
            _ => {}
        }
    }
    // A record is part of a trial's canonical timeline only after the
    // trial's last restart — everything before was abandoned mid-flight.
    let canonical = |trial: u64, i: usize| last_restart.get(&trial).is_none_or(|r| i > *r);

    // Pass 2: re-execute in order.
    let mut asked: Vec<(u64, Point)> = Vec::new();
    let mut configs: BTreeMap<u64, Point> = BTreeMap::new();
    let mut cur_attempts: BTreeMap<u64, Vec<Attempt>> = BTreeMap::new();
    let mut state = ResumeState::empty();
    state.complete = complete;
    state.trace = trace;
    state.asks_at_mark = asks_at_mark;
    let mut asks_seen: u64 = 0;
    for (i, ev) in events.iter().enumerate() {
        match ev {
            RunEvent::Meta { version, .. } => {
                if i != 0 {
                    return Err("journal meta record is not first".to_string());
                }
                if *version > WIRE_VERSION {
                    return Err(format!(
                        "journal wire version {version} is newer than this build \
                         understands (max {WIRE_VERSION})"
                    ));
                }
            }
            RunEvent::Ask { trial, config } => {
                let suggested = searcher.suggest(*trial).ok_or_else(|| {
                    format!("searcher refused to re-suggest trial {trial} during replay — the journal does not match this configuration")
                })?;
                if suggested != *config {
                    return Err(format!(
                        "replayed suggestion for trial {trial} diverges from the journal \
                         (got {suggested:?}, journal has {config:?}) — the journal was \
                         recorded with a different seed or search configuration"
                    ));
                }
                asked.push((*trial, config.clone()));
                configs.insert(*trial, config.clone());
                state.next_id = state.next_id.max(trial + 1);
                asks_seen += 1;
            }
            RunEvent::Restart { trial } => {
                // Discard the pre-crash partial state of the trial; the
                // records that follow are its canonical timeline.
                cur_attempts.remove(trial);
            }
            RunEvent::Attempt {
                trial,
                index,
                raw,
                error,
                notes,
                ..
            } => {
                if !(settled.contains_key(trial) && canonical(*trial, i)) {
                    continue;
                }
                cur_attempts.entry(*trial).or_default().push(Attempt {
                    index: *index,
                    error: error.clone(),
                    raw: *raw,
                    notes: notes.clone(),
                });
            }
            RunEvent::Tell {
                trial,
                feedback,
                status,
                value,
                asks,
                ..
            } => {
                if *asks != asks_seen {
                    return Err(format!(
                        "ask/commit permutation diverges at trial {trial}: the \
                         journal committed it after {asks} asks but replay has \
                         re-driven {asks_seen} — the journal was recorded with \
                         a different concurrency or is corrupt"
                    ));
                }
                searcher.observe(*trial, *feedback);
                let attempts = cur_attempts.remove(trial).unwrap_or_default();
                let config = configs
                    .get(trial)
                    .cloned()
                    .ok_or_else(|| format!("journal tells trial {trial} before asking it"))?;
                let need_value = || {
                    value.ok_or_else(|| {
                        format!("journal tell for trial {trial} is missing its value")
                    })
                };
                let status = match status.as_str() {
                    "terminated" => TrialStatus::Terminated(need_value()?),
                    "failed" => {
                        let reason = attempts
                            .last()
                            .and_then(|a| a.error.as_ref())
                            .map(|e| e.to_string())
                            .unwrap_or_default();
                        TrialStatus::Failed(reason)
                    }
                    other => return Err(format!("unknown journal status `{other}`")),
                };
                if !matches!(status, TrialStatus::Failed(_)) {
                    state.worst_seen = state.worst_seen.max(*feedback);
                }
                state.trials.push(Trial {
                    id: *trial,
                    config,
                    status,
                    attempts,
                });
            }
            RunEvent::Complete => {}
            RunEvent::Epoch { epoch, .. } => {
                return Err(format!(
                    "journal record {i}: epoch {epoch} is a serve journal record, \
                     not part of an optimization cycle"
                ));
            }
        }
    }
    state.pending = asked
        .into_iter()
        .filter(|(id, _)| !settled.contains_key(id))
        .collect();
    state.trials.sort_by_key(|t| t.id);
    Ok(state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::searcher::{ConcurrencyLimiter, RandomSearch};
    use e2c_optim::space::Space;

    fn space() -> Space {
        Space::new().int("x", 0, 20)
    }

    #[test]
    fn events_round_trip_through_the_wire_format() {
        let events = vec![
            RunEvent::meta("name: x\nseed: 7\ttabbed"),
            RunEvent::Ask {
                trial: 0,
                config: vec![4.0, -0.5],
            },
            RunEvent::Restart { trial: 3 },
            RunEvent::Attempt {
                trial: 1,
                index: 0,
                secs: 0.25,
                raw: Some(f64::NAN),
                error: Some(TrialError::NonFinite("NaN".into())),
                notes: Vec::new(),
            },
            RunEvent::Attempt {
                trial: 1,
                index: 1,
                secs: 0.5,
                raw: None,
                error: Some(TrialError::Panicked("boom\nnewline \\ tab\t".into())),
                notes: vec![("completed".into(), 4242.0), ("tab\tname".into(), f64::NAN)],
            },
            RunEvent::Tell {
                trial: 1,
                feedback: 2.5,
                status: "terminated".into(),
                value: Some(2.5),
                asks: 3,
                trace: concat!(
                    r#"{"seq":0,"vt":1,"phase":"a","name":"x","kind":"point","fields":{"s":"q\"b\\t\t"}}"#,
                    "\n",
                    r#"{"seq":1,"vt":2,"phase":"searcher","name":"tell","kind":"point","trial":1}"#,
                    "\n",
                )
                .into(),
            },
            RunEvent::Tell {
                trial: 2,
                feedback: 1e6,
                status: "failed".into(),
                value: None,
                asks: 0,
                trace: String::new(),
            },
            RunEvent::Complete,
            RunEvent::Epoch {
                epoch: 4,
                row: "4,2017-05,37.25,NaN\ttabbed".into(),
            },
        ];
        for ev in events {
            let line = ev.to_line();
            let back = RunEvent::parse(&line).unwrap();
            // NaN breaks PartialEq; compare the canonical wire form.
            assert_eq!(back.to_line(), line, "{ev:?}");
        }
    }

    #[test]
    fn parse_rejects_malformed_records() {
        assert!(RunEvent::parse("bogus\t1").is_err());
        assert!(RunEvent::parse("ask\t1").is_err());
        assert!(RunEvent::parse("attempt\t1\t0\t0.1\t-\tweird\t").is_err());
        assert!(RunEvent::parse("meta\t4\tfp\textra").is_err());
        assert!(RunEvent::parse("tell\t0\t1\tterminated\t1\t3\t\textra").is_err());
        // A tell's trace block is one escaped field: a raw newline in it
        // is corruption.
        assert!(RunEvent::parse("tell\t0\t1\tterminated\t1\t3\t{}\n{}").is_err());
    }

    /// The explicit field rejection rules: canonical decimals, canonical `Display` floats, known escapes only.
    /// Every spelling here was *accepted* before this was pinned — the
    /// integer ones silently misparsing (`+5` → 5, index 2³² → 0).
    #[test]
    fn non_canonical_fields_are_rejected() {
        // Integers: sign, leading zeros, whitespace, overflow.
        for bad in ["+5", "07", " 5", "5 ", "-1", ""] {
            assert!(
                RunEvent::parse(&format!("restart\t{bad}")).is_err(),
                "{bad:?}"
            );
        }
        // Attempt index must fit u32 — 2³² used to truncate to index 0.
        assert!(RunEvent::parse("attempt\t1\t4294967296\t0.1\t-\t-\t").is_err());
        assert!(RunEvent::parse("attempt\t1\t4294967295\t0.1\t-\t-\t").is_ok());
        // Floats: only the canonical shortest-round-trip Display form.
        for bad in [
            "nan", "+inf", "infinity", "Infinity", "1e6", "00.5", "1.50", "+1",
        ] {
            let line = format!("attempt\t1\t0\t{bad}\t-\t-\t");
            assert!(RunEvent::parse(&line).is_err(), "{bad:?}");
        }
        for good in ["NaN", "inf", "-inf", "-0", "0.1", "1000000"] {
            let line = format!("attempt\t1\t0\t{good}\t-\t-\t");
            let ev = RunEvent::parse(&line).unwrap();
            // Accepted fields re-encode byte-identically.
            assert_eq!(ev.to_line(), line, "{good:?}");
        }
        // Escapes: only the four the escaper writes; `\q` used to decode
        // as `q`, making decode → encode lossy.
        assert!(RunEvent::parse("meta\t4\ta\\qb").is_err());
        assert!(RunEvent::parse("meta\t4\ttrailing\\").is_err());
        assert_eq!(
            RunEvent::parse("meta\t4\ta\\tb").unwrap(),
            RunEvent::Meta {
                version: 4,
                fingerprint: "a\tb".into()
            }
        );
        // Raw control characters in an escaped field can never re-encode
        // to the same bytes (the escaper writes `\n`), so they are
        // corruption, not content.
        assert!(RunEvent::parse("meta\t4\ttwo\nlines").is_err());
        assert!(RunEvent::parse("meta\t4\tcr\rhere").is_err());
        // A no-error attempt writes an empty payload field; a non-empty
        // one would silently vanish on re-encode.
        assert!(RunEvent::parse("attempt\t1\t0\t0.5\t-\t-\tstray").is_err());
        assert!(RunEvent::parse("attempt\t1\t0\t0.5\t-\t-\t").is_ok());
        assert!(RunEvent::parse("meta\t4\tfp").is_ok());
        // Attempt notes are name/value pairs with canonical values, and an
        // epoch record's index is a canonical decimal.
        for bad in ["completed\t1e3", "completed", "completed\t1\tx"] {
            let line = format!("attempt\t1\t0\t0.5\t2\t-\t\t{bad}");
            assert!(RunEvent::parse(&line).is_err(), "{bad:?}");
        }
        assert!(RunEvent::parse("attempt\t1\t0\t0.5\t2\t-\t\tcompleted\t1000").is_ok());
        assert!(RunEvent::parse("epoch\t07\t7,2017-08").is_err());
        assert!(RunEvent::parse("epoch\t7\t7,2017\\q08").is_err());
    }

    /// Decode → encode is the identity on every accepted line (parse is
    /// strict enough that nothing normalizes).
    #[test]
    fn accepted_lines_reencode_byte_identically() {
        for line in [
            "meta\t4\tfp\\n2",
            "ask\t3\t",
            "ask\t3\t1,2.5,NaN,-inf",
            "restart\t7",
            "attempt\t1\t0\t0.5\tNaN\tnonfinite\tNaN",
            "attempt\t1\t1\t0.5\t2.5\t-\t\tcompleted\t4242\ta\\tb\t-inf",
            "tell\t0\t1.5\tterminated\t1.5\t0\t",
            concat!(
                "tell\t0\t1.5\tterminated\t1.5\t3\t",
                r#"{"seq":0,"fields":{"s":"q\\"b\\\\\\t"}}\n"#
            ),
            "complete",
            "epoch\t0\t0,2017-01,1.5,NaN",
        ] {
            let ev = RunEvent::parse(line).unwrap();
            assert_eq!(ev.to_line(), line);
        }
    }

    /// Version-1 records (unversioned meta, 7-field tells) are refused,
    /// and so are version-2 and version-3 metas and a version-3 tell with
    /// its trace mark; the meta refusal names the version.
    #[test]
    fn version_1_records_are_refused() {
        for meta in ["meta\tfp", "meta\t1\tfp"] {
            let err = RunEvent::parse(meta).unwrap_err();
            assert!(err.contains("version 1 is not supported"), "{err}");
        }
        for version in [0, 2, 3] {
            let err = RunEvent::parse(&format!("meta\t{version}\tfp")).unwrap_err();
            assert!(
                err.contains(&format!("version {version} is not supported")),
                "{err}"
            );
        }
        assert!(RunEvent::parse("tell\t0\t1.5\tterminated\t1.5\t-\t-").is_err());
        assert!(RunEvent::parse("tell\t0\t1.5\tterminated\t1.5\t17\t42\t3").is_err());
    }

    /// Replay refuses a journal from a newer build, and a serve journal's
    /// epoch record in a cycle journal.
    #[test]
    fn replay_refuses_a_newer_wire_version_and_serve_records() {
        let newer = RunEvent::Meta {
            version: WIRE_VERSION + 1,
            fingerprint: "f".into(),
        };
        let epoch = RunEvent::Epoch {
            epoch: 0,
            row: "0,2017-01".into(),
        };
        for (events, want) in [
            (vec![newer], "newer than this build"),
            (
                vec![RunEvent::meta("f"), epoch],
                "epoch 0 is a serve journal record",
            ),
        ] {
            let mut fresh = RandomSearch::new(space(), 5);
            let err = replay(&events, &mut fresh, &Fifo, Mode::Min).unwrap_err();
            assert!(err.contains(want), "{err}");
        }
    }

    #[test]
    fn replay_hard_errors_on_a_divergent_ask_count() {
        let mut live = RandomSearch::new(space(), 5);
        let p0 = live.suggest(0).unwrap();
        let p1 = live.suggest(1).unwrap();
        let events = vec![
            RunEvent::meta("f"),
            RunEvent::Ask {
                trial: 0,
                config: p0.clone(),
            },
            RunEvent::Ask {
                trial: 1,
                config: p1,
            },
            RunEvent::Attempt {
                trial: 0,
                index: 0,
                secs: 0.1,
                raw: Some(p0[0]),
                error: None,
                notes: Vec::new(),
            },
            RunEvent::Tell {
                trial: 0,
                feedback: p0[0],
                status: "terminated".into(),
                value: Some(p0[0]),
                // The live run claims trial 0 committed after a single
                // ask, but the journal holds two — a corrupted or
                // misordered permutation record.
                asks: 1,
                trace: String::new(),
            },
        ];
        let mut fresh = RandomSearch::new(space(), 5);
        let err = replay(&events, &mut fresh, &Fifo, Mode::Min).unwrap_err();
        assert!(err.contains("ask/commit permutation diverges"), "{err}");
    }

    /// Drive a seeded, traced searcher, journal its decisions by hand,
    /// then replay a prefix against a fresh instance and check the rebuilt
    /// state, trace prefix included.
    #[test]
    fn replay_rebuilds_searcher_state_and_pending_work() {
        let mut live = ConcurrencyLimiter::new(RandomSearch::new(space(), 5), 1);
        let tracer = e2c_trace::Tracer::new();
        let mut events = vec![RunEvent::meta("f")];
        let mut asked = Vec::new();
        let mut journaled = 0;
        for id in 0..3u64 {
            let p = live.suggest(id).unwrap();
            asked.push(p.clone());
            tracer.point("searcher", "ask", Some(id), e2c_trace::Fields::new());
            events.push(RunEvent::Ask {
                trial: id,
                config: p.clone(),
            });
            if id < 2 {
                events.push(RunEvent::Attempt {
                    trial: id,
                    index: 0,
                    secs: 0.1,
                    raw: Some(p[0]),
                    error: None,
                    notes: Vec::new(),
                });
                live.observe(id, p[0]);
                tracer.point("searcher", "tell", Some(id), e2c_trace::Fields::new());
                events.push(RunEvent::Tell {
                    trial: id,
                    feedback: p[0],
                    status: "terminated".into(),
                    value: Some(p[0]),
                    asks: id + 1,
                    trace: tracer.to_jsonl_from(journaled),
                });
                journaled = tracer.len();
            }
        }
        // Trial 2 dangles (asked, attempted nothing journaled, no tell).
        let mut fresh = ConcurrencyLimiter::new(RandomSearch::new(space(), 5), 1);
        let state = replay(&events, &mut fresh, &Fifo, Mode::Min).unwrap();
        assert_eq!(state.trials.len(), 2);
        assert_eq!(state.pending, vec![(2, asked[2].clone())]);
        assert_eq!(state.next_id, 3);
        assert!(!state.complete);
        // Raw objective returns ride on the rebuilt attempts (the traced
        // cycle re-feeds its observation histogram from these).
        assert_eq!(state.trials[0].attempts[0].raw, Some(asked[0][0]));
        assert_eq!(state.trials[1].attempts[0].raw, Some(asked[1][0]));
        assert_eq!(state.worst_seen, asked[0][0].max(asked[1][0]));
        // The limiter still accounts the dangling trial as in flight, and
        // the RNG stream continues exactly where the live searcher's did.
        assert_eq!(fresh.inflight(), 1);
        fresh.observe(2, 1.0);
        live.observe(2, 1.0);
        let next_live = live.suggest(3).unwrap();
        let next_fresh = fresh.suggest(3).unwrap();
        assert_eq!(next_live, next_fresh);
        // The tells' blocks tile the trace up to the last tell point; the
        // dangling ask was traced after it, as the ask count says.
        assert_eq!(state.trace, tracer.snapshot()[..journaled]);
        assert_eq!(state.asks_at_mark, Some(2));
        // A block that does not pick up where the previous one stopped,
        // or does not parse, is refused.
        let last_tell = events.len() - 2;
        for (block, want) in [
            (tracer.to_jsonl_from(3), "seq 3 where 2 was due"),
            ("not json\n".to_string(), "trace line"),
        ] {
            let mut events = events.clone();
            if let RunEvent::Tell { trace, .. } = &mut events[last_tell] {
                *trace = block;
            }
            let mut fresh = RandomSearch::new(space(), 5);
            let err = replay(&events, &mut fresh, &Fifo, Mode::Min).unwrap_err();
            assert!(err.contains(want), "{err}");
        }
    }

    #[test]
    fn replay_discards_partial_records_before_a_restart() {
        let mut live = RandomSearch::new(space(), 9);
        let p0 = live.suggest(0).unwrap();
        let events = vec![
            RunEvent::meta("f"),
            RunEvent::Ask {
                trial: 0,
                config: p0.clone(),
            },
            // Pre-crash partial attempt, then the resumed run's restart
            // and canonical timeline.
            RunEvent::Attempt {
                trial: 0,
                index: 0,
                secs: 0.1,
                raw: Some(1.0),
                error: Some(TrialError::Panicked("pre-crash".into())),
                notes: Vec::new(),
            },
            RunEvent::Restart { trial: 0 },
            RunEvent::Attempt {
                trial: 0,
                index: 0,
                secs: 0.1,
                raw: Some(1.0),
                error: Some(TrialError::Panicked("canonical".into())),
                notes: Vec::new(),
            },
            RunEvent::Attempt {
                trial: 0,
                index: 1,
                secs: 0.1,
                raw: Some(2.0),
                error: None,
                notes: Vec::new(),
            },
            RunEvent::Tell {
                trial: 0,
                feedback: 2.0,
                status: "terminated".into(),
                value: Some(2.0),
                asks: 1,
                trace: String::new(),
            },
        ];
        let mut fresh = RandomSearch::new(space(), 9);
        let state = replay(&events, &mut fresh, &Fifo, Mode::Min).unwrap();
        let t = &state.trials[0];
        assert_eq!(t.attempts.len(), 2);
        assert_eq!(
            t.attempts[0].error,
            Some(TrialError::Panicked("canonical".into()))
        );
        // Only canonical attempts (with their raws) survive the replay.
        assert_eq!(t.attempts[0].raw, Some(1.0));
        assert_eq!(t.attempts[1].raw, Some(2.0));
    }

    #[test]
    fn replay_hard_errors_on_mismatched_seed() {
        let mut live = RandomSearch::new(space(), 5);
        let p = live.suggest(0).unwrap();
        let events = vec![
            RunEvent::meta("f"),
            RunEvent::Ask {
                trial: 0,
                config: p,
            },
        ];
        // Different seed ⇒ different RNG stream ⇒ divergent suggestion.
        let mut fresh = RandomSearch::new(space(), 6);
        let err = replay(&events, &mut fresh, &Fifo, Mode::Min).unwrap_err();
        assert!(err.contains("diverges"), "{err}");
    }

    /// The early-stopping `report` record is retired: a line of it, in
    /// the shape earlier builds wrote or any other, is refused by name.
    #[test]
    fn report_records_are_refused_by_name() {
        for line in [
            "report\t1\t2\t0.25\tstop",
            "report\t0\t1\t1\tcontinue",
            "report",
        ] {
            let err = RunEvent::parse(line).unwrap_err();
            assert!(err.contains("`report` is retired"), "{err}");
        }
    }

    /// The opener's branches: fresh creates and writes meta but refuses
    /// an existing file; resume hands back the records in append order,
    /// gives an empty log its meta record, and refuses a foreign or
    /// missing meta record.
    #[test]
    fn open_creates_resumes_and_refuses() {
        let dir = std::env::temp_dir().join(format!("e2c-runjournal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("run.wal");
        let open = |fp: &str, resume: bool| RunJournal::open(&path, fp, resume, None);
        let refusal = |fp: &str, resume: bool| match open(fp, resume) {
            Err(OpenError::Refused(why)) => why,
            other => panic!("{:?}", other.err()),
        };
        let (j, events) = open("fp", false).unwrap();
        assert!(events.is_empty());
        j.append(&RunEvent::Complete);
        assert_eq!(j.appended(), 2);
        drop(j);
        assert!(refusal("fp", false).contains("--resume"));
        let (_, events) = open("fp", true).unwrap();
        assert_eq!(events, [RunEvent::meta("fp"), RunEvent::Complete]);
        assert_eq!(load_events(&path).unwrap(), events);
        assert_eq!(open("other", true).err(), Some(OpenError::Mismatch));
        // A log the crash left empty resumes as a fresh start.
        std::fs::remove_file(&path).unwrap();
        drop(e2c_journal::Wal::create(&path).unwrap());
        assert_eq!(open("fp", true).unwrap().0.appended(), 1);
        assert_eq!(load_events(&path).unwrap(), [RunEvent::meta("fp")]);
        // A log that opens with any other record is refused.
        std::fs::remove_file(&path).unwrap();
        let mut wal = e2c_journal::Wal::create(&path).unwrap();
        wal.append(b"complete").unwrap();
        drop(wal);
        assert!(refusal("fp", true).contains("does not start with a meta record"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
