//! The eight codec targets. Each pairs a deterministic input generator
//! (seed corpus + byte mutation) with the property checks its codec
//! promises; see the crate docs for the three property classes.

use crate::engine::{mutate, SplitMix64};
use crate::FuzzTarget;
use e2c_core::EpochRow;
use e2c_trace::{EventKind, TraceEvent, Value as TraceValue};
use e2c_tune::{FaultPlan, RunEvent, WireMsg};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Generate `0..=max` bytes biased toward printable ASCII with the
/// occasional interesting byte — raw soup for the text codecs.
fn random_text_soup(rng: &mut SplitMix64, max: usize) -> Vec<u8> {
    let len = rng.index(max + 1);
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        if rng.chance(1, 6) {
            out.push(rng.next_u64() as u8);
        } else {
            out.push(rng.ascii());
        }
    }
    out
}

/// A short random ASCII identifier (for names, statuses, fingerprints),
/// with occasional escape-relevant characters mixed in.
fn random_name(rng: &mut SplitMix64) -> String {
    let len = rng.index(9);
    let mut s = String::new();
    for _ in 0..len {
        s.push(match rng.below(12) {
            0 => '\\',
            1 => '\t',
            2 => '\n',
            3 => '"',
            _ => rng.ascii() as char,
        });
    }
    s
}

// ---------------------------------------------------------------------
// conf_yaml — the YAML-subset configuration parser.
// ---------------------------------------------------------------------

/// Fixture corpus shared with `crates/conf/tests/corpus.rs`: each `.yaml`
/// document is committed next to the expected `Value::to_tree` rendering,
/// and [`ConfYamlTarget::preflight`] byte-compares the parse against it.
const CONF_CORPUS: &[(&str, &str, &str)] = &[
    (
        "basic",
        include_str!("../../conf/tests/corpus/basic.yaml"),
        include_str!("../../conf/tests/corpus/basic.tree"),
    ),
    (
        "nested",
        include_str!("../../conf/tests/corpus/nested.yaml"),
        include_str!("../../conf/tests/corpus/nested.tree"),
    ),
    (
        "flow",
        include_str!("../../conf/tests/corpus/flow.yaml"),
        include_str!("../../conf/tests/corpus/flow.tree"),
    ),
    (
        "scalars",
        include_str!("../../conf/tests/corpus/scalars.yaml"),
        include_str!("../../conf/tests/corpus/scalars.tree"),
    ),
    (
        "quoted",
        include_str!("../../conf/tests/corpus/quoted.yaml"),
        include_str!("../../conf/tests/corpus/quoted.tree"),
    ),
    (
        "tricky",
        include_str!("../../conf/tests/corpus/tricky.yaml"),
        include_str!("../../conf/tests/corpus/tricky.tree"),
    ),
];

/// Fuzzes `e2c_conf::parse`: no panics on arbitrary text, and any
/// accepted document re-serializes stably (`to_yaml` → `parse` →
/// `to_yaml` is byte-identical). The differential preflight replays the
/// committed fixture corpus against its `.tree` renderings.
pub struct ConfYamlTarget;

impl ConfYamlTarget {
    pub fn new() -> Self {
        ConfYamlTarget
    }
}

impl Default for ConfYamlTarget {
    fn default() -> Self {
        Self::new()
    }
}

impl FuzzTarget for ConfYamlTarget {
    fn name(&self) -> &'static str {
        "conf_yaml"
    }

    fn tags(&self) -> &'static [&'static str] {
        &["text", "smoke"]
    }

    fn preflight(&self) -> Result<(), String> {
        for (name, yaml, tree) in CONF_CORPUS {
            let v = e2c_conf::parse(yaml)
                .map_err(|e| format!("corpus fixture `{name}` no longer parses: {e}"))?;
            if v.to_tree() != *tree {
                return Err(format!(
                    "corpus fixture `{name}` parses to a different tree than committed:\n--- expected\n{tree}--- got\n{}",
                    v.to_tree()
                ));
            }
        }
        Ok(())
    }

    fn generate(&mut self, rng: &mut SplitMix64) -> Vec<u8> {
        if rng.chance(4, 5) {
            let (_, yaml, _) = CONF_CORPUS[rng.index(CONF_CORPUS.len())];
            let mut data = yaml.as_bytes().to_vec();
            mutate(rng, &mut data);
            data
        } else {
            random_text_soup(rng, 96)
        }
    }

    fn check(&self, input: &[u8]) -> Result<(), String> {
        let text = String::from_utf8_lossy(input);
        let Ok(v) = e2c_conf::parse(&text) else {
            return Ok(()); // rejection is fine; panicking is not
        };
        let _ = v.to_tree(); // must be total
        let yaml1 = v.to_yaml();
        let v2 = e2c_conf::parse(&yaml1).map_err(|e| {
            format!("accepted document re-serializes unparseably: {e}\nserialized:\n{yaml1}")
        })?;
        let yaml2 = v2.to_yaml();
        if yaml1 != yaml2 {
            return Err(format!(
                "serialization is not a fixpoint:\nfirst:\n{yaml1}\nsecond:\n{yaml2}"
            ));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// journal_wire — the tab-separated tuner journal records.
// ---------------------------------------------------------------------

/// A random syntactically valid [`RunEvent`] — exercises the accept path
/// of every record family, including non-finite floats and escaped
/// payloads.
fn random_run_event(rng: &mut SplitMix64) -> RunEvent {
    // Arbitrary bit patterns: Display always writes the canonical
    // shortest-roundtrip form, so generated lines are accepted by the
    // strict parser.
    let f = |rng: &mut SplitMix64| f64::from_bits(rng.next_u64());
    match rng.below(7) {
        0 => RunEvent::meta(random_name(rng)),
        1 => RunEvent::Ask {
            trial: rng.below(1000),
            config: (0..rng.index(4)).map(|_| f(rng)).collect(),
        },
        2 => RunEvent::Restart {
            trial: rng.below(1000),
        },
        3 => RunEvent::Report {
            trial: rng.below(1000),
            iteration: rng.below(100),
            normalized: f(rng),
            stop: rng.chance(1, 2),
        },
        4 => RunEvent::Attempt {
            trial: rng.below(1000),
            index: rng.below(4) as u32,
            secs: f(rng),
            raw: rng.chance(1, 2).then(|| f(rng)),
            error: rng
                .chance(1, 2)
                .then(|| e2c_tune::TrialError::Panicked(random_name(rng))),
        },
        5 => RunEvent::Tell {
            trial: rng.below(1000),
            feedback: f(rng),
            status: "terminated".to_string(),
            value: rng.chance(1, 2).then(|| f(rng)),
            trace_mark: rng.chance(1, 2).then(|| (rng.below(100), rng.below(100))),
            asks: rng.chance(1, 2).then(|| rng.below(100)),
        },
        _ => RunEvent::Complete,
    }
}

/// Fuzzes [`RunEvent::parse`]: no panics, and — because field parsing is
/// strict and canonical — decode → encode is the *identity* on every
/// accepted line (`parse(line).to_line() == line`).
pub struct JournalWireTarget;

impl JournalWireTarget {
    pub fn new() -> Self {
        JournalWireTarget
    }
}

impl Default for JournalWireTarget {
    fn default() -> Self {
        Self::new()
    }
}

impl FuzzTarget for JournalWireTarget {
    fn name(&self) -> &'static str {
        "journal_wire"
    }

    fn tags(&self) -> &'static [&'static str] {
        &["text", "smoke"]
    }

    fn generate(&mut self, rng: &mut SplitMix64) -> Vec<u8> {
        match rng.below(5) {
            // Valid line, untouched: exercises the accept + identity path.
            0 | 1 => random_run_event(rng).to_line().into_bytes(),
            // Valid line, mutated: near-miss corruption.
            2 | 3 => {
                let mut data = random_run_event(rng).to_line().into_bytes();
                mutate(rng, &mut data);
                data
            }
            _ => random_text_soup(rng, 64),
        }
    }

    fn check(&self, input: &[u8]) -> Result<(), String> {
        let line = String::from_utf8_lossy(input);
        let Ok(ev) = RunEvent::parse(&line) else {
            return Ok(());
        };
        let reencoded = ev.to_line();
        if reencoded != line {
            return Err(format!(
                "decode → encode is not the identity:\naccepted: {:?}\nre-encoded: {reencoded:?}",
                line.as_ref()
            ));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// worker_wire — the multi-process farm's framed stdio protocol.
// ---------------------------------------------------------------------

/// A random syntactically valid [`WireMsg`] — every frame family,
/// including non-finite floats, empty configs, and aux/event strings full
/// of the wire's escape-relevant characters.
fn random_wire_msg(rng: &mut SplitMix64) -> WireMsg {
    let f = |rng: &mut SplitMix64| f64::from_bits(rng.next_u64());
    match rng.below(6) {
        0 => WireMsg::Hello {
            version: rng.below(4),
        },
        1 => WireMsg::Heartbeat {
            seq: rng.below(1_000_000),
        },
        2 => WireMsg::Ask(e2c_tune::WorkerAsk {
            trial: rng.below(1000),
            attempt: rng.below(4) as u32,
            traced: rng.chance(1, 2),
            config: (0..rng.index(5)).map(|_| f(rng)).collect(),
        }),
        3 => WireMsg::ResultOk {
            trial: rng.below(1000),
            attempt: rng.below(4) as u32,
            reply: e2c_tune::WorkerReply {
                value: f(rng),
                aux: (0..rng.index(3))
                    .map(|_| (random_name(rng), random_name(rng)))
                    .collect(),
                events: (0..rng.index(4))
                    .map(|_| (random_name(rng), rng.chance(1, 2)))
                    .collect(),
                end_clock: rng.below(1_000_000),
            },
        },
        4 => WireMsg::ResultPanic {
            trial: rng.below(1000),
            attempt: rng.below(4) as u32,
            payload: random_name(rng),
        },
        _ => WireMsg::Shutdown,
    }
}

/// Fuzzes [`WireMsg::parse`] — the farm's frame payload codec. No panics
/// on arbitrary text, and — because field parsing is strict and floats
/// are canonical — decode → encode is the *identity* on every accepted
/// payload: a worker and its supervisor can never disagree about what a
/// frame said.
pub struct WorkerWireTarget;

impl WorkerWireTarget {
    pub fn new() -> Self {
        WorkerWireTarget
    }
}

impl Default for WorkerWireTarget {
    fn default() -> Self {
        Self::new()
    }
}

impl FuzzTarget for WorkerWireTarget {
    fn name(&self) -> &'static str {
        "worker_wire"
    }

    fn tags(&self) -> &'static [&'static str] {
        &["text", "smoke"]
    }

    fn generate(&mut self, rng: &mut SplitMix64) -> Vec<u8> {
        match rng.below(5) {
            0 | 1 => random_wire_msg(rng).encode().into_bytes(),
            2 | 3 => {
                let mut data = random_wire_msg(rng).encode().into_bytes();
                mutate(rng, &mut data);
                data
            }
            _ => random_text_soup(rng, 64),
        }
    }

    fn check(&self, input: &[u8]) -> Result<(), String> {
        let payload = String::from_utf8_lossy(input);
        let Ok(msg) = WireMsg::parse(&payload) else {
            return Ok(()); // rejection is fine; panicking is not
        };
        let reencoded = msg.encode();
        if reencoded != payload {
            return Err(format!(
                "decode → encode is not the identity:\naccepted: {:?}\nre-encoded: {reencoded:?}",
                payload.as_ref()
            ));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// fault_plan — the `--faults` knob.
// ---------------------------------------------------------------------

/// A random `--faults` string in the accepted grammar, spelled loosely:
/// every fault kind, attempts present or not, both separators with and
/// without padding, empty entries, and extreme numbers.
fn random_fault_text(rng: &mut SplitMix64) -> String {
    let number = |rng: &mut SplitMix64| match rng.below(4) {
        0 => u64::MAX.to_string(),
        1 => format!("+{}", rng.below(100)),
        _ => rng.below(100).to_string(),
    };
    let mut out = String::new();
    for i in 0..rng.index(5) {
        if i > 0 {
            out.push_str([";", ",", "; ", " , ", ";;"][rng.index(5)]);
        }
        let kind = ["fail", "nan", "delay", "worker-crash", "worker-stall"][rng.index(5)];
        out.push_str(kind);
        out.push(':');
        out.push_str(&number(rng));
        if rng.chance(1, 2) {
            out.push('@');
            out.push_str(&(rng.below(5) as u32).to_string());
        }
        if kind == "delay" {
            out.push(':');
            out.push_str(&number(rng));
        }
    }
    out
}

/// Fuzzes [`FaultPlan::parse`], the `--faults` knob. No panics on
/// arbitrary text, and the plan's canonical spelling (its `Display`) is a
/// fixed point: it parses back to an equal plan that renders to the same
/// bytes. The grammar admits padding and both separators, so this is the
/// encode → decode → encode class, not identity on the input.
pub struct FaultPlanTarget;

impl FaultPlanTarget {
    pub fn new() -> Self {
        FaultPlanTarget
    }
}

impl Default for FaultPlanTarget {
    fn default() -> Self {
        Self::new()
    }
}

impl FuzzTarget for FaultPlanTarget {
    fn name(&self) -> &'static str {
        "fault_plan"
    }

    fn tags(&self) -> &'static [&'static str] {
        &["text", "smoke"]
    }

    fn generate(&mut self, rng: &mut SplitMix64) -> Vec<u8> {
        match rng.below(5) {
            0 | 1 => random_fault_text(rng).into_bytes(),
            2 | 3 => {
                let mut data = random_fault_text(rng).into_bytes();
                mutate(rng, &mut data);
                data
            }
            _ => random_text_soup(rng, 48),
        }
    }

    fn check(&self, input: &[u8]) -> Result<(), String> {
        let text = String::from_utf8_lossy(input);
        let Ok(plan) = FaultPlan::parse(&text) else {
            return Ok(());
        };
        let canonical = plan.to_string();
        let reparsed = FaultPlan::parse(&canonical)
            .map_err(|e| format!("canonical spelling {canonical:?} rejected: {e}"))?;
        if reparsed != plan {
            return Err(format!(
                "canonical spelling {canonical:?} parses to a different plan:\n\
                 accepted: {plan:?}\nreparsed: {reparsed:?}"
            ));
        }
        let again = reparsed.to_string();
        if again != canonical {
            return Err(format!(
                "canonical spelling is not stable: {canonical:?} → {again:?}"
            ));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// trace_jsonl — one-line JSON trace events.
// ---------------------------------------------------------------------

/// A random [`TraceEvent`], including NaN/inf fields and hostile strings.
fn random_trace_event(rng: &mut SplitMix64) -> TraceEvent {
    let mut fields = BTreeMap::new();
    for _ in 0..rng.index(4) {
        let v = match rng.below(5) {
            0 => TraceValue::U64(rng.next_u64()),
            1 => TraceValue::I64(rng.next_u64() as i64),
            2 => TraceValue::F64(f64::from_bits(rng.next_u64())),
            3 => TraceValue::Bool(rng.chance(1, 2)),
            _ => TraceValue::Str(random_name(rng)),
        };
        fields.insert(random_name(rng), v);
    }
    TraceEvent {
        seq: rng.below(1_000_000),
        vt: rng.below(1_000_000),
        phase: random_name(rng),
        name: random_name(rng),
        kind: match rng.below(3) {
            0 => EventKind::Point,
            1 => EventKind::Begin,
            _ => EventKind::End,
        },
        trial: rng.chance(1, 2).then(|| rng.below(100)),
        span: rng.chance(1, 2).then(|| rng.below(100)),
        fields,
    }
}

/// Fuzzes the JSONL trace codec: `Json::parse` and
/// `TraceEvent::from_json` must never panic (including on deep-nesting
/// bombs), and any accepted event's encoding is a fixpoint
/// (`to_json` → `from_json` → `to_json` is byte-identical).
pub struct TraceJsonlTarget;

impl TraceJsonlTarget {
    pub fn new() -> Self {
        TraceJsonlTarget
    }
}

impl Default for TraceJsonlTarget {
    fn default() -> Self {
        Self::new()
    }
}

impl FuzzTarget for TraceJsonlTarget {
    fn name(&self) -> &'static str {
        "trace_jsonl"
    }

    fn tags(&self) -> &'static [&'static str] {
        &["text", "smoke"]
    }

    fn generate(&mut self, rng: &mut SplitMix64) -> Vec<u8> {
        match rng.below(6) {
            0 | 1 => random_trace_event(rng).to_json().into_bytes(),
            2 | 3 => {
                let mut data = random_trace_event(rng).to_json().into_bytes();
                mutate(rng, &mut data);
                data
            }
            4 => {
                // Nesting bombs: brackets/braces stacked past any sane
                // document depth.
                let depth = 1 + rng.index(300);
                let open = if rng.chance(1, 2) { "[" } else { "{\"k\":" };
                open.repeat(depth).into_bytes()
            }
            _ => random_text_soup(rng, 96),
        }
    }

    fn check(&self, input: &[u8]) -> Result<(), String> {
        let text = String::from_utf8_lossy(input);
        // The raw JSON parser must be total (Ok or Err, never unwind).
        let _ = e2c_journal::json::Json::parse(&text);
        let Ok(ev) = TraceEvent::from_json(&text) else {
            return Ok(());
        };
        let j1 = ev.to_json();
        let ev2 = TraceEvent::from_json(&j1)
            .map_err(|e| format!("accepted event re-serializes unparseably: {e}\nline: {j1}"))?;
        let j2 = ev2.to_json();
        if j1 != j2 {
            return Err(format!(
                "encoding is not a fixpoint:\nfirst:  {j1}\nsecond: {j2}"
            ));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// journal_wal — the CRC-framed write-ahead log.
// ---------------------------------------------------------------------

static WAL_SCRATCH_NONCE: AtomicU64 = AtomicU64::new(0);

/// Fuzzes WAL recovery. `scan_records` carries its own oracle: recovered
/// records re-frame to exactly the consumed prefix, and the scan is
/// maximal (it never stops in front of a valid frame). A sampled subset
/// of inputs additionally goes through the file-backed path —
/// `Wal::open` must recover the same records, truncate the torn tail,
/// and accept appends afterwards. The preflight runs the torn-write
/// truncation oracle exhaustively: a valid image cut at *every* byte
/// offset must recover exactly the frames whose end lies at or before
/// the cut.
pub struct JournalWalTarget {
    scratch: PathBuf,
}

impl JournalWalTarget {
    pub fn new() -> Self {
        let nonce = WAL_SCRATCH_NONCE.fetch_add(1, Ordering::Relaxed);
        JournalWalTarget {
            scratch: std::env::temp_dir()
                .join(format!("e2c-fuzz-wal-{}-{nonce}.wal", std::process::id())),
        }
    }

    /// Assemble a valid WAL image from framed payloads.
    fn image(payloads: &[Vec<u8>]) -> Vec<u8> {
        let mut bytes = Vec::new();
        for p in payloads {
            bytes.extend_from_slice(&(p.len() as u32).to_le_bytes());
            bytes.extend_from_slice(&e2c_journal::crc32(p).to_le_bytes());
            bytes.extend_from_slice(p);
        }
        bytes
    }
}

impl Drop for JournalWalTarget {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.scratch);
    }
}

impl Default for JournalWalTarget {
    fn default() -> Self {
        Self::new()
    }
}

impl FuzzTarget for JournalWalTarget {
    fn name(&self) -> &'static str {
        "journal_wal"
    }

    fn tags(&self) -> &'static [&'static str] {
        &["binary", "smoke"]
    }

    fn preflight(&self) -> Result<(), String> {
        // The truncation oracle, exhaustively: for a valid image cut at
        // byte `c`, recovery must yield exactly the record prefix whose
        // framed length fits in `c` — no fewer (lost acknowledged
        // writes), no more (fabricated records).
        let payloads: Vec<Vec<u8>> = vec![
            b"first".to_vec(),
            Vec::new(), // empty payload frames are legal
            vec![0u8; 37],
            b"tail".to_vec(),
        ];
        let bytes = Self::image(&payloads);
        let mut prefix_lens = vec![0usize];
        for p in &payloads {
            prefix_lens.push(prefix_lens.last().unwrap() + e2c_journal::HEADER + p.len());
        }
        for cut in 0..=bytes.len() {
            let expect_n = prefix_lens.iter().filter(|&&l| l <= cut).count() - 1;
            let (records, consumed) = e2c_journal::scan_records(&bytes[..cut]);
            if records.len() != expect_n || consumed != prefix_lens[expect_n] {
                return Err(format!(
                    "cut at {cut}: recovered {} records ({consumed} bytes), oracle expects {expect_n} ({} bytes)",
                    records.len(),
                    prefix_lens[expect_n]
                ));
            }
            if records.iter().zip(&payloads).any(|(r, p)| r != p) {
                return Err(format!("cut at {cut}: recovered record bytes differ"));
            }
        }
        // File-backed recovery agrees with the in-memory scan, truncates
        // the torn tail, and accepts appends afterwards.
        let torn_cut = prefix_lens[2] + 3; // mid-header of the third frame
        std::fs::write(&self.scratch, &bytes[..torn_cut]).map_err(|e| e.to_string())?;
        let (mut wal, recovered) =
            e2c_journal::Wal::open(&self.scratch).map_err(|e| format!("open torn wal: {e}"))?;
        if recovered.len() != 2 {
            return Err(format!(
                "torn open recovered {} records, oracle expects 2",
                recovered.len()
            ));
        }
        wal.append(b"post-recovery")
            .map_err(|e| format!("append after recovery: {e}"))?;
        drop(wal);
        let records = e2c_journal::read_records(&self.scratch).map_err(|e| e.to_string())?;
        if records.len() != 3 || records[2] != b"post-recovery" {
            return Err("append after torn recovery did not persist cleanly".to_string());
        }
        std::fs::remove_file(&self.scratch).map_err(|e| e.to_string())?;
        Ok(())
    }

    fn generate(&mut self, rng: &mut SplitMix64) -> Vec<u8> {
        let payloads: Vec<Vec<u8>> = (0..rng.index(5))
            .map(|_| (0..rng.index(48)).map(|_| rng.next_u64() as u8).collect())
            .collect();
        let mut bytes = Self::image(&payloads);
        if rng.chance(2, 5) {
            // Clean torn-write shape: truncate only.
            let keep = rng.index(bytes.len() + 1);
            bytes.truncate(keep);
        } else {
            mutate(rng, &mut bytes);
        }
        bytes
    }

    fn check(&self, input: &[u8]) -> Result<(), String> {
        let (records, consumed) = e2c_journal::scan_records(input);
        if consumed > input.len() {
            return Err(format!(
                "consumed {consumed} bytes of a {}-byte image",
                input.len()
            ));
        }
        // Recovered records re-frame to exactly the consumed prefix.
        let reframed = Self::image(&records);
        if reframed != input[..consumed] {
            return Err(format!(
                "recovered records re-frame to {} bytes != consumed prefix of {consumed}",
                reframed.len()
            ));
        }
        // Maximality: the scan never stops in front of a valid frame.
        let rem = &input[consumed..];
        if rem.len() >= e2c_journal::HEADER {
            let len = u32::from_le_bytes([rem[0], rem[1], rem[2], rem[3]]);
            if len <= e2c_journal::MAX_RECORD {
                let end = e2c_journal::HEADER + len as usize;
                if rem.len() >= end {
                    let crc = u32::from_le_bytes([rem[4], rem[5], rem[6], rem[7]]);
                    if e2c_journal::crc32(&rem[e2c_journal::HEADER..end]) == crc {
                        return Err(format!(
                            "scan stopped at offset {consumed} in front of a valid {len}-byte frame"
                        ));
                    }
                }
            }
        }
        // File-backed agreement, on a deterministic sample of inputs
        // (fsync per open keeps this off the every-iteration hot path).
        if e2c_journal::crc32(input).is_multiple_of(8) {
            std::fs::write(&self.scratch, input).map_err(|e| e.to_string())?;
            let (wal, recovered) =
                e2c_journal::Wal::open(&self.scratch).map_err(|e| format!("Wal::open: {e}"))?;
            drop(wal);
            if recovered != records {
                return Err(format!(
                    "Wal::open recovered {} records, scan_records {}",
                    recovered.len(),
                    records.len()
                ));
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// detlint_baseline — the committed `lint.baseline` accepted-findings file.
// ---------------------------------------------------------------------

/// One random baseline line: mostly well-formed `CODE<TAB>path<TAB>fp`
/// entries (real rule codes, fingerprints with inner tabs and padding),
/// with comments, blanks and stray whitespace mixed in.
fn random_baseline_line(rng: &mut SplitMix64) -> String {
    let pad = |rng: &mut SplitMix64| [" ", "\t", "\r", ""][rng.index(4)];
    match rng.below(8) {
        0 => format!("{}# {}", pad(rng), random_name(rng)),
        1 => pad(rng).to_string(),
        _ => {
            let code = if rng.chance(3, 4) {
                detlint::Rule::ALL[rng.index(detlint::Rule::COUNT)]
                    .code()
                    .to_string()
            } else {
                random_name(rng)
            };
            format!(
                "{code}\t{}\t{}{}{}",
                random_name(rng),
                pad(rng),
                random_name(rng),
                pad(rng)
            )
        }
    }
}

/// Fuzzes `detlint::Baseline::parse`: it must never panic, and every
/// accepted file must survive its own rendering — `parse(render(b))`
/// equals `b` as a multiset of entries, so `--update-baseline` never
/// rewrites the gate's meaning.
pub struct DetlintBaselineTarget;

impl DetlintBaselineTarget {
    pub fn new() -> Self {
        DetlintBaselineTarget
    }
}

impl Default for DetlintBaselineTarget {
    fn default() -> Self {
        Self::new()
    }
}

impl FuzzTarget for DetlintBaselineTarget {
    fn name(&self) -> &'static str {
        "detlint_baseline"
    }

    fn tags(&self) -> &'static [&'static str] {
        &["text", "smoke"]
    }

    fn generate(&mut self, rng: &mut SplitMix64) -> Vec<u8> {
        let mut text = String::new();
        for _ in 0..rng.index(6) {
            text.push_str(&random_baseline_line(rng));
            text.push_str(["\n", "\r\n"][rng.index(2)]);
        }
        let mut data = text.into_bytes();
        match rng.below(4) {
            0 | 1 => {}
            2 => mutate(rng, &mut data),
            _ => data = random_text_soup(rng, 96),
        }
        data
    }

    fn check(&self, input: &[u8]) -> Result<(), String> {
        let text = String::from_utf8_lossy(input);
        let Ok(baseline) = detlint::Baseline::parse(&text) else {
            return Ok(());
        };
        let rendered = baseline.render();
        let reparsed = detlint::Baseline::parse(&rendered)
            .map_err(|e| format!("accepted baseline renders unparseably: {e}\n{rendered}"))?;
        if reparsed != baseline {
            return Err(format!(
                "render/parse changed the entry set:\nrendered:\n{rendered}\nre-rendered:\n{}",
                reparsed.render()
            ));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// serving_row — one `serving.wal` record (a rendered `serving.csv` row).
// ---------------------------------------------------------------------

/// A random float for a serving row: ordinary magnitudes plus NaN
/// (a cycle whose trials all failed), the infinities, `-0` and extremes.
fn random_row_f64(rng: &mut SplitMix64) -> f64 {
    match rng.below(8) {
        0 => f64::NAN,
        1 => [
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            f64::MAX,
            f64::MIN_POSITIVE,
        ][rng.index(5)],
        _ => (rng.next_u64() >> 11) as f64 / f64::from(1u32 << rng.below(24) as u32),
    }
}

/// A random epoch row, rendered through the codec's own writer.
fn random_epoch_row(rng: &mut SplitMix64) -> EpochRow {
    let pool = |rng: &mut SplitMix64| rng.below(100) as u32;
    let config = plantnet::PoolConfig {
        http: pool(rng),
        download: pool(rng),
        simsearch: pool(rng),
        extract: pool(rng),
    };
    let count = |rng: &mut SplitMix64| match rng.below(4) {
        0 => rng.next_u64(),
        _ => rng.below(100_000),
    };
    EpochRow {
        epoch: rng.index(64),
        label: format!("{}-{:02}", 2017 + rng.below(4), 1 + rng.below(12)),
        rate: random_row_f64(rng),
        config,
        cost: random_row_f64(rng),
        offered: count(rng),
        admitted: count(rng),
        rejected: count(rng),
        shed: count(rng),
        slo_violations: count(rng),
        completed: count(rng),
        response_mean: random_row_f64(rng),
        throughput: random_row_f64(rng),
    }
}

/// Fuzzes [`EpochRow::from_csv`], the decoder `serve --resume` runs on
/// every `serving.wal` record. No panics on arbitrary text, and every
/// accepted row is a fixed point of its rendering: `to_csv(from_csv(x))`
/// parses back and renders the same bytes. Bytes are compared, not
/// rows, because `cost` may be NaN.
pub struct ServingRowTarget;

impl ServingRowTarget {
    pub fn new() -> Self {
        ServingRowTarget
    }
}

impl Default for ServingRowTarget {
    fn default() -> Self {
        Self::new()
    }
}

impl FuzzTarget for ServingRowTarget {
    fn name(&self) -> &'static str {
        "serving_row"
    }

    fn tags(&self) -> &'static [&'static str] {
        &["text", "smoke"]
    }

    fn generate(&mut self, rng: &mut SplitMix64) -> Vec<u8> {
        match rng.below(5) {
            0 | 1 => random_epoch_row(rng).to_csv().into_bytes(),
            2 | 3 => {
                let mut data = random_epoch_row(rng).to_csv().into_bytes();
                mutate(rng, &mut data);
                data
            }
            _ => random_text_soup(rng, 96),
        }
    }

    fn check(&self, input: &[u8]) -> Result<(), String> {
        let text = String::from_utf8_lossy(input);
        let Ok(row) = EpochRow::from_csv(&text) else {
            return Ok(());
        };
        let rendered = row.to_csv();
        let again = EpochRow::from_csv(&rendered)
            .map_err(|e| format!("accepted row renders unparseably: {e}"))?
            .to_csv();
        if again != rendered {
            return Err(format!("rendering is not stable: {rendered:?} → {again:?}"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::guard;

    fn exercise(target: &mut dyn FuzzTarget, iters: u64) {
        assert_eq!(
            guard(|| target.preflight()),
            Ok(()),
            "{} preflight",
            target.name()
        );
        let mut rng = SplitMix64::new(0xE2C);
        for i in 0..iters {
            let input = target.generate(&mut rng);
            if let Err(kind) = guard(|| target.check(&input)) {
                panic!(
                    "{} failed at iteration {i}: {kind}\ninput: {:?}",
                    target.name(),
                    String::from_utf8_lossy(&input)
                );
            }
        }
    }

    #[test]
    fn conf_yaml_smoke() {
        exercise(&mut ConfYamlTarget::new(), 300);
    }

    #[test]
    fn journal_wire_smoke() {
        exercise(&mut JournalWireTarget::new(), 300);
    }

    #[test]
    fn worker_wire_smoke() {
        exercise(&mut WorkerWireTarget::new(), 300);
    }

    #[test]
    fn fault_plan_smoke() {
        exercise(&mut FaultPlanTarget::new(), 300);
    }

    #[test]
    fn fault_generator_writes_accepted_text_of_every_kind() {
        let mut rng = SplitMix64::new(31);
        let mut kinds = std::collections::BTreeSet::new();
        let mut accepted = 0;
        for _ in 0..200 {
            let text = random_fault_text(&mut rng);
            if let Ok(plan) = FaultPlan::parse(&text) {
                accepted += 1;
                for entry in plan.to_string().split(';').filter(|e| !e.is_empty()) {
                    kinds.insert(entry.split(':').next().unwrap().to_string());
                }
            }
        }
        assert_eq!(accepted, 200, "the generator writes only accepted text");
        for kind in ["fail", "nan", "delay", "worker-crash", "worker-stall"] {
            assert!(kinds.contains(kind), "generator never emitted {kind}");
        }
    }

    #[test]
    fn trace_jsonl_smoke() {
        exercise(&mut TraceJsonlTarget::new(), 300);
    }

    #[test]
    fn wire_generator_covers_every_frame_family() {
        let mut rng = SplitMix64::new(23);
        let mut families = std::collections::BTreeSet::new();
        for _ in 0..200 {
            let payload = random_wire_msg(&mut rng).encode();
            families.insert(payload.split('\t').next().unwrap().to_string());
        }
        for family in ["hello", "heartbeat", "ask", "result", "shutdown"] {
            assert!(
                families.contains(family),
                "generator never emitted {family}"
            );
        }
    }

    #[test]
    fn detlint_baseline_smoke() {
        exercise(&mut DetlintBaselineTarget::new(), 300);
    }

    #[test]
    fn serving_row_smoke() {
        exercise(&mut ServingRowTarget::new(), 300);
    }

    #[test]
    fn row_generator_writes_accepted_rows_with_nan_costs() {
        let mut rng = SplitMix64::new(41);
        let mut nan = 0;
        for _ in 0..200 {
            let row = EpochRow::from_csv(&random_epoch_row(&mut rng).to_csv())
                .expect("the generator writes accepted rows");
            nan += usize::from(row.cost.is_nan());
        }
        assert!(nan > 0, "generator never emitted a NaN cost");
    }

    #[test]
    fn journal_wal_smoke() {
        exercise(&mut JournalWalTarget::new(), 200);
    }

    #[test]
    fn wire_generator_covers_every_record_family() {
        let mut rng = SplitMix64::new(11);
        let mut families = std::collections::BTreeSet::new();
        for _ in 0..200 {
            let line = random_run_event(&mut rng).to_line();
            families.insert(line.split('\t').next().unwrap().to_string());
        }
        for family in [
            "meta", "ask", "restart", "report", "attempt", "tell", "complete",
        ] {
            assert!(
                families.contains(family),
                "generator never emitted {family}"
            );
        }
    }
}
