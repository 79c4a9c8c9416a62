//! Worker side of the multi-process trial farm, and the stdio wire
//! protocol both sides speak.
//!
//! A farm run is the ordinary tuner with the objective's *execution*
//! moved out of process: the parent ([`crate::farm::WorkerFarm`]) spawns
//! `e2clab worker` children and streams asks to them over stdin,
//! collecting results (and heartbeats) over stdout. Everything
//! decision-bearing — searcher draws, commit order, scheduler verdicts,
//! journal appends — stays in the parent, which is why artifacts are
//! byte-identical to an in-process run at any worker count.
//!
//! ## Frames
//!
//! Each message is one length-prefixed frame, journal-style:
//!
//! ```text
//! [u32 LE payload length][u32 LE CRC-32 of payload][payload bytes]
//! ```
//!
//! using the same 8-byte header size, CRC and record cap as the run
//! journal ([`e2c_journal::HEADER`], [`e2c_journal::crc32`],
//! [`e2c_journal::MAX_RECORD`]). The payload is a tab-separated record in
//! the shared [`e2c_journal::wire`] dialect: escaped strings, canonical
//! integers, shortest-round-trip floats. Every accepted payload re-encodes
//! byte-identically ([`WireMsg::parse`] ∘ [`WireMsg::encode`] is the
//! identity on valid frames — the fuzz harness checks this), so a frame a
//! peer cannot re-encode is *corruption*, and the farm treats it as a
//! lost worker rather than guessing.
//!
//! ## Messages
//!
//! | payload | direction | meaning |
//! |---|---|---|
//! | `hello <version>` | worker → tuner | protocol handshake, sent once |
//! | `heartbeat <seq>` | worker → tuner | liveness, every ~250 ms |
//! | `ask <trial> <attempt> <traced> <config>` | tuner → worker | run one attempt |
//! | `result <trial> <attempt> ok …` | worker → tuner | value + aux pairs + trace events |
//! | `result <trial> <attempt> panic <payload>` | worker → tuner | objective panicked |
//! | `shutdown` | tuner → worker | drain and exit |

use std::io::{Read, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

use e2c_journal::wire::{escape, parse_f64, parse_u32, parse_u64, unescape};

/// Bumped whenever the frame grammar changes; the farm refuses a worker
/// whose `hello` does not match exactly.
pub const PROTOCOL_VERSION: u64 = 1;

/// How often a serving worker emits `heartbeat` frames. The farm's
/// stall deadline must be comfortably larger than this.
pub const HEARTBEAT_INTERVAL: Duration = Duration::from_millis(250);

/// One attempt dispatched to a worker.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerAsk {
    /// Trial id (parent-side numbering).
    pub trial: u64,
    /// 0-based execution attempt.
    pub attempt: u32,
    /// Whether the attempt must trace: the worker then runs the objective
    /// against a fresh [`e2c_trace::Tracer`] and ships the drained buffer
    /// back for the parent to splice.
    pub traced: bool,
    /// The configuration to evaluate (external units).
    pub config: Vec<f64>,
}

/// A successful attempt's payload: the metric plus everything the
/// in-process path would have produced as side effects — auxiliary
/// key/value pairs (engine statistics the CLI's objective lands as
/// artifacts)
/// and the attempt's trace buffer (JSON line + tick bit per event, plus
/// the buffer clock's final value, exactly the shape
/// [`e2c_trace::Tracer::splice`] consumes).
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerReply {
    /// The objective's raw return value (may be non-finite; the parent
    /// classifies it exactly as it would an in-process return).
    pub value: f64,
    /// Ordered auxiliary pairs for the parent's objective.
    pub aux: Vec<(String, String)>,
    /// Drained trace events as `(to_json line, ticked)` pairs.
    pub events: Vec<(String, bool)>,
    /// The worker tracer's final clock value.
    pub end_clock: u64,
}

/// Every frame either side of the protocol can carry.
#[derive(Debug, Clone, PartialEq)]
pub enum WireMsg {
    /// Worker → tuner handshake.
    Hello {
        /// The worker's [`PROTOCOL_VERSION`].
        version: u64,
    },
    /// Worker → tuner liveness beacon.
    Heartbeat {
        /// Monotonic per-worker counter.
        seq: u64,
    },
    /// Tuner → worker: run one attempt.
    Ask(WorkerAsk),
    /// Worker → tuner: the attempt returned.
    ResultOk {
        /// Echoed trial id.
        trial: u64,
        /// Echoed attempt index.
        attempt: u32,
        /// The attempt's payload.
        reply: WorkerReply,
    },
    /// Worker → tuner: the objective panicked; the payload rides along so
    /// the parent can re-raise it and classify identically.
    ResultPanic {
        /// Echoed trial id.
        trial: u64,
        /// Echoed attempt index.
        attempt: u32,
        /// The panic payload, rendered to a string.
        payload: String,
    },
    /// Tuner → worker: drain and exit cleanly.
    Shutdown,
}

impl WireMsg {
    /// Encode to the canonical tab-separated payload (no framing).
    pub fn encode(&self) -> String {
        match self {
            WireMsg::Hello { version } => format!("hello\t{version}"),
            WireMsg::Heartbeat { seq } => format!("heartbeat\t{seq}"),
            WireMsg::Ask(ask) => {
                let config = if ask.config.is_empty() {
                    "-".to_string()
                } else {
                    let mut out = String::new();
                    for (i, v) in ask.config.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        out.push_str(&v.to_string());
                    }
                    out
                };
                format!(
                    "ask\t{}\t{}\t{}\t{config}",
                    ask.trial,
                    ask.attempt,
                    u8::from(ask.traced)
                )
            }
            WireMsg::ResultOk {
                trial,
                attempt,
                reply,
            } => {
                let mut out = format!(
                    "result\t{trial}\t{attempt}\tok\t{}\t{}",
                    reply.value,
                    reply.aux.len()
                );
                for (k, v) in &reply.aux {
                    out.push('\t');
                    out.push_str(&escape(k));
                    out.push('\t');
                    out.push_str(&escape(v));
                }
                out.push('\t');
                out.push_str(&reply.events.len().to_string());
                out.push('\t');
                out.push_str(&reply.end_clock.to_string());
                for (json, ticked) in &reply.events {
                    out.push('\t');
                    out.push_str(&escape(json));
                    out.push('\t');
                    out.push(if *ticked { '1' } else { '0' });
                }
                out
            }
            WireMsg::ResultPanic {
                trial,
                attempt,
                payload,
            } => {
                format!("result\t{trial}\t{attempt}\tpanic\t{}", escape(payload))
            }
            WireMsg::Shutdown => "shutdown".to_string(),
        }
    }

    /// Strict parse of a tab-separated payload. Anything [`encode`]
    /// would not have written — wrong field counts, non-canonical
    /// numbers, unknown flags, trailing fields — is an error.
    ///
    /// [`encode`]: WireMsg::encode
    pub fn parse(payload: &str) -> Result<WireMsg, String> {
        let fields: Vec<&str> = payload.split('\t').collect();
        match fields.as_slice() {
            ["hello", version] => Ok(WireMsg::Hello {
                version: parse_u64(version)?,
            }),
            ["heartbeat", seq] => Ok(WireMsg::Heartbeat {
                seq: parse_u64(seq)?,
            }),
            ["ask", trial, attempt, traced, config] => Ok(WireMsg::Ask(WorkerAsk {
                trial: parse_u64(trial)?,
                attempt: parse_u32(attempt)?,
                traced: parse_flag(traced)?,
                config: parse_config(config)?,
            })),
            ["shutdown"] => Ok(WireMsg::Shutdown),
            ["result", trial, attempt, "ok", value, rest @ ..] => {
                let trial = parse_u64(trial)?;
                let attempt = parse_u32(attempt)?;
                let reply = parse_ok_tail(parse_f64(value)?, rest)?;
                Ok(WireMsg::ResultOk {
                    trial,
                    attempt,
                    reply,
                })
            }
            ["result", trial, attempt, "panic", payload] => Ok(WireMsg::ResultPanic {
                trial: parse_u64(trial)?,
                attempt: parse_u32(attempt)?,
                payload: unescape(payload)?,
            }),
            ["result", ..] => Err("malformed result frame".to_string()),
            [kind, ..] if matches!(*kind, "hello" | "heartbeat" | "ask" | "shutdown") => {
                Err(format!("wrong field count for `{kind}` frame"))
            }
            [other, ..] => Err(format!("unknown frame kind `{other}`")),
            [] => Err("empty frame".to_string()),
        }
    }
}

/// Strict `0`/`1` boolean field.
fn parse_flag(s: &str) -> Result<bool, String> {
    match s {
        "0" => Ok(false),
        "1" => Ok(true),
        other => Err(format!("bad flag `{other}` (expected 0 or 1)")),
    }
}

/// Comma-joined canonical floats; `-` is the empty configuration (a bare
/// empty field would not survive the split round-trip).
fn parse_config(s: &str) -> Result<Vec<f64>, String> {
    if s == "-" {
        return Ok(Vec::new());
    }
    s.split(',').map(parse_f64).collect()
}

/// The counted sections of an `ok` result: `<aux_n> (<k> <v>)* <ev_n>
/// <end_clock> (<json> <tick>)*`. Counts must match the remaining fields
/// exactly.
fn parse_ok_tail(value: f64, rest: &[&str]) -> Result<WorkerReply, String> {
    let mut cursor = rest.iter();
    let mut next = |what: &str| {
        cursor
            .next()
            .ok_or_else(|| format!("truncated result frame (missing {what})"))
    };
    let aux_n = parse_u64(next("aux count")?)?;
    let mut aux = Vec::with_capacity(aux_n.min(1024) as usize);
    for _ in 0..aux_n {
        let k = unescape(next("aux key")?)?;
        let v = unescape(next("aux value")?)?;
        aux.push((k, v));
    }
    let ev_n = parse_u64(next("event count")?)?;
    let end_clock = parse_u64(next("end clock")?)?;
    let mut events = Vec::with_capacity(ev_n.min(4096) as usize);
    for _ in 0..ev_n {
        let json = unescape(next("event json")?)?;
        let ticked = parse_flag(next("event tick")?)?;
        events.push((json, ticked));
    }
    if cursor.next().is_some() {
        return Err("trailing fields in result frame".to_string());
    }
    Ok(WorkerReply {
        value,
        aux,
        events,
        end_clock,
    })
}

/// Write one framed message and flush it (the peer reads frames as they
/// arrive; an unflushed ask would stall the farm).
pub fn write_frame<W: Write>(w: &mut W, msg: &WireMsg) -> std::io::Result<()> {
    let payload = msg.encode();
    let bytes = payload.as_bytes();
    let mut frame = Vec::with_capacity(e2c_journal::HEADER + bytes.len());
    frame.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    frame.extend_from_slice(&e2c_journal::crc32(bytes).to_le_bytes());
    frame.extend_from_slice(bytes);
    w.write_all(&frame)?;
    w.flush()
}

/// Read one framed message. `Ok(None)` is clean end-of-stream (the peer
/// closed before a new frame started); a partial header, oversized
/// length, CRC mismatch, non-UTF-8 payload or unparseable record is a
/// typed error — the farm treats any of them as a lost worker.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<WireMsg>, String> {
    let mut header = [0u8; e2c_journal::HEADER];
    let mut got = 0;
    while got < header.len() {
        match r.read(&mut header[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => return Err("truncated frame header".to_string()),
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(format!("read frame header: {e}")),
        }
    }
    let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
    let crc = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
    if len > e2c_journal::MAX_RECORD {
        return Err(format!("frame length {len} exceeds the record cap"));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)
        .map_err(|e| format!("read frame payload: {e}"))?;
    if e2c_journal::crc32(&payload) != crc {
        return Err("frame CRC mismatch".to_string());
    }
    let text =
        std::str::from_utf8(&payload).map_err(|e| format!("frame payload not UTF-8: {e}"))?;
    WireMsg::parse(text).map(Some)
}

/// Run the worker loop over this process's stdin/stdout: handshake,
/// heartbeat in the background, evaluate asks with `objective` (under
/// `catch_unwind`, shipping panics back as data), exit on `shutdown` or
/// end-of-stream.
///
/// The objective receives the ask and — when the ask is traced — a fresh
/// per-attempt [`e2c_trace::Tracer`] whose drained buffer is shipped back
/// with the result; it returns the metric value plus auxiliary pairs for
/// the parent's objective, which lands the side artifacts.
pub fn serve<F>(objective: F) -> Result<(), String>
where
    F: Fn(&WorkerAsk, Option<&e2c_trace::Tracer>) -> (f64, Vec<(String, String)>),
{
    let stdout = Arc::new(Mutex::new(std::io::stdout()));
    write_frame(
        &mut *stdout.lock().unwrap_or_else(PoisonError::into_inner),
        &WireMsg::Hello {
            version: PROTOCOL_VERSION,
        },
    )
    .map_err(|e| format!("write hello: {e}"))?;

    let heartbeat = {
        let stdout = Arc::clone(&stdout);
        // A failed write means the parent is gone; the main loop will see
        // EOF too.
        Heartbeat::start(HEARTBEAT_INTERVAL, move |seq| {
            write_frame(
                &mut *stdout.lock().unwrap_or_else(PoisonError::into_inner),
                &WireMsg::Heartbeat { seq },
            )
            .is_ok()
        })
    };

    let mut stdin = std::io::stdin().lock();
    let outcome = loop {
        match read_frame(&mut stdin) {
            Ok(None) | Ok(Some(WireMsg::Shutdown)) => break Ok(()),
            Ok(Some(WireMsg::Ask(ask))) => {
                let tracer = ask.traced.then(e2c_trace::Tracer::new);
                let run = catch_unwind(AssertUnwindSafe(|| objective(&ask, tracer.as_ref())));
                let reply = match run {
                    Ok((value, aux)) => {
                        let (events, end_clock) = tracer
                            .as_ref()
                            .map(|t| t.drain_for_splice())
                            .unwrap_or_default();
                        let events = events
                            .into_iter()
                            .map(|(ev, ticked)| (ev.to_json(), ticked))
                            .collect();
                        WireMsg::ResultOk {
                            trial: ask.trial,
                            attempt: ask.attempt,
                            reply: WorkerReply {
                                value,
                                aux,
                                events,
                                end_clock,
                            },
                        }
                    }
                    Err(panic) => WireMsg::ResultPanic {
                        trial: ask.trial,
                        attempt: ask.attempt,
                        payload: panic_payload(panic.as_ref()),
                    },
                };
                if let Err(e) = write_frame(
                    &mut *stdout.lock().unwrap_or_else(PoisonError::into_inner),
                    &reply,
                ) {
                    break Err(format!("write result: {e}"));
                }
            }
            Ok(Some(other)) => {
                break Err(format!(
                    "unexpected frame from the tuner: {}",
                    other.encode().replace('\t', " ")
                ))
            }
            Err(e) => break Err(format!("bad frame from the tuner: {e}")),
        }
    };
    heartbeat.stop();
    outcome
}

/// The worker's liveness beacon: a thread that calls `beat` with a rising
/// sequence number (from 1) every `interval` until stopped, or until
/// `beat` returns `false`. It waits on a condvar rather than sleeping, so
/// [`Heartbeat::stop`] returns at once instead of after the rest of an
/// interval.
struct Heartbeat {
    stopped: Arc<(Mutex<bool>, Condvar)>,
    thread: std::thread::JoinHandle<()>,
}

impl Heartbeat {
    fn start(interval: Duration, mut beat: impl FnMut(u64) -> bool + Send + 'static) -> Self {
        let stopped = Arc::new((Mutex::new(false), Condvar::new()));
        let thread = {
            let stopped = Arc::clone(&stopped);
            std::thread::spawn(move || {
                let (flag, cv) = &*stopped;
                for seq in 1.. {
                    let guard = flag.lock().unwrap_or_else(PoisonError::into_inner);
                    let (guard, _) = cv
                        .wait_timeout_while(guard, interval, |stopped| !*stopped)
                        .unwrap_or_else(PoisonError::into_inner);
                    if *guard {
                        return;
                    }
                    drop(guard);
                    if !beat(seq) {
                        return;
                    }
                }
            })
        };
        Heartbeat { stopped, thread }
    }

    /// Wake the thread and join it.
    fn stop(self) {
        let (flag, cv) = &*self.stopped;
        *flag.lock().unwrap_or_else(PoisonError::into_inner) = true;
        cv.notify_all();
        let _ = self.thread.join();
    }
}

/// Render a panic payload to the string the parent re-raises — the same
/// downcasts the tuner's own panic classification performs, so the
/// round-trip through the wire preserves the message byte-for-byte.
fn panic_payload(panic: &(dyn std::any::Any + Send)) -> String {
    panic
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| panic.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "opaque panic payload".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: &WireMsg) {
        let payload = msg.encode();
        let parsed = WireMsg::parse(&payload).unwrap();
        assert_eq!(&parsed, msg);
        assert_eq!(parsed.encode(), payload, "re-encode must be the identity");
    }

    #[test]
    fn every_message_roundtrips() {
        roundtrip(&WireMsg::Hello { version: 1 });
        roundtrip(&WireMsg::Heartbeat { seq: 42 });
        roundtrip(&WireMsg::Shutdown);
        roundtrip(&WireMsg::Ask(WorkerAsk {
            trial: 7,
            attempt: 2,
            traced: true,
            config: vec![1.5, -0.25, 3.0],
        }));
        roundtrip(&WireMsg::Ask(WorkerAsk {
            trial: 0,
            attempt: 0,
            traced: false,
            config: vec![],
        }));
        roundtrip(&WireMsg::ResultOk {
            trial: 3,
            attempt: 1,
            reply: WorkerReply {
                value: -2.5,
                aux: vec![
                    ("mean".into(), "1.25".into()),
                    ("odd\tkey".into(), "".into()),
                ],
                events: vec![("{\"seq\":0}".into(), true), ("has\ttab".into(), false)],
                end_clock: 17,
            },
        });
        roundtrip(&WireMsg::ResultPanic {
            trial: 9,
            attempt: 0,
            payload: "boom\nwith newline".into(),
        });
    }

    #[test]
    fn parse_rejects_malformed_frames() {
        for bad in [
            "",
            "bogus\t1",
            "hello",
            "hello\t01",
            "heartbeat\t1\textra",
            "ask\t1\t0\t2\t1.5",           // bad traced flag
            "ask\t1\t0\t1\t1.5,,2.0",      // empty config entry
            "ask\t1\t0\t1\t",              // empty config field must be `-`
            "result\t1\t0\tok\t1.5\t1\tk", // aux count overruns fields
            "result\t1\t0\tok\t1.5\t0\t0\t0\textra",
            "result\t1\t0\tok\t01.5\t0\t0\t0", // non-canonical value
            "result\t1\t0\tpanic",
            "result\t1\t0\twhat\tx",
            "shutdown\tnow",
        ] {
            assert!(WireMsg::parse(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn nan_value_survives_the_wire() {
        let msg = WireMsg::ResultOk {
            trial: 1,
            attempt: 0,
            reply: WorkerReply {
                value: f64::NAN,
                aux: vec![],
                events: vec![],
                end_clock: 0,
            },
        };
        let payload = msg.encode();
        let parsed = WireMsg::parse(&payload).unwrap();
        assert_eq!(parsed.encode(), payload, "NaN re-encodes identically");
        match parsed {
            WireMsg::ResultOk { reply, .. } => assert!(reply.value.is_nan()),
            other => panic!("wrong message: {other:?}"),
        }
    }

    #[test]
    fn frames_survive_the_byte_layer_and_detect_corruption() {
        let msg = WireMsg::Ask(WorkerAsk {
            trial: 5,
            attempt: 1,
            traced: true,
            config: vec![0.5],
        });
        let mut buf = Vec::new();
        write_frame(&mut buf, &msg).unwrap();
        write_frame(&mut buf, &WireMsg::Shutdown).unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap(), Some(msg));
        assert_eq!(read_frame(&mut r).unwrap(), Some(WireMsg::Shutdown));
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF");

        // Flip a payload byte: the CRC catches it.
        let mut corrupt = buf.clone();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0x40;
        let mut r = &corrupt[..];
        assert_eq!(
            read_frame(&mut r).unwrap(),
            Some(WireMsg::Ask(WorkerAsk {
                trial: 5,
                attempt: 1,
                traced: true,
                config: vec![0.5],
            }))
        );
        assert!(read_frame(&mut r).is_err());

        // Truncate mid-payload: typed error, not a hang or panic.
        let mut r = &buf[..buf.len() - 2];
        let _ = read_frame(&mut r).unwrap();
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn heartbeat_stops_without_waiting_out_its_interval() {
        // An hour-long interval: stop must wake the thread, not outwait it.
        let (tx, rx) = std::sync::mpsc::channel();
        let beat = Heartbeat::start(Duration::from_secs(3600), move |seq| {
            let _ = tx.send(seq);
            true
        });
        beat.stop();
        assert!(
            rx.try_recv().is_err(),
            "no beat before the interval elapsed"
        );
    }

    #[test]
    fn heartbeat_counts_up_until_beat_reports_the_peer_gone() {
        let (tx, rx) = std::sync::mpsc::channel();
        let beat = Heartbeat::start(Duration::from_millis(1), move |seq| {
            let _ = tx.send(seq);
            seq < 3
        });
        let seen: Vec<u64> = rx.iter().take(3).collect();
        beat.stop();
        assert_eq!(seen, vec![1, 2, 3]);
        assert!(
            rx.try_recv().is_err(),
            "no beat after `beat` returned false"
        );
    }

    #[test]
    fn panic_payloads_render_like_the_tuner() {
        let caught = catch_unwind(|| panic!("boom at {}", 3)).unwrap_err();
        assert_eq!(panic_payload(caught.as_ref()), "boom at 3");
        let caught = catch_unwind(|| std::panic::panic_any("static".to_string())).unwrap_err();
        assert_eq!(panic_payload(caught.as_ref()), "static");
    }
}
