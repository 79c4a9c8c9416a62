//! Property-based coverage of the run journal's escaped-TSV wire format.
//!
//! The journal is the crash-safety story's single source of truth, so its
//! encoding must round-trip *exactly* — including payloads carrying tabs,
//! newlines, backslashes and multi-byte unicode — and its decoder must
//! reject truncated records rather than misread them.  Every record kind
//! has exactly one arity, except that an attempt record ends in
//! name/value pairs of notes, so a record missing its last field is
//! always an error.

use e2c_tune::journal::{RunEvent, WIRE_VERSION};
use e2c_tune::TrialError;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// Printable ASCII plus the characters the escaper exists for (tab,
/// newline, carriage return, backslash) plus multi-byte unicode.
const PAYLOAD: &str = "[ -~\t\n\réà→ß🦀]{0,24}";

fn arb_config() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e4f64..1e4, 0..5)
}

fn arb_error() -> impl Strategy<Value = Option<TrialError>> {
    (0u32..5, PAYLOAD).prop_map(|(kind, payload)| match kind {
        0 => None,
        1 => Some(TrialError::Panicked(payload)),
        2 => Some(TrialError::NonFinite(payload)),
        3 => Some(TrialError::DeadlineExceeded),
        _ => Some(TrialError::Injected(payload)),
    })
}

fn arb_event() -> impl Strategy<Value = RunEvent> {
    let meta = PAYLOAD.prop_map(RunEvent::meta).boxed();
    let ask = (0u64..1000, arb_config())
        .prop_map(|(trial, config)| RunEvent::Ask { trial, config })
        .boxed();
    let restart = (0u64..1000)
        .prop_map(|trial| RunEvent::Restart { trial })
        .boxed();
    let tail = (arb_raw(), arb_error(), arb_notes());
    let attempt = (0u64..1000, 0u64..10, 0.0f64..100.0, tail)
        .prop_map(
            |(trial, index, secs, (raw, error, notes))| RunEvent::Attempt {
                trial,
                index: index as u32,
                secs,
                raw,
                error,
                notes,
            },
        )
        .boxed();
    let tell = (
        (0u64..1000, -1e6f64..1e6, "[a-z_]{1,12}"),
        (arb_raw(), 0u64..10_000, arb_trace()),
    )
        .prop_map(
            |((trial, feedback, status), (value, asks, trace))| RunEvent::Tell {
                trial,
                feedback,
                status,
                value,
                asks,
                trace,
            },
        )
        .boxed();
    let complete = Just(RunEvent::Complete).boxed();
    let epoch = (0u64..100, PAYLOAD)
        .prop_map(|(epoch, row)| RunEvent::Epoch { epoch, row })
        .boxed();
    Union::new(vec![meta, ask, restart, attempt, tell, complete, epoch])
}

fn arb_notes() -> impl Strategy<Value = Vec<(String, f64)>> {
    prop::collection::vec((PAYLOAD, -1e6f64..1e6), 0..3)
}

fn arb_raw() -> impl Strategy<Value = Option<f64>> {
    (any::<bool>(), -1e6f64..1e6).prop_map(|(some, v)| some.then_some(v))
}

/// A tell's trace block: the JSONL a tracer renders for a few events
/// whose string fields carry payload characters, so the JSON holds `\"`,
/// `\\` and `\t` escapes for the wire escaper to nest.
fn arb_trace() -> impl Strategy<Value = String> {
    prop::collection::vec(PAYLOAD, 0..3).prop_map(|notes| {
        let tracer = e2c_trace::Tracer::new();
        for note in notes {
            let fields = [("note", note.into()), ("esc", "\"\\\t".into())];
            tracer.point("searcher", "tell", Some(1), e2c_trace::fields(fields));
        }
        tracer.to_jsonl()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// encode → decode is the identity for every event shape, whatever
    /// the payload characters — and the wire line itself is stable
    /// (decode → re-encode reproduces the same bytes).
    #[test]
    fn wire_round_trips_exactly(event in arb_event()) {
        let line = event.to_line();
        prop_assert!(!line.contains('\n'), "wire line must be newline-free: {line:?}");
        let back = RunEvent::parse(&line)
            .map_err(|e| TestCaseError::fail(format!("{e} (line {line:?})")))?;
        prop_assert_eq!(&back, &event, "decode(encode(e)) != e for {}", line);
        prop_assert_eq!(back.to_line(), line);
    }

    /// Dropping the last field of any record is a decode error, never a
    /// silent misread.
    #[test]
    fn every_truncated_record_is_an_error(event in arb_event()) {
        let line = event.to_line();
        // `complete` is a single field; dropping it leaves an empty line.
        let truncated = line.rsplit_once('\t').map_or("", |(head, _)| head);
        prop_assert!(
            RunEvent::parse(truncated).is_err(),
            "truncated {} still parsed: {truncated:?}",
            line
        );
    }

    /// Appending a junk field to any record is a decode error.
    #[test]
    fn overlong_records_are_rejected(event in arb_event()) {
        let mut line = event.to_line();
        line.push_str("\t0");
        prop_assert!(RunEvent::parse(&line).is_err(), "{line:?}");
    }

    /// The current-version constructor always stamps `WIRE_VERSION`, and
    /// escaping is transparent: the decoded fingerprint is the input.
    #[test]
    fn meta_constructor_preserves_fingerprint(fp in PAYLOAD) {
        let ev = RunEvent::meta(fp.clone());
        match RunEvent::parse(&ev.to_line()) {
            Ok(RunEvent::Meta { version, fingerprint }) => {
                prop_assert_eq!(version, WIRE_VERSION);
                prop_assert_eq!(fingerprint, fp);
            }
            other => prop_assert!(false, "{other:?}"),
        }
    }
}
