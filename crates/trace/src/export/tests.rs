use super::*;
use crate::chrome::chrome_trace_json;

fn sample_log() -> TraceLog {
    let mut log = TraceLog::new();
    let mut t = 0u64;
    let mut rec = |ev: TraceEvent| {
        t += 100;
        log.record(SimTime::from_nanos(t), ev);
    };
    rec(TraceEvent::ComputeStart {
        worker: 0,
        phase: ComputePhase::Forward,
        block: 0,
    });
    rec(TraceEvent::ComputeEnd {
        worker: 0,
        phase: ComputePhase::Forward,
        block: 0,
    });
    rec(TraceEvent::StallStart {
        worker: 1,
        block: 2,
    });
    rec(TraceEvent::StallEnd {
        worker: 1,
        block: 2,
    });
    rec(TraceEvent::GradReady {
        worker: 0,
        key: 3,
        round: 1,
        priority: 7,
    });
    rec(TraceEvent::EgressEnqueue {
        machine: 0,
        role: EndpointRole::Worker,
        msg_id: 11,
        class: MsgClass::Push,
        key: 3,
        round: 1,
        priority: 7,
        queue_depth: 1,
    });
    rec(TraceEvent::WireStart {
        msg_id: 11,
        src: 0,
        dst: 1,
        bytes: 4096,
        priority: 7,
    });
    rec(TraceEvent::WireEnd {
        msg_id: 11,
        src: 0,
        dst: 1,
        bytes: 4096,
        bottleneck: Some(4),
    });
    rec(TraceEvent::AggStart {
        server: 1,
        key: 3,
        round: 1,
        worker: 0,
    });
    rec(TraceEvent::AggEnd {
        server: 1,
        key: 3,
        round: 1,
        worker: 0,
    });
    rec(TraceEvent::RoundComplete {
        server: 1,
        key: 3,
        version: 2,
        degraded: true,
    });
    rec(TraceEvent::SliceConsumed {
        worker: 0,
        key: 3,
        round: 2,
    });
    rec(TraceEvent::IterationEnd { worker: 0, iter: 2 });
    rec(TraceEvent::Fault {
        kind: FaultKind::Retransmit,
        machine: 0,
        msg_id: Some(11),
    });
    rec(TraceEvent::Fault {
        kind: FaultKind::Crash,
        machine: 1,
        msg_id: None,
    });
    rec(TraceEvent::Fault {
        kind: FaultKind::CollectiveAbort,
        machine: 1,
        msg_id: None,
    });
    rec(TraceEvent::StateHash {
        events: 1000,
        hash: 0xdead_beef_cafe_f00d,
    });
    log
}

#[test]
fn round_trips_every_variant() {
    let log = sample_log();
    let meta = TraceMeta {
        machines: 2,
        single_consumer: Some(true),
        window: Some(2),
        port_bytes_per_sec: Some(3.125e8),
        strategy: Some("P3".into()),
        model: Some("resnet50".into()),
        collective: Some(false),
    };
    let doc = export_trace_json(&log, &meta);
    let (back, meta2) = import_trace_json(&doc).unwrap();
    assert_eq!(meta2, meta);
    assert_eq!(back.len(), log.len());
    for (a, b) in log.events().iter().zip(back.events()) {
        assert_eq!(a, b);
    }
}

#[test]
fn tag_index_is_the_position_in_tags() {
    for (i, (tag, blank)) in TAGS.iter().enumerate() {
        assert_eq!(tag_index(blank), i, "{tag}");
    }
}

fn fnv(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Pins the export bytes of [`sample_log`]: every row layout, a
/// fractional and an integral Chrome timestamp, escaped metadata
/// strings and a non-integral port capacity.
#[test]
fn export_bytes_match_the_golden_digest() {
    let meta = TraceMeta {
        machines: 2,
        single_consumer: Some(false),
        window: None,
        port_bytes_per_sec: Some(1.171_875e9 + 0.5),
        strategy: Some("P3 \"sliced\"".into()),
        model: Some("vgg19\tbn".into()),
        collective: None,
    };
    let doc = export_trace_json(&sample_log(), &meta);
    assert_eq!(
        (fnv(&doc), doc.len()),
        (0xf079_7a8f_cc50_1be3, 2459),
        "export bytes moved (got fnv={:#018x} len={})",
        fnv(&doc),
        doc.len()
    );
}

#[test]
fn empty_export_bytes_are_pinned() {
    let doc = export_trace_json(&TraceLog::new(), &TraceMeta::default());
    assert_eq!(
        doc,
        "{\"traceEvents\": [\n\n],\n\"p3TraceVersion\": 1,\n\"p3Meta\": \
         {\"machines\":0,\"singleConsumer\":null,\"window\":null,\
         \"portBytesPerSec\":null,\"collective\":null},\n\"p3Events\": [\n\n]}\n"
    );
}

#[test]
fn stays_a_valid_chrome_trace() {
    let log = sample_log();
    let meta = TraceMeta {
        machines: 2,
        ..TraceMeta::default()
    };
    let doc = export_trace_json(&log, &meta);
    crate::validate_chrome_trace(&doc).expect("Perfetto view still schema-valid");
}

#[test]
fn rejects_plain_chrome_traces_with_guidance() {
    let log = sample_log();
    let doc = chrome_trace_json(&log, 2);
    let err = import_trace_json(&doc).unwrap_err();
    assert!(err.contains("p3Events"), "{err}");
}

#[test]
fn rejects_malformed_rows() {
    let doc = r#"{"p3Events": [[1, "ws", 1]]}"#;
    assert!(import_trace_json(doc).is_err());
    let doc = r#"{"p3Events": [[1, "zz", 1, 2, 3]]}"#;
    assert!(import_trace_json(doc).unwrap_err().contains("unknown tag"));
    let doc = r#"{"p3Events": [[-5, "it", 0, 1]]}"#;
    assert!(import_trace_json(doc).is_err());
}

#[test]
fn meta_defaults_when_absent() {
    let doc = r#"{"p3Events": []}"#;
    let (log, meta) = import_trace_json(doc).unwrap();
    assert!(log.is_empty());
    assert_eq!(meta, TraceMeta::default());
}

/// The sample log under metadata with every field set, as exported.
fn sample_doc() -> String {
    let meta = TraceMeta {
        machines: 2,
        single_consumer: Some(true),
        window: Some(3),
        port_bytes_per_sec: Some(1.5e9 + 0.25),
        strategy: Some("P3".into()),
        model: Some("vgg19".into()),
        collective: Some(false),
    };
    export_trace_json(&sample_log(), &meta)
}

#[test]
fn every_truncation_is_rejected() {
    let doc = sample_doc();
    // Past the closing brace only whitespace is left, which is still a
    // whole document.
    for n in 0..doc.trim_end().len() {
        assert!(import_trace_json(&doc[..n]).is_err(), "prefix of {n} bytes");
    }
}

/// Imports `doc` and checks it is rejected wherever the tree parser
/// rejects it.
fn import_agrees_with_parse(doc: &str, what: &str) {
    if import_trace_json(doc).is_ok() {
        assert!(
            json::parse(doc).is_ok(),
            "{what}: invalid JSON was imported"
        );
    }
}

#[test]
fn every_flipped_byte_errors_or_imports_without_panicking() {
    let doc = sample_doc();
    let mut bytes = doc.clone().into_bytes();
    for i in 0..bytes.len() {
        bytes[i] ^= 0xff;
        // The flipped byte is never valid UTF-8 on its own; the document
        // carries it as U+FFFD.
        import_agrees_with_parse(&String::from_utf8_lossy(&bytes), &format!("flip {i}"));
        bytes[i] ^= 0xff;
    }
}

#[test]
fn every_substituted_json_byte_errors_or_imports_without_panicking() {
    let doc = sample_doc();
    let mut bytes = doc.clone().into_bytes();
    for i in 0..bytes.len() {
        let was = bytes[i];
        for &b in b"7-.e\"\\,]" {
            bytes[i] = b;
            let what = format!("byte {i} -> {:?}", b as char);
            import_agrees_with_parse(std::str::from_utf8(&bytes).unwrap(), &what);
        }
        bytes[i] = was;
    }
}

#[test]
fn number_forms_decode_by_json_number_semantics() {
    let row = |r: &str| import_trace_json(&format!("{{\"p3Events\": [{r}]}}"));
    let (log, _) = row("[1e3, \"it\", 5.0, -0]").unwrap();
    assert_eq!(
        log.events()[0],
        crate::sink::TimedEvent {
            at: SimTime::from_nanos(1000),
            event: TraceEvent::IterationEnd { worker: 5, iter: 0 },
        }
    );
    let (log, _) = row("[0, \"it\", 0, 9007199254740991]").unwrap();
    assert_eq!(
        log.events()[0].event,
        TraceEvent::IterationEnd {
            worker: 0,
            iter: (1 << 53) - 1
        }
    );
    for bad in [
        "[1.5, \"it\", 0, 1]",
        "[1, \"it\", -1, 1]",
        "[1, \"it\", 0, 9007199254740992]",
    ] {
        let err = row(bad).unwrap_err();
        assert!(err.contains("is not a u64"), "{bad}: {err}");
    }
}

#[test]
fn row_errors_name_the_row_and_the_fault() {
    for (rows, want) in [
        ("[[1, \"ws\", 1]]", "p3Events[0]: expected 7 fields, got 3"),
        (
            "[[1, \"ws\", 1, 2, 3, 4, 5, 6]]",
            "p3Events[0]: expected 7 fields, got 8",
        ),
        (
            "[[1, \"ws\", \"x\"]]",
            "p3Events[0]: expected 7 fields, got 3",
        ),
        (
            "[[1, \"ws\", \"x\", 2, 3, 4, 5]]",
            "p3Events[0]: msg_id is not a number",
        ),
        ("[[1]]", "p3Events[0]: row too short"),
        ("[[\"x\"]]", "p3Events[0]: row too short"),
        ("[[1, 2]]", "p3Events[0]: tag is not a string"),
        ("[[-5, \"zz\"]]", "p3Events[0]: timestamp is not a u64 (-5)"),
        ("[5]", "p3Events[0] is not an array"),
        (
            "[[1, \"it\", 0, 1], [2, \"zz\"]]",
            "p3Events[1]: unknown tag \"zz\"",
        ),
        (
            "[[1, \"ft\", 99, 0, null]]",
            "p3Events[0]: unknown fault code 99",
        ),
        (
            "[[1, \"eq\", 0, 2, 0, 0, 0, 0, 0, 0]]",
            "p3Events[0]: unknown role code 2",
        ),
        (
            "[[1, \"sh\", 1, \"xyz\"]]",
            "p3Events[0]: hash \"xyz\" is not hex",
        ),
        ("[[1, \"sh\", 1, 2]]", "p3Events[0]: hash is not a string"),
        ("{}", "p3Events is not an array"),
    ] {
        let err = import_trace_json(&format!("{{\"p3Events\": {rows}}}")).unwrap_err();
        assert_eq!(err, want, "{rows}");
    }
}

#[test]
fn a_syntax_error_outranks_a_bad_row_and_the_last_member_wins() {
    let err = import_trace_json(r#"{"p3Events": [[1, "zz"]], "x": [1,]}"#).unwrap_err();
    assert!(err.starts_with("JSON error at byte 34"), "{err}");
    let err = import_trace_json(r#"{"p3Events": [[1, "zz"]], "p3TraceVersion": 2}"#).unwrap_err();
    assert!(err.starts_with("p3TraceVersion 2"), "{err}");
    let (log, _) = import_trace_json(r#"{"p3Events": [[1, "zz"]], "p3Events": []}"#).unwrap();
    assert!(log.is_empty());
    let doc = r#"{"p3TraceVersion": 2, "p3Events": [], "p3TraceVersion": 1}"#;
    assert!(import_trace_json(doc).is_ok());
}

#[test]
fn a_fractional_version_is_rejected() {
    let err = import_trace_json(r#"{"p3TraceVersion": 1.5, "p3Events": []}"#).unwrap_err();
    assert!(err.contains("p3TraceVersion is not a u64 (1.5)"), "{err}");
}

#[test]
fn machines_must_be_a_non_negative_integer() {
    for bad in ["-4", "4.7"] {
        let doc = format!(r#"{{"p3Meta": {{"machines": {bad}}}, "p3Events": []}}"#);
        let err = import_trace_json(&doc).unwrap_err();
        assert!(
            err.contains(&format!("p3Meta.machines is not a u64 ({bad})")),
            "{err}"
        );
    }
}

#[test]
fn window_must_be_a_non_negative_integer() {
    for bad in ["-4", "4.7"] {
        let doc = format!(r#"{{"p3Meta": {{"machines": 2, "window": {bad}}}, "p3Events": []}}"#);
        let err = import_trace_json(&doc).unwrap_err();
        assert!(
            err.contains(&format!("p3Meta.window is not a u64 ({bad})")),
            "{err}"
        );
    }
}

/// An event of variant `variant % 15` with fields drawn from `seed`:
/// small values half the time, else anything a JSON number holds exactly.
fn random_event(variant: u8, seed: u64) -> TraceEvent {
    let mut rng = proptest::TestRng::for_case("random_event", seed);
    let mut n = || {
        let z = rng.next_u64();
        if z & 1 == 0 {
            (z >> 1) % 16
        } else {
            z >> 11
        }
    };
    let (a, b, c, d, e) = (n(), n(), n(), n(), n());
    let (i, j, k) = (a as usize, b as usize, c as usize);
    let phase = [ComputePhase::Forward, ComputePhase::Backward][(d % 2) as usize];
    let opt = |v: u64| (!v.is_multiple_of(3)).then_some(v);
    match variant % 15 {
        0 => TraceEvent::ComputeStart {
            worker: i,
            phase,
            block: j,
        },
        1 => TraceEvent::ComputeEnd {
            worker: i,
            phase,
            block: j,
        },
        2 => TraceEvent::StallStart {
            worker: i,
            block: j,
        },
        3 => TraceEvent::StallEnd {
            worker: i,
            block: j,
        },
        4 => TraceEvent::IterationEnd { worker: i, iter: b },
        5 => TraceEvent::GradReady {
            worker: i,
            key: j,
            round: c,
            priority: d as u32,
        },
        6 => TraceEvent::EgressEnqueue {
            machine: i,
            role: [EndpointRole::Worker, EndpointRole::Server][(b % 2) as usize],
            msg_id: c,
            class: [
                MsgClass::Push,
                MsgClass::Response,
                MsgClass::Notify,
                MsgClass::PullRequest,
                MsgClass::RackPush,
                MsgClass::CombinedPush,
                MsgClass::ReduceScatter,
                MsgClass::AllGather,
            ][(d % 8) as usize],
            key: k,
            round: e,
            priority: a as u32,
            queue_depth: j,
        },
        7 => TraceEvent::WireStart {
            msg_id: a,
            src: j,
            dst: k,
            bytes: d,
            priority: e as u32,
        },
        8 => TraceEvent::WireEnd {
            msg_id: a,
            src: j,
            dst: k,
            bytes: d,
            bottleneck: opt(e).map(|l| l as usize),
        },
        9 => TraceEvent::AggStart {
            server: i,
            key: j,
            round: c,
            worker: d as usize,
        },
        10 => TraceEvent::AggEnd {
            server: i,
            key: j,
            round: c,
            worker: d as usize,
        },
        11 => TraceEvent::RoundComplete {
            server: i,
            key: j,
            version: c,
            degraded: d % 2 == 1,
        },
        12 => TraceEvent::SliceConsumed {
            worker: i,
            key: j,
            round: c,
        },
        13 => TraceEvent::Fault {
            kind: [
                FaultKind::Loss,
                FaultKind::Retransmit,
                FaultKind::GiveUp,
                FaultKind::Crash,
                FaultKind::Rejoin,
                FaultKind::Eviction,
                FaultKind::DegradedRound,
                FaultKind::StalePush,
                FaultKind::DuplicatePush,
                FaultKind::FlowCancelled,
                FaultKind::CollectiveAbort,
            ][(d % 11) as usize],
            machine: i,
            msg_id: opt(e),
        },
        _ => TraceEvent::StateHash {
            events: a,
            hash: rng.next_u64(),
        },
    }
}

/// A metadata string over characters that need escaping or are not ASCII.
fn random_text(seed: u64) -> String {
    let mut rng = proptest::TestRng::for_case("random_text", seed);
    let chars: Vec<char> = "aZ\"\\\n\t\u{1}/\u{e9}\u{20ac}\u{1f600}".chars().collect();
    (0..rng.below(8))
        .map(|_| chars[rng.below(chars.len() as u64) as usize])
        .collect()
}

proptest::proptest! {
    /// Export then import gives back the same log and metadata.
    #[test]
    fn random_logs_round_trip(
        rows in proptest::prop::collection::vec(
            (proptest::any::<u8>(), proptest::any::<u64>(), proptest::any::<u64>()),
            0..40,
        ),
        meta_seed in proptest::any::<u64>(),
    ) {
        let mut log = TraceLog::new();
        for (variant, seed, at) in rows {
            log.record(SimTime::from_nanos(at >> 11), random_event(variant, seed));
        }
        let mut rng = proptest::TestRng::for_case("meta", meta_seed);
        let mut flip = || match rng.below(3) {
            0 => None,
            b => Some(b == 1),
        };
        let meta = TraceMeta {
            machines: (meta_seed % 64) as usize,
            single_consumer: flip(),
            window: flip().map(|_| (meta_seed >> 11) as usize),
            port_bytes_per_sec: flip()
                .map(|_| f64::from_bits(meta_seed))
                .filter(|c| c.is_finite()),
            strategy: flip().map(|_| random_text(meta_seed)),
            model: flip().map(|_| random_text(!meta_seed)),
            collective: flip(),
        };
        let doc = export_trace_json(&log, &meta);
        let (back, back_meta) = import_trace_json(&doc).unwrap();
        proptest::prop_assert_eq!(back.events(), log.events());
        proptest::prop_assert_eq!(back_meta, meta);
    }
}

/// Every row [`PlainRow`] reads, [`RowReader`] reads as the same event,
/// ending at the same byte: the sample log's rows, and each of them with
/// one byte replaced by one that changes a row's shape.
#[test]
fn plain_rows_read_as_the_row_reader_reads_them() {
    let doc = sample_doc();
    let head = "\"p3Events\": [\n";
    let start = doc.find(head).unwrap() + head.len();
    let rows = doc[start..].trim_end().trim_end_matches("]}").trim_end();
    let (mut plain_rows, mut variants) = (0, 0);
    for row in rows.split(",\n") {
        for i in 0..row.len() {
            for &sub in b"09 \",]n.a-" {
                let mut bytes = row.as_bytes().to_vec();
                if i > 0 || sub == b'0' {
                    bytes[i] = sub;
                }
                let Ok(text) = std::str::from_utf8(&bytes) else {
                    continue;
                };
                variants += 1;
                let (mut at, mut ev) = (0, TAGS[0].1);
                let mut plain = PlainRow {
                    b: text.as_bytes(),
                    i: 0,
                    fields: 0,
                };
                let fast = walk_row(&mut plain, &mut at, &mut ev).and_then(|()| plain.byte(b']'));
                if fast.is_err() {
                    continue;
                }
                plain_rows += 1;
                let mut p = Parser::new(text);
                let mut slow = RowReader {
                    p: &mut p,
                    fields: 0,
                    tagged: false,
                };
                let (mut slow_at, mut slow_ev) = (0, TAGS[0].1);
                let read =
                    walk_row(&mut slow, &mut slow_at, &mut slow_ev).and_then(|()| slow.step(b']'));
                assert_eq!((read, slow_at, slow_ev), (Ok(()), at, ev), "{text}");
                assert_eq!(p.pos, plain.i, "{text}");
            }
        }
    }
    assert!(
        plain_rows > 500 && variants > 5 * plain_rows,
        "{plain_rows} of {variants}"
    );
}
