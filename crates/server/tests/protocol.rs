//! Property tests for the wire protocol: round-trips, and the
//! guarantee that no truncation or corruption of a frame ever panics —
//! peer input always lands as a typed [`WireError`] or a decodable
//! value.

use proptest::prelude::*;

use bw_core::{RunCache, RunPlan, Runner};
use bw_server::protocol::{
    encode_frame, read_frame, CellReply, CellStatus, ClientMsg, RefuseReason, ServerMsg, WireError,
    MAX_FRAME,
};
use bw_server::request::{resolve_cell, CellSpec};
use bw_server::JournalRecord;
use serde::{Deserialize, Serialize, Value};
use serde_json::parse_value_str;

const BENCHMARKS: [&str; 4] = ["gzip", "gcc", "mcf", "vortex"];
const PREDICTORS: [&str; 4] = ["Bim_4k", "Gsh_1_16k_12", "Hybrid_1", "PAs_1k_2k_4"];
const REASONS: [RefuseReason; 4] = [
    RefuseReason::Quota,
    RefuseReason::QueueFull,
    RefuseReason::Quarantined,
    RefuseReason::BadRequest,
];

/// Builds a cell spec from raw sampled integers.
fn spec_from(raw: (u64, u64, u64, bool)) -> CellSpec {
    let (pick, warmup, measure, banked) = raw;
    CellSpec {
        benchmark: BENCHMARKS[(pick % 4) as usize].to_string(),
        predictor: PREDICTORS[((pick >> 8) % 4) as usize].to_string(),
        warmup_insts: warmup,
        measure_insts: measure,
        seed: pick.rotate_left(17),
        banked,
    }
}

/// Encodes `v` and reads it back through the framing layer.
fn frame_round_trip(v: &Value) -> Value {
    let frame = encode_frame(v).expect("encode");
    let mut reader: &[u8] = &frame;
    read_frame(&mut reader)
        .expect("read back a frame we just wrote")
        .expect("one whole frame present")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn cell_spec_round_trips(raw in (any::<u64>(), 1u64..1 << 40, 1u64..1 << 40, any::<bool>())) {
        let spec = spec_from(raw);
        let back = CellSpec::from_value(&frame_round_trip(&spec.to_value())).expect("decode");
        prop_assert_eq!(back, spec);
    }

    #[test]
    fn client_msgs_round_trip(
        req in any::<u64>(),
        priority in any::<bool>(),
        acks in collection::vec(any::<u64>(), 0..6),
        raws in collection::vec((any::<u64>(), 1u64..1 << 30, 1u64..1 << 30, any::<bool>()), 0..5),
    ) {
        let msgs = [
            bw_server::protocol::hello(),
            bw_server::protocol::hello_with(Some("sess-00000000002a")),
            ClientMsg::Submit { req, cells: raws.into_iter().map(spec_from).collect(), priority },
            ClientMsg::Ack { req, cells: acks },
            ClientMsg::Resume,
            ClientMsg::Stats,
            ClientMsg::Bye,
        ];
        for msg in msgs {
            let back = ClientMsg::from_value(&frame_round_trip(&msg.to_value())).expect("decode");
            prop_assert_eq!(back, msg);
        }
    }

    #[test]
    fn server_msgs_round_trip(nums in (any::<u64>(), any::<u64>(), any::<u64>(), 0u64..4)) {
        let (a, b, c, pick) = nums;
        let status = match pick {
            0 => CellStatus::Ok(Box::new(Value::Obj(vec![(
                "benchmark".into(),
                Value::Str("gzip".into()),
            )]))),
            1 => CellStatus::Refused {
                reason: REASONS[(a % 4) as usize],
                detail: format!("detail {b}"),
            },
            _ => CellStatus::Failed {
                outcome: "timed-out".to_string(),
                detail: format!("after {c} attempts"),
            },
        };
        let msgs = [
            ServerMsg::HelloAck {
                protocol: 2,
                quota: a,
                queue_capacity: b,
                session: format!("sess-{:012x}", c & 0xffff),
                resumed: c % 2 == 0,
            },
            ServerMsg::Resumed { reqs: vec![a, b, c] },
            ServerMsg::Cell(CellReply { req: a, cell: b, status }),
            ServerMsg::Done { req: a, ok: b, refused: c, failed: a ^ b },
            ServerMsg::Stats { executed: a, queued: b, inflight: c },
            ServerMsg::Error { message: format!("err {c}") },
        ];
        for msg in msgs {
            let back = ServerMsg::from_value(&frame_round_trip(&msg.to_value())).expect("decode");
            prop_assert_eq!(back, msg);
        }
    }

    /// Any prefix of a valid frame decodes to a typed error (or a clean
    /// EOF at length zero) — never a panic, never a bogus value.
    #[test]
    fn truncation_never_panics(raw in (any::<u64>(), 1u64..1 << 30, 1u64..1 << 30, any::<bool>()),
                               cut in any::<u64>()) {
        let frame = encode_frame(&spec_from(raw).to_value()).expect("encode");
        let cut = (cut % frame.len() as u64) as usize; // strictly short
        let mut reader = &frame[..cut];
        match read_frame(&mut reader) {
            Ok(None) => prop_assert_eq!(cut, 0, "only an empty stream is a clean close"),
            Ok(Some(_)) => prop_assert!(false, "a truncated frame must not decode"),
            Err(WireError::Closed(_)) => {}
            Err(e) => prop_assert!(false, "unexpected error class: {e}"),
        }
    }

    /// Flipping any byte of a frame never panics: the read either
    /// fails typed, or (if the JSON survives) message decode stays
    /// panic-free.
    #[test]
    fn corruption_never_panics(raw in (any::<u64>(), 1u64..1 << 30, 1u64..1 << 30, any::<bool>()),
                               pos in any::<u64>(), flip in 1u8..=255) {
        let msg = ClientMsg::Submit { req: raw.0, cells: vec![spec_from(raw)], priority: raw.3 };
        let mut frame = encode_frame(&msg.to_value()).expect("encode");
        let pos = (pos % frame.len() as u64) as usize;
        frame[pos] ^= flip;
        let mut reader: &[u8] = &frame;
        if let Ok(Some(v)) = read_frame(&mut reader) {
            // Shape validation may accept or reject, but must not
            // panic either way.
            let _ = ClientMsg::from_value(&v);
            let _ = ServerMsg::from_value(&v);
        }
    }

    /// Arbitrary bytes fed to the reader never panic.
    #[test]
    fn garbage_never_panics(bytes in collection::vec(any::<u8>(), 0..64)) {
        let mut reader: &[u8] = &bytes;
        let _ = read_frame(&mut reader);
    }
}

/// A length prefix past [`MAX_FRAME`] is refused before any allocation.
#[test]
fn oversized_length_prefix_is_refused() {
    let len = u32::try_from(MAX_FRAME + 1).expect("fits");
    let mut frame = len.to_be_bytes().to_vec();
    frame.extend_from_slice(b"x");
    let mut reader: &[u8] = &frame;
    assert_eq!(
        read_frame(&mut reader),
        Err(WireError::TooLarge(MAX_FRAME + 1))
    );
}

/// A frame body that is not UTF-8 is a typed malformed error.
#[test]
fn non_utf8_body_is_malformed() {
    let body = [0xffu8, 0xfe, 0x00, 0x01];
    let mut frame = (body.len() as u32).to_be_bytes().to_vec();
    frame.extend_from_slice(&body);
    let mut reader: &[u8] = &frame;
    assert!(matches!(
        read_frame(&mut reader),
        Err(WireError::Malformed(_))
    ));
}

/// The vendored JSON parser refuses arrays and objects nested deeper
/// than this (its `MAX_DEPTH`), so a hostile frame cannot overflow the
/// stack of the recursive parser.
const PARSER_DEPTH_LIMIT: usize = 128;

/// Array/object nesting depth of a document; a scalar is 0.
fn nesting(v: &Value) -> usize {
    match v {
        Value::Arr(items) => 1 + items.iter().map(nesting).max().unwrap_or(0),
        Value::Obj(pairs) => 1 + pairs.iter().map(|(_, v)| nesting(v)).max().unwrap_or(0),
        _ => 0,
    }
}

/// Every document the workspace writes and reads back nests far below
/// the parser's limit: a run-cache file (the whole file and the entry
/// object it holds inline), a cell reply frame carrying a whole
/// `RunResult`, and a journal plan line. Each is measured for one cell of every predictor
/// family and the deepest kept.
#[test]
fn written_documents_nest_far_below_the_parser_limit() {
    let specs: Vec<CellSpec> = PREDICTORS
        .iter()
        .map(|p| CellSpec {
            benchmark: "gzip".to_string(),
            predictor: (*p).to_string(),
            warmup_insts: 2000,
            measure_insts: 1000,
            seed: 3,
            banked: true,
        })
        .collect();
    let cells: Vec<_> = specs
        .iter()
        .map(|s| resolve_cell(s).expect("resolve"))
        .collect();
    let dir = std::env::temp_dir().join(format!("bw-server-nesting-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = RunCache::new(&dir);
    let mut plan = RunPlan::new();
    for c in &cells {
        plan.add_labeled(c.model, c.predictor.config(), &c.cfg, c.label.clone());
    }
    let mut outputs = Runner::serial().cached(cache.clone()).run(&plan, |_| {});

    let mut deepest = [0; 4];
    for c in &cells {
        let result = outputs.remove(&c.key).expect("cell result");
        let file = std::fs::read_to_string(cache.path_for(&c.key)).expect("cache file");
        let file = parse_value_str(&file).expect("cache file");
        let entry = file.get("entry").expect("the file holds its entry").clone();
        let reply = frame_round_trip(
            &ServerMsg::Cell(CellReply {
                req: 1,
                cell: 0,
                status: CellStatus::Ok(Box::new(result.to_value())),
            })
            .to_value(),
        );
        let depths = [nesting(&file), nesting(&entry), nesting(&reply)];
        for (d, n) in deepest.iter_mut().zip(depths) {
            *d = (*d).max(n);
        }
        // The reply, as deep as any of them, still parses wrapped in
        // arrays up to the limit itself.
        let wrap = PARSER_DEPTH_LIMIT - nesting(&reply);
        let text = serde_json::to_string(&reply).expect("render");
        let wrapped = "[".repeat(wrap) + &text + &"]".repeat(wrap);
        assert!(
            parse_value_str(&wrapped).is_ok(),
            "{text} wrapped to the limit"
        );
    }
    let line = JournalRecord::Plan {
        token: "session".to_string(),
        req: 1,
        cells: specs,
        priority: false,
    }
    .to_line();
    let (_, body) = line.split_once(' ').expect("checksummed line");
    let journal = parse_value_str(body).expect("journal body");
    deepest[3] = nesting(&journal);
    let _ = std::fs::remove_dir_all(&dir);

    // Pinned, so a format change that nests deeper is seen here first:
    // cache file, cache entry, cell reply frame, journal line.
    assert_eq!(deepest, [7, 6, 6, 3]);
}

/// A spec whose integers sit at `u64::MAX`, the edge a JSON encoder
/// routing integers through `f64` would round.
fn edge_spec() -> CellSpec {
    CellSpec {
        benchmark: "gcc".to_string(),
        predictor: "Gsh_1_16k_12".to_string(),
        warmup_insts: u64::MAX,
        measure_insts: u64::MAX - 1,
        seed: u64::MAX,
        banked: true,
    }
}

fn plain_spec() -> CellSpec {
    CellSpec {
        benchmark: "gzip".to_string(),
        predictor: "Bim_4k".to_string(),
        warmup_insts: 20_000,
        measure_insts: 10_000,
        seed: 1,
        banked: false,
    }
}

fn render(v: &Value) -> String {
    serde_json::to_string(v).expect("render")
}

/// One message of every kind beside the exact text protocol 2 has
/// carried for it since sessions were added, as the hand-written
/// encoders wrote it. Peers and journals written before the codecs
/// were derived must keep decoding, and their peers must read ours.
#[test]
fn every_message_keeps_its_protocol_2_bytes() {
    assert_eq!(bw_server::PROTOCOL_VERSION, 2);
    let client = [
        (
            bw_server::protocol::hello_with(Some("sess-00000000002a")),
            r#"{"type":"hello","magic":"bwsim","protocol":2,"session":"sess-00000000002a"}"#,
        ),
        (
            ClientMsg::Submit {
                req: u64::MAX,
                cells: vec![plain_spec(), edge_spec()],
                priority: true,
            },
            r#"{"type":"submit","req":18446744073709551615,"cells":[{"benchmark":"gzip","predictor":"Bim_4k","warmup_insts":20000,"measure_insts":10000,"seed":1,"banked":false},{"benchmark":"gcc","predictor":"Gsh_1_16k_12","warmup_insts":18446744073709551615,"measure_insts":18446744073709551614,"seed":18446744073709551615,"banked":true}],"priority":true}"#,
        ),
        (
            ClientMsg::Ack {
                req: u64::MAX,
                cells: vec![0, 7, u64::MAX],
            },
            r#"{"type":"ack","req":18446744073709551615,"cells":[0,7,18446744073709551615]}"#,
        ),
        (ClientMsg::Resume, r#"{"type":"resume"}"#),
        (ClientMsg::Stats, r#"{"type":"stats"}"#),
        (ClientMsg::Bye, r#"{"type":"bye"}"#),
    ];
    for (msg, text) in client {
        assert_eq!(render(&msg.to_value()), text);
        assert_eq!(
            ClientMsg::from_value(&parse_value_str(text).unwrap()),
            Ok(msg)
        );
    }

    let result = Value::Obj(vec![
        ("benchmark".into(), Value::Str("gzip".into())),
        (
            "stats".into(),
            Value::Obj(vec![
                ("cycles".into(), Value::U64(u64::MAX)),
                ("ipc".into(), Value::F64(1.25)),
            ]),
        ),
        (
            "energies".into(),
            Value::Arr(vec![
                Value::F64(0.5),
                Value::I64(-3),
                Value::Null,
                Value::Bool(true),
            ]),
        ),
    ]);
    let refused = |reason: RefuseReason, detail: &str| {
        ServerMsg::Cell(CellReply {
            req: 3,
            cell: u64::MAX,
            status: CellStatus::Refused {
                reason,
                detail: detail.to_string(),
            },
        })
    };
    let server = [
        (
            ServerMsg::HelloAck {
                protocol: 2,
                quota: u64::MAX,
                queue_capacity: 1024,
                session: "sess-000000000001".to_string(),
                resumed: true,
            },
            r#"{"type":"hello-ack","protocol":2,"quota":18446744073709551615,"queue_capacity":1024,"session":"sess-000000000001","resumed":true}"#,
        ),
        (
            ServerMsg::Resumed {
                reqs: vec![1, u64::MAX],
            },
            r#"{"type":"resumed","reqs":[1,18446744073709551615]}"#,
        ),
        (
            ServerMsg::Resumed { reqs: vec![] },
            r#"{"type":"resumed","reqs":[]}"#,
        ),
        (
            ServerMsg::Cell(CellReply {
                req: u64::MAX,
                cell: 0,
                status: CellStatus::Ok(Box::new(result)),
            }),
            r#"{"type":"cell","req":18446744073709551615,"cell":0,"status":"ok","result":{"benchmark":"gzip","stats":{"cycles":18446744073709551615,"ipc":1.25},"energies":[0.5,-3,null,true]}}"#,
        ),
        (
            refused(RefuseReason::Quota, "quota detail"),
            r#"{"type":"cell","req":3,"cell":18446744073709551615,"status":"refused","reason":"quota","detail":"quota detail"}"#,
        ),
        (
            refused(RefuseReason::QueueFull, "queue-full detail"),
            r#"{"type":"cell","req":3,"cell":18446744073709551615,"status":"refused","reason":"queue-full","detail":"queue-full detail"}"#,
        ),
        (
            refused(RefuseReason::Quarantined, "quarantined detail"),
            r#"{"type":"cell","req":3,"cell":18446744073709551615,"status":"refused","reason":"quarantined","detail":"quarantined detail"}"#,
        ),
        (
            refused(RefuseReason::BadRequest, "bad-request detail"),
            r#"{"type":"cell","req":3,"cell":18446744073709551615,"status":"refused","reason":"bad-request","detail":"bad-request detail"}"#,
        ),
        (
            ServerMsg::Cell(CellReply {
                req: 3,
                cell: 1,
                status: CellStatus::Failed {
                    outcome: "timed-out".to_string(),
                    detail: "timed out after 2 attempt(s)".to_string(),
                },
            }),
            r#"{"type":"cell","req":3,"cell":1,"status":"failed","outcome":"timed-out","detail":"timed out after 2 attempt(s)"}"#,
        ),
        (
            ServerMsg::Done {
                req: u64::MAX,
                ok: 1,
                refused: 4,
                failed: u64::MAX,
            },
            r#"{"type":"done","req":18446744073709551615,"ok":1,"refused":4,"failed":18446744073709551615}"#,
        ),
        (
            ServerMsg::Stats {
                executed: u64::MAX,
                queued: 0,
                inflight: 7,
            },
            r#"{"type":"stats","executed":18446744073709551615,"queued":0,"inflight":7}"#,
        ),
        (
            ServerMsg::Error {
                message: "malformed frame: \"quoted\"\tand\nnewline".to_string(),
            },
            r#"{"type":"error","message":"malformed frame: \"quoted\"\tand\nnewline"}"#,
        ),
    ];
    for (msg, text) in server {
        assert_eq!(render(&msg.to_value()), text);
        assert_eq!(
            ServerMsg::from_value(&parse_value_str(text).unwrap()),
            Ok(msg)
        );
    }
    for reason in REASONS {
        assert_eq!(reason.to_value(), Value::Str(reason.as_str().to_string()));
    }
}

/// The one message whose text changed when the codecs were derived: a
/// hello without a session now says `"session":null`, which daemons
/// of the same protocol version already accept. The older text, with
/// no `session` key, still decodes as a sessionless hello.
#[test]
fn a_sessionless_hello_carries_a_null_session_and_decodes_without_one() {
    let hello = bw_server::protocol::hello();
    assert_eq!(
        render(&hello.to_value()),
        r#"{"type":"hello","magic":"bwsim","protocol":2,"session":null}"#
    );
    let older = r#"{"type":"hello","magic":"bwsim","protocol":2}"#;
    assert_eq!(
        ClientMsg::from_value(&parse_value_str(older).unwrap()),
        Ok(hello)
    );
}

/// One journal line of every record kind, as the daemon has always
/// written them: existing journals replay unchanged, without a
/// skipped line.
#[test]
fn every_journal_record_keeps_its_line() {
    let lines = [
        (
            JournalRecord::Session {
                token: "sess-000000000001".to_string(),
            },
            r#"c041a7ebbfa18caa {"type":"session","token":"sess-000000000001"}"#,
        ),
        (
            JournalRecord::Plan {
                token: "sess-000000000001".to_string(),
                req: u64::MAX,
                cells: vec![plain_spec(), edge_spec()],
                priority: true,
            },
            r#"cc344a8967b6d9f2 {"type":"plan","token":"sess-000000000001","req":18446744073709551615,"cells":[{"benchmark":"gzip","predictor":"Bim_4k","warmup_insts":20000,"measure_insts":10000,"seed":1,"banked":false},{"benchmark":"gcc","predictor":"Gsh_1_16k_12","warmup_insts":18446744073709551615,"measure_insts":18446744073709551614,"seed":18446744073709551615,"banked":true}],"priority":true}"#,
        ),
        (
            JournalRecord::Ack {
                token: "sess-000000000001".to_string(),
                req: u64::MAX,
                cells: vec![0, u64::MAX],
            },
            r#"6e1f2468ecb213b4 {"type":"ack","token":"sess-000000000001","req":18446744073709551615,"cells":[0,18446744073709551615]}"#,
        ),
        (
            JournalRecord::Done {
                digest: 0x0000_00ab_cdef_0123,
            },
            r#"c45240f5a63860fe {"type":"done","digest":"000000abcdef0123"}"#,
        ),
    ];
    for (record, line) in &lines {
        assert_eq!(record.to_line(), *line);
        assert_eq!(JournalRecord::from_line(line).as_ref(), Ok(record));
    }

    let dir = std::env::temp_dir().join(format!("bw-server-pinned-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let text: String = lines.iter().map(|(_, line)| format!("{line}\n")).collect();
    std::fs::write(dir.join(bw_server::JOURNAL_FILE), text).expect("write journal");
    let replay = bw_server::Journal::in_dir(&dir).replay();
    assert_eq!(replay.skipped, 0);
    let records: Vec<JournalRecord> = lines.into_iter().map(|(record, _)| record).collect();
    assert_eq!(replay.records, records);
    let _ = std::fs::remove_dir_all(&dir);
}
