//! Integration tests over the checked-in fixture plus property-based
//! record→encode→decode→replay round-trips and malformed-input
//! robustness (truncations and corruptions must `Err`, never panic).

use std::path::{Path, PathBuf};

use proptest::prelude::*;

use bw_trace::{record, DecodedTrace, Trace};
use bw_types::Addr;
use bw_workload::{
    benchmark, Block, InstMix, InstSource, StaticProgram, Terminator, Thread, CODE_BASE,
};

fn fixture_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data/gzip-quick.bwt")
}

fn fixture() -> Trace {
    Trace::load(&fixture_path()).expect("fixture loads")
}

/// The fixture is seed-pinned: gzip at the quick budget, seed 7. Its
/// identity (content digest) must never drift — a change here means
/// the format or the workload generator changed and the fixture needs
/// re-recording (and a format-version bump if the bytes moved).
#[test]
fn fixture_metadata_is_pinned() {
    let t = fixture();
    assert_eq!(t.meta().name, "gzip");
    assert_eq!(t.meta().seed, 7);
    assert_eq!(t.meta().insts, 404_096);
    assert!(!t.meta().returns_in_stream);
    assert_eq!(t.meta().entry, CODE_BASE);
    assert_eq!(
        t.digest(),
        0xcfd8_23c0_79ae_4003,
        "fixture identity drifted"
    );
}

/// Replaying the fixture reproduces a live thread on the same program
/// and data-model parameters, step for step.
#[test]
fn fixture_replays_identically_to_live_thread() {
    let t = fixture();
    let mut live = Thread::with_data_model(
        t.program(),
        t.meta().seed,
        t.meta().working_set,
        t.meta().random_frac,
    );
    let decoded = DecodedTrace::new(&t);
    let mut replay = decoded.reader();
    for i in 0..100_000u64 {
        assert_eq!(replay.step(), live.step(), "diverged at instruction {i}");
    }
}

/// Re-recording from the fixture's own program image and parameters
/// reproduces the file byte for byte — serialization is canonical.
#[test]
fn fixture_rerecord_is_byte_identical() {
    let t = fixture();
    let m = t.meta();
    let again = record(
        &m.name,
        t.program(),
        m.seed,
        m.working_set,
        m.random_frac,
        m.insts,
    );
    assert_eq!(
        again.to_bytes(),
        std::fs::read(fixture_path()).expect("fixture readable"),
    );
}

/// Encode→decode round-trip preserves the full trace identity.
#[test]
fn fixture_bytes_roundtrip() {
    let t = fixture();
    let back = Trace::from_bytes(&t.to_bytes()).expect("roundtrip decodes");
    assert_eq!(back.digest(), t.digest());
    assert_eq!(back.meta().insts, t.meta().insts);
    assert_eq!(back.cond_count(), t.cond_count());
    assert_eq!(back.indirect_count(), t.indirect_count());
    assert_eq!(back.data_count(), t.data_count());
}

/// Every truncation of a valid file is an error, never a panic. Short
/// prefixes are checked exhaustively (header and program-image
/// parsing), longer ones sampled.
#[test]
fn truncated_files_error_never_panic() {
    let bytes = fixture().to_bytes();
    let mut cuts: Vec<usize> = (0..1024.min(bytes.len())).collect();
    cuts.extend((1024..bytes.len()).step_by(997));
    cuts.extend(bytes.len().saturating_sub(64)..bytes.len());
    for k in cuts {
        assert!(
            Trace::from_bytes(&bytes[..k]).is_err(),
            "truncation at {k}/{} must be rejected",
            bytes.len(),
        );
    }
}

/// Flipping any byte is detected — by stream validation or, at the
/// latest, by the content-digest trailer.
#[test]
fn corrupted_bytes_are_detected() {
    let bytes = fixture().to_bytes();
    for pos in (0..bytes.len()).step_by(1013) {
        let mut bad = bytes.clone();
        bad[pos] ^= 0x40;
        assert!(
            Trace::from_bytes(&bad).is_err(),
            "corruption at byte {pos} must be rejected",
        );
    }
    // Appending trailing garbage is also rejected.
    let mut long = bytes;
    long.push(0);
    assert!(Trace::from_bytes(&long).is_err());
}

/// An empty recording (zero instructions) is a valid trace: it
/// round-trips and reports an exhausted reader.
#[test]
fn empty_trace_roundtrips() {
    let model = benchmark("gzip").unwrap();
    let program = model.build_program(3);
    let t = record("empty", &program, 3, model.working_set, 0.25, 0);
    assert_eq!(t.cond_count(), 0);
    assert_eq!(t.indirect_count(), 0);
    assert_eq!(t.data_count(), 0);
    let back = Trace::from_bytes(&t.to_bytes()).expect("empty trace decodes");
    assert_eq!(back.digest(), t.digest());
    assert_eq!(DecodedTrace::new(&back).reader().remaining(), 0);
}

/// A degenerate single-block program (one tight loop, no conditionals,
/// no functions) records and replays correctly.
#[test]
fn single_block_program_roundtrips() {
    let program = StaticProgram::try_from_parts(
        0x5eed,
        vec![Block {
            start: CODE_BASE,
            body_len: 7,
            term: Terminator::Jump { target: CODE_BASE },
        }],
        Vec::new(),
        Vec::new(),
        InstMix {
            load: 0.3,
            store: 0.1,
            fp_alu: 0.0,
            fp_mul: 0.0,
            int_mul: 0.05,
        },
    )
    .expect("valid single-block program");
    let t = record("loop", &program, 1, 1 << 16, 0.0, 500);
    let back = Trace::from_bytes(&t.to_bytes()).expect("decodes");
    let mut live = Thread::with_data_model(&program, 1, 1 << 16, 0.0);
    let decoded = DecodedTrace::new(&back);
    let mut replay = decoded.reader();
    for i in 0..500u64 {
        assert_eq!(replay.step(), live.step(), "diverged at instruction {i}");
    }
}

/// Varint boundary values survive the address streams: a program whose
/// indirect targets and data strides force deltas around the 1- and
/// 2-byte varint edges still round-trips exactly.
#[test]
fn indirect_heavy_program_roundtrips() {
    // Block 0 is 3 instructions (2 body + terminator), so block 1
    // starts 12 bytes in; the indirect alternates between the two.
    let t2 = Addr(CODE_BASE.0 + 3 * 4);
    let program = StaticProgram::try_from_parts(
        0xabcd,
        vec![
            Block {
                start: CODE_BASE,
                body_len: 2,
                term: Terminator::IndirectJump {
                    targets: [CODE_BASE, t2, CODE_BASE, t2],
                },
            },
            Block {
                start: t2,
                body_len: 58,
                term: Terminator::Jump { target: CODE_BASE },
            },
        ],
        Vec::new(),
        Vec::new(),
        InstMix {
            load: 0.45,
            store: 0.25,
            fp_alu: 0.0,
            fp_mul: 0.0,
            int_mul: 0.0,
        },
    )
    .expect("valid program");
    let t = record("switchy", &program, 9, 1 << 30, 1.0, 2_000);
    assert!(t.indirect_count() > 0, "indirect stream exercised");
    let back = Trace::from_bytes(&t.to_bytes()).expect("decodes");
    let mut live = Thread::with_data_model(&program, 9, 1 << 30, 1.0);
    let decoded = DecodedTrace::new(&back);
    let mut replay = decoded.reader();
    for i in 0..2_000u64 {
        assert_eq!(replay.step(), live.step(), "diverged at instruction {i}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For arbitrary seeds, budgets and data models over the built-in
    /// benchmarks: record → serialize → parse → replay reproduces the
    /// generating thread's full CTI and data-address stream.
    #[test]
    fn record_replay_roundtrip(
        seed in 0u64..1_000_000,
        insts in 0u64..3_000,
        bench_idx in 0usize..4,
        working_set_log in 12u64..24,
        random_frac in 0.0f64..1.0,
    ) {
        let name = ["gzip", "gcc", "vortex", "equake"][bench_idx];
        let model = benchmark(name).unwrap();
        let program = model.build_program(seed);
        let working_set = 1u64 << working_set_log;
        let t = record(name, &program, seed, working_set, random_frac, insts);

        let bytes = t.to_bytes();
        let back = Trace::from_bytes(&bytes).expect("recorded trace decodes");
        prop_assert_eq!(back.digest(), t.digest());

        let mut live = Thread::with_data_model(&program, seed, working_set, random_frac);
        let decoded = DecodedTrace::new(&back);
    let mut replay = decoded.reader();
        for i in 0..insts {
            let (r, l) = (replay.step(), live.step());
            prop_assert_eq!(r, l, "diverged at instruction {}", i);
        }
        prop_assert_eq!(replay.remaining(), 0);
    }
}
