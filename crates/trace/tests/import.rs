//! Tests for the text-trace importer: a hand-written ChampSim-style
//! listing must import, replay deterministically, and survive an
//! encode/decode round-trip; malformed listings must error.

use bw_trace::{import_text, DecodedTrace, Trace};
use bw_types::CtiKind;
use bw_workload::InstSource;

/// A tiny loop: body, load, conditional backedge taken twice then
/// falling through to a jump back, with a call/return pair.
const LISTING: &str = "\
# pc kind [operands]
0x1000 A
0x1004 L 0x20000
0x1008 C 1 0x1000
0x1000 A
0x1004 L 0x20008
0x1008 C 1 0x1000
0x1000 A
0x1004 L 0x20010
0x1008 C 0 0x1000
0x100c K 0x2000
0x2000 S 0x30000
0x2004 R 0x1010
0x1010 J 0x1000
0x1000 A
";

#[test]
fn listing_imports_and_replays() {
    let trace = import_text("tiny", LISTING).expect("listing imports");
    assert_eq!(trace.meta().name, "tiny");
    assert_eq!(trace.meta().insts, 14);
    assert!(trace.meta().returns_in_stream);
    assert_eq!(trace.cond_count(), 3);
    // Return targets ride the indirect stream for imported traces.
    assert_eq!(trace.indirect_count(), 1);
    assert_eq!(trace.data_count(), 4);

    let decoded = DecodedTrace::new(&trace);
    let mut r = decoded.reader();
    let mut kinds = Vec::new();
    let mut outcomes = Vec::new();
    let mut mem = 0u64;
    for _ in 0..trace.meta().insts {
        let step = r.step();
        mem += u64::from(step.data_addr.is_some());
        if let Some(cti) = step.inst.cti {
            kinds.push(cti.kind);
            outcomes.push(step.control.expect("CTIs resolve").outcome.is_taken());
        }
    }
    assert_eq!(
        kinds,
        vec![
            CtiKind::CondBranch,
            CtiKind::CondBranch,
            CtiKind::CondBranch,
            CtiKind::Call,
            CtiKind::Return,
            CtiKind::Jump,
        ],
    );
    assert_eq!(outcomes, vec![true, true, false, true, true, true]);
    assert_eq!(mem, 4);
    assert_eq!(r.remaining(), 0);
}

/// An imported trace round-trips through the binary format.
#[test]
fn imported_trace_roundtrips() {
    let trace = import_text("tiny", LISTING).expect("listing imports");
    let back = Trace::from_bytes(&trace.to_bytes()).expect("decodes");
    assert_eq!(back.digest(), trace.digest());
    assert_eq!(back.meta().insts, trace.meta().insts);
}

/// Replay of an imported trace is deterministic: readers over two
/// decodes of the same trace see identical streams.
#[test]
fn imported_replay_is_deterministic() {
    let trace = import_text("tiny", LISTING).expect("listing imports");
    let (da, db) = (DecodedTrace::new(&trace), DecodedTrace::new(&trace));
    let mut a = da.reader();
    let mut b = db.reader();
    for _ in 0..trace.meta().insts {
        assert_eq!(a.step(), b.step());
    }
}

#[test]
fn malformed_listings_are_rejected() {
    // Unknown kind letter.
    assert!(import_text("t", "0x1000 Q\n").is_err());
    // Missing operand on a load.
    assert!(import_text("t", "0x1000 L\n").is_err());
    // Trailing junk after the record.
    assert!(import_text("t", "0x1000 A extra\n").is_err());
    // Unparseable pc.
    assert!(import_text("t", "zebra A\n").is_err());
    // Taken control whose target contradicts the next record.
    assert!(import_text("t", "0x1000 C 1 0x3000\n0x2000 A\n").is_err());
    // Inconsistent fall-through: 0x1000 falls to two different pcs
    // (addresses are remapped, so fall-through need not be pc+4, but
    // it must be unique).
    assert!(import_text(
        "t",
        "0x1000 A\n0x2000 J 0x1000\n0x1000 A\n0x3000 J 0x1000\n0x1000 A\n"
    )
    .is_err());
    // Same pc with two different kinds.
    assert!(import_text(
        "t",
        "0x1000 A\n0x1004 J 0x1000\n0x1000 L 0x8\n0x1004 J 0x1000\n0x1000 A\n"
    )
    .is_err());
    // Empty listing.
    assert!(import_text("t", "# nothing\n\n").is_err());
}
