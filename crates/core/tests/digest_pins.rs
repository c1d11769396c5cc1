//! Pinned digests: the identities every persistent artifact is named
//! by. A cache file name, a quarantine-ledger key and a flight-journal
//! record all carry a `RunKey::digest()`, which folds in a
//! `SimConfig::digest()`, so a change that moves any of these literals
//! silently orphans every existing cache entry and ledger line. How a
//! digest is computed (once per key, once per grid) may change; its
//! value may not.
//!
//! Run with `cargo test -p bw-core --test digest_pins`.

use std::path::Path;

use bw_core::trace::Trace;
use bw_core::workload::benchmark;
use bw_core::zoo::NamedPredictor;
use bw_core::{RunCache, RunKey, SimConfig};

/// A builder configuration that differs from the presets in budget,
/// seed and banking.
fn builder_cfg() -> SimConfig {
    SimConfig::builder()
        .warmup_insts(20_000)
        .measure_insts(8_000)
        .seed(11)
        .banked(true)
        .build()
        .unwrap()
}

/// The checked-in recording: gzip, seed 7, 300k warm-up + 100k
/// measured, content digest `cfd823c079ae4003`.
fn fixture_trace() -> Trace {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../trace/tests/data/gzip-quick.bwt");
    Trace::load(&path).expect("the checked-in fixture loads")
}

/// The model key: gzip × `Hybrid_1` under `SimConfig::quick(1)`.
fn model_key() -> RunKey {
    RunKey::new(
        benchmark("gzip").unwrap(),
        NamedPredictor::Hybrid1.config(),
        &SimConfig::quick(1),
    )
}

/// The trace key: the fixture × `Gsh_1_16k_12` under the builder
/// configuration.
fn trace_key() -> RunKey {
    RunKey::for_trace(
        &fixture_trace(),
        NamedPredictor::Gshare16k12.config(),
        &builder_cfg(),
    )
}

#[test]
fn config_digests_are_pinned() {
    assert_eq!(SimConfig::quick(1).digest(), 0xb52c_2fb6_b4f4_eeb5);
    assert_eq!(builder_cfg().digest(), 0xdfaf_da4b_d439_718f);
}

#[test]
fn run_key_digests_are_pinned() {
    let model = model_key();
    assert_eq!(model.cfg_digest(), SimConfig::quick(1).digest());
    assert_eq!(model.digest(), 0x1ed1_bd17_a41c_3fc1);
    let trace = trace_key();
    assert_eq!(&*trace.benchmark(), "gzip@cfd823c079ae4003");
    assert_eq!(trace.cfg_digest(), builder_cfg().digest());
    assert_eq!(trace.digest(), 0x588a_6761_0dca_9b3d);
}

#[test]
fn cache_file_names_are_pinned() {
    let cache = RunCache::new("cache");
    assert_eq!(
        cache.path_for(&model_key()),
        Path::new("cache/1e/gzip-1ed1bd17a41c3fc1.json")
    );
    assert_eq!(
        cache.path_for(&trace_key()),
        Path::new("cache/58/gzip@cfd823c079ae4003-588a67610dca9b3d.json")
    );
}
