//! End-to-end machine tests (debug assertions inside the pipeline —
//! oracle pairing, commit-path purity, RUU ordering — all fire during
//! these runs).

use std::borrow::Cow;

use crate::{Machine, UarchConfig, WarmState};
use bw_arrays::{ModelKind, TechParams};
use bw_power::{BpredTotals, PpdScenario, Unit, UnitBudget, CC3_IDLE_FRACTION};
use bw_predictors::{HybridComponent, HybridConfig, PredictorConfig};
use bw_workload::{all_benchmarks, benchmark};

fn machine_for<'p>(
    program: &'p bw_workload::StaticProgram,
    model: &bw_workload::BenchmarkModel,
    cfg: &UarchConfig,
    pred: PredictorConfig,
) -> Machine<'p> {
    Machine::new(cfg, program, model, 7, pred)
}

#[test]
fn runs_to_completion_with_plausible_ipc() {
    let model = benchmark("gzip").unwrap();
    let program = model.build_program(7);
    let cfg = UarchConfig::alpha21264_like();
    let mut m = machine_for(&program, model, &cfg, PredictorConfig::bimodal(4096));
    m.warmup(20_000);
    m.run(30_000);
    let ipc = m.stats().ipc();
    assert!((0.3..5.9).contains(&ipc), "IPC {ipc} out of range");
    assert!(m.stats().fetched >= m.stats().committed);
    assert!(m.stats().executed >= m.stats().committed);
}

#[test]
fn pipeline_accuracy_matches_trace_accuracy() {
    // The cycle-level machine's committed direction accuracy must be
    // close to the trace-driven accuracy of the same predictor on the
    // same program (speculative-history repair working correctly).
    let model = benchmark("vortex").unwrap();
    let program = model.build_program(3);
    let cfg = UarchConfig::alpha21264_like();
    let mut m = Machine::new(
        &cfg,
        &program,
        model,
        3,
        PredictorConfig::bimodal(16 * 1024),
    );
    m.warmup(50_000);
    m.run(50_000);
    let acc = m.stats().direction_accuracy();
    let target = model.bimod16k_target;
    assert!(
        (acc - target).abs() < 0.08,
        "pipeline accuracy {acc:.4} too far from trace target {target:.4}"
    );
}

#[test]
fn better_predictor_gives_better_ipc() {
    let model = benchmark("parser").unwrap();
    let program = model.build_program(5);
    let cfg = UarchConfig::alpha21264_like();

    let mut tiny = Machine::new(&cfg, &program, model, 5, PredictorConfig::bimodal(128));
    tiny.warmup(30_000);
    tiny.run(40_000);

    let mut big = Machine::new(
        &cfg,
        &program,
        model,
        5,
        PredictorConfig::Hybrid(HybridConfig::alpha_21264()),
    );
    big.warmup(30_000);
    big.run(40_000);

    assert!(
        big.stats().direction_accuracy() > tiny.stats().direction_accuracy() + 0.01,
        "hybrid {:.4} must beat bimodal-128 {:.4}",
        big.stats().direction_accuracy(),
        tiny.stats().direction_accuracy()
    );
    assert!(
        big.stats().ipc() > tiny.stats().ipc(),
        "hybrid IPC {:.3} must beat bimodal-128 IPC {:.3}",
        big.stats().ipc(),
        tiny.stats().ipc()
    );
}

#[test]
fn deterministic_across_runs() {
    let model = benchmark("gcc").unwrap();
    let program = model.build_program(9);
    let cfg = UarchConfig::alpha21264_like();
    let run = || {
        let mut m = Machine::new(&cfg, &program, model, 9, PredictorConfig::gshare(4096, 8));
        m.warmup(5_000);
        m.run(20_000);
        (
            m.stats().cycles,
            m.stats().fetched,
            m.stats().cond_correct,
            m.power_report().total_energy_j(),
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a.0, b.0);
    assert_eq!(a.1, b.1);
    assert_eq!(a.2, b.2);
    assert!((a.3 - b.3).abs() < 1e-12);
}

#[test]
fn mispredictions_cause_squashes_and_wrong_path_fetch() {
    let model = benchmark("twolf").unwrap(); // low accuracy -> many squashes
    let program = model.build_program(1);
    let cfg = UarchConfig::alpha21264_like();
    let mut m = Machine::new(&cfg, &program, model, 1, PredictorConfig::bimodal(256));
    m.warmup(10_000);
    m.run(30_000);
    let s = m.stats();
    assert!(
        s.squashes > 100,
        "expected many squashes, got {}",
        s.squashes
    );
    assert!(
        s.squashed_insts > s.squashes,
        "squashes flush younger instructions"
    );
    assert!(
        s.fetched > s.committed + s.squashed_insts / 2,
        "wrong-path fetch volume should show up"
    );
}

#[test]
fn ppd_gates_a_large_fraction_of_lookups() {
    let model = benchmark("gap").unwrap(); // sparse branches
    let program = model.build_program(2);
    let cfg = UarchConfig::alpha21264_like().with_ppd(PpdScenario::One);
    let mut m = Machine::new(&cfg, &program, model, 2, PredictorConfig::gas(32 * 1024, 8));
    m.warmup(40_000);
    m.run(40_000);
    let s = m.stats();
    assert!(s.fetch_active_cycles > 0);
    // With ~12-instruction CTI distances and 8-instruction lines, a
    // large share of fetch cycles need no direction-predictor probe.
    assert!(
        s.ppd_dir_gate_rate() > 0.15,
        "dir gate rate {:.3} too low",
        s.ppd_dir_gate_rate()
    );
    assert!(
        s.ppd_btb_gate_rate() > 0.10,
        "btb gate rate {:.3} too low",
        s.ppd_btb_gate_rate()
    );
    // Gating must not change committed behaviour: accuracy unaffected.
    assert!(s.direction_accuracy() > 0.7);
}

#[test]
fn ppd_reduces_bpred_energy_without_hurting_ipc() {
    let model = benchmark("gzip").unwrap();
    let program = model.build_program(4);
    let pred = PredictorConfig::gas(32 * 1024, 8);

    let base_cfg = UarchConfig::alpha21264_like();
    let mut base = Machine::new(&base_cfg, &program, model, 4, pred);
    base.warmup(20_000);
    base.run(30_000);

    let ppd_cfg = UarchConfig::alpha21264_like().with_ppd(PpdScenario::One);
    let mut ppd = Machine::new(&ppd_cfg, &program, model, 4, pred);
    ppd.warmup(20_000);
    ppd.run(30_000);

    let be = base.power_report().bpred_energy_j();
    let pe = ppd.power_report().bpred_energy_j();
    assert!(pe < be, "PPD must cut predictor energy: {pe} !< {be}");
    let ipc_delta = (base.stats().ipc() - ppd.stats().ipc()).abs();
    assert!(ipc_delta < 0.02, "PPD must not change IPC ({ipc_delta})");
}

#[test]
fn pipeline_gating_reduces_wrongpath_fetch() {
    let model = benchmark("twolf").unwrap();
    let program = model.build_program(6);
    let pred = PredictorConfig::Hybrid(HybridConfig::tiny_hybrid0());

    let base_cfg = UarchConfig::alpha21264_like();
    let mut base = Machine::new(&base_cfg, &program, model, 6, pred);
    base.warmup(20_000);
    base.run(30_000);

    let gated_cfg = UarchConfig::alpha21264_like().with_gating(0);
    let mut gated = Machine::new(&gated_cfg, &program, model, 6, pred);
    gated.warmup(20_000);
    gated.run(30_000);

    assert!(gated.stats().gated_cycles > 0, "gating must engage");
    assert!(
        gated.stats().fetched < base.stats().fetched,
        "gating must reduce fetch volume: {} !< {}",
        gated.stats().fetched,
        base.stats().fetched
    );
    // Gating costs some IPC.
    assert!(gated.stats().ipc() <= base.stats().ipc() + 0.02);
}

#[test]
fn power_report_has_paper_like_magnitudes() {
    let model = benchmark("crafty").unwrap();
    let program = model.build_program(8);
    let cfg = UarchConfig::alpha21264_like();
    let mut m = Machine::new(
        &cfg,
        &program,
        model,
        8,
        PredictorConfig::gshare(16 * 1024, 12),
    );
    m.warmup(20_000);
    m.run(40_000);
    let r = m.power_report();
    let total = r.avg_power_w();
    let bpred = r.bpred_power_w();
    assert!((15.0..55.0).contains(&total), "chip power {total} W");
    assert!((0.5..8.0).contains(&bpred), "bpred power {bpred} W");
    let share = bpred / total;
    assert!((0.02..0.25).contains(&share), "bpred share {share}");
}

#[test]
fn branch_frequencies_survive_the_pipeline() {
    let model = benchmark("parser").unwrap();
    let program = model.build_program(2);
    let cfg = UarchConfig::alpha21264_like();
    let mut m = Machine::new(&cfg, &program, model, 2, PredictorConfig::bimodal(4096));
    m.warmup(10_000);
    m.run(60_000);
    let s = m.stats();
    let freq = s.cond_branch_freq();
    assert!(
        (freq - model.cond_freq).abs() < model.cond_freq * 0.5 + 0.01,
        "committed cond freq {freq:.4} vs model {:.4}",
        model.cond_freq
    );
    assert!(s.avg_cond_distance() > 2.0);
    assert!(s.avg_cti_distance() <= s.avg_cond_distance());
}

#[test]
fn speculative_history_beats_commit_time_history() {
    // The paper adopts Skadron et al.'s speculative update + repair;
    // with history updated only at commit, deep pipelines predict with
    // stale history and lose accuracy.
    let model = benchmark("gap").unwrap(); // correlation-heavy
    let program = model.build_program(3);
    let pred = PredictorConfig::gshare(16 * 1024, 12);

    let spec_cfg = UarchConfig::alpha21264_like();
    let mut spec = Machine::new(&spec_cfg, &program, model, 3, pred);
    spec.warmup(300_000);
    spec.run(60_000);

    let nonspec_cfg = UarchConfig::alpha21264_like().with_commit_time_history();
    let mut nonspec = Machine::new(&nonspec_cfg, &program, model, 3, pred);
    nonspec.warmup(300_000);
    nonspec.run(60_000);

    assert!(
        spec.stats().direction_accuracy() > nonspec.stats().direction_accuracy() + 0.005,
        "speculative {:.4} must beat commit-time {:.4}",
        spec.stats().direction_accuracy(),
        nonspec.stats().direction_accuracy()
    );
}

#[test]
fn jrs_gating_engages_on_any_predictor() {
    let model = benchmark("twolf").unwrap();
    let program = model.build_program(4);
    let cfg = UarchConfig::alpha21264_like().with_jrs_gating(0);
    let mut m = Machine::new(&cfg, &program, model, 4, PredictorConfig::gshare(4096, 8));
    m.warmup(50_000);
    m.run(30_000);
    assert!(
        m.stats().gated_cycles > 0,
        "JRS gating must engage on a non-hybrid predictor"
    );
}

#[test]
fn next_line_predictor_front_end_works() {
    // The 21264-style front end must sustain comparable IPC to the
    // BTB machine while its target structure is far smaller.
    let model = benchmark("gzip").unwrap();
    let program = model.build_program(5);
    let pred = PredictorConfig::Hybrid(HybridConfig::alpha_21264());

    let btb_cfg = UarchConfig::alpha21264_like();
    let mut btb = Machine::new(&btb_cfg, &program, model, 5, pred);
    btb.warmup(200_000);
    btb.run(50_000);

    let nlp_cfg = UarchConfig::alpha21264_like().with_next_line_predictor();
    let mut nlp = Machine::new(&nlp_cfg, &program, model, 5, pred);
    nlp.warmup(200_000);
    nlp.run(50_000);

    let (bi, ni) = (btb.stats().ipc(), nlp.stats().ipc());
    assert!(
        ni > bi * 0.85,
        "NLP IPC {ni:.3} too far below BTB IPC {bi:.3}"
    );
    assert!(
        nlp.bpred_power().max_cycle_energy_j() < btb.bpred_power().max_cycle_energy_j(),
        "the NLP front end must be cheaper per cycle"
    );
    // Direction accuracy is a property of the direction predictor, not
    // the target structure.
    assert!((nlp.stats().direction_accuracy() - btb.stats().direction_accuracy()).abs() < 0.01);
}

/// The predictor zoo of the paper's figures plus hybrid_0 (the gating
/// study's tiny hybrid), as `bw_core::zoo` configures them.
fn zoo() -> Vec<PredictorConfig> {
    let hybrid = |selector_entries, selector_hist_bits, global_entries, global_hist_bits, local| {
        let (bht_entries, hist_bits, pht_entries) = local;
        PredictorConfig::Hybrid(HybridConfig {
            selector_entries,
            selector_hist_bits,
            global_entries,
            global_hist_bits,
            global_xor: false,
            component: HybridComponent::Local {
                bht_entries,
                hist_bits,
                pht_entries,
            },
        })
    };
    vec![
        PredictorConfig::bimodal(128),
        PredictorConfig::bimodal(4 * 1024),
        PredictorConfig::bimodal(8 * 1024),
        PredictorConfig::bimodal(16 * 1024),
        PredictorConfig::gas(4 * 1024, 5),
        PredictorConfig::gas(32 * 1024, 8),
        PredictorConfig::gshare(16 * 1024, 12),
        PredictorConfig::gshare(32 * 1024, 12),
        hybrid(1024, 3, 2048, 4, (512, 2, 512)),
        PredictorConfig::Hybrid(HybridConfig::alpha_21264()),
        hybrid(8 * 1024, 10, 16 * 1024, 7, (1024, 8, 4096)),
        hybrid(8 * 1024, 6, 16 * 1024, 7, (1024, 8, 4096)),
        PredictorConfig::pas(1024, 4, 2048),
        PredictorConfig::pas(4096, 8, 16 * 1024),
        PredictorConfig::Hybrid(HybridConfig::tiny_hybrid0()),
    ]
}

/// The machine variants whose dead cycles differ in kind: memory
/// stalls, fetch stalls, gating holds, PPD-gated fetch, commit-time
/// history, next-line misfetch bubbles, and small and large windows.
fn variants() -> Vec<(&'static str, UarchConfig)> {
    let base = UarchConfig::alpha21264_like();
    let mut small = base.clone();
    small.ruu_size = 40;
    small.lsq_size = 20;
    let mut large = base.clone();
    large.ruu_size = 160;
    vec![
        ("base", base.clone()),
        ("both-strong gating N=0", base.clone().with_gating(0)),
        ("both-strong gating N=2", base.clone().with_gating(2)),
        ("JRS gating N=1", base.clone().with_jrs_gating(1)),
        ("PPD scenario 1", base.clone().with_ppd(PpdScenario::One)),
        ("PPD scenario 2", base.clone().with_ppd(PpdScenario::Two)),
        (
            "commit-time history",
            base.clone().with_commit_time_history(),
        ),
        (
            "next-line predictor",
            base.clone().with_next_line_predictor(),
        ),
        ("RUU 40 / LSQ 20", small),
        ("RUU 160", large),
    ]
}

/// [`Machine::run`] with every cycle ticked: the reference the
/// fast-forward must match, under `run`'s own stop rule. Each ticked
/// cycle is also priced on its own and added to `energy_j`.
fn tick_loop(m: &mut Machine<'_>, max_commits: u64, energy_j: &mut [f64; 12]) {
    let target = m.stats.committed + max_commits;
    let cycle_cap = m.cycle + max_commits * 40 + 100_000;
    while m.stats.committed < target && m.cycle < cycle_cap {
        m.tick();
        price_cycle(m, energy_j);
    }
}

/// Adds the energy of the cycle `m` just ticked to `energy_j`, priced
/// on its own in f64: each unit at `max_e × (0.1 + 0.9 × min(used /
/// ports, 1))`, the predictor at its energy for a one-cycle
/// [`BpredTotals`].
fn price_cycle(m: &Machine<'_>, energy_j: &mut [f64; 12]) {
    let budget = UnitBudget::default();
    let cycle_s = TechParams::default().cycle_s();
    let a = m.act;
    let port = |unit: Unit| budget.ports[unit.index()];
    for (unit, used, ports) in [
        (Unit::Rename, a.rename, port(Unit::Rename)),
        (Unit::Window, a.window, port(Unit::Window)),
        (Unit::Lsq, a.lsq, port(Unit::Lsq)),
        (Unit::Regfile, a.regfile, port(Unit::Regfile)),
        (Unit::Icache, a.icache, port(Unit::Icache)),
        (Unit::Dcache, a.dcache, port(Unit::Dcache)),
        (Unit::Dcache2, a.dcache2, port(Unit::Dcache2)),
        (Unit::Ialu, a.ialu, port(Unit::Ialu)),
        (Unit::Falu, a.falu, port(Unit::Falu)),
        (Unit::ResultBus, a.resultbus, port(Unit::ResultBus)),
        (Unit::Clock, a.clock_64ths, 64),
    ] {
        let max_e = budget.max_power_w[unit.index()] * cycle_s;
        let frac = (f64::from(used) / f64::from(ports)).min(1.0);
        energy_j[unit.index()] += max_e * (CC3_IDLE_FRACTION + (1.0 - CC3_IDLE_FRACTION) * frac);
    }
    let mut one = BpredTotals::default();
    one.add(&m.bact, 1);
    energy_j[Unit::Bpred.index()] += m.bpred_power().energy_for_totals(&one);
}

#[test]
fn fast_forward_is_bit_identical_to_ticking_every_cycle() {
    let zoo = zoo();
    let (mut cells, mut cycles, mut ticked) = (0usize, 0u64, 0u64);
    let mut max_rel = 0.0_f64;
    for (label, cfg) in variants() {
        for model in all_benchmarks() {
            let pred = zoo[cells % zoo.len()];
            cells += 1;
            let seed = 1 + cells as u64;
            let program = model.build_program(seed);
            let build = || {
                let mut m = Machine::new(&cfg, &program, model, seed, pred);
                m.warmup(3_000);
                m
            };
            let (mut fast, mut reference) = (build(), build());
            // Two chunks, as the drive loop calls it.
            fast.run(1_500);
            fast.run(2_500);
            let mut per_cycle = [0.0; 12];
            tick_loop(&mut reference, 1_500, &mut per_cycle);
            tick_loop(&mut reference, 2_500, &mut per_cycle);

            let cell = format!("{label} / {} / {}", model.name, pred.build().describe());
            assert_eq!(fast.stats(), reference.stats(), "{cell}: stats");
            assert_eq!(
                fast.bpred_totals(),
                reference.bpred_totals(),
                "{cell}: totals"
            );
            let (f, r) = (fast.power_report(), reference.power_report());
            assert_eq!(f.cycles, r.cycles, "{cell}: energy cycles");
            for (unit, (a, b)) in f.energy_j.iter().zip(&r.energy_j).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "{cell}: energy of unit {unit}");
            }
            for (unit, (a, b)) in f.energy_j.iter().zip(&per_cycle).enumerate() {
                let rel = (a - b).abs() / b;
                assert!(
                    rel <= 1e-9,
                    "{cell}: unit {unit} is {a:e} J, priced per cycle {b:e} J"
                );
                max_rel = max_rel.max(rel);
            }
            assert_eq!(reference.ticked_cycles(), reference.stats().cycles);
            cycles += fast.stats().cycles;
            ticked += fast.ticked_cycles();
        }
    }
    assert_eq!(cells, 220);
    println!("largest relative difference from per-cycle pricing: {max_rel:.1e}");
    // The oracle is inert unless the fast-forward actually skipped.
    assert!(
        ticked * 10 < cycles * 9,
        "only {} of {cycles} cycles skipped",
        cycles - ticked
    );
}

/// A machine forked from a shared warm-up ([`Machine::from_warmed`]) is
/// the machine [`Machine::warmup`] builds over the same chunks: one
/// warm-up per variant serves every predictor of the zoo, borrowed or
/// owned, and each run after it ends in the same statistics, cache
/// statistics, predictor totals and energy, bit for bit.
#[test]
fn from_warmed_after_a_chunked_warm_up_equals_warmup() {
    // Odd chunk sizes, none a multiple of a predictor batch, so batches
    // close at chunk ends as well as at `WARM_BATCH` branches.
    const CHUNKS: [u64; 3] = [2_500, 700, 4_100];
    let zoo = zoo();
    for (i, (label, cfg)) in variants().into_iter().enumerate() {
        let model = &all_benchmarks()[i * 2];
        let seed = 5 + i as u64;
        let program = model.build_program(seed);
        let mut shared = WarmState::new(
            &cfg.warm_config(),
            &program,
            model.thread(&program, seed),
            model.working_set,
        );
        for chunk in CHUNKS {
            shared.warmup(chunk);
        }
        for (j, &pred) in zoo.iter().enumerate() {
            let mut reference = Machine::new(&cfg, &program, model, seed, pred);
            for chunk in CHUNKS {
                reference.warmup(chunk);
            }
            // Every predictor but the last forks a copy; the last takes
            // a state of its own, as a group's last run does.
            let warm = if j + 1 < zoo.len() {
                Cow::Borrowed(&shared)
            } else {
                Cow::Owned(shared.clone())
            };
            let mut forked = Machine::from_warmed(
                &cfg,
                warm,
                pred,
                ModelKind::WithColumnDecoders,
                false,
                &TechParams::default(),
            );
            reference.run(2_000);
            forked.run(2_000);

            let cell = format!("{label} / {} / {}", model.name, pred.build().describe());
            assert_eq!(forked.stats(), reference.stats(), "{cell}: stats");
            assert_eq!(forked.icache_stats(), reference.icache_stats(), "{cell}");
            assert_eq!(forked.dcache_stats(), reference.dcache_stats(), "{cell}");
            assert_eq!(forked.l2_stats(), reference.l2_stats(), "{cell}");
            assert_eq!(forked.bpred_totals(), reference.bpred_totals(), "{cell}");
            let (f, r) = (forked.power_report(), reference.power_report());
            for (unit, (a, b)) in f.energy_j.iter().zip(&r.energy_j).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "{cell}: energy of unit {unit}");
            }
        }
    }
}

mod machine_proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        #[test]
        fn machine_invariants_hold_across_configs(
            bench_idx in 0usize..4,
            pred_idx in 0usize..3,
            seed in 1u64..50,
        ) {
            let names = ["gzip", "twolf", "swim", "vortex"];
            let model = benchmark(names[bench_idx]).unwrap();
            let program = model.build_program(seed);
            let preds = [
                PredictorConfig::bimodal(1024),
                PredictorConfig::gshare(4096, 8),
                PredictorConfig::Hybrid(HybridConfig::tiny_hybrid0()),
            ];
            let cfg = UarchConfig::alpha21264_like();
            let mut m = Machine::new(&cfg, &program, model, seed, preds[pred_idx]);
            m.warmup(20_000);
            let committed = m.run(15_000);
            let s = m.stats();
            // Commit accounting.
            prop_assert!(committed >= 15_000);
            prop_assert_eq!(s.committed, committed);
            // Volume ordering: everything fetched either commits,
            // squashes, or is still in flight.
            prop_assert!(s.fetched >= s.committed);
            prop_assert!(s.fetched >= s.squashed_insts);
            prop_assert!(s.executed >= s.committed);
            // Branch accounting.
            prop_assert!(s.cond_correct <= s.cond_committed);
            prop_assert!(s.cond_committed <= s.cti_committed);
            prop_assert!(s.cti_addr_correct <= s.cti_committed);
            // Power accounting is strictly positive and the predictor
            // never dominates the chip.
            let r = m.power_report();
            prop_assert!(r.total_energy_j() > 0.0);
            prop_assert!(r.bpred_energy_j() > 0.0);
            prop_assert!(r.bpred_energy_j() < r.total_energy_j() * 0.5);
            // Re-pricing under the run's own options is exact.
            let totals = m.bpred_totals();
            let repriced = m.bpred_power().energy_for_totals(&totals);
            prop_assert_eq!(repriced, r.bpred_energy_j());
        }
    }
}
