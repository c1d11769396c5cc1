//! `bwbench`: the end-to-end benchmark of branchwatt (see README.md).
//!
//! ```text
//! bwbench run --workload <paper|replay|daemon> [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
//! bwbench bless
//! bwbench compare --bench BENCHMARK.json <parent runs...> -- <change runs...>
//! ```
//!
//! `run` sets the workload up (several times; `setup_s` is the median),
//! then runs the workload's fixed number of passes, checks every output
//! and prints each end-to-end metric as `name value unit`. The last
//! stdout line is one JSON object `{correct, attempted, failed,
//! metrics}`. With `--trace 1` it instead runs a traced pass between two
//! untraced ones, then the serial layer probe, and reports the per-layer
//! metrics, span self times and the tracing overhead. The run's result
//! object is also written to `--out` (default `runs/` beside this
//! package). The exit status is nonzero when a check fails.
//!
//! `--seconds` is accepted because benchmark drivers pass their time
//! budget with it, but it changes nothing: the pass counts are fixed
//! (sized to take 20–46 s on two cores), so a faster build runs the
//! same work as a slower one rather than more of it.

#![forbid(unsafe_code)]

mod compare;
mod daemon;
mod golden;
mod paper;
mod probe;
mod procfs;
mod replay;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use serde::Value;

use spans::Tracer;

/// The seed the golden records are blessed at.
const DEFAULT_SEED: u64 = 1;

/// The end-to-end metrics every workload reports, with their units.
/// Peak memory is not one of them: `VmHWM` of a `paper` run is about
/// 12.5 MB or 15.6 MB for the same seed and code, as thread-exit timing
/// decides whether the allocator opens another arena, so it is written
/// to the result file for information only.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("warm_s", "s"),
    ("cells_per_s", "cells/s"),
    ("ns_per_inst", "ns"),
    ("miss_p50_ms", "ms"),
    ("hit_p50_ms", "ms"),
];

/// Named correctness checks of one run; a check fails if any of its
/// evaluations fails, and keeps the first failure's detail.
#[derive(Default)]
pub struct Checks(BTreeMap<String, Option<String>>);

impl Checks {
    /// Records one evaluation of check `name`.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl FnOnce() -> String) {
        let slot = self.0.entry(name.to_string()).or_insert(None);
        if !ok && slot.is_none() {
            *slot = Some(detail());
        }
    }

    fn all_ok(&self) -> bool {
        self.0.values().all(Option::is_none)
    }

    fn to_value(&self) -> Value {
        Value::Obj(
            self.0
                .iter()
                .map(|(name, failure)| {
                    let verdict = failure
                        .as_ref()
                        .map_or("ok".to_string(), |d| format!("FAILED: {d}"));
                    (name.clone(), Value::Str(verdict))
                })
                .collect(),
        )
    }
}

/// What one pass of a workload measured. A pass is a cold phase (every
/// cell requested for the first time) followed by warm rounds that
/// request the same cells again and are served from the run cache.
#[derive(Default)]
pub struct Pass {
    /// Wall time of the cold phase.
    pub cold_s: f64,
    /// Wall time of each warm round.
    pub warm_s: Vec<f64>,
    /// Cells simulated in the cold phase.
    pub executed: u64,
    /// Time spent in the requests that simulated them.
    pub busy_s: f64,
    /// Process CPU time (all threads) over the cold phase.
    pub cpu_ns: u64,
    /// Instructions simulated in the cold phase.
    pub insts: u64,
    /// Latency of each cold request.
    pub miss_ms: Vec<f64>,
    /// Latency of each warm request, one list per warm round.
    pub hit_ms: Vec<Vec<f64>>,
    /// Cells requested over the whole pass.
    pub attempted: u64,
    /// Requested cells that failed or were refused.
    pub failed: u64,
    /// Requested cells served from the run cache.
    pub hits: u64,
}

impl Pass {
    fn wall_s(&self) -> f64 {
        self.cold_s + self.warm_s.iter().sum::<f64>()
    }

    fn cells_per_s(&self) -> f64 {
        self.executed as f64 / self.busy_s
    }

    fn ns_per_inst(&self) -> f64 {
        self.cpu_ns as f64 / self.insts as f64
    }

    /// The median warm request of each warm round.
    fn hit_p50_ms(&self) -> Vec<f64> {
        self.hit_ms
            .iter()
            .map(|round| stats::median(round))
            .collect()
    }

    /// The per-pass (and per-round) values the run's metrics are picked
    /// from.
    fn to_value(&self) -> Value {
        let list = |xs: &[f64]| Value::Arr(xs.iter().map(|x| Value::F64(*x)).collect());
        Value::Obj(vec![
            ("cold_s".into(), Value::F64(self.cold_s)),
            ("warm_s".into(), list(&self.warm_s)),
            ("cells_per_s".into(), Value::F64(self.cells_per_s())),
            ("ns_per_inst".into(), Value::F64(self.ns_per_inst())),
            (
                "miss_p50_ms".into(),
                Value::F64(stats::median(&self.miss_ms)),
            ),
            ("hit_p50_ms".into(), list(&self.hit_p50_ms())),
        ])
    }
}

/// One benchmark workload.
pub trait Workload: Sized {
    /// Name on the command line and in BENCHMARK.json.
    const NAME: &'static str;
    /// Set-ups per run; `setup_s` is their median.
    const SETUP_REPS: usize;
    /// Passes per untraced run.
    const PASSES: u64;
    /// Builds the inputs from `seed` and brings up what the passes
    /// drive, using `dir` for files.
    fn setup(seed: u64, dir: &Path) -> Self;
    /// Runs pass `index`, recording spans on `t` and outcomes in
    /// `checks`.
    fn pass(&mut self, index: u64, t: &mut Tracer, checks: &mut Checks) -> Pass;
    /// Differential oracles too costly for the timed passes.
    fn final_checks(&mut self, checks: &mut Checks);
    /// What `bless` stores for the default seed, if the workload has a
    /// golden record.
    fn golden_record(&self) -> Option<Value>;
    /// The cells of the last pass that the layer probe replays.
    fn samples(&self) -> Vec<probe::Sample>;
}

/// Scratch space inside the checkout, removed when the run ends.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new(name: &str) -> WorkDir {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("work")
            .join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create the work directory");
        WorkDir(dir)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

struct RunArgs {
    workload: String,
    seed: u64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut a = RunArgs {
        workload: String::new(),
        seed: DEFAULT_SEED,
        trace: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?.clone(),
            "--seed" => a.seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            // Validated, then ignored: see the module docs.
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds needs a number")?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--out" => a.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(a)
}

fn usage() -> i32 {
    eprintln!(
        "usage: bwbench run --workload <paper|replay|daemon> [--seed N] [--seconds S] [--trace 0|1] [--out FILE]\n       \
         bwbench bless\n       \
         bwbench compare --bench BENCHMARK.json <parent runs...> -- <change runs...>"
    );
    2
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("run") => match parse_run(&args[1..]) {
            Ok(a) if a.workload == paper::Paper::NAME => measure::<paper::Paper>(&a),
            Ok(a) if a.workload == replay::Replay::NAME => measure::<replay::Replay>(&a),
            Ok(a) if a.workload == daemon::Daemon::NAME => measure::<daemon::Daemon>(&a),
            Ok(a) => {
                eprintln!("unknown workload `{}`", a.workload);
                usage()
            }
            Err(e) => {
                eprintln!("{e}");
                usage()
            }
        },
        Some("bless") => i32::from(!(bless::<paper::Paper>() && bless::<replay::Replay>())),
        Some("compare") => compare::main(&args[1..]),
        _ => usage(),
    };
    std::process::exit(code);
}

/// Sets the workload up `SETUP_REPS` times (tearing the previous one
/// down untimed) and returns the last set-up with the median time.
fn set_up<W: Workload>(seed: u64, work: &Path) -> (W, f64) {
    let mut times = Vec::new();
    let mut last = None;
    for i in 0..W::SETUP_REPS {
        drop(last.take());
        let dir = work.join(format!("setup-{i}"));
        let start = Instant::now();
        let w = W::setup(seed, &dir);
        times.push(start.elapsed().as_secs_f64());
        last = Some(w);
    }
    (last.expect("at least one set-up"), stats::median(&times))
}

/// A reported metric: name, value, unit.
type Metric = (&'static str, f64, &'static str);

/// The run's metrics (within a pass or round, a latency is the median
/// over its requests). A cold metric is the median over the run's
/// passes: a cold phase runs two threads for seconds, so it spreads over
/// both CPUs of the host and its passes vary little. A warm metric is
/// the run's fastest warm round: a round is one thread for well under a
/// second, and on a shared host one CPU runs it at one of two speeds
/// about 1.5× apart, as other tenants' load on the host comes and goes
/// (see README.md, Noise). The median round flips between the two
/// speeds from run to run; the fastest reaches the faster one in most
/// runs. Every run makes the same `W::PASSES` passes of the same rounds
/// over the same cells, so two builds are measured on equal work.
fn end_to_end(setup_s: f64, passes: &[Pass]) -> Vec<Metric> {
    let middle = |f: fn(&Pass) -> f64| stats::median(&passes.iter().map(f).collect::<Vec<_>>());
    let fastest_round =
        |f: fn(&Pass) -> Vec<f64>| passes.iter().flat_map(f).fold(f64::INFINITY, f64::min);
    let values = [
        setup_s,
        middle(|p| p.cold_s),
        fastest_round(|p| p.warm_s.clone()),
        middle(Pass::cells_per_s),
        middle(Pass::ns_per_inst),
        middle(|p| stats::median(&p.miss_ms)),
        fastest_round(Pass::hit_p50_ms),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| (name, value, unit))
        .collect()
}

/// `{name: {value, unit}}` entries.
fn metric_fields(metrics: &[Metric]) -> Vec<(String, Value)> {
    metrics
        .iter()
        .map(|&(name, value, unit)| {
            let v = vec![
                ("value".into(), Value::F64(value)),
                ("unit".into(), Value::Str(unit.into())),
            ];
            (name.to_string(), Value::Obj(v))
        })
        .collect()
}

fn print_metrics(metrics: &[Metric]) {
    for (name, value, unit) in metrics {
        println!("{name} {value} {unit}");
    }
}

fn write_json(path: &Path, v: &Value) {
    let text = serde_json::to_string_pretty(v).expect("render JSON");
    bw_core::fsutil::atomic_write(path, text.as_bytes())
        .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
}

fn measure<W: Workload>(a: &RunArgs) -> i32 {
    let work = WorkDir::new(W::NAME);
    let mut checks = Checks::default();
    let (mut w, setup_s) = set_up::<W>(a.seed, &work.0);
    let mut tracer = Tracer::new();
    let mut passes = Vec::new();
    let mut layers = Value::Obj(Vec::new());
    let mut layer_metrics = Vec::new();
    if a.trace {
        // The traced pass sits between two untraced ones; its overhead
        // is measured against their mean.
        passes.push(w.pass(0, &mut tracer, &mut checks));
        tracer.enable(true);
        let traced = w.pass(1, &mut tracer, &mut checks);
        tracer.enable(false);
        passes.push(w.pass(2, &mut tracer, &mut checks));
        let overhead_s = traced.wall_s() - (passes[0].wall_s() + passes[1].wall_s()) / 2.0;
        let mut measured = probe::run(&w.samples(), &work.0, &mut checks);
        measured.insert("core.cells_executed", traced.executed as f64);
        measured.insert("core.cache_hits", traced.hits as f64);
        for (name, _) in probe::LAYERS {
            checks.check(
                "trace.every_layer_metric",
                measured.contains_key(name),
                || format!("layer metric {name} was not measured"),
            );
        }
        layer_metrics = probe::LAYERS
            .iter()
            .filter_map(|&(name, unit)| measured.get(name).map(|&v| (name, v, unit)))
            .collect();
        print_metrics(&layer_metrics);
        let self_s = spans::self_seconds_by_name(tracer.spans());
        for (name, s) in &self_s {
            println!("self {name} {s} s");
        }
        println!("tracing_overhead_s {overhead_s} s");
        let mut fields = metric_fields(&layer_metrics);
        let self_s = self_s
            .into_iter()
            .map(|(n, s)| (n, Value::F64(s)))
            .collect();
        fields.push(("self_s".into(), Value::Obj(self_s)));
        fields.push(("tracing_overhead_s".into(), Value::F64(overhead_s)));
        layers = Value::Obj(fields);
    } else {
        for index in 0..W::PASSES {
            passes.push(w.pass(index, &mut tracer, &mut checks));
        }
    }
    w.final_checks(&mut checks);
    if a.seed == DEFAULT_SEED {
        if let Some(record) = w.golden_record() {
            let path = golden::path(W::NAME);
            let verdict = std::fs::read_to_string(&path)
                .map_err(|e| format!("{}: {e}", path.display()))
                .and_then(|text| golden::check(&text, a.seed, &record));
            checks.check("golden", verdict.is_ok(), || verdict.unwrap_err());
        }
    }
    let metrics = end_to_end(setup_s, &passes);
    let attempted: u64 = passes.iter().map(|p| p.attempted).sum();
    let failed: u64 = passes.iter().map(|p| p.failed).sum();
    let correct = checks.all_ok() && failed == 0;

    let suffix = if a.trace { "-traced" } else { "" };
    let out = a.out.clone().unwrap_or_else(|| {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("runs")
            .join(format!("{}-seed{}{suffix}.json", W::NAME, a.seed))
    });
    write_json(
        &out,
        &Value::Obj(vec![
            ("workload".into(), Value::Str(W::NAME.into())),
            ("seed".into(), Value::U64(a.seed)),
            ("correct".into(), Value::Bool(correct)),
            ("attempted".into(), Value::U64(attempted)),
            ("failed".into(), Value::U64(failed)),
            ("peak_rss_mb".into(), Value::F64(procfs::peak_rss_mb())),
            (
                "passes".into(),
                Value::Arr(passes.iter().map(Pass::to_value).collect()),
            ),
            ("metrics".into(), Value::Obj(metric_fields(&metrics))),
            ("layers".into(), layers),
            ("checks".into(), checks.to_value()),
        ]),
    );
    if a.trace {
        write_json(
            &out.with_extension("spans.json"),
            &spans::to_value(tracer.spans()),
        );
    } else {
        print_metrics(&metrics);
    }
    for (name, failure) in &checks.0 {
        if let Some(detail) = failure {
            eprintln!("check {name} FAILED: {detail}");
        }
    }
    let reported = if a.trace { &layer_metrics } else { &metrics };
    let last = Value::Obj(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::U64(attempted)),
        ("failed".into(), Value::U64(failed)),
        ("metrics".into(), Value::Obj(metric_fields(reported))),
    ]);
    println!("{}", serde_json::to_string(&last).expect("render JSON"));
    i32::from(!correct)
}

/// Runs one pass of `W` at the default seed and stores its golden
/// record.
fn bless<W: Workload>() -> bool {
    let work = WorkDir::new(W::NAME);
    let mut checks = Checks::default();
    let mut w = W::setup(DEFAULT_SEED, &work.0.join("setup"));
    w.pass(0, &mut Tracer::new(), &mut checks);
    if !checks.all_ok() {
        eprintln!("bless {}: the pass failed its checks", W::NAME);
        return false;
    }
    if let Some(record) = w.golden_record() {
        let path = golden::path(W::NAME);
        write_json(&path, &golden::file_value(DEFAULT_SEED, record));
        eprintln!("blessed {}", path.display());
    }
    true
}

/// A tiny deterministic generator (SplitMix64) for the workloads'
/// seeded choices.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated from other uses by `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform index below `n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Shuffles `v` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_names_every_reported_metric() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let bench = serde_json::parse_value_str(&text).expect("valid JSON");
        let listed = |key: &str| -> Vec<(String, String)> {
            let Some(Value::Arr(items)) = bench.get(key) else {
                panic!("{key} missing")
            };
            items
                .iter()
                .map(|m| match (m.get("name"), m.get("unit")) {
                    (Some(Value::Str(n)), Some(Value::Str(u))) => (n.clone(), u.clone()),
                    _ => panic!("{key} entry without name/unit"),
                })
                .collect()
        };
        let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), owned(&END_TO_END));
        assert_eq!(listed("per_layer"), owned(&probe::LAYERS));
        let Some(Value::Arr(workloads)) = bench.get("workloads") else {
            panic!("workloads missing")
        };
        let names: Vec<_> = workloads.iter().filter_map(|w| w.get("name")).collect();
        let expected = [
            paper::Paper::NAME,
            replay::Replay::NAME,
            daemon::Daemon::NAME,
        ];
        assert_eq!(
            names,
            expected
                .map(|n| Value::Str(n.into()))
                .iter()
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn run_flags_parse_and_reject_garbage() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a =
            parse_run(&args("--workload replay --seed 7 --seconds 12.5 --trace 1")).expect("ok");
        assert_eq!((a.workload.as_str(), a.seed, a.trace), ("replay", 7, true));
        assert!(parse_run(&args("--trace 2")).is_err());
        assert!(parse_run(&args("--seconds 0")).is_err());
        assert!(parse_run(&args("--seed")).is_err());
        assert!(parse_run(&args("--bogus 1")).is_err());
    }

    #[test]
    fn rng_is_deterministic_and_shuffles_permutations() {
        let mut a = Rng::new(5, 1);
        let mut b = Rng::new(5, 1);
        assert_eq!(a.next_u64(), b.next_u64());
        assert_ne!(Rng::new(5, 1).next_u64(), Rng::new(5, 2).next_u64());
        let mut v: Vec<usize> = (0..60).collect();
        a.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..60).collect::<Vec<_>>());
        assert_ne!(v, sorted);
    }

    #[test]
    fn checks_keep_the_first_failure() {
        let mut c = Checks::default();
        c.check("x", true, || unreachable!());
        assert!(c.all_ok());
        c.check("x", false, || "first".into());
        c.check("x", false, || "second".into());
        assert!(!c.all_ok());
        assert_eq!(c.0["x"].as_deref(), Some("first"));
    }
}
