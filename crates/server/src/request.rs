//! Request resolution: wire cells to run identities.
//!
//! Everything that feeds a [`RunKey`] lives here, and must stay
//! deterministic: a cell spec resolves to the same key on every
//! daemon, every process, every run — no wall-clock, environment, or
//! unordered-map iteration on this path (the xtask determinism pass
//! counts this module among its root files).
//!
//! A [`CellSpec`] carries exactly the identity-bearing knobs the
//! experiment CLI exposes (benchmark, predictor label, budgets, seed,
//! banking); everything else of [`SimConfig`] is pinned at the paper
//! defaults, the same baseline every figure binary starts from.

use bw_core::zoo::NamedPredictor;
use bw_core::{ConfigError, RunKey, SimConfig};
use bw_workload::BenchmarkModel;
use serde::{Deserialize, Serialize};

/// One requested simulation cell, as it travels on the wire.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CellSpec {
    /// Benchmark model name (`gzip`, `gcc`, ...).
    pub benchmark: String,
    /// Predictor label exactly as the zoo prints it (`Bim_4k`,
    /// `Gsh_1_16k_12`, ...).
    pub predictor: String,
    /// Warmup budget, instructions.
    pub warmup_insts: u64,
    /// Measured budget, instructions.
    pub measure_insts: u64,
    /// Workload seed.
    pub seed: u64,
    /// Bank the direction predictor (Table 3 bank counts).
    pub banked: bool,
}

impl CellSpec {
    /// Builds the spec for `benchmark` × `predictor` under `cfg`,
    /// copying the identity-bearing fields out of the config.
    #[must_use]
    pub fn for_run(benchmark: &str, predictor: NamedPredictor, cfg: &SimConfig) -> Self {
        CellSpec {
            benchmark: benchmark.to_string(),
            predictor: predictor.label().to_string(),
            warmup_insts: cfg.warmup_insts,
            measure_insts: cfg.measure_insts,
            seed: cfg.seed,
            banked: cfg.banked,
        }
    }
}

/// Why a cell spec could not be resolved to a runnable cell.
#[derive(Clone, Debug, PartialEq)]
pub enum RequestError {
    /// The benchmark name matches no built-in model.
    UnknownBenchmark(String),
    /// The predictor label matches none of the zoo's configurations.
    UnknownPredictor(String),
    /// The budgets/seed combination fails [`SimConfig`] validation.
    Config(ConfigError),
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestError::UnknownBenchmark(name) => write!(f, "unknown benchmark `{name}`"),
            RequestError::UnknownPredictor(label) => {
                write!(f, "unknown predictor label `{label}`")
            }
            RequestError::Config(e) => write!(f, "invalid configuration: {e}"),
        }
    }
}

impl std::error::Error for RequestError {}

/// Every named configuration in the zoo, the fourteen figure
/// predictors plus `Hybrid_0` (the pipeline-gating study's tiny
/// predictor).
const ALL_PREDICTORS: [NamedPredictor; 15] = [
    NamedPredictor::Bim128,
    NamedPredictor::Bim4k,
    NamedPredictor::Bim8k,
    NamedPredictor::Bim16k,
    NamedPredictor::GAs4k5,
    NamedPredictor::GAs32k8,
    NamedPredictor::Gshare16k12,
    NamedPredictor::Gshare32k12,
    NamedPredictor::Hybrid2,
    NamedPredictor::Hybrid1,
    NamedPredictor::Hybrid3,
    NamedPredictor::Hybrid4,
    NamedPredictor::PAs1k2k4,
    NamedPredictor::PAs4k16k8,
    NamedPredictor::Hybrid0,
];

/// Looks a predictor up by its zoo label (`Bim_4k`, `Hybrid_1`, ...).
#[must_use]
pub fn predictor_by_label(label: &str) -> Option<NamedPredictor> {
    ALL_PREDICTORS.iter().copied().find(|p| p.label() == label)
}

/// A cell spec resolved against the local model zoo: everything the
/// daemon needs to plan, deduplicate and execute the run.
#[derive(Clone)]
pub struct ResolvedCell {
    /// The benchmark model.
    pub model: &'static BenchmarkModel,
    /// The named predictor configuration.
    pub predictor: NamedPredictor,
    /// The full validated configuration (paper defaults plus the
    /// spec's budgets/seed/banking).
    pub cfg: SimConfig,
    /// The run identity — the single-flight dedup key.
    pub key: RunKey,
    /// Progress/fault-injection label, in the same `predictor /
    /// benchmark` shape the figure binaries use.
    pub label: String,
}

/// Resolves a wire cell to a runnable cell.
///
/// # Errors
///
/// A typed [`RequestError`]; the daemon maps these to `bad-request`
/// refusals, so a malformed cell costs the client nothing but the
/// reply.
pub fn resolve_cell(spec: &CellSpec) -> Result<ResolvedCell, RequestError> {
    let model = bw_workload::benchmark(&spec.benchmark)
        .ok_or_else(|| RequestError::UnknownBenchmark(spec.benchmark.clone()))?;
    let predictor = predictor_by_label(&spec.predictor)
        .ok_or_else(|| RequestError::UnknownPredictor(spec.predictor.clone()))?;
    let cfg = SimConfig::builder()
        .warmup_insts(spec.warmup_insts)
        .measure_insts(spec.measure_insts)
        .seed(spec.seed)
        .banked(spec.banked)
        .build()
        .map_err(RequestError::Config)?;
    let key = RunKey::new(model, predictor.config(), &cfg);
    let label = format!("{} / {}", predictor.label(), model.name);
    Ok(ResolvedCell {
        model,
        predictor,
        cfg,
        key,
        label,
    })
}
