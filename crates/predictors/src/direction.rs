//! The direction-predictor interface: prediction, speculative history
//! update, repair, and commit-time training.

use bw_arrays::ArraySpec;
use bw_types::{Addr, Outcome};

/// The role an array structure plays inside the branch-prediction
//  machinery — used by the power model to attribute per-access energy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum StorageRole {
    /// A pattern history table of saturating counters.
    Pht,
    /// A branch history table of per-branch history registers.
    Bht,
    /// A hybrid predictor's selector/chooser table.
    Selector,
    /// The branch target buffer.
    Btb,
    /// The return-address stack.
    Ras,
    /// The prediction probe detector.
    Ppd,
    /// A standalone confidence-estimator table (pipeline gating).
    Confidence,
}

/// One array structure and its per-event access counts.
///
/// `reads_per_lookup` is how many times the array is read on one
/// front-end lookup (the paper charges one lookup per active fetch
/// cycle); `writes_per_update` is how many writes one commit-time
/// update performs.
#[derive(Clone, Copy, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Storage {
    /// What the array is.
    pub role: StorageRole,
    /// Its logical geometry.
    pub spec: ArraySpec,
    /// Reads per front-end lookup.
    pub reads_per_lookup: f64,
    /// Writes per commit-time update.
    pub writes_per_update: f64,
}

/// Everything a predictor needs at commit time to train the entry it
/// actually read, plus what the confidence estimator needs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct PredMeta {
    /// Global history value used to form the index.
    pub ghist: u64,
    /// Local history value used (PAs/hybrid-local), else 0.
    pub lhist: u32,
    /// BHT index consulted, if any.
    pub bht_index: u32,
}

/// A branch prediction with its training metadata.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Prediction {
    /// Predicted direction.
    pub outcome: Outcome,
    /// Index/history state needed for commit-time training.
    pub meta: PredMeta,
    /// For hybrid predictors: `Some(true)` when both components give
    /// the same direction — the "both strong" high-confidence signal
    /// the paper uses for pipeline gating (Section 4.3). `None` for
    /// non-hybrid predictors.
    pub components_agree: Option<bool>,
}

/// A checkpoint of speculative history state taken at lookup time.
///
/// Restoring checkpoints youngest-first undoes the speculative history
/// pollution of a squashed path (the speculative-update-with-repair
/// scheme of Skadron et al. that the paper models).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct HistCheckpoint {
    /// Global history register value before this branch's speculative
    /// shift.
    pub ghr_before: u64,
    /// `(BHT index, entry value before the shift)`, for predictors
    /// with local history.
    pub local_before: Option<(u32, u32)>,
}

/// What [`DirectionPredictor::lookup`] and
/// [`DirectionPredictor::spec_push`] return: a prediction paired with
/// the speculative-history checkpoint taken before the shift.
///
/// Named fields replace the bare `(Prediction, HistCheckpoint)` tuple
/// the trait used to return — positional access made swapped-element
/// bugs invisible at call sites.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct LookupResult {
    /// The prediction, carrying its commit-time training metadata.
    pub pred: Prediction,
    /// Speculative history state from *before* this branch's shift;
    /// restore it with [`DirectionPredictor::repair`].
    pub ckpt: HistCheckpoint,
}

/// A structure-of-arrays batch of *resolved* conditional branches for
/// the trace-style warm path ([`DirectionPredictor::lookup_batch`] /
/// [`DirectionPredictor::commit_batch`]).
///
/// PCs and outcomes live in parallel arrays so specialized batch
/// implementations can stream each with unit stride against their
/// flat counter tables.
#[derive(Clone, Debug, Default)]
pub struct BranchBatch {
    pcs: Vec<Addr>,
    outcomes: Vec<Outcome>,
}

impl BranchBatch {
    /// An empty batch.
    #[must_use]
    pub fn new() -> Self {
        BranchBatch::default()
    }

    /// An empty batch with room for `n` branches.
    #[must_use]
    pub fn with_capacity(n: usize) -> Self {
        BranchBatch {
            pcs: Vec::with_capacity(n),
            outcomes: Vec::with_capacity(n),
        }
    }

    /// Appends one resolved branch.
    pub fn push(&mut self, pc: Addr, outcome: Outcome) {
        self.pcs.push(pc);
        self.outcomes.push(outcome);
    }

    /// Number of branches in the batch.
    #[must_use]
    pub fn len(&self) -> usize {
        self.pcs.len()
    }

    /// `true` when the batch holds no branches.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pcs.is_empty()
    }

    /// Empties the batch, keeping its allocations.
    pub fn clear(&mut self) {
        self.pcs.clear();
        self.outcomes.clear();
    }

    /// The branch PCs, in batch order.
    #[must_use]
    pub fn pcs(&self) -> &[Addr] {
        &self.pcs
    }

    /// The resolved outcomes, in batch order.
    #[must_use]
    pub fn outcomes(&self) -> &[Outcome] {
        &self.outcomes
    }

    /// Iterates `(pc, outcome)` pairs in batch order.
    pub fn iter(&self) -> impl Iterator<Item = (Addr, Outcome)> + '_ {
        self.pcs.iter().copied().zip(self.outcomes.iter().copied())
    }
}

/// A dynamic branch direction predictor with speculative history
/// update and repair.
///
/// Protocol per dynamic branch:
///
/// 1. **Fetch**: [`lookup`](Self::lookup) — read the tables, form a
///    prediction, shift the *predicted* outcome into the histories,
///    and return a [`HistCheckpoint`].
/// 2. **Squash** (wrong path detected): for every in-flight branch
///    younger than the offender, youngest first, call
///    [`repair`](Self::repair) with its checkpoint; then repair the
///    offender itself and re-insert its now-known outcome with
///    [`spec_push`](Self::spec_push).
/// 3. **Commit**: [`commit`](Self::commit) — train the counters the
///    lookup actually read.
///
/// For trace-style warm paths, where every outcome is already known,
/// the batched surface ([`lookup_batch`](Self::lookup_batch) /
/// [`commit_batch`](Self::commit_batch)) runs the same protocol over
/// a whole [`BranchBatch`] with one virtual call per batch instead of
/// several per branch.
pub trait DirectionPredictor {
    /// Predicts the branch at `pc` and speculatively updates history.
    fn lookup(&mut self, pc: Addr) -> LookupResult;

    /// Predicts the branch at `pc` *without* touching any speculative
    /// state — for machines that update history only at commit (the
    /// baseline that Skadron et al.'s speculative-update study, which
    /// the paper's simulator adopts, improves upon). Pair with a
    /// commit-time [`spec_push`](Self::spec_push) of the resolved
    /// outcome.
    fn predict_nonspec(&self, pc: Addr) -> Prediction;

    /// Restores speculative history state from a checkpoint.
    fn repair(&mut self, ckpt: &HistCheckpoint);

    /// Shifts a resolved `outcome` into the histories (after a repair).
    ///
    /// Mirrors [`lookup`](Self::lookup)'s return shape: the re-inserted
    /// outcome echoed as a [`Prediction`] (its metadata matching what a
    /// lookup at this point would capture) plus the fresh checkpoint
    /// for the re-inserted branch.
    fn spec_push(&mut self, pc: Addr, outcome: Outcome) -> LookupResult;

    /// Trains the predictor with the architectural outcome.
    fn commit(&mut self, pc: Addr, actual: Outcome, pred: &Prediction);

    /// Runs the warm-path protocol over a whole batch of *resolved*
    /// branches: for each `(pc, outcome)` pair, look up, and on a
    /// mispredict repair and re-insert the actual outcome — exactly
    /// the correct-path sequence the scalar protocol performs — then
    /// push the prediction into `preds`.
    ///
    /// Because every outcome is already known, an implementation can
    /// shift the resolved outcome straight into its histories and skip
    /// the per-branch checkpoint traffic. Pair with
    /// [`commit_batch`](Self::commit_batch) over the same batch: the
    /// final predictor state is byte-identical to the interleaved
    /// scalar protocol, because commit-time training indexes through
    /// the [`PredMeta`] captured at lookup, never live history.
    ///
    /// The predictions in `preds` are advisory (the warm path discards
    /// them): history evolves element by element exactly as in the
    /// scalar protocol, but counter *commits* defer to
    /// [`commit_batch`](Self::commit_batch), so a PC that repeats
    /// within one batch reads counter state from batch entry and its
    /// later predictions may differ from the scalar interleaving.
    /// Batches of size 1 reproduce the scalar protocol exactly,
    /// predictions included.
    fn lookup_batch(&mut self, batch: &BranchBatch, preds: &mut Vec<Prediction>);

    /// Trains the predictor with a whole batch of architectural
    /// outcomes; `preds[i]` must be the prediction
    /// [`lookup_batch`](Self::lookup_batch) produced for the batch's
    /// `i`-th branch.
    ///
    /// # Panics
    ///
    /// Panics if `preds` is shorter than the batch.
    fn commit_batch(&mut self, batch: &BranchBatch, preds: &[Prediction]);

    /// The array structures this predictor is built from, for the
    /// power model.
    fn storages(&self) -> Vec<Storage>;

    /// A short human-readable description (e.g. `"gshare-16k/12"`).
    fn describe(&self) -> String;

    /// The speculative global history register, for predictors that
    /// keep one. Debugging/verification hook.
    #[doc(hidden)]
    fn debug_ghr(&self) -> Option<u64> {
        None
    }

    /// `true` when every saturating counter the predictor owns is
    /// within its representable range — the runtime sanitizer's
    /// counter-range invariant. Predictors without counter tables
    /// report `true`.
    fn counters_in_range(&self) -> bool {
        true
    }

    /// Total state bits across all storages.
    fn total_bits(&self) -> u64 {
        self.storages().iter().map(|s| s.spec.total_bits()).sum()
    }
}

/// Extracts `bits` low bits of a PC's word index (the conventional
/// branch-address hash input).
#[must_use]
pub(crate) fn pc_bits(pc: Addr, bits: u32) -> u64 {
    let idx = pc.0 >> 2;
    if bits >= 64 {
        idx
    } else {
        idx & ((1u64 << bits) - 1)
    }
}

/// `log2` of a power-of-two table size.
///
/// # Panics
///
/// Panics if `n` is not a power of two.
#[must_use]
pub(crate) fn log2_exact(n: u64) -> u32 {
    assert!(
        n.is_power_of_two(),
        "table sizes must be powers of two (got {n})"
    );
    n.trailing_zeros()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pc_bits_masks_word_index() {
        assert_eq!(pc_bits(Addr(0b11_0100), 3), 0b101);
        assert_eq!(pc_bits(Addr(0x0), 8), 0);
        assert_eq!(pc_bits(Addr(0xffff_fffc), 64), 0x3fff_ffff);
    }

    #[test]
    fn log2_exact_works_and_rejects() {
        assert_eq!(log2_exact(1), 0);
        assert_eq!(log2_exact(16 * 1024), 14);
    }

    #[test]
    #[should_panic(expected = "powers of two")]
    fn log2_rejects_non_powers() {
        let _ = log2_exact(48);
    }

    #[test]
    fn default_checkpoint_is_empty() {
        let c = HistCheckpoint::default();
        assert_eq!(c.ghr_before, 0);
        assert_eq!(c.local_before, None);
    }

    #[test]
    fn branch_batch_basics() {
        let mut b = BranchBatch::with_capacity(4);
        assert!(b.is_empty());
        b.push(Addr(0x40), Outcome::Taken);
        b.push(Addr(0x44), Outcome::NotTaken);
        assert_eq!(b.len(), 2);
        assert_eq!(b.pcs(), &[Addr(0x40), Addr(0x44)]);
        assert_eq!(b.outcomes(), &[Outcome::Taken, Outcome::NotTaken]);
        let pairs: Vec<_> = b.iter().collect();
        assert_eq!(pairs[1], (Addr(0x44), Outcome::NotTaken));
        b.clear();
        assert!(b.is_empty());
    }

    #[test]
    #[should_panic(expected = "one prediction per batched branch")]
    fn commit_batch_rejects_short_preds() {
        let mut p = crate::Bimodal::new(64);
        let mut batch = BranchBatch::new();
        batch.push(Addr(0), Outcome::Taken);
        let dynp: &mut dyn DirectionPredictor = &mut p;
        dynp.commit_batch(&batch, &[]);
    }
}
