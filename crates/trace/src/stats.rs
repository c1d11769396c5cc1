//! Table-2-style stream characterization (branch frequencies, bias
//! spread, inter-branch distance histograms à la the paper's Fig 14).

use std::collections::BTreeMap;
use std::fmt;

use bw_types::CtiKind;
use bw_workload::InstSource;

use crate::decoded::DecodedTrace;
use crate::format::Trace;

/// Number of buckets in the inter-branch distance histograms; the last
/// bucket is open-ended.
pub const DIST_BUCKETS: usize = 16;

/// Characterization of a trace's instruction stream, in the style of
/// the paper's Table 2 (per-benchmark branch statistics) and Fig 14
/// (dynamic distance between consecutive branch instructions).
#[derive(Clone, Debug)]
pub struct TraceStats {
    /// Workload name from the trace header.
    pub name: String,
    /// Instructions characterized.
    pub insts: u64,
    /// Dynamic conditional branches.
    pub cond: u64,
    /// All dynamic CTIs (conditionals, jumps, calls, returns,
    /// indirects).
    pub ctis: u64,
    /// Taken conditional branches.
    pub taken: u64,
    /// Loads + stores.
    pub mem_ops: u64,
    /// Static conditional sites observed executing.
    pub static_sites: usize,
    /// Per-decile count of static sites by taken-rate: bucket 0 holds
    /// sites taken < 10% of the time, bucket 9 sites taken >= 90%.
    pub bias_deciles: [usize; 10],
    /// Fraction of dynamic conditionals whose site bias (taken-rate or
    /// its complement, whichever is larger) exceeds 90%.
    pub strongly_biased_frac: f64,
    /// Histogram of instruction distance between consecutive
    /// conditional branches; index `i` counts distance `i + 1`, the
    /// last bucket is `>= DIST_BUCKETS`.
    pub cond_distance: [u64; DIST_BUCKETS],
    /// Same, between consecutive CTIs of any kind.
    pub cti_distance: [u64; DIST_BUCKETS],
    /// Mean instruction distance between consecutive conditionals.
    pub avg_cond_distance: f64,
    /// Mean instruction distance between consecutive CTIs.
    pub avg_cti_distance: f64,
}

impl TraceStats {
    /// Dynamic conditional-branch frequency (fraction of
    /// instructions).
    #[must_use]
    pub fn cond_freq(&self) -> f64 {
        self.cond as f64 / self.insts.max(1) as f64
    }

    /// Dynamic CTI frequency (fraction of instructions).
    #[must_use]
    pub fn cti_freq(&self) -> f64 {
        self.ctis as f64 / self.insts.max(1) as f64
    }

    /// Taken rate among dynamic conditionals.
    #[must_use]
    pub fn taken_rate(&self) -> f64 {
        self.taken as f64 / self.cond.max(1) as f64
    }
}

/// Replays (up to) `max_insts` instructions of `trace` and
/// characterizes the stream. Pass `u64::MAX` to walk the whole
/// recording.
#[must_use]
pub fn characterize(trace: &Trace, max_insts: u64) -> TraceStats {
    let decoded = DecodedTrace::new(trace);
    let mut reader = decoded.reader();
    let steps = trace.meta().insts.min(max_insts);
    let mut cond = 0u64;
    let mut ctis = 0u64;
    let mut taken = 0u64;
    let mut mem_ops = 0u64;
    // Ordered map: `characterize` feeds figure tables, so every
    // derived quantity must be iteration-order independent *and* look
    // it — BTreeMap makes the property structural.
    let mut site_exec: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
    let mut cond_distance = [0u64; DIST_BUCKETS];
    let mut cti_distance = [0u64; DIST_BUCKETS];
    let mut last_cond: Option<u64> = None;
    let mut last_cti: Option<u64> = None;
    let (mut cond_dist_sum, mut cond_gaps) = (0u64, 0u64);
    let (mut cti_dist_sum, mut cti_gaps) = (0u64, 0u64);

    for i in 0..steps {
        let step = reader.step();
        if step.inst.op.is_mem() {
            mem_ops += 1;
        }
        let Some(cti) = step.inst.cti else { continue };
        ctis += 1;
        if let Some(prev) = last_cti {
            let d = i - prev;
            cti_dist_sum += d;
            cti_gaps += 1;
            cti_distance[bucket(d)] += 1;
        }
        last_cti = Some(i);
        if cti.kind == CtiKind::CondBranch {
            cond += 1;
            let outcome = step.control.expect("CTIs resolve").outcome;
            if outcome.is_taken() {
                taken += 1;
            }
            if let Some(site) = cti.site {
                let e = site_exec.entry(site).or_insert((0, 0));
                e.0 += 1;
                e.1 += u64::from(outcome.is_taken());
            }
            if let Some(prev) = last_cond {
                let d = i - prev;
                cond_dist_sum += d;
                cond_gaps += 1;
                cond_distance[bucket(d)] += 1;
            }
            last_cond = Some(i);
        }
    }

    let mut bias_deciles = [0usize; 10];
    let mut strongly_biased_dyn = 0u64;
    for &(execs, takens) in site_exec.values() {
        let rate = takens as f64 / execs.max(1) as f64;
        let decile = ((rate * 10.0) as usize).min(9);
        bias_deciles[decile] += 1;
        if !(0.1..=0.9).contains(&rate) {
            strongly_biased_dyn += execs;
        }
    }

    TraceStats {
        name: trace.meta().name.clone(),
        insts: steps,
        cond,
        ctis,
        taken,
        mem_ops,
        static_sites: site_exec.len(),
        bias_deciles,
        strongly_biased_frac: strongly_biased_dyn as f64 / cond.max(1) as f64,
        cond_distance,
        cti_distance,
        avg_cond_distance: cond_dist_sum as f64 / cond_gaps.max(1) as f64,
        avg_cti_distance: cti_dist_sum as f64 / cti_gaps.max(1) as f64,
    }
}

fn bucket(distance: u64) -> usize {
    (distance as usize).clamp(1, DIST_BUCKETS) - 1
}

impl fmt::Display for TraceStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "trace characterization: {}", self.name)?;
        writeln!(f, "  instructions          {:>12}", self.insts)?;
        writeln!(
            f,
            "  conditional branches  {:>12}  ({:.2}% of insts, {:.1}% taken)",
            self.cond,
            100.0 * self.cond_freq(),
            100.0 * self.taken_rate(),
        )?;
        writeln!(
            f,
            "  all CTIs              {:>12}  ({:.2}% of insts)",
            self.ctis,
            100.0 * self.cti_freq(),
        )?;
        writeln!(
            f,
            "  memory operations     {:>12}  ({:.2}% of insts)",
            self.mem_ops,
            100.0 * self.mem_ops as f64 / self.insts.max(1) as f64,
        )?;
        writeln!(
            f,
            "  static cond sites     {:>12}  ({:.1}% of dynamic conds from >90%-biased sites)",
            self.static_sites,
            100.0 * self.strongly_biased_frac,
        )?;
        writeln!(f, "  site taken-rate spread (static sites per decile):")?;
        write!(f, "   ")?;
        for (i, n) in self.bias_deciles.iter().enumerate() {
            write!(f, " {:>2}0%:{n:<5}", i)?;
            if i == 4 {
                write!(f, "\n   ")?;
            }
        }
        writeln!(f)?;
        writeln!(
            f,
            "  distance between conditional branches (avg {:.2} insts):",
            self.avg_cond_distance,
        )?;
        write_histogram(f, &self.cond_distance)?;
        writeln!(
            f,
            "  distance between CTIs (avg {:.2} insts):",
            self.avg_cti_distance,
        )?;
        write_histogram(f, &self.cti_distance)
    }
}

fn write_histogram(f: &mut fmt::Formatter<'_>, hist: &[u64; DIST_BUCKETS]) -> fmt::Result {
    let total: u64 = hist.iter().sum();
    for (i, &n) in hist.iter().enumerate() {
        let pct = 100.0 * n as f64 / total.max(1) as f64;
        let bar = "#".repeat((pct / 2.0).round() as usize);
        let label = if i + 1 == DIST_BUCKETS {
            format!("{:>3}+", i + 1)
        } else {
            format!("{:>4}", i + 1)
        };
        writeln!(f, "    {label}  {pct:5.1}%  {bar}")?;
    }
    Ok(())
}
