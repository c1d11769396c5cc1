//! Order statistics for `run` (medians of samples) and `compare`
//! (quartiles and the win rule of choosing-metrics §8).

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// The median (mean of the two middle values for an even count); NaN
/// for no samples.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First and third quartiles, computed exactly as Python's
/// `statistics.quantiles(xs, n=4)` (the default exclusive method), so
/// spreads read the same here as in Python-side analyses of the runs.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let s = sorted(xs);
    let ld = s.len();
    if ld < 2 {
        let v = s.first().copied().unwrap_or(f64::NAN);
        return (v, v);
    }
    let m = (ld + 1) as i64;
    let cut = |i: i64| {
        let j = (i * m / 4).clamp(1, ld as i64 - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile range as a share of the median.
pub fn spread(xs: &[f64]) -> f64 {
    let (q1, q3) = quartiles(xs);
    (q3 - q1) / median(xs)
}

/// Pairs `parent[i]` with `change[i]` and counts the pairs the change
/// wins; ties count for neither side.
pub fn wins(parent: &[f64], change: &[f64], lower_is_better: bool) -> usize {
    parent
        .iter()
        .zip(change)
        .filter(|(p, c)| if lower_is_better { c < p } else { c > p })
        .count()
}

/// Pairs needed before a gain can be claimed.
pub const MIN_PAIRS: usize = 10;

/// What `compare` concludes for one metric on one workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The change wins at least 9 of 10 pairs and its median beats the
    /// parent's by more than the parent's interquartile range.
    Gain,
    /// No worse than the bound allows, with a spread inside the bound.
    Same,
    /// The change's median is worse than the parent's by more than the
    /// bound.
    Regressed,
    /// The parent's spread exceeds the bound, so a regression that
    /// size could not be seen (and not every change run is better).
    Unresolved,
    /// A gain the change cannot claim because it failed more cells than
    /// the parent.
    Refused,
}

impl Verdict {
    /// The word `compare` prints.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Gain => "gain",
            Verdict::Same => "same",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
            Verdict::Refused => "REFUSED (more failed cells)",
        }
    }
}

/// Applies choosing-metrics §8 to one metric: `bound` is the share of
/// the parent's median by which the change may be worse.
pub fn verdict(parent: &[f64], change: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let pairs = parent.len().min(change.len());
    let won = wins(parent, change, lower_is_better);
    let (pm, cm) = (median(parent), median(change));
    let (q1, q3) = quartiles(parent);
    let gap = if lower_is_better { pm - cm } else { cm - pm };
    if pairs >= MIN_PAIRS && 10 * won >= 9 * pairs && gap > q3 - q1 {
        return Verdict::Gain;
    }
    let all_better = parent.iter().all(|p| {
        change
            .iter()
            .all(|c| if lower_is_better { c < p } else { c > p })
    });
    if spread(parent) > bound && !all_better {
        Verdict::Unresolved
    } else if -gap > bound * pm.abs() {
        Verdict::Regressed
    } else {
        Verdict::Same
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 3.0, 1.0, 4.0, 2.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        let s = spread(&xs);
        assert!((s - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn win_rule_needs_ten_pairs_nine_wins_and_a_gap_beyond_the_iqr() {
        let parent: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i)).collect();
        let faster: Vec<f64> = parent.iter().map(|p| p - 20.0).collect();
        assert_eq!(wins(&parent, &faster, true), 10);
        assert_eq!(verdict(&parent, &faster, true, 0.1), Verdict::Gain);
        // Same runs read as a higher-is-better metric: a clear loss.
        assert_eq!(verdict(&parent, &faster, false, 0.1), Verdict::Regressed);
        // Nine pairs are not enough, however clear the gap.
        assert_eq!(
            verdict(&parent[..9], &faster[..9], true, 0.1),
            Verdict::Same
        );
        // Two losses out of ten break the 9/10 rule.
        let mut mixed = faster.clone();
        mixed[0] = 200.0;
        mixed[1] = 200.0;
        assert_eq!(verdict(&parent, &mixed, true, 0.1), Verdict::Same);
        // Ten wins by a hair: the gap does not clear the parent's IQR.
        let hair: Vec<f64> = parent.iter().map(|p| p - 0.5).collect();
        assert_eq!(verdict(&parent, &hair, true, 0.1), Verdict::Same);
        // Ties count for neither side.
        assert_eq!(wins(&parent, &parent, true), 0);
    }

    #[test]
    fn wide_parent_spread_is_unresolved_unless_every_change_run_is_better() {
        let parent = [50.0, 100.0, 150.0, 60.0, 140.0];
        let similar = [55.0, 95.0, 160.0, 65.0, 130.0];
        assert_eq!(verdict(&parent, &similar, true, 0.1), Verdict::Unresolved);
        let all_better = [10.0, 11.0, 12.0, 13.0, 14.0];
        assert_eq!(verdict(&parent, &all_better, true, 0.1), Verdict::Same);
    }
}
