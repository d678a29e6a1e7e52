//! Order statistics and span arithmetic.

use crate::trace::Span;

/// Nearest-rank quantile (`rank = ceil(q n)`), the definition the
/// runtime's latency histogram uses, so both agree up to its bucket
/// width. `None` when empty.
pub fn quantile<T: Copy + PartialOrd>(values: &[T], q: f64) -> Option<T> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("quantile of comparable values"));
    let n = sorted.len();
    let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n);
    Some(sorted[rank - 1])
}

/// The middle value (mean of the two middle values for even counts);
/// `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

/// The interquartile mean: the mean of the middle half of `values` once
/// sorted (a quarter of them, rounded down, dropped at each end); `NaN`
/// when empty. Unlike the median it moves smoothly as a mixture of two
/// modes shifts, and unlike the mean it ignores a few outliers.
pub fn midmean(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = sorted.len() / 4;
    let middle = &sorted[cut..sorted.len() - cut];
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// The union of `spans` as sorted, disjoint intervals.
pub fn union(mut spans: Vec<Span>) -> Vec<Span> {
    spans.sort_unstable();
    let mut out: Vec<Span> = Vec::with_capacity(spans.len());
    for s in spans {
        match out.last_mut() {
            Some(last) if s.start <= last.end => last.end = last.end.max(s.end),
            _ => out.push(s),
        }
    }
    out
}

/// For each parent span, the part of it covered by `children`.
///
/// `parents` must be sorted and disjoint (successive steps or windows of
/// one measuring loop). A parent's self time is its length minus this
/// coverage, so it can never go negative.
pub fn coverage(parents: &[Span], children: Vec<Span>) -> Vec<u64> {
    let merged = union(children);
    let mut out = Vec::with_capacity(parents.len());
    let mut first = 0;
    for p in parents {
        while first < merged.len() && merged[first].end <= p.start {
            first += 1;
        }
        let mut covered = 0;
        for c in &merged[first..] {
            if c.start >= p.end {
                break;
            }
            covered += c.end.min(p.end) - c.start.max(p.start);
        }
        out.push(covered);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(start: u64, end: u64) -> Span {
        Span { start, end }
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&v, 0.5), Some(50));
        assert_eq!(quantile(&v, 0.99), Some(99));
        assert_eq!(quantile(&v, 1.0), Some(100));
        assert_eq!(quantile::<u64>(&[], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(midmean(&[100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, -50.0]), 3.5);
        assert_eq!(midmean(&[7.0, 1.0, 4.0]), 4.0);
        assert!(midmean(&[]).is_nan());
    }

    #[test]
    fn union_merges_overlaps() {
        assert_eq!(union(vec![s(5, 9), s(0, 3), s(2, 4), s(9, 10)]), vec![s(0, 4), s(5, 10)]);
    }

    #[test]
    fn child_coverage_never_exceeds_its_parent() {
        let parents = [s(0, 10), s(10, 20), s(30, 40)];
        // Children overlap each other (two threads), straddle parents and
        // stick out of the traced interval.
        let children = vec![s(2, 6), s(4, 8), s(9, 12), s(15, 35), s(39, 50)];
        let cov = coverage(&parents, children);
        assert_eq!(cov, vec![7, 7, 6]);
        for (p, c) in parents.iter().zip(&cov) {
            assert!(*c <= p.len());
        }
    }
}
