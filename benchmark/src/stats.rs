//! Order statistics over the samples a run collects.

/// The `q`-quantile (nearest rank) of an ascending slice; 0 when empty.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `v` ascending (samples are finite by construction).
pub fn sort(v: &mut [f64]) {
    v.sort_unstable_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
}

/// The median of `v` (sorts a copy).
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    sort(&mut s);
    quantile(&s, 0.5)
}

/// The rate and latency a window would have shown on a quiet host. The
/// sandbox's noise is one-sided and comes in plateaus that last seconds (a
/// busy sibling core slows every layer by a third), so a mean or median over
/// the whole window flips between plateaus from run to run; the best part
/// of the window does not.
pub struct Quiet {
    pub ops_per_s: f64,
    /// Median time of one operation, in nanoseconds.
    pub op_ns_p50: f64,
}

/// For statistically uniform operations (packets): `op_ns` are consecutive
/// operation times, cut into slices of `slice_len` (a trailing partial
/// slice is left out); the fastest twentieth of the slices is pooled.
pub fn quiet_slices(op_ns: &[f64], slice_len: usize) -> Quiet {
    let mut slices: Vec<(f64, &[f64])> = op_ns
        .chunks_exact(slice_len.max(1))
        .map(|c| (c.iter().sum::<f64>(), c))
        .collect();
    slices.sort_unstable_by(|a, b| a.0.partial_cmp(&b.0).expect("times are finite"));
    slices.truncate(slices.len().div_ceil(20));
    let mut pooled: Vec<f64> = slices.iter().flat_map(|(_, c)| c.iter().copied()).collect();
    sort(&mut pooled);
    Quiet {
        ops_per_s: pooled.len() as f64 / (pooled.iter().sum::<f64>() / 1e9),
        op_ns_p50: quantile(&pooled, 0.5),
    }
}

/// For passes that repeat the same operations in the same order: operation
/// `i`'s fastest time over the passes is its time without interference.
pub fn best_of_passes(passes: &[&[f64]]) -> Quiet {
    let len = passes.iter().map(|p| p.len()).min().unwrap_or(0);
    let mut best: Vec<f64> = (0..len)
        .map(|i| passes.iter().map(|p| p[i]).fold(f64::INFINITY, f64::min))
        .collect();
    let total: f64 = best.iter().sum();
    sort(&mut best);
    Quiet {
        ops_per_s: len as f64 / (total / 1e9),
        op_ns_p50: quantile(&best, 0.5),
    }
}

/// Median and quartile distance as a share of the median, as
/// `statistics.quantiles(values, n=4)` computes the quartiles (exclusive
/// method), so `--compare` judges spread the way the acceptance check does.
pub fn median_and_spread(v: &[f64]) -> (f64, f64) {
    let mut s = v.to_vec();
    sort(&mut s);
    let n = s.len();
    if n == 0 {
        return (0.0, 0.0);
    }
    let at = |p: f64| {
        // Exclusive method: position p*(n+1), 1-based, linear interpolation.
        let pos = (p * (n as f64 + 1.0)).clamp(1.0, n as f64);
        let lo = pos.floor() as usize;
        let frac = pos - lo as f64;
        let hi = (lo + 1).min(n);
        s[lo - 1] + frac * (s[hi - 1] - s[lo - 1])
    };
    let med = at(0.5);
    let spread = if n >= 2 && med != 0.0 {
        (at(0.75) - at(0.25)) / med.abs()
    } else {
        0.0
    };
    (med, spread)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (med, spread) = median_and_spread(&v);
        assert!((med - 5.5).abs() < 1e-12);
        assert!((spread - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(quantile(&v, 0.5), 5.0);
        assert_eq!(quantile(&v, 0.99), 10.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn quiet_estimates_ignore_the_slow_part_of_a_window() {
        // 40 slices of 10 ops at 100 ns, every second slice slowed 3x.
        let op_ns: Vec<f64> = (0..400)
            .map(|i| if (i / 10) % 2 == 0 { 100.0 } else { 300.0 })
            .collect();
        let q = quiet_slices(&op_ns, 10);
        assert!((q.ops_per_s - 1e7).abs() < 1.0, "{}", q.ops_per_s);
        assert_eq!(q.op_ns_p50, 100.0);
        // Two passes of the same three ops, each hit by noise once.
        let (a, b) = ([10.0, 50.0, 30.0], [40.0, 20.0, 30.0]);
        let q = best_of_passes(&[&a, &b]);
        assert!((q.ops_per_s - 3.0 / 60e-9).abs() < 1.0, "{}", q.ops_per_s);
        assert_eq!(q.op_ns_p50, 20.0);
    }
}
