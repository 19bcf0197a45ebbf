//! Order statistics and seeded arrival schedules.

use streambal_core::SplitMix64;

/// The `q`-quantile (nearest rank) of `sorted`, which must be ascending;
/// zero when empty.
#[must_use]
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `values` and returns its `q`-quantile.
#[must_use]
pub fn quantile_of(values: &mut [u64], q: f64) -> u64 {
    values.sort_unstable();
    quantile(values, q)
}

/// The median of `values` (mean of the middle two for an even count);
/// zero when empty.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Poisson arrival offsets (ns from the start) at `rate` per second over
/// `span_ns`, drawn from `rng`.
#[must_use]
pub fn poisson_offsets(rng: &mut SplitMix64, rate: f64, span_ns: u64) -> Vec<u64> {
    let mean_gap_ns = 1e9 / rate;
    let mut out = Vec::with_capacity((rate * span_ns as f64 / 1e9 * 1.1) as usize + 16);
    let mut t = 0.0f64;
    loop {
        // 1 - U lies in (0, 1], so the logarithm is finite.
        t += -(1.0 - rng.next_f64()).ln() * mean_gap_ns;
        if t >= span_ns as f64 {
            return out;
        }
        out.push(t as u64);
    }
}

/// The interquartile mean of `values`: the mean of the middle half (all
/// of them below four values). Smooth where a median jumps between the
/// modes of a two-state mixture, and deaf to a few outliers.
#[must_use]
pub fn iqm(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let (lo, hi) = if v.len() < 4 {
        (0, v.len())
    } else {
        (v.len() / 4, v.len() - v.len() / 4)
    };
    v[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
}

/// Samples per window of [`windowed`]: a p99 keeps ten samples beyond it.
pub const WINDOW: usize = 1_000;

/// A run-level quantile robust to the host: the time-ordered samples
/// (ns) are cut into windows of at least [`WINDOW`] samples (at most 40
/// windows), the `q`-quantile of each window is taken, and the windows'
/// interquartile mean is returned, in µs. One stalled window does not move
/// it, and a host that switches between a fast and a slow state during the
/// run moves it in proportion to the time spent in each.
#[must_use]
pub fn windowed(samples_ns: &[u64], q: f64) -> f64 {
    if samples_ns.is_empty() {
        return 0.0;
    }
    let size = WINDOW
        .max(samples_ns.len().div_ceil(40))
        .min(samples_ns.len());
    let per: Vec<f64> = samples_ns
        .chunks(size)
        .filter(|c| c.len() * 2 >= size || samples_ns.len() < size * 2)
        .map(|c| {
            let mut c = c.to_vec();
            quantile_of(&mut c, q) as f64 / 1e3
        })
        .collect();
    iqm(&per)
}

/// Generator lag (the [`windowed`] p99 over the nominal step, µs) above
/// which a run is invalid rather than slow: a generator that cannot keep
/// its schedule falls behind without bound, while a healthy one on this
/// class of host stays within a few hundred µs.
pub const LAG_BOUND_US: f64 = 5_000.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&v, 0.5), 50);
        assert_eq!(quantile(&v, 0.99), 99);
        assert_eq!(quantile(&v, 1.0), 100);
        assert_eq!(quantile(&[], 0.5), 0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn windowed_quantiles_ignore_a_stalled_window() {
        let mut lat = vec![1_000u64; 10_000];
        lat[2_000..2_100].fill(50_000_000);
        assert_eq!(windowed(&lat, 0.99), 1.0);
        assert_eq!(iqm(&[1.0, 2.0, 3.0, 100.0]), 2.5);
        assert_eq!(iqm(&[4.0]), 4.0);
    }

    #[test]
    fn poisson_schedule_is_seeded_and_near_its_rate() {
        let a = poisson_offsets(&mut SplitMix64::new(7), 10_000.0, 1_000_000_000);
        let b = poisson_offsets(&mut SplitMix64::new(7), 10_000.0, 1_000_000_000);
        assert_eq!(a, b);
        assert!((9_500..10_500).contains(&a.len()), "{} arrivals", a.len());
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
    }
}
