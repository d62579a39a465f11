//! Order statistics over repeated measurements.

/// Smallest sample, median, quartiles and sample count of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub min: f64,
    pub median: f64,
    pub p25: f64,
    pub p75: f64,
    pub n: usize,
}

impl Summary {
    /// Summarises `samples`. The quartiles follow Python's
    /// `statistics.quantiles(samples, n=4)` (the default exclusive method),
    /// so numbers here match a spreadsheet or script over the same samples.
    /// A single sample is its own median and quartiles.
    ///
    /// # Panics
    /// Panics on an empty sample.
    pub fn of(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "no samples to summarise");
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let median = if n % 2 == 1 {
            v[n / 2]
        } else {
            (v[n / 2 - 1] + v[n / 2]) / 2.0
        };
        if n == 1 {
            return Self {
                min: v[0],
                median,
                p25: v[0],
                p75: v[0],
                n,
            };
        }
        let m = n + 1;
        let quartile = |i: usize| {
            // Python clamps j to 1..n-1 and extrapolates past the ends.
            let j = (i * m / 4).clamp(1, n - 1);
            let delta = (i * m) as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        Self {
            min: v[0],
            median,
            p25: quartile(1),
            p75: quartile(3),
            n,
        }
    }

    /// The interquartile range as a share of the median (0 when the median is 0).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.p75 - self.p25) / self.median.abs()
        }
    }
}

/// Assembles the samples of passes made of several timed steps, given pass
/// by pass with the same steps each: the i-th sample is the sum over steps of
/// each step's i-th fastest time. The fastest assembled pass then has every
/// step at its fastest, and the quartiles are sums of the steps' quartiles.
/// Passes of one step come back as they are, sorted.
pub fn assemble(passes: &[Vec<f64>]) -> Vec<f64> {
    let steps = passes.first().map_or(0, Vec::len);
    let mut columns: Vec<Vec<f64>> = (0..steps)
        .map(|s| passes.iter().map(|p| p[s]).collect())
        .collect();
    for c in &mut columns {
        c.sort_by(f64::total_cmp);
    }
    (0..passes.len())
        .map(|i| columns.iter().map(|c| c[i]).sum())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assembles_each_step_at_its_own_rank() {
        // Each pass has one slow step; assembled, the fastest pass has none.
        let passes = [vec![1.0, 9.0], vec![8.0, 2.0], vec![3.0, 4.0]];
        assert_eq!(assemble(&passes), [3.0, 7.0, 17.0]);
        assert_eq!(
            assemble(&[vec![5.0], vec![4.0], vec![6.0]]),
            [4.0, 5.0, 6.0]
        );
        assert!(assemble(&[]).is_empty());
    }

    #[test]
    fn matches_python_quantiles_on_known_vectors() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let s = Summary::of(&(1..=10).map(f64::from).collect::<Vec<_>>());
        assert_eq!((s.p25, s.median, s.p75, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([7, 1, 3, 9, 5], n=4) == [2.0, 5.0, 8.0]
        let s = Summary::of(&[7.0, 1.0, 3.0, 9.0, 5.0]);
        assert_eq!((s.min, s.p25, s.median, s.p75), (1.0, 2.0, 5.0, 8.0));
        // statistics.quantiles([4, 2], n=4) == [1.5, 3.0, 4.5]
        let s = Summary::of(&[4.0, 2.0]);
        assert_eq!((s.p25, s.median, s.p75), (1.5, 3.0, 4.5));
    }

    #[test]
    fn single_sample_and_spread() {
        let s = Summary::of(&[3.5]);
        assert_eq!(
            (s.min, s.p25, s.median, s.p75, s.n),
            (3.5, 3.5, 3.5, 3.5, 1)
        );
        assert_eq!(s.spread(), 0.0);
        let s = Summary::of(&[8.0, 10.0, 12.0]);
        // quantiles([8, 10, 12], n=4) == [8.0, 10.0, 12.0]
        assert_eq!(s.spread(), 0.4);
    }
}
