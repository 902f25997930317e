//! ECC scrubbing analysis for the SECDED-protected arrays.
//!
//! SECDED corrects one flipped bit per codeword — but only when the word
//! is *read*. A rarely touched L2 line can accumulate a second strike
//! first, turning a correctable error into an uncorrectable double
//! error. Memory systems therefore *scrub*: walk the arrays on a period
//! `T`, reading (and thereby correcting) every line.
//!
//! With per-bit strike rate `λ` (Poisson), the flips accumulated by an
//! `N`-bit codeword in one scrub period are Poisson with mean
//! `μ = λ·N·T`; the period ends uncorrectable with probability
//! `P₂ = 1 − e^{−μ}(1 + μ)`. This module provides that math and the
//! inverse problem (the scrub period achieving a target uncorrectable
//! FIT) — the quantitative background for the paper's assumption that
//! the shared L2's ECC makes it a safe recovery source.

/// Seconds per hour (FIT rates are per 10⁹ device-hours).
const SECONDS_PER_HOUR: f64 = 3600.0;

/// An ECC-protected array under scrubbing.
///
/// # Examples
///
/// ```
/// use unsync_fault::ScrubModel;
///
/// let l2 = ScrubModel::l2_table1();
/// // Hourly scrubbing keeps the whole 4 MB L2 far below 1 FIT of
/// // uncorrectable (double-strike) errors.
/// assert!(l2.uncorrectable_fit(3_600.0) < 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScrubModel {
    /// Per-bit soft-error rate, FIT (failures per 10⁹ bit-hours).
    pub fit_per_bit: f64,
    /// Codeword size in bits (Hamming(72,64): 72).
    pub codeword_bits: u32,
    /// Number of codewords in the array (a 4 MB L2 with 64-bit words:
    /// 512 Ki codewords).
    pub codewords: u64,
}

impl ScrubModel {
    /// The Table I shared L2 (4 MB data, 72-bit codewords) at a typical
    /// 90 nm SRAM rate of ~1e-3 FIT/bit.
    pub fn l2_table1() -> Self {
        ScrubModel {
            fit_per_bit: 1e-3,
            codeword_bits: 72,
            codewords: 4 * 1024 * 1024 / 8,
        }
    }

    /// Per-bit strike rate in 1/second.
    fn lambda_per_second(&self) -> f64 {
        self.fit_per_bit / 1e9 / SECONDS_PER_HOUR
    }

    /// Probability one codeword accumulates ≥ 2 strikes within a scrub
    /// period of `interval_s` seconds.
    pub fn double_error_probability(&self, interval_s: f64) -> f64 {
        assert!(interval_s >= 0.0);
        let mu = self.lambda_per_second() * self.codeword_bits as f64 * interval_s;
        // P(k ≥ 2) for Poisson(μ); use the numerically stable form for
        // small μ where 1 − e^{−μ}(1+μ) ≈ μ²/2.
        if mu < 1e-4 {
            mu * mu / 2.0 * (1.0 - mu / 3.0)
        } else {
            1.0 - (-mu).exp() * (1.0 + mu)
        }
    }

    /// Array-wide uncorrectable-error rate in FIT for a given scrub
    /// period.
    pub fn uncorrectable_fit(&self, interval_s: f64) -> f64 {
        assert!(interval_s > 0.0);
        let p = self.double_error_probability(interval_s);
        // Events per second = codewords × P₂ / T; convert to FIT.
        self.codewords as f64 * p / interval_s * SECONDS_PER_HOUR * 1e9
    }

    /// The longest scrub period (seconds) keeping the array's
    /// uncorrectable rate at or below `target_fit`, found by bisection.
    pub fn required_scrub_interval(&self, target_fit: f64) -> f64 {
        assert!(target_fit > 0.0);
        let (mut lo, mut hi) = (1e-3f64, 1e9f64);
        if self.uncorrectable_fit(hi) <= target_fit {
            return hi;
        }
        for _ in 0..200 {
            let mid = (lo * hi).sqrt();
            if self.uncorrectable_fit(mid) <= target_fit {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn double_error_probability_is_quadratic_for_short_periods() {
        let m = ScrubModel::l2_table1();
        let p1 = m.double_error_probability(10.0);
        let p2 = m.double_error_probability(20.0);
        // Doubling the window ≈ 4× the double-strike probability.
        assert!((p2 / p1 - 4.0).abs() < 0.01, "{}", p2 / p1);
    }

    #[test]
    fn faster_scrubbing_reduces_uncorrectable_fit() {
        let m = ScrubModel::l2_table1();
        let slow = m.uncorrectable_fit(86_400.0); // daily
        let fast = m.uncorrectable_fit(3_600.0); // hourly
        assert!(fast < slow);
        assert!(
            (slow / fast - 24.0).abs() < 0.5,
            "rate ∝ interval: {}",
            slow / fast
        );
    }

    #[test]
    fn required_interval_hits_the_target() {
        let m = ScrubModel::l2_table1();
        // A tight target so the answer lies strictly inside the search
        // range (at ≥1 FIT budgets even decade-long scrub periods pass).
        let target = 0.001;
        let t = m.required_scrub_interval(target);
        assert!(t < 1e9, "interior solution expected, got {t}");
        assert!(m.uncorrectable_fit(t) <= target * 1.001);
        // And slacking by 2x violates it.
        assert!(m.uncorrectable_fit(t * 2.0) > target);
    }

    #[test]
    fn loose_targets_saturate_at_the_search_cap() {
        let m = ScrubModel::l2_table1();
        assert_eq!(m.required_scrub_interval(100.0), 1e9);
    }

    #[test]
    fn poisson_exact_and_approximation_agree_at_the_crossover() {
        let m = ScrubModel {
            fit_per_bit: 1.0,
            codeword_bits: 72,
            codewords: 1,
        };
        // Pick intervals straddling the μ = 1e-4 switch.
        let lambda = 1.0 / 1e9 / 3600.0;
        let t_at = |mu: f64| mu / (lambda * 72.0);
        let below = m.double_error_probability(t_at(9e-5));
        let above = m.double_error_probability(t_at(1.1e-4));
        assert!(above > below);
        assert!((above / below - (1.1e-4f64 / 9e-5).powi(2)).abs() < 0.01);
    }

    proptest! {
        #[test]
        fn prop_fit_monotone_in_interval(a in 1.0f64..1e6, factor in 1.01f64..100.0) {
            let m = ScrubModel::l2_table1();
            prop_assert!(m.uncorrectable_fit(a * factor) >= m.uncorrectable_fit(a));
        }

        #[test]
        fn prop_probability_in_unit_interval(t in 0.0f64..1e9) {
            let m = ScrubModel::l2_table1();
            let p = m.double_error_probability(t);
            prop_assert!((0.0..=1.0).contains(&p));
        }
    }
}
