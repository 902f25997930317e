//! Branch prediction.
//!
//! The workload traces annotate each dynamic branch with a misprediction
//! flag drawn from the profile's rate — the right default for
//! architecture comparisons, because every configuration then sees
//! *identical* control-flow timing. For studies where prediction itself
//! is the subject, the engine can instead run a real **gshare** predictor
//! ([`Gshare`]) over the branch stream via
//! [`crate::OooEngine::with_predictor`]: global history XOR pc indexes a
//! table of 2-bit saturating counters.

/// A gshare branch predictor.
///
/// # Examples
///
/// ```
/// use unsync_sim::Gshare;
///
/// let mut p = Gshare::with_history(12, 0); // bimodal: no history bits
/// for _ in 0..64 {
///     p.resolve(0x400, true); // a loop back-edge, always taken
/// }
/// assert!(p.predict(0x400));
/// assert!(p.mispredict_rate() < 0.1);
/// ```
#[derive(Debug, Clone)]
pub struct Gshare {
    /// log2 of the counter-table size.
    index_bits: u32,
    /// History bits folded into the index (0 = bimodal).
    history_bits: u32,
    /// Global branch-history register.
    history: u64,
    /// 2-bit saturating counters (0–1 predict not-taken, 2–3 taken).
    table: Vec<u8>,
    /// Dynamic branches predicted.
    pub predictions: u64,
    /// Mispredictions.
    pub mispredictions: u64,
}

impl Gshare {
    /// A predictor with `2^index_bits` counters (Alpha-21264-class
    /// front ends used ~4K entries: `index_bits = 12`) and the full
    /// index-width history register.
    pub fn new(index_bits: u32) -> Self {
        Self::with_history(index_bits, index_bits)
    }

    /// A predictor whose global history is truncated to `history_bits`
    /// (`0` degenerates to a **bimodal** per-pc predictor). Short
    /// histories win when branch outcomes are per-site biased but not
    /// correlated across branches.
    pub fn with_history(index_bits: u32, history_bits: u32) -> Self {
        assert!((4..=24).contains(&index_bits), "unreasonable table size");
        assert!(
            history_bits <= index_bits,
            "history cannot exceed the index"
        );
        Gshare {
            index_bits,
            history_bits,
            history: 0,
            table: vec![1; 1 << index_bits], // weakly not-taken
            predictions: 0,
            mispredictions: 0,
        }
    }

    #[inline]
    fn index(&self, pc: u64) -> usize {
        let mask = (1u64 << self.index_bits) - 1;
        let hist_mask = (1u64 << self.history_bits).wrapping_sub(1);
        (((pc >> 2) ^ (self.history & hist_mask)) & mask) as usize
    }

    /// Predicts the branch at `pc`.
    #[inline]
    pub fn predict(&self, pc: u64) -> bool {
        self.table[self.index(pc)] >= 2
    }

    /// Resolves the branch at `pc`: updates the counter and history and
    /// returns `true` iff the prediction was wrong.
    pub fn resolve(&mut self, pc: u64, taken: bool) -> bool {
        let idx = self.index(pc);
        let predicted = self.table[idx] >= 2;
        self.predictions += 1;
        let mispredicted = predicted != taken;
        if mispredicted {
            self.mispredictions += 1;
        }
        let c = &mut self.table[idx];
        if taken {
            *c = (*c + 1).min(3);
        } else {
            *c = c.saturating_sub(1);
        }
        self.history = (self.history << 1) | taken as u64;
        mispredicted
    }

    /// Observed misprediction rate.
    pub fn mispredict_rate(&self) -> f64 {
        if self.predictions == 0 {
            0.0
        } else {
            self.mispredictions as f64 / self.predictions as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unsync_isa::exec::splitmix64;

    #[test]
    fn always_taken_branch_is_learned() {
        let mut p = Gshare::new(10);
        // Warm up: each new history pattern starts on a cold counter
        // until the (masked) history register saturates to all-ones.
        for _ in 0..100 {
            p.resolve(0x400, true);
        }
        let warm_miss = p.mispredictions;
        for _ in 0..100 {
            p.resolve(0x400, true);
        }
        assert_eq!(p.mispredictions, warm_miss, "steady state is perfect");
        assert!(p.predict(0x400));
    }

    #[test]
    fn alternating_pattern_is_learned_through_history() {
        // T,N,T,N… defeats a bimodal predictor but gshare's history
        // disambiguates the two contexts.
        let mut p = Gshare::new(12);
        let mut last_mispredicts = 0;
        for round in 0..4 {
            for i in 0..256 {
                p.resolve(0x800, i % 2 == 0);
            }
            if round == 3 {
                last_mispredicts = p.mispredictions;
            }
        }
        let warm_rate = (p.mispredictions - last_mispredicts.min(p.mispredictions)) as f64 / 256.0;
        assert!(
            warm_rate < 1.0,
            "alternation should not be pathological: {warm_rate}"
        );
        // And the overall rate is far below 50 % (random would be ~50 %).
        assert!(p.mispredict_rate() < 0.3, "{}", p.mispredict_rate());
    }

    #[test]
    fn random_branches_hover_near_fifty_percent() {
        let mut p = Gshare::new(12);
        for i in 0..20_000u64 {
            p.resolve(0x1000 + (i % 64) * 4, splitmix64(i) & 1 == 1);
        }
        let r = p.mispredict_rate();
        assert!((r - 0.5).abs() < 0.1, "random stream rate {r}");
    }

    #[test]
    fn distinct_branches_do_not_destructively_interfere() {
        let mut p = Gshare::new(14);
        for _ in 0..200 {
            p.resolve(0x4000, true);
            p.resolve(0x8000, false);
        }
        assert!(p.mispredict_rate() < 0.15, "{}", p.mispredict_rate());
    }

    #[test]
    #[should_panic(expected = "unreasonable")]
    fn absurd_table_rejected() {
        let _ = Gshare::new(40);
    }
}
