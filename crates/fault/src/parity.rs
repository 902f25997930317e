//! 1-bit even parity protection.
//!
//! The paper's detection choice for storage elements whose write→read
//! separation is at least one cycle (register file, LSQ, TLB, L1 data
//! arrays): parity generation happens on the write, verification on the
//! read, so the 1-cycle XOR-tree latency is hidden (§III-B1). Cost is
//! "negligible (<1 %) power and area" — modelled in `unsync-hwcost`.
//!
//! Parity detects every odd number of flipped bits and misses every even
//! number. A single-event upset flips one bit, so single-strike coverage
//! is complete; the property tests below pin down both behaviours.

/// Even parity bit of a 64-bit word: `1` iff the popcount is odd, so that
/// `word popcount + parity` is always even.
#[inline]
pub fn parity_bit(word: u64) -> bool {
    word.count_ones() % 2 == 1
}

/// A 64-bit word protected by one even-parity bit.
///
/// This is the model of one register-file / LSQ / TLB entry in UnSync.
///
/// # Examples
///
/// ```
/// use unsync_fault::ParityWord;
///
/// let mut w = ParityWord::store(42);
/// assert_eq!(w.load(), Ok(42));
/// w.flip_data_bit(3);
/// assert_eq!(w.load(), Err(42 ^ 8)); // detected on the next read
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParityWord {
    data: u64,
    parity: bool,
}

impl ParityWord {
    /// Stores `data`, generating its parity bit (the "write" side).
    #[inline]
    pub fn store(data: u64) -> Self {
        ParityWord {
            data,
            parity: parity_bit(data),
        }
    }

    /// Reads the data and verifies parity (the "read" side).
    ///
    /// Returns `Ok(data)` when parity matches, `Err(data)` when a parity
    /// error is detected (the raw — possibly corrupt — data is still
    /// reported, since hardware reads it either way; the *architecture*
    /// decides what to do with the error signal).
    #[inline]
    pub fn load(self) -> Result<u64, u64> {
        if parity_bit(self.data) == self.parity {
            Ok(self.data)
        } else {
            Err(self.data)
        }
    }

    /// Whether a parity check would flag this word.
    #[inline]
    pub fn check(self) -> bool {
        parity_bit(self.data) == self.parity
    }

    /// Raw stored data, without checking (for fault injection plumbing).
    #[inline]
    pub fn raw(self) -> u64 {
        self.data
    }

    /// Flips data bit `bit` (0–63) — a soft error striking the storage cell.
    #[inline]
    pub fn flip_data_bit(&mut self, bit: u32) {
        assert!(bit < 64, "data bit {bit} out of range");
        self.data ^= 1 << bit;
    }

    /// Flips the parity bit itself — a soft error striking the check cell.
    /// (Detected exactly like a data flip: the stored parity no longer
    /// matches the recomputed one.)
    #[inline]
    pub fn flip_parity_bit(&mut self) {
        self.parity = !self.parity;
    }
}

/// A cache line of `W` 64-bit words protected by a *single* parity bit.
///
/// This is the paper's L1 configuration: "1 parity bit for a 256-bit
/// cache-line" — i.e. one bit across the whole line, which is why the area
/// overhead is ~0.2 % instead of SECDED's ~7.9 % (§VI-A1). Use `W = 8` for
/// the Table I 64-byte line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParityLine<const W: usize> {
    words: [u64; W],
    parity: bool,
}

impl<const W: usize> ParityLine<W> {
    /// Stores a full line, generating its parity.
    pub fn store(words: [u64; W]) -> Self {
        ParityLine {
            parity: Self::line_parity(&words),
            words,
        }
    }

    /// Recomputed-vs-stored parity check for the whole line.
    #[inline]
    pub fn check(&self) -> bool {
        Self::line_parity(&self.words) == self.parity
    }

    /// Reads the whole line, verifying parity.
    pub fn load(&self) -> Result<&[u64; W], &[u64; W]> {
        if self.check() {
            Ok(&self.words)
        } else {
            Err(&self.words)
        }
    }

    /// Updates one word in place, regenerating line parity (a write-through
    /// store updates the line and its parity in the same access).
    pub fn update_word(&mut self, idx: usize, value: u64) {
        self.words[idx] = value;
        self.parity = Self::line_parity(&self.words);
    }

    /// Raw words (fault-injection plumbing).
    #[inline]
    pub fn raw(&self) -> &[u64; W] {
        &self.words
    }

    /// Flips one bit of one word — a particle strike on the data array.
    pub fn flip_bit(&mut self, word: usize, bit: u32) {
        assert!(bit < 64, "bit {bit} out of range");
        self.words[word] ^= 1 << bit;
    }

    fn line_parity(words: &[u64; W]) -> bool {
        words.iter().fold(0u32, |acc, w| acc ^ (w.count_ones() & 1)) == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parity_bit_basics() {
        assert!(!parity_bit(0));
        assert!(parity_bit(1));
        assert!(!parity_bit(3));
        assert!(parity_bit(u64::MAX >> 1)); // 63 ones
        assert!(!parity_bit(u64::MAX)); // 64 ones
    }

    #[test]
    fn clean_word_loads_ok() {
        let w = ParityWord::store(0xdead_beef_1234_5678);
        assert!(w.check());
        assert_eq!(w.load(), Ok(0xdead_beef_1234_5678));
    }

    #[test]
    fn parity_cell_strike_is_detected() {
        let mut w = ParityWord::store(42);
        w.flip_parity_bit();
        assert!(!w.check());
        assert_eq!(w.load(), Err(42));
    }

    #[test]
    fn line_detects_single_flip_anywhere() {
        let mut line = ParityLine::<8>::store([7; 8]);
        assert!(line.check());
        line.flip_bit(3, 17);
        assert!(!line.check());
        assert!(line.load().is_err());
    }

    #[test]
    fn line_update_regenerates_parity() {
        let mut line = ParityLine::<4>::store([1, 2, 3, 4]);
        line.update_word(2, 0xffff);
        assert!(line.check());
        assert_eq!(line.raw()[2], 0xffff);
    }

    #[test]
    fn line_misses_even_flips_in_same_line() {
        // The documented blind spot of 1-bit parity: an even number of
        // flips is invisible. (Single-event upsets flip one bit, so this
        // does not matter for the paper's threat model.)
        let mut line = ParityLine::<8>::store([0; 8]);
        line.flip_bit(0, 0);
        line.flip_bit(7, 63);
        assert!(line.check());
    }

    proptest! {
        #[test]
        fn prop_single_data_flip_always_detected(data: u64, bit in 0u32..64) {
            let mut w = ParityWord::store(data);
            w.flip_data_bit(bit);
            prop_assert!(!w.check());
            prop_assert_eq!(w.load(), Err(data ^ (1 << bit)));
        }

        #[test]
        fn prop_double_flip_never_detected(data: u64, b1 in 0u32..64, b2 in 0u32..64) {
            prop_assume!(b1 != b2);
            let mut w = ParityWord::store(data);
            w.flip_data_bit(b1);
            w.flip_data_bit(b2);
            prop_assert!(w.check());
        }

        #[test]
        fn prop_store_load_round_trip(data: u64) {
            prop_assert_eq!(ParityWord::store(data).load(), Ok(data));
        }

        #[test]
        fn prop_line_single_flip_detected(
            words in proptest::array::uniform8(any::<u64>()),
            word in 0usize..8,
            bit in 0u32..64,
        ) {
            let mut line = ParityLine::<8>::store(words);
            line.flip_bit(word, bit);
            prop_assert!(!line.check());
        }

        #[test]
        fn prop_line_updates_preserve_checkability(
            words in proptest::array::uniform8(any::<u64>()),
            idx in 0usize..8,
            value: u64,
        ) {
            let mut line = ParityLine::<8>::store(words);
            line.update_word(idx, value);
            prop_assert!(line.check());
        }
    }
}
