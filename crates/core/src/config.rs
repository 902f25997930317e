//! UnSync configuration.

use crate::cb::DrainPolicy;

/// When a detection block observes a strike.
///
/// Parity is physically verified on the next *read* of the struck
/// storage (§III-B1): a value that is overwritten before being read is
/// never detected — and never matters. [`DetectionTiming::Immediate`]
/// conservatively charges a recovery for every strike (the default used
/// by the calibrated experiments); [`DetectionTiming::OnFirstUse`]
/// models the read-triggered behaviour for register-file strikes,
/// letting dead-value strikes pass benignly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DetectionTiming {
    /// Every strike triggers detection at the striking instruction.
    #[default]
    Immediate,
    /// Register-file strikes trigger detection at the next read of the
    /// struck register; strikes on values that die unread are benign.
    OnFirstUse,
}

/// The error-detection code on the UnSync L1 data arrays.
///
/// The paper chooses 1-bit line parity for its negligible cost
/// (§III-B1); its §VIII future work names "multi-bit correction for
/// cache blocks" as a drop-in upgrade. Line parity misses adjacent
/// double-bit upsets (an even number of flips), SECDED detects them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum L1Protection {
    /// 1 parity bit per line (the paper's design, ≈0.2 % area).
    #[default]
    LineParity,
    /// SECDED per word (the §VIII upgrade, ≈7.9 % cache area).
    Secded,
}

/// How recovery re-establishes the erroneous core's L1 contents.
///
/// The paper's §III-A step 3 copies "the content of the L1 cache of the
/// error-free core" — expensive but the bad core resumes warm. Because
/// the L1 is write-through, an alternative is to just invalidate the bad
/// L1 and let demand misses refill from the ECC-protected L2: far
/// cheaper per event, paid back as cold misses afterwards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecoveryMode {
    /// Copy the whole L1 from the error-free core (the paper's design).
    #[default]
    CopyL1,
    /// Invalidate the erroneous L1 and refill on demand.
    InvalidateOnly,
}

/// Parameters of the UnSync machinery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnsyncConfig {
    /// Communication-Buffer entries per core (paper §V: 10).
    pub cb_entries: usize,
    /// Cycles from a detection block firing to the EIH's RECOVERY signal
    /// stalling both cores (the "non-zero cycles" of Fig. 2).
    pub eih_latency: u32,
    /// Cycles to flush the erroneous core's pipeline (recovery step 2).
    pub flush_cycles: u32,
    /// Cycles from the strike to the detection block firing (parity is
    /// verified on the next read; DMR compares on the next cycle).
    pub detection_latency: u32,
    /// CB drain policy (the paper's design is both-complete; eager is an
    /// ablation that reopens a silent-corruption window).
    pub drain_policy: DrainPolicy,
    /// L1 recovery strategy (the paper copies; invalidate-only is an
    /// ablation trading per-event cost for post-recovery cold misses).
    pub recovery_mode: RecoveryMode,
    /// When detection blocks fire (see [`DetectionTiming`]).
    pub detection_timing: DetectionTiming,
    /// Error code on the L1 data arrays (see [`L1Protection`]).
    pub l1_protection: L1Protection,
}

impl Default for UnsyncConfig {
    fn default() -> Self {
        Self::paper_baseline()
    }
}

impl UnsyncConfig {
    /// The paper's §V configuration: write-through L1, 10 CB entries.
    pub fn paper_baseline() -> Self {
        UnsyncConfig {
            cb_entries: 10,
            eih_latency: 4,
            flush_cycles: 8,
            detection_latency: 2,
            drain_policy: DrainPolicy::BothComplete,
            recovery_mode: RecoveryMode::CopyL1,
            detection_timing: DetectionTiming::Immediate,
            l1_protection: L1Protection::LineParity,
        }
    }

    /// Same configuration with a different CB size (the Fig. 6 sweep; the
    /// paper labels sizes in bytes — entries hold one 8-byte word plus
    /// tag, so "2 KB" ≈ 256 entries).
    pub fn with_cb_entries(cb_entries: usize) -> Self {
        UnsyncConfig {
            cb_entries,
            ..Self::paper_baseline()
        }
    }

    /// Converts a Fig. 6 byte label to entries (8-byte data words).
    pub fn cb_entries_for_bytes(bytes: usize) -> usize {
        (bytes / 8).max(1)
    }

    /// Validates structural sanity.
    pub fn validate(&self) -> Result<(), String> {
        if self.cb_entries == 0 {
            return Err("CB must have at least one entry".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_baseline_has_ten_cb_entries() {
        let c = UnsyncConfig::paper_baseline();
        assert_eq!(c.cb_entries, 10);
        c.validate().unwrap();
    }

    #[test]
    fn fig6_byte_labels_convert() {
        assert_eq!(UnsyncConfig::cb_entries_for_bytes(64), 8);
        assert_eq!(UnsyncConfig::cb_entries_for_bytes(2048), 256);
        assert_eq!(UnsyncConfig::cb_entries_for_bytes(4096), 512);
        assert_eq!(UnsyncConfig::cb_entries_for_bytes(1), 1);
    }

    #[test]
    fn zero_cb_rejected() {
        assert!(UnsyncConfig::with_cb_entries(0).validate().is_err());
    }
}
