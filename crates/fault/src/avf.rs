//! Architectural-vulnerability-factor (AVF) analysis.
//!
//! The paper cites AVF work (Nair et al., IEEE Micro 2010) for the
//! observation that sequential elements are the most vulnerable blocks.
//! AVF refines raw bit counts: a strike only matters while the struck
//! bit holds *architecturally live* data. This module estimates
//! per-structure AVF from a trace (register liveness, store reuse) and
//! occupancy statistics, and converts raw strike rates into the
//! industry-standard split:
//!
//! * **SDC** (silent data corruption) — strikes on live bits *not*
//!   covered by a detection mechanism;
//! * **DUE** (detected unrecoverable/recoverable error) — strikes on
//!   live bits that a mechanism catches.
//!
//! UnSync's pitch in these terms: it converts the baseline's entire SDC
//! rate into (recoverable) DUE at ~7 % area cost.

use crate::inject::{Coverage, FaultTarget, ALL_TARGETS};
use unsync_isa::TraceProgram;

/// Per-structure AVF estimates (fraction of bits holding live data).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AvfEstimate {
    /// Architectural register file.
    pub register_file: f64,
    /// ROB / issue queue / LSQ occupancy-derived vulnerability.
    pub rob: f64,
    /// Issue queue.
    pub issue_queue: f64,
    /// Load/store queue.
    pub lsq: f64,
    /// L1 data array (fraction of stored lines re-read before overwrite).
    pub l1_data: f64,
    /// Every-cycle elements (PC, pipeline latches) — live by definition
    /// while instructions are in flight.
    pub pipeline: f64,
    /// TLB (translations are long-lived: high).
    pub tlb: f64,
}

impl AvfEstimate {
    /// AVF for one fault target.
    pub fn for_target(&self, t: FaultTarget) -> f64 {
        match t {
            FaultTarget::RegisterFile => self.register_file,
            FaultTarget::Pc | FaultTarget::PipelineRegs => self.pipeline,
            FaultTarget::Rob => self.rob,
            FaultTarget::IssueQueue => self.issue_queue,
            FaultTarget::Lsq => self.lsq,
            FaultTarget::Tlb => self.tlb,
            FaultTarget::L1Data | FaultTarget::L1Tag => self.l1_data,
        }
    }
}

/// Register-file AVF from a trace: the fraction of (register ×
/// instruction-slot) pairs in which the register's current value will
/// still be read before being overwritten (i.e. a flip there changes the
/// outcome).
pub fn register_avf(trace: &TraceProgram) -> f64 {
    let n = trace.len();
    if n == 0 {
        return 0.0;
    }
    // Backward pass: for each position, is each register's value still
    // needed (read before next write)?
    let mut needed = [false; 64];
    let mut live_slots = 0u64;
    let mut live = vec![0u8; n]; // per-instruction count of live registers
    for (i, inst) in trace.insts().iter().enumerate().rev() {
        if let Some(d) = inst.arch_dest() {
            needed[d.index()] = false;
        }
        for s in inst.sources() {
            needed[s.index()] = true;
        }
        live[i] = needed.iter().filter(|&&x| x).count() as u8;
    }
    for &l in &live {
        live_slots += l as u64;
    }
    live_slots as f64 / (n as f64 * 64.0)
}

/// L1-data AVF proxy from a trace: the fraction of stores whose line is
/// loaded again before the next store to that line (a flip on the stored
/// data would be consumed).
pub fn l1_store_reuse(trace: &TraceProgram) -> f64 {
    use std::collections::HashMap;
    let mut reused: Vec<bool> = Vec::new();
    let mut store_of_line: HashMap<u64, usize> = HashMap::new();
    for inst in trace.insts() {
        let Some(m) = inst.mem else { continue };
        let line = m.addr >> 6;
        if inst.op.is_store() {
            store_of_line.insert(line, reused.len());
            reused.push(false);
        } else if let Some(&s) = store_of_line.get(&line) {
            reused[s] = true;
        }
    }
    if reused.is_empty() {
        return 0.0;
    }
    reused.iter().filter(|&&r| r).count() as f64 / reused.len() as f64
}

/// Builds the per-structure AVF estimate for a trace plus measured
/// occupancies (`rob_util`, `iq_util`, `lsq_util` are occupancy / capacity
/// from the simulator).
pub fn estimate(trace: &TraceProgram, rob_util: f64, iq_util: f64, lsq_util: f64) -> AvfEstimate {
    AvfEstimate {
        register_file: register_avf(trace),
        rob: rob_util.clamp(0.0, 1.0),
        issue_queue: iq_util.clamp(0.0, 1.0),
        lsq: lsq_util.clamp(0.0, 1.0),
        l1_data: l1_store_reuse(trace).max(0.05), // resident clean lines still read
        pipeline: 0.35,                           // literature-typical latch AVF (Nair et al.)
        tlb: 0.8,
    }
}

/// SDC/DUE split for one architecture, in AVF-weighted vulnerable bits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SdcDueSplit {
    /// AVF-weighted bits whose strikes corrupt silently.
    pub sdc_bits: f64,
    /// AVF-weighted bits whose strikes are detected.
    pub due_bits: f64,
}

impl SdcDueSplit {
    /// Computes the split under `coverage` for the given AVF estimate.
    pub fn compute(avf: &AvfEstimate, coverage: &Coverage) -> Self {
        let mut sdc = 0.0;
        let mut due = 0.0;
        for &t in &ALL_TARGETS {
            let weighted = t.bits() as f64 * avf.for_target(t);
            if coverage.covers(t) {
                due += weighted;
            } else {
                sdc += weighted;
            }
        }
        SdcDueSplit {
            sdc_bits: sdc,
            due_bits: due,
        }
    }

    /// Silent fraction of all AVF-weighted vulnerability.
    pub fn sdc_fraction(&self) -> f64 {
        let total = self.sdc_bits + self.due_bits;
        if total == 0.0 {
            0.0
        } else {
            self.sdc_bits / total
        }
    }

    /// Effective SDC FIT given a raw per-bit FIT rate.
    pub fn sdc_fit(&self, fit_per_bit: f64) -> f64 {
        self.sdc_bits * fit_per_bit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unsync_isa::{Inst, OpClass, Reg};

    fn alu(seq: u64, dest: u8, src: u8) -> Inst {
        Inst::build(OpClass::IntAlu)
            .seq(seq)
            .pc(seq * 4)
            .dest(Reg::int(dest))
            .src0(Reg::int(src))
            .finish()
    }

    #[test]
    fn dead_values_have_zero_register_avf() {
        // Every write is immediately overwritten, never read.
        let insts: Vec<Inst> = (0..50).map(|i| alu(i, 1, 20)).collect();
        let t = TraceProgram::new(insts);
        // Only r20 is ever live (read each instruction): 1/64 of slots.
        let avf = register_avf(&t);
        assert!((avf - 1.0 / 64.0).abs() < 0.01, "{avf}");
    }

    #[test]
    fn long_lived_values_raise_register_avf() {
        // Write r1..r10 once, then read them repeatedly: ~10 live regs.
        let mut insts: Vec<Inst> = (0..10).map(|i| alu(i, (i + 1) as u8, 20)).collect();
        for i in 10..100u64 {
            insts.push(alu(i, 15, ((i % 10) + 1) as u8));
        }
        let t = TraceProgram::new(insts);
        let avf = register_avf(&t);
        assert!(avf > 5.0 / 64.0, "{avf}");
    }

    #[test]
    fn store_reuse_detects_consumed_stores() {
        use unsync_isa::MemInfo;
        let insts = vec![
            Inst::build(OpClass::Store)
                .seq(0)
                .src0(Reg::int(1))
                .mem(MemInfo::dword(0x40))
                .finish(),
            Inst::build(OpClass::Load)
                .seq(1)
                .dest(Reg::int(2))
                .mem(MemInfo::dword(0x40))
                .finish(),
            Inst::build(OpClass::Store)
                .seq(2)
                .src0(Reg::int(1))
                .mem(MemInfo::dword(0x80))
                .finish(),
        ];
        let t = TraceProgram::new(insts);
        assert!((l1_store_reuse(&t) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn coverage_flips_sdc_into_due() {
        let avf = AvfEstimate {
            register_file: 0.2,
            rob: 0.5,
            issue_queue: 0.5,
            lsq: 0.5,
            l1_data: 0.3,
            pipeline: 0.35,
            tlb: 0.8,
        };
        let baseline = SdcDueSplit::compute(&avf, &Coverage::baseline());
        let unsync = SdcDueSplit::compute(&avf, &Coverage::unsync());
        let reunion = SdcDueSplit::compute(&avf, &Coverage::reunion());
        assert!((baseline.sdc_fraction() - 1.0).abs() < 1e-12);
        assert!(unsync.sdc_fraction() < 1e-12, "UnSync eliminates SDC");
        assert!(reunion.sdc_fraction() > 0.0, "Reunion leaves ARF/TLB SDC");
        assert!(reunion.sdc_fraction() < baseline.sdc_fraction());
        // Total vulnerability is conserved across coverage choices.
        let tot = |s: SdcDueSplit| s.sdc_bits + s.due_bits;
        assert!((tot(baseline) - tot(unsync)).abs() < 1e-6);
    }

    #[test]
    fn sdc_fit_scales_with_rate() {
        let s = SdcDueSplit {
            sdc_bits: 1000.0,
            due_bits: 0.0,
        };
        assert!((s.sdc_fit(2e-3) - 2.0).abs() < 1e-12);
    }
}
