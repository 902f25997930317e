//! Voltage–frequency scaling on top of the Table II power model.
//!
//! Because UnSync is *faster* than Reunion at equal frequency, it can be
//! run slower-and-lower-voltage to the same throughput — compounding the
//! paper's 34.5 % power advantage. Dynamic power scales as `f·V²` with
//! `V` roughly linear in `f` across the DVFS range; static power scales
//! with `V`.

use crate::cores::CoreModel;
use crate::energy::SYNTHESIS_CLOCK_HZ;

/// A voltage/frequency operating range.
///
/// # Examples
///
/// ```
/// use unsync_hwcost::{CoreModel, DvfsModel};
///
/// let dvfs = DvfsModel::default();
/// let unsync = CoreModel::unsync();
/// // Halving the clock saves superlinear power (voltage drops with it).
/// assert!(dvfs.power_at(&unsync, 2.0e9) > 2.0 * dvfs.power_at(&unsync, 1.0e9));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DvfsModel {
    /// Lowest operating frequency, Hz.
    pub f_min_hz: f64,
    /// Highest operating frequency, Hz.
    pub f_max_hz: f64,
    /// Supply voltage at `f_min_hz`, volts.
    pub v_min: f64,
    /// Supply voltage at `f_max_hz`, volts.
    pub v_max: f64,
    /// Fraction of the characterized power that is leakage (scales with
    /// `V` rather than `f·V²`).
    pub static_fraction: f64,
}

impl Default for DvfsModel {
    fn default() -> Self {
        // A 65 nm-ish range around the Table I 2 GHz point.
        DvfsModel {
            f_min_hz: 0.8e9,
            f_max_hz: 2.4e9,
            v_min: 0.85,
            v_max: 1.20,
            static_fraction: 0.25,
        }
    }
}

impl DvfsModel {
    /// Supply voltage required for frequency `f_hz` (linear V–f).
    pub fn voltage_at(&self, f_hz: f64) -> f64 {
        assert!(
            (self.f_min_hz..=self.f_max_hz).contains(&f_hz),
            "{f_hz} outside the DVFS range"
        );
        let t = (f_hz - self.f_min_hz) / (self.f_max_hz - self.f_min_hz);
        self.v_min + t * (self.v_max - self.v_min)
    }

    /// Power of `model` running at `f_hz`, watts. The Table II figure is
    /// characterized at the synthesis clock and nominal `v_max`.
    pub fn power_at(&self, model: &CoreModel, f_hz: f64) -> f64 {
        let v = self.voltage_at(f_hz);
        let p_ref = model.total_power_w();
        let dynamic = p_ref
            * (1.0 - self.static_fraction)
            * (f_hz / SYNTHESIS_CLOCK_HZ)
            * (v / self.v_max).powi(2);
        let static_p = p_ref * self.static_fraction * (v / self.v_max);
        dynamic + static_p
    }

    /// Runtime of a workload at `f_hz`, given its core-bound cycles and
    /// its frequency-invariant memory time (DRAM does not speed up with
    /// the core clock).
    pub fn runtime_s(&self, core_cycles: u64, mem_time_s: f64, f_hz: f64) -> f64 {
        core_cycles as f64 / f_hz + mem_time_s
    }

    /// Energy of one core of `model` over the workload at `f_hz`, joules.
    pub fn energy_j(&self, model: &CoreModel, core_cycles: u64, mem_time_s: f64, f_hz: f64) -> f64 {
        self.power_at(model, f_hz) * self.runtime_s(core_cycles, mem_time_s, f_hz)
    }

    /// The lowest frequency at which the workload still meets
    /// `target_runtime_s` (bisection; `None` if even `f_max` misses it).
    pub fn iso_performance_frequency(
        &self,
        core_cycles: u64,
        mem_time_s: f64,
        target_runtime_s: f64,
    ) -> Option<f64> {
        if self.runtime_s(core_cycles, mem_time_s, self.f_max_hz) > target_runtime_s {
            return None;
        }
        if self.runtime_s(core_cycles, mem_time_s, self.f_min_hz) <= target_runtime_s {
            return Some(self.f_min_hz);
        }
        let (mut lo, mut hi) = (self.f_min_hz, self.f_max_hz);
        for _ in 0..100 {
            let mid = 0.5 * (lo + hi);
            if self.runtime_s(core_cycles, mem_time_s, mid) <= target_runtime_s {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        Some(hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn voltage_is_linear_between_endpoints() {
        let d = DvfsModel::default();
        assert!((d.voltage_at(d.f_min_hz) - d.v_min).abs() < 1e-12);
        assert!((d.voltage_at(d.f_max_hz) - d.v_max).abs() < 1e-12);
        let mid = d.voltage_at(0.5 * (d.f_min_hz + d.f_max_hz));
        assert!((mid - 0.5 * (d.v_min + d.v_max)).abs() < 1e-12);
    }

    #[test]
    fn downclocking_saves_superlinear_power() {
        let d = DvfsModel::default();
        let m = CoreModel::unsync();
        let hi = d.power_at(&m, 2.0e9);
        let lo = d.power_at(&m, 1.0e9);
        // f halves AND V drops: more than 2× power saving on dynamic.
        assert!(hi / lo > 2.0, "{}", hi / lo);
    }

    #[test]
    fn iso_performance_downclock_saves_energy_for_the_faster_design() {
        // UnSync finishes a workload in fewer cycles than Reunion; run
        // UnSync only as fast as needed to match Reunion's runtime.
        let d = DvfsModel::default();
        let unsync = CoreModel::unsync();
        let reunion = CoreModel::reunion();
        let mem_time = 1e-4;
        let (u_cycles, r_cycles) = (1_000_000u64, 1_200_000u64);
        let r_runtime = d.runtime_s(r_cycles, mem_time, 2.0e9);
        let f_iso = d
            .iso_performance_frequency(u_cycles, mem_time, r_runtime)
            .expect("UnSync can match Reunion");
        assert!(f_iso < 2.0e9, "must be able to downclock: {f_iso}");
        let e_full = d.energy_j(&unsync, u_cycles, mem_time, 2.0e9);
        let e_iso = d.energy_j(&unsync, u_cycles, mem_time, f_iso);
        let e_reunion = d.energy_j(&reunion, r_cycles, mem_time, 2.0e9);
        assert!(e_iso < e_full, "downclocking saves energy");
        assert!(e_iso < e_reunion * 0.7, "{} vs {}", e_iso, e_reunion);
    }

    #[test]
    fn iso_performance_is_none_when_unreachable() {
        let d = DvfsModel::default();
        assert!(d
            .iso_performance_frequency(10_000_000_000, 0.0, 1e-3)
            .is_none());
    }

    proptest! {
        #[test]
        fn prop_power_monotone_in_frequency(f1 in 0.8e9f64..2.4e9, f2 in 0.8e9f64..2.4e9) {
            prop_assume!(f1 < f2);
            let d = DvfsModel::default();
            let m = CoreModel::mips_baseline();
            prop_assert!(d.power_at(&m, f1) < d.power_at(&m, f2));
        }

        #[test]
        fn prop_runtime_monotone_decreasing_in_frequency(
            cycles in 1_000u64..10_000_000,
            f1 in 0.8e9f64..2.4e9,
            f2 in 0.8e9f64..2.4e9,
        ) {
            prop_assume!(f1 < f2);
            let d = DvfsModel::default();
            prop_assert!(d.runtime_s(cycles, 0.0, f1) > d.runtime_s(cycles, 0.0, f2));
        }
    }
}
