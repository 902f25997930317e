//! Technology-node scaling of the 65 nm model.
//!
//! §VI-A2 argues the UnSync-vs-Reunion area gap *grows* as cores shrink
//! and multiply. This module projects the calibrated 65 nm components to
//! neighbouring nodes with standard first-order factors: area scales
//! with the square of the feature-size ratio; dynamic power/energy per
//! operation scales roughly with feature size at constant frequency
//! (capacitance ↓ linearly, voltage largely flat post-Dennard); the
//! soft-error *rate per bit* stays roughly flat below 65 nm (the iRoc
//! saturation the paper cites in §VI-C) while the *bits per mm²* — and
//! hence per-chip FIT — grow quadratically, which is the paper's core
//! motivation.

use crate::cores::CoreModel;

/// A CMOS technology node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TechNode {
    /// 90 nm (the Tilera / GeForce node of Table III).
    Nm90,
    /// 65 nm — the calibration node of Table II.
    Nm65,
    /// 45 nm.
    Nm45,
    /// 32 nm.
    Nm32,
    /// 22 nm.
    Nm22,
}

/// All modelled nodes, largest feature first.
pub const ALL_NODES: [TechNode; 5] = [
    TechNode::Nm90,
    TechNode::Nm65,
    TechNode::Nm45,
    TechNode::Nm32,
    TechNode::Nm22,
];

impl TechNode {
    /// Feature size in nanometres.
    pub fn nm(self) -> f64 {
        match self {
            TechNode::Nm90 => 90.0,
            TechNode::Nm65 => 65.0,
            TechNode::Nm45 => 45.0,
            TechNode::Nm32 => 32.0,
            TechNode::Nm22 => 22.0,
        }
    }

    /// Area scale factor relative to 65 nm (quadratic in feature size).
    pub fn area_scale(self) -> f64 {
        (self.nm() / 65.0).powi(2)
    }

    /// Dynamic-power scale factor relative to 65 nm at constant
    /// frequency (first-order: linear in feature size).
    pub fn power_scale(self) -> f64 {
        self.nm() / 65.0
    }

    /// Relative per-chip soft-error rate for a fixed logical design:
    /// per-bit rates saturate below 65 nm (§VI-C's iRoc observation), so
    /// the per-chip rate for the *same bit count* is ≈ flat — but the
    /// paper's point is that shrinking invites *more cores per die*,
    /// scaling exposure with 1/area.
    pub fn cores_per_die_scale(self) -> f64 {
        1.0 / self.area_scale()
    }
}

/// A core model projected to a node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaledCore {
    /// The node projected to.
    pub node: TechNode,
    /// Configuration name.
    pub name: &'static str,
    /// Total area, µm².
    pub total_area_um2: f64,
    /// Total power, W (at the synthesis clock).
    pub total_power_w: f64,
}

/// Projects a calibrated 65 nm core model to `node`.
pub fn scale(model: &CoreModel, node: TechNode) -> ScaledCore {
    ScaledCore {
        node,
        name: model.name,
        total_area_um2: model.total_area_um2() * node.area_scale(),
        total_power_w: model.total_power_w() * node.power_scale(),
    }
}

/// The UnSync-vs-Reunion area *difference* per core pair at `node`, µm² —
/// the §VI-A2 "relative difference" generalized across nodes.
pub fn pair_area_difference_um2(node: TechNode) -> f64 {
    let reunion = scale(&CoreModel::reunion(), node);
    let unsync = scale(&CoreModel::unsync(), node);
    2.0 * (reunion.total_area_um2 - unsync.total_area_um2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_65_is_the_identity() {
        let m = CoreModel::unsync();
        let s = scale(&m, TechNode::Nm65);
        assert!((s.total_area_um2 - m.total_area_um2()).abs() < 1e-9);
        assert!((s.total_power_w - m.total_power_w()).abs() < 1e-12);
    }

    #[test]
    fn shrinking_reduces_absolute_cost_but_preserves_ratios() {
        let base = CoreModel::mips_baseline();
        let unsync = CoreModel::unsync();
        for node in ALL_NODES {
            let sb = scale(&base, node);
            let su = scale(&unsync, node);
            // Relative overhead is node-invariant (both scale together).
            let overhead = su.total_area_um2 / sb.total_area_um2 - 1.0;
            assert!(
                (overhead - unsync.area_overhead_vs(&base)).abs() < 1e-9,
                "{node:?}"
            );
        }
        assert!(
            scale(&unsync, TechNode::Nm22).total_area_um2
                < scale(&unsync, TechNode::Nm45).total_area_um2
        );
    }

    #[test]
    fn per_die_exposure_grows_quadratically_with_shrink() {
        // 65 → 32 nm: ~4.1× the cores (and hence vulnerable bits) per die.
        let growth = TechNode::Nm32.cores_per_die_scale();
        assert!((growth - (65.0f64 / 32.0).powi(2)).abs() < 1e-9);
        assert!(growth > 4.0);
    }

    #[test]
    fn pair_difference_shrinks_in_um2_but_not_in_cores_fitted() {
        // The absolute µm² gap shrinks per pair …
        let at65 = pair_area_difference_um2(TechNode::Nm65);
        let at22 = pair_area_difference_um2(TechNode::Nm22);
        assert!(at22 < at65);
        // … but a fixed die hosts quadratically more pairs, so the
        // *die-level* difference is conserved: gap × pairs = const.
        let die_gap_65 = at65 * TechNode::Nm65.cores_per_die_scale();
        let die_gap_22 = at22 * TechNode::Nm22.cores_per_die_scale();
        assert!((die_gap_65 - die_gap_22).abs() / die_gap_65 < 1e-9);
    }
}
