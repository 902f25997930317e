//! Table II and Table III as data structures with render helpers.

use crate::cores::CoreModel;
use crate::projection::{DieProjection, TABLE3_CHIPS};

/// One column of Table II (one core configuration).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table2Row {
    /// Configuration name.
    pub name: &'static str,
    /// Core area, µm².
    pub core_area_um2: f64,
    /// L1 area, mm².
    pub l1_area_mm2: f64,
    /// CB area, mm² (`None` when absent).
    pub cb_area_mm2: Option<f64>,
    /// Total area, µm².
    pub total_area_um2: f64,
    /// Total-area overhead vs. baseline, % (`None` for the baseline).
    pub area_overhead_pct: Option<f64>,
    /// Core power, W.
    pub core_power_w: f64,
    /// L1 power, mW.
    pub l1_power_mw: f64,
    /// CB power, mW (`None` when absent).
    pub cb_power_mw: Option<f64>,
    /// Total power, W.
    pub total_power_w: f64,
    /// Total-power overhead vs. baseline, % (`None` for the baseline).
    pub power_overhead_pct: Option<f64>,
}

/// Table II: hardware overhead comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table2 {
    /// Basic MIPS column.
    pub basic: Table2Row,
    /// Reunion column.
    pub reunion: Table2Row,
    /// UnSync column.
    pub unsync: Table2Row,
}

fn row(model: &CoreModel, base: Option<&CoreModel>) -> Table2Row {
    Table2Row {
        name: model.name,
        core_area_um2: model.core_area_um2(),
        l1_area_mm2: model.l1.area_mm2(),
        cb_area_mm2: model.cb.as_ref().map(|c| c.area_um2 / 1e6),
        total_area_um2: model.total_area_um2(),
        area_overhead_pct: base.map(|b| model.area_overhead_vs(b) * 100.0),
        core_power_w: model.core_power_mw() / 1_000.0,
        l1_power_mw: model.l1.power_mw(),
        cb_power_mw: model.cb.as_ref().map(|c| c.power_mw),
        total_power_w: model.total_power_w(),
        power_overhead_pct: base.map(|b| model.power_overhead_vs(b) * 100.0),
    }
}

/// Regenerates Table II from the structural model.
pub fn table2() -> Table2 {
    let base = CoreModel::mips_baseline();
    let reunion = CoreModel::reunion();
    let unsync = CoreModel::unsync();
    Table2 {
        basic: row(&base, None),
        reunion: row(&reunion, Some(&base)),
        unsync: row(&unsync, Some(&base)),
    }
}

/// Table III: projected die sizes.
#[derive(Debug, Clone, PartialEq)]
pub struct Table3 {
    /// One projection per chip.
    pub rows: Vec<DieProjection>,
}

/// Regenerates Table III from the structural model.
pub fn table3() -> Table3 {
    let base = CoreModel::mips_baseline();
    let reunion = CoreModel::reunion();
    let unsync = CoreModel::unsync();
    Table3 {
        rows: TABLE3_CHIPS
            .iter()
            .map(|&chip| DieProjection::project(chip, &base, &reunion, &unsync))
            .collect(),
    }
}

impl Table2 {
    /// Renders the table in the paper's layout.
    pub fn render(&self) -> String {
        fn fmt_opt(v: Option<f64>, digits: usize) -> String {
            match v {
                Some(x) => format!("{x:.digits$}"),
                None => "N/A".to_string(),
            }
        }
        let mut s = String::new();
        s.push_str(&format!(
            "{:<22} {:>12} {:>12} {:>12}\n",
            "Parameter", self.basic.name, self.reunion.name, self.unsync.name
        ));
        s.push_str("--- Chip-Area Overhead ---\n");
        for (label, f) in [
            ("Core (um^2)", |r: &Table2Row| {
                format!("{:.0}", r.core_area_um2)
            }),
            ("L1 Cache (mm^2)", |r: &Table2Row| {
                format!("{:.4}", r.l1_area_mm2)
            }),
            ("CB (mm^2)", |r: &Table2Row| fmt_opt(r.cb_area_mm2, 5)),
            ("Total Area (um^2)", |r: &Table2Row| {
                format!("{:.0}", r.total_area_um2)
            }),
            ("Overhead (%)", |r: &Table2Row| {
                fmt_opt(r.area_overhead_pct, 2)
            }),
        ] as [(&str, fn(&Table2Row) -> String); 5]
        {
            s.push_str(&format!(
                "{:<22} {:>12} {:>12} {:>12}\n",
                label,
                f(&self.basic),
                f(&self.reunion),
                f(&self.unsync)
            ));
        }
        s.push_str("--- Power Overhead ---\n");
        for (label, f) in [
            ("Core (W)", |r: &Table2Row| format!("{:.3}", r.core_power_w)),
            ("L1 Cache (mW)", |r: &Table2Row| {
                format!("{:.2}", r.l1_power_mw)
            }),
            ("CB (mW)", |r: &Table2Row| fmt_opt(r.cb_power_mw, 5)),
            ("Total Power (W)", |r: &Table2Row| {
                format!("{:.2}", r.total_power_w)
            }),
            ("Overhead (%)", |r: &Table2Row| {
                fmt_opt(r.power_overhead_pct, 2)
            }),
        ] as [(&str, fn(&Table2Row) -> String); 5]
        {
            s.push_str(&format!(
                "{:<22} {:>12} {:>12} {:>12}\n",
                label,
                f(&self.basic),
                f(&self.reunion),
                f(&self.unsync)
            ));
        }
        s
    }
}

impl Table3 {
    /// Renders the table in the paper's layout.
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "{:<28} {:>14} {:>14} {:>14}\n",
            "Parameter", self.rows[0].chip.name, self.rows[1].chip.name, self.rows[2].chip.name
        ));
        let rows = &self.rows;
        s.push_str(&format!(
            "{:<28} {:>14} {:>14} {:>14}\n",
            "Technology node",
            format!("{}nm", rows[0].chip.node_nm),
            format!("{}nm", rows[1].chip.node_nm),
            format!("{}nm", rows[2].chip.node_nm)
        ));
        s.push_str(&format!(
            "{:<28} {:>14} {:>14} {:>14}\n",
            "No. of Cores: n", rows[0].chip.cores, rows[1].chip.cores, rows[2].chip.cores
        ));
        s.push_str(&format!(
            "{:<28} {:>14.1} {:>14.1} {:>14.1}\n",
            "Per-core Area (mm^2)",
            rows[0].chip.core_area_mm2,
            rows[1].chip.core_area_mm2,
            rows[2].chip.core_area_mm2
        ));
        s.push_str(&format!(
            "{:<28} {:>14.0} {:>14.0} {:>14.0}\n",
            "Original Die Area (mm^2)",
            rows[0].chip.die_area_mm2,
            rows[1].chip.die_area_mm2,
            rows[2].chip.die_area_mm2
        ));
        s.push_str(&format!(
            "{:<28} {:>14.2} {:>14.2} {:>14.2}\n",
            "Reunion Die Area (mm^2)",
            rows[0].reunion_mm2,
            rows[1].reunion_mm2,
            rows[2].reunion_mm2
        ));
        s.push_str(&format!(
            "{:<28} {:>14.2} {:>14.2} {:>14.2}\n",
            "UnSync Die Area (mm^2)", rows[0].unsync_mm2, rows[1].unsync_mm2, rows[2].unsync_mm2
        ));
        s.push_str(&format!(
            "{:<28} {:>14.2} {:>14.2} {:>14.2}\n",
            "DA_Reunion - DA_UnSync",
            rows[0].difference_mm2(),
            rows[1].difference_mm2(),
            rows[2].difference_mm2()
        ));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_overheads_match_paper() {
        let t = table2();
        assert!((t.reunion.area_overhead_pct.unwrap() - 20.77).abs() < 0.3);
        assert!((t.unsync.area_overhead_pct.unwrap() - 7.45).abs() < 0.2);
        assert!((t.reunion.power_overhead_pct.unwrap() - 74.79).abs() < 1.0);
        assert!((t.unsync.power_overhead_pct.unwrap() - 40.34).abs() < 1.0);
        assert!(t.basic.area_overhead_pct.is_none());
        assert!(t.basic.cb_area_mm2.is_none());
        assert!(t.unsync.cb_area_mm2.is_some());
    }

    #[test]
    fn renders_are_nonempty_and_mention_all_configs() {
        let r2 = table2().render();
        for needle in ["Basic MIPS", "Reunion", "UnSync", "Overhead"] {
            assert!(r2.contains(needle), "table2 render missing {needle}");
        }
        let r3 = table3().render();
        for needle in [
            "Intel Polaris",
            "Tilera Tile64",
            "NVIDIA GeForce",
            "DA_Reunion",
        ] {
            assert!(r3.contains(needle), "table3 render missing {needle}");
        }
    }

    #[test]
    fn table3_has_three_rows() {
        assert_eq!(table3().rows.len(), 3);
    }
}
