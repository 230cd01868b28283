//! Gate-count statistics and the generator-vs-estimator audit.
//!
//! [`cell_counts`] recursively counts every Table III standard cell in a
//! hierarchical [`Design`] (with memoization, so deep hierarchies cost one
//! traversal per module definition, and a replicated instance costs one
//! multiplication). [`audit`] then cross-checks the
//! generated hardware against a [`MacroEstimate`]: the paper's whole flow
//! rests on the estimator predicting what the generator builds, and here
//! that property is enforced to floating-point precision.

use std::collections::HashMap;

use crate::ir::{Design, InstanceTarget, NetlistError};
use sega_cells::{Cost, StandardCell, ALL_CELLS};
use sega_estimator::MacroEstimate;

/// Per-cell counts indexed by `StandardCell as usize` (Table III order).
type Counts = [u64; ALL_CELLS.len()];

/// Counts standard cells under the design's top module.
///
/// # Errors
///
/// Fails if the design has no top or references unknown modules.
pub fn cell_counts(design: &Design) -> Result<HashMap<StandardCell, u64>, NetlistError> {
    cell_counts_of_module(design, &design.top()?.name)
}

/// Counts standard cells under the named module (recursively).
///
/// # Errors
///
/// Fails with [`NetlistError::UnknownModule`] for dangling references.
pub fn cell_counts_of_module(
    design: &Design,
    module: &str,
) -> Result<HashMap<StandardCell, u64>, NetlistError> {
    let mut memo = HashMap::new();
    let counts = counts_rec(design, module, &mut memo)?;
    Ok(ALL_CELLS
        .into_iter()
        .filter(|&cell| counts[cell as usize] > 0)
        .map(|cell| (cell, counts[cell as usize]))
        .collect())
}

fn counts_rec<'d>(
    design: &'d Design,
    module: &'d str,
    memo: &mut HashMap<&'d str, Counts>,
) -> Result<Counts, NetlistError> {
    if let Some(&counts) = memo.get(module) {
        return Ok(counts);
    }
    let m = design
        .module(module)
        .ok_or_else(|| NetlistError::UnknownModule(module.to_owned()))?;
    let mut counts = [0; ALL_CELLS.len()];
    for inst in &m.instances {
        let copies = u64::from(inst.count.get());
        match &inst.target {
            InstanceTarget::Cell(cell) => counts[*cell as usize] += copies,
            InstanceTarget::Module(child) => {
                let child = counts_rec(design, child, memo)?;
                for (total, n) in counts.iter_mut().zip(child) {
                    *total += n * copies;
                }
            }
        }
    }
    memo.insert(module, counts);
    Ok(counts)
}

/// Total area/energy of a cell-count table in NOR-gate units (delay is not
/// meaningful in a sum and is reported as zero). The sum runs in Table III
/// order, so the same counts always give the same bits.
pub fn counts_cost(counts: &HashMap<StandardCell, u64>) -> Cost {
    let mut total = Cost::ZERO;
    for cell in ALL_CELLS {
        if let Some(&n) = counts.get(&cell) {
            let c = cell.cost();
            total.area += c.area * n as f64;
            total.energy += c.energy * n as f64;
        }
    }
    total
}

/// Area/energy of the named module in NOR-gate units.
///
/// # Errors
///
/// Same conditions as [`cell_counts_of_module`].
pub fn unit_cost_of_module(design: &Design, module: &str) -> Result<Cost, NetlistError> {
    Ok(counts_cost(&cell_counts_of_module(design, module)?))
}

/// The result of auditing a generated netlist against its estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct Audit {
    /// Area of the netlist (NOR-gate units, from cell counts).
    pub netlist_area: f64,
    /// Area predicted by the estimator (NOR-gate units).
    pub estimated_area: f64,
    /// Energy of the netlist (NOR-gate units).
    pub netlist_energy: f64,
    /// Energy predicted by the estimator (NOR-gate units, before the
    /// activity factor).
    pub estimated_energy: f64,
    /// Per-cell counts of the netlist.
    pub counts: HashMap<StandardCell, u64>,
}

impl Audit {
    /// Relative area discrepancy between generator and estimator.
    pub fn area_error(&self) -> f64 {
        (self.netlist_area - self.estimated_area).abs() / self.estimated_area.max(f64::MIN_POSITIVE)
    }

    /// Relative energy discrepancy between generator and estimator.
    pub fn energy_error(&self) -> f64 {
        (self.netlist_energy - self.estimated_energy).abs()
            / self.estimated_energy.max(f64::MIN_POSITIVE)
    }

    /// True when generator and estimator agree to within `tolerance`
    /// relative error on both area and energy.
    pub fn is_consistent(&self, tolerance: f64) -> bool {
        self.area_error() <= tolerance && self.energy_error() <= tolerance
    }
}

/// Audits a generated netlist against the estimate the design space
/// explorer optimized: counts every standard cell in the netlist and
/// compares total area and energy with the estimator's unit cost.
///
/// # Errors
///
/// Fails if the netlist has no top or dangling module references.
///
/// ```
/// use sega_estimator::{estimate, DcimDesign, OperatingConditions, Precision};
/// use sega_netlist::{generators, stats};
///
/// let d = DcimDesign::for_precision(Precision::Int4, 16, 8, 4, 2)?;
/// let netlist = generators::generate_macro(&d)?;
/// let est = estimate(&d, &sega_cells::Technology::tsmc28(),
///                    &OperatingConditions::paper_default());
/// let audit = stats::audit(&netlist, &est)?;
/// assert!(audit.is_consistent(1e-9));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn audit(design: &Design, estimate: &MacroEstimate) -> Result<Audit, NetlistError> {
    let counts = cell_counts(design)?;
    let cost = counts_cost(&counts);
    Ok(Audit {
        netlist_area: cost.area,
        estimated_area: estimate.unit.area,
        netlist_energy: cost.energy,
        estimated_energy: estimate.unit.energy,
        counts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{Module, Signal};

    fn leaf(name: &str, nors: u32) -> Module {
        let mut m = Module::new(name);
        m.add_input("a", 1).unwrap();
        m.add_output("y", nors).unwrap();
        for i in 0..nors {
            m.add_cell(
                format!("n{i}"),
                StandardCell::Nor,
                vec![
                    ("a", Signal::net("a")),
                    ("b", Signal::net("a")),
                    ("y", Signal::bit("y", i)),
                ],
            );
        }
        m
    }

    #[test]
    fn counts_flat_module() {
        let mut d = Design::new();
        d.add_module(leaf("leaf3", 3)).unwrap();
        d.set_top("leaf3").unwrap();
        let c = cell_counts(&d).unwrap();
        assert_eq!(c.get(&StandardCell::Nor), Some(&3));
    }

    #[test]
    fn counts_multiply_through_hierarchy() {
        let mut d = Design::new();
        d.add_module(leaf("leaf2", 2)).unwrap();
        let mut mid = Module::new("mid");
        mid.add_input("a", 1).unwrap();
        mid.add_output("y", 2).unwrap();
        for i in 0..4 {
            mid.add_wire(format!("w{i}"), 2).unwrap();
            mid.add_instance(
                format!("u{i}"),
                "leaf2",
                vec![("a", Signal::net("a")), ("y", Signal::net(format!("w{i}")))],
            );
        }
        d.add_module(mid).unwrap();
        let mut top = Module::new("top");
        top.add_input("a", 1).unwrap();
        top.add_output("y", 2).unwrap();
        for i in 0..3 {
            top.add_wire(format!("w{i}"), 2).unwrap();
            top.add_instance(
                format!("m{i}"),
                "mid",
                vec![("a", Signal::net("a")), ("y", Signal::net(format!("w{i}")))],
            );
        }
        d.add_module(top).unwrap();
        d.set_top("top").unwrap();
        // 3 mids × 4 leaves × 2 NORs = 24.
        let c = cell_counts(&d).unwrap();
        assert_eq!(c.get(&StandardCell::Nor), Some(&24));
    }

    #[test]
    fn counts_cost_weights_by_cell() {
        let mut counts = HashMap::new();
        counts.insert(StandardCell::FullAdder, 10u64);
        counts.insert(StandardCell::Sram, 100u64);
        let c = counts_cost(&counts);
        assert!((c.area - (10.0 * 5.7 + 100.0 * 2.2)).abs() < 1e-9);
        assert!((c.energy - 10.0 * 8.4).abs() < 1e-9);
    }

    #[test]
    fn audit_consistency_thresholds() {
        let a = Audit {
            netlist_area: 100.0,
            estimated_area: 100.0,
            netlist_energy: 50.0,
            estimated_energy: 51.0,
            counts: HashMap::new(),
        };
        assert!(a.is_consistent(0.05));
        assert!(!a.is_consistent(0.001));
    }
}
