//! Hierarchy reporting: per-module instance statistics of a generated
//! design — the "what did the template generator actually build" view a
//! user inspects before handing the netlist to synthesis.

use std::collections::HashMap;
use std::fmt::Write as _;

use crate::ir::{Design, InstanceTarget, NetlistError};
use crate::stats::cell_counts_of_module;

/// Statistics of one module definition within a design.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModuleStats {
    /// Module name.
    pub name: String,
    /// Direct child-module instances (every copy of a replicated one).
    pub child_instances: usize,
    /// Direct leaf-cell instances (every copy of a replicated one).
    pub cell_instances: usize,
    /// Total leaf cells under this module (recursive).
    pub total_cells: u64,
    /// How many times this module is instantiated across the whole design
    /// (1 for the top).
    pub instantiation_count: u64,
}

/// Computes per-module statistics for every module reachable from the top,
/// in dependency (children-first) order.
///
/// # Errors
///
/// Fails if the design has no top or contains dangling module references.
pub fn hierarchy_stats(design: &Design) -> Result<Vec<ModuleStats>, NetlistError> {
    let top = design.top()?.name.clone();

    // Instantiation multiplicity via DFS accumulation.
    let mut multiplicity: HashMap<String, u64> = HashMap::new();
    fn walk(
        design: &Design,
        name: &str,
        factor: u64,
        multiplicity: &mut HashMap<String, u64>,
    ) -> Result<(), NetlistError> {
        *multiplicity.entry(name.to_owned()).or_insert(0) += factor;
        let m = design
            .module(name)
            .ok_or_else(|| NetlistError::UnknownModule(name.to_owned()))?;
        let mut child_counts: HashMap<&str, u64> = HashMap::new();
        for inst in &m.instances {
            if let InstanceTarget::Module(child) = &inst.target {
                *child_counts.entry(child.as_str()).or_insert(0) += u64::from(inst.count.get());
            }
        }
        for (child, count) in child_counts {
            walk(design, child, factor * count, multiplicity)?;
        }
        Ok(())
    }
    walk(design, &top, 1, &mut multiplicity)?;

    // Emit in children-first order (same as the Verilog emitter).
    let mut order: Vec<String> = Vec::new();
    let mut visited: HashMap<String, bool> = HashMap::new();
    fn post_order(
        design: &Design,
        name: &str,
        visited: &mut HashMap<String, bool>,
        order: &mut Vec<String>,
    ) {
        if visited.insert(name.to_owned(), true).is_some() {
            return;
        }
        if let Some(m) = design.module(name) {
            for inst in &m.instances {
                if let InstanceTarget::Module(child) = &inst.target {
                    post_order(design, child, visited, order);
                }
            }
        }
        order.push(name.to_owned());
    }
    post_order(design, &top, &mut visited, &mut order);

    let mut out = Vec::with_capacity(order.len());
    for name in order {
        let m = design
            .module(&name)
            .ok_or_else(|| NetlistError::UnknownModule(name.clone()))?;
        let (mut child_instances, mut cell_instances) = (0, 0);
        for inst in &m.instances {
            match inst.target {
                InstanceTarget::Module(_) => child_instances += inst.count.get() as usize,
                InstanceTarget::Cell(_) => cell_instances += inst.count.get() as usize,
            }
        }
        let total_cells: u64 = cell_counts_of_module(design, &name)?.values().sum();
        out.push(ModuleStats {
            instantiation_count: multiplicity.get(&name).copied().unwrap_or(0),
            name,
            child_instances,
            cell_instances,
            total_cells,
        });
    }
    Ok(out)
}

/// Renders the hierarchy statistics as an aligned text table.
///
/// # Errors
///
/// Same conditions as [`hierarchy_stats`].
pub fn hierarchy_report(design: &Design) -> Result<String, NetlistError> {
    let stats = hierarchy_stats(design)?;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<32} {:>6} {:>8} {:>8} {:>12}",
        "module", "uses", "children", "cells", "total cells"
    );
    for m in &stats {
        let _ = writeln!(
            s,
            "{:<32} {:>6} {:>8} {:>8} {:>12}",
            m.name, m.instantiation_count, m.child_instances, m.cell_instances, m.total_cells
        );
    }
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::generate_macro;
    use sega_estimator::{DcimDesign, Precision};

    fn small() -> Design {
        let d = DcimDesign::for_precision(Precision::Int4, 8, 8, 2, 2).unwrap();
        generate_macro(&d).unwrap()
    }

    #[test]
    fn top_is_instantiated_once_and_last() {
        let stats = hierarchy_stats(&small()).unwrap();
        let top = stats.last().unwrap();
        assert!(top.name.starts_with("dcim_int"));
        assert_eq!(top.instantiation_count, 1);
    }

    #[test]
    fn column_multiplicity_equals_n() {
        let stats = hierarchy_stats(&small()).unwrap();
        let col = stats.iter().find(|m| m.name.starts_with("col_")).unwrap();
        assert_eq!(col.instantiation_count, 8, "N=8 column instances");
    }

    #[test]
    fn total_cells_of_top_matches_flat_count() {
        let design = small();
        let stats = hierarchy_stats(&design).unwrap();
        let top = stats.last().unwrap();
        let flat: u64 = crate::stats::cell_counts(&design).unwrap().values().sum();
        assert_eq!(top.total_cells, flat);
    }

    #[test]
    fn weighted_totals_are_consistent() {
        // Sum over modules of (direct cells × multiplicity) equals the
        // top's recursive total.
        let design = small();
        let stats = hierarchy_stats(&design).unwrap();
        let top_total = stats.last().unwrap().total_cells;
        let weighted: u64 = stats
            .iter()
            .map(|m| m.cell_instances as u64 * m.instantiation_count)
            .sum();
        assert_eq!(weighted, top_total);
    }

    #[test]
    fn report_renders_every_module() {
        let design = small();
        let report = hierarchy_report(&design).unwrap();
        for m in design.modules() {
            assert!(report.contains(&m.name), "missing {}", m.name);
        }
    }

    #[test]
    fn children_precede_parents_in_report() {
        let report = hierarchy_report(&small()).unwrap();
        let col = report.find("col_").unwrap();
        let top = report.find("dcim_int").unwrap();
        assert!(col < top);
    }
}
