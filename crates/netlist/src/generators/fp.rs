//! Floating-point periphery templates: FP pre-alignment and INT-to-FP
//! conversion (paper Fig. 3, right side).

use super::primitives::{ensure_adder, ensure_shifter};
use super::{zero_extend, GenResult};
use crate::ir::{Design, Module, Signal};
use sega_cells::{ceil_log2, StandardCell};

/// Ensures the FP pre-alignment module `palign_h{h}_be{be}_bm{bm}` exists:
/// an exponent max tree of `h−1` comparators (modeled as `be`-bit adders,
/// per the paper's comparator simplification), `h` exponent-offset
/// subtractors, and `h` mantissa barrel shifters. Ports: `xe[h*be-1:0]`,
/// `xm[h*bm-1:0]`, `xma[h*bm-1:0]`, `xemax[be-1:0]`.
///
/// Behavioral note: the paper's cost model reduces the comparator to an
/// adder without the max-select mux, and this template follows the same
/// abstraction — the max tree's *selection* is represented by pass-through
/// wiring while its *logic cost* is the comparator chain. The bit-accurate
/// max/align behaviour is implemented (and verified) in `sega-sim`.
///
/// # Errors
///
/// Propagates IR construction errors.
pub fn ensure_pre_alignment(design: &mut Design, h: u32, be: u32, bm: u32) -> GenResult {
    assert!(h >= 1 && be >= 1 && bm >= 2, "invalid pre-alignment shape");
    let name = format!("palign_h{h}_be{be}_bm{bm}");
    if design.contains(&name) {
        return Ok(name);
    }
    let adder = ensure_adder(design, be)?;
    let shifter = ensure_shifter(design, bm)?;
    let amt_w = ceil_log2(bm as u64);
    let mut m = Module::new(&name);
    m.add_input("xe", h * be)?;
    m.add_input("xm", h * bm)?;
    m.add_output("xma", h * bm)?;
    m.add_output("xemax", be)?;

    // Exponent max tree: pairwise comparator reduction. Each comparator is
    // a be-bit adder (paper Table II); the winning operand is passed through
    // by wiring (see the module docs).
    let mut level: Vec<Signal> = (0..h)
        .map(|i| Signal::slice("xe", (i + 1) * be - 1, i * be))
        .collect();
    let mut depth = 0u32;
    let mut cmp_id = 0u32;
    while level.len() > 1 {
        let pairs = level.len() / 2;
        let mut next = Vec::with_capacity(pairs + level.len() % 2);
        for j in 0..pairs {
            let wire = format!("cmp{depth}_{j}");
            m.add_wire(&wire, be + 1)?;
            m.add_instance(
                format!("c{cmp_id}"),
                &adder,
                vec![
                    ("a", level[2 * j].clone()),
                    ("b", level[2 * j + 1].clone()),
                    ("sum", Signal::net(wire.clone())),
                ],
            );
            cmp_id += 1;
            // The larger operand propagates; structurally we carry the
            // first operand's wiring (selection is abstracted, see docs).
            next.push(level[2 * j].clone());
        }
        if level.len() % 2 == 1 {
            next.push(level.last().expect("odd operand").clone());
        }
        level = next;
        depth += 1;
    }
    m.add_assign(Signal::net("xemax"), level.pop().expect("max survivor"));

    // Per-input offset subtractor and mantissa shifter.
    for i in 0..h {
        let diff = format!("off{i}");
        m.add_wire(&diff, be + 1)?;
        m.add_instance(
            format!("sub{i}"),
            &adder,
            vec![
                ("a", Signal::net("xemax")),
                ("b", Signal::slice("xe", (i + 1) * be - 1, i * be)),
                ("sum", Signal::net(diff.clone())),
            ],
        );
        let amount = if amt_w <= be {
            Signal::slice(diff, amt_w - 1, 0)
        } else {
            zero_extend(Signal::slice(diff, be - 1, 0), be, amt_w)
        };
        m.add_instance(
            format!("sh{i}"),
            &shifter,
            vec![
                ("d", Signal::slice("xm", (i + 1) * bm - 1, i * bm)),
                ("amount", amount),
                ("y", Signal::slice("xma", (i + 1) * bm - 1, i * bm)),
            ],
        );
    }
    design.add_module(m)?;
    Ok(name)
}

/// Ensures the INT-to-FP converter `i2f_br{br}_be{be}` exists: a
/// leading-one detector over the `br`-bit array result (an OR reduction
/// chain, `br` OR gates), a `br`-bit normalizing barrel shifter, and a
/// `(be+1)`-bit exponent adder. Ports: `d[br-1:0]`, `ebase[be:0]`,
/// `ym[br-1:0]`, `ye[be+1:0]`.
///
/// # Errors
///
/// Propagates IR construction errors.
pub fn ensure_int_to_fp(design: &mut Design, br: u32, be: u32) -> GenResult {
    assert!(br >= 2 && be >= 1, "invalid converter shape");
    let name = format!("i2f_br{br}_be{be}");
    if design.contains(&name) {
        return Ok(name);
    }
    let shifter = ensure_shifter(design, br)?;
    let eadder = ensure_adder(design, be + 1)?;
    let amt_w = ceil_log2(br as u64);
    let mut m = Module::new(&name);
    m.add_input("d", br)?;
    m.add_input("ebase", be + 1)?;
    m.add_output("ym", br)?;
    m.add_output("ye", be + 2)?;
    // Leading-one detection: OR prefix chain from the MSB (`br` OR gates,
    // the MSB gate folding in a constant 0).
    m.add_wire("pre", br)?;
    m.add_cell(
        format!("or{}", br - 1),
        StandardCell::Or,
        vec![
            ("a", Signal::bit("d", br - 1)),
            ("b", Signal::zeros(1)),
            ("y", Signal::bit("pre", br - 1)),
        ],
    );
    for i in (0..br - 1).rev() {
        m.add_cell(
            format!("or{i}"),
            StandardCell::Or,
            vec![
                ("a", Signal::bit("d", i)),
                ("b", Signal::bit("pre", i + 1)),
                ("y", Signal::bit("pre", i)),
            ],
        );
    }
    // Normalizing shift (amount wired from the prefix's low bits; exact
    // priority encoding is behavioral, see module docs on `palign`).
    m.add_instance(
        "norm0",
        &shifter,
        vec![
            ("d", Signal::net("d")),
            ("amount", Signal::slice("pre", amt_w - 1, 0)),
            ("y", Signal::net("ym")),
        ],
    );
    // Exponent adjustment.
    m.add_instance(
        "eadj0",
        &eadder,
        vec![
            ("a", Signal::net("ebase")),
            (
                "b",
                zero_extend(Signal::slice("pre", amt_w - 1, 0), amt_w, be + 1),
            ),
            ("sum", Signal::net("ye")),
        ],
    );
    design.add_module(m)?;
    Ok(name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::unit_cost_of_module;
    use sega_estimator::components;

    const EPS: f64 = 1e-6;

    #[test]
    fn pre_alignment_matches_cost_model() {
        for (h, be, bm) in [(2u32, 4u32, 4u32), (128, 8, 8), (64, 5, 11), (100, 8, 24)] {
            let mut d = Design::new();
            let name = ensure_pre_alignment(&mut d, h, be, bm).unwrap();
            let cost = unit_cost_of_module(&d, &name).unwrap();
            let model = components::pre_alignment(h, be, bm);
            assert!(
                (cost.area - model.area).abs() < EPS,
                "h={h} be={be} bm={bm}: {} vs {}",
                cost.area,
                model.area
            );
            assert!((cost.energy - model.energy).abs() < EPS);
        }
    }

    #[test]
    fn int_to_fp_matches_cost_model() {
        for (br, be) in [(16u32, 4u32), (23, 8), (59, 8)] {
            let mut d = Design::new();
            let name = ensure_int_to_fp(&mut d, br, be).unwrap();
            let cost = unit_cost_of_module(&d, &name).unwrap();
            let model = components::int_to_fp_converter(br, be);
            assert!(
                (cost.area - model.area).abs() < EPS,
                "br={br} be={be}: {} vs {}",
                cost.area,
                model.area
            );
        }
    }

    #[test]
    fn fp_blocks_validate() {
        let mut d = Design::new();
        ensure_pre_alignment(&mut d, 16, 8, 8).unwrap();
        let top = ensure_int_to_fp(&mut d, 23, 8).unwrap();
        d.set_top(top).unwrap();
        d.validate().unwrap();
    }
}
