//! Datapath block templates: compute unit, adder tree, shift accumulator,
//! result fusion and input buffer (paper Fig. 3, left side).

use super::primitives::{ensure_adder, ensure_multiplier, ensure_selector, ensure_shifter};
use super::{fitted_const, zero_extend, GenResult};
use crate::ir::{Design, Module, NetlistError, Signal};
use sega_cells::{ceil_log2, StandardCell};

/// Ensures the compute unit `cu_l{l}_k{k}` exists (paper Fig. 5): an `L`:1
/// weight-bit selection gate feeding a 1-bit × `k`-bit NOR multiplier.
/// Ports: `w[l-1:0]` (inverted stored weight bits), `wsel[⌈log2 l⌉-1:0]`,
/// `xb[k-1:0]` (inverted input bits), `p[k-1:0]`.
///
/// For `l == 1` the selection gate degenerates to a wire (no MUX2 cells),
/// matching the cost model's `sel(1) = 0`.
///
/// # Errors
///
/// Propagates IR construction errors.
pub fn ensure_compute_unit(design: &mut Design, l: u32, k: u32) -> GenResult {
    let name = format!("cu_l{l}_k{k}");
    if design.contains(&name) {
        return Ok(name);
    }
    let mul = ensure_multiplier(design, k)?;
    let sel = if l >= 2 {
        Some(ensure_selector(design, l)?)
    } else {
        None
    };
    let mut m = Module::new(&name);
    m.add_input("w", l)?;
    let sel_w = ceil_log2(l as u64).max(1);
    m.add_input("wsel", sel_w)?;
    m.add_input("xb", k)?;
    m.add_output("p", k)?;
    m.add_wire("wbit", 1)?;
    match sel {
        Some(sel) => {
            m.add_instance(
                "wsel0",
                &sel,
                vec![
                    ("d", Signal::net("w")),
                    ("sel", Signal::slice("wsel", ceil_log2(l as u64) - 1, 0)),
                    ("y", Signal::net("wbit")),
                ],
            );
        }
        None => m.add_assign(Signal::net("wbit"), Signal::net("w")),
    }
    m.add_instance(
        "mul0",
        &mul,
        vec![
            ("xb", Signal::net("xb")),
            ("wb", Signal::net("wbit")),
            ("p", Signal::net("p")),
        ],
    );
    design.add_module(m)?;
    Ok(name)
}

/// Ensures the adder tree `atree_h{h}_k{k}` exists: pairwise reduction of
/// `h` operands of `k` bits, one-bit width growth per level. Ports:
/// `d[h*k-1:0]`, `y[wout-1:0]` with `wout = k + ⌈log2 h⌉`.
///
/// # Errors
///
/// Propagates IR construction errors.
pub fn ensure_adder_tree(design: &mut Design, h: u32, k: u32) -> GenResult {
    assert!(h >= 1 && k >= 1, "tree needs h >= 1, k >= 1");
    let name = format!("atree_h{h}_k{k}");
    if design.contains(&name) {
        return Ok(name);
    }
    let wout = k + ceil_log2(h as u64);
    let mut m = Module::new(&name);
    m.add_input("d", h * k)?;
    m.add_output("y", wout)?;

    // Current operands: (signal, width). All operands at a level share the
    // same width; an odd operand is zero-padded one bit when carried up.
    let mut operands: Vec<Signal> = (0..h)
        .map(|i| Signal::slice("d", (i + 1) * k - 1, i * k))
        .collect();
    let mut width = k;
    let mut level = 0u32;
    while operands.len() > 1 {
        let adder = ensure_adder(design, width)?;
        let m_ref = &mut m;
        let pairs = operands.len() / 2;
        let mut next: Vec<Signal> = Vec::with_capacity(pairs + operands.len() % 2);
        for j in 0..pairs {
            let wire = format!("t{level}_{j}");
            m_ref.add_wire(&wire, width + 1)?;
            m_ref.add_instance(
                format!("a{level}_{j}"),
                &adder,
                vec![
                    ("a", operands[2 * j].clone()),
                    ("b", operands[2 * j + 1].clone()),
                    ("sum", Signal::net(wire.clone())),
                ],
            );
            next.push(Signal::net(wire));
        }
        if operands.len() % 2 == 1 {
            next.push(zero_extend(
                operands.last().expect("odd operand").clone(),
                width,
                width + 1,
            ));
        }
        operands = next;
        width += 1;
        level += 1;
    }
    let result = operands.pop().expect("one result");
    m.add_assign(Signal::net("y"), zero_extend(result, width, wout));
    design.add_module(m)?;
    Ok(name)
}

/// Ensures the shift accumulator `sacc_bx{bx}_h{h}` exists (paper: "it
/// requires `(Bx + log2 H)` registers, one shifter, and one adder" of that
/// width). Ports: `d[din-1:0]` (adder-tree output), `clk`, `q[w-1:0]` with
/// `w = bx + ⌈log2 h⌉`; the shift amount is hard-wired to the per-cycle
/// input chunk width `k`.
///
/// # Errors
///
/// Propagates IR construction errors; `din` must not exceed `w`.
pub fn ensure_shift_accumulator(
    design: &mut Design,
    bx: u32,
    h: u32,
    k: u32,
    din: u32,
) -> GenResult {
    let w = bx + ceil_log2(h as u64);
    assert!(din <= w, "tree output ({din}) must fit accumulator ({w})");
    let name = format!("sacc_bx{bx}_h{h}_k{k}");
    if design.contains(&name) {
        return Ok(name);
    }
    let shifter = if w >= 2 {
        Some(ensure_shifter(design, w)?)
    } else {
        None
    };
    let adder = ensure_adder(design, w)?;
    let mut m = Module::new(&name);
    m.add_input("d", din)?;
    m.add_input("clk", 1)?;
    m.add_output("q", w)?;
    m.add_wire("shifted", w)?;
    m.add_wire("sum", w + 1)?;
    // Register bank.
    for i in 0..w {
        m.add_cell(
            format!("r{i}"),
            StandardCell::Dff,
            vec![
                ("d", Signal::bit("sum", i)),
                ("clk", Signal::net("clk")),
                ("q", Signal::bit("q", i)),
            ],
        );
    }
    // Shift the accumulated value by the chunk width each cycle.
    match shifter {
        Some(shifter) => {
            let amt_w = ceil_log2(w as u64);
            m.add_instance(
                "sh0",
                &shifter,
                vec![
                    ("d", Signal::net("q")),
                    ("amount", fitted_const(amt_w, k as u64)),
                    ("y", Signal::net("shifted")),
                ],
            );
        }
        None => m.add_assign(Signal::net("shifted"), Signal::net("q")),
    }
    // Accumulate the incoming partial sum.
    m.add_instance(
        "acc0",
        &adder,
        vec![
            ("a", Signal::net("shifted")),
            ("b", zero_extend(Signal::net("d"), din, w)),
            ("sum", Signal::net("sum")),
        ],
    );
    design.add_module(m)?;
    Ok(name)
}

/// Ensures the result fusion unit `fuse_bw{bw}_bx{bx}_h{h}` exists: the
/// weighted (hard-wired shift) summation of `bw` accumulator outputs of
/// `bx + ⌈log2 h⌉` bits into one `w`-bit result,
/// `w = bx + ⌈log2 h⌉ + bw`, using `bw − 1` adders of width `w` in a tree.
/// Ports: `d[bw*win-1:0]`, `y[w-1:0]`.
///
/// For `bw == 1` the module is a zero-padding wire (no cells), matching the
/// cost model.
///
/// # Errors
///
/// Propagates IR construction errors.
pub fn ensure_result_fusion(design: &mut Design, bw: u32, bx: u32, h: u32) -> GenResult {
    assert!(bw >= 1, "fusion needs at least one column");
    let name = format!("fuse_bw{bw}_bx{bx}_h{h}");
    if design.contains(&name) {
        return Ok(name);
    }
    let win = bx + ceil_log2(h as u64);
    let w = win + bw;
    let mut m = Module::new(&name);
    m.add_input("d", bw * win)?;
    m.add_output("y", w)?;

    // Operand j is the column-j result left-shifted by its bit position
    // (hard-wired), zero-padded to the fused width.
    let mut operands: Vec<Signal> = (0..bw)
        .map(|j| {
            let body = Signal::slice("d", (j + 1) * win - 1, j * win);
            let mut parts = Vec::new();
            if w > win + j {
                parts.push(Signal::zeros(w - win - j));
            }
            parts.push(body);
            if j > 0 {
                parts.push(Signal::zeros(j));
            }
            if parts.len() == 1 {
                parts.pop().expect("one part")
            } else {
                Signal::Concat(parts)
            }
        })
        .collect();

    if bw == 1 {
        m.add_assign(Signal::net("y"), operands.pop().expect("single operand"));
        design.add_module(m)?;
        return Ok(name);
    }

    let adder = ensure_adder(design, w)?;
    let mut level = 0u32;
    while operands.len() > 1 {
        let pairs = operands.len() / 2;
        let mut next = Vec::with_capacity(pairs + operands.len() % 2);
        for j in 0..pairs {
            let wire = format!("f{level}_{j}");
            m.add_wire(&wire, w + 1)?;
            m.add_instance(
                format!("fa{level}_{j}"),
                &adder,
                vec![
                    ("a", operands[2 * j].clone()),
                    ("b", operands[2 * j + 1].clone()),
                    ("sum", Signal::net(wire.clone())),
                ],
            );
            // Truncate the carry: fused width is the full precision already.
            next.push(Signal::slice(wire, w - 1, 0));
        }
        if operands.len() % 2 == 1 {
            next.push(operands.last().expect("odd operand").clone());
        }
        operands = next;
        level += 1;
    }
    m.add_assign(Signal::net("y"), operands.pop().expect("one result"));
    design.add_module(m)?;
    Ok(name)
}

/// Ensures the input buffer `ibuf_h{h}_bx{bx}_k{k}` exists: an `h·bx`-bit
/// register file plus, per emitted bit, a `⌈bx/k⌉`:1 chunk selector walking
/// the stored bits cycle by cycle. Ports: `d[h*bx-1:0]`, `clk`,
/// `phase[⌈log2 chunks⌉-1:0]`, `q[h*k-1:0]`.
///
/// # Errors
///
/// Propagates IR construction errors.
pub fn ensure_input_buffer(design: &mut Design, h: u32, bx: u32, k: u32) -> GenResult {
    assert!(
        h >= 1 && bx >= 1 && k >= 1 && k <= bx,
        "invalid buffer shape"
    );
    let name = format!("ibuf_h{h}_bx{bx}_k{k}");
    if design.contains(&name) {
        return Ok(name);
    }
    let chunks = bx.div_ceil(k);
    let phase_w = ceil_log2(chunks as u64).max(1);
    let sel = if chunks >= 2 {
        Some(ensure_selector(design, chunks)?)
    } else {
        None
    };
    let mut m = Module::new(&name);
    m.add_input("d", h * bx)?;
    m.add_input("clk", 1)?;
    m.add_input("phase", phase_w)?;
    m.add_output("q", h * k)?;
    m.add_wire("held", h * bx)?;
    let selectors = if sel.is_some() { h * k } else { 0 };
    m.instances.reserve((h * bx + selectors) as usize);
    for i in 0..(h * bx) {
        m.add_cell(
            format!("r{i}"),
            StandardCell::Dff,
            vec![
                ("d", Signal::bit("d", i)),
                ("clk", Signal::net("clk")),
                ("q", Signal::bit("held", i)),
            ],
        );
    }
    for row in 0..h {
        for j in 0..k {
            let out_bit = row * k + j;
            match &sel {
                Some(sel) => {
                    let cand = format!("c{out_bit}");
                    m.add_wire(&cand, chunks)?;
                    for c in 0..chunks {
                        let src_bit = c * k + j;
                        let src = if src_bit < bx {
                            Signal::bit("held", row * bx + src_bit)
                        } else {
                            Signal::zeros(1)
                        };
                        m.add_assign(Signal::bit(cand.clone(), c), src);
                    }
                    m.add_instance(
                        format!("s{out_bit}"),
                        sel,
                        vec![
                            ("d", Signal::net(cand)),
                            (
                                "sel",
                                Signal::slice("phase", ceil_log2(chunks as u64) - 1, 0),
                            ),
                            ("y", Signal::bit("q", out_bit)),
                        ],
                    );
                }
                None => {
                    m.add_assign(Signal::bit("q", out_bit), Signal::bit("held", row * bx + j));
                }
            }
        }
    }
    design.add_module(m)?;
    Ok(name)
}

/// Helper: the adder-tree output width for `h` operands of `k` bits.
pub(crate) fn tree_output_width(h: u32, k: u32) -> u32 {
    k + ceil_log2(h as u64)
}

#[allow(dead_code)]
fn unused(_: NetlistError) {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{cell_counts_of_module, unit_cost_of_module};
    use sega_estimator::components;

    const EPS: f64 = 1e-6;

    #[test]
    fn compute_unit_matches_cost_model() {
        let (l, k) = (16u32, 4u32);
        let mut d = Design::new();
        let name = ensure_compute_unit(&mut d, l, k).unwrap();
        let cost = unit_cost_of_module(&d, &name).unwrap();
        let model = sega_cells::modules::selector(l).then(sega_cells::modules::multiplier(k));
        assert!((cost.area - model.area).abs() < EPS);
        assert!((cost.energy - model.energy).abs() < EPS);
    }

    #[test]
    fn compute_unit_l1_has_no_muxes() {
        let mut d = Design::new();
        let name = ensure_compute_unit(&mut d, 1, 4).unwrap();
        let counts = cell_counts_of_module(&d, &name).unwrap();
        assert_eq!(counts.get(&StandardCell::Mux2), None);
        assert_eq!(counts.get(&StandardCell::Nor), Some(&4));
    }

    #[test]
    fn adder_tree_matches_cost_model() {
        for (h, k) in [(2u32, 4u32), (8, 2), (128, 4), (100, 3)] {
            let mut d = Design::new();
            let name = ensure_adder_tree(&mut d, h, k).unwrap();
            let cost = unit_cost_of_module(&d, &name).unwrap();
            let model = components::adder_tree(h, k);
            assert!(
                (cost.area - model.area).abs() < EPS,
                "h={h} k={k}: {} vs {}",
                cost.area,
                model.area
            );
            assert!((cost.energy - model.energy).abs() < EPS);
        }
    }

    #[test]
    fn shift_accumulator_matches_cost_model() {
        let (bx, h, k) = (8u32, 128u32, 4u32);
        let mut d = Design::new();
        let din = tree_output_width(h, k);
        let name = ensure_shift_accumulator(&mut d, bx, h, k, din).unwrap();
        let cost = unit_cost_of_module(&d, &name).unwrap();
        let model = components::shift_accumulator(bx, h);
        assert!((cost.area - model.area).abs() < EPS);
        assert!((cost.energy - model.energy).abs() < EPS);
    }

    #[test]
    fn result_fusion_matches_cost_model() {
        for bw in [1u32, 2, 4, 8] {
            let (bx, h) = (8u32, 128u32);
            let mut d = Design::new();
            let name = ensure_result_fusion(&mut d, bw, bx, h).unwrap();
            let cost = unit_cost_of_module(&d, &name).unwrap();
            let model = components::result_fusion(bw, bx, h);
            assert!(
                (cost.area - model.area).abs() < EPS,
                "bw={bw}: {} vs {}",
                cost.area,
                model.area
            );
        }
    }

    #[test]
    fn input_buffer_matches_cost_model() {
        for (h, bx, k) in [(8u32, 8u32, 8u32), (128, 8, 4), (16, 8, 1), (4, 8, 3)] {
            let mut d = Design::new();
            let name = ensure_input_buffer(&mut d, h, bx, k).unwrap();
            let cost = unit_cost_of_module(&d, &name).unwrap();
            let model = components::input_buffer(h, bx, k);
            assert!(
                (cost.area - model.area).abs() < EPS,
                "h={h} bx={bx} k={k}: {} vs {}",
                cost.area,
                model.area
            );
        }
    }

    #[test]
    fn datapath_blocks_validate() {
        let mut d = Design::new();
        ensure_compute_unit(&mut d, 16, 4).unwrap();
        ensure_adder_tree(&mut d, 16, 4).unwrap();
        ensure_shift_accumulator(&mut d, 8, 16, 4, tree_output_width(16, 4)).unwrap();
        ensure_result_fusion(&mut d, 8, 8, 16).unwrap();
        let top = ensure_input_buffer(&mut d, 16, 8, 4).unwrap();
        d.set_top(top).unwrap();
        d.validate().unwrap();
    }
}
