//! Leaf-level module templates: ripple adder, mux-tree selector, barrel
//! shifter, NOR multiplier (paper Table II / Fig. 5 structures).

use super::GenResult;
use crate::ir::{Design, Module, Signal};
use sega_cells::{ceil_log2, StandardCell};

/// Ensures a `w`-bit carry-ripple adder module `add{w}` exists:
/// ports `a[w-1:0]`, `b[w-1:0]`, `sum[w:0]`; 1 HA + `w−1` FA.
///
/// # Errors
///
/// Propagates IR construction errors (which indicate a generator bug).
pub fn ensure_adder(design: &mut Design, w: u32) -> GenResult {
    assert!(w >= 1, "adder width must be >= 1");
    let name = format!("add{w}");
    if design.contains(&name) {
        return Ok(name);
    }
    let mut m = Module::new(&name);
    m.add_input("a", w)?;
    m.add_input("b", w)?;
    m.add_output("sum", w + 1)?;
    if w >= 2 {
        m.add_wire("c", w - 1)?;
    }
    // Bit 0: half adder.
    m.add_cell(
        "ha0",
        StandardCell::HalfAdder,
        vec![
            ("a", Signal::bit("a", 0)),
            ("b", Signal::bit("b", 0)),
            ("sum", Signal::bit("sum", 0)),
            (
                "cout",
                if w == 1 {
                    Signal::bit("sum", 1)
                } else {
                    Signal::bit("c", 0)
                },
            ),
        ],
    );
    // Bits 1..w: full adders rippling the carry; last carry is sum[w].
    for i in 1..w {
        let cout = if i == w - 1 {
            Signal::bit("sum", w)
        } else {
            Signal::bit("c", i)
        };
        m.add_cell(
            format!("fa{i}"),
            StandardCell::FullAdder,
            vec![
                ("a", Signal::bit("a", i)),
                ("b", Signal::bit("b", i)),
                ("cin", Signal::bit("c", i - 1)),
                ("sum", Signal::bit("sum", i)),
                ("cout", cout),
            ],
        );
    }
    design.add_module(m)?;
    Ok(name)
}

/// Ensures an `n`:1 single-bit selector module `sel{n}` exists (`n ≥ 2`):
/// ports `d[n-1:0]`, `sel[⌈log2 n⌉-1:0]`, `y`; a mux tree of `n−1` MUX2.
///
/// # Errors
///
/// Propagates IR construction errors.
pub fn ensure_selector(design: &mut Design, n: u32) -> GenResult {
    assert!(
        n >= 2,
        "selector needs at least 2 inputs (use a wire for 1)"
    );
    let name = format!("sel{n}");
    if design.contains(&name) {
        return Ok(name);
    }
    let sel_w = ceil_log2(n as u64);
    let mut m = Module::new(&name);
    m.add_input("d", n)?;
    m.add_input("sel", sel_w)?;
    m.add_output("y", 1)?;

    let mut level: Vec<Signal> = (0..n).map(|i| Signal::bit("d", i)).collect();
    let mut mux_id = 0u32;
    let mut depth = 0u32;
    while level.len() > 1 {
        let pairs = level.len() / 2;
        let mut next: Vec<Signal> = Vec::with_capacity(pairs + level.len() % 2);
        let wire = format!("l{depth}");
        if pairs > 0 {
            m.add_wire(&wire, pairs as u32)?;
        }
        for j in 0..pairs {
            m.add_cell(
                format!("mx{mux_id}"),
                StandardCell::Mux2,
                vec![
                    ("a", level[2 * j].clone()),
                    ("b", level[2 * j + 1].clone()),
                    ("sel", Signal::bit("sel", depth)),
                    ("y", Signal::bit(wire.clone(), j as u32)),
                ],
            );
            mux_id += 1;
            next.push(Signal::bit(wire.clone(), j as u32));
        }
        if level.len() % 2 == 1 {
            next.push(level.last().expect("nonempty level").clone());
        }
        level = next;
        depth += 1;
    }
    m.add_assign(Signal::net("y"), level.pop().expect("one survivor"));
    design.add_module(m)?;
    Ok(name)
}

/// Ensures a `w`-bit logical right barrel shifter module `shr{w}` exists
/// (`w ≥ 2`): ports `d[w-1:0]`, `amount[⌈log2 w⌉-1:0]`, `y[w-1:0]`.
///
/// Per Table II the shifter is `w` parallel `w`:1 selections (one per output
/// bit), each picking `d[i + amount]` with zero fill beyond the msb —
/// `w·(w−1)` MUX2 in total.
///
/// # Errors
///
/// Propagates IR construction errors.
pub fn ensure_shifter(design: &mut Design, w: u32) -> GenResult {
    assert!(w >= 2, "shifter width must be >= 2 (1-bit shift is a wire)");
    let name = format!("shr{w}");
    if design.contains(&name) {
        return Ok(name);
    }
    let sel = ensure_selector(design, w)?;
    let sel_w = ceil_log2(w as u64);
    let mut m = Module::new(&name);
    m.add_input("d", w)?;
    m.add_input("amount", sel_w)?;
    m.add_output("y", w)?;
    for i in 0..w {
        // Candidate bus for output bit i: candidate a is d[i+a] (0 beyond).
        let cand = format!("c{i}");
        m.add_wire(&cand, w)?;
        for a in 0..w {
            let src = if i + a < w {
                Signal::bit("d", i + a)
            } else {
                Signal::zeros(1)
            };
            m.add_assign(Signal::bit(cand.clone(), a), src);
        }
        m.add_instance(
            format!("s{i}"),
            &sel,
            vec![
                ("d", Signal::net(cand)),
                ("sel", Signal::net("amount")),
                ("y", Signal::bit("y", i)),
            ],
        );
    }
    design.add_module(m)?;
    Ok(name)
}

/// Ensures the 1-bit × `k`-bit NOR multiplier module `mul1x{k}` exists
/// (paper Fig. 5: `IN × W = INB NOR WB`): ports `xb[k-1:0]` (inverted input
/// bits), `wb` (inverted selected weight bit), `p[k-1:0]`.
///
/// # Errors
///
/// Propagates IR construction errors.
pub fn ensure_multiplier(design: &mut Design, k: u32) -> GenResult {
    assert!(k >= 1, "multiplier width must be >= 1");
    let name = format!("mul1x{k}");
    if design.contains(&name) {
        return Ok(name);
    }
    let mut m = Module::new(&name);
    m.add_input("xb", k)?;
    m.add_input("wb", 1)?;
    m.add_output("p", k)?;
    for i in 0..k {
        m.add_cell(
            format!("n{i}"),
            StandardCell::Nor,
            vec![
                ("a", Signal::bit("xb", i)),
                ("b", Signal::net("wb")),
                ("y", Signal::bit("p", i)),
            ],
        );
    }
    design.add_module(m)?;
    Ok(name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::cell_counts_of_module;

    fn fresh() -> Design {
        Design::new()
    }

    #[test]
    fn adder_cell_inventory() {
        let mut d = fresh();
        let name = ensure_adder(&mut d, 8).unwrap();
        let counts = cell_counts_of_module(&d, &name).unwrap();
        assert_eq!(counts.get(&StandardCell::HalfAdder), Some(&1));
        assert_eq!(counts.get(&StandardCell::FullAdder), Some(&7));
    }

    #[test]
    fn adder_one_bit() {
        let mut d = fresh();
        let name = ensure_adder(&mut d, 1).unwrap();
        let counts = cell_counts_of_module(&d, &name).unwrap();
        assert_eq!(counts.get(&StandardCell::HalfAdder), Some(&1));
        assert_eq!(counts.get(&StandardCell::FullAdder), None);
    }

    #[test]
    fn adder_is_memoized() {
        let mut d = fresh();
        let a = ensure_adder(&mut d, 4).unwrap();
        let b = ensure_adder(&mut d, 4).unwrap();
        assert_eq!(a, b);
        assert_eq!(d.modules().len(), 1);
    }

    #[test]
    fn selector_uses_n_minus_one_muxes() {
        for n in [2u32, 3, 5, 8, 16, 33] {
            let mut d = fresh();
            let name = ensure_selector(&mut d, n).unwrap();
            let counts = cell_counts_of_module(&d, &name).unwrap();
            assert_eq!(
                counts.get(&StandardCell::Mux2),
                Some(&((n - 1) as u64)),
                "n={n}"
            );
        }
    }

    #[test]
    fn shifter_uses_w_selectors() {
        let w = 6u32;
        let mut d = fresh();
        let name = ensure_shifter(&mut d, w).unwrap();
        let counts = cell_counts_of_module(&d, &name).unwrap();
        assert_eq!(
            counts.get(&StandardCell::Mux2),
            Some(&((w * (w - 1)) as u64))
        );
    }

    #[test]
    fn multiplier_uses_k_nors() {
        let mut d = fresh();
        let name = ensure_multiplier(&mut d, 4).unwrap();
        let counts = cell_counts_of_module(&d, &name).unwrap();
        assert_eq!(counts.get(&StandardCell::Nor), Some(&4));
    }

    #[test]
    fn primitives_validate() {
        let mut d = fresh();
        ensure_adder(&mut d, 5).unwrap();
        ensure_selector(&mut d, 7).unwrap();
        let top = ensure_shifter(&mut d, 9).unwrap();
        ensure_multiplier(&mut d, 3).unwrap();
        d.set_top(top).unwrap();
        d.validate().unwrap();
    }
}
