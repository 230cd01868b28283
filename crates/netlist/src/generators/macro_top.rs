//! Column and whole-macro templates: the memory array plus compute
//! components assembled into the synthesizable DCIM of paper Fig. 3.

use super::datapath::{
    ensure_adder_tree, ensure_compute_unit, ensure_input_buffer, ensure_result_fusion,
    ensure_shift_accumulator, tree_output_width,
};
use super::fp::{ensure_int_to_fp, ensure_pre_alignment};
use super::GenResult;
use crate::ir::{Design, InstanceTarget, Module, NetlistError, Signal};
use sega_cells::{ceil_log2, StandardCell};
use sega_estimator::{DcimDesign, FpParams, IntParams};

/// Ensures one DCIM array column `col_h{h}_l{l}_k{k}_bx{bx}` exists:
/// `h·l` SRAM bit cells, `h` compute units, one adder tree and one shift
/// accumulator (paper Fig. 3, "Column N"). Ports: `xb[h*k-1:0]`,
/// `wsel`, `clk`, `wdata`, `wl[h*l-1:0]`, `q[bx+⌈log2 h⌉-1:0]`.
///
/// # Errors
///
/// Propagates IR construction errors.
pub fn ensure_column(design: &mut Design, h: u32, l: u32, k: u32, bx: u32) -> GenResult {
    let name = format!("col_h{h}_l{l}_k{k}_bx{bx}");
    if design.contains(&name) {
        return Ok(name);
    }
    let cu = ensure_compute_unit(design, l, k)?;
    let tree = ensure_adder_tree(design, h, k)?;
    let din = tree_output_width(h, k);
    let acc = ensure_shift_accumulator(design, bx, h, k, din)?;
    let wsel_w = ceil_log2(l as u64).max(1);
    let qw = bx + ceil_log2(h as u64);

    let mut m = Module::new(&name);
    m.add_input("xb", h * k)?;
    m.add_input("wsel", wsel_w)?;
    m.add_input("clk", 1)?;
    m.add_input("wdata", 1)?;
    m.add_input("wl", h * l)?;
    m.add_output("q", qw)?;
    m.add_wire("wq", h * l)?;
    m.add_wire("pr", h * k)?;
    m.add_wire("tsum", din)?;

    // The memory array: L weight bits hard-wired into each compute unit.
    m.instances.reserve((h * l + h + 2) as usize);
    for i in 0..(h * l) {
        m.add_cell(
            format!("sram{i}"),
            StandardCell::Sram,
            vec![
                ("d", Signal::net("wdata")),
                ("wl", Signal::bit("wl", i)),
                ("q", Signal::bit("wq", i)),
            ],
        );
    }
    // One compute unit per row.
    for r in 0..h {
        m.add_instance(
            format!("cu{r}"),
            &cu,
            vec![
                ("w", Signal::slice("wq", (r + 1) * l - 1, r * l)),
                ("wsel", Signal::net("wsel")),
                ("xb", Signal::slice("xb", (r + 1) * k - 1, r * k)),
                ("p", Signal::slice("pr", (r + 1) * k - 1, r * k)),
            ],
        );
    }
    m.add_instance(
        "tree0",
        &tree,
        vec![("d", Signal::net("pr")), ("y", Signal::net("tsum"))],
    );
    m.add_instance(
        "acc0",
        &acc,
        vec![
            ("d", Signal::net("tsum")),
            ("clk", Signal::net("clk")),
            ("q", Signal::net("q")),
        ],
    );
    design.add_module(m)?;
    Ok(name)
}

/// Generates the complete hierarchical netlist for a DCIM design point —
/// the paper's template-based generator step. Returns a validated
/// [`Design`] whose top module is the macro.
///
/// # Errors
///
/// Propagates IR construction/validation errors (which indicate a template
/// bug, not a user error: any [`DcimDesign`] that passed parameter
/// validation generates successfully).
///
/// # Example
///
/// ```
/// use sega_estimator::{DcimDesign, Precision};
/// use sega_netlist::generators::generate_macro;
///
/// let d = DcimDesign::for_precision(Precision::Int8, 16, 8, 4, 2)?;
/// let netlist = generate_macro(&d)?;
/// assert!(netlist.top()?.name.starts_with("dcim_int"));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn generate_macro(design_point: &DcimDesign) -> Result<Design, NetlistError> {
    design_point
        .validate()
        .expect("generate_macro requires a validated design point");
    let mut d = Design::new();
    let top = match design_point {
        DcimDesign::Int(p) => generate_int_macro(&mut d, p)?,
        DcimDesign::Fp(p) => generate_fp_macro(&mut d, p)?,
    };
    d.set_top(top)?;
    d.validate_and_mark()?;
    Ok(d)
}

/// The macro's `n` array columns as one replicated entry: column `c`
/// drives its `qw`-bit lane of `colq`.
fn add_columns(m: &mut Module, n: u32, col: String, qw: u32) {
    m.add_replicated(
        "col",
        n,
        InstanceTarget::Module(col),
        vec![
            ("xb", Signal::net("xb")),
            ("wsel", Signal::net("wsel")),
            ("clk", Signal::net("clk")),
            ("wdata", Signal::net("wdata")),
            ("wl", Signal::net("wl")),
            ("q", Signal::lane("colq", qw)),
        ],
    );
}

fn generate_int_macro(d: &mut Design, p: &IntParams) -> GenResult {
    let IntParams { n, h, l, k, bw, bx } = *p;
    let name = format!("dcim_int_n{n}_h{h}_l{l}_k{k}_bw{bw}_bx{bx}");
    if d.contains(&name) {
        return Ok(name);
    }
    let ibuf = ensure_input_buffer(d, h, bx, k)?;
    let col = ensure_column(d, h, l, k, bx)?;
    let fuse = ensure_result_fusion(d, bw, bx, h)?;

    let chunks = bx.div_ceil(k);
    let phase_w = ceil_log2(chunks as u64).max(1);
    let wsel_w = ceil_log2(l as u64).max(1);
    let qw = bx + ceil_log2(h as u64);
    let wf = qw + bw;
    let groups = n / bw;

    let mut m = Module::new(&name);
    m.add_input("xin", h * bx)?;
    m.add_input("clk", 1)?;
    m.add_input("phase", phase_w)?;
    m.add_input("wsel", wsel_w)?;
    m.add_input("wdata", 1)?;
    m.add_input("wl", h * l)?;
    m.add_output("y", groups * wf)?;
    m.add_wire("xb", h * k)?;
    m.add_wire("colq", n * qw)?;

    m.add_instance(
        "ibuf0",
        &ibuf,
        vec![
            ("d", Signal::net("xin")),
            ("clk", Signal::net("clk")),
            ("phase", Signal::net("phase")),
            ("q", Signal::net("xb")),
        ],
    );
    add_columns(&mut m, n, col, qw);
    m.add_replicated(
        "fuse",
        groups,
        InstanceTarget::Module(fuse),
        vec![
            ("d", Signal::lane("colq", bw * qw)),
            ("y", Signal::lane("y", wf)),
        ],
    );
    d.add_module(m)?;
    Ok(name)
}

fn generate_fp_macro(d: &mut Design, p: &FpParams) -> GenResult {
    let FpParams { n, h, l, k, be, bm } = *p;
    let name = format!("dcim_fp_n{n}_h{h}_l{l}_k{k}_be{be}_bm{bm}");
    if d.contains(&name) {
        return Ok(name);
    }
    let palign = ensure_pre_alignment(d, h, be, bm)?;
    let ibuf = ensure_input_buffer(d, h, bm, k)?;
    let col = ensure_column(d, h, l, k, bm)?;
    let fuse = ensure_result_fusion(d, bm, bm, h)?;
    let br = p.result_bits();
    let i2f = ensure_int_to_fp(d, br, be)?;

    let chunks = bm.div_ceil(k);
    let phase_w = ceil_log2(chunks as u64).max(1);
    let wsel_w = ceil_log2(l as u64).max(1);
    let qw = bm + ceil_log2(h as u64);
    let groups = n / bm;

    let mut m = Module::new(&name);
    m.add_input("xe", h * be)?;
    m.add_input("xm", h * bm)?;
    m.add_input("clk", 1)?;
    m.add_input("phase", phase_w)?;
    m.add_input("wsel", wsel_w)?;
    m.add_input("wdata", 1)?;
    m.add_input("wl", h * l)?;
    m.add_input("ebase", be + 1)?;
    m.add_output("xemax", be)?;
    m.add_output("ym", groups * br)?;
    m.add_output("ye", groups * (be + 2))?;
    m.add_wire("xma", h * bm)?;
    m.add_wire("xb", h * k)?;
    m.add_wire("colq", n * qw)?;
    m.add_wire("fused", groups * br)?;

    m.add_instance(
        "palign0",
        &palign,
        vec![
            ("xe", Signal::net("xe")),
            ("xm", Signal::net("xm")),
            ("xma", Signal::net("xma")),
            ("xemax", Signal::net("xemax")),
        ],
    );
    m.add_instance(
        "ibuf0",
        &ibuf,
        vec![
            ("d", Signal::net("xma")),
            ("clk", Signal::net("clk")),
            ("phase", Signal::net("phase")),
            ("q", Signal::net("xb")),
        ],
    );
    add_columns(&mut m, n, col, qw);
    // Group g's fusion and converter, emitted as pairs: fuse0, i2f0, fuse1, …
    m.add_replicated(
        "fuse",
        groups,
        InstanceTarget::Module(fuse),
        vec![
            ("d", Signal::lane("colq", bm * qw)),
            ("y", Signal::lane("fused", br)),
        ],
    );
    m.add_replicated(
        "i2f",
        groups,
        InstanceTarget::Module(i2f),
        vec![
            ("d", Signal::lane("fused", br)),
            ("ebase", Signal::net("ebase")),
            ("ym", Signal::lane("ym", br)),
            ("ye", Signal::lane("ye", be + 2)),
        ],
    )
    .interleaved = true;
    d.add_module(m)?;
    Ok(name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{cell_counts, unit_cost_of_module};
    use sega_estimator::Precision;

    #[test]
    fn column_validates_and_counts_sram() {
        let mut d = Design::new();
        let name = ensure_column(&mut d, 8, 4, 2, 8).unwrap();
        d.set_top(name.clone()).unwrap();
        d.validate().unwrap();
        let counts = crate::stats::cell_counts_of_module(&d, &name).unwrap();
        assert_eq!(counts.get(&StandardCell::Sram), Some(&32));
    }

    #[test]
    fn int_macro_generates_and_validates() {
        let dp = DcimDesign::for_precision(Precision::Int8, 16, 8, 4, 2).unwrap();
        let netlist = generate_macro(&dp).unwrap();
        let counts = cell_counts(&netlist).unwrap();
        assert_eq!(counts.get(&StandardCell::Sram), Some(&(16 * 8 * 4)));
    }

    #[test]
    fn fp_macro_generates_and_validates() {
        let dp = DcimDesign::for_precision(Precision::Bf16, 16, 8, 4, 2).unwrap();
        let netlist = generate_macro(&dp).unwrap();
        assert!(netlist.top().unwrap().name.starts_with("dcim_fp"));
        let counts = cell_counts(&netlist).unwrap();
        // FP macro must contain OR gates (leading-one detectors).
        assert!(counts.get(&StandardCell::Or).copied().unwrap_or(0) > 0);
    }

    #[test]
    fn int_macro_area_matches_estimator_exactly() {
        use sega_estimator::{estimate, OperatingConditions};
        let dp = DcimDesign::for_precision(Precision::Int8, 16, 16, 8, 4).unwrap();
        let netlist = generate_macro(&dp).unwrap();
        let top = netlist.top().unwrap().name.clone();
        let cost = unit_cost_of_module(&netlist, &top).unwrap();
        let est = estimate(
            &dp,
            &sega_cells::Technology::tsmc28(),
            &OperatingConditions::paper_default(),
        );
        let rel = (cost.area - est.unit.area).abs() / est.unit.area;
        assert!(
            rel < 1e-9,
            "netlist area {} vs estimator {} (rel err {rel})",
            cost.area,
            est.unit.area
        );
    }
}
