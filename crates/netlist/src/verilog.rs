//! Structural Verilog emission.
//!
//! [`emit`] renders a whole [`Design`] as a single self-contained `.v`
//! file: behavioral primitives for every Table III cell actually used,
//! followed by the module definitions in dependency order (children before
//! parents), ending with the top module. This is the artifact the paper
//! hands to the commercial synthesis/P&R flow; `sega-layout` consumes the
//! same [`Design`] directly.

use std::collections::HashSet;
use std::fmt::Write as _;

use crate::cells::cell_verilog;
use crate::ir::{interleaved_runs, Design, Dir, InstanceTarget, Module, NetlistError, Signal};
use sega_cells::ALL_CELLS;

/// Emits the whole design as self-contained structural Verilog.
///
/// The text is streamed into one buffer. Each instance entry's line is
/// rendered once; a replicated entry then writes only its copy index and
/// lane bounds per copy.
///
/// # Errors
///
/// Fails if the design does not validate (the emitter never renders a
/// malformed netlist).
pub fn emit(design: &Design) -> Result<String, NetlistError> {
    design.validate()?;
    let top = design.top()?;
    let mut out = String::new();
    out.push_str("// Generated by sega-netlist (SEGA-DCIM template-based generator)\n");
    out.push_str("// Top module: ");
    out.push_str(&top.name);
    out.push_str("\n\n");

    // Behavioral primitives for every used cell, in Table III order.
    let mut used = [false; ALL_CELLS.len()];
    for m in design.modules() {
        for inst in &m.instances {
            if let InstanceTarget::Cell(c) = inst.target {
                used[c as usize] = true;
            }
        }
    }
    for cell in ALL_CELLS {
        if used[cell as usize] {
            out.push_str(cell_verilog(cell));
            out.push('\n');
        }
    }

    // Modules in dependency order.
    for module in emission_order(design)? {
        emit_module(&mut out, module);
    }
    Ok(out)
}

/// Post-order DFS from the top: children before parents, only reachable
/// modules.
fn emission_order(design: &Design) -> Result<Vec<&Module>, NetlistError> {
    let mut order = Vec::new();
    let mut visited = HashSet::new();
    visit(design, design.top()?, &mut visited, &mut order)?;
    Ok(order)
}

fn visit<'d>(
    design: &'d Design,
    m: &'d Module,
    visited: &mut HashSet<&'d str>,
    order: &mut Vec<&'d Module>,
) -> Result<(), NetlistError> {
    if !visited.insert(&m.name) {
        return Ok(());
    }
    for inst in &m.instances {
        if let InstanceTarget::Module(child) = &inst.target {
            let child = design
                .module(child)
                .ok_or_else(|| NetlistError::UnknownModule(child.clone()))?;
            visit(design, child, visited, order)?;
        }
    }
    order.push(m);
    Ok(())
}

/// Appends `name` with its bus range: `[w-1:0] name`, or `name` alone for
/// a single bit.
fn push_decl(out: &mut String, width: u32, name: &str) {
    if width != 1 {
        let _ = write!(out, "[{}:0] ", width - 1);
    }
    out.push_str(name);
}

fn emit_module(out: &mut String, m: &Module) {
    out.push_str("module ");
    out.push_str(&m.name);
    out.push('(');
    for (i, p) in m.ports.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&p.name);
    }
    out.push_str(");\n");
    for p in &m.ports {
        out.push_str(match p.dir {
            Dir::Input => "  input ",
            Dir::Output => "  output ",
        });
        push_decl(out, p.width, &p.name);
        out.push_str(";\n");
    }
    for w in &m.wires {
        out.push_str("  wire ");
        push_decl(out, w.width, &w.name);
        out.push_str(";\n");
    }
    let mut line = Line::default();
    for (lhs, rhs) in &m.assigns {
        line.clear();
        line.text.push_str("  assign ");
        line.push_signal(lhs);
        line.text.push_str(" = ");
        line.push_signal(rhs);
        line.text.push_str(";\n");
        line.write_copy(out, 0);
    }
    let mut lines: Vec<Line> = Vec::new();
    for run in interleaved_runs(&m.instances) {
        lines.resize_with(run.len(), Line::default);
        let mut bytes = 0;
        for (line, inst) in lines.iter_mut().zip(run) {
            line.clear();
            line.text.push_str("  ");
            line.text.push_str(inst.target.name());
            line.text.push(' ');
            line.text.push_str(&inst.name);
            if inst.count.get() > 1 {
                line.holes.push((line.text.len(), Hole::Index));
            }
            line.text.push_str(" (");
            for (i, (port, sig)) in inst.connections.iter().enumerate() {
                if i > 0 {
                    line.text.push_str(", ");
                }
                line.text.push('.');
                line.text.push_str(port);
                line.text.push('(');
                line.push_signal(sig);
                line.text.push(')');
            }
            line.text.push_str(");\n");
            bytes += line.max_len(inst.count.get()) * inst.count.get() as usize;
        }
        out.reserve(bytes);
        let copies = run.iter().map(|inst| inst.count.get()).max().unwrap_or(0);
        for copy in 0..copies {
            for (line, inst) in lines.iter().zip(run) {
                if copy < inst.count.get() {
                    line.write_copy(out, copy);
                }
            }
        }
    }
    out.push_str("endmodule\n\n");
}

/// One rendered line: its constant text, plus the byte offsets where each
/// copy writes its own index or lane bounds.
#[derive(Default)]
struct Line {
    text: String,
    holes: Vec<(usize, Hole)>,
}

#[derive(Clone, Copy)]
enum Hole {
    /// The copy index, after the instance name prefix.
    Index,
    /// `[msb:lsb]` of the copy's lane of this many bits.
    Lane(u32),
}

impl Line {
    fn clear(&mut self) {
        self.text.clear();
        self.holes.clear();
    }

    /// Appends a signal expression, rendered as Verilog; a lane leaves a
    /// hole after its net name.
    fn push_signal(&mut self, signal: &Signal) {
        let out = &mut self.text;
        match signal {
            Signal::Net(n) => out.push_str(n),
            Signal::Bit(n, b) => {
                let _ = write!(out, "{n}[{b}]");
            }
            Signal::Slice { net, msb, lsb } => {
                let _ = write!(out, "{net}[{msb}:{lsb}]");
            }
            Signal::Lane { net, width } => {
                out.push_str(net);
                self.holes.push((out.len(), Hole::Lane(width.get())));
            }
            Signal::Const { width, value } => {
                let _ = write!(out, "{width}'d{value}");
            }
            Signal::Concat(parts) => {
                out.push('{');
                for (i, part) in parts.iter().enumerate() {
                    if i > 0 {
                        self.text.push_str(", ");
                    }
                    self.push_signal(part);
                }
                self.text.push('}');
            }
        }
    }

    /// An upper bound on the bytes [`write_copy`](Line::write_copy) writes
    /// for any copy below `count`.
    fn max_len(&self, count: u32) -> usize {
        let last = u64::from(count - 1);
        let holes: usize = self
            .holes
            .iter()
            .map(|&(_, hole)| match hole {
                Hole::Index => digits(last),
                Hole::Lane(w) => 3 + 2 * digits((last + 1) * u64::from(w)),
            })
            .sum();
        self.text.len() + holes
    }

    /// Writes the line for copy `copy`.
    fn write_copy(&self, out: &mut String, copy: u32) {
        let mut at = 0;
        for &(pos, hole) in &self.holes {
            out.push_str(&self.text[at..pos]);
            match hole {
                Hole::Index => push_uint(out, u64::from(copy)),
                Hole::Lane(w) => {
                    let lsb = u64::from(copy) * u64::from(w);
                    out.push('[');
                    push_uint(out, lsb + u64::from(w) - 1);
                    out.push(':');
                    push_uint(out, lsb);
                    out.push(']');
                }
            }
            at = pos;
        }
        out.push_str(&self.text[at..]);
    }
}

/// Decimal digits of `n`.
fn digits(n: u64) -> usize {
    n.checked_ilog10().map_or(1, |d| d as usize + 1)
}

/// Appends `n` in decimal, without the formatting machinery.
fn push_uint(out: &mut String, mut n: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[i..]).expect("ASCII digits"));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::generate_macro;
    use sega_estimator::{DcimDesign, Precision};

    fn small_int() -> Design {
        let d = DcimDesign::for_precision(Precision::Int4, 8, 4, 2, 1).unwrap();
        generate_macro(&d).unwrap()
    }

    #[test]
    fn emits_self_contained_verilog() {
        let v = emit(&small_int()).unwrap();
        // Primitives present.
        assert!(v.contains("module NOR("));
        assert!(v.contains("module DFF("));
        assert!(v.contains("module SRAM("));
        // Top present and last.
        let top_pos = v.find("module dcim_int").expect("top module emitted");
        let nor_pos = v.find("module NOR(").expect("primitive emitted");
        assert!(nor_pos < top_pos, "primitives must precede the top");
        assert!(v.trim_end().ends_with("endmodule"));
    }

    #[test]
    fn children_precede_parents() {
        let v = emit(&small_int()).unwrap();
        let col = v.find("module col_").expect("column module");
        let top = v.find("module dcim_int").expect("top module");
        let adder = v.find("module add").expect("adder module");
        assert!(adder < col && col < top);
    }

    #[test]
    fn module_and_endmodule_counts_balance() {
        let v = emit(&small_int()).unwrap();
        let modules = v.matches("\nmodule ").count() + usize::from(v.starts_with("module "));
        let ends = v.matches("endmodule").count();
        assert_eq!(modules, ends);
    }

    fn render(signal: &Signal) -> String {
        let mut line = Line::default();
        line.push_signal(signal);
        let mut out = String::new();
        line.write_copy(&mut out, 0);
        out
    }

    #[test]
    fn render_forms() {
        assert_eq!(render(&Signal::net("x")), "x");
        assert_eq!(render(&Signal::bit("x", 3)), "x[3]");
        assert_eq!(render(&Signal::slice("x", 7, 4)), "x[7:4]");
        assert_eq!(render(&Signal::Const { width: 4, value: 5 }), "4'd5");
        assert_eq!(
            render(&Signal::Concat(vec![Signal::net("a"), Signal::bit("b", 0)])),
            "{a, b[0]}"
        );
        assert_eq!(render(&Signal::Concat(vec![])), "{}");
    }

    #[test]
    fn invalid_design_is_refused() {
        let d = Design::new();
        assert!(matches!(emit(&d), Err(NetlistError::NoTop)));
    }

    #[test]
    fn marked_design_that_changed_is_refused() {
        let mut d = small_int();
        let mut bad = Module::new("bad");
        bad.add_instance("c0", "ghost", vec![]);
        d.add_module(bad).unwrap();
        assert_eq!(emit(&d), Err(NetlistError::UnknownModule("ghost".into())));
    }

    /// The same modules added to a fresh design by hand: no validated mark.
    fn rebuilt(design: &Design) -> Design {
        let mut fresh = Design::new();
        for m in design.modules() {
            fresh.add_module(m.clone()).unwrap();
        }
        fresh.set_top(design.top().unwrap().name.clone()).unwrap();
        fresh
    }

    #[test]
    fn emission_is_deterministic() {
        let a = emit(&small_int()).unwrap();
        let b = emit(&small_int()).unwrap();
        assert_eq!(a, b);
        for precision in sega_estimator::ALL_PRECISIONS {
            let k = precision
                .mantissa_bits()
                .unwrap_or(precision.weight_bits())
                .min(2);
            let n = precision.mantissa_bits().unwrap_or(precision.weight_bits()) * 2;
            let dp = DcimDesign::for_precision(precision, n, 8, 2, k).unwrap();
            let generated = generate_macro(&dp).unwrap();
            let first = emit(&generated).unwrap();
            // Generated again, cloned, and re-validated from scratch: the
            // same bytes every time.
            assert_eq!(first, emit(&generate_macro(&dp).unwrap()).unwrap());
            assert_eq!(first, emit(&generated.clone()).unwrap());
            assert_eq!(first, emit(&rebuilt(&generated)).unwrap(), "{precision:?}");
        }
    }
}
