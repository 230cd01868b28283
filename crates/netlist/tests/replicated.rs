//! A replicated instance entry is exactly its expansion.
//!
//! Random small designs with replicated entries (1–40 copies, shared and
//! lane connections, interleaved runs, some deliberately broken) are checked
//! against the same design with every entry expanded, by a helper written
//! here from the IR's documented meaning, into plain one-copy instances.
//! Validation (the whole `Result`), emitted bytes, cell counts and hierarchy
//! statistics must all be equal.

use std::collections::BTreeSet;
use std::num::NonZeroU32;

use proptest::prelude::*;
use sega_cells::StandardCell;
use sega_netlist::hierarchy::hierarchy_stats;
use sega_netlist::{
    stats, verilog, Design, Instance, InstanceTarget, Module, NetlistError, Signal,
};

/// SplitMix64: the design generator's only source of randomness.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u32) -> u32 {
        (self.next() % u64::from(n)) as u32
    }

    fn chance(&mut self, percent: u32) -> bool {
        self.below(100) < percent
    }
}

const LEAF_PORTS: [&str; 3] = ["a", "s", "y"];
const CELLS: [StandardCell; 3] = [
    StandardCell::Nor,
    StandardCell::Dff,
    StandardCell::FullAdder,
];

/// A two-level design: a `leaf` module (itself holding a replicated NOR
/// row) under a `top` of 1–5 random entries. About one entry in six
/// carries a fault: an unknown target or port, a width mismatch, a lane
/// net too narrow for the later copies, an invalid literal or a reversed
/// slice.
fn random_design(seed: u64) -> Design {
    let mut rng = Rng(seed);
    let leaf_widths = [1 + rng.below(4), 1 + rng.below(3), 1 + rng.below(4)];
    let mut leaf = Module::new("leaf");
    leaf.add_input("a", leaf_widths[0]).unwrap();
    leaf.add_input("s", leaf_widths[1]).unwrap();
    leaf.add_output("y", leaf_widths[2]).unwrap();
    leaf.add_replicated(
        "n",
        leaf_widths[2],
        InstanceTarget::Cell(StandardCell::Nor),
        vec![
            ("a", Signal::bit("a", 0)),
            ("b", Signal::bit("a", leaf_widths[0] - 1)),
            ("y", Signal::lane("y", 1)),
        ],
    );

    let mut top = Module::new("top");
    top.add_input("bus", 8).unwrap();
    let mut wires: Vec<String> = vec!["bus".into()];
    fn fresh_wire(top: &mut Module, wires: &mut Vec<String>, width: u32) -> String {
        let name = format!("w{}", wires.len());
        top.add_wire(name.clone(), width).unwrap();
        wires.push(name.clone());
        name
    }

    for e in 0..1 + rng.below(5) {
        let count = 1 + rng.below(40);
        let faulty = rng.chance(16);
        let (target, ports): (InstanceTarget, Vec<(&'static str, u32)>) = match rng.below(20) {
            0 if faulty => (InstanceTarget::Module("ghost".into()), vec![("a", 1)]),
            0..=11 => (
                InstanceTarget::Module("leaf".into()),
                LEAF_PORTS.into_iter().zip(leaf_widths).collect(),
            ),
            _ => {
                let cell = CELLS[rng.below(3) as usize];
                let ports = sega_netlist::cells::cell_ports(cell);
                (
                    InstanceTarget::Cell(cell),
                    ports.iter().map(|&(p, w, _)| (p, w)).collect(),
                )
            }
        };
        let fault_at = if faulty {
            rng.below(ports.len() as u32)
        } else {
            u32::MAX
        };
        let mut connections = Vec::new();
        for (j, &(port, w)) in ports.iter().enumerate() {
            let fault = j as u32 == fault_at;
            if !fault && rng.chance(10) {
                continue; // an unconnected port
            }
            let kind = rng.below(10);
            let port = if fault && kind == 9 { "zz" } else { port };
            let sw = if fault && kind == 8 { w + 1 } else { w };
            let signal = match kind {
                0..=3 => {
                    // A lane: its own net sized for every copy, a net that
                    // is too narrow, or a net shared with other lanes.
                    let net = if fault {
                        let short = (count * sw).saturating_sub(1 + rng.below(count * sw));
                        fresh_wire(&mut top, &mut wires, short.max(1))
                    } else if rng.chance(20) {
                        wires[rng.below(wires.len() as u32) as usize].clone()
                    } else {
                        fresh_wire(&mut top, &mut wires, count * sw)
                    };
                    Signal::lane(net, sw)
                }
                4 | 5 => Signal::net(fresh_wire(&mut top, &mut wires, sw)),
                6 if fault => match rng.below(2) {
                    0 => Signal::Const { width: 0, value: 0 },
                    _ => Signal::Const {
                        width: sw,
                        value: 1 << sw,
                    },
                },
                6 => Signal::Const {
                    width: sw,
                    value: u64::from(rng.below(1 << sw)),
                },
                7 if fault => Signal::Slice {
                    net: "bus".into(),
                    msb: 0,
                    lsb: 1,
                },
                7 => {
                    let lsb = rng.below(9 - sw);
                    Signal::slice("bus", lsb + sw - 1, lsb)
                }
                _ => {
                    // A lane inside a concatenation: one bit per copy.
                    let net = fresh_wire(&mut top, &mut wires, count);
                    let mut parts = Vec::new();
                    if sw > 1 {
                        parts.push(Signal::zeros(sw - 1));
                    }
                    parts.push(Signal::lane(net, 1));
                    Signal::Concat(parts)
                }
            };
            connections.push((port, signal));
        }
        let prefix = format!("e{e}_");
        let entry = top.add_replicated(&prefix, count, target, connections);
        entry.interleaved = e > 0 && rng.chance(30);
    }
    if rng.chance(20) {
        let net = wires[rng.below(wires.len() as u32) as usize].clone();
        let width = top.net_width(&net).unwrap();
        let lane_width = 1 + rng.below(width.min(3));
        top.add_assign(Signal::lane(net, lane_width), Signal::zeros(lane_width));
    }

    let mut d = Design::new();
    d.add_module(leaf).unwrap();
    d.add_module(top).unwrap();
    d.set_top("top").unwrap();
    d
}

/// `signal` as copy `copy` of a replicated instance sees it: every lane
/// becomes its slice `[(copy+1)·w−1 : copy·w]`.
fn at_copy(signal: &Signal, copy: u32) -> Signal {
    match signal {
        Signal::Lane { net, width } => Signal::Slice {
            net: net.clone(),
            msb: (copy + 1) * width.get() - 1,
            lsb: copy * width.get(),
        },
        Signal::Concat(parts) => Signal::Concat(parts.iter().map(|p| at_copy(p, copy)).collect()),
        other => other.clone(),
    }
}

/// Every entry expanded into plain one-copy instances, in expansion order:
/// an interleaved run goes copy-major, a member with fewer copies dropping
/// out; copy `i` of a replicated entry is `{name}{i}`.
fn expand(design: &Design) -> Design {
    let mut out = Design::new();
    for m in design.modules() {
        let mut flat = m.clone();
        flat.instances.clear();
        for run in m.instances.chunk_by(|_, next| next.interleaved) {
            let copies = run.iter().map(|inst| inst.count.get()).max().unwrap();
            for copy in 0..copies {
                for inst in run.iter().filter(|inst| copy < inst.count.get()) {
                    flat.instances.push(Instance {
                        name: inst.copy_name(copy),
                        target: inst.target.clone(),
                        connections: inst
                            .connections
                            .iter()
                            .map(|(port, s)| (*port, at_copy(s, copy)))
                            .collect(),
                        count: NonZeroU32::MIN,
                        interleaved: false,
                    });
                }
            }
        }
        flat.assigns = m
            .assigns
            .iter()
            .map(|(lhs, rhs)| (at_copy(lhs, 0), at_copy(rhs, 0)))
            .collect();
        out.add_module(flat).unwrap();
    }
    out.set_top(design.top().unwrap().name.clone()).unwrap();
    out
}

/// Asserts the design and its expansion agree on every pass; returns the
/// validation result.
fn check_equivalent(seed: u64) -> Result<(), NetlistError> {
    let design = random_design(seed);
    let flat = expand(&design);
    let validated = design.validate();
    assert_eq!(validated, flat.validate(), "validate, seed {seed}");
    assert_eq!(
        verilog::emit(&design),
        verilog::emit(&flat),
        "emit, seed {seed}"
    );
    assert_eq!(
        stats::cell_counts(&design),
        stats::cell_counts(&flat),
        "cell counts, seed {seed}"
    );
    assert_eq!(
        hierarchy_stats(&design),
        hierarchy_stats(&flat),
        "hierarchy, seed {seed}"
    );
    validated
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn a_design_and_its_expansion_validate_count_and_emit_identically(seed in any::<u64>()) {
        let _ = check_equivalent(seed);
    }
}

/// The generator is not degenerate: over fixed seeds it reaches valid
/// designs and every kind of violation, each checked for equivalence.
#[test]
fn random_designs_reach_every_outcome() {
    let mut seen = BTreeSet::new();
    for seed in 0..2000 {
        let outcome = match check_equivalent(seed) {
            Ok(()) => "ok",
            Err(NetlistError::UnknownModule(_)) => "unknown module",
            Err(NetlistError::UnknownPort { .. }) => "unknown port",
            Err(NetlistError::WidthMismatch { .. }) => "width mismatch",
            Err(NetlistError::IndexOutOfRange { .. }) => "index out of range",
            Err(NetlistError::ReversedSlice { .. }) => "reversed slice",
            Err(NetlistError::InvalidConst { .. }) => "invalid const",
            Err(other) => panic!("unexpected error {other:?}"),
        };
        seen.insert(outcome);
    }
    assert_eq!(seen.len(), 7, "outcomes reached: {seen:?}");
}
