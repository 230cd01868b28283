use std::borrow::Cow;
use std::collections::HashMap;
use std::num::NonZeroU32;

use crate::cells::cell_ports;
use sega_cells::StandardCell;

/// Errors produced while building or validating a netlist.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetlistError {
    /// Two modules share a name.
    DuplicateModule(String),
    /// An instance references a module that is not in the design.
    UnknownModule(String),
    /// A net name collides inside a module.
    DuplicateNet {
        /// Containing module.
        module: String,
        /// Offending net name.
        net: String,
    },
    /// A signal references a net that does not exist in its module.
    UnknownNet {
        /// Containing module.
        module: String,
        /// Missing net name.
        net: String,
    },
    /// A connection references a port the target does not have.
    UnknownPort {
        /// Instance name.
        instance: String,
        /// Target cell/module name.
        target: String,
        /// Missing port name.
        port: String,
    },
    /// A connected signal's width does not match the target port width.
    WidthMismatch {
        /// Instance name.
        instance: String,
        /// Port name.
        port: String,
        /// Expected (port) width.
        expected: u32,
        /// Actual (signal) width.
        actual: u32,
    },
    /// A bit/slice index exceeds the referenced net's width.
    IndexOutOfRange {
        /// Containing module.
        module: String,
        /// Referenced net.
        net: String,
        /// Offending index.
        index: u32,
        /// Net width.
        width: u32,
    },
    /// A slice whose most significant bit is below its least significant.
    ReversedSlice {
        /// Containing module.
        module: String,
        /// Referenced net.
        net: String,
        /// Most significant bit.
        msb: u32,
        /// Least significant bit.
        lsb: u32,
    },
    /// A literal of zero width, or whose value needs more than `width` bits.
    InvalidConst {
        /// Containing module.
        module: String,
        /// Literal width.
        width: u32,
        /// Literal value.
        value: u64,
    },
    /// The design has no top module set.
    NoTop,
}

impl std::fmt::Display for NetlistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetlistError::DuplicateModule(m) => write!(f, "duplicate module `{m}`"),
            NetlistError::UnknownModule(m) => write!(f, "unknown module `{m}`"),
            NetlistError::DuplicateNet { module, net } => {
                write!(f, "duplicate net `{net}` in module `{module}`")
            }
            NetlistError::UnknownNet { module, net } => {
                write!(f, "unknown net `{net}` in module `{module}`")
            }
            NetlistError::UnknownPort {
                instance,
                target,
                port,
            } => write!(
                f,
                "instance `{instance}`: target `{target}` has no port `{port}`"
            ),
            NetlistError::WidthMismatch {
                instance,
                port,
                expected,
                actual,
            } => write!(
                f,
                "instance `{instance}` port `{port}`: expected width {expected}, got {actual}"
            ),
            NetlistError::IndexOutOfRange {
                module,
                net,
                index,
                width,
            } => write!(
                f,
                "module `{module}`: index {index} out of range for net `{net}` of width {width}"
            ),
            NetlistError::ReversedSlice {
                module,
                net,
                msb,
                lsb,
            } => write!(
                f,
                "module `{module}`: slice [{msb}:{lsb}] of net `{net}` is reversed"
            ),
            NetlistError::InvalidConst {
                module,
                width,
                value,
            } => write!(
                f,
                "module `{module}`: literal {width}'d{value} does not fit its width"
            ),
            NetlistError::NoTop => write!(f, "design has no top module"),
        }
    }
}

impl std::error::Error for NetlistError {}

/// Port direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dir {
    /// Module input.
    Input,
    /// Module output.
    Output,
}

/// A module port: a named, directed bus.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Port {
    /// Port name.
    pub name: String,
    /// Bus width in bits.
    pub width: u32,
    /// Direction.
    pub dir: Dir,
}

/// An internal wire: a named bus local to a module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Wire {
    /// Wire name.
    pub name: String,
    /// Bus width in bits.
    pub width: u32,
}

/// What an instance instantiates: a leaf standard cell or a child module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InstanceTarget {
    /// A Table III standard cell.
    Cell(StandardCell),
    /// A child module, by name.
    Module(String),
}

impl InstanceTarget {
    /// Display name of the target.
    pub fn name(&self) -> &str {
        match self {
            InstanceTarget::Cell(c) => c.name(),
            InstanceTarget::Module(m) => m,
        }
    }
}

/// A cell or module instantiation with named port connections, standing
/// for `count` identical copies of its target.
///
/// A plain instance has `count == 1` and is named `name`. With
/// `count > 1`, copy `i` is named `{name}{i}`, and a [`Signal::Lane`]
/// connection gives copy `i` its own lane of a net; every other connection
/// is shared by all copies. Every pass treats such an entry exactly like
/// its expansion into `count` plain instances, copy 0 first, but does the
/// work once per entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Instance {
    /// Instance name (unique within the parent module), or the copy-name
    /// prefix when `count > 1`.
    pub name: String,
    /// What is instantiated.
    pub target: InstanceTarget,
    /// `(port name, connected signal)` pairs. Port names are static: every
    /// target's port list is fixed by a template or by [`cell_ports`].
    pub connections: Vec<(&'static str, Signal)>,
    /// Number of copies.
    pub count: NonZeroU32,
    /// When set, this entry's copies interleave with those of the entry
    /// before it: the run expands copy-major (copy 0 of each member in
    /// order, then copy 1, …; a member with fewer copies drops out), so
    /// `fuse{g}`/`i2f{g}` pairs stay two entries.
    pub interleaved: bool,
}

impl Instance {
    /// The name of copy `copy`: `name` for a plain instance, `{name}{copy}`
    /// for a replicated one.
    pub fn copy_name(&self, copy: u32) -> String {
        if self.count.get() == 1 {
            self.name.clone()
        } else {
            format!("{}{copy}", self.name)
        }
    }
}

/// A signal expression connecting instance ports: a whole net, a bit, a
/// slice, a per-copy lane, a constant, or a concatenation.
///
/// Net names are [`Cow`]s: the literal names the templates use (`"clk"`,
/// `"wl"`, …) are borrowed for free, and only generated names own a buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Signal {
    /// A whole named net (port or wire).
    Net(Cow<'static, str>),
    /// One bit of a net: `net[bit]`.
    Bit(Cow<'static, str>, u32),
    /// An inclusive slice: `net[msb:lsb]`.
    Slice {
        /// Net name.
        net: Cow<'static, str>,
        /// Most significant bit (inclusive).
        msb: u32,
        /// Least significant bit (inclusive).
        lsb: u32,
    },
    /// Copy `i`'s lane of a net, for a connection of a replicated
    /// [`Instance`]: the slice `net[(i+1)·width−1 : i·width]`. Anywhere
    /// else (an assignment, a plain instance) it is copy 0's lane.
    Lane {
        /// Net name.
        net: Cow<'static, str>,
        /// Bits per copy.
        width: NonZeroU32,
    },
    /// A literal: `width'd value`.
    Const {
        /// Bit width of the literal.
        width: u32,
        /// Value (must fit in `width` bits).
        value: u64,
    },
    /// A concatenation, most significant part first (Verilog `{a, b}`).
    Concat(Vec<Signal>),
}

impl Signal {
    /// Convenience constructor for a whole net.
    pub fn net(name: impl Into<Cow<'static, str>>) -> Signal {
        Signal::Net(name.into())
    }

    /// Convenience constructor for a single bit.
    pub fn bit(name: impl Into<Cow<'static, str>>, bit: u32) -> Signal {
        Signal::Bit(name.into(), bit)
    }

    /// Convenience constructor for an inclusive slice `[msb:lsb]`.
    pub fn slice(name: impl Into<Cow<'static, str>>, msb: u32, lsb: u32) -> Signal {
        assert!(msb >= lsb, "slice msb must be >= lsb");
        Signal::Slice {
            net: name.into(),
            msb,
            lsb,
        }
    }

    /// Convenience constructor for a per-copy lane of `width` bits.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn lane(name: impl Into<Cow<'static, str>>, width: u32) -> Signal {
        Signal::Lane {
            net: name.into(),
            width: NonZeroU32::new(width).expect("lane width must be nonzero"),
        }
    }

    /// A `width`-bit zero.
    pub fn zeros(width: u32) -> Signal {
        Signal::Const { width, value: 0 }
    }

    /// The width of this signal in the context of `module`, with any
    /// [`Signal::Lane`] read as copy 0's lane.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownNet`] / [`NetlistError::IndexOutOfRange`]
    /// for dangling or out-of-range references,
    /// [`NetlistError::ReversedSlice`] for a slice with `msb < lsb` and
    /// [`NetlistError::InvalidConst`] for a literal that does not fit.
    pub fn width(&self, module: &Module) -> Result<u32, NetlistError> {
        match self {
            Signal::Net(name) => net_width(module, name),
            Signal::Bit(name, bit) => {
                in_range(module, name, *bit)?;
                Ok(1)
            }
            Signal::Slice { net, msb, lsb } => {
                in_range(module, net, *msb)?;
                if msb < lsb {
                    return Err(NetlistError::ReversedSlice {
                        module: module.name.clone(),
                        net: net.to_string(),
                        msb: *msb,
                        lsb: *lsb,
                    });
                }
                Ok(msb - lsb + 1)
            }
            Signal::Lane { net, width } => {
                in_range(module, net, width.get() - 1)?;
                Ok(width.get())
            }
            Signal::Const { width, value } => {
                if *width == 0 || (*width < 64 && value >> width != 0) {
                    return Err(NetlistError::InvalidConst {
                        module: module.name.clone(),
                        width: *width,
                        value: *value,
                    });
                }
                Ok(*width)
            }
            Signal::Concat(parts) => {
                let mut total = 0;
                for p in parts {
                    total += p.width(module)?;
                }
                Ok(total)
            }
        }
    }

    /// The first copy, below `count`, at which a lane of this signal runs
    /// past its net, as the error the expanded instance would report there.
    /// Copy 0 must already have passed [`Signal::width`]; lanes grow with
    /// the copy index, so each fails first at copy `net width / lane width`
    /// and the earliest lane (in evaluation order on a tie) wins.
    fn lane_overrun(&self, module: &Module, count: u32) -> Option<(u32, NetlistError)> {
        let mut first: Option<(u32, &str, u32)> = None;
        self.for_each_lane(&mut |net, width| {
            let net_width = module.net_width(net).expect("checked at copy 0");
            let copy = net_width / width.get();
            if copy < first.map_or(count, |(c, _, _)| c) {
                first = Some((copy, net, width.get()));
            }
        });
        first.map(|(copy, net, width)| {
            let msb = (u64::from(copy) + 1) * u64::from(width) - 1;
            let err = NetlistError::IndexOutOfRange {
                module: module.name.clone(),
                net: net.to_owned(),
                index: u32::try_from(msb).unwrap_or(u32::MAX),
                width: module.net_width(net).expect("checked at copy 0"),
            };
            (copy, err)
        })
    }

    fn for_each_lane<'s>(&'s self, f: &mut impl FnMut(&'s str, NonZeroU32)) {
        match self {
            Signal::Lane { net, width } => f(net, *width),
            Signal::Concat(parts) => parts.iter().for_each(|p| p.for_each_lane(f)),
            _ => {}
        }
    }
}

fn net_width(module: &Module, name: &str) -> Result<u32, NetlistError> {
    module
        .net_width(name)
        .ok_or_else(|| NetlistError::UnknownNet {
            module: module.name.clone(),
            net: name.to_owned(),
        })
}

/// Fails unless bit `index` exists on net `name`.
fn in_range(module: &Module, name: &str, index: u32) -> Result<(), NetlistError> {
    let width = net_width(module, name)?;
    if index >= width {
        return Err(NetlistError::IndexOutOfRange {
            module: module.name.clone(),
            net: name.to_owned(),
            index,
            width,
        });
    }
    Ok(())
}

/// A netlist module: ports, internal wires, instances and continuous
/// assignments.
#[derive(Debug, Clone, PartialEq)]
pub struct Module {
    /// Module name (unique within a [`Design`]).
    pub name: String,
    /// Port list, in declaration order.
    pub ports: Vec<Port>,
    /// Internal wires.
    pub wires: Vec<Wire>,
    /// Cell and module instances.
    pub instances: Vec<Instance>,
    /// Continuous assignments `(lhs, rhs)`.
    pub assigns: Vec<(Signal, Signal)>,
    net_widths: HashMap<String, u32>,
}

impl Module {
    /// Creates an empty module.
    pub fn new(name: impl Into<String>) -> Module {
        Module {
            name: name.into(),
            ports: Vec::new(),
            wires: Vec::new(),
            instances: Vec::new(),
            assigns: Vec::new(),
            net_widths: HashMap::new(),
        }
    }

    fn add_net(&mut self, name: &str, width: u32) -> Result<(), NetlistError> {
        if self.net_widths.insert(name.to_owned(), width).is_some() {
            return Err(NetlistError::DuplicateNet {
                module: self.name.clone(),
                net: name.to_owned(),
            });
        }
        Ok(())
    }

    /// Declares an input port.
    ///
    /// # Errors
    ///
    /// Fails if the name collides with an existing net.
    pub fn add_input(&mut self, name: impl Into<String>, width: u32) -> Result<(), NetlistError> {
        let name = name.into();
        self.add_net(&name, width)?;
        self.ports.push(Port {
            name,
            width,
            dir: Dir::Input,
        });
        Ok(())
    }

    /// Declares an output port.
    ///
    /// # Errors
    ///
    /// Fails if the name collides with an existing net.
    pub fn add_output(&mut self, name: impl Into<String>, width: u32) -> Result<(), NetlistError> {
        let name = name.into();
        self.add_net(&name, width)?;
        self.ports.push(Port {
            name,
            width,
            dir: Dir::Output,
        });
        Ok(())
    }

    /// Declares an internal wire.
    ///
    /// # Errors
    ///
    /// Fails if the name collides with an existing net.
    pub fn add_wire(&mut self, name: impl Into<String>, width: u32) -> Result<(), NetlistError> {
        let name = name.into();
        self.add_net(&name, width)?;
        self.wires.push(Wire { name, width });
        Ok(())
    }

    /// Instantiates a standard cell with named connections.
    pub fn add_cell(
        &mut self,
        name: impl Into<String>,
        cell: StandardCell,
        connections: Vec<(&'static str, Signal)>,
    ) {
        self.push_instance(name.into(), InstanceTarget::Cell(cell), connections, 1);
    }

    /// Instantiates a child module with named connections.
    pub fn add_instance(
        &mut self,
        name: impl Into<String>,
        module: impl Into<String>,
        connections: Vec<(&'static str, Signal)>,
    ) {
        self.push_instance(
            name.into(),
            InstanceTarget::Module(module.into()),
            connections,
            1,
        );
    }

    /// Instantiates `count` copies of `target` as one entry, named
    /// `{prefix}0` … `{prefix}{count-1}` (a single copy is `{prefix}0`).
    /// [`Signal::Lane`] connections give each copy its own lane; all
    /// others are shared. Returns the entry, e.g. to mark it
    /// [`interleaved`](Instance::interleaved).
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero.
    pub fn add_replicated(
        &mut self,
        prefix: &str,
        count: u32,
        target: InstanceTarget,
        connections: Vec<(&'static str, Signal)>,
    ) -> &mut Instance {
        let name = if count == 1 {
            format!("{prefix}0")
        } else {
            prefix.to_owned()
        };
        self.push_instance(name, target, connections, count);
        self.instances.last_mut().expect("just pushed")
    }

    fn push_instance(
        &mut self,
        name: String,
        target: InstanceTarget,
        connections: Vec<(&'static str, Signal)>,
        count: u32,
    ) {
        self.instances.push(Instance {
            name,
            target,
            connections,
            count: NonZeroU32::new(count).expect("an instance has at least one copy"),
            interleaved: false,
        });
    }

    /// Adds a continuous assignment `lhs = rhs`.
    pub fn add_assign(&mut self, lhs: Signal, rhs: Signal) {
        self.assigns.push((lhs, rhs));
    }

    /// Width of a named net (port or wire), if it exists.
    pub fn net_width(&self, name: &str) -> Option<u32> {
        self.net_widths.get(name).copied()
    }

    /// The port with the given name, if any.
    pub fn port(&self, name: &str) -> Option<&Port> {
        self.ports.iter().find(|p| p.name == name)
    }
}

/// A complete hierarchical design: a set of modules and a designated top.
#[derive(Debug, Clone, Default)]
pub struct Design {
    modules: Vec<Module>,
    index: HashMap<String, usize>,
    top: Option<String>,
    /// Set by [`Design::validate_and_mark`] after a clean validation and
    /// cleared by the only two mutators, [`Design::add_module`] and
    /// [`Design::set_top`]: while it is set the design is known valid.
    validated: bool,
}

impl Design {
    /// Creates an empty design.
    pub fn new() -> Design {
        Design::default()
    }

    /// Adds a module.
    ///
    /// # Errors
    ///
    /// Fails with [`NetlistError::DuplicateModule`] on a name collision.
    pub fn add_module(&mut self, module: Module) -> Result<(), NetlistError> {
        if self.index.contains_key(&module.name) {
            return Err(NetlistError::DuplicateModule(module.name));
        }
        self.validated = false;
        self.index.insert(module.name.clone(), self.modules.len());
        self.modules.push(module);
        Ok(())
    }

    /// True when a module with this name exists.
    pub fn contains(&self, name: &str) -> bool {
        self.index.contains_key(name)
    }

    /// Looks a module up by name.
    pub fn module(&self, name: &str) -> Option<&Module> {
        self.index.get(name).map(|&i| &self.modules[i])
    }

    /// All modules, in insertion (dependency) order.
    pub fn modules(&self) -> &[Module] {
        &self.modules
    }

    /// Sets the top module.
    ///
    /// # Errors
    ///
    /// Fails with [`NetlistError::UnknownModule`] if absent.
    pub fn set_top(&mut self, name: impl Into<String>) -> Result<(), NetlistError> {
        let name = name.into();
        if !self.contains(&name) {
            return Err(NetlistError::UnknownModule(name));
        }
        self.validated = false;
        self.top = Some(name);
        Ok(())
    }

    /// The top module.
    ///
    /// # Errors
    ///
    /// Fails with [`NetlistError::NoTop`] if no top has been set.
    pub fn top(&self) -> Result<&Module, NetlistError> {
        let name = self.top.as_deref().ok_or(NetlistError::NoTop)?;
        Ok(self.module(name).expect("top name is always indexed"))
    }

    /// Structurally validates the whole design: every instance target
    /// exists, every connection names a real port, and every connected
    /// signal's width matches the port width.
    ///
    /// A replicated entry is checked once: copy 0 in full, then only how
    /// far its lanes reach, and the result is the one its expansion into
    /// plain instances would give (same variant, instance name and index).
    /// Port widths are read in place from [`cell_ports`] or the child's
    /// port list. A design from [`crate::generators::generate_macro`] is
    /// already validated and marked, so this returns at once for it until
    /// the design is changed.
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn validate(&self) -> Result<(), NetlistError> {
        if self.validated {
            return Ok(());
        }
        self.top()?;
        for module in &self.modules {
            for run in interleaved_runs(&module.instances) {
                // Copy 0 of every member, in order, checks everything…
                for inst in run {
                    self.validate_copy0(module, inst)?;
                }
                // …so later copies can only differ by a lane running past
                // its net. Report the first such copy in expansion order.
                let mut first: Option<(u32, NetlistError)> = None;
                for inst in run {
                    for (_, signal) in &inst.connections {
                        let bound = first
                            .as_ref()
                            .map_or(inst.count.get(), |(c, _)| inst.count.get().min(*c));
                        if let Some(overrun) = signal.lane_overrun(module, bound) {
                            first = Some(overrun);
                        }
                    }
                }
                if let Some((_, err)) = first {
                    return Err(err);
                }
            }
            for (lhs, rhs) in &module.assigns {
                let lw = lhs.width(module)?;
                let rw = rhs.width(module)?;
                if lw != rw {
                    return Err(NetlistError::WidthMismatch {
                        instance: format!("assign in `{}`", module.name),
                        port: String::new(),
                        expected: lw,
                        actual: rw,
                    });
                }
            }
        }
        Ok(())
    }

    /// Checks copy 0 of `inst`: its target, every port name and every
    /// connection's width. Port widths are the same for every copy.
    fn validate_copy0(&self, module: &Module, inst: &Instance) -> Result<(), NetlistError> {
        let child = match &inst.target {
            InstanceTarget::Cell(_) => None,
            InstanceTarget::Module(name) => Some(
                self.module(name)
                    .ok_or_else(|| NetlistError::UnknownModule(name.clone()))?,
            ),
        };
        for (port, signal) in &inst.connections {
            let expected = match &inst.target {
                InstanceTarget::Cell(cell) => cell_ports(*cell)
                    .iter()
                    .find(|(name, _, _)| name == port)
                    .map(|&(_, width, _)| width),
                InstanceTarget::Module(_) => child.and_then(|c| c.port(port)).map(|p| p.width),
            }
            .ok_or_else(|| NetlistError::UnknownPort {
                instance: inst.copy_name(0),
                target: inst.target.name().to_owned(),
                port: (*port).to_owned(),
            })?;
            let actual = signal.width(module)?;
            if actual != expected {
                return Err(NetlistError::WidthMismatch {
                    instance: inst.copy_name(0),
                    port: (*port).to_owned(),
                    expected,
                    actual,
                });
            }
        }
        Ok(())
    }

    /// Validates the design and records a clean result, so later
    /// [`validate`](Design::validate) calls (the one inside
    /// [`crate::verilog::emit`] included) return at once until the next
    /// [`add_module`](Design::add_module) or [`set_top`](Design::set_top).
    ///
    /// # Errors
    ///
    /// Same as [`validate`](Design::validate); a failed validation records
    /// nothing.
    pub(crate) fn validate_and_mark(&mut self) -> Result<(), NetlistError> {
        self.validate()?;
        self.validated = true;
        Ok(())
    }
}

/// Splits a module's entries into runs that expand together: an entry
/// marked [`interleaved`](Instance::interleaved) joins the run before it.
pub(crate) fn interleaved_runs(instances: &[Instance]) -> impl Iterator<Item = &[Instance]> {
    instances.chunk_by(|_, next| next.interleaved)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_module() -> Module {
        let mut m = Module::new("tiny");
        m.add_input("a", 4).unwrap();
        m.add_input("b", 4).unwrap();
        m.add_output("y", 1).unwrap();
        m.add_wire("t", 2).unwrap();
        m
    }

    #[test]
    fn net_widths_are_tracked() {
        let m = tiny_module();
        assert_eq!(m.net_width("a"), Some(4));
        assert_eq!(m.net_width("t"), Some(2));
        assert_eq!(m.net_width("nope"), None);
    }

    #[test]
    fn duplicate_net_rejected() {
        let mut m = tiny_module();
        assert!(matches!(
            m.add_wire("a", 1),
            Err(NetlistError::DuplicateNet { .. })
        ));
    }

    #[test]
    fn signal_widths() {
        let m = tiny_module();
        assert_eq!(Signal::net("a").width(&m).unwrap(), 4);
        assert_eq!(Signal::bit("a", 3).width(&m).unwrap(), 1);
        assert_eq!(Signal::slice("a", 3, 1).width(&m).unwrap(), 3);
        assert_eq!(Signal::zeros(7).width(&m).unwrap(), 7);
        let cat = Signal::Concat(vec![Signal::net("t"), Signal::bit("a", 0)]);
        assert_eq!(cat.width(&m).unwrap(), 3);
    }

    #[test]
    fn signal_out_of_range() {
        let m = tiny_module();
        assert!(matches!(
            Signal::bit("a", 4).width(&m),
            Err(NetlistError::IndexOutOfRange { .. })
        ));
        assert!(matches!(
            Signal::net("ghost").width(&m),
            Err(NetlistError::UnknownNet { .. })
        ));
    }

    #[test]
    fn validate_accepts_correct_cell_wiring() {
        let mut m = Module::new("norbuf");
        m.add_input("a", 1).unwrap();
        m.add_output("y", 1).unwrap();
        m.add_cell(
            "u0",
            StandardCell::Nor,
            vec![
                ("a", Signal::net("a")),
                ("b", Signal::net("a")),
                ("y", Signal::net("y")),
            ],
        );
        let mut d = Design::new();
        d.add_module(m).unwrap();
        d.set_top("norbuf").unwrap();
        d.validate().unwrap();
    }

    #[test]
    fn validate_catches_width_mismatch() {
        let mut m = Module::new("bad");
        m.add_input("a", 2).unwrap();
        m.add_output("y", 1).unwrap();
        m.add_cell(
            "u0",
            StandardCell::Nor,
            vec![
                ("a", Signal::net("a")), // 2 bits into a 1-bit port
                ("b", Signal::bit("a", 0)),
                ("y", Signal::net("y")),
            ],
        );
        let mut d = Design::new();
        d.add_module(m).unwrap();
        d.set_top("bad").unwrap();
        assert!(matches!(
            d.validate(),
            Err(NetlistError::WidthMismatch {
                expected: 1,
                actual: 2,
                ..
            })
        ));
    }

    #[test]
    fn validate_catches_unknown_port_and_module() {
        let mut m = Module::new("m");
        m.add_output("y", 1).unwrap();
        m.add_cell("u0", StandardCell::Nor, vec![("q", Signal::net("y"))]);
        let mut d = Design::new();
        d.add_module(m).unwrap();
        d.set_top("m").unwrap();
        assert!(matches!(
            d.validate(),
            Err(NetlistError::UnknownPort { .. })
        ));

        let mut m2 = Module::new("m2");
        m2.add_output("y", 1).unwrap();
        m2.add_instance("c0", "ghost", vec![]);
        let mut d2 = Design::new();
        d2.add_module(m2).unwrap();
        d2.set_top("m2").unwrap();
        assert!(matches!(d2.validate(), Err(NetlistError::UnknownModule(_))));
    }

    #[test]
    fn duplicate_module_rejected() {
        let mut d = Design::new();
        d.add_module(Module::new("x")).unwrap();
        assert!(matches!(
            d.add_module(Module::new("x")),
            Err(NetlistError::DuplicateModule(_))
        ));
    }

    #[test]
    fn no_top_is_an_error() {
        let d = Design::new();
        assert!(matches!(d.validate(), Err(NetlistError::NoTop)));
    }

    /// A one-module design, `tiny` as top, with a NOR instance wired by
    /// `connections` and an optional extra assignment.
    fn tiny_design(
        connections: Vec<(&'static str, Signal)>,
        assign: Option<(Signal, Signal)>,
    ) -> Design {
        let mut m = tiny_module();
        m.add_cell("u0", StandardCell::Nor, connections);
        if let Some((lhs, rhs)) = assign {
            m.add_assign(lhs, rhs);
        }
        let mut d = Design::new();
        d.add_module(m).unwrap();
        d.set_top("tiny").unwrap();
        d
    }

    #[test]
    fn validate_error_no_top_comes_first() {
        // The module is broken too, but a missing top is reported first.
        let mut d = Design::new();
        let mut m = tiny_module();
        m.add_cell("u0", StandardCell::Nor, vec![("q", Signal::net("ghost"))]);
        d.add_module(m).unwrap();
        assert_eq!(d.validate(), Err(NetlistError::NoTop));
    }

    #[test]
    fn validate_error_unknown_module() {
        let mut m = tiny_module();
        // Bad connections too: the missing target is reported first.
        m.add_instance("c0", "ghost", vec![("nope", Signal::net("ghost"))]);
        let mut d = Design::new();
        d.add_module(m).unwrap();
        d.set_top("tiny").unwrap();
        assert_eq!(
            d.validate(),
            Err(NetlistError::UnknownModule("ghost".into()))
        );
    }

    #[test]
    fn validate_error_unknown_port() {
        // A cell port, checked before the (also unknown) net.
        let d = tiny_design(vec![("q", Signal::net("ghost"))], None);
        assert_eq!(
            d.validate(),
            Err(NetlistError::UnknownPort {
                instance: "u0".into(),
                target: "NOR".into(),
                port: "q".into(),
            })
        );
    }

    #[test]
    fn validate_error_unknown_port_of_child_module() {
        let mut parent = Module::new("parent");
        parent.add_input("a", 4).unwrap();
        // `t` is a wire of `tiny`, not a port.
        parent.add_instance("t0", "tiny", vec![("t", Signal::net("a"))]);
        let mut d = Design::new();
        d.add_module(tiny_module()).unwrap();
        d.add_module(parent).unwrap();
        d.set_top("parent").unwrap();
        assert_eq!(
            d.validate(),
            Err(NetlistError::UnknownPort {
                instance: "t0".into(),
                target: "tiny".into(),
                port: "t".into(),
            })
        );
    }

    #[test]
    fn validate_error_unknown_net() {
        let d = tiny_design(
            vec![("a", Signal::bit("a", 0)), ("b", Signal::net("ghost"))],
            None,
        );
        assert_eq!(
            d.validate(),
            Err(NetlistError::UnknownNet {
                module: "tiny".into(),
                net: "ghost".into(),
            })
        );
    }

    #[test]
    fn validate_error_index_out_of_range() {
        let d = tiny_design(vec![("a", Signal::bit("a", 4))], None);
        assert_eq!(
            d.validate(),
            Err(NetlistError::IndexOutOfRange {
                module: "tiny".into(),
                net: "a".into(),
                index: 4,
                width: 4,
            })
        );
        let d = tiny_design(
            vec![],
            Some((Signal::slice("t", 2, 1), Signal::slice("b", 1, 0))),
        );
        assert_eq!(
            d.validate(),
            Err(NetlistError::IndexOutOfRange {
                module: "tiny".into(),
                net: "t".into(),
                index: 2,
                width: 2,
            })
        );
    }

    #[test]
    fn validate_error_width_mismatch_on_instance() {
        // The instance is checked before the (also mismatched) assignment.
        let d = tiny_design(
            vec![("a", Signal::bit("a", 0)), ("y", Signal::net("t"))],
            Some((Signal::net("y"), Signal::net("a"))),
        );
        assert_eq!(
            d.validate(),
            Err(NetlistError::WidthMismatch {
                instance: "u0".into(),
                port: "y".into(),
                expected: 1,
                actual: 2,
            })
        );
    }

    #[test]
    fn validate_error_width_mismatch_on_assign() {
        let d = tiny_design(
            vec![("a", Signal::bit("a", 0)), ("y", Signal::net("y"))],
            Some((Signal::net("t"), Signal::slice("b", 2, 0))),
        );
        assert_eq!(
            d.validate(),
            Err(NetlistError::WidthMismatch {
                instance: "assign in `tiny`".into(),
                port: String::new(),
                expected: 2,
                actual: 3,
            })
        );
    }

    #[test]
    fn validate_error_reversed_slice() {
        // Built by hand: `Signal::slice` refuses it. This used to underflow
        // `msb - lsb + 1`.
        let reversed = Signal::Slice {
            net: "a".into(),
            msb: 1,
            lsb: 3,
        };
        let d = tiny_design(vec![], Some((Signal::net("t"), reversed)));
        assert_eq!(
            d.validate(),
            Err(NetlistError::ReversedSlice {
                module: "tiny".into(),
                net: "a".into(),
                msb: 1,
                lsb: 3,
            })
        );
    }

    #[test]
    fn validate_error_invalid_const() {
        for (width, value) in [(1, 7), (0, 0), (4, 16)] {
            let d = tiny_design(vec![("a", Signal::Const { width, value })], None);
            assert_eq!(
                d.validate(),
                Err(NetlistError::InvalidConst {
                    module: "tiny".into(),
                    width,
                    value,
                }),
                "{width}'d{value}"
            );
        }
        for (width, value) in [(1, 1), (4, 15), (64, u64::MAX)] {
            let mut m = tiny_module();
            m.add_wire("k", width).unwrap();
            m.add_assign(Signal::net("k"), Signal::Const { width, value });
            let mut d = Design::new();
            d.add_module(m).unwrap();
            d.set_top("tiny").unwrap();
            assert_eq!(d.validate(), Ok(()), "{width}'d{value}");
        }
    }

    /// `tiny` holding one replicated NOR entry per `(count, y lane net,
    /// interleaved)`, each driving a lane of its net; `lanes` is 6 bits,
    /// `u` 2 bits like `t`.
    fn replicated_design(entries: &[(u32, &'static str, bool)]) -> Design {
        let mut m = tiny_module();
        m.add_wire("lanes", 6).unwrap();
        m.add_wire("u", 2).unwrap();
        for (e, &(count, net, interleaved)) in entries.iter().enumerate() {
            m.add_replicated(
                &format!("r{e}_"),
                count,
                InstanceTarget::Cell(StandardCell::Nor),
                vec![
                    ("a", Signal::bit("a", 0)),
                    ("b", Signal::bit("a", 1)),
                    ("y", Signal::lane(net, 1)),
                ],
            )
            .interleaved = interleaved;
        }
        let mut d = Design::new();
        d.add_module(m).unwrap();
        d.set_top("tiny").unwrap();
        d
    }

    fn out_of_range(net: &str, index: u32, width: u32) -> Result<(), NetlistError> {
        Err(NetlistError::IndexOutOfRange {
            module: "tiny".into(),
            net: net.into(),
            index,
            width,
        })
    }

    #[test]
    fn replicated_lanes_report_the_first_failing_copy() {
        assert_eq!(replicated_design(&[(6, "lanes", false)]).validate(), Ok(()));
        // Copies 0–5 fit; copy 6 is the first past the net.
        assert_eq!(
            replicated_design(&[(9, "lanes", false)]).validate(),
            out_of_range("lanes", 6, 6)
        );
        // `t` (2 bits) fails at copy 2, before `lanes` fails at copy 6,
        // although its entry comes second: the run expands copy-major.
        assert_eq!(
            replicated_design(&[(9, "lanes", false), (3, "t", true)]).validate(),
            out_of_range("t", 2, 2)
        );
        // Not interleaved, the first entry's copies all come first.
        assert_eq!(
            replicated_design(&[(9, "lanes", false), (3, "t", false)]).validate(),
            out_of_range("lanes", 6, 6)
        );
        // A member with too few copies to reach its overrun is fine.
        assert_eq!(
            replicated_design(&[(9, "lanes", false), (2, "t", true)]).validate(),
            out_of_range("lanes", 6, 6)
        );
        // On a tie, the earlier member of the run is expanded first.
        assert_eq!(
            replicated_design(&[(3, "t", false), (3, "u", true)]).validate(),
            out_of_range("t", 2, 2)
        );
        assert_eq!(
            replicated_design(&[(3, "u", false), (3, "t", true)]).validate(),
            out_of_range("u", 2, 2)
        );
    }

    #[test]
    fn replicated_lanes_tie_in_evaluation_order() {
        // Both lanes of the concatenation first fail at copy 2; `t2` is
        // evaluated first.
        let mut parent = Module::new("parent");
        parent.add_wire("t2", 2).unwrap();
        parent.add_wire("u2", 2).unwrap();
        parent.add_replicated(
            "c",
            3,
            InstanceTarget::Module("tiny".into()),
            vec![(
                "a",
                Signal::Concat(vec![
                    Signal::zeros(2),
                    Signal::lane("t2", 1),
                    Signal::lane("u2", 1),
                ]),
            )],
        );
        let mut d = Design::new();
        d.add_module(tiny_module()).unwrap();
        d.add_module(parent).unwrap();
        d.set_top("parent").unwrap();
        assert_eq!(
            d.validate(),
            Err(NetlistError::IndexOutOfRange {
                module: "parent".into(),
                net: "t2".into(),
                index: 2,
                width: 2,
            })
        );
    }

    #[test]
    fn replicated_errors_name_copy_zero() {
        let mut m = tiny_module();
        m.add_replicated(
            "r",
            4,
            InstanceTarget::Cell(StandardCell::Nor),
            vec![("y", Signal::lane("a", 2))],
        );
        let mut d = Design::new();
        d.add_module(m).unwrap();
        d.set_top("tiny").unwrap();
        assert_eq!(
            d.validate(),
            Err(NetlistError::WidthMismatch {
                instance: "r0".into(),
                port: "y".into(),
                expected: 1,
                actual: 2,
            })
        );
    }

    #[test]
    fn copy_names() {
        let mut m = Module::new("m");
        let one = m
            .add_replicated("u", 1, InstanceTarget::Cell(StandardCell::Nor), vec![])
            .clone();
        let many = m.add_replicated("v", 3, InstanceTarget::Cell(StandardCell::Nor), vec![]);
        assert_eq!(one.copy_name(0), "u0");
        assert_eq!(many.copy_name(2), "v2");
    }

    #[test]
    fn mutation_clears_the_validated_mark() {
        let mut d = tiny_design(vec![("y", Signal::net("y"))], None);
        d.validate_and_mark().unwrap();
        let mut bad = Module::new("bad");
        bad.add_instance("c0", "ghost", vec![]);
        d.add_module(bad).unwrap();
        // Unreachable from the top, but validation covers every module.
        assert_eq!(
            d.validate(),
            Err(NetlistError::UnknownModule("ghost".into()))
        );
        assert!(d.validate_and_mark().is_err());
        d.set_top("bad").unwrap();
        assert!(d.validate().is_err(), "set_top must not mark");
    }

    #[test]
    fn error_messages_are_nonempty() {
        let errs = [
            NetlistError::DuplicateModule("m".into()),
            NetlistError::NoTop,
            NetlistError::ReversedSlice {
                module: "m".into(),
                net: "n".into(),
                msb: 0,
                lsb: 1,
            },
            NetlistError::InvalidConst {
                module: "m".into(),
                width: 1,
                value: 2,
            },
            NetlistError::UnknownNet {
                module: "m".into(),
                net: "n".into(),
            },
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }
}
