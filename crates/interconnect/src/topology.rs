//! Net-topology IR: the generalized load descriptions behind the suite's
//! analysis layers.
//!
//! The paper derives its flow for one point-to-point RLC line, but real nets
//! branch and couple. [`NetTopology`] captures the two generalizations the
//! rest of the workspace consumes:
//!
//! * [`RlcTree`] — a tree of uniform RLC branch segments with **named sinks**
//!   (receiver pins with load capacitance). A one-branch tree is exactly the
//!   paper's line, and the single-line APIs are thin wrappers over it.
//! * [`CoupledBus`] — two parallel lines (victim and aggressor) coupled by a
//!   distributed coupling capacitance and a mutual inductance, the minimal
//!   crosstalk scenario.
//!
//! Both variants synthesize themselves into an [`rlc_spice`] circuit through
//! one shared path (`add_to_circuit`), which replaces the previous ad-hoc
//! per-load ladder construction.

use rlc_spice::circuit::{Circuit, NodeId};
use rlc_spice::testbench::{add_rlc_ladder, NameBuffer};

use crate::line::RlcLine;

/// Identifier of a branch within an [`RlcTree`] (an index handed out by
/// [`RlcTree::add_branch`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BranchId(usize);

impl BranchId {
    /// Raw index of the branch in tree order (parents precede children).
    pub fn index(self) -> usize {
        self.0
    }
}

/// A named sink: a receiver pin with its load capacitance, attached at the
/// far end of a tree branch.
#[derive(Debug, Clone, PartialEq)]
pub struct Sink {
    /// Sink (pin) name, unique within the tree.
    pub name: String,
    /// Load capacitance at the sink (farads, non-negative).
    pub c_load: f64,
}

/// One branch of an [`RlcTree`]: a uniform RLC segment whose near end
/// attaches to the driving point (no parent) or to the far end of its parent
/// branch, optionally carrying a [`Sink`] at its far end.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeBranch {
    line: RlcLine,
    parent: Option<BranchId>,
    sink: Option<Sink>,
}

impl TreeBranch {
    /// The uniform RLC segment of this branch.
    pub fn line(&self) -> &RlcLine {
        &self.line
    }

    /// The parent branch, or `None` when the branch starts at the driving
    /// point.
    pub fn parent(&self) -> Option<BranchId> {
        self.parent
    }

    /// The sink at the branch's far end, if one was declared.
    pub fn sink(&self) -> Option<&Sink> {
        self.sink.as_ref()
    }
}

/// A tree of RLC branch segments with named sinks.
///
/// ```
/// use rlc_interconnect::{RlcLine, RlcTree};
/// use rlc_numeric::units::{ff, mm, nh, pf};
///
/// // A trunk that splits into two receiver branches.
/// let trunk = RlcLine::new(30.0, nh(2.0), pf(0.5), mm(2.0));
/// let stub = RlcLine::new(20.0, nh(1.2), pf(0.3), mm(1.0));
/// let mut tree = RlcTree::new();
/// let t = tree.add_branch(None, trunk);
/// let left = tree.add_branch(Some(t), stub);
/// let right = tree.add_branch(Some(t), stub);
/// tree.set_sink(left, "rx0", ff(15.0));
/// tree.set_sink(right, "rx1", ff(25.0));
/// assert_eq!(tree.num_branches(), 3);
/// assert!((tree.total_capacitance() - (1.1e-12 + 40e-15)).abs() < 1e-18);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RlcTree {
    branches: Vec<TreeBranch>,
}

impl RlcTree {
    /// Creates an empty tree.
    pub fn new() -> Self {
        RlcTree::default()
    }

    /// The one-branch tree equivalent to the paper's point-to-point line
    /// terminated by `c_load`, with a single sink named `"far"`.
    ///
    /// # Panics
    /// Panics if `c_load` is negative or not finite.
    pub fn single_line(line: RlcLine, c_load: f64) -> Self {
        let mut tree = RlcTree::new();
        let branch = tree.add_branch(None, line);
        tree.set_sink(branch, "far", c_load);
        tree
    }

    /// Appends a branch whose near end attaches to `parent`'s far end (or the
    /// driving point when `parent` is `None`) and returns its id. Branches
    /// are stored in insertion order, so parents always precede children.
    ///
    /// # Panics
    /// Panics if `parent` does not refer to an existing branch of this tree.
    pub fn add_branch(&mut self, parent: Option<BranchId>, line: RlcLine) -> BranchId {
        if let Some(p) = parent {
            assert!(
                p.0 < self.branches.len(),
                "parent branch {} does not exist",
                p.0
            );
        }
        self.branches.push(TreeBranch {
            line,
            parent,
            sink: None,
        });
        BranchId(self.branches.len() - 1)
    }

    /// Declares (or replaces) the named sink at `branch`'s far end.
    ///
    /// # Panics
    /// Panics if the branch does not exist, `c_load` is negative or not
    /// finite, or another branch already carries a sink with this name.
    pub fn set_sink(&mut self, branch: BranchId, name: &str, c_load: f64) {
        assert!(branch.0 < self.branches.len(), "branch does not exist");
        assert!(
            c_load >= 0.0 && c_load.is_finite(),
            "sink load capacitance must be non-negative and finite"
        );
        assert!(
            !self
                .branches
                .iter()
                .enumerate()
                .any(|(i, b)| i != branch.0 && b.sink.as_ref().is_some_and(|s| s.name == name)),
            "sink name {name} is already used in this tree"
        );
        self.branches[branch.0].sink = Some(Sink {
            name: name.to_string(),
            c_load,
        });
    }

    /// Number of branches.
    pub fn num_branches(&self) -> usize {
        self.branches.len()
    }

    /// The branch with the given id.
    pub fn branch(&self, id: BranchId) -> &TreeBranch {
        &self.branches[id.0]
    }

    /// Iterates the branches in tree order (parents before children).
    pub fn branches(&self) -> impl Iterator<Item = (BranchId, &TreeBranch)> {
        self.branches
            .iter()
            .enumerate()
            .map(|(i, b)| (BranchId(i), b))
    }

    /// Iterates the declared sinks in branch order.
    pub fn sinks(&self) -> impl Iterator<Item = (BranchId, &Sink)> {
        self.branches
            .iter()
            .enumerate()
            .filter_map(|(i, b)| b.sink.as_ref().map(|s| (BranchId(i), s)))
    }

    /// Number of declared sinks.
    pub fn num_sinks(&self) -> usize {
        self.sinks().count()
    }

    /// The ids of `branch`'s children.
    pub fn children(&self, branch: BranchId) -> Vec<BranchId> {
        self.branches
            .iter()
            .enumerate()
            .filter_map(|(i, b)| (b.parent == Some(branch)).then_some(BranchId(i)))
            .collect()
    }

    /// Total capacitance of the net: every branch's shunt capacitance plus
    /// every sink load.
    pub fn total_capacitance(&self) -> f64 {
        self.branches
            .iter()
            .map(|b| b.line.capacitance() + b.sink.as_ref().map_or(0.0, |s| s.c_load))
            .sum()
    }

    /// Sum of the sink load capacitances (the external fan-out beyond the
    /// wire itself).
    pub fn sink_capacitance(&self) -> f64 {
        self.sinks().map(|(_, s)| s.c_load).sum()
    }

    /// Sum of the per-branch times of flight — a conservative propagation
    /// estimate for choosing simulation windows.
    pub fn total_time_of_flight(&self) -> f64 {
        self.branches.iter().map(|b| b.line.time_of_flight()).sum()
    }

    /// When the tree is exactly the paper's topology — one branch, one sink —
    /// returns the line and sink load, letting single-line fast paths apply.
    pub fn as_single_line(&self) -> Option<(&RlcLine, f64)> {
        match self.branches.as_slice() {
            [only] => only.sink.as_ref().map(|sink| (&only.line, sink.c_load)),
            _ => None,
        }
    }

    /// Synthesizes the tree into `ckt` as segmented ladders (one
    /// [`add_rlc_ladder`] pi ladder of `segments_per_branch` sections per
    /// branch, branch `k` prefixed `{name_prefix}_b{k}`), starting at `near`.
    /// Created nodes are initialized to `v_initial`. Returns the declared
    /// sinks with their circuit nodes, in branch order.
    ///
    /// # Panics
    /// Panics if the tree is empty or `segments_per_branch == 0`.
    pub fn add_to_circuit(
        &self,
        ckt: &mut Circuit,
        near: NodeId,
        segments_per_branch: usize,
        v_initial: f64,
        name_prefix: &str,
    ) -> Vec<SinkNode> {
        assert!(!self.branches.is_empty(), "cannot synthesize an empty tree");
        let mut far_nodes: Vec<NodeId> = Vec::with_capacity(self.branches.len());
        let mut sink_nodes = Vec::new();
        for (k, branch) in self.branches.iter().enumerate() {
            let start = match branch.parent {
                Some(p) => far_nodes[p.0],
                None => near,
            };
            let c_load = branch.sink.as_ref().map_or(0.0, |s| s.c_load);
            let far = add_rlc_ladder(
                ckt,
                start,
                branch.line.resistance(),
                branch.line.inductance(),
                branch.line.capacitance(),
                segments_per_branch,
                c_load,
                v_initial,
                &format!("{name_prefix}_b{k}"),
            );
            if let Some(sink) = &branch.sink {
                sink_nodes.push(SinkNode {
                    name: sink.name.clone(),
                    node: far,
                });
            }
            far_nodes.push(far);
        }
        sink_nodes
    }
}

/// A synthesized sink: the sink name and the circuit node realizing it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SinkNode {
    /// The sink (pin) name.
    pub name: String,
    /// The circuit node at the sink.
    pub node: NodeId,
}

/// Two parallel RLC lines — a victim and an aggressor — coupled along their
/// length by a total coupling capacitance and a total mutual inductance.
///
/// Parasitics are totals over the coupled run (like [`RlcLine`]); synthesis
/// distributes them uniformly over the ladder segments. The coupling
/// coefficient `M / sqrt(Lv * La)` must stay below 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoupledBus {
    victim: RlcLine,
    aggressor: RlcLine,
    coupling_capacitance: f64,
    mutual_inductance: f64,
    victim_load: f64,
    aggressor_load: f64,
}

impl CoupledBus {
    /// Creates a coupled bus from the two lines, the total line-to-line
    /// coupling capacitance (F), the total mutual inductance (H), and the
    /// far-end load capacitances of both lines.
    ///
    /// # Panics
    /// Panics if the coupling capacitance or either load is negative or not
    /// finite, or if the mutual inductance implies a coupling coefficient of
    /// 1 or more.
    pub fn new(
        victim: RlcLine,
        aggressor: RlcLine,
        coupling_capacitance: f64,
        mutual_inductance: f64,
        victim_load: f64,
        aggressor_load: f64,
    ) -> Self {
        assert!(
            coupling_capacitance >= 0.0 && coupling_capacitance.is_finite(),
            "coupling capacitance must be non-negative and finite"
        );
        assert!(
            mutual_inductance.is_finite()
                && mutual_inductance * mutual_inductance
                    < victim.inductance() * aggressor.inductance(),
            "mutual inductance must keep the coupling coefficient below 1"
        );
        assert!(
            victim_load >= 0.0 && victim_load.is_finite(),
            "victim load capacitance must be non-negative and finite"
        );
        assert!(
            aggressor_load >= 0.0 && aggressor_load.is_finite(),
            "aggressor load capacitance must be non-negative and finite"
        );
        CoupledBus {
            victim,
            aggressor,
            coupling_capacitance,
            mutual_inductance,
            victim_load,
            aggressor_load,
        }
    }

    /// A symmetric bus: both wires are copies of `line`, both terminated by
    /// `c_load`.
    pub fn symmetric(
        line: RlcLine,
        coupling_capacitance: f64,
        mutual_inductance: f64,
        c_load: f64,
    ) -> Self {
        CoupledBus::new(
            line,
            line,
            coupling_capacitance,
            mutual_inductance,
            c_load,
            c_load,
        )
    }

    /// The victim line.
    pub fn victim(&self) -> &RlcLine {
        &self.victim
    }

    /// The aggressor line.
    pub fn aggressor(&self) -> &RlcLine {
        &self.aggressor
    }

    /// Total line-to-line coupling capacitance (F).
    pub fn coupling_capacitance(&self) -> f64 {
        self.coupling_capacitance
    }

    /// Total mutual inductance (H).
    pub fn mutual_inductance(&self) -> f64 {
        self.mutual_inductance
    }

    /// Victim far-end load capacitance (F).
    pub fn victim_load(&self) -> f64 {
        self.victim_load
    }

    /// Aggressor far-end load capacitance (F).
    pub fn aggressor_load(&self) -> f64 {
        self.aggressor_load
    }

    /// Inductive coupling coefficient `k = M / sqrt(Lv * La)`.
    pub fn coupling_coefficient(&self) -> f64 {
        self.mutual_inductance / (self.victim.inductance() * self.aggressor.inductance()).sqrt()
    }

    /// Synthesizes the coupled bus into `ckt`: two interleaved pi ladders of
    /// `segments` sections (the same discretization as [`add_rlc_ladder`]),
    /// the coupling capacitance distributed as half-sections at both ends and
    /// full sections between interior node pairs, and one mutual inductance
    /// per segment pair. Victim nodes start at `v_initial_victim`, aggressor
    /// nodes at `v_initial_aggressor`. Returns the victim and aggressor
    /// far-end nodes.
    ///
    /// # Panics
    /// Panics if `segments == 0`.
    #[allow(clippy::too_many_arguments)]
    pub fn add_to_circuit(
        &self,
        ckt: &mut Circuit,
        victim_near: NodeId,
        aggressor_near: NodeId,
        segments: usize,
        v_initial_victim: f64,
        v_initial_aggressor: f64,
        name_prefix: &str,
    ) -> (NodeId, NodeId) {
        assert!(segments > 0, "need at least one bus segment");
        let n = segments as f64;
        let ccs = self.coupling_capacitance / n;
        let ms = self.mutual_inductance / n;
        ckt.reserve(4 * segments, 8 * segments + 5);
        let mut names = NameBuffer::new(name_prefix);

        let add_coupling =
            |ckt: &mut Circuit, names: &mut NameBuffer, k: usize, a: NodeId, b: NodeId, farads| {
                if farads > 0.0 {
                    ckt.add_capacitor(names.name(format_args!("_Cc{k}")).to_owned(), a, b, farads);
                }
            };

        // Near-end half coupling cap between the two driving points.
        add_coupling(ckt, &mut names, 0, victim_near, aggressor_near, 0.5 * ccs);

        let mut prev = [victim_near, aggressor_near];
        let wires = [
            ("v", &self.victim, v_initial_victim),
            ("a", &self.aggressor, v_initial_aggressor),
        ];
        // Near-end half shunt caps of both wires.
        for (w, (tag, line, _)) in wires.iter().enumerate() {
            ckt.add_capacitor(
                names.name(format_args!("_{tag}C0")).to_owned(),
                prev[w],
                Circuit::GROUND,
                0.5 * line.capacitance() / n,
            );
        }
        for k in 0..segments {
            let mut next = prev;
            for (w, (tag, line, v_init)) in wires.iter().enumerate() {
                let rs = line.resistance() / n;
                let ls = line.inductance() / n;
                let cs = line.capacitance() / n;
                let mid = ckt.node(names.name(format_args!("_{tag}m{k}")));
                let far = ckt.node(names.name(format_args!("_{tag}n{k}")));
                ckt.add_resistor(
                    names.name(format_args!("_{tag}R{k}")).to_owned(),
                    prev[w],
                    mid,
                    rs,
                );
                ckt.add_inductor(
                    names.name(format_args!("_{tag}L{k}")).to_owned(),
                    mid,
                    far,
                    ls,
                );
                // Interior nodes carry a full section cap, the far end a half.
                let shunt = if k + 1 == segments { 0.5 * cs } else { cs };
                ckt.add_capacitor(
                    names.name(format_args!("_{tag}C{}", k + 1)).to_owned(),
                    far,
                    Circuit::GROUND,
                    shunt,
                );
                ckt.set_initial_condition(mid, *v_init);
                ckt.set_initial_condition(far, *v_init);
                next[w] = far;
            }
            if ms != 0.0 {
                ckt.add_mutual_inductance(
                    names.name(format_args!("_K{k}")).to_owned(),
                    names.name(format_args!("_vL{k}")).to_owned(),
                    names.name(format_args!("_aL{k}")).to_owned(),
                    ms,
                );
            }
            // Coupling cap between the section's far nodes: full for interior
            // pairs, half at the bus far end.
            let cc = if k + 1 == segments { 0.5 * ccs } else { ccs };
            add_coupling(ckt, &mut names, k + 1, next[0], next[1], cc);
            prev = next;
        }
        if self.victim_load > 0.0 {
            ckt.add_capacitor(
                names.name(format_args!("_vCL")).to_owned(),
                prev[0],
                Circuit::GROUND,
                self.victim_load,
            );
        }
        if self.aggressor_load > 0.0 {
            ckt.add_capacitor(
                names.name(format_args!("_aCL")).to_owned(),
                prev[1],
                Circuit::GROUND,
                self.aggressor_load,
            );
        }
        (prev[0], prev[1])
    }
}

impl std::fmt::Display for CoupledBus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "coupled bus: victim [{}], aggressor [{}], Cc = {:.3} pF, M = {:.3} nH (k = {:.2})",
            self.victim,
            self.aggressor,
            self.coupling_capacitance * 1e12,
            self.mutual_inductance * 1e9,
            self.coupling_coefficient()
        )
    }
}

/// The net-topology IR: every load shape the suite's layers understand.
///
/// The analysis layers consume the variants directly ([`RlcTree`] for
/// moment-based reduction and per-sink far ends, [`CoupledBus`] for
/// crosstalk stages); the enum is the hand-off format for extraction
/// front-ends that produce "some net" without knowing which analysis will
/// run on it.
#[derive(Debug, Clone, PartialEq)]
pub enum NetTopology {
    /// A tree of RLC branches with named sinks (one branch = the paper's
    /// point-to-point line).
    Tree(RlcTree),
    /// Two coupled parallel lines (victim + aggressor).
    CoupledBus(CoupledBus),
}

impl NetTopology {
    /// The single-line topology of the paper: one branch, one `"far"` sink.
    pub fn single_line(line: RlcLine, c_load: f64) -> Self {
        NetTopology::Tree(RlcTree::single_line(line, c_load))
    }

    /// Total capacitance of the net (wires plus sink loads; for a bus, both
    /// wires, both loads and the coupling capacitance).
    pub fn total_capacitance(&self) -> f64 {
        match self {
            NetTopology::Tree(tree) => tree.total_capacitance(),
            NetTopology::CoupledBus(bus) => {
                bus.victim().capacitance()
                    + bus.aggressor().capacitance()
                    + bus.coupling_capacitance()
                    + bus.victim_load()
                    + bus.aggressor_load()
            }
        }
    }

    /// Number of sinks (tree sinks; a bus has its two far ends).
    pub fn num_sinks(&self) -> usize {
        match self {
            NetTopology::Tree(tree) => tree.num_sinks(),
            NetTopology::CoupledBus(_) => 2,
        }
    }
}

impl From<RlcTree> for NetTopology {
    fn from(tree: RlcTree) -> Self {
        NetTopology::Tree(tree)
    }
}

impl From<CoupledBus> for NetTopology {
    fn from(bus: CoupledBus) -> Self {
        NetTopology::CoupledBus(bus)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlc_numeric::units::{ff, mm, nh, pf};
    use rlc_spice::SourceWaveform;

    fn paper_line() -> RlcLine {
        RlcLine::new(72.44, nh(5.14), pf(1.10), mm(5.0))
    }

    fn stub() -> RlcLine {
        RlcLine::new(20.0, nh(1.0), pf(0.3), mm(1.0))
    }

    #[test]
    fn single_line_tree_is_recognized() {
        let tree = RlcTree::single_line(paper_line(), ff(10.0));
        assert_eq!(tree.num_branches(), 1);
        assert_eq!(tree.num_sinks(), 1);
        let (line, c_load) = tree.as_single_line().unwrap();
        assert_eq!(line, &paper_line());
        assert!((c_load - 10e-15).abs() < 1e-24);
        assert!((tree.total_capacitance() - (paper_line().capacitance() + 10e-15)).abs() < 1e-18);
    }

    #[test]
    fn branching_tree_tracks_structure() {
        let mut tree = RlcTree::new();
        let trunk = tree.add_branch(None, paper_line());
        let l = tree.add_branch(Some(trunk), stub());
        let r = tree.add_branch(Some(trunk), stub());
        tree.set_sink(l, "rx0", ff(15.0));
        tree.set_sink(r, "rx1", ff(25.0));
        assert!(tree.as_single_line().is_none());
        assert_eq!(tree.children(trunk), vec![l, r]);
        assert!(tree.children(l).is_empty());
        assert_eq!(tree.branch(l).parent(), Some(trunk));
        assert_eq!(tree.num_sinks(), 2);
        assert!((tree.sink_capacitance() - 40e-15).abs() < 1e-24);
        assert!(tree.total_time_of_flight() > paper_line().time_of_flight());
        let names: Vec<&str> = tree.sinks().map(|(_, s)| s.name.as_str()).collect();
        assert_eq!(names, ["rx0", "rx1"]);
    }

    #[test]
    #[should_panic(expected = "already used")]
    fn duplicate_sink_names_rejected() {
        let mut tree = RlcTree::new();
        let a = tree.add_branch(None, paper_line());
        let b = tree.add_branch(Some(a), stub());
        tree.set_sink(a, "rx", ff(1.0));
        tree.set_sink(b, "rx", ff(1.0));
    }

    #[test]
    #[should_panic(expected = "does not exist")]
    fn foreign_parent_rejected() {
        let mut tree = RlcTree::new();
        tree.add_branch(Some(BranchId(3)), paper_line());
    }

    #[test]
    fn tree_synthesis_creates_all_sinks() {
        let mut tree = RlcTree::new();
        let trunk = tree.add_branch(None, paper_line());
        let l = tree.add_branch(Some(trunk), stub());
        let r = tree.add_branch(Some(trunk), stub());
        tree.set_sink(l, "rx0", ff(15.0));
        tree.set_sink(r, "rx1", ff(25.0));

        let mut ckt = Circuit::new();
        let near = ckt.node("out");
        ckt.add_vsource("V1", near, Circuit::GROUND, SourceWaveform::dc(0.0));
        let sinks = tree.add_to_circuit(&mut ckt, near, 6, 0.0, "net");
        assert_eq!(sinks.len(), 2);
        assert_eq!(sinks[0].name, "rx0");
        assert_eq!(sinks[1].name, "rx1");
        assert_ne!(sinks[0].node, sinks[1].node);
        assert!(ckt.validate().is_ok());
    }

    #[test]
    fn bus_synthesis_produces_valid_coupled_circuit() {
        let bus = CoupledBus::symmetric(paper_line(), pf(0.4), nh(1.5), ff(10.0));
        assert!(bus.coupling_coefficient() > 0.0 && bus.coupling_coefficient() < 1.0);
        let mut ckt = Circuit::new();
        let v = ckt.node("v_in");
        let a = ckt.node("a_in");
        ckt.add_vsource("VV", v, Circuit::GROUND, SourceWaveform::dc(0.0));
        ckt.add_vsource("VA", a, Circuit::GROUND, SourceWaveform::dc(0.0));
        let (v_far, a_far) = bus.add_to_circuit(&mut ckt, v, a, 8, 0.0, 0.0, "bus");
        assert_ne!(v_far, a_far);
        assert!(ckt.validate().is_ok());
        assert!(bus.to_string().contains("coupled bus"));
    }

    #[test]
    fn zero_coupling_bus_synthesis_is_valid() {
        let bus = CoupledBus::symmetric(paper_line(), 0.0, 0.0, ff(10.0));
        let mut ckt = Circuit::new();
        let v = ckt.node("v_in");
        let a = ckt.node("a_in");
        ckt.add_vsource("VV", v, Circuit::GROUND, SourceWaveform::dc(0.0));
        ckt.add_vsource("VA", a, Circuit::GROUND, SourceWaveform::dc(0.0));
        let _ = bus.add_to_circuit(&mut ckt, v, a, 8, 0.0, 0.0, "bus");
        assert!(ckt.validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "coupling coefficient below 1")]
    fn over_coupled_bus_rejected() {
        let line = paper_line();
        let _ = CoupledBus::symmetric(line, 0.0, line.inductance(), 0.0);
    }

    #[test]
    fn net_topology_wraps_both_variants() {
        let net = NetTopology::single_line(paper_line(), ff(10.0));
        assert_eq!(net.num_sinks(), 1);
        assert!(net.total_capacitance() > pf(1.0));

        let bus: NetTopology =
            CoupledBus::symmetric(paper_line(), pf(0.4), nh(1.0), ff(10.0)).into();
        assert_eq!(bus.num_sinks(), 2);
        assert!(bus.total_capacitance() > 2.0 * pf(1.1));

        let tree: NetTopology = RlcTree::single_line(paper_line(), 0.0).into();
        assert!(matches!(tree, NetTopology::Tree(_)));
    }
}
