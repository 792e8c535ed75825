//! Circuit container and construction API.

use std::collections::HashMap;
use std::sync::Arc;

use crate::elements::Element;
use crate::mosfet::MosfetParams;
use crate::source::SourceWaveform;
use crate::SpiceError;

/// Identifier of a circuit node. Node 0 is always ground.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// Reconstructs a node id from its raw index. Node indices are stable
    /// for the lifetime of a circuit (0 is ground, allocation order after
    /// that); intended for diagnostics that walk raw index arrays — passing
    /// an index the circuit never allocated panics on the next name lookup.
    pub fn from_index(index: usize) -> NodeId {
        NodeId(index)
    }

    /// Raw index of the node (ground is 0).
    pub fn index(self) -> usize {
        self.0
    }

    /// Whether this node is the ground reference.
    pub fn is_ground(self) -> bool {
        self.0 == 0
    }
}

/// A circuit: a set of named nodes plus a list of elements.
///
/// Each node name is stored once, shared by the ordered name list and the
/// name lookup. The element adders take owned names (`impl Into<String>`),
/// so a builder that formats a name can move it into its element without a
/// copy, and [`Circuit::reserve`] sizes the tables up front when the
/// netlist's size is known.
///
/// ```
/// use rlc_spice::prelude::*;
///
/// let mut ckt = Circuit::new();
/// let n1 = ckt.node("n1");
/// ckt.add_vsource("V1", n1, Circuit::GROUND, SourceWaveform::dc(1.0));
/// ckt.add_resistor("R1", n1, Circuit::GROUND, 50.0);
/// assert_eq!(ckt.num_nodes(), 2); // ground + n1
/// assert_eq!(ckt.elements().len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Circuit {
    node_names: Vec<Arc<str>>,
    name_to_node: HashMap<Arc<str>, NodeId>,
    elements: Vec<Element>,
    initial_conditions: HashMap<NodeId, f64>,
}

impl Circuit {
    /// The ground node (node 0).
    pub const GROUND: NodeId = NodeId(0);

    /// Creates an empty circuit containing only the ground node.
    pub fn new() -> Self {
        let ground: Arc<str> = Arc::from("0");
        Circuit {
            node_names: vec![ground.clone()],
            name_to_node: HashMap::from([(ground, Self::GROUND)]),
            elements: Vec::new(),
            initial_conditions: HashMap::new(),
        }
    }

    /// Reserves room for `nodes` more nodes (and as many initial
    /// conditions) and `elements` more elements, so building a netlist of
    /// known size does not regrow its tables.
    pub fn reserve(&mut self, nodes: usize, elements: usize) {
        self.node_names.reserve(nodes);
        self.name_to_node.reserve(nodes);
        self.initial_conditions.reserve(nodes);
        self.elements.reserve(elements);
    }

    /// Returns the node with the given name, creating it if necessary.
    /// The names `"0"`, `"gnd"` and `"GND"` refer to ground.
    pub fn node(&mut self, name: &str) -> NodeId {
        if name == "0" || name.eq_ignore_ascii_case("gnd") {
            return Self::GROUND;
        }
        if let Some(&id) = self.name_to_node.get(name) {
            return id;
        }
        let id = NodeId(self.node_names.len());
        let name: Arc<str> = Arc::from(name);
        self.node_names.push(name.clone());
        self.name_to_node.insert(name, id);
        id
    }

    /// Looks up an existing node by name without creating it.
    pub fn find_node(&self, name: &str) -> Option<NodeId> {
        if name == "0" || name.eq_ignore_ascii_case("gnd") {
            return Some(Self::GROUND);
        }
        self.name_to_node.get(name).copied()
    }

    /// Name of a node.
    pub fn node_name(&self, node: NodeId) -> &str {
        &self.node_names[node.0]
    }

    /// Number of nodes including ground.
    pub fn num_nodes(&self) -> usize {
        self.node_names.len()
    }

    /// Number of non-ground nodes — the node-voltage unknown count of the
    /// MNA system (branch currents add on top; see
    /// [`crate::MnaSystem::num_unknowns`]). This is the size measure the
    /// transient kernel's Auto strategy compares against its sparse
    /// threshold.
    pub fn node_count(&self) -> usize {
        self.node_names.len() - 1
    }

    /// Number of *unique* matrix positions the transient MNA stamp touches —
    /// the structural nonzero count of the system matrix. Together with
    /// [`Circuit::node_count`] this makes sparsity observable:
    /// `stamp_nnz() / n²` is the fill fraction that decides whether the
    /// sparse kernel pays off. Compiles the circuit; intended for
    /// diagnostics, not hot loops.
    pub fn stamp_nnz(&self) -> usize {
        crate::mna::MnaSystem::compile(self).stamp_nnz()
    }

    /// The name-to-node lookup, shared with run results so they resolve
    /// names without copying them.
    pub(crate) fn name_map(&self) -> &HashMap<Arc<str>, NodeId> {
        &self.name_to_node
    }

    /// All elements in insertion order.
    pub fn elements(&self) -> &[Element] {
        &self.elements
    }

    /// Human-readable label of MNA unknown `index`, mirroring the compile
    /// order of [`crate::MnaSystem`]: unknowns `0..num_nodes()-1` are the
    /// non-ground node voltages (unknown `k` is node `k + 1`), and branch
    /// currents follow in element insertion order (inductors and voltage
    /// sources). A diagnostics hook: lets structural analyses name the rows
    /// of the stamp pattern without reaching into the compiled system.
    pub fn unknown_label(&self, index: usize) -> String {
        let node_unknowns = self.num_nodes() - 1;
        if index < node_unknowns {
            return format!("node `{}`", self.node_name(NodeId(index + 1)));
        }
        let mut branch = node_unknowns;
        for e in &self.elements {
            if e.needs_branch_current() {
                if branch == index {
                    return format!("branch current of `{}`", e.name());
                }
                branch += 1;
            }
        }
        format!("unknown #{index}")
    }

    /// Adds a pre-built element.
    pub fn add_element(&mut self, element: Element) {
        self.elements.push(element);
    }

    /// Adds a resistor.
    ///
    /// # Panics
    /// Panics if `ohms <= 0`.
    pub fn add_resistor(&mut self, name: impl Into<String>, a: NodeId, b: NodeId, ohms: f64) {
        let name = name.into();
        assert!(ohms > 0.0, "resistor {name} must have positive resistance");
        self.elements.push(Element::Resistor { name, a, b, ohms });
    }

    /// Adds a capacitor.
    ///
    /// # Panics
    /// Panics if `farads <= 0`.
    pub fn add_capacitor(&mut self, name: impl Into<String>, a: NodeId, b: NodeId, farads: f64) {
        let name = name.into();
        assert!(
            farads > 0.0,
            "capacitor {name} must have positive capacitance"
        );
        self.elements
            .push(Element::Capacitor { name, a, b, farads });
    }

    /// Adds an inductor.
    ///
    /// # Panics
    /// Panics if `henries <= 0`.
    pub fn add_inductor(&mut self, name: impl Into<String>, a: NodeId, b: NodeId, henries: f64) {
        let name = name.into();
        assert!(
            henries > 0.0,
            "inductor {name} must have positive inductance"
        );
        self.elements.push(Element::Inductor {
            name,
            a,
            b,
            henries,
        });
    }

    /// Adds a mutual inductance `M` coupling two inductors already (or later)
    /// added by name. Validated by [`Circuit::validate`]: both inductors must
    /// exist, be distinct, and satisfy `M^2 < L_a * L_b` (coupling
    /// coefficient below 1).
    ///
    /// # Panics
    /// Panics if `henries` is zero or not finite.
    pub fn add_mutual_inductance(
        &mut self,
        name: impl Into<String>,
        inductor_a: impl Into<String>,
        inductor_b: impl Into<String>,
        henries: f64,
    ) {
        let name = name.into();
        assert!(
            henries != 0.0 && henries.is_finite(),
            "mutual inductance {name} must be non-zero and finite"
        );
        self.elements.push(Element::MutualInductance {
            name,
            inductor_a: inductor_a.into(),
            inductor_b: inductor_b.into(),
            henries,
        });
    }

    /// Adds an independent voltage source (positive terminal `pos`).
    pub fn add_vsource(
        &mut self,
        name: impl Into<String>,
        pos: NodeId,
        neg: NodeId,
        waveform: SourceWaveform,
    ) {
        self.elements.push(Element::VoltageSource {
            name: name.into(),
            pos,
            neg,
            waveform,
        });
    }

    /// Adds an independent current source driving current from `from` to `to`
    /// through the external circuit.
    pub fn add_isource(
        &mut self,
        name: impl Into<String>,
        from: NodeId,
        to: NodeId,
        waveform: SourceWaveform,
    ) {
        self.elements.push(Element::CurrentSource {
            name: name.into(),
            from,
            to,
            waveform,
        });
    }

    /// Adds a MOSFET (drain, gate, source; bulk tied to source).
    ///
    /// # Panics
    /// Panics if `width <= 0`.
    pub fn add_mosfet(
        &mut self,
        name: impl Into<String>,
        drain: NodeId,
        gate: NodeId,
        source: NodeId,
        params: MosfetParams,
        width: f64,
    ) {
        let name = name.into();
        assert!(width > 0.0, "mosfet {name} must have positive width");
        self.elements.push(Element::Mosfet {
            name,
            drain,
            gate,
            source,
            params,
            width,
        });
    }

    /// Sets the initial voltage of a node for transient analysis started with
    /// "use initial conditions" (the default when any IC is present).
    pub fn set_initial_condition(&mut self, node: NodeId, volts: f64) {
        self.initial_conditions.insert(node, volts);
    }

    /// All user-specified initial conditions.
    pub fn initial_conditions(&self) -> &HashMap<NodeId, f64> {
        &self.initial_conditions
    }

    /// Inductance of the named inductor element, if present.
    fn inductance_of(&self, inductor: &str) -> Option<f64> {
        self.elements.iter().find_map(|e| match e {
            Element::Inductor { name, henries, .. } if name == inductor => Some(*henries),
            _ => None,
        })
    }

    /// Basic sanity checks run before any analysis.
    ///
    /// # Errors
    /// Returns [`SpiceError::InvalidCircuit`] when the circuit is empty, has
    /// no element connected to ground, an element references a node that
    /// does not exist, or a mutual inductance names a missing/duplicate
    /// inductor or exceeds the unity coupling coefficient.
    pub fn validate(&self) -> Result<(), SpiceError> {
        if self.elements.is_empty() {
            return Err(SpiceError::InvalidCircuit("circuit has no elements".into()));
        }
        let mut touches_ground = false;
        for e in &self.elements {
            for n in e.nodes() {
                if n.0 >= self.node_names.len() {
                    return Err(SpiceError::InvalidCircuit(format!(
                        "element {} references unknown node {}",
                        e.name(),
                        n.0
                    )));
                }
                if n.is_ground() {
                    touches_ground = true;
                }
            }
            if let Element::MutualInductance {
                name,
                inductor_a,
                inductor_b,
                henries,
            } = e
            {
                if inductor_a == inductor_b {
                    return Err(SpiceError::InvalidCircuit(format!(
                        "mutual inductance {name} couples inductor {inductor_a} to itself"
                    )));
                }
                let (la, lb) = match (
                    self.inductance_of(inductor_a),
                    self.inductance_of(inductor_b),
                ) {
                    (Some(la), Some(lb)) => (la, lb),
                    _ => {
                        return Err(SpiceError::InvalidCircuit(format!(
                            "mutual inductance {name} references unknown inductor \
                             ({inductor_a} and/or {inductor_b})"
                        )));
                    }
                };
                if henries * henries >= la * lb {
                    return Err(SpiceError::InvalidCircuit(format!(
                        "mutual inductance {name}: M = {henries:e} implies a coupling \
                         coefficient >= 1 for L = {la:e} and {lb:e}"
                    )));
                }
            }
        }
        if !touches_ground {
            return Err(SpiceError::InvalidCircuit(
                "no element is connected to ground".into(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_creation_and_lookup() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let a2 = ckt.node("a");
        assert_eq!(a, a2);
        assert_eq!(ckt.node("gnd"), Circuit::GROUND);
        assert_eq!(ckt.node("0"), Circuit::GROUND);
        assert_eq!(ckt.num_nodes(), 2);
        assert_eq!(ckt.node_name(a), "a");
        assert_eq!(ckt.find_node("a"), Some(a));
        assert_eq!(ckt.find_node("zzz"), None);
    }

    #[test]
    fn validate_rejects_empty_circuit() {
        let ckt = Circuit::new();
        assert!(matches!(ckt.validate(), Err(SpiceError::InvalidCircuit(_))));
    }

    #[test]
    fn validate_requires_ground_connection() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add_resistor("R1", a, b, 1.0);
        assert!(matches!(ckt.validate(), Err(SpiceError::InvalidCircuit(_))));
        ckt.add_capacitor("C1", b, Circuit::GROUND, 1e-15);
        assert!(ckt.validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "positive resistance")]
    fn negative_resistor_panics() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.add_resistor("R1", a, Circuit::GROUND, -1.0);
    }

    #[test]
    fn validate_checks_mutual_inductances() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add_inductor("L1", a, Circuit::GROUND, 1e-9);
        ckt.add_inductor("L2", b, Circuit::GROUND, 4e-9);

        // Unknown partner inductor.
        let mut bad = ckt.clone();
        bad.add_mutual_inductance("K1", "L1", "Lmissing", 0.5e-9);
        assert!(matches!(bad.validate(), Err(SpiceError::InvalidCircuit(_))));

        // Self-coupling.
        let mut bad = ckt.clone();
        bad.add_mutual_inductance("K1", "L1", "L1", 0.5e-9);
        assert!(matches!(bad.validate(), Err(SpiceError::InvalidCircuit(_))));

        // Coupling coefficient >= 1: sqrt(1n * 4n) = 2n.
        let mut bad = ckt.clone();
        bad.add_mutual_inductance("K1", "L1", "L2", 2e-9);
        assert!(matches!(bad.validate(), Err(SpiceError::InvalidCircuit(_))));

        // A physical coupling (negative M allowed) passes.
        ckt.add_mutual_inductance("K1", "L1", "L2", -1.9e-9);
        assert!(ckt.validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "non-zero and finite")]
    fn zero_mutual_inductance_panics() {
        let mut ckt = Circuit::new();
        ckt.add_mutual_inductance("K1", "L1", "L2", 0.0);
    }

    #[test]
    fn initial_conditions_are_stored() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.set_initial_condition(a, 1.8);
        assert_eq!(ckt.initial_conditions().get(&a), Some(&1.8));
    }
}
