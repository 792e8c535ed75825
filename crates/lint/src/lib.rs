//! # rlc-lint
//!
//! A static circuit-audit pass: graph, structural-rank and numeric lints
//! over [`Circuit`]s and [`NetTopology`]s, run **before** any transient
//! solve. A floating node, a structurally singular MNA stamp or a
//! non-passive element value today surfaces as a cryptic pivot failure, a
//! silent degrade-to-dense or wrong waveforms deep inside a session; the
//! lint pass proves the preconditions the effective-capacitance flow
//! assumes (a well-formed passive RLC load) or rejects the netlist with a
//! typed, located diagnostic instead.
//!
//! Three analysis classes, all purely structural/arithmetic (no
//! factorization, no time stepping):
//!
//! * **Graph checks** over the element list: floating nodes ([`codes::FLOATING_NODE`]),
//!   ground-unreachable components ([`codes::GROUND_UNREACHABLE`]), dangling
//!   two-terminal elements ([`codes::DANGLING_ELEMENT`]), duplicate shorts
//!   ([`codes::DUPLICATE_SHORT`]) and mutual-inductance references to
//!   missing inductors ([`codes::MUTUAL_MISSING_INDUCTOR`]).
//! * **Structural rank** of the DC MNA sparsity pattern via maximum
//!   bipartite matching ([`codes::STRUCTURALLY_SINGULAR`]): a system whose
//!   pattern admits no zero-free diagonal fails *every* factorization, so
//!   it is rejected here with the deficient rows named instead of a runtime
//!   "singular matrix at t = …".
//! * **Numeric sanity**: non-passive values ([`codes::NON_PASSIVE_ELEMENT`]),
//!   overcoupled mutuals ([`codes::OVERCOUPLED_MUTUAL`]), companion-matrix
//!   conditioning vs. the configured time step ([`codes::CONDITIONING_SPREAD`]),
//!   degenerate near-zero elements ([`codes::DEGENERATE_ELEMENT`]) and
//!   sinks shadowed by voltage sources ([`codes::SINK_SHADOWED`]).
//!
//! Every finding is a [`Diagnostic`] with a stable `L0xx` code, a
//! [`Severity`] and a node/element locus. [`LintLevel`] tells enforcement
//! layers (the facade's `AnalysisSession`, the service front-end) what to
//! do with the findings.
//!
//! The audit gates every stage a session submits, serially on the
//! submitting thread, so it is built to cost little and to scale linearly
//! with the netlist. The graph checks are one union-find pass over the
//! elements; the structural rank is a matching over a CSR pattern whose
//! searches clear nothing between rows; the inductor-name lookups behind
//! L005 and L021 exist only when the circuit has a mutual inductance; and
//! names and messages are formatted only for findings that fire (L022
//! tracks its extremes as element indices). The netlists it audits come
//! from the same builders the simulation backends use, which store each
//! node name once, move owned element names into the circuit and size
//! its tables up front ([`Circuit::reserve`]).
//!
//! ```
//! use rlc_lint::{lint_circuit, LintOptions};
//! use rlc_spice::Circuit;
//!
//! let mut ckt = Circuit::new();
//! let stranded = ckt.node("stranded"); // created, never used
//! let _ = stranded;
//! let findings = lint_circuit(&ckt, &LintOptions::default());
//! assert_eq!(findings[0].code, "L001");
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};

use rlc_interconnect::NetTopology;
use rlc_numeric::matching::structural_rank;
use rlc_spice::mna::MnaSystem;
use rlc_spice::{Circuit, Element, NodeId};

pub use rlc_numeric::diag::{worst_severity, Diagnostic, Severity};

/// Stable lint codes. Codes are append-only: once shipped, a code keeps its
/// meaning forever (they are part of the service wire contract).
pub mod codes {
    /// `L001` (Error): a node was created but no element touches it. The
    /// solve only succeeds through the `gmin` floor pivot, which also
    /// poisons the sparse kernel's pivot-health gate.
    pub const FLOATING_NODE: &str = "L001";
    /// `L002` (Error): a node (and its connected component) has no element
    /// path to ground — its potential is arbitrary.
    pub const GROUND_UNREACHABLE: &str = "L002";
    /// `L003` (Warning): a resistor/inductor endpoint touches nothing else,
    /// so no current can flow through the element — it is dead weight and
    /// usually a mis-wired net.
    pub const DANGLING_ELEMENT: &str = "L003";
    /// `L004` (Error): two or more voltage sources across the same node
    /// pair — contradictory (or numerically singular, even when the
    /// waveforms agree) branch constraints.
    pub const DUPLICATE_SHORT: &str = "L004";
    /// `L005` (Error): a mutual inductance references a missing inductor
    /// name, or couples an inductor to itself.
    pub const MUTUAL_MISSING_INDUCTOR: &str = "L005";
    /// `L006` (Warning): a topology with no sinks — nothing to measure.
    pub const NO_SINKS: &str = "L006";
    /// `L010` (Error): the DC MNA stamp is structurally singular — no
    /// permutation gives a zero-free diagonal, so every factorization hits
    /// an exactly zero pivot. The locus names the deficient row.
    pub const STRUCTURALLY_SINGULAR: &str = "L010";
    /// `L020` (Error): a non-passive element value (R/L/C not finite and
    /// positive).
    pub const NON_PASSIVE_ELEMENT: &str = "L020";
    /// `L021` (Error): a mutual inductance implying a coupling coefficient
    /// `k >= 1` — the inductance matrix loses positive definiteness.
    pub const OVERCOUPLED_MUTUAL: &str = "L021";
    /// `L022` (Warning): the companion-matrix conductance spread at the
    /// configured time step exceeds `1e12` — the transient factorization
    /// will be poorly conditioned at that step size.
    pub const CONDITIONING_SPREAD: &str = "L022";
    /// `L023` (Warning): a degenerate near-zero element value (below the
    /// physical floors `1e-6 Ω` / `1e-18 H` / `1e-21 F`), usually a unit
    /// mistake or a zero-length segment.
    pub const DEGENERATE_ELEMENT: &str = "L023";
    /// `L024` (Warning): a sink node is a terminal of a voltage source —
    /// its waveform is pinned by the source, so measuring there is
    /// meaningless.
    pub const SINK_SHADOWED: &str = "L024";
    /// `L030` (Info): the sparse transient kernel's pivot-health gate
    /// rejected the factorization and the run silently degraded to the
    /// dense factor-once kernel. Emitted by the facade, not the static
    /// pass.
    pub const SPARSE_DEGRADED: &str = "L030";
    /// `L040` (Error): a variation-spec scale field is not finite/positive
    /// (emitted by `rlc_spice::sweep::VariationSpec::diagnostics`).
    pub const VARIATION_FIELD: &str = "L040";
    /// `L041` (Error): a variation corner's scale factors pushed a compiled
    /// element table value non-passive (emitted per matrix group by
    /// `VariationSweep`).
    pub const VARIATION_NON_PASSIVE: &str = "L041";

    /// Every shipped code with its fixed severity label and one-line
    /// meaning, in code order — the source of truth for the README table
    /// and the service's code listing.
    pub const ALL: &[(&str, &str, &str)] = &[
        (FLOATING_NODE, "error", "node has no incident elements"),
        (GROUND_UNREACHABLE, "error", "no element path to ground"),
        (
            DANGLING_ELEMENT,
            "warning",
            "R/L endpoint touches nothing else",
        ),
        (
            DUPLICATE_SHORT,
            "error",
            "parallel voltage sources across one node pair",
        ),
        (
            MUTUAL_MISSING_INDUCTOR,
            "error",
            "mutual inductance references a missing/self inductor",
        ),
        (NO_SINKS, "warning", "topology has no sinks to measure"),
        (
            STRUCTURALLY_SINGULAR,
            "error",
            "DC MNA stamp is structurally singular",
        ),
        (
            NON_PASSIVE_ELEMENT,
            "error",
            "R/L/C value not finite and positive",
        ),
        (
            OVERCOUPLED_MUTUAL,
            "error",
            "mutual coupling coefficient k >= 1",
        ),
        (
            CONDITIONING_SPREAD,
            "warning",
            "companion conductance spread > 1e12 at the configured step",
        ),
        (
            DEGENERATE_ELEMENT,
            "warning",
            "element value below physical floor",
        ),
        (
            SINK_SHADOWED,
            "warning",
            "sink node pinned by a voltage source",
        ),
        (
            SPARSE_DEGRADED,
            "info",
            "sparse kernel degraded to dense factor-once",
        ),
        (
            VARIATION_FIELD,
            "error",
            "variation scale field not finite/positive",
        ),
        (
            VARIATION_NON_PASSIVE,
            "error",
            "variation corner pushed an element non-passive",
        ),
    ];
}

/// What an enforcement layer should do with lint findings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LintLevel {
    /// Do not run the lint pass at all.
    Off,
    /// Run the pass and attach findings to reports, but never reject work.
    Warn,
    /// Run the pass, attach findings, and reject work that carries any
    /// Error-severity finding (the default).
    #[default]
    Deny,
}

impl LintLevel {
    /// `true` when the pass should run at all.
    pub fn enabled(self) -> bool {
        self != LintLevel::Off
    }

    /// `true` when `diagnostics` should cause the work to be rejected under
    /// this level: only `Deny` rejects, and only on Error severity.
    pub fn rejects(self, diagnostics: &[Diagnostic]) -> bool {
        self == LintLevel::Deny && worst_severity(diagnostics) == Some(Severity::Error)
    }
}

/// Conductance-spread threshold for [`codes::CONDITIONING_SPREAD`].
pub const CONDITIONING_SPREAD_LIMIT: f64 = 1e12;

/// Physical floors for [`codes::DEGENERATE_ELEMENT`]: values strictly below
/// these are almost certainly unit mistakes or zero-length segments.
pub const MIN_RESISTANCE: f64 = 1e-6;
/// Inductance floor (henries); see [`MIN_RESISTANCE`].
pub const MIN_INDUCTANCE: f64 = 1e-18;
/// Capacitance floor (farads); see [`MIN_RESISTANCE`].
pub const MIN_CAPACITANCE: f64 = 1e-21;

/// Context for a lint run.
#[derive(Debug, Clone, Default)]
pub struct LintOptions {
    /// The transient step the circuit will be simulated with; enables the
    /// companion-conditioning check ([`codes::CONDITIONING_SPREAD`]).
    pub time_step: Option<f64>,
    /// Named measurement (sink) nodes; enables the shadowed-sink check
    /// ([`codes::SINK_SHADOWED`]).
    pub sinks: Vec<(String, NodeId)>,
}

impl LintOptions {
    /// Empty context: graph, structural and value checks only.
    pub fn new() -> Self {
        LintOptions::default()
    }

    /// Sets the intended transient time step (builder style).
    pub fn with_time_step(mut self, h: f64) -> Self {
        self.time_step = Some(h);
        self
    }

    /// Sets the measurement sinks (builder style).
    pub fn with_sinks(mut self, sinks: Vec<(String, NodeId)>) -> Self {
        self.sinks = sinks;
        self
    }
}

/// Runs the full static audit over a circuit. Findings come out in a
/// deterministic order (graph checks, then structural rank, then numeric
/// sanity), each with a stable code from [`codes`] and a node/element
/// locus. An empty result is a clean bill of health.
pub fn lint_circuit(circuit: &Circuit, options: &LintOptions) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let inductances = inductances_if_coupled(circuit);
    graph_checks(circuit, inductances.as_ref(), &mut out);
    let mutuals_ok = !out.iter().any(|d| d.code == codes::MUTUAL_MISSING_INDUCTOR);
    if mutuals_ok {
        // `MnaSystem::compile` resolves mutual references by name and
        // cannot proceed past a dangling one, so the structural pass only
        // runs once L005 is clean.
        structural_checks(circuit, &mut out);
    }
    numeric_checks(circuit, inductances.as_ref(), options, &mut out);
    out
}

/// Inductance by inductor name (a repeated name keeps its last value), for
/// the mutual-inductance checks L005 and L021. Built only when the circuit
/// has a mutual inductance, since nothing else looks inductors up by name.
fn inductances_if_coupled(circuit: &Circuit) -> Option<HashMap<&str, f64>> {
    let elements = circuit.elements();
    let coupled = elements
        .iter()
        .any(|e| matches!(e, Element::MutualInductance { .. }));
    coupled.then(|| {
        elements
            .iter()
            .filter_map(|e| match e {
                Element::Inductor { name, henries, .. } => Some((name.as_str(), *henries)),
                _ => None,
            })
            .collect()
    })
}

/// Disjoint sets of node indices (union by size, path halving): the graph
/// checks' connectivity in one pass over the elements.
struct UnionFind {
    parent: Vec<usize>,
    size: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
            size: vec![1; n],
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (a, b) = (self.find(a), self.find(b));
        if a == b {
            return;
        }
        let (big, small) = if self.size[a] >= self.size[b] {
            (a, b)
        } else {
            (b, a)
        };
        self.parent[small] = big;
        self.size[big] += self.size[small];
    }
}

/// Lints a net topology by synthesizing it into a circuit (the same
/// synthesis path the simulation backends use) and auditing that, plus
/// topology-level checks ([`codes::NO_SINKS`]). `time_step` feeds the
/// conditioning check; sink nodes are taken from the synthesis.
pub fn lint_topology(topology: &NetTopology, time_step: Option<f64>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if topology.num_sinks() == 0 {
        out.push(Diagnostic::warning(
            codes::NO_SINKS,
            "",
            "topology has no sinks: nothing to measure at the far end",
        ));
    }
    let mut ckt = Circuit::new();
    let mut sinks = Vec::new();
    match topology {
        NetTopology::Tree(tree) => {
            if tree.num_branches() == 0 {
                // An empty tree cannot be synthesized; the NO_SINKS warning
                // above already covers it.
                return out;
            }
            let near = ckt.node("near");
            for sink in tree.add_to_circuit(&mut ckt, near, 8, 0.0, "net") {
                sinks.push((sink.name, sink.node));
            }
        }
        NetTopology::CoupledBus(bus) => {
            let v_near = ckt.node("v_near");
            let a_near = ckt.node("a_near");
            let (v_far, a_far) = bus.add_to_circuit(&mut ckt, v_near, a_near, 8, 0.0, 0.0, "bus");
            sinks.push(("victim_far".to_string(), v_far));
            sinks.push(("aggressor_far".to_string(), a_far));
        }
    }
    let mut opts = LintOptions::new().with_sinks(sinks);
    opts.time_step = time_step;
    out.extend(lint_circuit(&ckt, &opts));
    out
}

/// Graph checks: L001–L005.
fn graph_checks(
    circuit: &Circuit,
    inductances: Option<&HashMap<&str, f64>>,
    out: &mut Vec<Diagnostic>,
) {
    let n = circuit.num_nodes();
    // One pass over the elements: per-node incident terminal count, and
    // connectivity over every element kind (a capacitor conducts — the
    // companion model does — and a MOSFET joins all three terminals).
    let mut degree = vec![0usize; n];
    let mut components = UnionFind::new(n);
    for e in circuit.elements() {
        let mut terminals = e.nodes();
        if let Some(first) = terminals.next() {
            degree[first.index()] += 1;
            for other in terminals {
                degree[other.index()] += 1;
                components.union(first.index(), other.index());
            }
        }
    }

    // L001: created-but-unused nodes.
    for (k, &deg) in degree.iter().enumerate().take(n).skip(1) {
        if deg == 0 {
            out.push(Diagnostic::error(
                codes::FLOATING_NODE,
                circuit.node_name(NodeId::from_index(k)),
                "node has no incident elements; only the gmin floor keeps its pivot nonzero",
            ));
        }
    }

    // L002: components (of nodes that *do* carry elements) disconnected
    // from ground.
    let ground = components.find(0);
    for (k, &deg) in degree.iter().enumerate().skip(1) {
        if deg > 0 && components.find(k) != ground {
            out.push(Diagnostic::error(
                codes::GROUND_UNREACHABLE,
                circuit.node_name(NodeId::from_index(k)),
                "no element path connects this node's component to ground",
            ));
        }
    }

    // L003: R/L endpoints of degree 1 (the element's own contribution) —
    // no closed loop, so no current can ever flow through the element.
    for e in circuit.elements() {
        if let Element::Resistor { name, a, b, .. } | Element::Inductor { name, a, b, .. } = e {
            for &end in &[*a, *b] {
                if !end.is_ground() && degree[end.index()] == 1 {
                    out.push(Diagnostic::warning(
                        codes::DANGLING_ELEMENT,
                        name.clone(),
                        format!(
                            "endpoint `{}` touches nothing else: no current can flow",
                            circuit.node_name(end)
                        ),
                    ));
                }
            }
        }
    }

    // L004: parallel voltage sources across one (unordered) node pair,
    // pairs in ascending order, names in element order (the sort is stable).
    let mut sources: Vec<((usize, usize), &str)> = circuit
        .elements()
        .iter()
        .filter_map(|e| match e {
            Element::VoltageSource { name, pos, neg, .. } => {
                let (p, q) = (pos.index(), neg.index());
                Some(((p.min(q), p.max(q)), name.as_str()))
            }
            _ => None,
        })
        .collect();
    sources.sort_by_key(|(pair, _)| *pair);
    for group in sources.chunk_by(|x, y| x.0 == y.0) {
        if group.len() < 2 {
            continue;
        }
        let (a, b) = group[0].0;
        let names: Vec<&str> = group.iter().map(|(_, name)| *name).collect();
        out.push(Diagnostic::error(
            codes::DUPLICATE_SHORT,
            names.join(", "),
            format!(
                "{} voltage sources in parallel between `{}` and `{}`: \
                 redundant branch constraints make the system singular",
                names.len(),
                circuit.node_name(NodeId::from_index(a)),
                circuit.node_name(NodeId::from_index(b)),
            ),
        ));
    }

    // L005: mutual inductances referencing missing (or self) inductors.
    let Some(inductances) = inductances else {
        return;
    };
    for e in circuit.elements() {
        if let Element::MutualInductance {
            name,
            inductor_a,
            inductor_b,
            ..
        } = e
        {
            for wanted in [inductor_a, inductor_b] {
                if !inductances.contains_key(wanted.as_str()) {
                    out.push(Diagnostic::error(
                        codes::MUTUAL_MISSING_INDUCTOR,
                        name.clone(),
                        format!("references inductor `{wanted}`, which does not exist"),
                    ));
                }
            }
            if inductor_a == inductor_b {
                out.push(Diagnostic::error(
                    codes::MUTUAL_MISSING_INDUCTOR,
                    name.clone(),
                    format!("couples inductor `{inductor_a}` to itself"),
                ));
            }
        }
    }
}

/// Structural-rank checks: L010.
fn structural_checks(circuit: &Circuit, out: &mut Vec<Diagnostic>) {
    // Pre-pass: a branch element (vsource/inductor) with both terminals on
    // one node stamps a branch row whose entries cancel to zero — the
    // sparsity pattern still shows a nonzero there, so the matching below
    // cannot see it. Catch it directly.
    let mut degenerate_branches: HashSet<&str> = HashSet::new();
    for e in circuit.elements() {
        if let Element::Inductor { name, a, b, .. }
        | Element::VoltageSource {
            name,
            pos: a,
            neg: b,
            ..
        } = e
        {
            if a == b {
                degenerate_branches.insert(name);
                out.push(Diagnostic::error(
                    codes::STRUCTURALLY_SINGULAR,
                    name.clone(),
                    format!(
                        "both terminals on `{}`: the branch constraint row is identically \
                         zero, so the DC system is singular",
                        circuit.node_name(*a)
                    ),
                ));
            }
        }
    }

    let system = MnaSystem::compile(circuit);
    let n = system.num_unknowns();
    if n == 0 {
        return;
    }
    let rank = structural_rank(n, &system.dc_stamp_pattern());
    for &row in &rank.unmatched_rows {
        let label = circuit.unknown_label(row);
        // Skip rows the degenerate-branch pre-pass already reported.
        if degenerate_branches
            .iter()
            .any(|name| label == format!("branch current of `{name}`"))
        {
            continue;
        }
        out.push(Diagnostic::error(
            codes::STRUCTURALLY_SINGULAR,
            label,
            format!(
                "MNA row unmatched in the maximum bipartite matching (structural rank {} of {}): \
                 every factorization of this system hits a zero pivot",
                rank.rank, rank.dim
            ),
        ));
    }
}

/// Numeric sanity checks: L020–L024.
fn numeric_checks(
    circuit: &Circuit,
    inductances: Option<&HashMap<&str, f64>>,
    options: &LintOptions,
    out: &mut Vec<Diagnostic>,
) {
    // Conductance scales present in the companion stamp, for L022.
    let mut spread = Spread::default();

    for (index, e) in circuit.elements().iter().enumerate() {
        match e {
            Element::Resistor { name, ohms, .. } => {
                if !(ohms.is_finite() && *ohms > 0.0) {
                    out.push(non_passive(name, "resistance", *ohms, "Ω"));
                } else {
                    if *ohms < MIN_RESISTANCE {
                        out.push(degenerate(name, "resistance", *ohms, MIN_RESISTANCE, "Ω"));
                    }
                    spread.push(1.0 / ohms, Some(index));
                }
            }
            Element::Capacitor { name, farads, .. } => {
                if !(farads.is_finite() && *farads > 0.0) {
                    out.push(non_passive(name, "capacitance", *farads, "F"));
                } else {
                    if *farads < MIN_CAPACITANCE {
                        out.push(degenerate(
                            name,
                            "capacitance",
                            *farads,
                            MIN_CAPACITANCE,
                            "F",
                        ));
                    }
                    if let Some(h) = options.time_step {
                        spread.push(farads / h, Some(index));
                    }
                }
            }
            Element::Inductor { name, henries, .. } => {
                if !(henries.is_finite() && *henries > 0.0) {
                    out.push(non_passive(name, "inductance", *henries, "H"));
                } else {
                    if *henries < MIN_INDUCTANCE {
                        out.push(degenerate(
                            name,
                            "inductance",
                            *henries,
                            MIN_INDUCTANCE,
                            "H",
                        ));
                    }
                    if let Some(h) = options.time_step {
                        spread.push(henries / h, Some(index));
                    }
                }
            }
            Element::MutualInductance {
                name,
                inductor_a,
                inductor_b,
                henries,
            } => {
                let Some(inductances) = inductances else {
                    continue;
                };
                let (la, lb) = (
                    inductances.get(inductor_a.as_str()).copied(),
                    inductances.get(inductor_b.as_str()).copied(),
                );
                if let (Some(la), Some(lb)) = (la, lb) {
                    if la > 0.0 && lb > 0.0 && inductor_a != inductor_b {
                        let k2 = henries * henries / (la * lb);
                        if !k2.is_finite() || k2 >= 1.0 {
                            out.push(Diagnostic::error(
                                codes::OVERCOUPLED_MUTUAL,
                                name.clone(),
                                format!(
                                    "coupling coefficient k = {:.4} >= 1 between `{inductor_a}` \
                                     and `{inductor_b}`: the inductance matrix is not positive \
                                     definite",
                                    k2.sqrt()
                                ),
                            ));
                        }
                    }
                }
            }
            _ => {}
        }
    }

    // L022: companion conductance spread at the configured step. Branch
    // voltage rows contribute unit entries, so anchor the spread at 1.
    if options.time_step.is_some() && spread.count > 1 {
        spread.push(1.0, None);
        let (min_g, min_at) = spread.min;
        let (max_g, max_at) = spread.max;
        if max_g / min_g > CONDITIONING_SPREAD_LIMIT {
            let (max_who, min_who) = (scale_source(circuit, max_at), scale_source(circuit, min_at));
            out.push(Diagnostic::warning(
                codes::CONDITIONING_SPREAD,
                "",
                format!(
                    "companion conductance spread {:.1e} at the configured step ({max_who} = \
                     {max_g:.3e} S vs {min_who} = {min_g:.3e} S): the transient factorization \
                     will be poorly conditioned; adjust the time step or element values",
                    max_g / min_g
                ),
            ));
        }
    }

    // L024: sinks pinned by voltage sources.
    for (sink_name, sink_node) in &options.sinks {
        for e in circuit.elements() {
            if let Element::VoltageSource { name, pos, neg, .. } = e {
                if pos == sink_node || neg == sink_node {
                    out.push(Diagnostic::warning(
                        codes::SINK_SHADOWED,
                        sink_name.clone(),
                        format!(
                            "sink node `{}` is a terminal of voltage source `{name}`: its \
                             waveform is pinned by the source, not the net",
                            circuit.node_name(*sink_node)
                        ),
                    ));
                }
            }
        }
    }
}

/// The extremes of the companion conductance scales (L022), each with its
/// source: an element index, or `None` for the unit branch entries. Ties
/// keep the first minimum and the last maximum (the rules of
/// `Iterator::min_by` and `max_by`); on a uniform ladder, where every
/// segment ties, that rule decides which elements the finding names.
#[derive(Default)]
struct Spread {
    count: usize,
    min: (f64, Option<usize>),
    max: (f64, Option<usize>),
}

impl Spread {
    fn push(&mut self, g: f64, at: Option<usize>) {
        if self.count == 0 || g.total_cmp(&self.min.0) == Ordering::Less {
            self.min = (g, at);
        }
        if self.count == 0 || g.total_cmp(&self.max.0) != Ordering::Less {
            self.max = (g, at);
        }
        self.count += 1;
    }
}

/// Names an L022 scale source the way the finding reports it.
fn scale_source(circuit: &Circuit, at: Option<usize>) -> String {
    match at.map(|index| &circuit.elements()[index]) {
        Some(Element::Resistor { name, .. }) => format!("1/R of `{name}`"),
        Some(Element::Capacitor { name, .. }) => format!("C/h of `{name}`"),
        Some(Element::Inductor { name, .. }) => format!("L/h of `{name}`"),
        _ => "branch constraint unit entries".to_string(),
    }
}

fn non_passive(name: &str, kind: &str, value: f64, unit: &str) -> Diagnostic {
    Diagnostic::error(
        codes::NON_PASSIVE_ELEMENT,
        name,
        format!("{kind} must be finite and positive, got {value:e} {unit}"),
    )
}

fn degenerate(name: &str, kind: &str, value: f64, floor: f64, unit: &str) -> Diagnostic {
    Diagnostic::warning(
        codes::DEGENERATE_ELEMENT,
        name,
        format!(
            "{kind} {value:e} {unit} is below the physical floor {floor:e} {unit}: \
             likely a unit mistake or a zero-length segment"
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlc_spice::SourceWaveform;

    #[test]
    fn clean_rc_stage_lints_clean() {
        let mut ckt = Circuit::new();
        let near = ckt.node("near");
        let far = ckt.node("far");
        ckt.add_vsource("V1", near, Circuit::GROUND, SourceWaveform::dc(1.0));
        ckt.add_resistor("R1", near, far, 100.0);
        ckt.add_capacitor("C1", far, Circuit::GROUND, 1e-13);
        let opts = LintOptions::new()
            .with_time_step(1e-12)
            .with_sinks(vec![("far".to_string(), far)]);
        assert!(lint_circuit(&ckt, &opts).is_empty());
    }

    #[test]
    fn lint_level_rejects_only_errors_under_deny() {
        let warn_only = vec![Diagnostic::warning(codes::DANGLING_ELEMENT, "R1", "x")];
        let with_error = vec![Diagnostic::error(codes::FLOATING_NODE, "n", "y")];
        assert!(!LintLevel::Deny.rejects(&warn_only));
        assert!(LintLevel::Deny.rejects(&with_error));
        assert!(!LintLevel::Warn.rejects(&with_error));
        assert!(!LintLevel::Off.enabled());
    }

    #[test]
    fn codes_table_is_consistent() {
        let codes: Vec<&str> = codes::ALL.iter().map(|(c, _, _)| *c).collect();
        let mut sorted = codes.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), codes.len(), "duplicate lint codes");
        assert!(codes.len() >= 10);
    }
}
