//! The [`LoadModel`] extension trait and the built-in load models.
//!
//! A load model answers two questions for the engine:
//!
//! 1. *What does the driver see analytically?* — [`LoadModel::reduce`]
//!    produces the [`ReducedLoad`] (rational admittance + optional wave
//!    parameters) the paper's charge-matching flow runs against.
//! 2. *What is the physical netlist?* — [`LoadModel::attach`] appends the
//!    load to a simulator circuit so the SPICE backend can run the golden
//!    testbench against exactly the same load.
//!
//! Five physical loads ship with the facade — [`LumpedCapLoad`],
//! [`PiModelLoad`], [`DistributedRlcLoad`], the multi-sink [`RlcTreeLoad`]
//! and the crosstalk [`CoupledBusLoad`] — plus [`MomentsLoad`] for loads
//! known only through extracted admittance moments. Downstream users
//! implement the trait for anything else.
//!
//! Loads with more than one observation point (tree sinks, the aggressor far
//! end of a bus) also implement [`LoadModel::attach_net`], which returns an
//! [`AttachedNet`] naming every sink node.

use std::sync::Arc;

use crate::error::EngineError;
use crate::stage::{AggressorSpec, AggressorSwitching};
use crate::variation::VariationSpec;
use rlc_ceff::flow::{ReducedLoad, WaveParameters};
use rlc_interconnect::{CoupledBus, RlcLine, RlcTree};
use rlc_lint::{codes, Diagnostic};
use rlc_moments::{tree_admittance_moments, PiModel, RationalAdmittance};
use rlc_numeric::codec::{fnv1a, Encoder};
use rlc_spice::circuit::{Circuit, NodeId};
use rlc_spice::SourceWaveform;

/// An abstract load seen by a driver: anything that can be reduced to a
/// rational driving-point admittance and (optionally) realized as a netlist.
///
/// The trait is object-safe; stages store loads as `Arc<dyn LoadModel>`.
pub trait LoadModel: std::fmt::Debug + Send + Sync {
    /// Reduces the load for the analytic flow.
    ///
    /// # Errors
    /// Returns a load error when no usable admittance exists (for example
    /// degenerate moments).
    fn reduce(&self) -> Result<ReducedLoad, EngineError>;

    /// Total capacitance of the load (used for driver on-resistance
    /// extraction and simulation-window estimates).
    fn total_capacitance(&self) -> f64;

    /// Wave parameters when the load contains a transmission line.
    fn wave(&self) -> Option<WaveParameters> {
        None
    }

    /// A conservative estimate of how much simulation time the load needs
    /// *beyond* the driver transition and the configured settle time: wave
    /// round trips, multi-branch flight times, late aggressor events.
    /// Defaults to four times the wave parameters' time of flight; loads
    /// whose propagation is not captured by a single line (trees, buses)
    /// override it.
    fn settle_horizon(&self) -> f64 {
        self.wave().map(|w| 4.0 * w.time_of_flight).unwrap_or(0.0)
    }

    /// Appends the load's netlist to `ckt` at the driving-point node `near`,
    /// returning the node the far-end response should be measured at.
    /// `segments` controls discretization for distributed loads and
    /// `v_initial` the initial condition of created nodes.
    ///
    /// # Errors
    /// Returns [`EngineError::Unsupported`] for loads with no physical
    /// realization.
    fn attach(
        &self,
        ckt: &mut Circuit,
        near: NodeId,
        v_initial: f64,
        segments: usize,
    ) -> Result<NodeId, EngineError>;

    /// Appends the load's netlist like [`LoadModel::attach`], additionally
    /// reporting **every** named sink node. The default implementation wraps
    /// [`LoadModel::attach`] as a single sink named `"far"`; multi-sink loads
    /// (trees, buses) override it.
    ///
    /// # Errors
    /// Returns [`EngineError::Unsupported`] for loads with no physical
    /// realization.
    fn attach_net(
        &self,
        ckt: &mut Circuit,
        near: NodeId,
        v_initial: f64,
        segments: usize,
    ) -> Result<AttachedNet, EngineError> {
        let primary = self.attach(ckt, near, v_initial, segments)?;
        Ok(AttachedNet {
            primary,
            sinks: vec![("far".to_string(), primary)],
        })
    }

    /// The sink names [`LoadModel::attach_net`] would expose, **without**
    /// building the netlist. Sessions use this to validate
    /// [`crate::InputSource::FromSink`] references at submit time. The
    /// default matches the default `attach_net` (one sink named `"far"`);
    /// loads with no physical realization return an empty list.
    fn sink_names(&self) -> Vec<String> {
        vec!["far".to_string()]
    }

    /// A copy of this load with its aggressor drive replaced, for loads that
    /// model one (a coupled bus). Returns `None` for loads without an
    /// aggressor — [`crate::StageBuilder::aggressor`] turns that into a
    /// typed validation error instead of a backend panic.
    fn with_aggressor(&self, _spec: AggressorSpec) -> Option<Arc<dyn LoadModel>> {
        None
    }

    /// A copy of this load with every element value rescaled per the
    /// variation spec: resistances by the temperature-adjusted resistance
    /// scale ([`VariationSpec::effective_r_scale`]), inductances (self and
    /// mutual) by the inductance scale, and capacitances (shunt, coupling,
    /// far-end loads) by the capacitance scale. This is the seam
    /// [`crate::TimingEngine::analyze_distribution`] revalues each variation
    /// sample through.
    ///
    /// Returns `Ok(None)` for loads that cannot be revalued — a
    /// moment-space load, whose moments mix powers of R and C that one pair
    /// of scale factors cannot untangle — which distribution analysis turns
    /// into a typed [`EngineError::Unsupported`] instead of silently reusing
    /// the nominal values.
    ///
    /// # Errors
    /// The built-in loads return [`EngineError::Lint`] with one `L041`
    /// diagnostic when the corner pushes an element value non-passive (a
    /// scale that underflows a capacitance to zero or into the subnormal
    /// range, say, although the spec itself is valid). The error's label is
    /// empty: distribution analysis fills in the sample stage's label.
    fn scaled(&self, _spec: &VariationSpec) -> Result<Option<Arc<dyn LoadModel>>, EngineError> {
        Ok(None)
    }

    /// The load's interconnect topology as an [`RlcTree`], when it has one.
    /// This is what moment-space reduced-order backends
    /// ([`crate::ReducedOrderBackend`]) consume to build sink transfer
    /// functions; loads with no tree realization (lumped caps, pi models,
    /// coupled buses, moment-space loads) return `None` and such backends
    /// fall back to simulation.
    fn tree_topology(&self) -> Option<RlcTree> {
        None
    }

    /// A stable content fingerprint of the load — a hash over a type tag
    /// plus every element value — used to key the persistent stage-result
    /// cache ([`crate::StageResultCache`]). Two loads with the same
    /// fingerprint must be electrically identical.
    ///
    /// Returns `None` (the default) when the load has no faithful
    /// fingerprint; stages driving such loads are never cached and always
    /// re-simulate, which degrades performance but never correctness.
    /// Downstream implementations may hash their parameters with any stable
    /// scheme — the value is opaque to the engine.
    fn cache_fingerprint(&self) -> Option<u64> {
        None
    }

    /// One-line human-readable description.
    fn describe(&self) -> String;
}

/// Fingerprints one line's four element values into `e` for
/// [`LoadModel::cache_fingerprint`].
fn fingerprint_line(e: &mut Encoder, line: &RlcLine) {
    e.f64(line.resistance());
    e.f64(line.inductance());
    e.f64(line.capacitance());
    e.f64(line.length());
}

/// What an element value revalued by a variation corner must satisfy: the
/// assertion of the constructor it is about to reach.
#[derive(Debug, Clone, Copy)]
enum Rule {
    /// Resistances, inductances and shunt capacitances: finite, positive
    /// and not subnormal. A netlist splits a line's totals into per-segment
    /// values, and a subnormal total can round to a zero segment value that
    /// the element constructors reject.
    Positive,
    /// Coupling and far-end load capacitances: finite and non-negative.
    NonNegative,
    /// A mutual inductance: finite, and its square below the product of the
    /// two self inductances ([`CoupledBus::new`]'s check; a square that
    /// overflows fails it).
    MutualBelow(f64),
}

/// Returns `value`, an element value revalued by a variation corner, once it
/// passes `rule`; otherwise [`EngineError::Lint`] with one `L041` diagnostic
/// at `locus`. Every built-in [`LoadModel::scaled`] runs its values through
/// this before constructing anything, so a corner that validates as a spec
/// but underflows or overflows an element ends as a typed error instead of
/// a constructor panic on the caller's thread.
fn revalued(locus: &str, element: &str, value: f64, rule: Rule) -> Result<f64, EngineError> {
    let passive = match rule {
        Rule::Positive => value.is_normal() && value > 0.0,
        Rule::NonNegative => value.is_finite() && value >= 0.0,
        Rule::MutualBelow(product) => value.is_finite() && value * value < product,
    };
    if passive {
        return Ok(value);
    }
    Err(EngineError::Lint {
        label: String::new(),
        diagnostics: vec![Diagnostic::error(
            codes::VARIATION_NON_PASSIVE,
            locus,
            format!("variation corner pushed the {element} non-passive: {value:e}"),
        )],
    })
}

/// `line` with its total parasitics rescaled per `spec` (geometry is
/// untouched: variation perturbs extracted values, not layout).
fn scale_line(line: &RlcLine, spec: &VariationSpec, locus: &str) -> Result<RlcLine, EngineError> {
    let positive = |element: &str, value: f64| revalued(locus, element, value, Rule::Positive);
    Ok(RlcLine::new(
        positive("resistance", line.resistance() * spec.effective_r_scale())?,
        positive("inductance", line.inductance() * spec.l_scale)?,
        positive("capacitance", line.capacitance() * spec.c_scale)?,
        line.length(),
    ))
}

/// The measurement points a load's netlist exposes after
/// [`LoadModel::attach_net`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttachedNet {
    /// The primary far-end node (what [`LoadModel::attach`] returns).
    pub primary: NodeId,
    /// Every named sink with its circuit node, in declaration order.
    pub sinks: Vec<(String, NodeId)>,
}

/// A lumped capacitive load `Y(s) = C s` — the classic NLDM table load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LumpedCapLoad {
    c: f64,
}

impl LumpedCapLoad {
    /// Creates a lumped capacitor load.
    ///
    /// # Errors
    /// Returns [`EngineError::InvalidStage`] unless `c` is positive and
    /// finite.
    pub fn new(c: f64) -> Result<Self, EngineError> {
        if !(c > 0.0 && c.is_finite()) {
            return Err(EngineError::invalid(format!(
                "lumped load capacitance must be positive and finite, got {c:e}"
            )));
        }
        Ok(LumpedCapLoad { c })
    }

    /// The capacitance (farads).
    pub fn capacitance(&self) -> f64 {
        self.c
    }
}

impl LoadModel for LumpedCapLoad {
    fn reduce(&self) -> Result<ReducedLoad, EngineError> {
        ReducedLoad::lumped(self.c).map_err(EngineError::from)
    }

    fn total_capacitance(&self) -> f64 {
        self.c
    }

    fn attach(
        &self,
        ckt: &mut Circuit,
        near: NodeId,
        _v_initial: f64,
        _segments: usize,
    ) -> Result<NodeId, EngineError> {
        ckt.add_capacitor("CLOAD", near, Circuit::GROUND, self.c);
        Ok(near)
    }

    fn scaled(&self, spec: &VariationSpec) -> Result<Option<Arc<dyn LoadModel>>, EngineError> {
        let c = revalued(
            "lumped load",
            "capacitance",
            self.c * spec.c_scale,
            Rule::Positive,
        )?;
        Ok(Some(Arc::new(LumpedCapLoad { c })))
    }

    fn cache_fingerprint(&self) -> Option<u64> {
        let mut e = Encoder::new();
        e.u8(1);
        e.f64(self.c);
        Some(fnv1a(&e.finish()))
    }

    fn describe(&self) -> String {
        format!("lumped C = {:.1} fF", self.c * 1e15)
    }
}

/// An O'Brien–Savarino RC pi load: `c_near` at the driving point, series
/// resistance, `c_far` behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PiModelLoad {
    pi: PiModel,
}

impl PiModelLoad {
    /// Wraps an already synthesized pi model.
    ///
    /// # Errors
    /// Returns [`EngineError::InvalidStage`] for non-physical element values.
    pub fn new(pi: PiModel) -> Result<Self, EngineError> {
        let physical = pi.c_near >= 0.0
            && pi.c_far > 0.0
            && pi.resistance > 0.0
            && [pi.c_near, pi.c_far, pi.resistance]
                .iter()
                .all(|v| v.is_finite());
        if !physical {
            return Err(EngineError::invalid(format!(
                "pi model elements must be physical (c_near = {:.3e}, R = {:.3e}, c_far = {:.3e})",
                pi.c_near, pi.resistance, pi.c_far
            )));
        }
        Ok(PiModelLoad { pi })
    }

    /// Synthesizes the pi load from the first three admittance moments.
    ///
    /// # Errors
    /// Returns a load error when the moments are not RC-realizable (which is
    /// exactly what happens for inductance-dominated nets — use
    /// [`DistributedRlcLoad`] there).
    pub fn from_moments(moments: &[f64]) -> Result<Self, EngineError> {
        Ok(PiModelLoad {
            pi: PiModel::from_moments(moments)?,
        })
    }

    /// The underlying pi model.
    pub fn pi(&self) -> &PiModel {
        &self.pi
    }
}

impl LoadModel for PiModelLoad {
    fn reduce(&self) -> Result<ReducedLoad, EngineError> {
        Ok(ReducedLoad {
            fit: self.pi.admittance(),
            external_load: self.pi.total_capacitance(),
            wave: None,
        })
    }

    fn total_capacitance(&self) -> f64 {
        self.pi.total_capacitance()
    }

    fn attach(
        &self,
        ckt: &mut Circuit,
        near: NodeId,
        v_initial: f64,
        _segments: usize,
    ) -> Result<NodeId, EngineError> {
        if self.pi.c_near > 0.0 {
            ckt.add_capacitor("CNEAR", near, Circuit::GROUND, self.pi.c_near);
        }
        let far = ckt.node("pi_far");
        ckt.add_resistor("RPI", near, far, self.pi.resistance.max(1e-6));
        ckt.add_capacitor("CFAR", far, Circuit::GROUND, self.pi.c_far);
        ckt.set_initial_condition(far, v_initial);
        Ok(far)
    }

    fn scaled(&self, spec: &VariationSpec) -> Result<Option<Arc<dyn LoadModel>>, EngineError> {
        let value = |element: &str, v: f64, rule| revalued("pi load", element, v, rule);
        let (r, c) = (spec.effective_r_scale(), spec.c_scale);
        let pi = PiModel {
            c_near: value("near capacitance", self.pi.c_near * c, Rule::NonNegative)?,
            resistance: value("resistance", self.pi.resistance * r, Rule::Positive)?,
            c_far: value("far capacitance", self.pi.c_far * c, Rule::Positive)?,
        };
        Ok(Some(Arc::new(PiModelLoad { pi })))
    }

    fn cache_fingerprint(&self) -> Option<u64> {
        let mut e = Encoder::new();
        e.u8(2);
        e.f64(self.pi.c_near);
        e.f64(self.pi.resistance);
        e.f64(self.pi.c_far);
        Some(fnv1a(&e.finish()))
    }

    fn describe(&self) -> String {
        format!(
            "pi load: Cn = {:.1} fF, R = {:.1} ohm, Cf = {:.1} fF",
            self.pi.c_near * 1e15,
            self.pi.resistance,
            self.pi.c_far * 1e15
        )
    }
}

/// The paper's load: a distributed RLC line terminated by a fan-out
/// capacitance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistributedRlcLoad {
    line: RlcLine,
    c_load: f64,
}

impl DistributedRlcLoad {
    /// Creates the load from an extracted line and the far-end capacitance.
    ///
    /// # Errors
    /// Returns [`EngineError::InvalidStage`] if `c_load` is negative or
    /// non-finite.
    pub fn new(line: RlcLine, c_load: f64) -> Result<Self, EngineError> {
        if !(c_load >= 0.0 && c_load.is_finite()) {
            return Err(EngineError::invalid(format!(
                "far-end load capacitance must be non-negative and finite, got {c_load:e}"
            )));
        }
        Ok(DistributedRlcLoad { line, c_load })
    }

    /// The line.
    pub fn line(&self) -> &RlcLine {
        &self.line
    }

    /// The fan-out capacitance at the far end (farads).
    pub fn fanout_capacitance(&self) -> f64 {
        self.c_load
    }
}

impl LoadModel for DistributedRlcLoad {
    fn reduce(&self) -> Result<ReducedLoad, EngineError> {
        ReducedLoad::from_line(&self.line, self.c_load).map_err(EngineError::from)
    }

    fn total_capacitance(&self) -> f64 {
        self.line.capacitance() + self.c_load
    }

    fn wave(&self) -> Option<WaveParameters> {
        Some(WaveParameters::of_line(&self.line))
    }

    fn attach(
        &self,
        ckt: &mut Circuit,
        near: NodeId,
        v_initial: f64,
        segments: usize,
    ) -> Result<NodeId, EngineError> {
        // The single-line type is a thin wrapper over the one-branch tree;
        // the topology synthesizer is the only ladder-construction path.
        Ok(self
            .line
            .add_to_circuit(ckt, near, segments, self.c_load, v_initial, "line"))
    }

    fn tree_topology(&self) -> Option<RlcTree> {
        Some(RlcTree::single_line(self.line, self.c_load))
    }

    fn scaled(&self, spec: &VariationSpec) -> Result<Option<Arc<dyn LoadModel>>, EngineError> {
        Ok(Some(Arc::new(DistributedRlcLoad {
            line: scale_line(&self.line, spec, "line")?,
            c_load: revalued(
                "line",
                "far-end load capacitance",
                self.c_load * spec.c_scale,
                Rule::NonNegative,
            )?,
        })))
    }

    fn cache_fingerprint(&self) -> Option<u64> {
        let mut e = Encoder::new();
        e.u8(3);
        fingerprint_line(&mut e, &self.line);
        e.f64(self.c_load);
        Some(fnv1a(&e.finish()))
    }

    fn describe(&self) -> String {
        format!(
            "RLC line ({}) + CL = {:.1} fF",
            self.line,
            self.c_load * 1e15
        )
    }
}

/// A multi-sink RLC tree load: the [`RlcTree`] IR behind the [`LoadModel`]
/// seam.
///
/// The analytic reduction computes the tree's driving-point admittance
/// moments by the bottom-up traversal
/// ([`rlc_moments::tree_admittance_moments`]) and fits the paper's rational
/// admittance to them. A one-branch tree reduces *identically* to
/// [`DistributedRlcLoad`] (wave parameters included, so the two-ramp model
/// still applies); branching trees carry no single characteristic impedance
/// and run the classic single-ramp flow against the fitted admittance, while
/// simulation backends and [`crate::StageReport::far_end_sinks`] see the full
/// per-sink netlist.
#[derive(Debug, Clone, PartialEq)]
pub struct RlcTreeLoad {
    tree: RlcTree,
}

impl RlcTreeLoad {
    /// Wraps a tree, validating that it has at least one branch and one
    /// named sink.
    ///
    /// # Errors
    /// Returns [`EngineError::InvalidStage`] for empty or sinkless trees.
    pub fn new(tree: RlcTree) -> Result<Self, EngineError> {
        if tree.num_branches() == 0 {
            return Err(EngineError::invalid(
                "a tree load needs at least one branch",
            ));
        }
        if tree.num_sinks() == 0 {
            return Err(EngineError::invalid(
                "a tree load needs at least one named sink",
            ));
        }
        Ok(RlcTreeLoad { tree })
    }

    /// The underlying tree.
    pub fn tree(&self) -> &RlcTree {
        &self.tree
    }
}

impl LoadModel for RlcTreeLoad {
    fn reduce(&self) -> Result<ReducedLoad, EngineError> {
        let moments = tree_admittance_moments(&self.tree, 5);
        let fit = RationalAdmittance::from_moments(&moments)?;
        let (external_load, wave) = match self.tree.as_single_line() {
            Some((line, c_load)) => (c_load, Some(WaveParameters::of_line(line))),
            None => (self.tree.sink_capacitance(), None),
        };
        Ok(ReducedLoad {
            fit,
            external_load,
            wave,
        })
    }

    fn total_capacitance(&self) -> f64 {
        self.tree.total_capacitance()
    }

    fn wave(&self) -> Option<WaveParameters> {
        self.tree
            .as_single_line()
            .map(|(line, _)| WaveParameters::of_line(line))
    }

    fn settle_horizon(&self) -> f64 {
        4.0 * self.tree.total_time_of_flight()
    }

    fn attach(
        &self,
        ckt: &mut Circuit,
        near: NodeId,
        v_initial: f64,
        segments: usize,
    ) -> Result<NodeId, EngineError> {
        Ok(self.attach_net(ckt, near, v_initial, segments)?.primary)
    }

    fn attach_net(
        &self,
        ckt: &mut Circuit,
        near: NodeId,
        v_initial: f64,
        segments: usize,
    ) -> Result<AttachedNet, EngineError> {
        let sinks: Vec<(String, NodeId)> = self
            .tree
            .add_to_circuit(ckt, near, segments, v_initial, "net")
            .into_iter()
            .map(|s| (s.name, s.node))
            .collect();
        let primary = sinks
            .first()
            .expect("construction guarantees at least one sink")
            .1;
        Ok(AttachedNet { primary, sinks })
    }

    fn sink_names(&self) -> Vec<String> {
        self.tree
            .sinks()
            .map(|(_, sink)| sink.name.clone())
            .collect()
    }

    fn tree_topology(&self) -> Option<RlcTree> {
        Some(self.tree.clone())
    }

    fn scaled(&self, spec: &VariationSpec) -> Result<Option<Arc<dyn LoadModel>>, EngineError> {
        // Rebuild in branch order: `add_branch` appends, so the i-th old
        // branch maps onto the i-th new id and parent links carry over.
        let mut tree = RlcTree::new();
        let mut ids = Vec::with_capacity(self.tree.num_branches());
        for (id, branch) in self.tree.branches() {
            let parent = branch.parent().map(|p| ids[p.index()]);
            let line = scale_line(branch.line(), spec, &format!("branch {}", id.index()))?;
            ids.push(tree.add_branch(parent, line));
        }
        for (id, sink) in self.tree.sinks() {
            let c_load = revalued(
                &sink.name,
                "sink load capacitance",
                sink.c_load * spec.c_scale,
                Rule::NonNegative,
            )?;
            tree.set_sink(ids[id.index()], &sink.name, c_load);
        }
        Ok(Some(Arc::new(RlcTreeLoad { tree })))
    }

    fn cache_fingerprint(&self) -> Option<u64> {
        let mut e = Encoder::new();
        e.u8(4);
        e.u64(self.tree.num_branches() as u64);
        for (_, branch) in self.tree.branches() {
            match branch.parent() {
                None => e.u64(u64::MAX),
                Some(p) => e.u64(p.index() as u64),
            }
            fingerprint_line(&mut e, branch.line());
        }
        e.u64(self.tree.num_sinks() as u64);
        for (id, sink) in self.tree.sinks() {
            e.u64(id.index() as u64);
            e.str(&sink.name);
            e.f64(sink.c_load);
        }
        Some(fnv1a(&e.finish()))
    }

    fn describe(&self) -> String {
        format!(
            "RLC tree: {} branches, {} sinks, Ctotal = {:.1} fF",
            self.tree.num_branches(),
            self.tree.num_sinks(),
            self.tree.total_capacitance() * 1e15
        )
    }
}

/// A victim/aggressor coupled-bus load: the crosstalk scenario behind the
/// [`LoadModel`] seam.
///
/// The **victim** line is driven by the stage's driver; the **aggressor** is
/// driven by an ideal ramp described by the [`AggressorSpec`] (direction,
/// slew, delay, amplitude), which the load itself wires into the netlist at
/// attach time. For the analytic flow the bus reduces to the victim line
/// with the coupling capacitance folded in at the scenario's Miller factor
/// (quiet ×1, same-direction ×0, opposite ×2) — the classic decoupled
/// approximation — while simulation backends solve the fully coupled system
/// (coupling caps plus per-segment mutual inductances).
#[derive(Debug, Clone, PartialEq)]
pub struct CoupledBusLoad {
    bus: CoupledBus,
    aggressor: AggressorSpec,
}

impl CoupledBusLoad {
    /// Creates the load from the bus geometry and the aggressor's drive.
    ///
    /// # Errors
    /// Returns [`EngineError::InvalidStage`] when the aggressor description
    /// is invalid ([`AggressorSpec::new`] already validates fresh specs).
    pub fn new(bus: CoupledBus, aggressor: AggressorSpec) -> Result<Self, EngineError> {
        // Re-validate so a hand-rolled struct literal cannot smuggle NaNs in.
        let aggressor = AggressorSpec::new(
            aggressor.switching,
            aggressor.slew,
            aggressor.delay,
            aggressor.amplitude,
        )?;
        Ok(CoupledBusLoad { bus, aggressor })
    }

    /// The bus geometry.
    pub fn bus(&self) -> &CoupledBus {
        &self.bus
    }

    /// The aggressor drive description.
    pub fn aggressor(&self) -> &AggressorSpec {
        &self.aggressor
    }

    /// The victim line with the Miller-scaled coupling capacitance folded
    /// into its shunt capacitance — what the analytic single-line flow sees.
    pub fn effective_victim_line(&self) -> RlcLine {
        let victim = self.bus.victim();
        RlcLine::new(
            victim.resistance(),
            victim.inductance(),
            victim.capacitance()
                + self.aggressor.switching.miller_factor() * self.bus.coupling_capacitance(),
            victim.length(),
        )
    }

    /// The aggressor's source waveform and initial level for the victim's
    /// rising transition.
    fn aggressor_drive(&self) -> (SourceWaveform, f64) {
        let a = &self.aggressor;
        match a.switching {
            AggressorSwitching::Quiet => (SourceWaveform::dc(0.0), 0.0),
            AggressorSwitching::SameDirection => (
                SourceWaveform::rising_ramp(a.amplitude, a.delay, a.slew),
                0.0,
            ),
            AggressorSwitching::OppositeDirection => (
                SourceWaveform::falling_ramp(a.amplitude, a.delay, a.slew),
                a.amplitude,
            ),
        }
    }
}

impl LoadModel for CoupledBusLoad {
    fn reduce(&self) -> Result<ReducedLoad, EngineError> {
        ReducedLoad::from_line(&self.effective_victim_line(), self.bus.victim_load())
            .map_err(EngineError::from)
    }

    fn total_capacitance(&self) -> f64 {
        self.effective_victim_line().capacitance() + self.bus.victim_load()
    }

    fn wave(&self) -> Option<WaveParameters> {
        Some(WaveParameters::of_line(&self.effective_victim_line()))
    }

    fn settle_horizon(&self) -> f64 {
        // Both wires must settle, and the aggressor event itself may end
        // after the victim transition — cover it in full.
        let tof = self
            .effective_victim_line()
            .time_of_flight()
            .max(self.bus.aggressor().time_of_flight());
        4.0 * tof + self.aggressor.delay + self.aggressor.slew
    }

    fn attach(
        &self,
        ckt: &mut Circuit,
        near: NodeId,
        v_initial: f64,
        segments: usize,
    ) -> Result<NodeId, EngineError> {
        Ok(self.attach_net(ckt, near, v_initial, segments)?.primary)
    }

    fn attach_net(
        &self,
        ckt: &mut Circuit,
        near: NodeId,
        v_initial: f64,
        segments: usize,
    ) -> Result<AttachedNet, EngineError> {
        let (waveform, v_aggressor) = self.aggressor_drive();
        let aggressor_near = ckt.node("agg_in");
        ckt.add_vsource("VAGG", aggressor_near, Circuit::GROUND, waveform);
        ckt.set_initial_condition(aggressor_near, v_aggressor);
        let (victim_far, aggressor_far) = self.bus.add_to_circuit(
            ckt,
            near,
            aggressor_near,
            segments,
            v_initial,
            v_aggressor,
            "bus",
        );
        Ok(AttachedNet {
            primary: victim_far,
            sinks: vec![
                ("victim".to_string(), victim_far),
                ("aggressor".to_string(), aggressor_far),
            ],
        })
    }

    fn sink_names(&self) -> Vec<String> {
        vec!["victim".to_string(), "aggressor".to_string()]
    }

    fn with_aggressor(&self, spec: AggressorSpec) -> Option<Arc<dyn LoadModel>> {
        Some(Arc::new(CoupledBusLoad {
            bus: self.bus,
            aggressor: spec,
        }))
    }

    fn scaled(&self, spec: &VariationSpec) -> Result<Option<Arc<dyn LoadModel>>, EngineError> {
        let victim = scale_line(self.bus.victim(), spec, "bus victim")?;
        let aggressor = scale_line(self.bus.aggressor(), spec, "bus aggressor")?;
        let capacitance =
            |element: &str, c: f64| revalued("bus", element, c * spec.c_scale, Rule::NonNegative);
        let mutual = revalued(
            "bus",
            "mutual inductance",
            self.bus.mutual_inductance() * spec.l_scale,
            Rule::MutualBelow(victim.inductance() * aggressor.inductance()),
        )?;
        let bus = CoupledBus::new(
            victim,
            aggressor,
            capacitance("coupling capacitance", self.bus.coupling_capacitance())?,
            mutual,
            capacitance("victim load capacitance", self.bus.victim_load())?,
            capacitance("aggressor load capacitance", self.bus.aggressor_load())?,
        );
        // The aggressor rail tracks the victim supply, so its swing scales
        // with the same source factor.
        Ok(Some(Arc::new(CoupledBusLoad {
            bus,
            aggressor: AggressorSpec {
                amplitude: self.aggressor.amplitude * spec.source_scale,
                ..self.aggressor
            },
        })))
    }

    fn cache_fingerprint(&self) -> Option<u64> {
        let mut e = Encoder::new();
        e.u8(5);
        fingerprint_line(&mut e, self.bus.victim());
        fingerprint_line(&mut e, self.bus.aggressor());
        e.f64(self.bus.coupling_capacitance());
        e.f64(self.bus.mutual_inductance());
        e.f64(self.bus.victim_load());
        e.f64(self.bus.aggressor_load());
        e.u8(match self.aggressor.switching {
            AggressorSwitching::Quiet => 0,
            AggressorSwitching::SameDirection => 1,
            AggressorSwitching::OppositeDirection => 2,
        });
        e.f64(self.aggressor.slew);
        e.f64(self.aggressor.delay);
        e.f64(self.aggressor.amplitude);
        Some(fnv1a(&e.finish()))
    }

    fn describe(&self) -> String {
        format!(
            "{} | aggressor {:?} (slew {:.0} ps)",
            self.bus,
            self.aggressor.switching,
            self.aggressor.slew * 1e12
        )
    }
}

/// A load known only through its driving-point admittance moments (for
/// example handed over from a parasitic reducer). Analytic-backend only: it
/// has no netlist, and the rational fit happens at analysis time — so a
/// degenerate moment set fails *per stage*, which is exactly what the batch
/// error-recovery path is for.
#[derive(Debug, Clone, PartialEq)]
pub struct MomentsLoad {
    moments: Vec<f64>,
}

impl MomentsLoad {
    /// Creates the load from admittance moments (`moments[k]` is the
    /// coefficient of `s^(k+1)`; the first is the total capacitance).
    ///
    /// # Errors
    /// Returns [`EngineError::InvalidStage`] when the moments are empty, not
    /// finite, or the total capacitance is not positive. Note that a
    /// *degenerate but well-formed* moment set (e.g. a pure capacitor given
    /// five moments) passes construction and fails later, at
    /// [`LoadModel::reduce`] time.
    pub fn new(moments: Vec<f64>) -> Result<Self, EngineError> {
        if moments.is_empty() || !moments.iter().all(|m| m.is_finite()) {
            return Err(EngineError::invalid(
                "admittance moments must be a non-empty list of finite values",
            ));
        }
        if moments[0] <= 0.0 {
            return Err(EngineError::invalid(format!(
                "the first admittance moment (total capacitance) must be positive, got {:e}",
                moments[0]
            )));
        }
        Ok(MomentsLoad { moments })
    }

    /// The stored moments.
    pub fn moments(&self) -> &[f64] {
        &self.moments
    }
}

impl LoadModel for MomentsLoad {
    fn reduce(&self) -> Result<ReducedLoad, EngineError> {
        let fit = RationalAdmittance::from_moments(&self.moments)?;
        Ok(ReducedLoad {
            fit,
            external_load: self.moments[0],
            wave: None,
        })
    }

    fn total_capacitance(&self) -> f64 {
        self.moments[0]
    }

    fn attach(
        &self,
        _ckt: &mut Circuit,
        _near: NodeId,
        _v_initial: f64,
        _segments: usize,
    ) -> Result<NodeId, EngineError> {
        Err(EngineError::unsupported(
            "a moment-space load has no netlist; use the analytic backend or a physical load model",
        ))
    }

    fn sink_names(&self) -> Vec<String> {
        // No netlist, no observable sinks: sessions reject dependent stages
        // that try to chain off a moment-space producer at submit time.
        Vec::new()
    }

    fn cache_fingerprint(&self) -> Option<u64> {
        let mut e = Encoder::new();
        e.u8(6);
        e.f64s(&self.moments);
        Some(fnv1a(&e.finish()))
    }

    fn describe(&self) -> String {
        format!(
            "moment-space load: {} moments, Ctotal = {:.1} fF",
            self.moments.len(),
            self.moments[0] * 1e15
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlc_moments::distributed_admittance_moments;
    use rlc_numeric::units::{ff, mm, nh, pf};

    #[test]
    fn lumped_load_reduces_exactly() {
        let load = LumpedCapLoad::new(ff(250.0)).unwrap();
        let reduced = load.reduce().unwrap();
        assert_eq!(reduced.fit.pole_count(), 0);
        assert!((reduced.total_capacitance() - 250e-15).abs() < 1e-24);
        assert!(reduced.wave.is_none());
        assert!(load.describe().contains("250.0 fF"));
        assert!(LumpedCapLoad::new(-1.0).is_err());
        assert!(LumpedCapLoad::new(f64::INFINITY).is_err());
    }

    #[test]
    fn pi_load_reduces_to_one_pole() {
        let pi = PiModel {
            c_near: 0.2e-12,
            resistance: 120.0,
            c_far: 0.9e-12,
        };
        let load = PiModelLoad::new(pi).unwrap();
        let reduced = load.reduce().unwrap();
        assert_eq!(reduced.fit.pole_count(), 1);
        assert!((load.total_capacitance() - 1.1e-12).abs() < 1e-24);
        assert!(PiModelLoad::new(PiModel {
            c_near: -1e-12,
            resistance: 120.0,
            c_far: 0.9e-12,
        })
        .is_err());
    }

    #[test]
    fn rlc_load_reduces_to_the_paper_fit() {
        let line = RlcLine::new(72.44, nh(5.14), pf(1.10), mm(5.0));
        let load = DistributedRlcLoad::new(line, ff(10.0)).unwrap();
        let reduced = load.reduce().unwrap();
        assert_eq!(reduced.fit.pole_count(), 2);
        assert!(reduced.wave.is_some());
        assert!((reduced.total_capacitance() - (1.10e-12 + 10e-15)).abs() < 1e-18);
        assert!(load.wave().is_some());
        assert!(DistributedRlcLoad::new(line, -1.0).is_err());
    }

    #[test]
    fn moments_load_defers_degeneracy_to_reduce_time() {
        // A pure capacitor expressed as five moments: construction succeeds,
        // reduction fails — the per-stage error the batch path must survive.
        let degenerate = MomentsLoad::new(vec![1e-12, 0.0, 0.0, 0.0, 0.0]).unwrap();
        assert!(matches!(degenerate.reduce(), Err(EngineError::Load { .. })));

        // A healthy moment set reduces fine.
        let line = RlcLine::new(72.44, nh(5.14), pf(1.10), mm(5.0));
        let healthy = MomentsLoad::new(distributed_admittance_moments(&line, ff(10.0), 5)).unwrap();
        assert!(healthy.reduce().is_ok());
        assert!(healthy.moments().len() == 5);

        assert!(MomentsLoad::new(vec![]).is_err());
        assert!(MomentsLoad::new(vec![-1e-12, 0.0]).is_err());
    }

    #[test]
    fn one_branch_tree_load_reduces_identically_to_the_line_load() {
        let line = RlcLine::new(72.44, nh(5.14), pf(1.10), mm(5.0));
        let line_load = DistributedRlcLoad::new(line, ff(10.0)).unwrap();
        let tree_load = RlcTreeLoad::new(RlcTree::single_line(line, ff(10.0))).unwrap();
        let a = line_load.reduce().unwrap();
        let b = tree_load.reduce().unwrap();
        assert_eq!(a.fit, b.fit);
        assert_eq!(a.external_load, b.external_load);
        assert_eq!(a.wave, b.wave);
        assert_eq!(line_load.wave(), tree_load.wave());
        assert_eq!(line_load.total_capacitance(), tree_load.total_capacitance());
    }

    #[test]
    fn branching_tree_load_reduces_without_wave_parameters() {
        let trunk = RlcLine::new(40.0, nh(2.0), pf(0.5), mm(2.0));
        let stub = RlcLine::new(20.0, nh(1.0), pf(0.3), mm(1.0));
        let mut tree = RlcTree::new();
        let t = tree.add_branch(None, trunk);
        let l = tree.add_branch(Some(t), stub);
        let r = tree.add_branch(Some(t), stub);
        tree.set_sink(l, "rx0", ff(15.0));
        tree.set_sink(r, "rx1", ff(25.0));
        let load = RlcTreeLoad::new(tree).unwrap();
        let reduced = load.reduce().unwrap();
        assert!(reduced.wave.is_none());
        assert!(load.wave().is_none());
        assert!((reduced.external_load - 40e-15).abs() < 1e-24);
        assert!((reduced.total_capacitance() - load.total_capacitance()).abs() < 1e-18);
        assert!(load.describe().contains("3 branches"));

        // attach_net exposes both sinks; attach returns the first.
        let mut ckt = Circuit::new();
        let near = ckt.node("out");
        ckt.add_vsource("V1", near, Circuit::GROUND, SourceWaveform::dc(0.0));
        let net = load.attach_net(&mut ckt, near, 0.0, 6).unwrap();
        assert_eq!(net.sinks.len(), 2);
        assert_eq!(net.sinks[0].0, "rx0");
        assert_eq!(net.primary, net.sinks[0].1);
        assert!(ckt.validate().is_ok());
    }

    #[test]
    fn tree_load_rejects_empty_and_sinkless_trees() {
        assert!(RlcTreeLoad::new(RlcTree::new()).is_err());
        let mut tree = RlcTree::new();
        tree.add_branch(None, RlcLine::new(72.44, nh(5.14), pf(1.10), mm(5.0)));
        assert!(RlcTreeLoad::new(tree).is_err());
    }

    #[test]
    fn coupled_bus_miller_reduction_orders_the_scenarios() {
        use crate::stage::{AggressorSpec, AggressorSwitching};
        use rlc_interconnect::CoupledBus;
        use rlc_numeric::units::ps;

        let line = RlcLine::new(72.44, nh(5.14), pf(1.10), mm(5.0));
        let bus = CoupledBus::symmetric(line, pf(0.4), nh(1.0), ff(10.0));
        let load_for = |switching| {
            CoupledBusLoad::new(
                bus,
                AggressorSpec::new(switching, ps(100.0), ps(20.0), 1.8).unwrap(),
            )
            .unwrap()
        };
        let same = load_for(AggressorSwitching::SameDirection);
        let quiet = load_for(AggressorSwitching::Quiet);
        let opposite = load_for(AggressorSwitching::OppositeDirection);
        // Effective victim capacitance: same < quiet < opposite.
        assert!(same.total_capacitance() < quiet.total_capacitance());
        assert!(quiet.total_capacitance() < opposite.total_capacitance());
        // Same-direction switching cancels the coupling entirely: identical
        // to the uncoupled victim line.
        let solo = DistributedRlcLoad::new(line, ff(10.0)).unwrap();
        assert_eq!(same.reduce().unwrap().fit, solo.reduce().unwrap().fit);
        assert!(opposite.describe().contains("aggressor"));
    }

    #[test]
    fn coupled_bus_attach_wires_the_aggressor_source() {
        use crate::stage::{AggressorSpec, AggressorSwitching};
        use rlc_interconnect::CoupledBus;
        use rlc_numeric::units::ps;

        let line = RlcLine::new(72.44, nh(5.14), pf(1.10), mm(5.0));
        let bus = CoupledBus::symmetric(line, pf(0.4), nh(1.0), ff(10.0));
        let load = CoupledBusLoad::new(
            bus,
            AggressorSpec::new(
                AggressorSwitching::OppositeDirection,
                ps(100.0),
                ps(20.0),
                1.8,
            )
            .unwrap(),
        )
        .unwrap();
        let mut ckt = Circuit::new();
        let near = ckt.node("out");
        ckt.add_vsource("V1", near, Circuit::GROUND, SourceWaveform::dc(0.0));
        let net = load.attach_net(&mut ckt, near, 0.0, 8).unwrap();
        assert_eq!(net.sinks.len(), 2);
        assert_eq!(net.sinks[0].0, "victim");
        assert_eq!(net.sinks[1].0, "aggressor");
        assert_eq!(net.primary, net.sinks[0].1);
        // The aggressor source was added by the load.
        assert!(ckt.find_node("agg_in").is_some());
        assert!(ckt.validate().is_ok());
    }

    #[test]
    fn sink_names_match_attach_net_without_building_a_circuit() {
        use crate::stage::AggressorSpec;
        use rlc_interconnect::CoupledBus;

        let line = RlcLine::new(72.44, nh(5.14), pf(1.10), mm(5.0));
        // Single-sink loads expose the default "far".
        assert_eq!(
            DistributedRlcLoad::new(line, ff(10.0))
                .unwrap()
                .sink_names(),
            vec!["far".to_string()]
        );
        assert_eq!(
            LumpedCapLoad::new(ff(100.0)).unwrap().sink_names(),
            vec!["far".to_string()]
        );
        // Moment-space loads have no netlist, hence no sinks.
        assert!(MomentsLoad::new(vec![1e-12, -1e-23])
            .unwrap()
            .sink_names()
            .is_empty());
        // Buses name both far ends.
        let bus_load = CoupledBusLoad::new(
            CoupledBus::symmetric(line, pf(0.4), nh(1.0), ff(10.0)),
            AggressorSpec::quiet(1.8).unwrap(),
        )
        .unwrap();
        assert_eq!(bus_load.sink_names(), vec!["victim", "aggressor"]);

        // Tree sinks, in the same order attach_net reports them.
        let trunk = RlcLine::new(40.0, nh(2.0), pf(0.5), mm(2.0));
        let stub = RlcLine::new(20.0, nh(1.0), pf(0.3), mm(1.0));
        let mut tree = RlcTree::new();
        let t = tree.add_branch(None, trunk);
        let l = tree.add_branch(Some(t), stub);
        let r = tree.add_branch(Some(t), stub);
        tree.set_sink(l, "rx0", ff(15.0));
        tree.set_sink(r, "rx1", ff(25.0));
        let load = RlcTreeLoad::new(tree).unwrap();
        let mut ckt = Circuit::new();
        let near = ckt.node("out");
        ckt.add_vsource("V1", near, Circuit::GROUND, SourceWaveform::dc(0.0));
        let net = load.attach_net(&mut ckt, near, 0.0, 4).unwrap();
        let attached: Vec<String> = net.sinks.into_iter().map(|(n, _)| n).collect();
        assert_eq!(load.sink_names(), attached);
    }

    #[test]
    fn with_aggressor_swaps_the_drive_on_buses_only() {
        use crate::stage::{AggressorSpec, AggressorSwitching};
        use rlc_interconnect::CoupledBus;
        use rlc_numeric::units::ps;

        let line = RlcLine::new(72.44, nh(5.14), pf(1.10), mm(5.0));
        let opposite =
            AggressorSpec::new(AggressorSwitching::OppositeDirection, ps(80.0), 0.0, 1.8).unwrap();
        // Non-coupled loads refuse.
        assert!(LumpedCapLoad::new(ff(100.0))
            .unwrap()
            .with_aggressor(opposite)
            .is_none());
        assert!(DistributedRlcLoad::new(line, ff(10.0))
            .unwrap()
            .with_aggressor(opposite)
            .is_none());
        // The bus swaps its spec (and keeps its geometry).
        let quiet = CoupledBusLoad::new(
            CoupledBus::symmetric(line, pf(0.4), nh(1.0), ff(10.0)),
            AggressorSpec::quiet(1.8).unwrap(),
        )
        .unwrap();
        let swapped = quiet.with_aggressor(opposite).unwrap();
        assert!(swapped.total_capacitance() > quiet.total_capacitance());
        assert_eq!(swapped.sink_names(), quiet.sink_names());
    }

    #[test]
    fn scaled_revalues_every_element_class() {
        use crate::variation::VariationSpec;

        let spec = VariationSpec::nominal()
            .with_r_scale(1.2)
            .with_l_scale(0.9)
            .with_c_scale(1.1)
            .with_source_scale(0.95);
        let r_eff = spec.effective_r_scale();

        // Lumped: capacitance only.
        let lumped = LumpedCapLoad::new(ff(200.0)).unwrap();
        let scaled = lumped.scaled(&spec).unwrap().unwrap();
        assert!((scaled.total_capacitance() - 1.1 * 200e-15).abs() < 1e-27);

        // Pi: R by the (temperature-adjusted) resistance scale, C by c_scale.
        let pi = PiModelLoad::new(PiModel {
            c_near: 0.2e-12,
            resistance: 120.0,
            c_far: 0.9e-12,
        })
        .unwrap();
        let scaled = pi.scaled(&spec).unwrap().unwrap();
        assert!((scaled.total_capacitance() - 1.1 * 1.1e-12).abs() < 1e-24);

        // Line: every class, load included; geometry untouched.
        let line = RlcLine::new(72.44, nh(5.14), pf(1.10), mm(5.0));
        let load = DistributedRlcLoad::new(line, ff(10.0)).unwrap();
        let scaled = load.scaled(&spec).unwrap().unwrap();
        let tree = scaled.tree_topology().unwrap();
        let (scaled_line, c_load) = tree.as_single_line().map(|(l, c)| (*l, c)).unwrap();
        assert!((scaled_line.resistance() - 72.44 * r_eff).abs() < 1e-9);
        assert!((scaled_line.inductance() - 0.9 * 5.14e-9).abs() < 1e-21);
        assert!((scaled_line.capacitance() - 1.1 * 1.10e-12).abs() < 1e-24);
        assert_eq!(scaled_line.length(), line.length());
        assert!((c_load - 1.1 * 10e-15).abs() < 1e-27);

        // Tree: structure, parents and sink names survive the rebuild.
        let trunk = RlcLine::new(40.0, nh(2.0), pf(0.5), mm(2.0));
        let stub = RlcLine::new(20.0, nh(1.0), pf(0.3), mm(1.0));
        let mut t = RlcTree::new();
        let root = t.add_branch(None, trunk);
        let l = t.add_branch(Some(root), stub);
        let r = t.add_branch(Some(root), stub);
        t.set_sink(l, "rx0", ff(15.0));
        t.set_sink(r, "rx1", ff(25.0));
        let tree_load = RlcTreeLoad::new(t).unwrap();
        let scaled = tree_load.scaled(&spec).unwrap().unwrap();
        assert_eq!(scaled.sink_names(), tree_load.sink_names());
        let st = scaled.tree_topology().unwrap();
        assert_eq!(st.num_branches(), 3);
        assert!((st.total_capacitance() - 1.1 * tree_load.total_capacitance()).abs() < 1e-24);

        // Bus: coupling C, mutual L and the aggressor amplitude all scale.
        let bus = CoupledBus::symmetric(line, pf(0.4), nh(1.0), ff(10.0));
        let bus_load = CoupledBusLoad::new(bus, AggressorSpec::quiet(1.8).unwrap()).unwrap();
        let scaled = bus_load.scaled(&spec).unwrap().unwrap();
        // Quiet aggressor -> Miller factor 1: effective C = line C + cc, and
        // every term scales by c_scale.
        assert!((scaled.total_capacitance() - 1.1 * bus_load.total_capacitance()).abs() < 1e-24);
        assert_eq!(scaled.sink_names(), bus_load.sink_names());

        // Temperature feeds the resistance scale.
        let hot = VariationSpec::nominal().with_temperature_delta(100.0);
        assert!(hot.effective_r_scale() > 1.0);
        let hot_line = load.scaled(&hot).unwrap().unwrap().tree_topology().unwrap();
        let (hl, _) = hot_line.as_single_line().unwrap();
        assert!((hl.resistance() - 72.44 * hot.effective_r_scale()).abs() < 1e-9);

        // Moment-space loads cannot be revalued.
        assert!(MomentsLoad::new(vec![1e-12, -1e-23])
            .unwrap()
            .scaled(&spec)
            .unwrap()
            .is_none());
    }

    #[test]
    fn loads_are_object_safe() {
        use crate::stage::AggressorSpec;
        use rlc_interconnect::CoupledBus;

        let line = RlcLine::new(72.44, nh(5.14), pf(1.10), mm(5.0));
        let loads: Vec<Box<dyn LoadModel>> = vec![
            Box::new(LumpedCapLoad::new(ff(100.0)).unwrap()),
            Box::new(DistributedRlcLoad::new(line, ff(10.0)).unwrap()),
            Box::new(RlcTreeLoad::new(RlcTree::single_line(line, ff(10.0))).unwrap()),
            Box::new(
                CoupledBusLoad::new(
                    CoupledBus::symmetric(line, pf(0.4), nh(1.0), ff(10.0)),
                    AggressorSpec::quiet(1.8).unwrap(),
                )
                .unwrap(),
            ),
        ];
        for load in &loads {
            assert!(load.total_capacitance() > 0.0);
            assert!(!load.describe().is_empty());
        }
    }
}
