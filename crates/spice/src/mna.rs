//! Modified nodal analysis: compilation of a [`Circuit`] into flat element
//! tables and assembly of the (linearized) MNA system for DC and transient
//! analysis.
//!
//! Unknown ordering: node voltages for every non-ground node (node `k` maps
//! to unknown `k - 1`), followed by one branch current per voltage source and
//! per inductor, in element order.

use rlc_numeric::DenseMatrix;

use crate::circuit::{Circuit, NodeId};
use crate::elements::Element;
use crate::mosfet::{
    eval_alpha_power, eval_alpha_power_cached, MosfetEvalCache, MosfetParams, MosfetType,
};
use crate::source::SourceWaveform;
use crate::transient::IntegrationMethod;

/// Minimum conductance added from every node to ground for numerical
/// robustness (floating nodes, capacitor-only nodes in DC).
pub const GMIN: f64 = 1e-12;

/// Whether a factorization whose smallest pivot is `min_pivot` is healthy
/// for a matrix whose largest stamp magnitude is `max_stamp`: the pivot must
/// reach `1e-9 ×` the stamp. A smaller pivot means some unknown is held only
/// by the [`GMIN`] floor, such as a floating node or a node that only
/// MOSFETs touch, and solving through it can amplify rounding by 1e9 or
/// more. The sparse factor-once kernel and the sparse DC solve then
/// degrade to dense partial-pivoting LU, whose row exchanges on the full
/// matrix handle what the sparsity-constrained pivoting cannot; the
/// split-stamp Newton refactorizes every iteration instead of applying the
/// Woodbury update, which multiplies by the inverse of the static factors.
pub(crate) fn pivots_healthy(min_pivot: f64, max_stamp: f64) -> bool {
    min_pivot >= 1e-9 * max_stamp
}

/// A compiled resistor.
#[derive(Debug, Clone, Copy)]
struct CompiledResistor {
    a: usize,
    b: usize,
    conductance: f64,
}

/// A compiled capacitor (explicit element or MOSFET parasitic).
#[derive(Debug, Clone, Copy)]
struct CompiledCapacitor {
    a: usize,
    b: usize,
    farads: f64,
}

/// A compiled inductor with its branch-current unknown.
#[derive(Debug, Clone, Copy)]
struct CompiledInductor {
    a: usize,
    b: usize,
    henries: f64,
    branch: usize,
}

/// A compiled mutual inductance coupling two inductor branch currents.
#[derive(Debug, Clone, Copy)]
struct CompiledMutual {
    branch_a: usize,
    branch_b: usize,
    henries: f64,
}

/// A compiled voltage source with its branch-current unknown.
#[derive(Debug, Clone)]
struct CompiledVsource {
    name: String,
    pos: usize,
    neg: usize,
    waveform: SourceWaveform,
    branch: usize,
}

/// A compiled current source.
#[derive(Debug, Clone)]
struct CompiledIsource {
    from: usize,
    to: usize,
    waveform: SourceWaveform,
}

/// A compiled MOSFET.
#[derive(Debug, Clone, Copy)]
struct CompiledMosfet {
    drain: usize,
    gate: usize,
    source: usize,
    params: MosfetParams,
    width: f64,
}

/// The compiled MNA view of a circuit.
///
/// Node index 0 is ground; unknown `k` is the voltage of node `k + 1` for
/// `k < num_nodes - 1`, and a branch current otherwise.
#[derive(Debug, Clone)]
pub struct MnaSystem {
    num_nodes: usize,
    num_unknowns: usize,
    resistors: Vec<CompiledResistor>,
    capacitors: Vec<CompiledCapacitor>,
    inductors: Vec<CompiledInductor>,
    mutuals: Vec<CompiledMutual>,
    vsources: Vec<CompiledVsource>,
    isources: Vec<CompiledIsource>,
    mosfets: Vec<CompiledMosfet>,
}

impl MnaSystem {
    /// Compiles a circuit into flat element tables.
    pub fn compile(circuit: &Circuit) -> Self {
        let num_nodes = circuit.num_nodes();
        let mut next_branch = num_nodes - 1;
        let mut resistors = Vec::new();
        let mut capacitors = Vec::new();
        let mut inductors = Vec::new();
        let mut inductor_names: Vec<&str> = Vec::new();
        let mut mutual_elements: Vec<(&str, &str, &str, f64)> = Vec::new();
        let mut vsources = Vec::new();
        let mut isources = Vec::new();
        let mut mosfets = Vec::new();

        for e in circuit.elements() {
            match e {
                Element::Resistor { a, b, ohms, .. } => resistors.push(CompiledResistor {
                    a: a.index(),
                    b: b.index(),
                    conductance: 1.0 / ohms,
                }),
                Element::Capacitor { a, b, farads, .. } => capacitors.push(CompiledCapacitor {
                    a: a.index(),
                    b: b.index(),
                    farads: *farads,
                }),
                Element::Inductor {
                    name,
                    a,
                    b,
                    henries,
                    ..
                } => {
                    inductor_names.push(name);
                    inductors.push(CompiledInductor {
                        a: a.index(),
                        b: b.index(),
                        henries: *henries,
                        branch: next_branch,
                    });
                    next_branch += 1;
                }
                Element::MutualInductance {
                    name,
                    inductor_a,
                    inductor_b,
                    henries,
                } => mutual_elements.push((name, inductor_a, inductor_b, *henries)),
                Element::VoltageSource {
                    name,
                    pos,
                    neg,
                    waveform,
                } => {
                    vsources.push(CompiledVsource {
                        name: name.clone(),
                        pos: pos.index(),
                        neg: neg.index(),
                        waveform: waveform.clone(),
                        branch: next_branch,
                    });
                    next_branch += 1;
                }
                Element::CurrentSource {
                    from, to, waveform, ..
                } => isources.push(CompiledIsource {
                    from: from.index(),
                    to: to.index(),
                    waveform: waveform.clone(),
                }),
                Element::Mosfet {
                    drain,
                    gate,
                    source,
                    params,
                    width,
                    ..
                } => {
                    mosfets.push(CompiledMosfet {
                        drain: drain.index(),
                        gate: gate.index(),
                        source: source.index(),
                        params: *params,
                        width: *width,
                    });
                    // Lumped parasitic capacitances: half the gate cap to the
                    // source, half to the drain (Miller), plus the drain
                    // junction cap to the source terminal (which is the local
                    // supply rail for inverter-style connections).
                    let cg = params.c_gate_per_width * width;
                    let cj = params.c_junction_per_width * width;
                    if cg > 0.0 {
                        capacitors.push(CompiledCapacitor {
                            a: gate.index(),
                            b: source.index(),
                            farads: 0.5 * cg,
                        });
                        capacitors.push(CompiledCapacitor {
                            a: gate.index(),
                            b: drain.index(),
                            farads: 0.5 * cg,
                        });
                    }
                    if cj > 0.0 {
                        capacitors.push(CompiledCapacitor {
                            a: drain.index(),
                            b: source.index(),
                            farads: cj,
                        });
                    }
                }
            }
        }

        // Mutual inductances are resolved after the element pass so they may
        // be declared in any order relative to the inductors they couple;
        // `Circuit::validate` reports missing names as a proper error first.
        let mutuals = mutual_elements
            .into_iter()
            .map(|(name, la, lb, henries)| {
                let branch_of = |wanted: &str| {
                    inductor_names
                        .iter()
                        .position(|n| *n == wanted)
                        .map(|i| inductors[i].branch)
                        .unwrap_or_else(|| {
                            panic!("mutual inductance {name} references unknown inductor {wanted}")
                        })
                };
                CompiledMutual {
                    branch_a: branch_of(la),
                    branch_b: branch_of(lb),
                    henries,
                }
            })
            .collect();

        MnaSystem {
            num_nodes,
            num_unknowns: next_branch,
            resistors,
            capacitors,
            inductors,
            mutuals,
            vsources,
            isources,
            mosfets,
        }
    }

    /// Total number of MNA unknowns (node voltages + branch currents).
    pub fn num_unknowns(&self) -> usize {
        self.num_unknowns
    }

    /// Number of circuit nodes including ground.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of compiled capacitors (explicit plus MOSFET parasitics); the
    /// dynamic state vector for transient analysis has this many entries.
    pub fn num_capacitors(&self) -> usize {
        self.capacitors.len()
    }

    /// Index of the unknown holding the voltage of `node`, or `None` for
    /// ground.
    pub fn voltage_unknown(&self, node: NodeId) -> Option<usize> {
        if node.is_ground() {
            None
        } else {
            Some(node.index() - 1)
        }
    }

    /// The solution vector holding `circuit`'s initial conditions: the
    /// voltage of every node that has one, 0 for every other unknown.
    pub(crate) fn initial_condition_vector(&self, circuit: &Circuit) -> Vec<f64> {
        let mut x = vec![0.0; self.num_unknowns];
        for (&node, &v) in circuit.initial_conditions() {
            if let Some(idx) = self.voltage_unknown(node) {
                x[idx] = v;
            }
        }
        x
    }

    /// Branch-current unknown of the named voltage source, if any.
    pub fn vsource_branch(&self, name: &str) -> Option<usize> {
        self.vsources
            .iter()
            .find(|v| v.name == name)
            .map(|v| v.branch)
    }

    /// Voltage of `node` taken from a solution vector.
    pub fn node_voltage(&self, x: &[f64], node: usize) -> f64 {
        if node == 0 {
            0.0
        } else {
            x[node - 1]
        }
    }

    fn stamp_conductance_with<AM: FnMut(usize, usize, f64)>(
        &self,
        add_m: &mut AM,
        a: usize,
        b: usize,
        g: f64,
    ) {
        if a != 0 {
            add_m(a - 1, a - 1, g);
        }
        if b != 0 {
            add_m(b - 1, b - 1, g);
        }
        if a != 0 && b != 0 {
            add_m(a - 1, b - 1, -g);
            add_m(b - 1, a - 1, -g);
        }
    }

    fn stamp_current_injection(&self, rhs: &mut [f64], into: usize, out_of: usize, amps: f64) {
        if into != 0 {
            rhs[into - 1] += amps;
        }
        if out_of != 0 {
            rhs[out_of - 1] -= amps;
        }
    }

    /// Whether the circuit is linear and time-invariant under a fixed step:
    /// only R, L, C and independent sources (no MOSFETs). LTI systems get the
    /// factor-once transient fast path.
    pub fn is_linear(&self) -> bool {
        self.mosfets.is_empty()
    }

    /// Whether every independent voltage and current source evaluates to
    /// exactly `0.0` at time `t`: from a zero state, the transient
    /// right-hand side at `t` is then zero as well.
    pub(crate) fn sources_quiet_at(&self, t: f64) -> bool {
        self.vsources.iter().all(|v| v.waveform.value_at(t) == 0.0)
            && self.isources.iter().all(|i| i.waveform.value_at(t) == 0.0)
    }

    /// Stamps the state-independent part of the DC system: gmin, resistors,
    /// inductor shorts, voltage-source constraints and current-source
    /// injections. Everything except the MOSFET linearizations, which are the
    /// only stamps that change across Newton iterations. Mutual inductances
    /// contribute nothing at DC (`di/dt = 0`; the coupled inductors are
    /// already shorts).
    pub(crate) fn stamp_dc_static(&self, m: &mut DenseMatrix, rhs: &mut [f64]) {
        self.stamp_dc_matrix_core(&mut |i, j, v| m.add_at(i, j, v));
        self.stamp_dc_rhs(rhs);
    }

    /// The matrix half of [`MnaSystem::stamp_dc_static`], generic over the
    /// stamp sink so the same element walk fills dense matrices and sparse
    /// triplet buffers.
    pub(crate) fn stamp_dc_matrix_core<AM: FnMut(usize, usize, f64)>(&self, add_m: &mut AM) {
        for k in 0..(self.num_nodes - 1) {
            add_m(k, k, GMIN);
        }
        for r in &self.resistors {
            self.stamp_conductance_with(add_m, r.a, r.b, r.conductance);
        }
        for l in &self.inductors {
            // Branch row: Va - Vb = 0; KCL: branch current leaves a, enters b.
            self.stamp_branch_voltage_rows_with(add_m, l.a, l.b, l.branch);
        }
        for v in &self.vsources {
            self.stamp_branch_voltage_rows_with(add_m, v.pos, v.neg, v.branch);
        }
    }

    /// The RHS half of [`MnaSystem::stamp_dc_static`]: source `t = 0` values.
    pub(crate) fn stamp_dc_rhs(&self, rhs: &mut [f64]) {
        for v in &self.vsources {
            rhs[v.branch] = v.waveform.initial_value();
        }
        for i in &self.isources {
            self.stamp_current_injection(rhs, i.to, i.from, i.waveform.initial_value());
        }
    }

    /// Stamps every MOSFET linearized about `x_guess` — the per-iteration
    /// stamps of the split-stamp Newton scheme. The sinks receive *unknown
    /// indices* (ground already skipped), so the same call fills a dense
    /// matrix and RHS or, through a row map, the low-rank update rows of the
    /// Woodbury solve. With `caches` (one entry per compiled MOSFET),
    /// repeated stamps at an unchanged gate voltage skip the `powf`
    /// evaluations.
    pub(crate) fn stamp_mosfets(
        &self,
        x_guess: &[f64],
        mut caches: Option<&mut [MosfetEvalCache]>,
        mut add_m: impl FnMut(usize, usize, f64),
        mut add_rhs: impl FnMut(usize, f64),
    ) {
        for (k, f) in self.mosfets.iter().enumerate() {
            let cache = caches.as_deref_mut().map(|c| &mut c[k]);
            self.stamp_mosfet_core(f, x_guess, cache, &mut add_m, &mut add_rhs);
        }
    }

    /// The matrix rows a MOSFET stamp can touch: the voltage unknowns of
    /// every non-ground drain/source terminal (gates only contribute
    /// columns). Sorted and deduplicated; its length is the rank of the
    /// per-iteration update in the Woodbury transient kernel.
    pub(crate) fn mosfet_rows(&self) -> Vec<usize> {
        let mut rows: Vec<usize> = self
            .mosfets
            .iter()
            .flat_map(|f| [f.drain, f.source])
            .filter(|&node| node != 0)
            .map(|node| node - 1)
            .collect();
        rows.sort_unstable();
        rows.dedup();
        rows
    }

    /// Assembles the transient system at time `t` for step size `h`,
    /// linearized about `x_guess`, given the previous accepted solution
    /// `prev_x` and the previous capacitor currents `prev_cap_currents`
    /// (one per compiled capacitor, flowing `a → b`).
    #[allow(clippy::too_many_arguments)]
    pub fn assemble_transient(
        &self,
        t: f64,
        h: f64,
        method: IntegrationMethod,
        x_guess: &[f64],
        prev_x: &[f64],
        prev_cap_currents: &[f64],
    ) -> (DenseMatrix, Vec<f64>) {
        let mut m = DenseMatrix::default();
        let mut rhs = vec![0.0; self.num_unknowns];
        self.stamp_transient_static(&mut m, h, method);
        self.transient_rhs_into(t, h, method, prev_x, prev_cap_currents, &mut rhs);
        self.stamp_mosfets(
            x_guess,
            None,
            |i, j, v| m.add_at(i, j, v),
            |i, v| rhs[i] += v,
        );
        (m, rhs)
    }

    /// Overwrites `m` (resized to `n x n` and zeroed first, so a reused
    /// buffer needs no preparation) with the time-invariant part of the
    /// transient matrix for a fixed step `h`: gmin, resistors, the
    /// capacitor/inductor companion conductances and the source/inductor
    /// branch constraint rows. Under a fixed step this matrix never changes,
    /// so the dense LTI kernel factors it once per run and nonlinear
    /// circuits cache it and add only the MOSFET stamps per Newton
    /// iteration.
    pub(crate) fn stamp_transient_static(
        &self,
        m: &mut DenseMatrix,
        h: f64,
        method: IntegrationMethod,
    ) {
        m.resize_zeroed(self.num_unknowns, self.num_unknowns);
        self.stamp_transient_matrix_core(h, method, &mut |i, j, v| m.add_at(i, j, v));
    }

    /// The element walk behind [`MnaSystem::stamp_transient_static`], generic
    /// over the stamp sink: the dense kernels pass `DenseMatrix::add_at`, the
    /// sparse kernel collects (row, col, value) triplets for
    /// [`rlc_numeric::CscMatrix::from_triplets`].
    pub(crate) fn stamp_transient_matrix_core<AM: FnMut(usize, usize, f64)>(
        &self,
        h: f64,
        method: IntegrationMethod,
        add_m: &mut AM,
    ) {
        for k in 0..(self.num_nodes - 1) {
            add_m(k, k, GMIN);
        }
        for r in &self.resistors {
            self.stamp_conductance_with(add_m, r.a, r.b, r.conductance);
        }
        for c in &self.capacitors {
            let g = match method {
                IntegrationMethod::BackwardEuler => c.farads / h,
                IntegrationMethod::Trapezoidal => 2.0 * c.farads / h,
            };
            self.stamp_conductance_with(add_m, c.a, c.b, g);
        }
        for l in &self.inductors {
            let z = match method {
                IntegrationMethod::BackwardEuler => l.henries / h,
                IntegrationMethod::Trapezoidal => 2.0 * l.henries / h,
            };
            // KCL columns and branch voltage row.
            self.stamp_branch_voltage_rows_with(add_m, l.a, l.b, l.branch);
            // Branch equation: Va - Vb - z * i = rhs_val.
            add_m(l.branch, l.branch, -z);
        }
        for k in &self.mutuals {
            // Coupled branch equations gain the off-diagonal companion
            // impedance: Va - Vb - z*i - z_m*i_other = rhs_val.
            let z_m = match method {
                IntegrationMethod::BackwardEuler => k.henries / h,
                IntegrationMethod::Trapezoidal => 2.0 * k.henries / h,
            };
            add_m(k.branch_a, k.branch_b, -z_m);
            add_m(k.branch_b, k.branch_a, -z_m);
        }
        for v in &self.vsources {
            self.stamp_branch_voltage_rows_with(add_m, v.pos, v.neg, v.branch);
        }
    }

    /// Collects the transient static stamps as (row, col, value) triplets
    /// into `out` (cleared first) — the sparse kernel's assembly input.
    pub(crate) fn transient_triplets(
        &self,
        h: f64,
        method: IntegrationMethod,
        out: &mut Vec<(usize, usize, f64)>,
    ) {
        out.clear();
        self.stamp_transient_matrix_core(h, method, &mut |i, j, v| out.push((i, j, v)));
    }

    /// Collects the DC static matrix stamps as triplets into `out` (cleared
    /// first) — the sparse linear DC path's assembly input.
    pub(crate) fn dc_triplets(&self, out: &mut Vec<(usize, usize, f64)>) {
        out.clear();
        self.stamp_dc_matrix_core(&mut |i, j, v| out.push((i, j, v)));
    }

    /// Number of *unique* matrix positions the transient static stamp
    /// touches — the structural nonzero count of the MNA matrix. A sizing
    /// diagnostic: compare against `num_unknowns²` to see how sparse a
    /// circuit's system really is (and why the sparse kernel wins on large
    /// nets). Independent of step size and integration method.
    pub fn stamp_nnz(&self) -> usize {
        let mut positions: Vec<(usize, usize)> = Vec::new();
        // h = 1.0 is arbitrary: only the stamp *pattern* matters here.
        self.stamp_transient_matrix_core(1.0, IntegrationMethod::BackwardEuler, &mut |i, j, _| {
            positions.push((i, j))
        });
        positions.sort_unstable();
        positions.dedup();
        positions.len()
    }

    /// The unique `(row, col)` positions the DC stamp touches. This is the
    /// *discriminating* pattern for structural-rank analysis: inductor branch
    /// rows carry no companion diagonal at DC, so a branch constraint that is
    /// structurally deficient here (an empty row, or duplicate constraint
    /// rows competing for the same columns) makes the DC operating-point
    /// solve — the first thing every transient run performs — structurally
    /// singular, with no pivoting able to rescue it.
    pub fn dc_stamp_pattern(&self) -> Vec<(usize, usize)> {
        let mut positions: Vec<(usize, usize)> = Vec::new();
        self.stamp_dc_matrix_core(&mut |i, j, _| positions.push((i, j)));
        positions.sort_unstable();
        positions.dedup();
        positions
    }

    /// Fills `rhs` with the transient right-hand side at time `t`: source
    /// waveform values and the capacitor/inductor companion history terms.
    /// This is the only part of an LTI system that changes per time step, and
    /// it is identical across the Newton iterations of a nonlinear step.
    pub(crate) fn transient_rhs_into(
        &self,
        t: f64,
        h: f64,
        method: IntegrationMethod,
        prev_x: &[f64],
        prev_cap_currents: &[f64],
        rhs: &mut [f64],
    ) {
        rhs.iter_mut().for_each(|v| *v = 0.0);
        for (idx, c) in self.capacitors.iter().enumerate() {
            let v_prev = self.node_voltage(prev_x, c.a) - self.node_voltage(prev_x, c.b);
            let ieq = match method {
                IntegrationMethod::BackwardEuler => c.farads / h * v_prev,
                IntegrationMethod::Trapezoidal => {
                    2.0 * c.farads / h * v_prev + prev_cap_currents[idx]
                }
            };
            // Companion current source injects ieq into node a (out of b):
            // i_cap = g * v - ieq, so the "-ieq" term is a current entering a.
            self.stamp_current_injection(rhs, c.a, c.b, ieq);
        }
        self.rhs_sources_and_inductors(t, h, method, prev_x, rhs);
    }

    /// Initializes the per-capacitor companion-source state for the fused RHS
    /// pass: `ieq_0 = g·v_0` (the capacitor starts current-free, so the step-1
    /// trapezoidal source `g·v_0 + i_0` reduces to the same value).
    pub(crate) fn init_cap_ieq(
        &self,
        h: f64,
        method: IntegrationMethod,
        x0: &[f64],
        cap_ieq: &mut [f64],
    ) {
        for (state, c) in cap_ieq.iter_mut().zip(&self.capacitors) {
            let g = match method {
                IntegrationMethod::BackwardEuler => c.farads / h,
                IntegrationMethod::Trapezoidal => 2.0 * c.farads / h,
            };
            let v0 = self.node_voltage(x0, c.a) - self.node_voltage(x0, c.b);
            *state = g * v0;
        }
    }

    /// Fused variant of [`MnaSystem::transient_rhs_into`] used by the fast
    /// kernels: folds the post-step capacitor-current update into the RHS
    /// pass by keeping the companion source itself as state. For the
    /// trapezoidal rule, `ieq_{k+1} = g·v_k + i_k` with
    /// `i_k = g·v_k − ieq_k` gives the one-multiply recurrence
    /// `ieq_{k+1} = 2·g·v_k − ieq_k`; backward Euler has no current memory.
    /// One pass per step instead of two (assemble + update).
    pub(crate) fn transient_rhs_fused(
        &self,
        t: f64,
        h: f64,
        method: IntegrationMethod,
        prev_x: &[f64],
        cap_ieq: &mut [f64],
        rhs: &mut [f64],
    ) {
        rhs.iter_mut().for_each(|v| *v = 0.0);
        match method {
            IntegrationMethod::BackwardEuler => {
                for c in &self.capacitors {
                    let v_prev = self.node_voltage(prev_x, c.a) - self.node_voltage(prev_x, c.b);
                    let ieq = c.farads / h * v_prev;
                    self.stamp_current_injection(rhs, c.a, c.b, ieq);
                }
            }
            IntegrationMethod::Trapezoidal => {
                for (state, c) in cap_ieq.iter_mut().zip(&self.capacitors) {
                    let g2 = 2.0 * (2.0 * c.farads / h);
                    let v_prev = self.node_voltage(prev_x, c.a) - self.node_voltage(prev_x, c.b);
                    let ieq = g2 * v_prev - *state;
                    *state = ieq;
                    self.stamp_current_injection(rhs, c.a, c.b, ieq);
                }
            }
        }
        self.rhs_sources_and_inductors(t, h, method, prev_x, rhs);
    }

    /// Inductor companion terms and source values of the transient RHS
    /// (shared by the plain and fused assembly passes).
    fn rhs_sources_and_inductors(
        &self,
        t: f64,
        h: f64,
        method: IntegrationMethod,
        prev_x: &[f64],
        rhs: &mut [f64],
    ) {
        for l in &self.inductors {
            let i_prev = prev_x[l.branch];
            let v_prev = self.node_voltage(prev_x, l.a) - self.node_voltage(prev_x, l.b);
            rhs[l.branch] = match method {
                IntegrationMethod::BackwardEuler => -(l.henries / h) * i_prev,
                IntegrationMethod::Trapezoidal => -(2.0 * l.henries / h) * i_prev - v_prev,
            };
        }
        for k in &self.mutuals {
            // History of the coupled branch current (the v_prev part of the
            // trapezoidal companion is already carried by the self terms).
            let z_m = match method {
                IntegrationMethod::BackwardEuler => k.henries / h,
                IntegrationMethod::Trapezoidal => 2.0 * k.henries / h,
            };
            rhs[k.branch_a] -= z_m * prev_x[k.branch_b];
            rhs[k.branch_b] -= z_m * prev_x[k.branch_a];
        }
        for v in &self.vsources {
            rhs[v.branch] = v.waveform.value_at(t);
        }
        for i in &self.isources {
            self.stamp_current_injection(rhs, i.to, i.from, i.waveform.value_at(t));
        }
    }

    /// Stamps the `+1/-1` pattern shared by ideal voltage sources, DC
    /// inductor shorts and the voltage part of inductor branch equations.
    fn stamp_branch_voltage_rows_with<AM: FnMut(usize, usize, f64)>(
        &self,
        add_m: &mut AM,
        pos: usize,
        neg: usize,
        branch: usize,
    ) {
        if pos != 0 {
            add_m(pos - 1, branch, 1.0);
            add_m(branch, pos - 1, 1.0);
        }
        if neg != 0 {
            add_m(neg - 1, branch, -1.0);
            add_m(branch, neg - 1, -1.0);
        }
    }

    /// Stamps a MOSFET linearized about the guess voltages into the sinks of
    /// [`MnaSystem::stamp_mosfets`].
    fn stamp_mosfet_core<AM: FnMut(usize, usize, f64), AR: FnMut(usize, f64)>(
        &self,
        f: &CompiledMosfet,
        x_guess: &[f64],
        cache: Option<&mut MosfetEvalCache>,
        add_m: &mut AM,
        add_rhs: &mut AR,
    ) {
        let vd = self.node_voltage(x_guess, f.drain);
        let vg = self.node_voltage(x_guess, f.gate);
        let vs = self.node_voltage(x_guess, f.source);

        // Pick the device-frame (high, low) channel terminals so the
        // device-frame Vds is always non-negative; the MOSFET is symmetric in
        // drain/source for this model.
        let (hi_node, lo_node, v_hi, v_lo) = match f.params.mos_type {
            MosfetType::Nmos => {
                if vd >= vs {
                    (f.drain, f.source, vd, vs)
                } else {
                    (f.source, f.drain, vs, vd)
                }
            }
            MosfetType::Pmos => {
                // For PMOS the "source" in device frame is the higher terminal.
                if vs >= vd {
                    (f.source, f.drain, vs, vd)
                } else {
                    (f.drain, f.source, vd, vs)
                }
            }
        };

        match f.params.mos_type {
            MosfetType::Nmos => {
                // Device frame: drain = hi, source = lo.
                let vgs = vg - v_lo;
                let vds = v_hi - v_lo;
                let e = match cache {
                    Some(c) => eval_alpha_power_cached(&f.params, f.width, vgs, vds, c),
                    None => eval_alpha_power(&f.params, f.width, vgs, vds),
                };
                // Current leaves hi (drain) node, enters lo (source) node:
                // I = id0 + gm*(Vg - Vlo - vgs) + gds*(Vhi - Vlo - vds)
                let const_term = e.id - e.gm * vgs - e.gds * vds;
                stamp_vccs_with(add_m, hi_node, lo_node, f.gate, lo_node, e.gm);
                stamp_vccs_with(add_m, hi_node, lo_node, hi_node, lo_node, e.gds);
                stamp_injection_with(add_rhs, lo_node, hi_node, const_term);
            }
            MosfetType::Pmos => {
                // Device frame: source = hi, drain = lo.
                let vsg = v_hi - vg;
                let vsd = v_hi - v_lo;
                let e = match cache {
                    Some(c) => eval_alpha_power_cached(&f.params, f.width, vsg, vsd, c),
                    None => eval_alpha_power(&f.params, f.width, vsg, vsd),
                };
                // Current leaves hi (source) node, enters lo (drain) node:
                // I = id0 + gm*(Vhi - Vg - vsg) + gds*(Vhi - Vlo - vsd)
                let const_term = e.id - e.gm * vsg - e.gds * vsd;
                stamp_vccs_with(add_m, hi_node, lo_node, hi_node, f.gate, e.gm);
                stamp_vccs_with(add_m, hi_node, lo_node, hi_node, lo_node, e.gds);
                stamp_injection_with(add_rhs, lo_node, hi_node, const_term);
            }
        }
    }

    /// Number of compiled MOSFETs (the length expected of the eval-cache
    /// slice handed to [`MnaSystem::stamp_mosfets`]).
    pub(crate) fn num_mosfets(&self) -> usize {
        self.mosfets.len()
    }

    /// Updates the per-capacitor branch currents after a converged transient
    /// step (needed by the trapezoidal companion at the next step).
    pub fn update_capacitor_currents(
        &self,
        h: f64,
        method: IntegrationMethod,
        x_new: &[f64],
        prev_x: &[f64],
        prev_cap_currents: &mut [f64],
    ) {
        for (idx, c) in self.capacitors.iter().enumerate() {
            let v_new = self.node_voltage(x_new, c.a) - self.node_voltage(x_new, c.b);
            let v_prev = self.node_voltage(prev_x, c.a) - self.node_voltage(prev_x, c.b);
            prev_cap_currents[idx] = match method {
                IntegrationMethod::BackwardEuler => c.farads / h * (v_new - v_prev),
                IntegrationMethod::Trapezoidal => {
                    2.0 * c.farads / h * (v_new - v_prev) - prev_cap_currents[idx]
                }
            };
        }
    }
}

/// Stamps a voltage-controlled current source into an arbitrary matrix sink:
/// a current `g * (V_cp - V_cn)` leaves node `out_of` and enters node `into`.
/// Node arguments are circuit node indices (0 = ground, skipped); the sink
/// receives unknown indices. Also serves the MOSFET output conductance,
/// where the controlling and conducting node pairs coincide.
fn stamp_vccs_with<AM: FnMut(usize, usize, f64)>(
    add_m: &mut AM,
    out_of: usize,
    into: usize,
    cp: usize,
    cn: usize,
    g: f64,
) {
    for (node, sign) in [(out_of, 1.0), (into, -1.0)] {
        if node == 0 {
            continue;
        }
        if cp != 0 {
            add_m(node - 1, cp - 1, sign * g);
        }
        if cn != 0 {
            add_m(node - 1, cn - 1, -sign * g);
        }
    }
}

/// Stamps a current injection of `amps` into node `into` (out of `out_of`)
/// into an arbitrary RHS sink; ground rows are skipped.
fn stamp_injection_with<AR: FnMut(usize, f64)>(
    add_rhs: &mut AR,
    into: usize,
    out_of: usize,
    amps: f64,
) {
    if into != 0 {
        add_rhs(into - 1, amps);
    }
    if out_of != 0 {
        add_rhs(out_of - 1, -amps);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::Circuit;
    use crate::dc::{dc_operating_point, DcOptions};
    use crate::source::SourceWaveform;

    #[test]
    fn compile_counts_unknowns() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add_vsource("V1", a, Circuit::GROUND, SourceWaveform::dc(1.0));
        ckt.add_resistor("R1", a, b, 10.0);
        ckt.add_inductor("L1", b, Circuit::GROUND, 1e-9);
        ckt.add_capacitor("C1", b, Circuit::GROUND, 1e-12);
        let sys = MnaSystem::compile(&ckt);
        // 2 node voltages + 1 vsource branch + 1 inductor branch
        assert_eq!(sys.num_unknowns(), 4);
        assert_eq!(sys.num_capacitors(), 1);
        // Branch unknowns are assigned in element order: V1 was added first.
        assert_eq!(sys.vsource_branch("V1"), Some(2));
        assert_eq!(sys.vsource_branch("nope"), None);
    }

    #[test]
    fn stamp_nnz_counts_unique_positions() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add_vsource("V1", a, Circuit::GROUND, SourceWaveform::dc(1.0));
        ckt.add_resistor("R1", a, b, 10.0);
        ckt.add_capacitor("C1", b, Circuit::GROUND, 1e-12);
        let sys = MnaSystem::compile(&ckt);
        // Unknowns: va, vb, iV1. Positions: gmin+R+C diagonals (a,a) (b,b),
        // R off-diagonals (a,b) (b,a), vsource rows (a,branch) (branch,a).
        assert_eq!(sys.stamp_nnz(), 6);
        assert_eq!(ckt.node_count(), 2);
        assert_eq!(ckt.stamp_nnz(), 6);
        // Triplets cover the same positions (with duplicates pre-merge).
        let mut triplets = Vec::new();
        sys.transient_triplets(1e-12, IntegrationMethod::Trapezoidal, &mut triplets);
        let mut positions: Vec<(usize, usize)> = triplets.iter().map(|&(i, j, _)| (i, j)).collect();
        positions.sort_unstable();
        positions.dedup();
        assert_eq!(positions.len(), 6);
    }

    #[test]
    fn triplet_assembly_matches_dense_stamp() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        let c = ckt.node("c");
        ckt.add_vsource(
            "V1",
            a,
            Circuit::GROUND,
            SourceWaveform::rising_ramp(0.0, 1e-10, 1.0),
        );
        ckt.add_resistor("R1", a, b, 10.0);
        ckt.add_inductor("L1", b, c, 1e-9);
        ckt.add_capacitor("C1", c, Circuit::GROUND, 1e-12);
        let sys = MnaSystem::compile(&ckt);
        let n = sys.num_unknowns();
        for method in [
            IntegrationMethod::BackwardEuler,
            IntegrationMethod::Trapezoidal,
        ] {
            let h = 5e-13;
            let mut dense = DenseMatrix::zeros(n, n);
            sys.stamp_transient_static(&mut dense, h, method);
            let mut triplets = Vec::new();
            sys.transient_triplets(h, method, &mut triplets);
            let csc = rlc_numeric::CscMatrix::from_triplets(n, &triplets);
            for i in 0..n {
                for j in 0..n {
                    assert!(
                        (dense.get(i, j) - csc.get(i, j)).abs() < 1e-15,
                        "mismatch at ({i}, {j})"
                    );
                }
            }
        }
    }

    #[test]
    fn mosfet_adds_parasitic_capacitors() {
        let mut ckt = Circuit::new();
        let d = ckt.node("d");
        let g = ckt.node("g");
        ckt.add_mosfet(
            "M1",
            d,
            g,
            Circuit::GROUND,
            crate::mosfet::MosfetParams::nmos_018(),
            10e-6,
        );
        let sys = MnaSystem::compile(&ckt);
        assert_eq!(sys.num_capacitors(), 3); // Cgs, Cgd, Cdb
    }

    // The DC stamps, checked through the operating-point solve that
    // assembles them.
    #[test]
    fn dc_voltage_divider_assembles_correctly() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add_vsource("V1", a, Circuit::GROUND, SourceWaveform::dc(2.0));
        ckt.add_resistor("R1", a, b, 1000.0);
        ckt.add_resistor("R2", b, Circuit::GROUND, 1000.0);
        let dc = dc_operating_point(&ckt, DcOptions::default()).unwrap();
        let vb = dc.voltage(b);
        assert!((vb - 1.0).abs() < 1e-6);
        // Source branch current: current into the + terminal is -I(delivered) = -1 mA.
        let i = dc.vsource_current("V1").unwrap();
        assert!((i + 1.0e-3).abs() < 1e-9);
    }

    #[test]
    fn dc_inductor_acts_as_short() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add_vsource("V1", a, Circuit::GROUND, SourceWaveform::dc(1.0));
        ckt.add_inductor("L1", a, b, 1e-9);
        ckt.add_resistor("R1", b, Circuit::GROUND, 100.0);
        let dc = dc_operating_point(&ckt, DcOptions::default()).unwrap();
        assert!((dc.voltage(b) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn current_source_injects_into_to_node() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.add_isource("I1", Circuit::GROUND, a, SourceWaveform::dc(1e-3));
        ckt.add_resistor("R1", a, Circuit::GROUND, 1000.0);
        let dc = dc_operating_point(&ckt, DcOptions::default()).unwrap();
        assert!((dc.voltage(a) - 1.0).abs() < 1e-6);
    }
}
