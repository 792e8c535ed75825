//! Batched variation sweeps: many corner / Monte-Carlo samples of one
//! topology through shared factorizations and panelized solves.
//!
//! A variation sample changes element *values* (R/L/C scale factors, supply
//! level, a temperature-like resistance drift) but never the topology, so
//! across a sweep the MNA sparsity pattern is fixed. This module exploits
//! that three ways:
//!
//! 1. **One compile, one symbolic analysis.** The circuit is compiled to an
//!    [`MnaSystem`] once; per matrix-distinct sample group the compiled
//!    element tables are re-scaled in place and the companion matrix is
//!    refreshed on the fixed sparsity pattern
//!    ([`CscMatrix::revalue_from_triplets`] + [`SparseLu::refactor`]), so the
//!    fill-reducing ordering and reachability analysis are paid once for the
//!    whole sweep.
//! 2. **One factorization per matrix group.** Samples that share the same
//!    effective R/L/C scales (e.g. a supply-only Monte-Carlo, or repeated
//!    draws of one process corner) differ only in their right-hand sides.
//!    They are batched into a panel and pushed through the stored LU with
//!    [`SparseLu::solve_many_prepivoted`] / [`LuFactors::solve_many_into`] —
//!    each factor entry is loaded once per time step for the whole batch,
//!    and on the sparse path the RHS panel is assembled directly in pivotal
//!    row order so the solve performs no permutation passes at all.
//! 3. **Panelized history state.** The capacitor companion-source recurrence
//!    and inductor history are carried lane-major (`state[element * k +
//!    lane]`), so the per-step RHS assembly walks each element table once
//!    with a contiguous inner lane loop.
//!
//! Only probe waveforms are recorded (a full solution history for hundreds
//! of samples would dwarf the simulation cost in memory traffic).

use rlc_numeric::{CscMatrix, DenseMatrix, Diagnostic, LuFactors, SparseLu};

use crate::circuit::{Circuit, NodeId};
use crate::mna::{pivots_healthy, MnaSystem};
use crate::transient::{IntegrationMethod, TransientOptions};
use crate::waveform::Waveform;
use crate::SpiceError;

/// Upper bound on the number of sample lanes solved in one panel. Chunking
/// keeps the three working panels (previous solution, RHS, next solution)
/// cache-resident for large circuits; the factorization is still shared by
/// every chunk of the group.
const MAX_PANEL_LANES: usize = 64;

/// Default per-degree relative resistance drift used to fold
/// [`VariationSpec::temperature_delta`] into the effective resistance scale
/// (a typical interconnect copper coefficient).
pub const DEFAULT_R_TEMP_COEFF: f64 = 0.004;

/// One variation sample: per-element-class scale factors applied to a base
/// circuit.
///
/// All factors are multiplicative and default to the nominal `1.0` (and a
/// `temperature_delta` of zero). The temperature acts on resistances through
/// a linear coefficient: the effective resistance scale is
/// `r_scale * (1 + r_temp_coeff * temperature_delta)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VariationSpec {
    /// Resistance scale factor (every resistor's ohms multiply by this).
    pub r_scale: f64,
    /// Inductance scale factor (self and mutual inductances).
    pub l_scale: f64,
    /// Capacitance scale factor.
    pub c_scale: f64,
    /// Source scale factor: every voltage/current source value (and any
    /// supply-referenced initial condition) multiplies by this — the Vdd
    /// knob.
    pub source_scale: f64,
    /// Temperature excursion from nominal, in degrees.
    pub temperature_delta: f64,
    /// Per-degree relative resistance drift folded into the effective
    /// resistance scale.
    pub r_temp_coeff: f64,
}

impl Default for VariationSpec {
    fn default() -> Self {
        VariationSpec::nominal()
    }
}

impl VariationSpec {
    /// The nominal sample: all scales `1.0`, no temperature excursion.
    pub fn nominal() -> Self {
        VariationSpec {
            r_scale: 1.0,
            l_scale: 1.0,
            c_scale: 1.0,
            source_scale: 1.0,
            temperature_delta: 0.0,
            r_temp_coeff: DEFAULT_R_TEMP_COEFF,
        }
    }

    /// Sets the resistance scale (builder style).
    pub fn with_r_scale(mut self, s: f64) -> Self {
        self.r_scale = s;
        self
    }

    /// Sets the inductance scale (builder style).
    pub fn with_l_scale(mut self, s: f64) -> Self {
        self.l_scale = s;
        self
    }

    /// Sets the capacitance scale (builder style).
    pub fn with_c_scale(mut self, s: f64) -> Self {
        self.c_scale = s;
        self
    }

    /// Sets the source (Vdd) scale (builder style).
    pub fn with_source_scale(mut self, s: f64) -> Self {
        self.source_scale = s;
        self
    }

    /// Sets the temperature excursion in degrees (builder style).
    pub fn with_temperature_delta(mut self, dt: f64) -> Self {
        self.temperature_delta = dt;
        self
    }

    /// Effective resistance scale after folding in the temperature drift.
    pub fn effective_r_scale(&self) -> f64 {
        self.r_scale * (1.0 + self.r_temp_coeff * self.temperature_delta)
    }

    /// Collects every violation in the sample as a lint-style
    /// [`Diagnostic`] (code `L040`, Error severity, locus = the offending
    /// field). An empty list means the sample is valid. Unlike
    /// [`VariationSpec::validate`] this never stops at the first bad field,
    /// so a caller fixing a spec sees the complete damage report at once.
    pub fn diagnostics(&self) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        let positive = [
            ("r_scale", self.r_scale),
            ("l_scale", self.l_scale),
            ("c_scale", self.c_scale),
            ("effective_r_scale", self.effective_r_scale()),
        ];
        for (name, v) in positive {
            if !(v.is_finite() && v > 0.0) {
                out.push(Diagnostic::error(
                    "L040",
                    name,
                    format!("variation {name} must be finite and positive, got {v:e}"),
                ));
            }
        }
        if !(self.source_scale.is_finite() && self.source_scale >= 0.0) {
            out.push(Diagnostic::error(
                "L040",
                "source_scale",
                format!(
                    "variation source_scale must be finite and non-negative, got {:e}",
                    self.source_scale
                ),
            ));
        }
        out
    }

    /// Validates the sample: every scale (including the effective,
    /// temperature-adjusted resistance scale) must be finite and positive,
    /// and the source scale finite and non-negative.
    ///
    /// # Errors
    /// Returns [`SpiceError::InvalidOptions`] listing **every** offending
    /// field (not just the first), built from
    /// [`VariationSpec::diagnostics`].
    pub fn validate(&self) -> Result<(), SpiceError> {
        let diags = self.diagnostics();
        if diags.is_empty() {
            return Ok(());
        }
        let list: Vec<String> = diags.iter().map(|d| d.to_string()).collect();
        Err(SpiceError::InvalidOptions(format!(
            "invalid variation sample ({} violation{}): {}",
            diags.len(),
            if diags.len() == 1 { "" } else { "s" },
            list.join("; ")
        )))
    }

    /// Grouping key: samples with bit-identical effective R/L/C scales share
    /// one companion matrix (and therefore one factorization); they differ
    /// only in their right-hand sides.
    fn matrix_key(&self) -> (u64, u64, u64) {
        (
            self.effective_r_scale().to_bits(),
            self.l_scale.to_bits(),
            self.c_scale.to_bits(),
        )
    }
}

/// Result of a variation sweep: the shared time axis plus, per sample and
/// probe node, the recorded voltage waveform.
#[derive(Debug, Clone)]
pub struct SweepResult {
    times: Vec<f64>,
    num_samples: usize,
    probe_names: Vec<String>,
    /// `values[sample * probes + probe]` is the waveform of that probe.
    values: Vec<Vec<f64>>,
    matrix_groups: usize,
}

impl SweepResult {
    /// Simulated time points (shared by every sample).
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Number of variation samples simulated.
    pub fn num_samples(&self) -> usize {
        self.num_samples
    }

    /// Names of the probed nodes, in probe order.
    pub fn probe_names(&self) -> &[String] {
        &self.probe_names
    }

    /// Number of distinct companion matrices the sweep factorized — the
    /// batching diagnostic (a supply-only sweep reports `1`).
    pub fn matrix_groups(&self) -> usize {
        self.matrix_groups
    }

    /// Raw recorded voltages of one (sample, probe) pair, one value per time
    /// point.
    ///
    /// # Panics
    /// Panics if `sample` or `probe` is out of range.
    pub fn samples(&self, sample: usize, probe: usize) -> &[f64] {
        assert!(sample < self.num_samples, "sample out of range");
        assert!(probe < self.probe_names.len(), "probe out of range");
        &self.values[sample * self.probe_names.len() + probe]
    }

    /// Waveform of one (sample, probe) pair.
    ///
    /// # Panics
    /// Panics if `sample` or `probe` is out of range.
    pub fn waveform(&self, sample: usize, probe: usize) -> Waveform {
        Waveform::new(self.times.clone(), self.samples(sample, probe).to_vec())
    }
}

/// Runner for batched variation sweeps over one linear circuit.
///
/// ```
/// use rlc_spice::prelude::*;
/// use rlc_spice::sweep::{VariationSpec, VariationSweep};
///
/// let mut ckt = Circuit::new();
/// let inp = ckt.node("in");
/// let out = ckt.node("out");
/// ckt.add_vsource("V1", inp, Circuit::GROUND, SourceWaveform::rising_ramp(1.0, 0.0, 1e-11));
/// ckt.add_resistor("R1", inp, out, 100.0);
/// ckt.add_capacitor("C1", out, Circuit::GROUND, 1e-13);
/// ckt.set_initial_condition(inp, 0.0);
///
/// let opts = TransientOptions::try_new(1e-12, 1e-10).unwrap();
/// let specs = [
///     VariationSpec::nominal(),
///     VariationSpec::nominal().with_r_scale(1.2).with_source_scale(0.9),
/// ];
/// let result = VariationSweep::new(opts).run(&ckt, &[out], &specs).unwrap();
/// assert_eq!(result.num_samples(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct VariationSweep {
    options: TransientOptions,
}

impl VariationSweep {
    /// Creates a sweep runner with the given transient options (the time
    /// axis, integration method and initial-state policy apply to every
    /// sample).
    pub fn new(options: TransientOptions) -> Self {
        VariationSweep { options }
    }

    /// Simulates every sample of `specs` on `circuit`, recording the voltage
    /// waveforms of `probes`.
    ///
    /// Samples sharing the same effective R/L/C scales are batched through a
    /// single factorization as a multi-RHS panel; distinct matrices refresh
    /// the values on the fixed sparsity pattern and replay the stored
    /// symbolic analysis. Results are ordered exactly like `specs`.
    ///
    /// # Errors
    /// Returns [`SpiceError::InvalidOptions`] for options that fail
    /// [`TransientOptions::validate`], nonlinear circuits (the batched kernel
    /// requires LTI samples) or invalid specs, and any validation/DC/
    /// singular-matrix error the underlying analysis produces.
    pub fn run(
        &self,
        circuit: &Circuit,
        probes: &[NodeId],
        specs: &[VariationSpec],
    ) -> Result<SweepResult, SpiceError> {
        self.options.validate()?;
        circuit.validate()?;
        for spec in specs {
            spec.validate()?;
        }
        let base = MnaSystem::compile(circuit);
        if !base.is_linear() {
            return Err(SpiceError::InvalidOptions(
                "variation sweeps require a linear circuit (no MOSFETs): the batched \
                 kernel shares one factorization across the sample panel"
                    .to_string(),
            ));
        }
        let opts = &self.options;
        let n = base.num_unknowns();
        let h = opts.time_step;
        let method = opts.method;
        let n_steps = (opts.stop_time / opts.time_step).round() as usize;
        let num_probes = probes.len();

        let probe_names: Vec<String> = probes
            .iter()
            .map(|&p| circuit.node_name(p).to_string())
            .collect();
        let probe_rows: Vec<Option<usize>> =
            probes.iter().map(|&p| base.voltage_unknown(p)).collect();

        let mut values: Vec<Vec<f64>> = (0..specs.len() * num_probes)
            .map(|_| Vec::with_capacity(n_steps + 1))
            .collect();
        let mut times = Vec::with_capacity(n_steps + 1);
        times.push(0.0);
        for step in 1..=n_steps {
            times.push(step as f64 * h);
        }

        // Group sample lanes by companion-matrix identity, preserving
        // first-appearance order so results are deterministic.
        let mut groups: Vec<((u64, u64, u64), Vec<usize>)> = Vec::new();
        for (i, spec) in specs.iter().enumerate() {
            let key = spec.matrix_key();
            match groups.iter_mut().find(|(k, _)| *k == key) {
                Some((_, lanes)) => lanes.push(i),
                None => groups.push((key, vec![i])),
            }
        }
        let matrix_groups = groups.len();

        // Assembly state shared by every group: the triplet buffer, the CSC
        // matrix and its triplet->slot map (pattern fixed across the sweep),
        // and the sparse factorization whose symbolic analysis is reused via
        // refactor.
        let mut triplets: Vec<(usize, usize, f64)> = Vec::new();
        let mut csc = CscMatrix::default();
        let mut slot_map: Vec<usize> = Vec::new();
        let mut sparse = SparseLu::empty();
        let mut pattern_ready = false;
        let mut dense = DenseMatrix::default();
        let mut dense_lu = LuFactors::empty();

        // Panel working state, reused across chunks and groups, and the
        // topology-only RHS assembly plan shared by the whole sweep.
        let mut panel = PanelState::default();
        let sched = build_rhs_schedule(&base, n);

        for (group, (_, lanes)) in groups.iter().enumerate() {
            let spec0 = &specs[lanes[0]];
            let mut sys = base.clone();
            scale_system(&mut sys, spec0);
            let lints = lint_scaled_tables(&sys, group);
            if !lints.is_empty() {
                let list: Vec<String> = lints.iter().map(|d| d.to_string()).collect();
                return Err(SpiceError::InvalidOptions(format!(
                    "variation corner produced a non-physical element table: {}",
                    list.join("; ")
                )));
            }

            // Starting state at nominal source scale; each lane scales it by
            // its own source factor (valid by linearity: the DC solution and
            // any supply-referenced initial condition are homogeneous in the
            // source vector).
            let x0 = opts.initial_state.starting_state(&sys, circuit)?;

            // Factor this group's companion matrix, preferring the sparse
            // symbolic-reuse path and degrading to dense LU on pivot-health
            // failures (mirroring the transient kernel's gate).
            sys.transient_triplets(h, method, &mut triplets);
            let factored = if pattern_ready {
                csc.revalue_from_triplets(&slot_map, &triplets);
                sparse.refactor(&csc).is_ok() || sparse.factor(&csc).is_ok()
            } else {
                csc = CscMatrix::from_triplets(n, &triplets);
                slot_map = csc.triplet_map(&triplets);
                pattern_ready = true;
                sparse.factor(&csc).is_ok()
            };
            let sparse_ok = factored && pivots_healthy(sparse.pivot_extremes().0, csc.max_abs());
            if !sparse_ok {
                sys.stamp_transient_static(&mut dense, h, method);
                dense
                    .factor_into(&mut dense_lu)
                    .map_err(|_| SpiceError::SingularMatrix { time: Some(h) })?;
            }

            // Sparse groups assemble the RHS panel directly in pivotal row
            // order so the solve never permutes; dense groups use the
            // identity map. Cloned per group: a refactor fallback to a full
            // factorization may re-pivot.
            let row_map: Vec<usize> = if sparse_ok {
                sparse.row_permutation().to_vec()
            } else {
                (0..n).collect()
            };

            for chunk in lanes.chunks(MAX_PANEL_LANES) {
                let k = chunk.len();
                let scales: Vec<f64> = chunk.iter().map(|&i| specs[i].source_scale).collect();
                panel.prepare(n, sys.num_capacitors(), k);

                // Seed the panel: lane j starts at x0 * its source scale.
                for (row, &base_v) in x0.iter().enumerate().take(n) {
                    for (lane, &s) in scales.iter().enumerate() {
                        panel.prev[row * k + lane] = base_v * s;
                    }
                }
                record_panel(&mut values, &panel.prev, chunk, &probe_rows, num_probes, k);
                init_cap_ieq_panel(&sys, h, method, &panel.prev, &mut panel.cap_ieq, k);

                for step in 1..=n_steps {
                    let t = step as f64 * h;
                    rhs_panel(&sys, t, h, method, &scales, &mut panel, &sched, &row_map);
                    if sparse_ok {
                        // The RHS panel is rebuilt from scratch next step
                        // (in pivotal row order), so the solve consumes it
                        // as its working buffer with no permutation pass.
                        sparse.solve_many_prepivoted(&mut panel.rhs, &mut panel.next, k);
                    } else {
                        dense_lu.solve_many_into(&panel.rhs, &mut panel.next, k);
                    }
                    record_panel(&mut values, &panel.next, chunk, &probe_rows, num_probes, k);
                    std::mem::swap(&mut panel.prev, &mut panel.next);
                }
            }
        }

        Ok(SweepResult {
            times,
            num_samples: specs.len(),
            probe_names,
            values,
            matrix_groups,
        })
    }
}

/// Lints the scaled compiled element tables of one matrix group: every
/// conductance, capacitance and (self) inductance must still be finite and
/// positive after the corner's scale factors applied — a huge `r_scale` can
/// underflow a conductance to zero, an overflowing product goes infinite.
/// Emitted as code `L041` so a corner cannot push a value non-passive
/// unnoticed; runs once per matrix group, not per sample.
fn lint_scaled_tables(sys: &MnaSystem, group: usize) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let locus = format!("matrix group {group}");
    let mut check = |kind: &str, index: usize, value: f64| {
        if !(value.is_finite() && value > 0.0) {
            out.push(Diagnostic::error(
                "L041",
                locus.clone(),
                format!("scaled {kind} #{index} became non-passive: {value:e}"),
            ));
        }
    };
    for (i, r) in sys.resistors.iter().enumerate() {
        check("resistor conductance", i, r.conductance);
    }
    for (i, c) in sys.capacitors.iter().enumerate() {
        check("capacitance", i, c.farads);
    }
    for (i, l) in sys.inductors.iter().enumerate() {
        check("inductance", i, l.henries);
    }
    for (i, m) in sys.mutuals.iter().enumerate() {
        let v = m.henries;
        if !(v.is_finite() && v != 0.0) {
            out.push(Diagnostic::error(
                "L041",
                locus.clone(),
                format!("scaled mutual inductance #{i} became degenerate: {v:e}"),
            ));
        }
    }
    out
}

/// Scales the compiled element tables of `sys` in place according to `spec`.
/// Resistor tables store conductance, so the resistance scale divides.
fn scale_system(sys: &mut MnaSystem, spec: &VariationSpec) {
    let r = spec.effective_r_scale();
    for res in sys.resistors.iter_mut() {
        res.conductance /= r;
    }
    for c in sys.capacitors.iter_mut() {
        c.farads *= spec.c_scale;
    }
    for l in sys.inductors.iter_mut() {
        l.henries *= spec.l_scale;
    }
    for m in sys.mutuals.iter_mut() {
        m.henries *= spec.l_scale;
    }
}

/// Lane-major panel state for the batched time loop.
#[derive(Debug, Default)]
struct PanelState {
    /// Previous solution, `n * k`.
    prev: Vec<f64>,
    /// Next solution, `n * k`.
    next: Vec<f64>,
    /// Right-hand sides, `n * k`.
    rhs: Vec<f64>,
    /// Capacitor companion-source state, `num_capacitors * k`.
    cap_ieq: Vec<f64>,
    /// Per-element lane scratch, `k`.
    scratch: Vec<f64>,
}

impl PanelState {
    fn prepare(&mut self, n: usize, num_capacitors: usize, k: usize) {
        self.prev.clear();
        self.prev.resize(n * k, 0.0);
        self.next.clear();
        self.next.resize(n * k, 0.0);
        self.rhs.clear();
        self.rhs.resize(n * k, 0.0);
        self.cap_ieq.clear();
        self.cap_ieq.resize(num_capacitors * k, 0.0);
        self.scratch.clear();
        self.scratch.resize(k, 0.0);
    }
}

/// Writes the panel voltage difference `v(a) - v(b)` of every lane into
/// `out`. Node index 0 is ground.
fn panel_vdiff(x: &[f64], a: usize, b: usize, k: usize, out: &mut [f64]) {
    match (a, b) {
        (0, 0) => out.fill(0.0),
        (a, 0) => out.copy_from_slice(&x[(a - 1) * k..a * k]),
        (0, b) => {
            for (o, &v) in out.iter_mut().zip(&x[(b - 1) * k..b * k]) {
                *o = -v;
            }
        }
        (a, b) => {
            let (ra, rb) = (&x[(a - 1) * k..a * k], &x[(b - 1) * k..b * k]);
            for ((o, &va), &vb) in out.iter_mut().zip(ra).zip(rb) {
                *o = va - vb;
            }
        }
    }
}

/// Adds the lane currents of `amps` into node `into` and out of node
/// `out_of` (ground rows are dropped), lane by lane. `first` flags mark
/// rows this element writes *first* in assembly order: those lanes are
/// overwritten instead of accumulated, which lets [`rhs_panel`] skip
/// zero-filling the whole panel every step.
fn panel_inject(
    rhs: &mut [f64],
    into: usize,
    out_of: usize,
    k: usize,
    amps: &[f64],
    first: (bool, bool),
    row_map: &[usize],
) {
    if into != 0 {
        let r = row_map[into - 1] * k;
        let row = &mut rhs[r..r + k];
        if first.0 {
            for (r, &a) in row.iter_mut().zip(amps) {
                *r = a;
            }
        } else {
            for (r, &a) in row.iter_mut().zip(amps) {
                *r += a;
            }
        }
    }
    if out_of != 0 {
        let r = row_map[out_of - 1] * k;
        let row = &mut rhs[r..r + k];
        if first.1 {
            for (r, &a) in row.iter_mut().zip(amps) {
                *r = -a;
            }
        } else {
            for (r, &a) in row.iter_mut().zip(amps) {
                *r -= a;
            }
        }
    }
}

/// Precomputed assembly plan for [`rhs_panel`]: per capacitor / current
/// source, whether it is the *first* writer of its two RHS rows (and may
/// overwrite instead of accumulate), plus the rows no element ever writes
/// (which must be re-zeroed each step because the in-place panel solve
/// consumes the RHS buffer as scratch). Node rows are fed only by
/// capacitor and current-source injections; branch rows only by the
/// inductor / mutual / voltage-source loops, which already overwrite.
/// The plan depends only on the compiled topology, so one serves every
/// group and chunk of a sweep.
struct RhsSchedule {
    cap_first: Vec<(bool, bool)>,
    isrc_first: Vec<(bool, bool)>,
    zero_rows: Vec<usize>,
}

fn build_rhs_schedule(sys: &MnaSystem, n: usize) -> RhsSchedule {
    let mut written = vec![false; n];
    fn claim(written: &mut [bool], node: usize) -> bool {
        if node == 0 {
            return false;
        }
        let first = !written[node - 1];
        written[node - 1] = true;
        first
    }
    let cap_first = sys
        .capacitors
        .iter()
        .map(|c| (claim(&mut written, c.a), claim(&mut written, c.b)))
        .collect();
    for l in sys.inductors.iter() {
        written[l.branch] = true;
    }
    for v in sys.vsources.iter() {
        written[v.branch] = true;
    }
    let isrc_first = sys
        .isources
        .iter()
        .map(|i| (claim(&mut written, i.to), claim(&mut written, i.from)))
        .collect();
    let zero_rows = (0..n).filter(|&r| !written[r]).collect();
    RhsSchedule {
        cap_first,
        isrc_first,
        zero_rows,
    }
}

/// Panelized [`MnaSystem::init_cap_ieq`]: `ieq_0 = g * v_0` per capacitor
/// and lane.
fn init_cap_ieq_panel(
    sys: &MnaSystem,
    h: f64,
    method: IntegrationMethod,
    x0: &[f64],
    cap_ieq: &mut [f64],
    k: usize,
) {
    for (idx, c) in sys.capacitors.iter().enumerate() {
        let g = match method {
            IntegrationMethod::BackwardEuler => c.farads / h,
            IntegrationMethod::Trapezoidal => 2.0 * c.farads / h,
        };
        let state = &mut cap_ieq[idx * k..(idx + 1) * k];
        panel_vdiff(x0, c.a, c.b, k, state);
        for s in state.iter_mut() {
            *s *= g;
        }
    }
}

/// Panelized [`MnaSystem::transient_rhs_fused`]: one pass over the element
/// tables builds the RHS of every lane, carrying the capacitor
/// companion-source recurrence as lane-major state and scaling source values
/// by each lane's source factor.
#[allow(clippy::too_many_arguments)]
fn rhs_panel(
    sys: &MnaSystem,
    t: f64,
    h: f64,
    method: IntegrationMethod,
    source_scales: &[f64],
    panel: &mut PanelState,
    sched: &RhsSchedule,
    row_map: &[usize],
) {
    let k = source_scales.len();
    let prev = &panel.prev;
    let rhs = &mut panel.rhs;
    let cap_state = &mut panel.cap_ieq;
    let ieq = &mut panel.scratch;
    for &row in sched.zero_rows.iter() {
        let r = row_map[row] * k;
        rhs[r..r + k].fill(0.0);
    }

    for (idx, c) in sys.capacitors.iter().enumerate() {
        // Fast path for the dominant extracted-netlist shape — a grounded
        // capacitor that writes its node row first: recurrence and
        // injection fuse into one pass with no staging lane.
        if matches!(method, IntegrationMethod::Trapezoidal)
            && c.a != 0
            && c.b == 0
            && sched.cap_first[idx].0
        {
            let g2 = 2.0 * (2.0 * c.farads / h);
            let state = &mut cap_state[idx * k..(idx + 1) * k];
            let pa = &prev[(c.a - 1) * k..c.a * k];
            let r = row_map[c.a - 1] * k;
            let out = &mut rhs[r..r + k];
            for ((s, &v), o) in state.iter_mut().zip(pa).zip(out.iter_mut()) {
                let next = g2 * v - *s;
                *s = next;
                *o = next;
            }
            continue;
        }
        panel_vdiff(prev, c.a, c.b, k, ieq);
        match method {
            IntegrationMethod::BackwardEuler => {
                let g = c.farads / h;
                for v in ieq.iter_mut() {
                    *v *= g;
                }
            }
            IntegrationMethod::Trapezoidal => {
                // ieq_{k+1} = 2*g*v_k - ieq_k with g = 2C/h.
                let g2 = 2.0 * (2.0 * c.farads / h);
                let state = &mut cap_state[idx * k..(idx + 1) * k];
                for (v, s) in ieq.iter_mut().zip(state.iter_mut()) {
                    let next = g2 * *v - *s;
                    *s = next;
                    *v = next;
                }
            }
        }
        panel_inject(rhs, c.a, c.b, k, ieq, sched.cap_first[idx], row_map);
    }

    for l in sys.inductors.iter() {
        let i_prev = &prev[l.branch * k..(l.branch + 1) * k];
        let out_row = row_map[l.branch] * k;
        let out = &mut rhs[out_row..out_row + k];
        match method {
            IntegrationMethod::BackwardEuler => {
                let z = l.henries / h;
                for (o, &i) in out.iter_mut().zip(i_prev) {
                    *o = -z * i;
                }
            }
            IntegrationMethod::Trapezoidal => {
                // `out = -z*i_prev - (v(a) - v(b))`, with the voltage
                // difference read straight from `prev` (no staging lane).
                let z = 2.0 * l.henries / h;
                match (l.a, l.b) {
                    (0, 0) => {
                        for (o, &i) in out.iter_mut().zip(i_prev) {
                            *o = -z * i;
                        }
                    }
                    (a, 0) => {
                        let pa = &prev[(a - 1) * k..a * k];
                        for ((o, &i), &va) in out.iter_mut().zip(i_prev).zip(pa) {
                            *o = -z * i - va;
                        }
                    }
                    (0, b) => {
                        let pb = &prev[(b - 1) * k..b * k];
                        for ((o, &i), &vb) in out.iter_mut().zip(i_prev).zip(pb) {
                            *o = -z * i + vb;
                        }
                    }
                    (a, b) => {
                        let pa = &prev[(a - 1) * k..a * k];
                        let pb = &prev[(b - 1) * k..b * k];
                        for (((o, &i), &va), &vb) in out.iter_mut().zip(i_prev).zip(pa).zip(pb) {
                            *o = -z * i - (va - vb);
                        }
                    }
                }
            }
        }
    }
    for m in sys.mutuals.iter() {
        let z_m = match method {
            IntegrationMethod::BackwardEuler => m.henries / h,
            IntegrationMethod::Trapezoidal => 2.0 * m.henries / h,
        };
        // Each branch row picks up the *other* branch's previous current;
        // RHS rows go through `row_map`, `prev` stays in original order.
        let (ra, rb) = (row_map[m.branch_a], row_map[m.branch_b]);
        let (lo, hi, lo_other, hi_other) = if ra < rb {
            (ra, rb, m.branch_b, m.branch_a)
        } else {
            (rb, ra, m.branch_a, m.branch_b)
        };
        let (head, tail) = rhs.split_at_mut(hi * k);
        let row_lo = &mut head[lo * k..(lo + 1) * k];
        let row_hi = &mut tail[..k];
        let prev_for_lo = &prev[lo_other * k..(lo_other + 1) * k];
        let prev_for_hi = &prev[hi_other * k..(hi_other + 1) * k];
        for ((r, &p_lo), (r2, &p_hi)) in row_lo
            .iter_mut()
            .zip(prev_for_lo)
            .zip(row_hi.iter_mut().zip(prev_for_hi))
        {
            *r -= z_m * p_lo;
            *r2 -= z_m * p_hi;
        }
    }
    for v in sys.vsources.iter() {
        let value = v.waveform.value_at(t);
        let out_row = row_map[v.branch] * k;
        let out = &mut rhs[out_row..out_row + k];
        for (o, &s) in out.iter_mut().zip(source_scales) {
            *o = value * s;
        }
    }
    for (idx, i) in sys.isources.iter().enumerate() {
        let value = i.waveform.value_at(t);
        let amps = &mut ieq[..k];
        for (a, &s) in amps.iter_mut().zip(source_scales) {
            *a = value * s;
        }
        panel_inject(rhs, i.to, i.from, k, amps, sched.isrc_first[idx], row_map);
    }
}

/// Appends the probed lane values of the current panel solution to the
/// per-(sample, probe) output vectors.
fn record_panel(
    values: &mut [Vec<f64>],
    x: &[f64],
    chunk: &[usize],
    probe_rows: &[Option<usize>],
    num_probes: usize,
    k: usize,
) {
    for (probe, row) in probe_rows.iter().enumerate() {
        match row {
            Some(idx) => {
                for (lane, &sample) in chunk.iter().enumerate() {
                    values[sample * num_probes + probe].push(x[idx * k + lane]);
                }
            }
            None => {
                for &sample in chunk {
                    values[sample * num_probes + probe].push(0.0);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceWaveform;
    use crate::transient::{IntegrationMethod, TransientAnalysis};

    /// An RLC ladder whose element values (and source amplitude) are already
    /// scaled — the hand-rolled reference a sweep sample must match.
    fn scaled_ladder(segments: usize, spec: &VariationSpec) -> Circuit {
        let mut ckt = Circuit::new();
        let src = ckt.node("src");
        ckt.add_vsource(
            "V1",
            src,
            Circuit::GROUND,
            SourceWaveform::rising_ramp(1.0 * spec.source_scale, 0.0, 5e-11),
        );
        let r_per = 72.44 / segments as f64 * 5.0 * spec.effective_r_scale();
        let l_per = 5e-12 / segments as f64 * spec.l_scale;
        let c_per = 1.1e-12 / segments as f64 * spec.c_scale;
        let mut prev = src;
        for i in 0..segments {
            let mid = ckt.node(&format!("m{i}"));
            let node = ckt.node(&format!("n{i}"));
            ckt.add_resistor(format!("R{i}"), prev, mid, r_per);
            ckt.add_inductor(format!("L{i}"), mid, node, l_per);
            ckt.add_capacitor(format!("C{i}"), node, Circuit::GROUND, c_per);
            prev = node;
        }
        ckt.set_initial_condition(src, 0.0);
        ckt
    }

    fn far_node(ckt: &Circuit, segments: usize) -> NodeId {
        ckt.find_node(&format!("n{}", segments - 1)).unwrap()
    }

    fn test_specs() -> Vec<VariationSpec> {
        let mut specs = Vec::new();
        for i in 0..16 {
            let corner = i % 4;
            let (r, c) = match corner {
                0 => (1.0, 1.0),
                1 => (1.15, 0.9),
                2 => (0.85, 1.1),
                _ => (1.1, 1.12),
            };
            specs.push(
                VariationSpec::nominal()
                    .with_r_scale(r)
                    .with_c_scale(c)
                    .with_source_scale(0.9 + 0.02 * (i / 4) as f64)
                    .with_temperature_delta(if corner == 3 { 25.0 } else { 0.0 }),
            );
        }
        specs
    }

    fn options() -> TransientOptions {
        TransientOptions::try_new(1e-12, 4e-10).unwrap()
    }

    /// Sweep lanes must match hand-rolled independent runs of pre-scaled
    /// circuits within 1e-9 V — the dense degrade: a floating node carries
    /// only the gmin stamp, so every group's sparse factorization fails the
    /// pivot-health gate and the sweep falls back to dense LU.
    #[test]
    fn sweep_matches_independent_runs_dense() {
        sweep_parity_case(12, true);
    }

    /// The sparse path, which also exercises the revalue + refactor symbolic
    /// reuse across matrix groups.
    #[test]
    fn sweep_matches_independent_runs_sparse() {
        sweep_parity_case(64, false);
    }

    fn sweep_parity_case(segments: usize, floating_node: bool) {
        let ladder = |spec: &VariationSpec| {
            let mut ckt = scaled_ladder(segments, spec);
            if floating_node {
                ckt.node("floating");
            }
            ckt
        };
        let specs = test_specs();
        let base = ladder(&VariationSpec::nominal());
        let probe = far_node(&base, segments);
        let result = VariationSweep::new(options())
            .run(&base, &[probe], &specs)
            .unwrap();
        assert_eq!(result.num_samples(), specs.len());
        assert_eq!(result.matrix_groups(), 4);

        for (i, spec) in specs.iter().enumerate() {
            let ckt = ladder(spec);
            let reference = TransientAnalysis::new(options()).run(&ckt).unwrap();
            let want = reference.waveform(far_node(&ckt, segments));
            let got = result.samples(i, 0);
            assert_eq!(got.len(), want.values().len());
            for (step, (&g, &w)) in got.iter().zip(want.values()).enumerate() {
                assert!(
                    (g - w).abs() <= 1e-9,
                    "segments={segments} sample {i} step {step}: {g} vs {w}"
                );
            }
        }
    }

    /// Backward Euler goes through the other companion/recurrence branch.
    #[test]
    fn sweep_parity_backward_euler() {
        let specs = test_specs()[..6].to_vec();
        let opts = TransientOptions::try_new(1e-12, 2e-10)
            .unwrap()
            .with_method(IntegrationMethod::BackwardEuler);
        let base = scaled_ladder(10, &VariationSpec::nominal());
        let probe = far_node(&base, 10);
        let result = VariationSweep::new(opts.clone())
            .run(&base, &[probe], &specs)
            .unwrap();
        for (i, spec) in specs.iter().enumerate() {
            let ckt = scaled_ladder(10, spec);
            let reference = TransientAnalysis::new(opts.clone()).run(&ckt).unwrap();
            let want = reference.waveform(far_node(&ckt, 10));
            for (step, (&g, &w)) in result.samples(i, 0).iter().zip(want.values()).enumerate() {
                assert!((g - w).abs() <= 1e-9, "sample {i} step {step}: {g} vs {w}");
            }
        }
    }

    /// A supply-only sweep shares one matrix: the whole batch goes through a
    /// single factorization.
    #[test]
    fn supply_only_sweep_uses_one_matrix_group() {
        let base = scaled_ladder(8, &VariationSpec::nominal());
        let probe = far_node(&base, 8);
        let specs: Vec<VariationSpec> = (0..9)
            .map(|i| VariationSpec::nominal().with_source_scale(0.8 + 0.05 * i as f64))
            .collect();
        let result = VariationSweep::new(options())
            .run(&base, &[probe], &specs)
            .unwrap();
        assert_eq!(result.matrix_groups(), 1);
        // By linearity, each lane is the nominal waveform times its scale.
        let nominal = result.samples(4, 0).to_vec();
        for (i, spec) in specs.iter().enumerate() {
            for (step, &v) in result.samples(i, 0).iter().enumerate() {
                let want = nominal[step] / specs[4].source_scale * spec.source_scale;
                assert!(
                    (v - want).abs() <= 1e-9,
                    "lane {i} step {step}: {v} vs {want}"
                );
            }
        }
    }

    /// Chunking must not change results: more lanes than MAX_PANEL_LANES in
    /// one group still match the per-sample references.
    #[test]
    fn chunked_panels_match_references() {
        let base = scaled_ladder(6, &VariationSpec::nominal());
        let probe = far_node(&base, 6);
        let specs: Vec<VariationSpec> = (0..MAX_PANEL_LANES + 7)
            .map(|i| VariationSpec::nominal().with_source_scale(0.5 + 0.005 * i as f64))
            .collect();
        let opts = TransientOptions::try_new(1e-12, 1e-10).unwrap();
        let result = VariationSweep::new(opts.clone())
            .run(&base, &[probe], &specs)
            .unwrap();
        for i in [0, MAX_PANEL_LANES - 1, MAX_PANEL_LANES, specs.len() - 1] {
            let ckt = scaled_ladder(6, &specs[i]);
            let reference = TransientAnalysis::new(opts.clone()).run(&ckt).unwrap();
            let want = reference.waveform(far_node(&ckt, 6));
            for (step, (&g, &w)) in result.samples(i, 0).iter().zip(want.values()).enumerate() {
                assert!((g - w).abs() <= 1e-9, "lane {i} step {step}");
            }
        }
    }

    #[test]
    fn nonlinear_circuits_are_rejected() {
        use crate::mosfet::MosfetParams;
        let mut ckt = Circuit::new();
        let d = ckt.node("d");
        let g = ckt.node("g");
        ckt.add_vsource("V1", g, Circuit::GROUND, SourceWaveform::dc(1.0));
        ckt.add_resistor("R1", d, Circuit::GROUND, 1e3);
        ckt.add_mosfet("M1", d, g, Circuit::GROUND, MosfetParams::nmos_018(), 1.0);
        let err = VariationSweep::new(options())
            .run(&ckt, &[d], &[VariationSpec::nominal()])
            .unwrap_err();
        assert!(matches!(err, SpiceError::InvalidOptions(_)));
    }

    #[test]
    fn invalid_specs_are_rejected() {
        let base = scaled_ladder(4, &VariationSpec::nominal());
        let bad = VariationSpec::nominal().with_r_scale(-1.0);
        assert!(bad.validate().is_err());
        let err = VariationSweep::new(options())
            .run(&base, &[], &[bad])
            .unwrap_err();
        assert!(matches!(err, SpiceError::InvalidOptions(_)));
        // Temperature drift that drives the effective resistance negative.
        let frozen = VariationSpec::nominal().with_temperature_delta(-1e6);
        assert!(frozen.validate().is_err());
    }

    #[test]
    fn empty_sweep_is_empty() {
        let base = scaled_ladder(4, &VariationSpec::nominal());
        let probe = far_node(&base, 4);
        let result = VariationSweep::new(options())
            .run(&base, &[probe], &[])
            .unwrap();
        assert_eq!(result.num_samples(), 0);
        assert_eq!(result.matrix_groups(), 0);
    }

    #[test]
    fn ground_probe_records_zeros() {
        let base = scaled_ladder(4, &VariationSpec::nominal());
        let result = VariationSweep::new(options())
            .run(&base, &[Circuit::GROUND], &[VariationSpec::nominal()])
            .unwrap();
        assert!(result.samples(0, 0).iter().all(|&v| v == 0.0));
        assert_eq!(result.probe_names()[0], "0");
    }
}
