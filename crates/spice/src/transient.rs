//! Fixed-step transient analysis with Newton–Raphson at every time point.
//!
//! # Kernel strategies
//!
//! Under a fixed step the companion-model MNA matrix of a linear (no-MOSFET)
//! circuit is time-invariant, so every linear circuit is LU-factorized
//! **once per run** by the fill-reducing [`SparseLu`], and each time step
//! only rebuilds the right-hand side from the source waveforms and the
//! capacitor/inductor history before the triangular solves. Each run factors
//! afresh, so its waveforms depend on the circuit alone, never on what the
//! workspace ran before. Nonlinear circuits use a split-stamp Newton loop:
//! the static (R/L/C/source) stamps are cached once and each iteration
//! copies the cache and adds only the MOSFET linearizations. All kernels run
//! out of a reusable [`TransientWorkspace`], so the inner loop performs no
//! heap allocation. Dense LU serves linear circuits only as the target a
//! near-singular sparse stamp degrades to, and as the explicit references
//! ([`KernelStrategy::FactorOnce`], [`KernelStrategy::LegacyFull`]) that
//! parity tests and benchmarks compare against.
//!
//! # Stopping at the last measured crossing
//!
//! Every kernel is causal on the fixed grid `t = k·h`: the solution at step
//! `k` depends only on the circuit, the options and steps `0..k`, never on
//! the stop time. [`TransientAnalysis::run_until`] exploits that for runs
//! whose only outputs are first crossings (a 50 % delay, a 10–90 % slew): it
//! ends the run after the step on which the last watched [`Crossing`]
//! occurs. Its result is a prefix of the full-window run, equal to it bit for
//! bit (`f64::to_bits`) on every sample it holds, so every first crossing it
//! contains measures exactly what the full window would have measured.
//! [`TransientAnalysis::run_with`] is `run_until` with nothing to watch.
//!
//! # Fast-forwarding the quiescent prefix
//!
//! A far-end handoff drives its line with a ramp placed at absolute path
//! time, so its run starts at rest, waiting for the driver to switch. While
//! the starting state and every source are exactly zero, a step solves a
//! zero system to a zero solution, so the linear kernels record those steps
//! as zero rows without solving them ([`TransientAnalysis::run_until`]
//! states the rule, [`TransientResult::quiescent_steps`] counts the skipped
//! steps). Only the sign of those zeros can differ from a solve.

use std::collections::HashMap;
use std::sync::Arc;

use rlc_numeric::interp::crosses_on_step;
use rlc_numeric::{CscMatrix, DenseMatrix, LuFactors, SparseLu};

use crate::circuit::{Circuit, NodeId};
use crate::dc::{dc_solve_compiled, DcOptions};
use crate::mna::{CompanionMethod, MnaSystem};
use crate::mosfet::MosfetEvalCache;
use crate::waveform::Waveform;
use crate::SpiceError;

/// Most `f64` values a run may reserve for its trace up front: a time and a
/// solution vector per step, `(steps + 1) × (unknowns + 1)` values, 1 GiB.
/// Far above every run the workspace makes: the largest, a 1 800-unknown
/// tree far end over 9 200 steps, holds ~17 M values, and a 1 nF driver Rs
/// extraction ~13 M. A window beyond it, such as a 1 µF Rs extraction's
/// ~13 G values, is refused before anything is allocated.
const TRACE_VALUE_BUDGET: usize = 1 << 27;

/// Integration method for the transient companion models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IntegrationMethod {
    /// Trapezoidal rule (default): second-order accurate, preserves the
    /// LC ringing that produces the transmission-line kinks being studied.
    #[default]
    Trapezoidal,
    /// Backward Euler: first-order, numerically damped; useful as a
    /// cross-check and for stiff start-up transients.
    BackwardEuler,
}

impl IntegrationMethod {
    pub(crate) fn companion(self) -> CompanionMethod {
        match self {
            IntegrationMethod::Trapezoidal => CompanionMethod::Trapezoidal,
            IntegrationMethod::BackwardEuler => CompanionMethod::BackwardEuler,
        }
    }
}

/// How the transient analysis obtains its starting state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InitialState {
    /// Run a DC operating point first unless the circuit carries explicit
    /// initial conditions (the SPICE "UIC when ICs are present" behaviour).
    #[default]
    Auto,
    /// Always run a DC operating point.
    DcOperatingPoint,
    /// Use the circuit's initial conditions (unspecified nodes start at 0 V).
    UseInitialConditions,
}

/// Which simulation kernel executes the time loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelStrategy {
    /// Pick automatically: [`KernelStrategy::Sparse`] for every linear
    /// circuit, [`KernelStrategy::SplitStamp`] otherwise. The default.
    #[default]
    Auto,
    /// Dense factor-once LTI path: assemble and LU-factorize the dense
    /// companion matrix once, then only rebuild the RHS and back-substitute
    /// per step. Requires a linear circuit (no MOSFETs). `Auto` never picks
    /// it: it is the target a near-singular sparse stamp degrades to, and
    /// the dense reference the sparse kernel is compared against.
    FactorOnce,
    /// Sparse factor-once LTI path: assemble the companion matrix in
    /// compressed-sparse-column form and factorize it once with the
    /// fill-reducing sparse LU ([`rlc_numeric::SparseLu`]); per step only
    /// the RHS is rebuilt and the triangular solves run over the factor
    /// nonzeros. Every run factors afresh, so a reused workspace yields
    /// bit-identical waveforms to a fresh one. Requires a linear circuit;
    /// near-singular stamps degrade to the dense
    /// [`KernelStrategy::FactorOnce`] path automatically (the executed
    /// kernel is recorded in [`TransientResult::strategy`]).
    Sparse,
    /// Split-stamp Newton: cache the static (R/L/C/source) stamps once, and
    /// per Newton iteration copy the cache and stamp only the MOSFET
    /// linearizations. Allocation-free; valid for any circuit.
    SplitStamp,
    /// The legacy kernel: rebuild and factorize the full matrix from scratch
    /// at every Newton iteration of every time point. Kept as the reference
    /// for parity tests and before/after benchmarking.
    LegacyFull,
}

/// Options for a transient run.
#[derive(Debug, Clone, PartialEq)]
pub struct TransientOptions {
    /// Fixed time step (seconds).
    pub time_step: f64,
    /// Stop time (seconds).
    pub stop_time: f64,
    /// Integration method.
    pub method: IntegrationMethod,
    /// Starting-state policy.
    pub initial_state: InitialState,
    /// Simulation kernel selection.
    pub strategy: KernelStrategy,
    /// Maximum Newton iterations per time point.
    pub max_newton_iterations: usize,
    /// Convergence tolerance on voltage updates (volts).
    pub voltage_tolerance: f64,
    /// Largest allowed voltage change per Newton iteration (volts).
    pub step_limit: f64,
}

impl TransientOptions {
    /// Creates options with the given step and stop time and default
    /// tolerances.
    ///
    /// # Errors
    /// Returns [`SpiceError::InvalidOptions`] if `time_step <= 0`,
    /// `stop_time <= 0` (including NaN), or `stop_time < time_step`.
    pub fn try_new(time_step: f64, stop_time: f64) -> Result<Self, SpiceError> {
        if !(time_step > 0.0 && stop_time > 0.0) {
            return Err(SpiceError::InvalidOptions(format!(
                "times must be positive: time_step = {time_step:e}, stop_time = {stop_time:e}"
            )));
        }
        if stop_time < time_step {
            return Err(SpiceError::InvalidOptions(format!(
                "stop time shorter than one step: stop_time = {stop_time:e}, time_step = {time_step:e}"
            )));
        }
        Ok(TransientOptions {
            time_step,
            stop_time,
            method: IntegrationMethod::default(),
            initial_state: InitialState::default(),
            strategy: KernelStrategy::default(),
            max_newton_iterations: 100,
            voltage_tolerance: 1e-6,
            step_limit: 1.0,
        })
    }

    /// Sets the integration method (builder style).
    pub fn with_method(mut self, method: IntegrationMethod) -> Self {
        self.method = method;
        self
    }

    /// Sets the starting-state policy (builder style).
    pub fn with_initial_state(mut self, initial_state: InitialState) -> Self {
        self.initial_state = initial_state;
        self
    }

    /// Sets the kernel strategy (builder style).
    pub fn with_strategy(mut self, strategy: KernelStrategy) -> Self {
        self.strategy = strategy;
        self
    }
}

/// Reusable buffers for the transient kernels: the work and cached-static
/// matrices, the stored LU factorization, the RHS/solution/history vectors.
///
/// Creating a workspace is cheap; its value is reuse. Repeated runs — a
/// characterization grid, the batches issued by an analysis backend — hand
/// the same workspace to [`TransientAnalysis::run_with`] so every run after
/// the first performs no kernel allocation at all.
#[derive(Debug, Clone, Default)]
pub struct TransientWorkspace {
    matrix: DenseMatrix,
    static_matrix: DenseMatrix,
    lu: LuFactors,
    rhs: Vec<f64>,
    rhs_base: Vec<f64>,
    x_new: Vec<f64>,
    prev_x: Vec<f64>,
    prev2_x: Vec<f64>,
    guess: Vec<f64>,
    cap_currents: Vec<f64>,
    cap_ieq: Vec<f64>,
    // Sparse-kernel state: the triplet assembly buffer and the sparse
    // factorization.
    triplets: Vec<(usize, usize, f64)>,
    sparse_lu: SparseLu,
    // Per-device overdrive caches for the MOSFET evaluations.
    eval_caches: Vec<MosfetEvalCache>,
    // Woodbury rank-update state: W = A0^{-1} U (one row per update row),
    // the per-iteration update rows V / Δb, the unknown→update-row map and
    // the small capacitance-equation system S = I + V W^T.
    w_rows: DenseMatrix,
    y_base: Vec<f64>,
    delta: DenseMatrix,
    delta_rhs: Vec<f64>,
    row_map: Vec<usize>,
    s: DenseMatrix,
    s_lu: LuFactors,
    s_rhs: Vec<f64>,
    s_sol: Vec<f64>,
}

impl TransientWorkspace {
    /// Creates an empty workspace; buffers are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }

    // The dense matrices are left alone: only the dense kernels read them,
    // and they size them as they stamp.
    fn prepare(&mut self, n: usize, num_capacitors: usize, num_mosfets: usize) {
        self.rhs.clear();
        self.rhs.resize(n, 0.0);
        self.rhs_base.clear();
        self.rhs_base.resize(n, 0.0);
        self.x_new.clear();
        self.x_new.resize(n, 0.0);
        self.prev_x.clear();
        self.prev_x.resize(n, 0.0);
        self.prev2_x.clear();
        self.prev2_x.resize(n, 0.0);
        self.guess.clear();
        self.guess.resize(n, 0.0);
        self.cap_currents.clear();
        self.cap_currents.resize(num_capacitors, 0.0);
        self.cap_ieq.clear();
        self.cap_ieq.resize(num_capacitors, 0.0);
        self.eval_caches.clear();
        self.eval_caches
            .resize_with(num_mosfets, MosfetEvalCache::default);
    }

    fn prepare_rank_update(&mut self, n: usize, rows: &[usize]) {
        let r = rows.len();
        self.w_rows.resize_zeroed(r, n);
        self.y_base.clear();
        self.y_base.resize(n, 0.0);
        self.delta.resize_zeroed(r, n);
        self.delta_rhs.clear();
        self.delta_rhs.resize(r, 0.0);
        self.row_map.clear();
        self.row_map.resize(n, usize::MAX);
        for (j, &row) in rows.iter().enumerate() {
            self.row_map[row] = j;
        }
        self.s.resize_zeroed(r, r);
        self.s_rhs.clear();
        self.s_rhs.resize(r, 0.0);
        self.s_sol.clear();
        self.s_sol.resize(r, 0.0);
    }
}

/// A first crossing a transient run watches for
/// ([`TransientAnalysis::run_until`]): the first time the voltage of `node`
/// crosses `level` in the direction `rising`. The run detects it on the step
/// where [`Waveform::crossing_time`] finds it, since both apply
/// [`rlc_numeric::interp::crosses_on_step`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Crossing {
    /// The watched node.
    pub node: NodeId,
    /// The watched level (volts).
    pub level: f64,
    /// Search direction: `true` for a rising crossing.
    pub rising: bool,
}

/// The stop test of [`TransientAnalysis::run_until`]: fed every accepted
/// solution in time order, it reports when every watched first crossing has
/// occurred. With nothing to watch it never stops the run.
struct StopWatch<'a> {
    crossings: &'a [Crossing],
    /// Per watched crossing: the node voltage at the previous sample, and
    /// whether the crossing has occurred.
    last: Vec<(f64, bool)>,
    pending: usize,
    first_step: bool,
}

impl<'a> StopWatch<'a> {
    fn new(system: &MnaSystem, crossings: &'a [Crossing], x0: &[f64]) -> Self {
        StopWatch {
            crossings,
            last: crossings
                .iter()
                .map(|c| (system.node_voltage(x0, c.node.index()), false))
                .collect(),
            pending: crossings.len(),
            first_step: true,
        }
    }

    /// Records the solution of the next step; `true` once every watched
    /// crossing has occurred, so the run may end after this step.
    fn all_crossed(&mut self, system: &MnaSystem, x: &[f64]) -> bool {
        if self.pending == 0 {
            return false;
        }
        for (c, (last, crossed)) in self.crossings.iter().zip(&mut self.last) {
            let y = system.node_voltage(x, c.node.index());
            if !*crossed && crosses_on_step(*last, y, c.level, c.rising, self.first_step) {
                *crossed = true;
                self.pending -= 1;
            }
            *last = y;
        }
        self.first_step = false;
        self.pending == 0
    }
}

/// The accepted time points of a run (one flat row-major solution block, as
/// in [`TransientResult`]) and the stop test every kernel loop consults.
struct Trace<'c> {
    times: Vec<f64>,
    solutions: Vec<f64>,
    stop: StopWatch<'c>,
    /// Steps recorded by [`Trace::fast_forward`] without a solve.
    quiescent: usize,
}

impl Trace<'_> {
    /// Accepts the solution `x` at time `t`; `true` when the run may end
    /// after this step.
    fn push(&mut self, system: &MnaSystem, t: f64, x: &[f64]) -> bool {
        self.times.push(t);
        self.solutions.extend_from_slice(x);
        self.stop.all_crossed(system, x)
    }

    /// Records the quiescent prefix of a linear run: while the starting
    /// state `x0` is exactly zero and every source is exactly zero at
    /// `t = step·h`, the step's right-hand side is zero and its solution is
    /// zero, so the step is accepted as an all-zero row without assembling
    /// or solving; `zero_row` is a one-row buffer that holds those zeros.
    /// Returns the first step the kernel must solve: past `n_steps` when the
    /// window or the stop test ended inside the prefix.
    fn fast_forward(
        &mut self,
        system: &MnaSystem,
        h: f64,
        n_steps: usize,
        x0: &[f64],
        zero_row: &mut [f64],
    ) -> usize {
        if x0.iter().any(|&v| v != 0.0) {
            return 1;
        }
        zero_row.fill(0.0);
        for step in 1..=n_steps {
            let t = step as f64 * h;
            if !system.sources_quiet_at(t) {
                return step;
            }
            self.quiescent += 1;
            if self.push(system, t, zero_row) {
                break;
            }
        }
        n_steps + 1
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// A transient analysis runner.
#[derive(Debug, Clone)]
pub struct TransientAnalysis {
    options: TransientOptions,
}

/// Result of a transient run: the full solution history (stored as one flat
/// row-major block, one row of `num_unknowns` values per time point).
#[derive(Debug, Clone)]
pub struct TransientResult {
    times: Vec<f64>,
    solutions: Vec<f64>,
    stride: usize,
    system: MnaSystem,
    node_names: HashMap<Arc<str>, NodeId>,
    strategy: KernelStrategy,
    degraded_to_dense: bool,
    quiescent_steps: usize,
}

impl TransientResult {
    /// Simulated time points.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// The kernel that actually executed the run — `Auto` resolved to a
    /// concrete kernel, and any health-gated degradation (sparse falling
    /// back to dense LU on a near-singular stamp) already applied. Makes the
    /// automatic strategy selection observable instead of silent.
    pub fn strategy(&self) -> KernelStrategy {
        self.strategy
    }

    /// `true` when the sparse kernel was selected (explicitly or by `Auto`)
    /// but its pivot-health gate rejected the factorization and the run fell
    /// back to the dense factor-once kernel. Surfaces the silent degrade so
    /// callers can report *why* the fast path was abandoned.
    pub fn degraded_to_dense(&self) -> bool {
        self.degraded_to_dense
    }

    /// Number of steps of the quiescent prefix the run recorded as all-zero
    /// rows without solving: the leading steps of a linear run from an
    /// exactly zero state on which every source is exactly zero (see
    /// [`TransientAnalysis::run_until`]). Always 0 for a nonzero starting
    /// state and for the [`KernelStrategy::SplitStamp`] and
    /// [`KernelStrategy::LegacyFull`] kernels, which solve every step.
    pub fn quiescent_steps(&self) -> usize {
        self.quiescent_steps
    }

    /// Number of accepted time points.
    pub fn num_points(&self) -> usize {
        self.times.len()
    }

    fn rows(&self) -> impl Iterator<Item = &[f64]> {
        self.solutions.chunks_exact(self.stride)
    }

    /// Waveform of a node voltage.
    pub fn waveform(&self, node: NodeId) -> Waveform {
        let values = self
            .rows()
            .map(|x| self.system.node_voltage(x, node.index()))
            .collect();
        Waveform::new(self.times.clone(), values)
    }

    /// Waveform of a node voltage looked up by name. Returns `None` when the
    /// node does not exist.
    pub fn waveform_by_name(&self, name: &str) -> Option<Waveform> {
        self.node_names.get(name).map(|&n| self.waveform(n))
    }

    /// Branch current of a named voltage source over time (SPICE convention:
    /// current into the positive terminal). Returns `None` for unknown names.
    pub fn vsource_current(&self, name: &str) -> Option<Waveform> {
        let branch = self.system.vsource_branch(name)?;
        let values = self.rows().map(|x| x[branch]).collect();
        Some(Waveform::new(self.times.clone(), values))
    }
}

impl TransientAnalysis {
    /// Creates a transient analysis with the given options.
    pub fn new(options: TransientOptions) -> Self {
        TransientAnalysis { options }
    }

    /// Runs the analysis on a circuit with a throwaway workspace.
    ///
    /// # Errors
    /// Returns a [`SpiceError`] if the circuit is invalid, the Newton loop
    /// fails to converge at some time point, or the MNA matrix is singular.
    pub fn run(&self, circuit: &Circuit) -> Result<TransientResult, SpiceError> {
        let mut workspace = TransientWorkspace::new();
        self.run_with(circuit, &mut workspace)
    }

    /// Runs the analysis reusing a caller-owned [`TransientWorkspace`], so
    /// repeated runs (characterization grids, backend batches) perform no
    /// kernel allocation after the first run. This is
    /// [`TransientAnalysis::run_until`] with nothing to watch: the run always
    /// reaches the stop time, and a linear run from rest fast-forwards its
    /// quiescent prefix as described there.
    ///
    /// # Errors
    /// Returns a [`SpiceError`] if the circuit is invalid, the requested
    /// kernel cannot run it (`FactorOnce` on a nonlinear circuit), the
    /// Newton loop fails to converge, or the MNA matrix is singular.
    /// [`SpiceError::InvalidOptions`] refuses a run whose trace would hold
    /// more than 2²⁷ values (`(steps + 1) × (unknowns + 1)` `f64`s, 1 GiB)
    /// before anything is allocated.
    pub fn run_with(
        &self,
        circuit: &Circuit,
        ws: &mut TransientWorkspace,
    ) -> Result<TransientResult, SpiceError> {
        self.run_until(circuit, ws, &[])
    }

    /// [`TransientAnalysis::run_with`] that ends early: the run stops after
    /// the step on which the last of `crossings` first occurs, or at the stop
    /// time if one never does. An empty list runs the full window.
    ///
    /// The result is a prefix of the full-window result: its times and every
    /// solution sample equal those of [`TransientAnalysis::run_with`] on the
    /// same circuit, options and kernel bit for bit (`f64::to_bits`), because
    /// each step depends only on the steps before it. A first crossing
    /// measured on the prefix ([`Waveform::crossing_time`] and the
    /// measurements built on it) is therefore identical to one measured on
    /// the full window. Only runs whose outputs are such first crossings
    /// should stop early: peaks, settled levels and the waveform tail belong
    /// to the full window.
    ///
    /// The sparse and dense factor-once kernels fast-forward the quiescent
    /// prefix: while the starting state is exactly zero and every
    /// independent voltage and current source evaluates to exactly `0.0` at
    /// `t = step·h`, the step is recorded as an all-zero row, without
    /// assembling or solving, and handed to the stop test like any other
    /// row. The factorization and its pivot-health gate run first, so the
    /// executed kernel and [`TransientResult::degraded_to_dense`] do not
    /// change. Both entry points skip the same steps, so the prefix
    /// guarantee above stays bit for bit. Against the same kernel solving
    /// every step it holds up to the sign of exact zeros: a solved prefix
    /// step may read `-0.0` where the fast-forward records `+0.0`, and since
    /// no nonzero value of a later step depends on the sign of a zero, every
    /// nonzero sample is unchanged. [`KernelStrategy::LegacyFull`] and the
    /// nonlinear kernels never skip; [`TransientResult::quiescent_steps`]
    /// reports how many steps were skipped.
    ///
    /// # Errors
    /// As [`TransientAnalysis::run_with`], plus
    /// [`SpiceError::InvalidOptions`] when a watched node is not a node of
    /// `circuit`.
    pub fn run_until(
        &self,
        circuit: &Circuit,
        ws: &mut TransientWorkspace,
        crossings: &[Crossing],
    ) -> Result<TransientResult, SpiceError> {
        circuit.validate()?;
        if let Some(c) = crossings
            .iter()
            .find(|c| c.node.index() >= circuit.num_nodes())
        {
            return Err(SpiceError::InvalidOptions(format!(
                "watched node {} is not a node of the circuit ({} nodes)",
                c.node.index(),
                circuit.num_nodes()
            )));
        }
        let system = MnaSystem::compile(circuit);
        let n = system.num_unknowns();
        let opts = &self.options;
        let n_steps = (opts.stop_time / opts.time_step).round() as usize;
        // The trace is reserved up front: a time and a solution per step.
        // Refuse a run that could not be held before allocating it, so an
        // absurd window is a typed error instead of an aborted process.
        let values = n_steps.saturating_add(1).saturating_mul(n + 1);
        if values > TRACE_VALUE_BUDGET {
            return Err(SpiceError::InvalidOptions(format!(
                "the run needs {values} trace values ({} time points of {n} unknowns and a \
                 time each), above the {TRACE_VALUE_BUDGET}-value budget; shorten the stop \
                 time or lengthen the time step",
                n_steps + 1
            )));
        }

        let strategy = match opts.strategy {
            KernelStrategy::Auto if system.is_linear() => KernelStrategy::Sparse,
            KernelStrategy::Auto => KernelStrategy::SplitStamp,
            KernelStrategy::FactorOnce | KernelStrategy::Sparse if !system.is_linear() => {
                return Err(SpiceError::InvalidOptions(format!(
                    "the {:?} kernel requires a linear circuit (no MOSFETs); \
                     use Auto or SplitStamp",
                    opts.strategy
                )));
            }
            explicit => explicit,
        };

        // Starting state.
        let use_ics = match opts.initial_state {
            InitialState::Auto => !circuit.initial_conditions().is_empty(),
            InitialState::DcOperatingPoint => false,
            InitialState::UseInitialConditions => true,
        };
        let x0 = if use_ics {
            let mut x0 = vec![0.0; n];
            for (&node, &v) in circuit.initial_conditions() {
                if let Some(idx) = system.voltage_unknown(node) {
                    x0[idx] = v;
                }
            }
            x0
        } else {
            dc_solve_compiled(&system, circuit, DcOptions::default())?.0
        };

        ws.prepare(n, system.num_capacitors(), system.num_mosfets());
        ws.prev_x.copy_from_slice(&x0);

        let mut out = Trace {
            times: Vec::with_capacity(n_steps + 1),
            solutions: Vec::with_capacity((n_steps + 1) * n),
            stop: StopWatch::new(&system, crossings, &x0),
            quiescent: 0,
        };
        out.times.push(0.0);
        out.solutions.extend_from_slice(&x0);

        let executed = match strategy {
            KernelStrategy::FactorOnce => {
                self.run_factor_once(&system, ws, n_steps, &mut out)?;
                KernelStrategy::FactorOnce
            }
            KernelStrategy::Sparse => self.run_sparse(&system, ws, n_steps, &mut out)?,
            KernelStrategy::SplitStamp => {
                self.run_split_stamp(&system, ws, n_steps, &mut out)?;
                KernelStrategy::SplitStamp
            }
            KernelStrategy::LegacyFull => {
                self.run_legacy(&system, ws, n_steps, &mut out)?;
                KernelStrategy::LegacyFull
            }
            KernelStrategy::Auto => unreachable!("Auto was resolved above"),
        };

        Ok(TransientResult {
            times: out.times,
            solutions: out.solutions,
            stride: n,
            system,
            node_names: circuit.name_map().clone(),
            strategy: executed,
            degraded_to_dense: strategy == KernelStrategy::Sparse
                && executed == KernelStrategy::FactorOnce,
            quiescent_steps: out.quiescent,
        })
    }

    /// The LTI fast path: one factorization, then per step a RHS rebuild and
    /// a back-substitution. Linear circuits need no Newton iteration — the
    /// first solve is exact.
    fn run_factor_once(
        &self,
        system: &MnaSystem,
        ws: &mut TransientWorkspace,
        n_steps: usize,
        out: &mut Trace<'_>,
    ) -> Result<(), SpiceError> {
        let opts = &self.options;
        let method = opts.method.companion();
        let h = opts.time_step;

        system.stamp_transient_static(&mut ws.static_matrix, h, method);
        ws.static_matrix
            .factor_into(&mut ws.lu)
            .map_err(|_| SpiceError::SingularMatrix { time: Some(h) })?;
        system.init_cap_ieq(h, method, &ws.prev_x, &mut ws.cap_ieq);

        let first = out.fast_forward(system, h, n_steps, &ws.prev_x, &mut ws.x_new);
        for step in first..=n_steps {
            let t = step as f64 * h;
            system.transient_rhs_fused(t, h, method, &ws.prev_x, &mut ws.cap_ieq, &mut ws.rhs);
            ws.lu.solve_into(&ws.rhs, &mut ws.x_new);
            ws.prev_x.copy_from_slice(&ws.x_new);
            if out.push(system, t, &ws.x_new) {
                break;
            }
        }
        Ok(())
    }

    /// The sparse LTI fast path: assemble the companion matrix as CSC, factor
    /// it once with the fill-reducing sparse LU, then per step rebuild the
    /// RHS and run the triangular solves over the factor nonzeros.
    ///
    /// Every run factors from scratch: replaying the pivot sequence a
    /// previous run left in the workspace would make the last bits of the
    /// waveform depend on that run.
    ///
    /// Pivot health is gated exactly like the dense Woodbury path gates its
    /// rank update: when the smallest pivot falls below `1e-9 ×` the largest
    /// stamp magnitude (or the factorization fails outright), the run
    /// degrades to the dense [`TransientAnalysis::run_factor_once`] kernel
    /// instead of back-substituting through a near-singular factorization.
    /// Returns the kernel that actually executed.
    fn run_sparse(
        &self,
        system: &MnaSystem,
        ws: &mut TransientWorkspace,
        n_steps: usize,
        out: &mut Trace<'_>,
    ) -> Result<KernelStrategy, SpiceError> {
        let opts = &self.options;
        let method = opts.method.companion();
        let h = opts.time_step;
        let n = system.num_unknowns();

        system.transient_triplets(h, method, &mut ws.triplets);
        let csc = CscMatrix::from_triplets(n, &ws.triplets);
        let healthy = ws.sparse_lu.factor(&csc).is_ok()
            && ws.sparse_lu.pivot_extremes().0 >= 1e-9 * csc.max_abs();
        if !healthy {
            // Near-singular (or unfactorable) sparse stamp: degrade to the
            // dense partial-pivoting LU, whose row exchanges on the full
            // matrix handle what the sparsity-constrained pivoting cannot.
            self.run_factor_once(system, ws, n_steps, out)?;
            return Ok(KernelStrategy::FactorOnce);
        }

        system.init_cap_ieq(h, method, &ws.prev_x, &mut ws.cap_ieq);
        let first = out.fast_forward(system, h, n_steps, &ws.prev_x, &mut ws.x_new);
        for step in first..=n_steps {
            let t = step as f64 * h;
            system.transient_rhs_fused(t, h, method, &ws.prev_x, &mut ws.cap_ieq, &mut ws.rhs);
            ws.sparse_lu.solve_into(&ws.rhs, &mut ws.x_new);
            ws.prev_x.copy_from_slice(&ws.x_new);
            if out.push(system, t, &ws.x_new) {
                break;
            }
        }
        Ok(KernelStrategy::Sparse)
    }

    /// The nonlinear fast kernel. Static (R/L/C/source) stamps are cached
    /// once; per Newton iteration only the MOSFET linearizations change.
    /// When the static matrix is well conditioned and the MOSFETs touch few
    /// rows, the solve uses the Sherman–Morrison–Woodbury identity against
    /// the *once-factorized* static matrix — no per-iteration factorization
    /// at all. Otherwise it copies the cached stamps and refactorizes, which
    /// is still allocation-free.
    fn run_split_stamp(
        &self,
        system: &MnaSystem,
        ws: &mut TransientWorkspace,
        n_steps: usize,
        out: &mut Trace<'_>,
    ) -> Result<(), SpiceError> {
        let opts = &self.options;
        let method = opts.method.companion();
        let h = opts.time_step;
        let n = system.num_unknowns();

        system.stamp_transient_static(&mut ws.static_matrix, h, method);

        // The Woodbury path pays O(r·n²) once and O(r·n) per iteration, but
        // multiplies by the inverse of the static factors, so it is gated on
        // the update being genuinely low-rank and on the static pivots being
        // far from the gmin floor (a mosfet-only node would make A0⁻¹ huge
        // and the update numerically useless).
        let rows = system.mosfet_rows();
        let use_rank_update = !rows.is_empty()
            && 2 * rows.len() <= n
            && ws.static_matrix.factor_into(&mut ws.lu).is_ok()
            && ws.lu.pivot_extremes().0 >= 1e-9 * ws.static_matrix.max_abs();
        if use_rank_update {
            self.run_rank_update(system, ws, &rows, n_steps, out)
        } else {
            self.run_split_refactor(system, ws, n_steps, out)
        }
    }

    /// Woodbury variant of the split-stamp kernel: with `A = A0 + U V`
    /// (`U` selecting the MOSFET rows), each iteration solves
    /// `x = y − Wᵀ (I + V Wᵀ)⁻¹ V y` with `y = A0⁻¹ b` assembled from the
    /// once-per-step base solve plus the low-rank RHS correction, and
    /// `Wᵀ = A0⁻¹ U` computed once per run.
    fn run_rank_update(
        &self,
        system: &MnaSystem,
        ws: &mut TransientWorkspace,
        rows: &[usize],
        n_steps: usize,
        out: &mut Trace<'_>,
    ) -> Result<(), SpiceError> {
        let opts = &self.options;
        let method = opts.method.companion();
        let h = opts.time_step;
        let n = system.num_unknowns();
        let n_voltages = system.num_nodes() - 1;
        let r = rows.len();

        ws.prepare_rank_update(n, rows);
        // W rows: A0⁻¹ e_i for every MOSFET row i.
        for (j, &row) in rows.iter().enumerate() {
            ws.rhs.iter_mut().for_each(|v| *v = 0.0);
            ws.rhs[row] = 1.0;
            ws.lu.solve_into(&ws.rhs, &mut ws.x_new);
            ws.w_rows.row_mut(j).copy_from_slice(&ws.x_new);
        }
        system.init_cap_ieq(h, method, &ws.prev_x, &mut ws.cap_ieq);
        ws.prev2_x.copy_from_slice(&ws.prev_x);

        for step in 1..=n_steps {
            let t = step as f64 * h;
            // Companion/source RHS and its static solve are shared by every
            // Newton iteration of this step.
            system.transient_rhs_fused(t, h, method, &ws.prev_x, &mut ws.cap_ieq, &mut ws.rhs_base);
            ws.lu.solve_into(&ws.rhs_base, &mut ws.y_base);
            // Predictor: start Newton from the linear extrapolation of the
            // two previous solutions, which lands within the convergence
            // tolerance on smooth stretches and saves the confirmation
            // iteration that a previous-solution start needs.
            for ((g, &p), &p2) in ws.guess.iter_mut().zip(&ws.prev_x).zip(&ws.prev2_x) {
                *g = 2.0 * p - p2;
            }
            let mut converged = false;
            let mut last_delta = f64::INFINITY;
            for _ in 0..opts.max_newton_iterations {
                ws.delta.clear();
                ws.delta_rhs.iter_mut().for_each(|v| *v = 0.0);
                system.stamp_mosfets_delta(
                    &mut ws.delta,
                    &mut ws.delta_rhs,
                    &ws.guess,
                    &ws.row_map,
                    &mut ws.eval_caches,
                );
                // S = I + V Wᵀ, and the projected RHS c = V y folded from
                // c = V·(y_base + Σ b_j W_j) = V y_base + (S − I) b.
                for j in 0..r {
                    let dj = ws.delta.row(j);
                    let mut c_j = dot(dj, &ws.y_base);
                    for k in 0..r {
                        let v = dot(dj, ws.w_rows.row(k));
                        ws.s.set(j, k, if j == k { 1.0 + v } else { v });
                        c_j += v * ws.delta_rhs[k];
                    }
                    ws.s_rhs[j] = c_j;
                }
                // det(A) = det(A0)·det(S): a singular S is a genuinely
                // singular iteration matrix, exactly as in the dense kernels.
                // The r ≤ 2 systems of single-gate stages are solved closed
                // form; larger panels go through the general factorization.
                match r {
                    1 => {
                        let s00 = ws.s.get(0, 0);
                        if s00.abs() < 1e-300 {
                            return Err(SpiceError::SingularMatrix { time: Some(t) });
                        }
                        ws.s_sol[0] = ws.s_rhs[0] / s00;
                    }
                    2 => {
                        let (a, b) = (ws.s.get(0, 0), ws.s.get(0, 1));
                        let (c, d) = (ws.s.get(1, 0), ws.s.get(1, 1));
                        let det = a * d - b * c;
                        if det.abs() < 1e-300 {
                            return Err(SpiceError::SingularMatrix { time: Some(t) });
                        }
                        ws.s_sol[0] = (d * ws.s_rhs[0] - b * ws.s_rhs[1]) / det;
                        ws.s_sol[1] = (a * ws.s_rhs[1] - c * ws.s_rhs[0]) / det;
                    }
                    _ => {
                        ws.s.factor_into(&mut ws.s_lu)
                            .map_err(|_| SpiceError::SingularMatrix { time: Some(t) })?;
                        ws.s_lu.solve_into(&ws.s_rhs, &mut ws.s_sol);
                    }
                }
                // x = y − W z = y_base + Σ (b_j − z_j) W_j.
                ws.x_new.copy_from_slice(&ws.y_base);
                for j in 0..r {
                    let w = ws.delta_rhs[j] - ws.s_sol[j];
                    if w != 0.0 {
                        axpy(w, ws.w_rows.row(j), &mut ws.x_new);
                    }
                }
                let mut max_delta: f64 = 0.0;
                for k in 0..n {
                    let mut delta = ws.x_new[k] - ws.guess[k];
                    if k < n_voltages {
                        delta = delta.clamp(-opts.step_limit, opts.step_limit);
                        max_delta = max_delta.max(delta.abs());
                        ws.guess[k] += delta;
                    } else {
                        ws.guess[k] = ws.x_new[k];
                    }
                }
                last_delta = max_delta;
                if max_delta < opts.voltage_tolerance {
                    converged = true;
                    break;
                }
            }
            if !converged {
                return Err(SpiceError::NonConvergence {
                    time: Some(t),
                    iterations: opts.max_newton_iterations,
                    max_delta: last_delta,
                });
            }
            ws.prev2_x.copy_from_slice(&ws.prev_x);
            ws.prev_x.copy_from_slice(&ws.guess);
            if out.push(system, t, &ws.guess) {
                break;
            }
        }
        Ok(())
    }

    /// Refactorizing variant of the split-stamp kernel: copy the cached
    /// static stamps, add the MOSFET linearizations and refactorize — no
    /// allocation, no re-stamping of the linear elements.
    fn run_split_refactor(
        &self,
        system: &MnaSystem,
        ws: &mut TransientWorkspace,
        n_steps: usize,
        out: &mut Trace<'_>,
    ) -> Result<(), SpiceError> {
        let opts = &self.options;
        let method = opts.method.companion();
        let h = opts.time_step;
        let n = system.num_unknowns();
        let n_voltages = system.num_nodes() - 1;

        system.init_cap_ieq(h, method, &ws.prev_x, &mut ws.cap_ieq);
        ws.prev2_x.copy_from_slice(&ws.prev_x);

        for step in 1..=n_steps {
            let t = step as f64 * h;
            // The RHS companion/source terms are shared by every Newton
            // iteration of this step.
            system.transient_rhs_fused(t, h, method, &ws.prev_x, &mut ws.cap_ieq, &mut ws.rhs_base);
            // Predictor start, as in the rank-update kernel.
            for ((g, &p), &p2) in ws.guess.iter_mut().zip(&ws.prev_x).zip(&ws.prev2_x) {
                *g = 2.0 * p - p2;
            }
            let mut converged = false;
            let mut last_delta = f64::INFINITY;
            for _ in 0..opts.max_newton_iterations {
                ws.matrix.copy_from(&ws.static_matrix);
                ws.rhs.copy_from_slice(&ws.rhs_base);
                system.stamp_mosfets_cached(
                    &mut ws.matrix,
                    &mut ws.rhs,
                    &ws.guess,
                    &mut ws.eval_caches,
                );
                ws.matrix
                    .factor_into(&mut ws.lu)
                    .map_err(|_| SpiceError::SingularMatrix { time: Some(t) })?;
                ws.lu.solve_into(&ws.rhs, &mut ws.x_new);
                let mut max_delta: f64 = 0.0;
                for k in 0..n {
                    let mut delta = ws.x_new[k] - ws.guess[k];
                    if k < n_voltages {
                        delta = delta.clamp(-opts.step_limit, opts.step_limit);
                        max_delta = max_delta.max(delta.abs());
                        ws.guess[k] += delta;
                    } else {
                        ws.guess[k] = ws.x_new[k];
                    }
                }
                last_delta = max_delta;
                if max_delta < opts.voltage_tolerance {
                    converged = true;
                    break;
                }
            }
            if !converged {
                return Err(SpiceError::NonConvergence {
                    time: Some(t),
                    iterations: opts.max_newton_iterations,
                    max_delta: last_delta,
                });
            }
            ws.prev2_x.copy_from_slice(&ws.prev_x);
            ws.prev_x.copy_from_slice(&ws.guess);
            if out.push(system, t, &ws.guess) {
                break;
            }
        }
        Ok(())
    }

    /// The pre-fast-path kernel: full matrix reassembly and factorization at
    /// every Newton iteration, with per-iteration allocation. Retained so the
    /// optimized kernels can be cross-checked and benchmarked against it.
    fn run_legacy(
        &self,
        system: &MnaSystem,
        ws: &mut TransientWorkspace,
        n_steps: usize,
        out: &mut Trace<'_>,
    ) -> Result<(), SpiceError> {
        let opts = &self.options;
        let method = opts.method.companion();
        let h = opts.time_step;
        let n = system.num_unknowns();
        let n_voltages = system.num_nodes() - 1;

        let mut x = ws.prev_x.clone();
        let mut cap_currents = vec![0.0; system.num_capacitors()];

        for step in 1..=n_steps {
            let t = step as f64 * h;
            let prev_x = x.clone();
            let mut guess = prev_x.clone();
            let mut converged = false;
            let mut last_delta = f64::INFINITY;
            for _ in 0..opts.max_newton_iterations {
                let (m, rhs) =
                    system.assemble_transient(t, h, method, &guess, &prev_x, &cap_currents);
                let x_new = m
                    .solve(&rhs)
                    .map_err(|_| SpiceError::SingularMatrix { time: Some(t) })?;
                let mut max_delta: f64 = 0.0;
                for k in 0..n {
                    let mut delta = x_new[k] - guess[k];
                    if k < n_voltages {
                        delta = delta.clamp(-opts.step_limit, opts.step_limit);
                        max_delta = max_delta.max(delta.abs());
                        guess[k] += delta;
                    } else {
                        guess[k] = x_new[k];
                    }
                }
                last_delta = max_delta;
                if max_delta < opts.voltage_tolerance {
                    converged = true;
                    break;
                }
            }
            if !converged {
                return Err(SpiceError::NonConvergence {
                    time: Some(t),
                    iterations: opts.max_newton_iterations,
                    max_delta: last_delta,
                });
            }
            system.update_capacitor_currents(h, method, &guess, &prev_x, &mut cap_currents);
            x = guess;
            if out.push(system, t, &x) {
                break;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::Circuit;
    use crate::mosfet::MosfetParams;
    use crate::source::SourceWaveform;
    use rlc_numeric::approx_eq;
    use rlc_numeric::units::{ff, nh, pf, ps};

    /// RC step response: V(t) = V0 (1 - e^{-t/RC}).
    #[test]
    fn rc_step_response_matches_analytic() {
        let r = 1000.0;
        let c = 100e-15;
        let tau = r * c;
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add_vsource("V1", a, Circuit::GROUND, SourceWaveform::dc(1.0));
        ckt.add_resistor("R1", a, b, r);
        ckt.add_capacitor("C1", b, Circuit::GROUND, c);
        ckt.set_initial_condition(b, 0.0);
        ckt.set_initial_condition(a, 1.0);

        let opts = TransientOptions::try_new(tau / 200.0, 6.0 * tau).unwrap();
        let res = TransientAnalysis::new(opts).run(&ckt).unwrap();
        let w = res.waveform(b);
        for &t in &[0.5 * tau, tau, 2.0 * tau, 4.0 * tau] {
            let expected = 1.0 - (-t / tau).exp();
            assert!(
                (w.value_at(t) - expected).abs() < 2e-3,
                "t = {t}: {} vs {expected}",
                w.value_at(t)
            );
        }
    }

    /// Series RLC with an underdamped response must ring at the right
    /// frequency.
    #[test]
    fn rlc_ringing_frequency_is_correct() {
        let r = 5.0;
        let l = nh(5.0);
        let c = pf(1.0);
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let m = ckt.node("m");
        let b = ckt.node("b");
        ckt.add_vsource("V1", a, Circuit::GROUND, SourceWaveform::dc(1.0));
        ckt.add_resistor("R1", a, m, r);
        ckt.add_inductor("L1", m, b, l);
        ckt.add_capacitor("C1", b, Circuit::GROUND, c);
        ckt.set_initial_condition(a, 1.0);

        let opts = TransientOptions::try_new(ps(0.2), ps(1500.0))
            .unwrap()
            .with_initial_state(InitialState::UseInitialConditions);
        let res = TransientAnalysis::new(opts).run(&ckt).unwrap();
        let w = res.waveform(b);
        // Damped natural period T = 2*pi / sqrt(1/LC - (R/2L)^2)
        let wd = (1.0 / (l * c) - (r / (2.0 * l)).powi(2)).sqrt();
        let period = 2.0 * std::f64::consts::PI / wd;
        // Find the first two upward crossings of the final value 1.0.
        let t1 = w.crossing_time(1.0, true).unwrap();
        let after: Vec<(f64, f64)> = w
            .times()
            .iter()
            .copied()
            .zip(w.values().iter().copied())
            .filter(|&(t, _)| t > t1 + 0.4 * period)
            .collect();
        let wave2 = Waveform::new(
            after.iter().map(|p| p.0).collect(),
            after.iter().map(|p| p.1).collect(),
        );
        let t2 = wave2.crossing_time(1.0, true).unwrap();
        let measured_period = t2 - t1;
        assert!(
            (measured_period - period).abs() / period < 0.03,
            "period {measured_period:.3e} vs analytic {period:.3e}"
        );
        // Peak overshoot of a lightly damped RLC approaches 2x the step.
        assert!(w.max_value() > 1.5);
    }

    /// An inverter driving a capacitor must swing rail to rail with a plausible
    /// delay, and the output must be monotonic for a lumped capacitive load.
    #[test]
    fn inverter_driving_capacitor_switches() {
        let vdd = 1.8;
        let mut ckt = Circuit::new();
        let nvdd = ckt.node("vdd");
        let nin = ckt.node("in");
        let nout = ckt.node("out");
        ckt.add_vsource("VDD", nvdd, Circuit::GROUND, SourceWaveform::dc(vdd));
        ckt.add_vsource(
            "VIN",
            nin,
            Circuit::GROUND,
            SourceWaveform::falling_ramp(vdd, ps(20.0), ps(100.0)),
        );
        ckt.add_mosfet("MP", nout, nin, nvdd, MosfetParams::pmos_018(), 54e-6);
        ckt.add_mosfet(
            "MN",
            nout,
            nin,
            Circuit::GROUND,
            MosfetParams::nmos_018(),
            27e-6,
        );
        ckt.add_capacitor("CL", nout, Circuit::GROUND, ff(500.0));
        ckt.set_initial_condition(nin, vdd);
        ckt.set_initial_condition(nout, 0.0);
        ckt.set_initial_condition(nvdd, vdd);

        let opts = TransientOptions::try_new(ps(0.5), ps(1000.0)).unwrap();
        let res = TransientAnalysis::new(opts).run(&ckt).unwrap();
        let out = res.waveform(nout);
        assert!(out.last_value() > 0.98 * vdd, "output must reach VDD");
        let t50_out = out.crossing_fraction(0.5, vdd, true).unwrap();
        let t50_in = ps(20.0) + ps(50.0);
        let delay = t50_out - t50_in;
        assert!(delay > ps(1.0) && delay < ps(200.0), "delay = {delay:.3e}");
        let slew = out.slew_10_90(vdd, true).unwrap();
        assert!(slew > ps(5.0) && slew < ps(500.0), "slew = {slew:.3e}");
    }

    /// Backward Euler and trapezoidal must agree on smooth RC waveforms.
    #[test]
    fn integration_methods_agree_on_rc() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add_vsource(
            "V1",
            a,
            Circuit::GROUND,
            SourceWaveform::rising_ramp(1.0, 0.0, ps(50.0)),
        );
        ckt.add_resistor("R1", a, b, 500.0);
        ckt.add_capacitor("C1", b, Circuit::GROUND, ff(200.0));
        ckt.set_initial_condition(a, 0.0);

        let trap = TransientAnalysis::new(
            TransientOptions::try_new(ps(0.25), ps(600.0))
                .unwrap()
                .with_method(IntegrationMethod::Trapezoidal),
        )
        .run(&ckt)
        .unwrap()
        .waveform(b);
        let be = TransientAnalysis::new(
            TransientOptions::try_new(ps(0.25), ps(600.0))
                .unwrap()
                .with_method(IntegrationMethod::BackwardEuler),
        )
        .run(&ckt)
        .unwrap()
        .waveform(b);
        assert!(trap.rms_difference(&be) < 5e-3);
    }

    #[test]
    fn dc_start_matches_operating_point() {
        // No initial conditions: the run must start from the DC solution
        // (output high for input low), not from zero.
        let vdd = 1.8;
        let mut ckt = Circuit::new();
        let nvdd = ckt.node("vdd");
        let nin = ckt.node("in");
        let nout = ckt.node("out");
        ckt.add_vsource("VDD", nvdd, Circuit::GROUND, SourceWaveform::dc(vdd));
        ckt.add_vsource("VIN", nin, Circuit::GROUND, SourceWaveform::dc(0.0));
        ckt.add_mosfet("MP", nout, nin, nvdd, MosfetParams::pmos_018(), 10e-6);
        ckt.add_mosfet(
            "MN",
            nout,
            nin,
            Circuit::GROUND,
            MosfetParams::nmos_018(),
            5e-6,
        );
        ckt.add_capacitor("CL", nout, Circuit::GROUND, ff(50.0));
        let res = TransientAnalysis::new(TransientOptions::try_new(ps(1.0), ps(50.0)).unwrap())
            .run(&ckt)
            .unwrap();
        let out = res.waveform(nout);
        assert!(out.value_at(0.0) > 1.7);
        assert!(out.last_value() > 1.7);
    }

    #[test]
    fn vsource_current_is_recorded() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.add_vsource("V1", a, Circuit::GROUND, SourceWaveform::dc(1.0));
        ckt.add_resistor("R1", a, Circuit::GROUND, 100.0);
        let res = TransientAnalysis::new(TransientOptions::try_new(ps(1.0), ps(10.0)).unwrap())
            .run(&ckt)
            .unwrap();
        let i = res.vsource_current("V1").unwrap();
        assert!(approx_eq(i.last_value(), -0.01, 1e-6));
        assert!(res.vsource_current("nope").is_none());
        assert!(res.waveform_by_name("a").is_some());
        assert!(res.waveform_by_name("zzz").is_none());
        assert_eq!(res.num_points(), 11);
    }

    /// Two series-aiding coupled inductors behave as `L1 + L2 + 2M`; with a
    /// negative mutual inductance the coupling opposes and the effective
    /// inductance drops to `L1 + L2 - 2|M|`. The RL step current
    /// `i(t) = (V/R)(1 - e^{-tR/L_eff})` pins both cases analytically.
    #[test]
    fn coupled_inductors_in_series_match_effective_inductance() {
        // Trapezoidal is second order, so a coarser step suffices; backward
        // Euler needs a finer one to meet the same tolerance — and running
        // both pins the method-specific mutual companion stamps against the
        // analytic solution, not just against each other.
        for (method, steps_per_tau) in [
            (IntegrationMethod::Trapezoidal, 300.0),
            (IntegrationMethod::BackwardEuler, 2000.0),
        ] {
            for (m, l_eff) in [(0.5e-9, 3.0e-9), (-0.5e-9, 1.0e-9)] {
                let r = 100.0;
                let mut ckt = Circuit::new();
                let s = ckt.node("s");
                let n1 = ckt.node("n1");
                let n2 = ckt.node("n2");
                ckt.add_vsource("V1", s, Circuit::GROUND, SourceWaveform::dc(1.0));
                ckt.add_resistor("R1", s, n1, r);
                ckt.add_inductor("L1", n1, n2, 1e-9);
                ckt.add_inductor("L2", n2, Circuit::GROUND, 1e-9);
                ckt.add_mutual_inductance("K1", "L1", "L2", m);
                ckt.set_initial_condition(s, 1.0);
                ckt.set_initial_condition(n1, 1.0);
                ckt.set_initial_condition(n2, 1.0);

                let tau = l_eff / r;
                let opts = TransientOptions::try_new(tau / steps_per_tau, 6.0 * tau)
                    .unwrap()
                    .with_method(method)
                    .with_initial_state(InitialState::UseInitialConditions);
                let res = TransientAnalysis::new(opts).run(&ckt).unwrap();
                let i = res.vsource_current("V1").unwrap();
                for &t in &[0.5 * tau, tau, 2.0 * tau, 4.0 * tau] {
                    // SPICE convention: current into the + terminal, so the
                    // delivered current shows up negated.
                    let expected = -(1.0 / r) * (1.0 - (-t / tau).exp());
                    assert!(
                        (i.value_at(t) - expected).abs() < 2e-3 / r,
                        "{method:?}, M = {m:e}, t = {t:e}: {} vs {expected}",
                        i.value_at(t)
                    );
                }
            }
        }
    }

    /// The mutually-coupled companion stamps must agree across every kernel,
    /// for both integration methods (BE and trapezoidal use different
    /// companion impedances and history terms).
    #[test]
    fn coupled_inductor_kernels_agree_with_legacy() {
        let mut ckt = Circuit::new();
        let s = ckt.node("s");
        let v1 = ckt.node("v1");
        let a1 = ckt.node("a1");
        ckt.add_vsource(
            "V1",
            s,
            Circuit::GROUND,
            SourceWaveform::rising_ramp(1.0, 0.0, ps(50.0)),
        );
        ckt.add_resistor("Rv", s, v1, 50.0);
        ckt.add_inductor("Lv", v1, Circuit::GROUND, nh(2.0));
        ckt.add_resistor("Ra", s, a1, 75.0);
        ckt.add_inductor("La", a1, Circuit::GROUND, nh(3.0));
        ckt.add_mutual_inductance("K1", "Lv", "La", nh(1.2));
        ckt.set_initial_condition(s, 0.0);

        for method in [
            IntegrationMethod::Trapezoidal,
            IntegrationMethod::BackwardEuler,
        ] {
            let legacy = TransientAnalysis::new(
                TransientOptions::try_new(ps(0.5), ps(400.0))
                    .unwrap()
                    .with_method(method)
                    .with_strategy(KernelStrategy::LegacyFull),
            )
            .run(&ckt)
            .unwrap()
            .waveform(v1);
            let fast = TransientAnalysis::new(
                TransientOptions::try_new(ps(0.5), ps(400.0))
                    .unwrap()
                    .with_method(method),
            )
            .run(&ckt)
            .unwrap()
            .waveform(v1);
            for (a, b) in legacy.values().iter().zip(fast.values()) {
                assert!((a - b).abs() < 1e-9, "{method:?}");
            }
        }
    }

    /// A run whose trace would exceed the reservation budget is refused as
    /// a typed error before anything is allocated, not aborted by the
    /// allocator.
    #[test]
    fn a_trace_over_the_budget_is_refused_before_allocating() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add_vsource("V1", a, Circuit::GROUND, SourceWaveform::dc(1.0));
        ckt.add_resistor("R1", a, b, 1000.0);
        ckt.add_capacitor("C1", b, Circuit::GROUND, ff(100.0));
        let n = MnaSystem::compile(&ckt).num_unknowns();
        // The fewest trace rows (steps + 1) that exceed the budget.
        let rows = TRACE_VALUE_BUDGET / (n + 1) + 1;
        assert!((rows - 1) * (n + 1) <= TRACE_VALUE_BUDGET);
        let h = ps(1.0);
        let options = TransientOptions::try_new(h, (rows - 1) as f64 * h).unwrap();
        match TransientAnalysis::new(options).run(&ckt) {
            Err(SpiceError::InvalidOptions(msg)) => assert!(msg.contains("budget"), "{msg}"),
            other => panic!(
                "expected a refused run, got {:?}",
                other.map(|r| r.times().len())
            ),
        }
    }

    #[test]
    fn try_new_rejects_bad_times_without_panicking() {
        assert!(matches!(
            TransientOptions::try_new(-1.0, 1.0),
            Err(SpiceError::InvalidOptions(_))
        ));
        assert!(matches!(
            TransientOptions::try_new(1e-12, f64::NAN),
            Err(SpiceError::InvalidOptions(_))
        ));
        assert!(matches!(
            TransientOptions::try_new(1e-9, 1e-12),
            Err(SpiceError::InvalidOptions(_))
        ));
        let ok = TransientOptions::try_new(1e-12, 1e-9).unwrap();
        assert_eq!(ok.strategy, KernelStrategy::Auto);
    }

    #[test]
    fn factor_once_rejects_nonlinear_circuits() {
        let mut ckt = Circuit::new();
        let d = ckt.node("d");
        let g = ckt.node("g");
        ckt.add_vsource("V1", d, Circuit::GROUND, SourceWaveform::dc(1.8));
        ckt.add_vsource("VG", g, Circuit::GROUND, SourceWaveform::dc(1.8));
        ckt.add_mosfet("M1", d, g, Circuit::GROUND, MosfetParams::nmos_018(), 1e-6);
        let opts = TransientOptions::try_new(ps(1.0), ps(10.0))
            .unwrap()
            .with_strategy(KernelStrategy::FactorOnce);
        match TransientAnalysis::new(opts).run(&ckt) {
            Err(SpiceError::InvalidOptions(msg)) => assert!(msg.contains("linear")),
            other => panic!("expected InvalidOptions, got {other:?}"),
        }
    }

    /// A uniform RC ladder with `segments` sections driven by a ramp — the
    /// scalable linear fixture for the sparse-kernel tests.
    fn rc_ladder(segments: usize) -> (Circuit, NodeId) {
        let mut ckt = Circuit::new();
        let src = ckt.node("src");
        ckt.add_vsource(
            "V1",
            src,
            Circuit::GROUND,
            SourceWaveform::rising_ramp(1.0, 0.0, ps(50.0)),
        );
        let mut prev = src;
        let mut far = src;
        for k in 0..segments {
            let n = ckt.node(&format!("n{k}"));
            ckt.add_resistor(format!("R{k}"), prev, n, 72.44 / segments as f64 * 5.0);
            ckt.add_capacitor(
                format!("C{k}"),
                n,
                Circuit::GROUND,
                1.1e-12 / segments as f64,
            );
            prev = n;
            far = n;
        }
        ckt.set_initial_condition(src, 0.0);
        (ckt, far)
    }

    #[test]
    fn auto_records_the_executed_strategy() {
        // Every linear circuit, however small, resolves to the sparse kernel.
        let (small, far) = rc_ladder(10);
        let res = TransientAnalysis::new(TransientOptions::try_new(ps(1.0), ps(20.0)).unwrap())
            .run(&small)
            .unwrap();
        assert_eq!(res.strategy(), KernelStrategy::Sparse);
        // And the sparse solution matches the explicit dense kernel.
        let dense = TransientAnalysis::new(
            TransientOptions::try_new(ps(1.0), ps(20.0))
                .unwrap()
                .with_strategy(KernelStrategy::FactorOnce),
        )
        .run(&small)
        .unwrap();
        assert_eq!(dense.strategy(), KernelStrategy::FactorOnce);
        let (ws, wd) = (res.waveform(far), dense.waveform(far));
        for (a, b) in ws.values().iter().zip(wd.values()) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn sparse_rejects_nonlinear_circuits() {
        let mut ckt = Circuit::new();
        let d = ckt.node("d");
        let g = ckt.node("g");
        ckt.add_vsource("V1", d, Circuit::GROUND, SourceWaveform::dc(1.8));
        ckt.add_vsource("VG", g, Circuit::GROUND, SourceWaveform::dc(1.8));
        ckt.add_mosfet("M1", d, g, Circuit::GROUND, MosfetParams::nmos_018(), 1e-6);
        let opts = TransientOptions::try_new(ps(1.0), ps(10.0))
            .unwrap()
            .with_strategy(KernelStrategy::Sparse);
        match TransientAnalysis::new(opts).run(&ckt) {
            Err(SpiceError::InvalidOptions(msg)) => assert!(msg.contains("linear")),
            other => panic!("expected InvalidOptions, got {other:?}"),
        }
    }

    #[test]
    fn unhealthy_sparse_stamp_degrades_to_dense_lu() {
        // A floating node carries only the gmin stamp (1e-12), far below
        // 1e-9 x the resistor conductances — the pivot-health gate must
        // reject the sparse factorization and fall back to dense LU, and
        // the recorded strategy must say so.
        let (mut ckt, far) = rc_ladder(40);
        let _floating = ckt.node("floating");
        let opts = TransientOptions::try_new(ps(1.0), ps(20.0))
            .unwrap()
            .with_strategy(KernelStrategy::Sparse);
        let res = TransientAnalysis::new(opts).run(&ckt).unwrap();
        assert_eq!(res.strategy(), KernelStrategy::FactorOnce);
        // The fallback still produces the right answer.
        let reference = TransientAnalysis::new(
            TransientOptions::try_new(ps(1.0), ps(20.0))
                .unwrap()
                .with_strategy(KernelStrategy::LegacyFull),
        )
        .run(&ckt)
        .unwrap()
        .waveform(far);
        let w = res.waveform(far);
        for (a, b) in w.values().iter().zip(reference.values()) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    /// Seeded 40-segment far-end handoff circuits share one sparsity pattern
    /// but not their values. Run through one reused workspace in two
    /// interleaved orders, every run must reproduce its fresh-workspace
    /// waveform bit for bit: a run may not inherit the previous pivots.
    #[test]
    fn sparse_workspace_reuse_is_bit_identical_to_fresh_runs() {
        let mut rng = rlc_numeric::stats::Rng::new(0x5eed_0040);
        let circuits: Vec<(Circuit, NodeId)> = (0..24)
            .map(|_| {
                let (ckt, nodes) = crate::testbench::pwl_source_with_rlc_line(
                    SourceWaveform::rising_ramp(1.8, 0.0, ps(rng.uniform_in(30.0, 200.0))),
                    0.0,
                    rng.uniform_in(20.0, 200.0),
                    nh(rng.uniform_in(0.5, 8.0)),
                    pf(rng.uniform_in(0.2, 2.0)),
                    40,
                    ff(rng.uniform_in(5.0, 60.0)),
                );
                (ckt, nodes.far_end)
            })
            .collect();
        let analysis = TransientAnalysis::new(
            TransientOptions::try_new(ps(0.5), ps(150.0))
                .unwrap()
                .with_strategy(KernelStrategy::Sparse),
        );
        let bits = |res: &TransientResult, far: NodeId| -> Vec<u64> {
            let w = res.waveform(far);
            w.values().iter().map(|v| v.to_bits()).collect()
        };
        let fresh: Vec<_> = circuits
            .iter()
            .map(|(ckt, far)| bits(&analysis.run(ckt).unwrap(), *far))
            .collect();
        let mut ws = TransientWorkspace::new();
        for (run, i) in (0..24).chain((0..24).map(|k| (7 * k + 3) % 24)).enumerate() {
            let res = analysis.run_with(&circuits[i].0, &mut ws).unwrap();
            assert_eq!(res.strategy(), KernelStrategy::Sparse);
            assert_eq!(
                bits(&res, circuits[i].1),
                fresh[i],
                "run {run}: circuit {i}"
            );
        }
    }

    #[test]
    fn workspace_reuse_across_runs_is_identical() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add_vsource(
            "V1",
            a,
            Circuit::GROUND,
            SourceWaveform::rising_ramp(1.0, 0.0, ps(50.0)),
        );
        ckt.add_resistor("R1", a, b, 500.0);
        ckt.add_capacitor("C1", b, Circuit::GROUND, ff(200.0));
        ckt.set_initial_condition(a, 0.0);

        let analysis =
            TransientAnalysis::new(TransientOptions::try_new(ps(0.5), ps(300.0)).unwrap());
        let fresh = analysis.run(&ckt).unwrap().waveform(b);
        let mut ws = TransientWorkspace::new();
        // Dirty the workspace with a different circuit first.
        let mut other = Circuit::new();
        let p = other.node("p");
        other.add_vsource("V1", p, Circuit::GROUND, SourceWaveform::dc(1.0));
        other.add_resistor("R1", p, Circuit::GROUND, 50.0);
        let _ = analysis.run_with(&other, &mut ws).unwrap();
        let reused = analysis.run_with(&ckt, &mut ws).unwrap().waveform(b);
        assert_eq!(fresh.values(), reused.values());
    }
}
