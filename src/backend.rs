//! The [`AnalysisBackend`] extension trait and the two built-in backends:
//! the paper's analytic effective-capacitance flow ([`AnalyticBackend`]) and
//! the golden transistor-level simulation ([`SpiceBackend`]), selectable per
//! stage within one batch.

use std::cell::RefCell;
use std::sync::Arc;
use std::time::Instant;

use rlc_ceff::far_end::FarEndOptions;
use rlc_ceff::flow::{DriverOutputModeler, ModelWaveform};
use rlc_ceff::{CeffIteration, CriteriaReport};
use rlc_moments::{tree_transfer_moments, RationalAdmittance, TransferModel};
use rlc_numeric::units::ps;
use rlc_numeric::Diagnostic;
use rlc_spice::circuit::Circuit;
use rlc_spice::testbench::{add_inverter_driver, add_inverter_driver_with_input, OutputTransition};
use rlc_spice::transient::{
    Crossing, TransientAnalysis, TransientOptions, TransientResult, TransientWorkspace,
};
use rlc_spice::{SourceWaveform, SpiceError, Waveform};

use crate::config::EngineConfig;
use crate::driver::{DriverModel, SampledWaveform};
use crate::error::EngineError;
use crate::load::LoadModel;
use crate::stage::{InputEvent, Stage};

thread_local! {
    /// Per-worker-thread simulation workspace: a session fans stages across
    /// threads, and every golden simulation a thread runs (driver stages,
    /// far-end propagation) reuses one set of kernel buffers.
    static SIM_WORKSPACE: RefCell<TransientWorkspace> = RefCell::new(TransientWorkspace::new());
}

/// Runs a transient analysis through this thread's cached workspace, ending
/// it at the last of `watch` ([`TransientAnalysis::run_until`]; an empty list
/// runs the full window).
fn run_transient(
    options: TransientOptions,
    ckt: &Circuit,
    watch: &[Crossing],
) -> Result<TransientResult, SpiceError> {
    SIM_WORKSPACE
        .with(|ws| TransientAnalysis::new(options).run_until(ckt, &mut ws.borrow_mut(), watch))
}

/// The Info-level lint recording that a sparse transient kernel failed its
/// pivot-health gate and the run silently fell back to dense factor-once.
pub(crate) fn sparse_degrade_lint(locus: &str) -> Diagnostic {
    Diagnostic::info(
        rlc_lint::codes::SPARSE_DEGRADED,
        locus,
        "sparse kernel degraded to dense factor-once: the companion matrix failed the \
         pivot-health gate (near-singular stamp, often a floating or weakly anchored node)",
    )
}

/// What a backend can consume and produce, reported through
/// [`AnalysisBackend::caps`] so loads, sessions and backends negotiate
/// instead of panicking on unsupported combinations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BackendCaps {
    /// The backend can drive the stage with an arbitrary **sampled input
    /// waveform** ([`Stage::input_waveform`]) instead of the ideal ramp of
    /// the input event. Sessions hand a producer's measured far-end waveform
    /// straight through to such backends; everyone else gets the
    /// slew-referenced ramp conversion.
    pub sampled_input: bool,
    /// Reports for physical loads with a distinct far end carry the
    /// simulated far-end waveform ([`StageReport::simulated_far_end`]), so a
    /// session can reuse it for the primary-far-end handoff without an extra
    /// propagation simulation.
    pub simulates_far_end: bool,
}

/// An analysis backend: turns a [`Stage`] into a [`StageReport`].
///
/// The trait is object-safe; engines and stages hold backends as
/// `Arc<dyn AnalysisBackend>`, so new backends (a faster reduced-order
/// solver, a remote simulation farm) plug in without touching the engine.
pub trait AnalysisBackend: std::fmt::Debug + Send + Sync {
    /// A short stable identifier, recorded in each report.
    fn name(&self) -> &'static str;

    /// The backend's capability report. The conservative default (no sampled
    /// input, no simulated far end) keeps custom backends working unchanged:
    /// a session then always applies the ramp conversion on handoff.
    fn caps(&self) -> BackendCaps {
        BackendCaps::default()
    }

    /// Analyzes one stage.
    ///
    /// # Errors
    /// Any [`EngineError`]; batch analysis records the error for this stage
    /// and continues with the rest.
    fn analyze(&self, stage: &Stage, config: &EngineConfig) -> Result<StageReport, EngineError>;
}

/// Analytic-flow details recorded when the [`AnalyticBackend`] produced the
/// report.
#[derive(Debug, Clone)]
pub struct AnalyticDetails {
    /// The fitted (or exact) rational admittance of the load.
    pub fit: RationalAdmittance,
    /// Driver on-resistance used for the breakpoint (ohms).
    pub driver_resistance: f64,
    /// Voltage breakpoint fraction `f` (1.0 for loads without a line).
    pub breakpoint: f64,
    /// The converged first-ramp (or single-ramp) Ceff iteration.
    pub ceff1: CeffIteration,
    /// The converged second-ramp Ceff iteration (two-ramp models only).
    pub ceff2: Option<CeffIteration>,
    /// The Equation 9 evaluation.
    pub criteria: CriteriaReport,
}

/// The result of analyzing one stage.
#[derive(Debug, Clone)]
pub struct StageReport {
    /// Label of the analyzed stage.
    pub label: String,
    /// Name of the backend that produced the report.
    pub backend: &'static str,
    /// 50 % driver-output delay from the input's 50 % crossing (seconds).
    pub delay: f64,
    /// 10–90 % driver-output transition time (seconds).
    pub slew: f64,
    /// Absolute time of the input's 50 % crossing (seconds).
    pub input_t50: f64,
    /// Supply voltage (volts).
    pub vdd: f64,
    /// Whether the two-ramp waveform was selected.
    pub used_two_ramp: bool,
    /// The driver-output waveform, behind the [`DriverModel`] object.
    pub waveform: Arc<dyn DriverModel>,
    /// The simulated far-end waveform, when the backend simulated a load
    /// with a distinct far end (SPICE backend on line or pi loads).
    pub simulated_far_end: Option<SampledWaveform>,
    /// Analytic-flow internals (None for simulated reports).
    pub analytic: Option<AnalyticDetails>,
    /// Lint findings attached to this report: the static pre-analysis audit
    /// (when [`crate::EngineConfig::lint_level`] is not `Off`) plus runtime
    /// observations such as a sparse-kernel degrade
    /// (`rlc_lint::codes::SPARSE_DEGRADED`). Empty under `LintLevel::Off`
    /// and for clean stages.
    pub lints: Vec<Diagnostic>,
    /// Wall-clock time of the backend call that produced the report
    /// (seconds). Work done for the stage before that call is not in it: a
    /// session's far-end handoff, and the load reduction and Rs extraction a
    /// session prepares while the stage waits on its producer (see the
    /// [`crate::AnalysisSession`] scheduling rules). An analytic stage whose
    /// extraction was prepared ahead therefore reports less time than the
    /// same stage analyzed directly; the work moved, it was not saved.
    pub elapsed_seconds: f64,
    /// Provenance: `true` when this report was replayed from the persistent
    /// stage-result cache ([`crate::StageResultCache`]) instead of being
    /// computed by a backend. Cached reports carry `analytic: None`.
    pub cache_hit: bool,
}

impl StageReport {
    /// One-line human-readable summary.
    pub fn describe(&self) -> String {
        format!(
            "{}: [{}] delay = {:.1} ps, slew = {:.1} ps, {}",
            self.label,
            self.backend,
            self.delay * 1e12,
            self.slew * 1e12,
            self.waveform.describe()
        )
    }

    /// Replaces the driver with an ideal PWL source of this report's output
    /// waveform, attaches the load's netlist and runs the (linear, fast)
    /// propagation simulation. Shared by [`StageReport::far_end`],
    /// [`StageReport::far_end_handoff`] and [`StageReport::far_end_sinks`].
    ///
    /// A non-empty `primary_levels` ends the run once the primary sink has
    /// first crossed every listed level upwards
    /// ([`TransientAnalysis::run_until`]); an empty list runs the full
    /// window.
    fn propagate_through(
        &self,
        load: &dyn LoadModel,
        options: &FarEndOptions,
        primary_levels: &[f64],
    ) -> Result<(TransientResult, crate::load::AttachedNet), EngineError> {
        let t_stop = self.waveform.end_time() + options.settle_time + load.settle_horizon();
        let source = self.waveform.to_source(t_stop);

        let mut ckt = Circuit::new();
        let near = ckt.node("out");
        ckt.add_vsource("VDRV", near, Circuit::GROUND, source);
        ckt.set_initial_condition(near, 0.0);
        let net = load.attach_net(&mut ckt, near, 0.0, options.segments)?;

        let watch: Vec<Crossing> = primary_levels
            .iter()
            .map(|&level| Crossing {
                node: net.primary,
                level,
                rising: true,
            })
            .collect();
        let result = run_transient(
            TransientOptions::try_new(options.time_step, t_stop)?,
            &ckt,
            &watch,
        )?;
        Ok((result, net))
    }

    /// The far end's 50 % delay from the input's 50 % crossing and its
    /// 10–90 % slew, the two first-crossing measurements a far-end
    /// propagation feeds forward.
    fn far_end_timing(&self, far: &Waveform) -> Result<(f64, f64), EngineError> {
        let t50 = far.crossing_fraction(0.5, self.vdd, true).ok_or_else(|| {
            EngineError::unsupported("far end never crossed 50% within the window".to_string())
        })?;
        let slew = far.slew_10_90(self.vdd, true).ok_or_else(|| {
            EngineError::unsupported("far end never completed 10-90% within the window".to_string())
        })?;
        Ok((t50 - self.input_t50, slew))
    }

    /// The ramp a dependent stage sees from a far end measured at
    /// `delay_from_input` with 10–90 % `slew` ([`InputEvent::from_measured`]).
    pub(crate) fn handoff_event(&self, delay_from_input: f64, slew: f64) -> InputEvent {
        InputEvent::from_measured(self.input_t50 + delay_from_input, slew)
    }

    /// Propagates this report's driver-output waveform through a load's
    /// netlist (an ideal PWL source driving the load — step 5 of the paper's
    /// flow) and measures the far-end response at the load's primary sink.
    ///
    /// The driver waveform sits at absolute path time, so the line rests at
    /// 0 V until the driver starts to switch. That dead time is not
    /// simulated: the transient records it as zero samples without solving
    /// ([`TransientAnalysis::run_until`] describes the rule). Every
    /// measurement, and every nonzero sample of the waveform, is what
    /// solving those steps would give.
    ///
    /// # Errors
    /// Returns load/simulation errors, and a measurement error when the far
    /// end never completes its transition within the simulated window.
    pub fn far_end(
        &self,
        load: &dyn LoadModel,
        options: &FarEndOptions,
    ) -> Result<FarEndReport, EngineError> {
        let (result, net) = self.propagate_through(load, options, &[])?;
        let far = result.waveform(net.primary);
        let (delay_from_input, slew) = self.far_end_timing(&far)?;
        Ok(FarEndReport {
            delay_from_input,
            slew,
            overshoot: far.overshoot(self.vdd),
            waveform: far,
            degraded_to_dense: result.degraded_to_dense(),
        })
    }

    /// The ramp handoff of this stage's primary far end: the input event a
    /// dependent stage sees ([`InputEvent::from_measured`] of the far end's
    /// 50 % crossing and 10–90 % slew), and whether the propagation's sparse
    /// kernel degraded to dense (see [`FarEndReport::degraded_to_dense`]).
    /// This is the handoff an [`crate::AnalysisSession`] applies to a
    /// consumer that does not read the sampled waveform.
    ///
    /// The event is bit-identical to one built from [`StageReport::far_end`]
    /// (`from_measured(input_t50 + delay_from_input, slew)`), but the
    /// propagation stops once the far end has crossed 90 %
    /// ([`TransientAnalysis::run_until`]) instead of simulating the settling
    /// tail that only overshoot and the waveform need. As in
    /// [`StageReport::far_end`], the dead time before the driver switches is
    /// not simulated either.
    ///
    /// # Errors
    /// As [`StageReport::far_end`].
    pub fn far_end_handoff(
        &self,
        load: &dyn LoadModel,
        options: &FarEndOptions,
    ) -> Result<(InputEvent, bool), EngineError> {
        // The levels the 10-90 % slew and the 50 % delay measure, computed
        // exactly as `Waveform::crossing_fraction` computes them.
        let levels = [0.1, 0.5, 0.9].map(|fraction| fraction * self.vdd);
        let (result, net) = self.propagate_through(load, options, &levels)?;
        let (delay_from_input, slew) = self.far_end_timing(&result.waveform(net.primary))?;
        Ok((
            self.handoff_event(delay_from_input, slew),
            result.degraded_to_dense(),
        ))
    }

    /// Like [`StageReport::far_end`], but measures **every** named sink the
    /// load exposes ([`crate::LoadModel::attach_net`]): tree receiver pins,
    /// or the victim and aggressor far ends of a coupled bus.
    ///
    /// A sink that completes a transition reports its delay and slew; a sink
    /// that stays near its initial level (a quiet bus neighbour) reports
    /// `None` for both and carries the coupled disturbance in
    /// [`SinkFarEnd::peak_noise`].
    ///
    /// # Errors
    /// Returns load and simulation errors.
    pub fn far_end_sinks(
        &self,
        load: &dyn LoadModel,
        options: &FarEndOptions,
    ) -> Result<Vec<SinkFarEnd>, EngineError> {
        let (result, net) = self.propagate_through(load, options, &[])?;
        Ok(net
            .sinks
            .into_iter()
            .map(|(name, node)| {
                let waveform = result.waveform(node);
                let v0 = waveform.values().first().copied().unwrap_or(0.0);
                let rising = waveform.last_value() > v0;
                // Measure each sink against its *own* settled swing, so an
                // aggressor driven below the victim supply still gets its 50%
                // and 10–90% crossings right; anything below half the supply
                // is treated as coupled noise, not a transition.
                let swing = (waveform.last_value() - v0).abs();
                let transitioned = swing > 0.5 * self.vdd;
                let delay_from_input = transitioned
                    .then(|| waveform.crossing_fraction(0.5, swing, rising))
                    .flatten()
                    .map(|t50| t50 - self.input_t50);
                let slew = transitioned
                    .then(|| waveform.slew_10_90(swing, rising))
                    .flatten();
                let peak_noise = waveform
                    .values()
                    .iter()
                    .map(|v| (v - v0).abs())
                    .fold(0.0, f64::max);
                SinkFarEnd {
                    sink: name,
                    delay_from_input,
                    slew,
                    overshoot: waveform.overshoot(self.vdd),
                    peak_noise,
                    waveform,
                }
            })
            .collect())
    }
}

/// The far-end measurement of one named sink
/// ([`StageReport::far_end_sinks`]).
#[derive(Debug, Clone)]
pub struct SinkFarEnd {
    /// The sink name (`"far"` for single-sink loads, tree pin names, or
    /// `"victim"` / `"aggressor"` for a coupled bus).
    pub sink: String,
    /// 50 % delay from the input's 50 % crossing (seconds); `None` when the
    /// sink never completed a transition (for example a quiet aggressor).
    pub delay_from_input: Option<f64>,
    /// 10–90 % transition time (seconds); `None` without a transition.
    pub slew: Option<f64>,
    /// Overshoot above the supply (volts).
    pub overshoot: f64,
    /// Largest excursion from the sink's initial level (volts) — the coupled
    /// noise for sinks that are not supposed to switch.
    pub peak_noise: f64,
    /// The sink voltage waveform.
    pub waveform: Waveform,
}

/// The far-end response obtained by driving a load with a modelled (or
/// simulated) driver-output waveform.
#[derive(Debug, Clone)]
pub struct FarEndReport {
    /// 50 % far-end delay from the input's 50 % crossing (seconds).
    pub delay_from_input: f64,
    /// 10–90 % far-end transition time (seconds).
    pub slew: f64,
    /// Far-end overshoot above the supply (volts).
    pub overshoot: f64,
    /// The far-end voltage waveform.
    pub waveform: Waveform,
    /// `true` when the propagation simulation's sparse kernel failed its
    /// pivot-health gate and silently fell back to the dense factor-once
    /// kernel — surfaced by the session as an Info-level
    /// `rlc_lint::codes::SPARSE_DEGRADED` lint on the consuming stage.
    pub degraded_to_dense: bool,
}

/// The paper's analytic effective-capacitance flow as a backend.
#[derive(Debug, Clone, Copy, Default)]
pub struct AnalyticBackend;

/// Runs the paper's analytic Ceff flow on a stage and assembles the report,
/// shared by [`AnalyticBackend`] and the driver-modeling half of
/// [`ReducedOrderBackend`] (which stamps its own backend name on the result).
fn analytic_stage_report(
    backend_name: &'static str,
    stage: &Stage,
    config: &EngineConfig,
) -> Result<StageReport, EngineError> {
    let started = Instant::now();
    // Under per-case extraction the reduced load and its Rs come from the
    // stage's compute-once cell, which a session may have filled while the
    // stage waited on its input.
    let (load, rs) = if config.extract_rs_per_case {
        stage.prepared_load()?
    } else {
        (stage.load().reduce()?, stage.driver().on_resistance())
    };
    let input = stage.input();
    let model = DriverOutputModeler::new(config.modeling_config()).model_reduced_with_rs(
        stage.driver(),
        &load,
        rs,
        config.strategy,
        input.slew,
        input.delay,
    )?;
    let waveform: Arc<dyn DriverModel> = match model.waveform {
        ModelWaveform::SingleRamp(m) => Arc::new(m),
        ModelWaveform::TwoRamp(m) => Arc::new(m),
    };
    Ok(StageReport {
        label: stage.label().to_string(),
        backend: backend_name,
        delay: model.delay(),
        slew: model.slew(),
        input_t50: model.input_t50,
        vdd: model.vdd,
        used_two_ramp: model.is_two_ramp(),
        waveform,
        simulated_far_end: None,
        lints: Vec::new(),
        analytic: Some(AnalyticDetails {
            fit: model.fit,
            driver_resistance: model.driver_resistance,
            breakpoint: model.breakpoint,
            ceff1: model.ceff1,
            ceff2: model.ceff2,
            criteria: model.criteria,
        }),
        elapsed_seconds: started.elapsed().as_secs_f64(),
        cache_hit: false,
    })
}

impl AnalysisBackend for AnalyticBackend {
    fn name(&self) -> &'static str {
        "analytic"
    }

    fn analyze(&self, stage: &Stage, config: &EngineConfig) -> Result<StageReport, EngineError> {
        analytic_stage_report(self.name(), stage, config)
    }
}

/// The golden transistor-level simulation as a backend: builds the inverter
/// testbench, attaches the stage's load netlist, runs the transient analysis
/// and measures the driver output.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpiceBackend;

impl AnalysisBackend for SpiceBackend {
    fn name(&self) -> &'static str {
        "rlc-spice"
    }

    fn caps(&self) -> BackendCaps {
        BackendCaps {
            sampled_input: true,
            simulates_far_end: true,
        }
    }

    fn analyze(&self, stage: &Stage, config: &EngineConfig) -> Result<StageReport, EngineError> {
        let started = Instant::now();
        let input = stage.input();
        let spec = stage.driver().spec();
        let golden = &config.golden;

        let mut ckt = Circuit::new();
        let nodes = match stage.input_waveform() {
            // Sampled handoff: drive the inverter gate with the measured
            // upstream waveform, mirrored around the supply because the
            // rising upstream transition is the *falling* gate input of this
            // (inverting) stage's rising output. Only well-defined when both
            // stages share a supply rail — a cross-rail chain (the mirror
            // would not reach ground) falls back to the slew-referenced ramp
            // the session always resolves alongside the waveform.
            Some(sampled) if (sampled.vdd() - spec.vdd).abs() <= 1e-6 * spec.vdd => {
                let mut pts: Vec<(f64, f64)> = sampled
                    .waveform()
                    .times()
                    .iter()
                    .zip(sampled.waveform().values())
                    .map(|(&t, &v)| (t, spec.vdd - v))
                    .collect();
                if let Some(&(last_t, last_v)) = pts.last() {
                    pts.push((last_t.max(golden.max_stop_time) + ps(1.0), last_v));
                }
                add_inverter_driver_with_input(
                    &mut ckt,
                    spec,
                    SourceWaveform::pwl(pts),
                    OutputTransition::Rising,
                )
            }
            _ => add_inverter_driver(
                &mut ckt,
                spec,
                input.slew,
                input.delay,
                OutputTransition::Rising,
            ),
        };
        let far_node = stage
            .load()
            .attach(&mut ckt, nodes.output, 0.0, golden.segments)?;

        // Simulation window: the input ramp, several round trips on any net
        // (2.5 × the load's settle horizon = 10 × the time of flight for a
        // single line, and covers branch sums and late aggressor events),
        // and the RC settling of the driver against the full load.
        let line_r = stage
            .load()
            .wave()
            .map(|w| w.line_resistance)
            .unwrap_or(0.0);
        let rs_estimate = 3.0e-3 / spec.nmos_width;
        let settle = 8.0 * (rs_estimate + line_r) * stage.load().total_capacitance();
        // The runaway cap bounds the simulated window *after* the input
        // event, not absolute time: chained session stages carry absolute
        // delays that grow along the path, and capping at an absolute
        // max_stop_time would truncate a late stage's window to nothing.
        let t_stop =
            (input.delay + input.slew + 2.5 * stage.load().settle_horizon() + settle + ps(200.0))
                .min(input.delay + golden.max_stop_time);

        let result = run_transient(
            TransientOptions::try_new(golden.time_step, t_stop)?,
            &ckt,
            &[],
        )?;
        let input_wave = result.waveform(nodes.input);
        let near = result.waveform(nodes.output);
        let vdd = spec.vdd;

        let input_t50 = input_wave
            .crossing_fraction(0.5, vdd, false)
            .ok_or_else(|| {
                EngineError::unsupported(
                    "simulated input never crossed 50% of the supply".to_string(),
                )
            })?;
        let t50 = near.crossing_fraction(0.5, vdd, true).ok_or_else(|| {
            EngineError::unsupported(
                "simulated driver output never crossed 50% within the window".to_string(),
            )
        })?;
        let slew = near.slew_10_90(vdd, true).ok_or_else(|| {
            EngineError::unsupported(
                "simulated driver output never completed the 10-90% transition".to_string(),
            )
        })?;

        let simulated_far_end = if far_node != nodes.output {
            Some(SampledWaveform::new(result.waveform(far_node), vdd))
        } else {
            None
        };
        // Nonlinear driver stages never take the sparse path today, but the
        // check costs nothing and keeps the degrade observable if that
        // changes.
        let lints = if result.degraded_to_dense() {
            vec![sparse_degrade_lint(stage.label())]
        } else {
            Vec::new()
        };
        Ok(StageReport {
            label: stage.label().to_string(),
            backend: self.name(),
            delay: t50 - input_t50,
            slew,
            input_t50,
            vdd,
            used_two_ramp: false,
            waveform: Arc::new(SampledWaveform::new(near, vdd)),
            simulated_far_end,
            lints,
            analytic: None,
            elapsed_seconds: started.elapsed().as_secs_f64(),
            cache_hit: false,
        })
    }
}

/// Why [`ReducedOrderBackend`] could not model a stage in moment space.
/// [`ReducedOrderBackend::analyze`] turns every one of these into a silent
/// fallback to full simulation; [`ReducedOrderBackend::analyze_reduced`]
/// surfaces them for callers that want to know.
#[derive(Debug, Clone)]
pub enum ReductionError {
    /// The load exposes no [`rlc_interconnect::RlcTree`] topology
    /// ([`LoadModel::tree_topology`] returned `None`) — lumped caps, pi
    /// models, coupled buses and moment-space loads.
    NoTreeTopology,
    /// The driver-side analytic Ceff flow failed (degenerate load fit,
    /// non-convergence).
    Driver(EngineError),
    /// The transfer-moment fit failed: degenerate transfer, repeated pole,
    /// or the unstable pole that AWE moment matching cannot rule out.
    Fit(rlc_moments::MomentError),
    /// The modeled far-end response never completed its transition within
    /// the sampled window — the reduced model is not trustworthy here.
    UnresolvedFarEnd,
}

impl std::fmt::Display for ReductionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReductionError::NoTreeTopology => {
                write!(f, "load has no RLC-tree topology to reduce")
            }
            ReductionError::Driver(e) => write!(f, "driver modeling failed: {e}"),
            ReductionError::Fit(e) => write!(f, "transfer-moment fit failed: {e}"),
            ReductionError::UnresolvedFarEnd => write!(
                f,
                "modeled far end never completed its transition within the sampled window"
            ),
        }
    }
}

impl std::error::Error for ReductionError {}

/// A moment-matched reduced-order backend: models the driver with the
/// paper's analytic Ceff flow, then answers the far-end waveform **in closed
/// form** instead of time stepping — the interconnect transfer from the
/// driving point to the primary sink is fitted to a 2-pole rational
/// ([`rlc_moments::TransferModel`] over [`rlc_moments::tree_transfer_moments`])
/// and the driver's piecewise-linear output is pushed through it as a
/// superposition of closed-form ramp responses. A far-end answer costs
/// microseconds where the transient kernel takes milliseconds.
///
/// Moment matching is honest about its limits: loads without a tree
/// topology, degenerate or unstable fits, and responses that fail to settle
/// all produce a typed [`ReductionError`], and [`AnalysisBackend::analyze`]
/// falls back to the golden [`SpiceBackend`] — the report then carries the
/// fallback backend's name (`"rlc-spice"`), so callers can detect the
/// downgrade from `report.backend`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReducedOrderBackend {
    fallback: SpiceBackend,
}

/// Sample count for the modeled far-end waveform — fine enough that linear
/// interpolation error in the 50 % / 10–90 % measurements is negligible.
const ROM_SAMPLES: usize = 1200;

impl ReducedOrderBackend {
    /// Creates the backend.
    pub fn new() -> Self {
        ReducedOrderBackend::default()
    }

    /// Analyzes a stage in moment space, surfacing the typed error instead
    /// of falling back.
    ///
    /// # Errors
    /// A [`ReductionError`] describing why the stage cannot be answered by
    /// the reduced-order model.
    pub fn analyze_reduced(
        &self,
        stage: &Stage,
        config: &EngineConfig,
    ) -> Result<StageReport, ReductionError> {
        let started = Instant::now();
        let tree = stage
            .load()
            .tree_topology()
            .ok_or(ReductionError::NoTreeTopology)?;
        let sink_name = tree
            .sinks()
            .next()
            .map(|(_, s)| s.name.clone())
            .ok_or(ReductionError::NoTreeTopology)?;
        let h =
            tree_transfer_moments(&tree, &sink_name, 3).ok_or(ReductionError::NoTreeTopology)?;
        let model = TransferModel::from_moments(&h).map_err(ReductionError::Fit)?;

        let mut report =
            analytic_stage_report(self.name(), stage, config).map_err(ReductionError::Driver)?;

        // Sample window: the full driver transition plus ten of the fit's
        // slowest time constants — the closed-form response has settled to
        // within e^-10 of its asymptote by then.
        let t_stop = report.waveform.end_time() + 10.0 * model.max_time_constant();
        let far = rom_far_end_waveform(&model, report.waveform.to_source(t_stop), t_stop);

        let vdd = report.vdd;
        if far.crossing_fraction(0.5, vdd, true).is_none() || far.slew_10_90(vdd, true).is_none() {
            return Err(ReductionError::UnresolvedFarEnd);
        }
        report.simulated_far_end = Some(SampledWaveform::new(far, vdd));
        report.elapsed_seconds = started.elapsed().as_secs_f64();
        Ok(report)
    }
}

/// Pushes a piecewise-linear source through a fitted transfer model by ramp
/// superposition: a PWL waveform is a sum of shifted ramps (one slope change
/// per breakpoint), and the model's unit-ramp response is closed form, so
/// the output is an exact evaluation of the reduced model — no time
/// stepping, no numerical integration.
fn rom_far_end_waveform(model: &TransferModel, source: SourceWaveform, t_stop: f64) -> Waveform {
    let points = match source {
        SourceWaveform::Pwl(points) => points,
        SourceWaveform::Dc(v) => vec![(0.0, v)],
        // Driver models only emit PWL or DC sources; treat anything else as
        // holding its t = 0 value.
        other => vec![(0.0, other.value_at(0.0))],
    };
    let v0 = points.first().map_or(0.0, |p| p.1);

    // Slope changes: v_in(t) = v0 + sum_j dm_j * (t - t_j)+.
    let mut changes: Vec<(f64, f64)> = Vec::new();
    let mut prev_slope = 0.0;
    for w in points.windows(2) {
        let dt = w[1].0 - w[0].0;
        if dt <= 0.0 {
            continue;
        }
        let slope = (w[1].1 - w[0].1) / dt;
        if slope != prev_slope {
            changes.push((w[0].0, slope - prev_slope));
        }
        prev_slope = slope;
    }
    if prev_slope != 0.0 {
        // The source holds its last value after the final breakpoint.
        changes.push((points.last().unwrap().0, -prev_slope));
    }

    let n = ROM_SAMPLES;
    let times: Vec<f64> = (0..n).map(|k| k as f64 * t_stop / (n - 1) as f64).collect();
    let values: Vec<f64> = times
        .iter()
        .map(|&t| {
            let transient: f64 = changes
                .iter()
                .map(|&(tj, dm)| dm * model.unit_ramp_response(t - tj))
                .sum();
            v0 * model.dc_gain() + transient
        })
        .collect();
    Waveform::new(times, values)
}

impl AnalysisBackend for ReducedOrderBackend {
    fn name(&self) -> &'static str {
        "reduced-order"
    }

    fn caps(&self) -> BackendCaps {
        BackendCaps {
            // The driver half is the analytic flow, which models ideal-ramp
            // inputs only.
            sampled_input: false,
            // Reports carry the modeled far-end waveform.
            simulates_far_end: true,
        }
    }

    fn analyze(&self, stage: &Stage, config: &EngineConfig) -> Result<StageReport, EngineError> {
        match self.analyze_reduced(stage, config) {
            Ok(report) => Ok(report),
            // Typed reduction failures degrade to the golden simulation; the
            // report keeps the fallback's name so the downgrade is visible.
            Err(_) => self.fallback.analyze(stage, config),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load::{DistributedRlcLoad, LumpedCapLoad};
    use rlc_interconnect::RlcLine;
    use rlc_numeric::units::{ff, mm, nh, pf};

    fn fast_config() -> EngineConfig {
        EngineConfig::fast_for_tests()
    }

    #[test]
    fn analytic_backend_selects_two_ramp_for_the_flagship_case() {
        let line = RlcLine::new(72.44, nh(5.14), pf(1.10), mm(5.0));
        let stage = Stage::builder(
            crate::test_fixtures::synthetic_cell_75x(),
            DistributedRlcLoad::new(line, ff(10.0)).unwrap(),
        )
        .label("flagship")
        .input_slew(ps(100.0))
        .build()
        .unwrap();
        let report = AnalyticBackend.analyze(&stage, &fast_config()).unwrap();
        assert!(report.used_two_ramp);
        assert_eq!(report.backend, "analytic");
        let details = report.analytic.as_ref().unwrap();
        assert!(details.ceff2.unwrap().ceff > details.ceff1.ceff);
        assert!(details.breakpoint > 0.4 && details.breakpoint < 0.6);
        assert!(report.delay > 0.0 && report.slew > report.delay);
        assert!(report.describe().contains("flagship"));
        assert!(report.elapsed_seconds >= 0.0);
    }

    #[test]
    fn strategy_forces_the_waveform_shape() {
        let line = RlcLine::new(72.44, nh(5.14), pf(1.10), mm(5.0));
        let stage = Stage::builder(
            crate::test_fixtures::synthetic_cell_75x(),
            DistributedRlcLoad::new(line, ff(10.0)).unwrap(),
        )
        .input_slew(ps(100.0))
        .build()
        .unwrap();
        let single_cfg = EngineConfig {
            strategy: crate::CeffStrategy::ForceSingleRamp,
            ..fast_config()
        };
        let one = AnalyticBackend.analyze(&stage, &single_cfg).unwrap();
        assert!(!one.used_two_ramp);
        let two_cfg = EngineConfig {
            strategy: crate::CeffStrategy::ForceTwoRamp,
            ..fast_config()
        };
        let two = AnalyticBackend.analyze(&stage, &two_cfg).unwrap();
        assert!(two.used_two_ramp);
        assert!(one.slew < two.slew);
    }

    #[test]
    fn analytic_backend_handles_lumped_loads() {
        let stage = Stage::builder(
            crate::test_fixtures::synthetic_cell_75x(),
            LumpedCapLoad::new(ff(400.0)).unwrap(),
        )
        .input_slew(ps(100.0))
        .build()
        .unwrap();
        let report = AnalyticBackend.analyze(&stage, &fast_config()).unwrap();
        assert!(!report.used_two_ramp);
        let details = report.analytic.as_ref().unwrap();
        assert!((details.ceff1.ceff - ff(400.0)).abs() < 1e-21);
        assert_eq!(details.breakpoint, 1.0);
    }

    /// A balanced 8-sink RC(L)-dominated clock-tree-like net whose primary
    /// sink (`rx0`) has a stable 2-pole transfer fit.
    fn balanced_8sink_tree() -> rlc_interconnect::RlcTree {
        let mut tree = rlc_interconnect::RlcTree::new();
        let root = tree.add_branch(None, RlcLine::new(100.0, nh(0.4), pf(0.5), mm(2.0)));
        let l1a = tree.add_branch(Some(root), RlcLine::new(120.0, nh(0.3), pf(0.4), mm(1.5)));
        let l1b = tree.add_branch(Some(root), RlcLine::new(120.0, nh(0.3), pf(0.4), mm(1.5)));
        for (i, &parent) in [l1a, l1a, l1b, l1b].iter().enumerate() {
            let mid = tree.add_branch(
                Some(parent),
                RlcLine::new(150.0, nh(0.2), pf(0.25), mm(1.0)),
            );
            let s1 = tree.add_branch(Some(mid), RlcLine::new(180.0, nh(0.1), pf(0.15), mm(0.6)));
            let s2 = tree.add_branch(Some(mid), RlcLine::new(180.0, nh(0.1), pf(0.15), mm(0.6)));
            tree.set_sink(s1, &format!("rx{}", 2 * i), ff(12.0));
            tree.set_sink(s2, &format!("rx{}", 2 * i + 1), ff(18.0));
        }
        tree
    }

    #[test]
    fn reduced_order_backend_models_the_far_end_in_closed_form() {
        // An 8-sink RLC tree: the ROM must answer the primary sink's waveform
        // without a transient simulation, and the answer must agree with a
        // real simulation of the same driver waveform through the same tree.
        let load = crate::load::RlcTreeLoad::new(balanced_8sink_tree()).unwrap();
        let stage = Stage::builder(crate::test_fixtures::synthetic_cell_75x(), load.clone())
            .label("rom")
            .input_slew(ps(100.0))
            .build()
            .unwrap();

        let report = ReducedOrderBackend::new()
            .analyze(&stage, &fast_config())
            .unwrap();
        assert_eq!(report.backend, "reduced-order");
        assert!(
            report.analytic.is_some(),
            "driver half is the analytic flow"
        );
        let modeled = report.simulated_far_end.as_ref().expect("modeled far end");
        let rom_t50 = modeled
            .waveform()
            .crossing_fraction(0.5, report.vdd, true)
            .unwrap();
        let rom_delay = rom_t50 - report.input_t50;

        // Golden cross-check: push the same driver waveform through the same
        // tree with the transient kernel. The deep tree settles in the
        // nanosecond range, so give the simulation a wider window than the
        // single-line default.
        let options = FarEndOptions {
            settle_time: ps(4000.0),
            ..FarEndOptions::default()
        };
        let simulated = report.far_end(&load, &options).unwrap();
        let rel = (rom_delay - simulated.delay_from_input).abs() / simulated.delay_from_input;
        assert!(
            rel < 0.05,
            "ROM far-end delay {rom_delay:e} vs simulated {:e} ({:.1}% off)",
            simulated.delay_from_input,
            rel * 100.0
        );
        let rom_slew = modeled.waveform().slew_10_90(report.vdd, true).unwrap();
        let slew_rel = (rom_slew - simulated.slew).abs() / simulated.slew;
        assert!(
            slew_rel < 0.10,
            "ROM far-end slew {rom_slew:e} vs simulated {:e}",
            simulated.slew
        );
    }

    #[test]
    fn reduced_order_backend_falls_back_on_loads_without_a_tree() {
        let stage = Stage::builder(
            crate::test_fixtures::synthetic_cell_75x(),
            LumpedCapLoad::new(ff(300.0)).unwrap(),
        )
        .input_slew(ps(100.0))
        .build()
        .unwrap();
        let backend = ReducedOrderBackend::new();
        assert!(matches!(
            backend.analyze_reduced(&stage, &fast_config()),
            Err(ReductionError::NoTreeTopology)
        ));
        // analyze() silently degrades to the golden simulation and the
        // report says so.
        let report = backend.analyze(&stage, &fast_config()).unwrap();
        assert_eq!(report.backend, "rlc-spice");
        assert!(report.analytic.is_none());
    }

    #[test]
    fn reduced_order_backend_falls_back_on_unstable_fits() {
        // An inductive 3-sink tree whose primary-sink Padé fit lands a pole
        // in the right half plane — the classic AWE non-passivity. The typed
        // error surfaces from analyze_reduced and analyze() degrades to the
        // golden simulation.
        let trunk = RlcLine::new(60.0, nh(2.0), pf(0.6), mm(3.0));
        let stub = RlcLine::new(120.0, nh(1.0), pf(0.3), mm(1.5));
        let mut tree = rlc_interconnect::RlcTree::new();
        let t = tree.add_branch(None, trunk);
        let a = tree.add_branch(Some(t), stub);
        let b = tree.add_branch(Some(t), stub);
        let c = tree.add_branch(Some(b), stub);
        tree.set_sink(a, "rx0", ff(20.0));
        tree.set_sink(b, "rx1", ff(10.0));
        tree.set_sink(c, "rx2", ff(15.0));
        let stage = Stage::builder(
            crate::test_fixtures::synthetic_cell_75x(),
            crate::load::RlcTreeLoad::new(tree).unwrap(),
        )
        .input_slew(ps(100.0))
        .build()
        .unwrap();
        let backend = ReducedOrderBackend::new();
        match backend.analyze_reduced(&stage, &fast_config()) {
            Err(ReductionError::Fit(e)) => {
                assert!(e.to_string().contains("unstable"), "got: {e}")
            }
            other => panic!("expected an unstable-fit error, got {other:?}"),
        }
        let report = backend.analyze(&stage, &fast_config()).unwrap();
        assert_eq!(report.backend, "rlc-spice");
    }

    #[test]
    fn spice_backend_measures_a_real_transition() {
        let stage = Stage::builder(
            crate::test_fixtures::synthetic_cell_75x(),
            LumpedCapLoad::new(ff(300.0)).unwrap(),
        )
        .label("sim")
        .input_slew(ps(100.0))
        .build()
        .unwrap();
        let report = SpiceBackend.analyze(&stage, &fast_config()).unwrap();
        assert_eq!(report.backend, "rlc-spice");
        assert!(report.analytic.is_none());
        assert!(report.delay > 0.0 && report.slew > 0.0);
        // The sampled waveform completes the transition.
        assert!(report.waveform.v(report.waveform.end_time() + ps(200.0)) > 0.9 * report.vdd);
    }
}
