//! [`Stage`]: one validated unit of timing analysis — a driver, the load it
//! drives, the input event, and (optionally) a per-stage backend override.

use std::sync::Arc;

use rlc_charlib::DriverCell;

use crate::backend::AnalysisBackend;
use crate::driver::SampledWaveform;
use crate::error::EngineError;
use crate::load::LoadModel;
use crate::session::{InputSource, StageHandle};
use crate::variation::{VariationModel, VariationSpec};

/// The input event applied to the driver: a saturated ramp described by its
/// 0–100 % transition time, starting at an absolute delay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InputEvent {
    /// Input transition time (seconds, 0–100 %).
    pub slew: f64,
    /// Absolute time at which the input ramp starts (seconds).
    pub delay: f64,
}

impl InputEvent {
    /// Absolute time of the input's 50 % crossing.
    pub fn t50(&self) -> f64 {
        self.delay + 0.5 * self.slew
    }

    /// The slew-referenced ramp event equivalent to a measured waveform: a
    /// saturated 0–100 % ramp whose 10–90 % transition time matches the
    /// measured one (`slew_10_90 / 0.8`), positioned so its 50 % crossing
    /// lands on the measured absolute crossing time `t50`. This is the
    /// default cross-stage handoff an [`crate::AnalysisSession`] applies when
    /// a producer's far-end waveform becomes a dependent driver's input.
    ///
    /// The ramp start is clamped at `t = 0` (simulations start there), which
    /// only matters for transitions measured within half a slew of the time
    /// origin.
    pub fn from_measured(t50: f64, slew_10_90: f64) -> InputEvent {
        let slew = slew_10_90 / 0.8;
        InputEvent {
            slew,
            delay: (t50 - 0.5 * slew).max(0.0),
        }
    }
}

/// How the aggressor of a coupled bus switches relative to the victim's
/// rising transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AggressorSwitching {
    /// The aggressor holds its initial level (0 V); the victim sees the full
    /// coupling capacitance to a quiet neighbour (Miller factor 1).
    Quiet,
    /// The aggressor switches in the same direction as the victim, which
    /// cancels the displacement current through the coupling capacitance
    /// (Miller factor 0) and speeds the victim up.
    #[default]
    SameDirection,
    /// The aggressor switches opposite to the victim — the worst-case
    /// push-out, doubling the effective coupling capacitance (Miller
    /// factor 2).
    OppositeDirection,
}

impl AggressorSwitching {
    /// The classic Miller factor the switching scenario applies to the
    /// coupling capacitance when the bus is reduced to a single victim line
    /// for the analytic flow.
    pub fn miller_factor(self) -> f64 {
        match self {
            AggressorSwitching::Quiet => 1.0,
            AggressorSwitching::SameDirection => 0.0,
            AggressorSwitching::OppositeDirection => 2.0,
        }
    }
}

/// The aggressor's drive on a coupled bus: its switching direction plus the
/// ideal-ramp event applied to the aggressor's near end.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AggressorSpec {
    /// Switching direction relative to the victim.
    pub switching: AggressorSwitching,
    /// Aggressor ramp transition time (seconds, 0–100 %).
    pub slew: f64,
    /// Absolute time at which the aggressor ramp starts (seconds).
    pub delay: f64,
    /// Aggressor swing (volts), typically the supply voltage.
    pub amplitude: f64,
}

impl AggressorSpec {
    /// Creates and validates an aggressor description.
    ///
    /// # Errors
    /// Returns [`EngineError::InvalidStage`] when the slew is not positive
    /// and finite, the delay is negative or non-finite, or the amplitude is
    /// not positive and finite.
    pub fn new(
        switching: AggressorSwitching,
        slew: f64,
        delay: f64,
        amplitude: f64,
    ) -> Result<Self, EngineError> {
        if !(slew > 0.0 && slew.is_finite()) {
            return Err(EngineError::invalid(format!(
                "aggressor slew must be positive and finite, got {slew:e}"
            )));
        }
        if !(delay >= 0.0 && delay.is_finite()) {
            return Err(EngineError::invalid(format!(
                "aggressor delay must be non-negative and finite, got {delay:e}"
            )));
        }
        if !(amplitude > 0.0 && amplitude.is_finite()) {
            return Err(EngineError::invalid(format!(
                "aggressor amplitude must be positive and finite, got {amplitude:e}"
            )));
        }
        Ok(AggressorSpec {
            switching,
            slew,
            delay,
            amplitude,
        })
    }

    /// A quiet aggressor held at 0 V (the ramp parameters are unused but
    /// kept valid).
    pub fn quiet(amplitude: f64) -> Result<Self, EngineError> {
        AggressorSpec::new(
            AggressorSwitching::Quiet,
            rlc_numeric::units::ps(100.0),
            0.0,
            amplitude,
        )
    }
}

/// Which backend analyzes a stage.
#[derive(Clone)]
pub enum BackendChoice {
    /// The paper's analytic effective-capacitance flow.
    Analytic,
    /// The golden `rlc-spice` transient simulation.
    Spice,
    /// A user-supplied backend.
    Custom(Arc<dyn AnalysisBackend>),
}

impl std::fmt::Debug for BackendChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackendChoice::Analytic => write!(f, "Analytic"),
            BackendChoice::Spice => write!(f, "Spice"),
            BackendChoice::Custom(b) => write!(f, "Custom({})", b.name()),
        }
    }
}

/// One validated timing-analysis stage. Build with [`Stage::builder`]; the
/// builder returns `Err` for bad descriptions, so a malformed stage in a
/// batch is a per-stage report instead of a crash.
///
/// A stage's input is either a fixed [`InputEvent`]
/// ([`StageBuilder::input_slew`]) or a *dependent* [`InputSource`] declaring
/// that the input is the measured far-end waveform of another stage
/// ([`StageBuilder::input_from`], [`StageBuilder::input_from_sink`]).
/// Dependent stages can only be analyzed through an
/// [`crate::AnalysisSession`], which resolves the producer's waveform into a
/// concrete input event before dispatching to a backend.
#[derive(Debug, Clone)]
pub struct Stage {
    label: String,
    driver: Arc<DriverCell>,
    load: Arc<dyn LoadModel>,
    source: InputSource,
    resolved: Option<InputEvent>,
    input_waveform: Option<SampledWaveform>,
    after: Vec<StageHandle>,
    backend: Option<BackendChoice>,
    variation: Vec<VariationSpec>,
}

impl Stage {
    /// Starts building a stage from a driver and a load model.
    pub fn builder<L: LoadModel + 'static>(
        driver: impl Into<Arc<DriverCell>>,
        load: L,
    ) -> StageBuilder {
        Self::builder_shared(driver.into(), Arc::new(load))
    }

    /// Starts building a stage from shared driver/load handles (lets many
    /// stages of a batch share one characterized cell and one load).
    pub fn builder_shared(driver: Arc<DriverCell>, load: Arc<dyn LoadModel>) -> StageBuilder {
        StageBuilder {
            label: None,
            driver,
            load,
            slew: None,
            delay: None,
            from: None,
            after: Vec::new(),
            aggressor: None,
            backend: None,
            corners: Vec::new(),
            monte_carlo: None,
        }
    }

    /// The stage label (used in reports and error messages).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The characterized driver.
    pub fn driver(&self) -> &DriverCell {
        &self.driver
    }

    /// The load model.
    pub fn load(&self) -> &dyn LoadModel {
        self.load.as_ref()
    }

    /// The load model as a shareable handle.
    pub fn load_shared(&self) -> Arc<dyn LoadModel> {
        self.load.clone()
    }

    /// The input event.
    ///
    /// # Panics
    /// Panics for a dependent stage whose input has not been resolved by a
    /// session yet; use [`Stage::try_input`] or [`Stage::input_source`] when
    /// the stage may be dependent.
    pub fn input(&self) -> InputEvent {
        self.resolved.expect(
            "the input of a dependent stage is only resolved once its producer completes; \
             submit it to an AnalysisSession (or inspect input_source())",
        )
    }

    /// The input event, when it is known: always `Some` for fixed-input
    /// stages and for stages a session already resolved, `None` for a
    /// dependent stage still waiting on its producer.
    pub fn try_input(&self) -> Option<InputEvent> {
        self.resolved
    }

    /// Where the stage's input comes from.
    pub fn input_source(&self) -> &InputSource {
        &self.source
    }

    /// Whether the input is still unresolved (a dependent stage that has not
    /// been run through a session).
    pub fn is_dependent(&self) -> bool {
        self.resolved.is_none()
    }

    /// The sampled input waveform a session attached for backends that
    /// support full-waveform handoff ([`crate::BackendCaps::sampled_input`]).
    /// `None` for fixed-input stages and ramp-converted handoffs.
    pub fn input_waveform(&self) -> Option<&SampledWaveform> {
        self.input_waveform.as_ref()
    }

    /// Extra scheduling-only dependencies ([`StageBuilder::after`]).
    pub fn after_handles(&self) -> &[StageHandle] {
        &self.after
    }

    /// The per-stage backend override, if any.
    pub fn backend(&self) -> Option<&BackendChoice> {
        self.backend.as_ref()
    }

    /// The stage's variation plan ([`StageBuilder::corners`] /
    /// [`StageBuilder::monte_carlo`]), in plan order: corners first, then
    /// Monte-Carlo draws in seed order. Empty for plain single-condition
    /// stages.
    pub fn variation_samples(&self) -> &[VariationSpec] {
        &self.variation
    }

    /// A copy of this stage revalued for one variation sample: the driver's
    /// supply and on-resistance rescaled, the load revalued through
    /// [`crate::LoadModel::scaled`], and the label suffixed with the sample
    /// index. The sample stage carries no variation plan (and no ordering
    /// dependencies) of its own.
    pub(crate) fn with_sample(
        &self,
        spec: &VariationSpec,
        index: usize,
    ) -> Result<Stage, EngineError> {
        let load = self.load.scaled(spec).ok_or_else(|| {
            EngineError::unsupported(format!(
                "stage '{}': its load cannot be revalued for variation analysis: {}",
                self.label,
                self.load.describe()
            ))
        })?;
        let mut sample = self.clone();
        sample.label = format!("{}@s{index}", self.label);
        sample.driver = scaled_driver(&self.driver, spec);
        sample.load = load;
        sample.variation = Vec::new();
        sample.after = Vec::new();
        Ok(sample)
    }

    /// A copy of this stage rewired to chain from `producer`'s primary far
    /// end. Path distribution analysis uses this to keep handoffs
    /// corner-consistent: sample *i* of a stage always feeds sample *i* of
    /// the next stage, never a different corner's waveform.
    pub(crate) fn rewire_input_from(mut self, producer: StageHandle) -> Stage {
        self.source = InputSource::FromFarEnd { stage: producer };
        self.resolved = None;
        self.input_waveform = None;
        self
    }

    /// A copy of this stage with its dependent input resolved to a concrete
    /// event (and optionally the full sampled waveform for capable
    /// backends). Used by the session scheduler just before dispatch.
    pub(crate) fn resolve_input(
        &self,
        event: InputEvent,
        waveform: Option<SampledWaveform>,
    ) -> Stage {
        let mut resolved = self.clone();
        resolved.resolved = Some(event);
        resolved.input_waveform = waveform;
        resolved
    }
}

/// The driver revalued for one variation sample: the supply rail (and with
/// it every rail-referenced measurement) scales by the source factor, and
/// the extracted on-resistance — a channel resistance, which drifts with
/// process and temperature like any other resistor — by the
/// temperature-adjusted resistance scale. The timing table stays the
/// characterized nominal.
fn scaled_driver(driver: &Arc<DriverCell>, spec: &VariationSpec) -> Arc<DriverCell> {
    let r_eff = spec.effective_r_scale();
    if spec.source_scale == 1.0 && r_eff == 1.0 {
        return driver.clone();
    }
    let mut inverter = *driver.spec();
    inverter.vdd *= spec.source_scale;
    Arc::new(DriverCell::from_parts(
        inverter,
        driver.table().clone(),
        driver.on_resistance() * r_eff,
    ))
}

/// Builder for [`Stage`].
#[derive(Debug, Clone)]
pub struct StageBuilder {
    label: Option<String>,
    driver: Arc<DriverCell>,
    load: Arc<dyn LoadModel>,
    slew: Option<f64>,
    delay: Option<f64>,
    from: Option<(StageHandle, Option<String>)>,
    after: Vec<StageHandle>,
    aggressor: Option<AggressorSpec>,
    backend: Option<BackendChoice>,
    corners: Vec<VariationSpec>,
    monte_carlo: Option<(usize, u64, VariationModel)>,
}

impl StageBuilder {
    /// Names the stage (defaults to `"stage"`).
    pub fn label(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }

    /// Sets the input transition time (seconds, 0–100 %). Required unless
    /// the input comes from another stage ([`StageBuilder::input_from`]).
    pub fn input_slew(mut self, slew: f64) -> Self {
        self.slew = Some(slew);
        self
    }

    /// Sets the absolute start time of the input ramp (default 20 ps).
    pub fn input_delay(mut self, delay: f64) -> Self {
        self.delay = Some(delay);
        self
    }

    /// Declares the input as the measured **primary far-end** waveform of an
    /// already-submitted (or reserved) stage of the same
    /// [`crate::AnalysisSession`]. The session resolves the waveform into a
    /// slew-referenced ramp (or hands the sampled waveform through, when the
    /// backend reports [`crate::BackendCaps::sampled_input`]) once the
    /// producer completes. Mutually exclusive with
    /// [`StageBuilder::input_slew`].
    pub fn input_from(mut self, stage: StageHandle) -> Self {
        self.from = Some((stage, None));
        self
    }

    /// Declares the input as the measured waveform at a **named sink** of
    /// another stage's load (a tree receiver pin, the `"victim"` far end of
    /// a coupled bus). See [`StageBuilder::input_from`].
    pub fn input_from_sink(mut self, stage: StageHandle, sink: impl Into<String>) -> Self {
        self.from = Some((stage, Some(sink.into())));
        self
    }

    /// Adds a scheduling-only dependency: the stage will not start before
    /// `stage` completed, even though no waveform flows between them. A
    /// failing ordering dependency poisons this stage like a failing
    /// producer would.
    pub fn after(mut self, stage: StageHandle) -> Self {
        self.after.push(stage);
        self
    }

    /// Replaces the aggressor drive of a coupled load. Only loads that model
    /// an aggressor (e.g. [`crate::CoupledBusLoad`]) accept this; on any
    /// other load [`StageBuilder::build`] returns a typed
    /// [`EngineError::InvalidStage`] instead of letting the mismatch surface
    /// as a backend panic.
    pub fn aggressor(mut self, spec: AggressorSpec) -> Self {
        self.aggressor = Some(spec);
        self
    }

    /// Overrides the engine's default backend for this stage.
    pub fn backend(mut self, backend: BackendChoice) -> Self {
        self.backend = Some(backend);
        self
    }

    /// Adds explicit process/environment corners to the stage's variation
    /// plan. [`crate::TimingEngine::analyze_distribution`] analyzes one
    /// revalued copy of the stage per plan entry and reduces the results
    /// into a [`crate::DistributionReport`]. Repeatable; corners accumulate
    /// ahead of any Monte-Carlo draws.
    pub fn corners(mut self, specs: impl IntoIterator<Item = VariationSpec>) -> Self {
        self.corners.extend(specs);
        self
    }

    /// Appends `n` seeded Monte-Carlo draws from `model` to the variation
    /// plan. Draws are generated deterministically at build time with
    /// [`rlc_numeric::Rng`], so the same seed always yields the same plan —
    /// and therefore a bit-identical [`crate::DistributionReport`].
    pub fn monte_carlo(mut self, n: usize, seed: u64, model: VariationModel) -> Self {
        self.monte_carlo = Some((n, seed, model));
        self
    }

    /// Validates and finishes the stage.
    ///
    /// # Errors
    /// Returns [`EngineError::InvalidStage`] when the input slew is missing,
    /// non-positive or non-finite, the input delay is negative or
    /// non-finite, a fixed input event is combined with a dependent input
    /// source, or an aggressor override targets a load without an aggressor.
    pub fn build(self) -> Result<Stage, EngineError> {
        let load = match self.aggressor {
            None => self.load,
            Some(spec) => self.load.with_aggressor(spec).ok_or_else(|| {
                EngineError::invalid(format!(
                    "an AggressorSpec only applies to coupled loads \
                     (e.g. CoupledBusLoad); this load has no aggressor: {}",
                    self.load.describe()
                ))
            })?,
        };
        let (source, resolved) = match self.from {
            Some((stage, sink)) => {
                if self.slew.is_some() || self.delay.is_some() {
                    return Err(EngineError::invalid(
                        "a dependent stage derives its input event from its producer; \
                         remove input_slew(..)/input_delay(..)",
                    ));
                }
                let source = match sink {
                    None => InputSource::FromFarEnd { stage },
                    Some(sink) => {
                        if sink.is_empty() {
                            return Err(EngineError::invalid("the sink name must not be empty"));
                        }
                        InputSource::FromSink { stage, sink }
                    }
                };
                (source, None)
            }
            None => {
                let slew = self.slew.ok_or_else(|| {
                    EngineError::invalid(
                        "input slew is required: call input_slew(..) or input_from(..)",
                    )
                })?;
                if !(slew > 0.0 && slew.is_finite()) {
                    return Err(EngineError::invalid(format!(
                        "input slew must be positive and finite, got {slew:e}"
                    )));
                }
                let delay = self.delay.unwrap_or(rlc_numeric::units::ps(20.0));
                if !(delay >= 0.0 && delay.is_finite()) {
                    return Err(EngineError::invalid(format!(
                        "input delay must be non-negative and finite, got {delay:e}"
                    )));
                }
                let event = InputEvent { slew, delay };
                (InputSource::Event(event), Some(event))
            }
        };
        let mut variation = self.corners;
        for spec in &variation {
            crate::variation::validate_spec(spec)?;
        }
        if let Some((n, seed, model)) = self.monte_carlo {
            model.validate()?;
            // Draws from a validated model are clamped physical by
            // construction; only explicit corners need re-validation.
            variation.extend(model.samples(n, seed));
        }
        Ok(Stage {
            label: self.label.unwrap_or_else(|| "stage".to_string()),
            driver: self.driver,
            load,
            source,
            resolved,
            input_waveform: None,
            after: self.after,
            backend: self.backend,
            variation,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load::LumpedCapLoad;
    use rlc_numeric::units::{ff, ps};

    #[test]
    fn builder_produces_a_labelled_stage() {
        let stage = Stage::builder(
            crate::test_fixtures::synthetic_cell_75x(),
            LumpedCapLoad::new(ff(200.0)).unwrap(),
        )
        .label("net42")
        .input_slew(ps(100.0))
        .input_delay(ps(40.0))
        .backend(BackendChoice::Analytic)
        .build()
        .unwrap();
        assert_eq!(stage.label(), "net42");
        assert_eq!(stage.input().slew, ps(100.0));
        assert!((stage.input().t50() - ps(90.0)).abs() < 1e-18);
        assert!(matches!(stage.backend(), Some(BackendChoice::Analytic)));
        assert!(stage.driver().vdd() > 0.0);
        assert!(stage.load().total_capacitance() > 0.0);
        assert!(format!("{:?}", stage.backend().unwrap()).contains("Analytic"));
    }

    #[test]
    fn builder_rejects_bad_descriptions_without_panicking() {
        let cell = Arc::new(crate::test_fixtures::synthetic_cell_75x());
        let load: Arc<dyn crate::load::LoadModel> =
            Arc::new(LumpedCapLoad::new(ff(200.0)).unwrap());

        // Missing slew.
        let err = Stage::builder_shared(cell.clone(), load.clone())
            .build()
            .unwrap_err();
        assert!(matches!(err, EngineError::InvalidStage { .. }));

        // Non-positive slew.
        let err = Stage::builder_shared(cell.clone(), load.clone())
            .input_slew(0.0)
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("slew"));

        // Negative delay.
        let err = Stage::builder_shared(cell, load)
            .input_slew(ps(100.0))
            .input_delay(-1e-12)
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("delay"));
    }

    #[test]
    fn aggressor_spec_validates_and_reports_miller_factors() {
        let spec = AggressorSpec::new(
            AggressorSwitching::OppositeDirection,
            ps(80.0),
            ps(10.0),
            1.8,
        )
        .unwrap();
        assert_eq!(spec.switching.miller_factor(), 2.0);
        assert_eq!(AggressorSwitching::Quiet.miller_factor(), 1.0);
        assert_eq!(AggressorSwitching::SameDirection.miller_factor(), 0.0);
        assert!(AggressorSpec::quiet(1.8).is_ok());
        assert!(AggressorSpec::new(AggressorSwitching::Quiet, 0.0, 0.0, 1.8).is_err());
        assert!(AggressorSpec::new(AggressorSwitching::Quiet, ps(80.0), -1.0, 1.8).is_err());
        assert!(AggressorSpec::new(AggressorSwitching::Quiet, ps(80.0), 0.0, f64::NAN).is_err());
    }

    #[test]
    fn from_measured_positions_the_ramp_on_the_crossing() {
        let event = InputEvent::from_measured(ps(300.0), ps(80.0));
        // 0-100% slew = 10-90% / 0.8.
        assert!((event.slew - ps(100.0)).abs() < 1e-18);
        assert!((event.t50() - ps(300.0)).abs() < 1e-18);
        // Clamped at t = 0 when the crossing is too early.
        let early = InputEvent::from_measured(ps(10.0), ps(80.0));
        assert_eq!(early.delay, 0.0);
    }

    #[test]
    fn aggressor_override_requires_a_coupled_load() {
        use crate::load::CoupledBusLoad;
        use rlc_interconnect::{CoupledBus, RlcLine};
        use rlc_numeric::units::{mm, nh, pf};

        let cell = Arc::new(crate::test_fixtures::synthetic_cell_75x());
        let spec =
            AggressorSpec::new(AggressorSwitching::OppositeDirection, ps(80.0), 0.0, 1.8).unwrap();

        // On a lumped load: a typed validation error, not a backend panic.
        let err = Stage::builder_shared(
            cell.clone(),
            Arc::new(LumpedCapLoad::new(ff(200.0)).unwrap()),
        )
        .input_slew(ps(100.0))
        .aggressor(spec)
        .build()
        .unwrap_err();
        assert!(matches!(err, crate::EngineError::InvalidStage { .. }));
        assert!(err.to_string().contains("aggressor"));

        // On a coupled bus: the stage's load carries the replacement spec.
        let line = RlcLine::new(72.44, nh(5.14), pf(1.10), mm(5.0));
        let bus = CoupledBus::symmetric(line, pf(0.4), nh(1.0), ff(10.0));
        let quiet = CoupledBusLoad::new(bus, AggressorSpec::quiet(1.8).unwrap()).unwrap();
        let quiet_cap = crate::load::LoadModel::total_capacitance(&quiet);
        let stage = Stage::builder(cell, quiet.clone())
            .input_slew(ps(100.0))
            .aggressor(spec)
            .build()
            .unwrap();
        // Opposite-direction switching doubles the coupling: more capacitance
        // than the quiet spec the load was built with.
        assert!(stage.load().total_capacitance() > quiet_cap);
    }

    #[test]
    fn dependent_builder_rejects_conflicting_inputs() {
        let cell = Arc::new(crate::test_fixtures::synthetic_cell_75x());
        let load: Arc<dyn crate::load::LoadModel> =
            Arc::new(LumpedCapLoad::new(ff(200.0)).unwrap());
        // A handle is only obtainable from a session; fabricate one through
        // the engine to exercise the builder paths.
        let engine = crate::TimingEngine::new(crate::EngineConfig::fast_for_tests());
        let mut session = engine.session();
        let handle = session.reserve();

        // Slew + dependent source conflict.
        let err = Stage::builder_shared(cell.clone(), load.clone())
            .input_slew(ps(100.0))
            .input_from(handle)
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("dependent"));

        // Empty sink names are rejected.
        let err = Stage::builder_shared(cell.clone(), load.clone())
            .input_from_sink(handle, "")
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("sink name"));

        // A well-formed dependent stage records its source and ordering deps.
        let other = session.reserve();
        let stage = Stage::builder_shared(cell, load)
            .input_from_sink(handle, "rx0")
            .after(other)
            .build()
            .unwrap();
        assert!(stage.is_dependent());
        assert_eq!(stage.after_handles(), &[other]);
        assert_eq!(stage.input_source().producer(), Some(handle));
    }

    #[test]
    fn default_label_and_delay_apply() {
        let stage = Stage::builder(
            crate::test_fixtures::synthetic_cell_75x(),
            LumpedCapLoad::new(ff(200.0)).unwrap(),
        )
        .input_slew(ps(100.0))
        .build()
        .unwrap();
        assert_eq!(stage.label(), "stage");
        assert_eq!(stage.input().delay, ps(20.0));
        assert!(stage.backend().is_none());
    }
}
