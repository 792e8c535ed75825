//! Statistical and multi-corner timing: Monte-Carlo variation models and the
//! [`DistributionReport`] aggregation over variation-sampled stages.
//!
//! A [`crate::Stage`] can carry a *variation plan* — explicit process corners
//! ([`crate::StageBuilder::corners`]) and/or seeded Monte-Carlo draws
//! ([`crate::StageBuilder::monte_carlo`]). Each plan entry is a
//! [`VariationSpec`] (the same spec type the `rlc-spice` batched
//! [`crate::spice::VariationSweep`] kernel consumes): per-element-class R/L/C
//! scale factors, a supply scale, and a temperature shift.
//! [`crate::TimingEngine::analyze_distribution`] materializes one scaled
//! stage per sample — driver supply and on-resistance rescaled, load revalued
//! through [`crate::LoadModel::scaled`] — schedules every sample across an
//! [`crate::AnalysisSession`]'s worker loops, and reduces the per-sample
//! reports into a [`DistributionReport`].
//!
//! Sampling is fully deterministic: Monte-Carlo draws are generated from the
//! seed with [`rlc_numeric::Rng`] at stage-build time, and aggregation walks
//! samples in plan order regardless of which worker finished first — the same
//! seed always produces a bit-identical report.

use rlc_numeric::stats::{DistributionSummary, Rng};

use crate::error::EngineError;

pub use rlc_spice::sweep::VariationSpec;

/// A Gaussian process/environment variation model for Monte-Carlo sampling:
/// each draw perturbs the element-class scale factors of a [`VariationSpec`]
/// around their nominal value of 1 with the configured relative sigmas.
///
/// Draws are clamped to `[0.5, 2.0]` so a pathological tail sample cannot
/// produce a non-physical (or negative) element value; with realistic sigmas
/// (a few percent) the clamp is never active.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VariationModel {
    /// Relative standard deviation of the resistance scale factor.
    pub r_sigma: f64,
    /// Relative standard deviation of the inductance scale factor.
    pub l_sigma: f64,
    /// Relative standard deviation of the capacitance scale factor.
    pub c_sigma: f64,
    /// Relative standard deviation of the supply scale factor.
    pub vdd_sigma: f64,
    /// Deterministic temperature shift applied to every draw (kelvin, via
    /// [`VariationSpec::with_temperature_delta`]).
    pub temperature_delta: f64,
}

impl Default for VariationModel {
    /// A mild deep-submicron recipe: 5 % sigma on wire R and C, 3 % on L and
    /// the supply, no temperature shift.
    fn default() -> Self {
        VariationModel {
            r_sigma: 0.05,
            l_sigma: 0.03,
            c_sigma: 0.05,
            vdd_sigma: 0.03,
            temperature_delta: 0.0,
        }
    }
}

impl VariationModel {
    /// Sets the resistance sigma.
    pub fn with_r_sigma(mut self, sigma: f64) -> Self {
        self.r_sigma = sigma;
        self
    }

    /// Sets the inductance sigma.
    pub fn with_l_sigma(mut self, sigma: f64) -> Self {
        self.l_sigma = sigma;
        self
    }

    /// Sets the capacitance sigma.
    pub fn with_c_sigma(mut self, sigma: f64) -> Self {
        self.c_sigma = sigma;
        self
    }

    /// Sets the supply sigma.
    pub fn with_vdd_sigma(mut self, sigma: f64) -> Self {
        self.vdd_sigma = sigma;
        self
    }

    /// Sets the deterministic temperature shift applied to every draw.
    pub fn with_temperature_delta(mut self, dt: f64) -> Self {
        self.temperature_delta = dt;
        self
    }

    /// Validates the model.
    ///
    /// # Errors
    /// Returns [`EngineError::InvalidStage`] for negative, non-finite or
    /// implausibly large (> 0.5) sigmas, or a non-finite temperature shift.
    pub fn validate(&self) -> Result<(), EngineError> {
        for (name, sigma) in [
            ("r_sigma", self.r_sigma),
            ("l_sigma", self.l_sigma),
            ("c_sigma", self.c_sigma),
            ("vdd_sigma", self.vdd_sigma),
        ] {
            if !(sigma.is_finite() && (0.0..=0.5).contains(&sigma)) {
                return Err(EngineError::invalid(format!(
                    "variation model {name} must be finite and within [0, 0.5], got {sigma:e}"
                )));
            }
        }
        if !self.temperature_delta.is_finite() {
            return Err(EngineError::invalid(
                "variation model temperature delta must be finite",
            ));
        }
        Ok(())
    }

    /// Draws one sample spec from the model.
    pub fn sample(&self, rng: &mut Rng) -> VariationSpec {
        let draw = |rng: &mut Rng, sigma: f64| rng.normal(1.0, sigma).clamp(0.5, 2.0);
        VariationSpec::nominal()
            .with_r_scale(draw(rng, self.r_sigma))
            .with_l_scale(draw(rng, self.l_sigma))
            .with_c_scale(draw(rng, self.c_sigma))
            .with_source_scale(draw(rng, self.vdd_sigma))
            .with_temperature_delta(self.temperature_delta)
    }

    /// Generates `n` deterministic draws from `seed`.
    pub fn samples(&self, n: usize, seed: u64) -> Vec<VariationSpec> {
        let mut rng = Rng::new(seed);
        (0..n).map(|_| self.sample(&mut rng)).collect()
    }
}

/// One analyzed variation sample of a [`DistributionReport`].
#[derive(Debug, Clone)]
pub struct SampleResult {
    /// The variation spec this sample ran at.
    pub spec: VariationSpec,
    /// 50 % driver-output delay (seconds).
    pub delay: f64,
    /// 10–90 % driver-output transition time (seconds).
    pub slew: f64,
    /// Largest far-end excursion above the sample's (scaled) supply, when
    /// the sample's backend simulated a far end; `None` otherwise.
    pub peak_noise: Option<f64>,
    /// Name of the backend that analyzed the sample.
    pub backend: &'static str,
}

/// The statistical outcome of analyzing one stage across its variation plan:
/// per-metric distribution summaries plus the worst-sample witness.
#[derive(Debug, Clone)]
pub struct DistributionReport {
    label: String,
    samples: Vec<SampleResult>,
    delay: DistributionSummary,
    slew: DistributionSummary,
    peak_noise: Option<DistributionSummary>,
    worst: usize,
}

impl DistributionReport {
    /// Reduces per-sample results (already in plan order) into a report.
    /// `samples` must be non-empty — callers validate the plan first.
    pub(crate) fn from_samples(label: String, samples: Vec<SampleResult>) -> DistributionReport {
        let delays: Vec<f64> = samples.iter().map(|s| s.delay).collect();
        let slews: Vec<f64> = samples.iter().map(|s| s.slew).collect();
        let noise: Vec<f64> = samples.iter().filter_map(|s| s.peak_noise).collect();
        let worst = delays
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap_or(0);
        DistributionReport {
            label,
            delay: DistributionSummary::from_samples(&delays)
                .expect("a variation plan has at least one sample"),
            slew: DistributionSummary::from_samples(&slews)
                .expect("a variation plan has at least one sample"),
            peak_noise: DistributionSummary::from_samples(&noise),
            samples,
            worst,
        }
    }

    /// The analyzed stage's label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Number of variation samples.
    pub fn num_samples(&self) -> usize {
        self.samples.len()
    }

    /// Per-sample results, in plan order (corners first, then Monte-Carlo
    /// draws in seed order).
    pub fn samples(&self) -> &[SampleResult] {
        &self.samples
    }

    /// Delay distribution (mean, sigma, min/max, p50/p95/p99).
    pub fn delay(&self) -> &DistributionSummary {
        &self.delay
    }

    /// Slew distribution.
    pub fn slew(&self) -> &DistributionSummary {
        &self.slew
    }

    /// Peak-noise distribution over the samples whose backend simulated a
    /// far end; `None` when no sample carried a far-end waveform.
    pub fn peak_noise(&self) -> Option<&DistributionSummary> {
        self.peak_noise.as_ref()
    }

    /// The worst sample (largest delay) and its index in plan order — the
    /// witness a signoff flow escalates.
    pub fn worst_sample(&self) -> (usize, &SampleResult) {
        (self.worst, &self.samples[self.worst])
    }

    /// One-line human-readable summary.
    pub fn describe(&self) -> String {
        let (index, worst) = self.worst_sample();
        format!(
            "{}: {} samples, delay {:.1} ps (sigma {:.2} ps, p99 {:.1} ps), \
             slew {:.1} ps, worst sample #{index} ({:.1} ps)",
            self.label,
            self.num_samples(),
            self.delay.mean * 1e12,
            self.delay.std_dev * 1e12,
            self.delay.p99 * 1e12,
            self.slew.mean * 1e12,
            worst.delay * 1e12,
        )
    }
}

/// Maps a spice-layer spec-validation failure onto the facade error type.
pub(crate) fn validate_spec(spec: &VariationSpec) -> Result<(), EngineError> {
    spec.validate()
        .map_err(|e| EngineError::invalid(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_draws_are_seed_deterministic_and_clamped() {
        let model = VariationModel::default().with_temperature_delta(25.0);
        let a = model.samples(32, 7);
        let b = model.samples(32, 7);
        assert_eq!(a, b);
        let c = model.samples(32, 8);
        assert_ne!(a, c);
        for spec in &a {
            for s in [spec.r_scale, spec.l_scale, spec.c_scale, spec.source_scale] {
                assert!((0.5..=2.0).contains(&s));
            }
            assert_eq!(spec.temperature_delta, 25.0);
            assert!(spec.validate().is_ok());
        }
    }

    #[test]
    fn model_validation_rejects_bad_sigmas() {
        assert!(VariationModel::default().validate().is_ok());
        assert!(VariationModel::default()
            .with_r_sigma(-0.1)
            .validate()
            .is_err());
        assert!(VariationModel::default()
            .with_vdd_sigma(0.9)
            .validate()
            .is_err());
        assert!(VariationModel::default()
            .with_c_sigma(f64::NAN)
            .validate()
            .is_err());
        assert!(VariationModel::default()
            .with_temperature_delta(f64::INFINITY)
            .validate()
            .is_err());
    }

    #[test]
    fn report_reduces_samples_and_finds_the_worst() {
        let mk = |delay: f64, noise: Option<f64>| SampleResult {
            spec: VariationSpec::nominal(),
            delay,
            slew: 2.0 * delay,
            peak_noise: noise,
            backend: "test",
        };
        let report = DistributionReport::from_samples(
            "net".into(),
            vec![
                mk(10e-12, None),
                mk(30e-12, Some(0.2)),
                mk(20e-12, Some(0.1)),
            ],
        );
        assert_eq!(report.num_samples(), 3);
        assert!((report.delay().mean - 20e-12).abs() < 1e-18);
        assert_eq!(report.delay().max, 30e-12);
        let (index, worst) = report.worst_sample();
        assert_eq!(index, 1);
        assert_eq!(worst.delay, 30e-12);
        let noise = report.peak_noise().expect("two samples carried noise");
        assert_eq!(noise.count, 2);
        assert_eq!(noise.max, 0.2);
        assert!(report.describe().contains("3 samples"));
        assert!(report.describe().contains("worst sample #1"));
    }
}
