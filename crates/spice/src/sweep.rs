//! Variation samples: the per-element-class scale factors one process
//! corner or Monte-Carlo draw applies to a circuit's element values.
//!
//! A [`VariationSpec`] changes element *values* (R/L/C scale factors, supply
//! level, a temperature-like resistance drift) but never the topology. The
//! facade's `analyze_distribution` revalues one stage per sample and runs
//! each sample as a stage of its own; this module holds the spec and its
//! `L040` field check ([`VariationSpec::diagnostics`],
//! [`VariationSpec::validate`]).

use rlc_numeric::Diagnostic;

use crate::SpiceError;

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
            ("source_scale", self.source_scale),
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
        out
    }

    /// Validates the sample: every scale (including the effective,
    /// temperature-adjusted resistance scale and the source scale) must be
    /// finite and positive.
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn invalid_specs_are_rejected() {
        let bad = VariationSpec::nominal().with_r_scale(-1.0);
        assert!(bad.validate().is_err());
        // Temperature drift that drives the effective resistance negative.
        let frozen = VariationSpec::nominal().with_temperature_delta(-1e6);
        assert!(frozen.validate().is_err());
    }
}
