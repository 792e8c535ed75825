//! Incremental re-analysis (ECO) subsystem: a persistent, content-addressed
//! stage-result cache.
//!
//! After an engineering change order edits one stage of a large design,
//! almost everything downstream of the signoff flow is unchanged — but a
//! naive re-run re-simulates every stage. The [`StageResultCache`] makes the
//! re-run incremental: every completed [`StageReport`] is persisted under a
//! key derived from the *full identity* of the work that produced it, and an
//! [`crate::AnalysisSession`] whose engine was configured with
//! [`crate::EngineConfigBuilder::result_cache_dir`] consults the store before
//! dispatching a stage to a backend. A hit short-circuits the stage — no
//! effective-capacitance iteration, no transient simulation, no far-end
//! propagation — and feeds its dependents exactly as a fresh run would.
//!
//! ## The cache key
//!
//! A stage's key is an FNV-1a fingerprint over every input that can change
//! its report:
//!
//! * the **driver cell** — inverter spec (widths, device parameters,
//!   supply), the characterized timing table, and the extracted
//!   on-resistance;
//! * the **load topology** — a type tag plus every element value, via
//!   [`crate::LoadModel::cache_fingerprint`];
//! * the **input** — the fixed [`InputEvent`], or, for dependent stages, the
//!   *producer's own cache key* plus the tapped sink name. Keys therefore
//!   chain transitively: editing one stage changes its key, which changes
//!   its consumers' keys, and so on down the dependency cone — while
//!   untouched upstream stages and sibling branches keep their keys and hit;
//! * the **engine configuration** knobs that affect results — backend
//!   choice, Ceff strategy, iteration/criteria tolerances, golden fidelity,
//!   per-case Rs extraction, lint level, and the session's handoff options.
//!
//! Stages that cannot be fingerprinted faithfully — a user-supplied
//! [`crate::BackendChoice::Custom`] backend, or a custom [`crate::LoadModel`]
//! that does not implement [`crate::LoadModel::cache_fingerprint`] — are
//! simply never cached: correctness degrades to a cache miss, not to a stale
//! answer.
//!
//! ## The store
//!
//! [`StageResultCache`] is a typed view over
//! [`rlc_numeric::codec::BlobStore`], the store the characterization cache
//! uses too: a versioned entry envelope (magic `RLCECO\0\0`, format
//! version, echoed key, length-prefixed payload, FNV-1a checksum), atomic
//! write-to-temp-then-rename stores so concurrent writers never tear an
//! entry, and *silent fallback-and-heal* on any read damage — a truncated,
//! corrupted, stale-versioned or foreign entry is treated as a miss, the
//! stage re-simulates, and the store overwrites the damaged entry. Keys and
//! payloads use the same [`rlc_numeric::codec`] encoding.
//!
//! Reports are stored bit-exactly: every scalar round-trips through raw IEEE
//! bits, and the driver-output waveform is persisted as its exact model
//! parameters ([`crate::ceff::SingleRampModel`] /
//! [`crate::ceff::TwoRampModel`]) or exact samples
//! ([`crate::SampledWaveform`]), so a dependent stage resolved from a cached
//! producer sees bit-identical handoff waveforms.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use rlc_ceff::{SingleRampModel, TwoRampModel};
use rlc_charlib::CharCache;
use rlc_lint::{Diagnostic, LintLevel, Severity};
use rlc_numeric::codec::{fnv1a, BlobStore, Decoder, Encoder};
use rlc_spice::Waveform;

use crate::backend::StageReport;
use crate::config::{CeffStrategy, EngineConfig, SessionOptions};
use crate::driver::SampledWaveform;
use crate::error::EngineError;
use crate::stage::{BackendChoice, InputEvent, Stage};

/// Magic prefix of every stage-result cache entry.
const MAGIC: &[u8; 8] = b"RLCECO\0\0";

/// Bumped whenever the entry layout or the key recipe changes; entries
/// written by other versions silently read as misses.
pub const FORMAT_VERSION: u32 = 1;

// ---------------------------------------------------------------------------
// Waveform persistence
// ---------------------------------------------------------------------------

/// Exact persistable description of a driver-output waveform, produced by
/// [`crate::DriverModel::cache_descriptor`]. Covers every waveform the
/// engine's own backends emit; custom `DriverModel` implementations return
/// `None` and their reports are simply not cached.
#[derive(Debug, Clone, PartialEq)]
pub enum WaveformDescriptor {
    /// The paper's saturated single ramp.
    SingleRamp {
        /// Supply voltage (V).
        vdd: f64,
        /// Full-swing ramp duration (s).
        tr: f64,
        /// Absolute start time (s).
        start_time: f64,
    },
    /// The paper's two-ramp waveform.
    TwoRamp {
        /// Supply voltage (V).
        vdd: f64,
        /// Breakpoint fraction `f = Z0/(Z0+Rs)`.
        f: f64,
        /// First-ramp full-swing duration (s).
        tr1: f64,
        /// Second-ramp full-swing duration (s).
        tr2: f64,
        /// Absolute start time (s).
        start_time: f64,
    },
    /// A sampled simulator waveform, stored sample-exactly.
    Sampled {
        /// Supply voltage (V).
        vdd: f64,
        /// Sample times (s), strictly increasing.
        times: Vec<f64>,
        /// Sample values (V).
        values: Vec<f64>,
    },
}

impl WaveformDescriptor {
    fn encode(&self, e: &mut Encoder) {
        match self {
            WaveformDescriptor::SingleRamp {
                vdd,
                tr,
                start_time,
            } => {
                e.u8(0);
                e.f64(*vdd);
                e.f64(*tr);
                e.f64(*start_time);
            }
            WaveformDescriptor::TwoRamp {
                vdd,
                f,
                tr1,
                tr2,
                start_time,
            } => {
                e.u8(1);
                e.f64(*vdd);
                e.f64(*f);
                e.f64(*tr1);
                e.f64(*tr2);
                e.f64(*start_time);
            }
            WaveformDescriptor::Sampled { vdd, times, values } => {
                e.u8(2);
                e.f64(*vdd);
                e.f64s(times);
                e.f64s(values);
            }
        }
    }

    fn decode(d: &mut Decoder) -> Option<WaveformDescriptor> {
        match d.u8()? {
            0 => Some(WaveformDescriptor::SingleRamp {
                vdd: d.f64()?,
                tr: d.f64()?,
                start_time: d.f64()?,
            }),
            1 => Some(WaveformDescriptor::TwoRamp {
                vdd: d.f64()?,
                f: d.f64()?,
                tr1: d.f64()?,
                tr2: d.f64()?,
                start_time: d.f64()?,
            }),
            2 => Some(WaveformDescriptor::Sampled {
                vdd: d.f64()?,
                times: d.f64s()?,
                values: d.f64s()?,
            }),
            _ => None,
        }
    }

    /// Rebuilds the concrete waveform. `None` when the stored parameters
    /// would violate a model invariant (the constructors assert) — treated
    /// as entry damage by the caller.
    fn rebuild(&self) -> Option<Arc<dyn crate::DriverModel>> {
        match self {
            WaveformDescriptor::SingleRamp {
                vdd,
                tr,
                start_time,
            } => (*vdd > 0.0 && *tr > 0.0 && start_time.is_finite())
                .then(|| SingleRampModel::new(*vdd, *tr, *start_time))
                .map(|m| Arc::new(m) as Arc<dyn crate::DriverModel>),
            WaveformDescriptor::TwoRamp {
                vdd,
                f,
                tr1,
                tr2,
                start_time,
            } => (*vdd > 0.0
                && *f > 0.0
                && *f < 1.0
                && *tr1 > 0.0
                && *tr2 > 0.0
                && start_time.is_finite())
            .then(|| TwoRampModel::new(*vdd, *f, *tr1, *tr2, *start_time))
            .map(|m| Arc::new(m) as Arc<dyn crate::DriverModel>),
            WaveformDescriptor::Sampled { vdd, times, values } => {
                sampled_from_parts(*vdd, times, values)
                    .map(|s| Arc::new(s) as Arc<dyn crate::DriverModel>)
            }
        }
    }
}

/// Validates stored samples before handing them to `Waveform::new`, whose
/// invariants are asserts: a checksummed-but-hostile entry must degrade to a
/// miss, never a panic.
fn sampled_from_parts(vdd: f64, times: &[f64], values: &[f64]) -> Option<SampledWaveform> {
    if times.len() != values.len() || times.len() < 2 {
        return None;
    }
    if !times.windows(2).all(|w| w[1] > w[0]) {
        return None;
    }
    if times.iter().chain(values.iter()).any(|v| !v.is_finite()) {
        return None;
    }
    if !vdd.is_finite() || vdd <= 0.0 {
        return None;
    }
    Some(SampledWaveform::new(
        Waveform::new(times.to_vec(), values.to_vec()),
        vdd,
    ))
}

// ---------------------------------------------------------------------------
// Fingerprints
// ---------------------------------------------------------------------------

/// Fingerprint of a characterized driver cell: the FNV-1a hash of its one
/// byte encoding, [`CharCache::payload`] — the inverter spec, the full
/// timing table and the extracted on-resistance. Any recharacterization that
/// changes a single table entry changes the fingerprint.
pub fn driver_fingerprint(cell: &rlc_charlib::DriverCell) -> u64 {
    fnv1a(&CharCache::payload(cell))
}

/// Fingerprint of every engine/session knob that can change a report:
/// backend-independent tolerances, strategy, golden fidelity, lint level and
/// the session's handoff options. Scheduling-only knobs (threads, deadline,
/// in-flight cap) are deliberately excluded.
fn config_fingerprint(config: &EngineConfig, options: &SessionOptions) -> u64 {
    let mut e = Encoder::new();
    e.f64(config.iteration.rel_tolerance);
    e.u64(config.iteration.max_iterations as u64);
    e.f64(config.iteration.damping);
    e.f64(config.iteration.min_fraction_of_total);
    e.f64(config.criteria.load_fraction_limit);
    e.f64(config.criteria.line_resistance_factor);
    e.f64(config.criteria.driver_resistance_factor);
    e.f64(config.criteria.rise_time_factor);
    e.bool(config.extract_rs_per_case);
    e.u8(match config.strategy {
        CeffStrategy::Auto => 0,
        CeffStrategy::ForceSingleRamp => 1,
        CeffStrategy::ForceTwoRamp => 2,
    });
    e.u64(config.golden.segments as u64);
    e.f64(config.golden.time_step);
    e.f64(config.golden.max_stop_time);
    e.u8(match config.lint_level {
        LintLevel::Off => 0,
        LintLevel::Warn => 1,
        LintLevel::Deny => 2,
    });
    e.u64(options.far_end.segments as u64);
    e.f64(options.far_end.time_step);
    e.f64(options.far_end.settle_time);
    e.bool(options.sampled_handoff);
    fnv1a(&e.finish())
}

/// The input half of a stage's identity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InputFingerprint<'a> {
    /// A fixed input event ([`crate::StageBuilder::input_slew`]).
    Fixed(InputEvent),
    /// Input taken from the producer's primary far end; `producer` is the
    /// producer's own combined cache key, so upstream changes propagate
    /// through the cone transitively.
    FarEnd {
        /// The producer's combined cache key.
        producer: u64,
    },
    /// Input taken from a named sink of the producer's load.
    Sink {
        /// The producer's combined cache key.
        producer: u64,
        /// The tapped sink name.
        sink: &'a str,
    },
}

fn input_fingerprint(input: &InputFingerprint<'_>) -> u64 {
    let mut e = Encoder::new();
    match input {
        InputFingerprint::Fixed(event) => {
            e.u8(0);
            e.f64(event.slew);
            e.f64(event.delay);
        }
        InputFingerprint::FarEnd { producer } => {
            e.u8(1);
            e.u64(*producer);
        }
        InputFingerprint::Sink { producer, sink } => {
            e.u8(2);
            e.u64(*producer);
            e.str(sink);
        }
    }
    fnv1a(&e.finish())
}

/// The content-addressed identity of one stage analysis: four component
/// fingerprints (driver, load, input, configuration+backend) plus the label,
/// combined into the 64-bit entry key. The components are echoed inside
/// every entry and re-verified on load, so a 64-bit key collision cannot
/// return another stage's report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageKey {
    driver: u64,
    load: u64,
    input: u64,
    config: u64,
    key: u64,
}

impl StageKey {
    /// The combined 64-bit key (the entry file name, and the value dependent
    /// stages chain into their own input fingerprints).
    pub fn value(&self) -> u64 {
        self.key
    }
}

/// Computes the cache key of `stage`, or `None` when the stage cannot be
/// fingerprinted faithfully (custom backend, custom load without
/// [`crate::LoadModel::cache_fingerprint`]) and must always re-simulate.
pub fn stage_key(
    stage: &Stage,
    input: InputFingerprint<'_>,
    config: &EngineConfig,
    options: &SessionOptions,
) -> Option<StageKey> {
    let backend_tag: u8 = match stage.backend() {
        None => 0,
        Some(BackendChoice::Analytic) => 1,
        Some(BackendChoice::Spice) => 2,
        // A user-supplied backend has no stable content fingerprint; treat
        // its stages as uncacheable rather than risk replaying a report the
        // current implementation would not produce.
        Some(BackendChoice::Custom(_)) => return None,
    };
    let load = stage.load().cache_fingerprint()?;
    let driver = driver_fingerprint(stage.driver());
    let input = input_fingerprint(&input);
    let config = {
        let mut e = Encoder::new();
        e.u64(config_fingerprint(config, options));
        e.u8(backend_tag);
        fnv1a(&e.finish())
    };
    let key = {
        let mut e = Encoder::new();
        e.u32(FORMAT_VERSION);
        e.u64(driver);
        e.u64(load);
        e.u64(input);
        e.u64(config);
        e.str(stage.label());
        fnv1a(&e.finish())
    };
    Some(StageKey {
        driver,
        load,
        input,
        config,
        key,
    })
}

// ---------------------------------------------------------------------------
// Entry codec
// ---------------------------------------------------------------------------

/// The built-in backend of that name. Custom backends are never cached, so
/// any other name comes from a damaged or foreign entry.
fn intern_backend(name: &str) -> Option<&'static str> {
    ["analytic", "rlc-spice", "reduced-order"]
        .into_iter()
        .find(|builtin| *builtin == name)
}

fn encode_severity(s: Severity) -> u8 {
    match s {
        Severity::Info => 0,
        Severity::Warning => 1,
        Severity::Error => 2,
    }
}

fn decode_severity(v: u8) -> Option<Severity> {
    match v {
        0 => Some(Severity::Info),
        1 => Some(Severity::Warning),
        2 => Some(Severity::Error),
        _ => None,
    }
}

/// The fewest bytes one encoded lint takes: three empty strings and a tag.
const LINT_MIN_BYTES: usize = 25;

fn encode_payload(key: &StageKey, report: &StageReport, desc: &WaveformDescriptor) -> Vec<u8> {
    let mut e = Encoder::new();
    e.u64(key.driver);
    e.u64(key.load);
    e.u64(key.input);
    e.u64(key.config);
    e.str(&report.label);
    e.str(report.backend);
    e.f64(report.delay);
    e.f64(report.slew);
    e.f64(report.input_t50);
    e.f64(report.vdd);
    e.bool(report.used_two_ramp);
    e.f64(report.elapsed_seconds);
    desc.encode(&mut e);
    match &report.simulated_far_end {
        None => e.u8(0),
        Some(far) => {
            e.u8(1);
            e.f64(far.vdd());
            e.f64s(far.waveform().times());
            e.f64s(far.waveform().values());
        }
    }
    e.u32(report.lints.len() as u32);
    for lint in &report.lints {
        e.str(&lint.code);
        e.u8(encode_severity(lint.severity));
        e.str(&lint.locus);
        e.str(&lint.message);
    }
    e.finish()
}

fn decode_payload(payload: &[u8], key: &StageKey, label: &str) -> Option<StageReport> {
    let mut d = Decoder::new(payload);
    // Component echo: a 64-bit key collision (or a foreign entry renamed
    // under our key) is caught here, field by field.
    if d.u64()? != key.driver
        || d.u64()? != key.load
        || d.u64()? != key.input
        || d.u64()? != key.config
    {
        return None;
    }
    if d.str()? != label {
        return None;
    }
    let backend = intern_backend(&d.str()?)?;
    let delay = d.f64()?;
    let slew = d.f64()?;
    let input_t50 = d.f64()?;
    let vdd = d.f64()?;
    let used_two_ramp = d.bool()?;
    let elapsed_seconds = d.f64()?;
    let waveform = WaveformDescriptor::decode(&mut d)?.rebuild()?;
    let simulated_far_end = match d.u8()? {
        0 => None,
        1 => {
            let far_vdd = d.f64()?;
            let times = d.f64s()?;
            let values = d.f64s()?;
            Some(sampled_from_parts(far_vdd, &times, &values)?)
        }
        _ => return None,
    };
    let count = d.u32()?;
    let count = d.fits(count.into(), LINT_MIN_BYTES)?;
    let mut lints = Vec::with_capacity(count);
    for _ in 0..count {
        let code = d.str()?;
        let severity = decode_severity(d.u8()?)?;
        let locus = d.str()?;
        let message = d.str()?;
        lints.push(Diagnostic::new(code, severity, locus, message));
    }
    if !d.done() {
        return None;
    }
    Some(StageReport {
        label: label.to_string(),
        backend,
        delay,
        slew,
        input_t50,
        vdd,
        used_two_ramp,
        waveform,
        simulated_far_end,
        // Analytic-flow internals are not persisted: a cached report keeps
        // the signoff essentials, not the iteration trace.
        analytic: None,
        lints,
        elapsed_seconds,
        cache_hit: true,
    })
}

// ---------------------------------------------------------------------------
// The store
// ---------------------------------------------------------------------------

/// A persistent, content-addressed store of completed [`StageReport`]s.
///
/// Open one through [`crate::EngineConfigBuilder::result_cache_dir`] (every
/// [`crate::AnalysisSession`] of that engine then consults it
/// automatically), or directly for tooling. Many processes may share one
/// directory: stores are atomic temp-file renames, and damaged or torn
/// entries read as misses.
#[derive(Debug)]
pub struct StageResultCache {
    store: BlobStore,
}

impl StageResultCache {
    /// Opens (creating if needed) a cache directory.
    ///
    /// # Errors
    /// [`EngineError::Cache`] when the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> Result<StageResultCache, EngineError> {
        let dir = dir.into();
        let store = BlobStore::open(&dir, MAGIC, FORMAT_VERSION, "stage").map_err(|e| {
            EngineError::Cache {
                what: format!(
                    "could not create result-cache directory {}: {e}",
                    dir.display()
                ),
            }
        })?;
        Ok(StageResultCache { store })
    }

    /// The directory entries live in.
    pub fn dir(&self) -> &Path {
        self.store.dir()
    }

    /// The path an entry with combined key `key` ([`StageKey::value`]) lives
    /// at — exposed for tooling and damage-injection tests.
    pub fn entry_path(&self, key: u64) -> PathBuf {
        self.store.entry_path(key)
    }

    /// Loads the report stored under `key`, re-labelled checks included:
    /// `None` on a genuine miss *and* on any read damage (truncation, stale
    /// format version, checksum mismatch, foreign or colliding entry) — the
    /// caller re-simulates and the next [`StageResultCache::store`] heals
    /// the entry.
    pub fn load(&self, key: &StageKey, label: &str) -> Option<StageReport> {
        self.store
            .load(key.value(), |payload| decode_payload(payload, key, label))
    }

    /// Persists a report under `key` with an atomic temp-file + rename, so
    /// a concurrent reader sees either the old entry or the new one, never
    /// a torn write. Reports whose waveform has no
    /// [`crate::DriverModel::cache_descriptor`] are silently skipped (they
    /// can never be requested back: such stages also compute no key).
    ///
    /// # Errors
    /// [`EngineError::Cache`] on filesystem write failures.
    pub fn store(&self, key: &StageKey, report: &StageReport) -> Result<(), EngineError> {
        let Some(desc) = report.waveform.cache_descriptor() else {
            return Ok(());
        };
        self.store
            .store(key.value(), &encode_payload(key, report, &desc))
            .map_err(|e| EngineError::Cache {
                what: format!("could not persist stage result {:016x}: {e}", key.value()),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_fixtures::synthetic_cell_75x;
    use crate::{DistributedRlcLoad, LumpedCapLoad};
    use rlc_interconnect::prelude::*;
    use rlc_numeric::units::{ff, ps};
    use std::fs;

    fn line() -> RlcLine {
        EmpiricalExtractor::cmos018().extract(&WireGeometry::new(mm(2.0), um(1.6)))
    }

    fn some_stage(label: &str, c_load: f64) -> Stage {
        Stage::builder(
            synthetic_cell_75x(),
            DistributedRlcLoad::new(line(), c_load).unwrap(),
        )
        .label(label)
        .input_slew(ps(100.0))
        .build()
        .unwrap()
    }

    fn key_of(stage: &Stage) -> StageKey {
        stage_key(
            stage,
            InputFingerprint::Fixed(stage.input()),
            &EngineConfig::default(),
            &SessionOptions::default(),
        )
        .expect("built-in stages are cacheable")
    }

    #[test]
    fn key_covers_driver_load_input_config_and_label() {
        let base = key_of(&some_stage("a", ff(10.0)));
        assert_eq!(base, key_of(&some_stage("a", ff(10.0))), "deterministic");

        let other_load = key_of(&some_stage("a", ff(20.0)));
        assert_ne!(base.value(), other_load.value());

        let other_label = key_of(&some_stage("b", ff(10.0)));
        assert_ne!(base.value(), other_label.value());

        let stage = some_stage("a", ff(10.0));
        let other_config = stage_key(
            &stage,
            InputFingerprint::Fixed(stage.input()),
            &EngineConfig::builder().extract_rs_per_case(false).build(),
            &SessionOptions::default(),
        )
        .unwrap();
        assert_ne!(base.value(), other_config.value());

        let other_input = stage_key(
            &stage,
            InputFingerprint::FarEnd { producer: 7 },
            &EngineConfig::default(),
            &SessionOptions::default(),
        )
        .unwrap();
        assert_ne!(base.value(), other_input.value());
        let other_producer = stage_key(
            &stage,
            InputFingerprint::FarEnd { producer: 8 },
            &EngineConfig::default(),
            &SessionOptions::default(),
        )
        .unwrap();
        assert_ne!(other_input.value(), other_producer.value());
    }

    #[test]
    fn custom_load_without_fingerprint_is_uncacheable() {
        #[derive(Debug)]
        struct Opaque(LumpedCapLoad);
        impl crate::LoadModel for Opaque {
            fn reduce(&self) -> Result<rlc_ceff::flow::ReducedLoad, EngineError> {
                self.0.reduce()
            }
            fn total_capacitance(&self) -> f64 {
                self.0.total_capacitance()
            }
            fn attach(
                &self,
                ckt: &mut rlc_spice::Circuit,
                near: rlc_spice::NodeId,
                v_initial: f64,
                segments: usize,
            ) -> Result<rlc_spice::NodeId, EngineError> {
                self.0.attach(ckt, near, v_initial, segments)
            }
            fn describe(&self) -> String {
                "opaque".into()
            }
        }
        let stage = Stage::builder(
            synthetic_cell_75x(),
            Opaque(LumpedCapLoad::new(ff(100.0)).unwrap()),
        )
        .input_slew(ps(100.0))
        .build()
        .unwrap();
        assert!(stage_key(
            &stage,
            InputFingerprint::Fixed(stage.input()),
            &EngineConfig::default(),
            &SessionOptions::default(),
        )
        .is_none());
    }

    #[test]
    fn round_trip_is_bit_identical() {
        let dir = std::env::temp_dir().join(format!("rlc-eco-rt-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let cache = StageResultCache::open(&dir).unwrap();

        let stage = some_stage("rt", ff(10.0));
        let engine = crate::TimingEngine::new(EngineConfig::default());
        let report = engine.analyze(&stage).unwrap();
        let key = key_of(&stage);

        assert!(cache.load(&key, "rt").is_none(), "cold store is empty");
        cache.store(&key, &report).unwrap();
        let cached = cache.load(&key, "rt").expect("stored entry loads");

        assert_eq!(cached.label, report.label);
        assert_eq!(cached.backend, report.backend);
        assert_eq!(cached.delay.to_bits(), report.delay.to_bits());
        assert_eq!(cached.slew.to_bits(), report.slew.to_bits());
        assert_eq!(cached.input_t50.to_bits(), report.input_t50.to_bits());
        assert_eq!(cached.vdd.to_bits(), report.vdd.to_bits());
        assert_eq!(cached.used_two_ramp, report.used_two_ramp);
        assert_eq!(cached.lints, report.lints);
        assert!(cached.cache_hit && !report.cache_hit);
        // The waveform replays exactly: same samples out of `to_source`.
        let t_stop = report.waveform.end_time() + ps(100.0);
        let a = report.waveform.to_source(t_stop);
        let b = cached.waveform.to_source(t_stop);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));

        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn wrong_label_is_a_miss() {
        let dir = std::env::temp_dir().join(format!("rlc-eco-lb-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let cache = StageResultCache::open(&dir).unwrap();
        let stage = some_stage("lbl", ff(10.0));
        let engine = crate::TimingEngine::new(EngineConfig::default());
        let report = engine.analyze(&stage).unwrap();
        let key = key_of(&stage);
        cache.store(&key, &report).unwrap();
        assert!(cache.load(&key, "other").is_none());
        assert!(cache.load(&key, "lbl").is_some());
        let _ = fs::remove_dir_all(&dir);
    }
}
