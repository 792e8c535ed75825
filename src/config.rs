//! [`EngineConfig`]: one builder-style configuration object replacing the
//! scattered `ModelingConfig` / `IterationSettings` / `InductanceCriteria` /
//! `GoldenOptions` knobs of the layer crates.

use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::Duration;

use rlc_ceff::far_end::FarEndOptions;
use rlc_ceff::validation::GoldenOptions;
pub use rlc_ceff::CeffStrategy;
use rlc_ceff::{InductanceCriteria, IterationSettings, ModelingConfig};
use rlc_lint::LintLevel;

/// Complete configuration of a [`crate::TimingEngine`].
///
/// Build one with [`EngineConfig::builder`]; the default configuration is
/// the paper's prescription (per-case Rs extraction, Equation 9 defaults,
/// reference simulation fidelity).
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// Convergence controls for the Ceff iterations.
    pub iteration: IterationSettings,
    /// Inductance-significance thresholds (Equation 9).
    pub criteria: InductanceCriteria,
    /// Re-extract the driver on-resistance against each stage's total load
    /// capacitance (the paper's prescription) instead of reusing the value
    /// cached at characterization time.
    pub extract_rs_per_case: bool,
    /// Waveform-shape strategy for the analytic backend.
    pub strategy: CeffStrategy,
    /// Fidelity of the golden simulation backend.
    pub golden: GoldenOptions,
    /// Worker loops of each [`crate::AnalysisSession`], which run on the
    /// engine's threads; `0` means one per available CPU.
    pub threads: usize,
    /// Directory of the persistent characterization cache. When set,
    /// libraries opened through [`crate::TimingEngine::open_library`] consult
    /// the on-disk store before running any characterization transients and
    /// persist every miss, so only the first process ever pays the cold
    /// start. `None` (the default) keeps characterization in-memory only.
    pub cache_dir: Option<PathBuf>,
    /// Directory of the persistent stage-*result* cache
    /// ([`crate::StageResultCache`]). When set, every
    /// [`crate::AnalysisSession`] of this engine consults the store before
    /// dispatching a stage to a backend and persists every miss, so an ECO
    /// re-analysis re-simulates only the edited stage's dependency cone.
    /// Many processes (e.g. `rlc-serviced` shards) may share one directory.
    /// `None` (the default) disables result caching.
    pub result_cache_dir: Option<PathBuf>,
    /// Static-analysis enforcement: `Deny` (the default) runs the
    /// `rlc-lint` audit over every stage's load netlist before any
    /// simulation and rejects Error-severity findings as
    /// [`crate::EngineError::Lint`]; `Warn` attaches findings to
    /// [`crate::StageReport::lints`] without rejecting; `Off` skips the
    /// pass entirely.
    pub lint_level: LintLevel,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            iteration: IterationSettings::default(),
            criteria: InductanceCriteria::default(),
            extract_rs_per_case: true,
            strategy: CeffStrategy::Auto,
            golden: GoldenOptions::default(),
            threads: 0,
            cache_dir: None,
            result_cache_dir: None,
            lint_level: LintLevel::default(),
        }
    }
}

impl EngineConfig {
    /// Starts a builder from the default configuration.
    pub fn builder() -> EngineConfigBuilder {
        EngineConfigBuilder {
            config: EngineConfig::default(),
        }
    }

    /// A cheap configuration for debug-build tests: cached on-resistance and
    /// coarse simulation fidelity.
    pub fn fast_for_tests() -> EngineConfig {
        EngineConfig {
            extract_rs_per_case: false,
            golden: GoldenOptions::coarse_for_tests(),
            ..EngineConfig::default()
        }
    }

    /// The equivalent layer-crate modelling configuration.
    pub fn modeling_config(&self) -> ModelingConfig {
        ModelingConfig {
            iteration: self.iteration,
            criteria: self.criteria,
            extract_rs_per_case: self.extract_rs_per_case,
        }
    }

    /// The configured worker-thread count: [`EngineConfig::threads`], or one
    /// per available CPU when it is `0` (read once per process). This is
    /// the number of worker loops an [`crate::AnalysisSession`] grows
    /// towards (it starts them lazily, one per submission, and
    /// [`SessionOptions::max_in_flight`] can cap it further), and the number
    /// of idle threads the engine keeps between sessions.
    pub fn base_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            available_cpus()
        }
    }

    /// [`EngineConfig::base_threads`] clamped to a known batch size — the
    /// worker count a flat batch of `stages` independent stages warrants.
    pub fn effective_threads(&self, stages: usize) -> usize {
        self.base_threads().min(stages).max(1)
    }
}

/// The process's available parallelism, queried once: the answer is a
/// property of the process, and the query reads the scheduler affinity and
/// cgroup limits on every call.
fn available_cpus() -> usize {
    static CPUS: OnceLock<usize> = OnceLock::new();
    *CPUS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Options of one [`crate::AnalysisSession`]
/// ([`crate::TimingEngine::session_with`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionOptions {
    /// Wall-clock budget measured from session creation. Stages that have
    /// not *started* when it expires fail with
    /// [`crate::EngineError::DeadlineExceeded`]; stages already running
    /// finish and report normally. `None` (the default) never expires.
    pub deadline: Option<Duration>,
    /// Upper bound on concurrently running stages. `0` (the default) means
    /// one per worker thread ([`EngineConfig::threads`]).
    pub max_in_flight: usize,
    /// Fidelity of the far-end propagation simulation used to resolve
    /// cross-stage handoffs ([`crate::InputSource::FromFarEnd`] /
    /// [`crate::InputSource::FromSink`]) when the producer's report does not
    /// already carry a simulated far-end waveform.
    pub far_end: FarEndOptions,
    /// Hand the producer's full sampled waveform to backends that report
    /// [`crate::BackendCaps::sampled_input`] (default `true`). When `false`
    /// every handoff uses the slew-referenced ramp conversion, which is what
    /// manually chained `analyze` + `far_end` calls compute.
    pub sampled_handoff: bool,
}

impl Default for SessionOptions {
    fn default() -> Self {
        SessionOptions {
            deadline: None,
            max_in_flight: 0,
            far_end: FarEndOptions::default(),
            sampled_handoff: true,
        }
    }
}

impl SessionOptions {
    /// Default options with a duration-based deadline: the session fails
    /// every stage that has not started `timeout` after session creation.
    ///
    /// Because the budget is a `Duration` measured from session creation —
    /// not an absolute `Instant` of this process's monotonic clock — it is
    /// exactly expressible by a remote client: the timing service's wire
    /// protocol carries it as a nanosecond count, and the server-side
    /// session starts the clock when the connection's session opens.
    pub fn timeout(timeout: Duration) -> Self {
        SessionOptions::default().with_deadline(timeout)
    }

    /// Sets the session deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Caps the number of concurrently running stages.
    pub fn with_max_in_flight(mut self, max_in_flight: usize) -> Self {
        self.max_in_flight = max_in_flight;
        self
    }

    /// Sets the handoff-propagation fidelity.
    pub fn with_far_end(mut self, far_end: FarEndOptions) -> Self {
        self.far_end = far_end;
        self
    }

    /// Enables or disables sampled-waveform handoff to capable backends.
    pub fn with_sampled_handoff(mut self, enabled: bool) -> Self {
        self.sampled_handoff = enabled;
        self
    }
}

/// Builder for [`EngineConfig`].
#[derive(Debug, Clone)]
pub struct EngineConfigBuilder {
    config: EngineConfig,
}

impl EngineConfigBuilder {
    /// Relative Ceff convergence tolerance (default `1e-4`).
    pub fn ceff_tolerance(mut self, rel_tolerance: f64) -> Self {
        self.config.iteration.rel_tolerance = rel_tolerance;
        self
    }

    /// Maximum Ceff iterations before reporting divergence (default 100).
    pub fn max_iterations(mut self, max_iterations: usize) -> Self {
        self.config.iteration.max_iterations = max_iterations;
        self
    }

    /// Fixed-point damping factor in `(0, 1]` (default 1, the paper's plain
    /// update).
    pub fn damping(mut self, damping: f64) -> Self {
        self.config.iteration.damping = damping;
        self
    }

    /// Whole iteration-settings block at once.
    pub fn iteration(mut self, iteration: IterationSettings) -> Self {
        self.config.iteration = iteration;
        self
    }

    /// Whole Equation 9 threshold block at once.
    pub fn inductance_criteria(mut self, criteria: InductanceCriteria) -> Self {
        self.config.criteria = criteria;
        self
    }

    /// Re-extract the driver on-resistance per stage (default `true`).
    pub fn extract_rs_per_case(mut self, enabled: bool) -> Self {
        self.config.extract_rs_per_case = enabled;
        self
    }

    /// Waveform-shape strategy for the analytic backend (default
    /// [`CeffStrategy::Auto`]).
    pub fn strategy(mut self, strategy: CeffStrategy) -> Self {
        self.config.strategy = strategy;
        self
    }

    /// Fidelity of the golden simulation backend (default: the reference
    /// 40-segment / 0.5 ps fidelity).
    pub fn golden_fidelity(mut self, golden: GoldenOptions) -> Self {
        self.config.golden = golden;
        self
    }

    /// Worker threads for batch analysis; `0` means one per CPU (default).
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.threads = threads;
        self
    }

    /// Persistent characterization-cache directory (created on first use).
    /// Libraries opened through [`crate::TimingEngine::open_library`] then
    /// warm-start from disk instead of re-running characterization
    /// transients. Off by default.
    pub fn cache_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.config.cache_dir = Some(dir.into());
        self
    }

    /// Persistent stage-result cache directory (created on first use).
    /// Sessions of this engine then short-circuit unchanged stages from
    /// disk, re-simulating only the dependency cone of an edit — the
    /// incremental (ECO) re-analysis mode. Off by default.
    pub fn result_cache_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.config.result_cache_dir = Some(dir.into());
        self
    }

    /// Static-analysis enforcement level (default [`LintLevel::Deny`]).
    pub fn lint_level(mut self, level: LintLevel) -> Self {
        self.config.lint_level = level;
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> EngineConfig {
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_overrides_individual_knobs() {
        let config = EngineConfig::builder()
            .ceff_tolerance(1e-6)
            .max_iterations(42)
            .damping(0.5)
            .extract_rs_per_case(false)
            .strategy(CeffStrategy::ForceTwoRamp)
            .threads(3)
            .cache_dir("target/test-char-cache")
            .result_cache_dir("target/test-result-cache")
            .build();
        assert_eq!(config.iteration.rel_tolerance, 1e-6);
        assert_eq!(config.iteration.max_iterations, 42);
        assert_eq!(config.iteration.damping, 0.5);
        assert!(!config.extract_rs_per_case);
        assert_eq!(config.strategy, CeffStrategy::ForceTwoRamp);
        assert_eq!(config.threads, 3);
        assert_eq!(
            config.cache_dir.as_deref(),
            Some(std::path::Path::new("target/test-char-cache"))
        );
        // Untouched knobs keep their defaults.
        assert_eq!(config.criteria, InductanceCriteria::default());
        assert_eq!(
            config.result_cache_dir.as_deref(),
            Some(std::path::Path::new("target/test-result-cache"))
        );
        // Both caches are opt-in.
        assert_eq!(EngineConfig::default().cache_dir, None);
        assert_eq!(EngineConfig::default().result_cache_dir, None);
    }

    #[test]
    fn modeling_config_mirrors_the_engine_config() {
        let config = EngineConfig::builder().extract_rs_per_case(false).build();
        let mc = config.modeling_config();
        assert!(!mc.extract_rs_per_case);
        assert_eq!(mc.iteration, config.iteration);
        assert_eq!(mc.criteria, config.criteria);
    }

    #[test]
    fn timeout_is_a_duration_based_deadline() {
        use std::time::Duration;

        let options = SessionOptions::timeout(Duration::from_millis(250));
        assert_eq!(options.deadline, Some(Duration::from_millis(250)));
        // Everything else stays at the defaults a remote client expects.
        let defaults = SessionOptions::default();
        assert_eq!(options.max_in_flight, defaults.max_in_flight);
        assert_eq!(options.sampled_handoff, defaults.sampled_handoff);

        // A session opened with an already-expired budget rejects new work
        // with the typed deadline error — the behaviour the wire protocol
        // maps to a stable response code.
        let engine =
            crate::TimingEngine::new(EngineConfig::builder().extract_rs_per_case(false).build());
        let mut session = engine.session_with(SessionOptions::timeout(Duration::ZERO));
        let stage = crate::Stage::builder(
            crate::fixtures::synthetic_cell_75x(),
            crate::LumpedCapLoad::new(200e-15).unwrap(),
        )
        .input_slew(100e-12)
        .build()
        .unwrap();
        let handle = session.submit(stage).unwrap();
        let (reported, outcome) = session.next_report().expect("one outcome");
        assert_eq!(reported, handle);
        assert!(matches!(
            outcome,
            Err(crate::EngineError::DeadlineExceeded { .. })
        ));
    }

    #[test]
    fn effective_threads_clamps_to_batch_size() {
        let config = EngineConfig::builder().threads(8).build();
        assert_eq!(config.effective_threads(3), 3);
        assert_eq!(config.effective_threads(100), 8);
        assert_eq!(config.effective_threads(0), 1);
        // threads = 0 resolves to at least one worker.
        let auto = EngineConfig::default();
        assert!(auto.effective_threads(4) >= 1);
    }
}
