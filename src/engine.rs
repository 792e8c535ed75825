//! [`TimingEngine`]: the facade — one entry point that routes stages to
//! backends, opens dependency-aware [`AnalysisSession`]s, and recovers per
//! stage.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use rlc_charlib::{CharacterizationGrid, Library};

use crate::backend::{AnalysisBackend, AnalyticBackend, SpiceBackend, StageReport};
use crate::config::{EngineConfig, SessionOptions};
use crate::error::EngineError;
use crate::pool::WorkerPool;
use crate::session::{AnalysisSession, StageHandle};
use crate::stage::{BackendChoice, Stage};
use crate::variation::{DistributionReport, SampleResult};

/// The unified timing engine.
///
/// The engine owns the threads its [`AnalysisSession`]s run their worker
/// loops on, and its clones share them. It starts with none: a session
/// borrows an idle thread for each loop it starts, or a new one when none is
/// idle, and its drop waits for its loops to return. A finished thread
/// parks for the next session, up to [`EngineConfig::base_threads`] idle
/// threads; the rest exit. An idle thread keeps its simulation workspace,
/// sized by the largest run it made, until it exits; every run factors
/// afresh, so no result depends on it. The threads are joined when the last
/// clone of the engine drops.
///
/// ```no_run
/// use rlc_ceff_suite::{
///     DistributedRlcLoad, EngineConfig, Stage, TimingEngine,
/// };
/// use rlc_ceff_suite::charlib::{CharacterizationGrid, Library};
/// use rlc_ceff_suite::interconnect::prelude::*;
///
/// let mut library = Library::new(CharacterizationGrid::default());
/// let cell = library.cell_shared(75.0)?;
/// let line = EmpiricalExtractor::cmos018().extract(&WireGeometry::new(mm(5.0), um(1.6)));
///
/// let stage = Stage::builder(cell, DistributedRlcLoad::new(line, ff(10.0))?)
///     .label("flagship")
///     .input_slew(ps(100.0))
///     .build()?;
/// let engine = TimingEngine::new(EngineConfig::default());
/// let report = engine.analyze(&stage)?;
/// println!("{}", report.describe());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct TimingEngine {
    config: EngineConfig,
    analytic: Arc<AnalyticBackend>,
    spice: Arc<SpiceBackend>,
    pool: Arc<WorkerPool>,
}

impl Default for TimingEngine {
    fn default() -> Self {
        TimingEngine::new(EngineConfig::default())
    }
}

impl TimingEngine {
    /// Creates an engine with the given configuration.
    pub fn new(config: EngineConfig) -> Self {
        TimingEngine {
            pool: Arc::new(WorkerPool::new(config.base_threads())),
            config,
            analytic: Arc::new(AnalyticBackend),
            spice: Arc::new(SpiceBackend),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The threads this engine's sessions run their worker loops on.
    pub(crate) fn pool(&self) -> &WorkerPool {
        &self.pool
    }

    /// Opens the cell library this engine's stages should draw from, on the
    /// default characterization grid: backed by the persistent on-disk cache
    /// when [`EngineConfig::cache_dir`] is set (so repeated processes skip
    /// characterization entirely), plain in-memory otherwise.
    ///
    /// # Errors
    /// Returns [`EngineError::Cache`] when the cache directory cannot be
    /// created.
    pub fn open_library(&self) -> Result<Library, EngineError> {
        self.open_library_with_grid(CharacterizationGrid::default())
    }

    /// [`TimingEngine::open_library`] on a specific characterization grid.
    /// Cache entries are keyed by cell *and* grid, so different grids can
    /// share one cache directory without collisions.
    ///
    /// # Errors
    /// Returns [`EngineError::Cache`] when the cache directory cannot be
    /// created.
    pub fn open_library_with_grid(
        &self,
        grid: CharacterizationGrid,
    ) -> Result<Library, EngineError> {
        match &self.config.cache_dir {
            Some(dir) => Ok(Library::open_cached_with_grid(dir, grid)?),
            None => Ok(Library::new(grid)),
        }
    }

    /// Resolves the backend a stage runs on: its override, or the engine's
    /// default (the analytic flow).
    pub(crate) fn backend_for(&self, stage: &Stage) -> Arc<dyn AnalysisBackend> {
        match stage.backend() {
            None | Some(BackendChoice::Analytic) => self.analytic.clone(),
            Some(BackendChoice::Spice) => self.spice.clone(),
            Some(BackendChoice::Custom(backend)) => backend.clone(),
        }
    }

    /// Analyzes one stage on its backend. Panics inside the analysis are
    /// caught and reported as [`EngineError::StagePanicked`].
    ///
    /// When [`EngineConfig::lint_level`] is not `Off`, the static audit pass
    /// ([`crate::lint::lint_circuit`]) runs over the stage's load netlist
    /// first: under `Deny` (the default) Error-severity findings reject the
    /// stage as [`EngineError::Lint`] before any matrix is factorized, and
    /// surviving findings ride along in [`StageReport::lints`].
    ///
    /// # Errors
    /// Any [`EngineError`] from validation, reduction, modelling or
    /// simulation; [`EngineError::Lint`] for a netlist that fails the static
    /// audit; [`EngineError::InvalidDependency`] for a dependent stage
    /// ([`crate::StageBuilder::input_from`]), which only a session can
    /// resolve.
    pub fn analyze(&self, stage: &Stage) -> Result<StageReport, EngineError> {
        if stage.is_dependent() {
            return Err(EngineError::InvalidDependency {
                what: format!(
                    "stage '{}' declares a dependent input ({:?}); submit it to an \
                     AnalysisSession instead of analyzing it directly",
                    stage.label(),
                    stage.input_source()
                ),
            });
        }
        let lints = self.lint_stage(stage)?;
        self.analyze_prelinted(stage, lints)
    }

    /// [`TimingEngine::analyze`] minus the audit: runs the backend and
    /// prepends `lints` — findings an earlier gate (session submit) already
    /// computed for this stage's load, so the netlist is not synthesized and
    /// audited a second time.
    pub(crate) fn analyze_prelinted(
        &self,
        stage: &Stage,
        lints: Vec<rlc_numeric::Diagnostic>,
    ) -> Result<StageReport, EngineError> {
        let backend = self.backend_for(stage);
        let mut report =
            match catch_unwind(AssertUnwindSafe(|| backend.analyze(stage, &self.config))) {
                Ok(result) => result?,
                Err(payload) => {
                    return Err(EngineError::StagePanicked {
                        label: stage.label().to_string(),
                        detail: panic_message(payload.as_ref()),
                    })
                }
            };
        if !lints.is_empty() {
            // Static findings lead; runtime observations (a sparse-kernel
            // degrade the backend noticed) follow.
            let mut combined = lints;
            combined.append(&mut report.lints);
            report.lints = combined;
        }
        Ok(report)
    }

    /// Runs the static audit pass ([`crate::lint::lint_circuit`]) over a
    /// stage's load netlist and returns every finding, regardless of
    /// [`EngineConfig::lint_level`] — the explicit "just audit it" entry
    /// point (and what the service protocol's `LINT` request maps onto).
    /// Nothing is simulated and no matrix is factorized.
    pub fn lint(&self, stage: &Stage) -> Vec<rlc_numeric::Diagnostic> {
        crate::lints::lint_stage(stage, &self.config)
    }

    /// Runs the static audit for a stage per [`EngineConfig::lint_level`]:
    /// returns the findings to attach, or [`EngineError::Lint`] when the
    /// level rejects them. Shared by [`TimingEngine::analyze`] and the
    /// session's submit-time gate.
    pub(crate) fn lint_stage(
        &self,
        stage: &Stage,
    ) -> Result<Vec<rlc_numeric::Diagnostic>, EngineError> {
        if !self.config.lint_level.enabled() {
            return Ok(Vec::new());
        }
        let lints = crate::lints::lint_stage(stage, &self.config);
        if self.config.lint_level.rejects(&lints) {
            return Err(EngineError::Lint {
                label: stage.label().to_string(),
                diagnostics: lints,
            });
        }
        Ok(lints)
    }

    /// Opens a dependency-aware [`AnalysisSession`] with default
    /// [`SessionOptions`]: stages submit individually or in bulk, dependent
    /// stages chain through measured far-end waveforms, and results stream
    /// back in completion order (or, through
    /// [`AnalysisSession::wait_all`], all at once in submission order).
    pub fn session(&self) -> AnalysisSession {
        self.session_with(SessionOptions::default())
    }

    /// [`TimingEngine::session`] with explicit options (deadline, in-flight
    /// cap, handoff fidelity).
    pub fn session_with(&self, options: SessionOptions) -> AnalysisSession {
        AnalysisSession::new(self.clone(), options)
    }

    /// Analyzes a stage across its variation plan
    /// ([`crate::StageBuilder::corners`] /
    /// [`crate::StageBuilder::monte_carlo`]): one revalued copy of the stage
    /// per sample — driver supply and on-resistance rescaled, load revalued
    /// through [`crate::LoadModel::scaled`] — scheduled across an
    /// [`AnalysisSession`]'s worker loops, then reduced into a
    /// [`DistributionReport`] in plan order. The reduction is deterministic:
    /// the same stage (and Monte-Carlo seed) always produces a bit-identical
    /// report, regardless of which worker finished first.
    ///
    /// # Errors
    /// [`EngineError::InvalidStage`] when the stage has no variation plan or
    /// is dependent, [`EngineError::Unsupported`] when its load cannot be
    /// revalued, or the first failing sample's analysis error.
    pub fn analyze_distribution(&self, stage: &Stage) -> Result<DistributionReport, EngineError> {
        let mut reports = self.analyze_path_distribution(std::slice::from_ref(stage))?;
        Ok(reports.pop().expect("one report per stage"))
    }

    /// Analyzes a chained path of stages across the **head** stage's
    /// variation plan with corner-consistent handoffs: for each sample, the
    /// whole path is revalued at that sample's spec and chained through
    /// measured far-end waveforms, so sample *i* of stage *k + 1* always
    /// consumes the far end of sample *i* of stage *k* — never a different
    /// corner's waveform. Later stages' own declared inputs (and variation
    /// plans) are ignored; a path corner is one global process condition.
    ///
    /// All `samples × stages` analyses share one session and run across its
    /// worker loops. Returns one [`DistributionReport`] per stage, in path
    /// order.
    ///
    /// # Errors
    /// Like [`TimingEngine::analyze_distribution`]; additionally
    /// [`EngineError::InvalidStage`] for an empty path or a dependent head
    /// stage.
    pub fn analyze_path_distribution(
        &self,
        stages: &[Stage],
    ) -> Result<Vec<DistributionReport>, EngineError> {
        let head = stages.first().ok_or_else(|| {
            EngineError::invalid("path distribution analysis needs at least one stage")
        })?;
        if head.is_dependent() {
            return Err(EngineError::invalid(format!(
                "stage '{}' heads a distribution path but declares a dependent input; \
                 give the head a fixed input event",
                head.label()
            )));
        }
        let specs = head.variation_samples().to_vec();
        if specs.is_empty() {
            return Err(EngineError::invalid(format!(
                "stage '{}' has no variation plan; add corners(..) or monte_carlo(..) \
                 to the builder",
                head.label()
            )));
        }

        let mut session = self.session();
        let mut handles: Vec<Vec<StageHandle>> =
            vec![Vec::with_capacity(specs.len()); stages.len()];
        for (i, spec) in specs.iter().enumerate() {
            let mut prev: Option<StageHandle> = None;
            for (k, template) in stages.iter().enumerate() {
                let sample = template.with_sample(spec, i)?;
                let sample = match prev {
                    None => sample,
                    Some(producer) => sample.rewire_input_from(producer),
                };
                let handle = session.submit(sample)?;
                handles[k].push(handle);
                prev = Some(handle);
            }
        }
        let outcomes = session.wait_all();

        let mut reports = Vec::with_capacity(stages.len());
        for (k, template) in stages.iter().enumerate() {
            let mut samples = Vec::with_capacity(specs.len());
            for (i, handle) in handles[k].iter().enumerate() {
                let report = outcomes[handle.index()].1.as_ref().map_err(Clone::clone)?;
                let peak_noise = report
                    .simulated_far_end
                    .as_ref()
                    .map(|far| far.waveform().overshoot(report.vdd));
                samples.push(SampleResult {
                    spec: specs[i],
                    delay: report.delay,
                    slew: report.slew,
                    peak_noise,
                    backend: report.backend,
                });
            }
            reports.push(DistributionReport::from_samples(
                template.label().to_string(),
                samples,
            ));
        }
        Ok(reports)
    }
}

pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load::{DistributedRlcLoad, LumpedCapLoad};
    use rlc_interconnect::RlcLine;
    use rlc_numeric::units::{ff, mm, nh, pf, ps};

    fn fast_engine() -> TimingEngine {
        TimingEngine::new(EngineConfig::fast_for_tests())
    }

    #[test]
    fn analyze_runs_the_default_analytic_backend() {
        let line = RlcLine::new(72.44, nh(5.14), pf(1.10), mm(5.0));
        let stage = Stage::builder(
            crate::test_fixtures::synthetic_cell_75x(),
            DistributedRlcLoad::new(line, ff(10.0)).unwrap(),
        )
        .input_slew(ps(100.0))
        .build()
        .unwrap();
        let report = fast_engine().analyze(&stage).unwrap();
        assert_eq!(report.backend, "analytic");
        assert!(report.used_two_ramp);
    }

    #[test]
    fn panicking_custom_backend_is_contained() {
        #[derive(Debug)]
        struct PanickingBackend;
        impl AnalysisBackend for PanickingBackend {
            fn name(&self) -> &'static str {
                "panics"
            }
            fn analyze(
                &self,
                _stage: &Stage,
                _config: &EngineConfig,
            ) -> Result<StageReport, EngineError> {
                panic!("deliberate test panic");
            }
        }

        let cell = Arc::new(crate::test_fixtures::synthetic_cell_75x());
        let bomb = Stage::builder_shared(cell, Arc::new(LumpedCapLoad::new(ff(200.0)).unwrap()))
            .label("bomb")
            .input_slew(ps(100.0))
            .backend(BackendChoice::Custom(Arc::new(PanickingBackend)))
            .build()
            .unwrap();
        match fast_engine().analyze(&bomb) {
            Err(EngineError::StagePanicked { label, detail }) => {
                assert_eq!(label, "bomb");
                assert!(detail.contains("deliberate"));
            }
            other => panic!("expected a contained panic, got {other:?}"),
        }
    }

    #[test]
    fn dependent_stages_are_rejected_outside_a_session() {
        let engine = fast_engine();
        let mut session = engine.session();
        let producer = session.reserve();
        let cell = Arc::new(crate::test_fixtures::synthetic_cell_75x());
        let dependent =
            Stage::builder_shared(cell, Arc::new(LumpedCapLoad::new(ff(200.0)).unwrap()))
                .label("chained")
                .input_from(producer)
                .build()
                .unwrap();
        assert!(dependent.is_dependent());
        assert!(dependent.try_input().is_none());
        let err = engine.analyze(&dependent).unwrap_err();
        assert!(matches!(err, EngineError::InvalidDependency { .. }));
        assert!(err.to_string().contains("chained"));
    }

    #[test]
    fn batch_results_come_back_in_input_order() {
        // Twelve independent stages on four workers may finish in any
        // order; `wait_all` returns them in submission order.
        let cell = Arc::new(crate::test_fixtures::synthetic_cell_75x());
        let stages: Vec<Stage> = (0..12)
            .map(|i| {
                Stage::builder_shared(
                    cell.clone(),
                    Arc::new(LumpedCapLoad::new(ff(100.0 + 50.0 * i as f64)).unwrap()),
                )
                .label(format!("s{i}"))
                .input_slew(ps(100.0))
                .build()
                .unwrap()
            })
            .collect();
        let engine = TimingEngine::new(
            EngineConfig::builder()
                .extract_rs_per_case(false)
                .threads(4)
                .build(),
        );
        let mut session = engine.session();
        session.submit_all(stages).unwrap();
        let results = session.wait_all();
        assert_eq!(results.len(), 12);
        for (i, (handle, outcome)) in results.iter().enumerate() {
            assert_eq!(handle.index(), i);
            assert_eq!(outcome.as_ref().unwrap().label, format!("s{i}"));
        }
        // Bigger lumped loads mean slower transitions, in order.
        let slews: Vec<f64> = results
            .iter()
            .map(|(_, r)| r.as_ref().unwrap().slew)
            .collect();
        assert!(slews.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn empty_batch_is_fine() {
        let mut session = fast_engine().session();
        assert!(session.submit_all(Vec::new()).unwrap().is_empty());
        assert!(session.is_empty());
        assert!(session.wait_all().is_empty());
    }

    #[test]
    fn open_library_honours_the_cache_dir_option() {
        // No cache_dir: a plain in-memory library.
        let plain = fast_engine().open_library().unwrap();
        assert!(plain.cache().is_none());

        // cache_dir set: the library is backed by the persistent store in
        // exactly that directory (created on demand).
        let dir = std::env::temp_dir().join(format!("rlc-engine-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let engine = TimingEngine::new(EngineConfig::builder().cache_dir(&dir).build());
        let lib = engine.open_library().unwrap();
        assert_eq!(lib.cache().unwrap().dir(), dir.as_path());
        assert!(dir.is_dir());
        assert_eq!(lib.characterizations_run(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
