//! [`AnalysisSession`]: dependency-aware, streaming stage analysis.
//!
//! A flat batch treats every stage as independent; real paths are not. The
//! waveform measured at one stage's far end *is* the input event of the next
//! driver, and a signoff flow wants per-stage results as they land, not one
//! big synchronized collect. A session models exactly that; its scheduling
//! rules are documented on [`AnalysisSession`].
//!
//! ```no_run
//! use rlc_ceff_suite::{DistributedRlcLoad, EngineConfig, Stage, TimingEngine};
//! # fn demo(cell: std::sync::Arc<rlc_ceff_suite::charlib::DriverCell>,
//! #        load: DistributedRlcLoad) -> Result<(), rlc_ceff_suite::EngineError> {
//! let engine = TimingEngine::new(EngineConfig::default());
//! let mut session = engine.session();
//! let first = session.submit(
//!     Stage::builder_shared(cell.clone(), std::sync::Arc::new(load))
//!         .label("driver-0")
//!         .input_slew(100e-12)
//!         .build()?,
//! )?;
//! let second = session.submit(
//!     Stage::builder_shared(cell, std::sync::Arc::new(load))
//!         .label("driver-1")
//!         .input_from(first) // input = measured far end of driver-0
//!         .build()?,
//! )?;
//! for (handle, outcome) in session.reports() {
//!     println!("stage {} finished: {:?}", handle.index(), outcome.map(|r| r.delay));
//! }
//! # let _ = second;
//! # Ok(())
//! # }
//! ```

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use crate::backend::StageReport;
use crate::config::SessionOptions;
use crate::driver::SampledWaveform;
use crate::engine::TimingEngine;
use crate::error::EngineError;
use crate::pool::JobHandle;
use crate::stage::{InputEvent, Stage};

/// Session identifiers are process-global so a handle can never resolve
/// against the wrong session.
static NEXT_SESSION_ID: AtomicU64 = AtomicU64::new(1);

/// A typed reference to a stage submitted to (or reserved in) one
/// [`AnalysisSession`]. Handles are cheap, copyable, hashable, and only
/// valid within the session that issued them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StageHandle {
    session: u64,
    index: usize,
}

impl StageHandle {
    /// The stage's position in submission order (reservations count).
    pub fn index(&self) -> usize {
        self.index
    }

    pub(crate) fn session(&self) -> u64 {
        self.session
    }
}

impl std::fmt::Display for StageHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "stage #{}", self.index)
    }
}

/// Where a stage's input event comes from.
#[derive(Debug, Clone, PartialEq)]
pub enum InputSource {
    /// A fixed input event ([`crate::StageBuilder::input_slew`]).
    Event(InputEvent),
    /// The measured waveform at the producer's **primary far end**
    /// ([`crate::StageBuilder::input_from`]).
    FromFarEnd {
        /// The producer stage.
        stage: StageHandle,
    },
    /// The measured waveform at a **named sink** of the producer's load
    /// ([`crate::StageBuilder::input_from_sink`]): a tree receiver pin, or
    /// the `"victim"` / `"aggressor"` far end of a coupled bus.
    FromSink {
        /// The producer stage.
        stage: StageHandle,
        /// The sink name the producer's load must expose
        /// ([`crate::LoadModel::sink_names`]).
        sink: String,
    },
}

impl InputSource {
    /// The producer handle, for dependent sources.
    pub fn producer(&self) -> Option<StageHandle> {
        match self {
            InputSource::Event(_) => None,
            InputSource::FromFarEnd { stage } => Some(*stage),
            InputSource::FromSink { stage, .. } => Some(*stage),
        }
    }
}

/// One streamed session outcome.
pub type StageOutcome = (StageHandle, Result<StageReport, EngineError>);

// A handful of slots per session; per-variant size is irrelevant next to
// keeping the state machine readable.
#[allow(clippy::large_enum_variant)]
enum Phase {
    /// Reserved via [`AnalysisSession::reserve`], not yet submitted.
    Reserved,
    /// Submitted, waiting on `unmet` dependencies.
    Waiting { stage: Stage, unmet: usize },
    /// All dependencies met; parked in the ready queue.
    Queued { stage: Stage },
    /// A worker is analyzing it.
    Running,
    /// Finished (or failed / was poisoned / cancelled). The stage is kept so
    /// dependents can propagate through its load.
    Done {
        stage: Option<Stage>,
        result: Result<StageReport, EngineError>,
    },
}

struct SlotData {
    label: String,
    /// Sink names of the load, recorded at submit time so consumers can be
    /// validated regardless of the slot's phase. `None` while reserved.
    sink_names: Option<Vec<String>>,
    /// Permanent dependency edges (producer + ordering deps), for cycle
    /// detection.
    deps: Vec<usize>,
    /// Dependent slots to unblock (or poison) when this one completes.
    waiters: Vec<usize>,
    /// Cached handoff propagations of a completed producer, so N dependents
    /// fanning out of one producer run its ms-scale propagation simulation
    /// once, not N times: the full-window primary far end (the waveform a
    /// sampled consumer reads), the named sinks, and the ramp handoff of
    /// the primary far end. The ramp comes from a propagation that stopped
    /// at the far end's 90 % crossing, so it is cached as the event alone:
    /// a consumer that reads the waveform can never be served that
    /// truncated run.
    far_cache: Option<Arc<crate::backend::FarEndReport>>,
    sinks_cache: Option<Arc<Vec<crate::backend::SinkFarEnd>>>,
    ramp_cache: Option<(InputEvent, bool)>,
    /// Serializes the *computation* of the caches above: when N dependents
    /// resolve simultaneously, one holds the gate and simulates while the
    /// rest block on it and then read the cache, instead of all N racing
    /// into redundant simulations. Per-slot, so distinct producers still
    /// resolve in parallel; never held together with the state lock.
    handoff_gate: Arc<Mutex<()>>,
    /// Static-audit findings computed at submit time (the gate that rejects
    /// Error-severity netlists under `Deny`). Kept so the worker can attach
    /// them to the report without synthesizing and auditing the netlist a
    /// second time.
    lints: Vec<rlc_numeric::Diagnostic>,
    /// The stage's result-cache key, recorded by the worker (hit or miss)
    /// before the slot completes so dependents can chain it into their own
    /// keys. `None` while pending, when result caching is off, or when the
    /// stage cannot be fingerprinted (custom backend/load, uncacheable
    /// producer).
    cache_key: Option<crate::eco::StageKey>,
    /// The stage started its backend analysis (after a result-cache miss, or
    /// on dispatch when no result cache is configured), so its waiting
    /// dependents may be prepared from now on. Only recorded on sessions
    /// that prepare ahead.
    started: bool,
    phase: Phase,
}

impl SlotData {
    fn reserved(index: usize) -> SlotData {
        SlotData {
            label: format!("reserved #{index}"),
            sink_names: None,
            deps: Vec::new(),
            waiters: Vec::new(),
            far_cache: None,
            sinks_cache: None,
            ramp_cache: None,
            handoff_gate: Arc::new(Mutex::new(())),
            lints: Vec::new(),
            cache_key: None,
            started: false,
            phase: Phase::Reserved,
        }
    }
}

struct State {
    slots: Vec<SlotData>,
    ready: VecDeque<usize>,
    /// Waiting stages an idle worker may prepare ahead of their input
    /// ([`Stage::prepared_load`]), oldest first. Entries that stopped
    /// waiting or were prepared meanwhile are skipped when popped.
    prepare: VecDeque<usize>,
    cancelled: bool,
    deadline_fired: bool,
    shutdown: bool,
    /// Number of results that will eventually be sent on `tx`.
    expected: usize,
    tx: Sender<StageOutcome>,
}

struct Shared {
    id: u64,
    state: Mutex<State>,
    work: Condvar,
    deadline: Option<Instant>,
    options: SessionOptions,
    engine: TimingEngine,
    /// The persistent stage-result store, opened from
    /// [`crate::EngineConfig::result_cache_dir`]. `None` when result caching
    /// is off (or the directory could not be created — caching is an
    /// optimization, so an unusable store silently degrades to re-simulation
    /// like any damaged entry would).
    result_cache: Option<crate::eco::StageResultCache>,
    /// Number of stages dispatched to a backend (result-cache misses plus
    /// uncacheable stages).
    simulated: AtomicU64,
    /// Number of stages short-circuited from the result cache.
    result_hits: AtomicU64,
    /// Whether idle workers prepare waiting analytic stages ahead of their
    /// input: on with per-case Rs extraction and more than one worker.
    prepare_ahead: bool,
}

impl Shared {
    fn deadline_is_past(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

/// A dependency-aware analysis session. Create one with
/// [`TimingEngine::session`] / [`TimingEngine::session_with`].
///
/// * Stages are submitted individually or in bulk and return typed
///   [`StageHandle`]s.
/// * A stage may declare its input as [`InputSource::FromFarEnd`] or
///   [`InputSource::FromSink`] instead of a fixed
///   [`crate::InputEvent`]; the session resolves the producer's measured
///   far-end waveform into the dependent driver's input — a slew-referenced
///   ramp by default ([`crate::InputEvent::from_measured`]), or the full
///   sampled waveform when the backend reports
///   [`crate::BackendCaps::sampled_input`]. A ramp handoff from the primary
///   far end simulates the propagation only up to the far end's last
///   measured crossing ([`StageReport::far_end_handoff`]); the sampled
///   waveform and named sinks come from full-window runs.
/// * Scheduling is topological over a work queue: independent stages run in
///   parallel, dependents unblock the moment their producer completes,
///   cycles and unknown sink names are rejected at submit time, and a
///   failing producer poisons **only** its dependents
///   ([`EngineError::UpstreamFailed`]).
/// * The session's worker loops run on the engine's threads
///   ([`TimingEngine`]): each submission starts one more loop, up to
///   [`crate::EngineConfig::base_threads`] (capped by
///   [`crate::SessionOptions::max_in_flight`]), on an idle engine thread or
///   on a new one when none is idle. Dropping the session stops its loops
///   and waits for each to return; stages already running finish first.
/// * Idle workers prepare waiting stages ahead of their input. Under per-case
///   Rs extraction ([`crate::EngineConfig::extract_rs_per_case`], the
///   default), a stage's load reduction and the driver on-resistance
///   extracted against the load's total capacitance do not depend on the
///   input event. A waiting stage on the analytic backend becomes preparable
///   once one of its dependencies starts its own backend analysis (after a
///   result-cache miss, or on dispatch when no result cache is configured),
///   or on submit when one already has. A worker takes ready stages first
///   and prepares only when none is ready, so when the stage's input lands
///   it runs only its handoff and its Ceff iteration. Nothing is prepared
///   with extraction off, for SPICE or custom-backend stages, or on a
///   one-worker session. Reports are bit-identical either way; a prepare
///   that panics leaves nothing behind, and the stage's own analysis
///   re-runs it and reports [`EngineError::StagePanicked`].
///   [`StageReport::elapsed_seconds`] stays the backend call's wall time, so
///   it no longer covers a prepared extraction.
/// * Results stream out via [`AnalysisSession::next_report`] (or the
///   [`AnalysisSession::reports`] iterator) in completion order;
///   [`AnalysisSession::wait_all`] blocks for everything and returns results
///   in submission order. [`crate::SessionOptions`] adds a deadline and an
///   in-flight cap; [`AnalysisSession::cancel`] aborts everything that has
///   not started yet.
pub struct AnalysisSession {
    shared: Arc<Shared>,
    rx: Receiver<StageOutcome>,
    /// Completion signals of the worker loops running on the engine's
    /// threads.
    workers: Vec<JobHandle>,
    /// Upper bound on worker loops; they are started lazily, one per
    /// submission, so a small session never occupies every idle thread.
    worker_target: usize,
    reported: usize,
}

impl std::fmt::Debug for AnalysisSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AnalysisSession")
            .field("id", &self.shared.id)
            .field("workers", &self.workers.len())
            .field("reported", &self.reported)
            .finish()
    }
}

impl AnalysisSession {
    pub(crate) fn new(engine: TimingEngine, options: SessionOptions) -> AnalysisSession {
        let id = NEXT_SESSION_ID.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = channel();
        let worker_target = {
            let base = engine.config().base_threads();
            match options.max_in_flight {
                0 => base,
                cap => base.min(cap),
            }
            .max(1)
        };
        let result_cache = engine
            .config()
            .result_cache_dir
            .clone()
            .and_then(|dir| crate::eco::StageResultCache::open(dir).ok());
        let prepare_ahead = engine.config().extract_rs_per_case && worker_target > 1;
        let shared = Arc::new(Shared {
            id,
            state: Mutex::new(State {
                slots: Vec::new(),
                ready: VecDeque::new(),
                prepare: VecDeque::new(),
                cancelled: false,
                deadline_fired: false,
                shutdown: false,
                expected: 0,
                tx,
            }),
            work: Condvar::new(),
            deadline: options.deadline.map(|d| Instant::now() + d),
            options,
            engine,
            result_cache,
            simulated: AtomicU64::new(0),
            result_hits: AtomicU64::new(0),
            prepare_ahead,
        });
        AnalysisSession {
            shared,
            rx,
            workers: Vec::new(),
            worker_target,
            reported: 0,
        }
    }

    /// Starts one more worker loop unless the session already reached its
    /// target. Called per submission, so a 2-stage session on a 64-core
    /// host runs 2 loops, not 64 parked ones.
    fn ensure_worker(&mut self) {
        if self.workers.len() < self.worker_target {
            self.start_worker();
        }
    }

    /// Hands one more worker loop to the engine's threads.
    fn start_worker(&mut self) {
        let shared = self.shared.clone();
        let job = self
            .shared
            .engine
            .pool()
            .execute(move || worker_loop(&shared));
        self.workers.push(job);
    }

    /// Number of handles issued so far (submissions plus reservations).
    pub fn len(&self) -> usize {
        self.shared.state.lock().expect("session state").slots.len()
    }

    /// Whether nothing has been submitted or reserved yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn handle(&self, index: usize) -> StageHandle {
        StageHandle {
            session: self.shared.id,
            index,
        }
    }

    /// Reserves a handle whose stage will be supplied later with
    /// [`AnalysisSession::submit_reserved`]. This is how mutually-referencing
    /// graphs are wired up front — and why cycle rejection exists: with
    /// reservations, a forward reference can point back at an earlier stage.
    ///
    /// A reservation that is never submitted fails (and poisons its
    /// dependents) when [`AnalysisSession::wait_all`] is called.
    pub fn reserve(&mut self) -> StageHandle {
        let mut st = self.shared.state.lock().expect("session state");
        let index = st.slots.len();
        st.slots.push(SlotData::reserved(index));
        drop(st);
        self.handle(index)
    }

    /// Submits a stage and returns its handle. Dependencies
    /// ([`crate::StageBuilder::input_from`],
    /// [`crate::StageBuilder::input_from_sink`],
    /// [`crate::StageBuilder::after`]) are validated here: handles must
    /// belong to this session, must not close a cycle, and `FromSink` names
    /// must exist on the producer's load. The static audit pass also runs
    /// here (per [`crate::EngineConfig::lint_level`]): a netlist with
    /// Error-severity findings under `Deny` is rejected as
    /// [`EngineError::Lint`] **before** the stage ever reaches a worker —
    /// no matrix is built or factorized for it.
    ///
    /// # Errors
    /// [`EngineError::InvalidDependency`], [`EngineError::DependencyCycle`],
    /// [`EngineError::UnknownSink`] or [`EngineError::Lint`]; the stage is
    /// not enqueued on error.
    pub fn submit(&mut self, stage: Stage) -> Result<StageHandle, EngineError> {
        let lints = self.shared.engine.lint_stage(&stage)?;
        let index = {
            let mut st = self.shared.state.lock().expect("session state");
            let index = st.slots.len();
            let deps = validate(&st, self.shared.id, index, &stage)?;
            st.slots.push(SlotData::reserved(index));
            st.slots[index].lints = lints;
            fill(&mut st, &self.shared, index, stage, deps);
            index
        };
        self.ensure_worker();
        Ok(self.handle(index))
    }

    /// Fills a reservation made with [`AnalysisSession::reserve`].
    ///
    /// # Errors
    /// Like [`AnalysisSession::submit`], plus
    /// [`EngineError::InvalidDependency`] when the handle belongs to another
    /// session or was already submitted. The reservation stays open on
    /// validation errors.
    pub fn submit_reserved(
        &mut self,
        handle: StageHandle,
        stage: Stage,
    ) -> Result<(), EngineError> {
        let lints = self.shared.engine.lint_stage(&stage)?;
        let mut st = self.shared.state.lock().expect("session state");
        if handle.session != self.shared.id || handle.index >= st.slots.len() {
            return Err(EngineError::InvalidDependency {
                what: format!(
                    "stage '{}' cannot fill a reservation from another session",
                    stage.label()
                ),
            });
        }
        if !matches!(st.slots[handle.index].phase, Phase::Reserved) {
            // `sink_names` is only recorded when a stage is actually filled,
            // so it distinguishes a genuinely-submitted slot from a
            // reservation that wait_all() already expired as a failure.
            let what = if st.slots[handle.index].sink_names.is_some() {
                format!("{handle} was already submitted")
            } else {
                format!(
                    "{handle} was an unfilled reservation that wait_all() already \
                     resolved as failed; reserve a new handle"
                )
            };
            return Err(EngineError::InvalidDependency { what });
        }
        let deps = validate(&st, self.shared.id, handle.index, &stage)?;
        st.slots[handle.index].lints = lints;
        fill(&mut st, &self.shared, handle.index, stage, deps);
        drop(st);
        self.ensure_worker();
        Ok(())
    }

    /// Submits a batch of stages, failing fast on the first invalid one
    /// (stages submitted before the failure stay submitted).
    ///
    /// # Errors
    /// See [`AnalysisSession::submit`].
    pub fn submit_all<I>(&mut self, stages: I) -> Result<Vec<StageHandle>, EngineError>
    where
        I: IntoIterator<Item = Stage>,
    {
        let stages = stages.into_iter();
        // A wide batch wants its full worker complement immediately, not one
        // new loop per submission — the first stages should already be
        // fanning out while the tail of the batch is still validating.
        let known = stages.size_hint().0;
        while self.workers.len() < self.worker_target.min(known) {
            self.start_worker();
        }
        stages.map(|s| self.submit(s)).collect()
    }

    /// Blocks for the next completed stage, in completion order. Returns
    /// `None` once every stage submitted *so far* has been reported (more
    /// can be submitted afterwards, which re-arms the stream).
    ///
    /// Unfilled reservations produce no result until
    /// [`AnalysisSession::wait_all`] resolves them as failures — a dependent
    /// blocked on one makes this call block too.
    pub fn next_report(&mut self) -> Option<StageOutcome> {
        let expected = self.shared.state.lock().expect("session state").expected;
        if self.reported >= expected {
            return None;
        }
        match self.rx.recv() {
            Ok(outcome) => {
                self.reported += 1;
                Some(outcome)
            }
            Err(_) => None,
        }
    }

    /// Non-blocking sibling of [`AnalysisSession::next_report`]: returns the
    /// next completed stage if one is already available, `None` when nothing
    /// has completed yet **or** everything submitted so far has been
    /// reported. Disambiguate the two `None` cases with
    /// [`AnalysisSession::outstanding`] — this is what lets a service front
    /// end poll many sessions (one per shard) without parking a thread on
    /// each.
    pub fn try_next_report(&mut self) -> Option<StageOutcome> {
        let expected = self.shared.state.lock().expect("session state").expected;
        if self.reported >= expected {
            return None;
        }
        match self.rx.try_recv() {
            Ok(outcome) => {
                self.reported += 1;
                Some(outcome)
            }
            Err(_) => None,
        }
    }

    /// Number of submitted stages whose outcomes have not been streamed yet
    /// (zero means [`AnalysisSession::try_next_report`]'s `None` is "all
    /// reported", not "still running").
    pub fn outstanding(&self) -> usize {
        let expected = self.shared.state.lock().expect("session state").expected;
        expected.saturating_sub(self.reported)
    }

    /// Streaming iterator over completions: yields `(handle, outcome)` in
    /// completion order until everything submitted so far has been reported.
    pub fn reports(&mut self) -> SessionReports<'_> {
        SessionReports { session: self }
    }

    /// Blocks until every submitted stage has completed and returns all
    /// outcomes **in submission order** (including any that were already
    /// streamed). Reservations that were never filled fail here with
    /// [`EngineError::InvalidDependency`] and poison their dependents.
    pub fn wait_all(&mut self) -> Vec<StageOutcome> {
        {
            let mut st = self.shared.state.lock().expect("session state");
            for i in 0..st.slots.len() {
                if matches!(st.slots[i].phase, Phase::Reserved) {
                    let label = st.slots[i].label.clone();
                    st.expected += 1;
                    complete(
                        &mut st,
                        &self.shared.work,
                        self.shared.id,
                        i,
                        Err(EngineError::InvalidDependency {
                            what: format!("{label} was never submitted"),
                        }),
                        None,
                    );
                }
            }
        }
        while self.next_report().is_some() {}
        let st = self.shared.state.lock().expect("session state");
        st.slots
            .iter()
            .enumerate()
            .map(|(i, slot)| {
                let result = match &slot.phase {
                    Phase::Done { result, .. } => result.clone(),
                    _ => Err(EngineError::InvalidDependency {
                        what: format!("stage '{}' never completed", slot.label),
                    }),
                };
                (
                    StageHandle {
                        session: self.shared.id,
                        index: i,
                    },
                    result,
                )
            })
            .collect()
    }

    /// Number of stages this session dispatched to an analysis backend —
    /// result-cache misses plus uncacheable stages. With a warm
    /// [`crate::StageResultCache`] and no edits this stays at zero for a
    /// full re-analysis.
    pub fn stages_simulated(&self) -> u64 {
        self.shared.simulated.load(Ordering::Relaxed)
    }

    /// Number of stages short-circuited from the persistent result cache
    /// ([`crate::EngineConfigBuilder::result_cache_dir`]). Always zero when
    /// result caching is off.
    pub fn result_cache_hits(&self) -> u64 {
        self.shared.result_hits.load(Ordering::Relaxed)
    }

    /// Cancels everything that has not started running: queued and waiting
    /// stages complete with [`EngineError::Cancelled`], stages already on a
    /// worker finish and report normally, and later submissions fail
    /// immediately. Idempotent.
    pub fn cancel(&self) {
        let mut st = self.shared.state.lock().expect("session state");
        if st.cancelled {
            return;
        }
        st.cancelled = true;
        st.ready.clear();
        abort_pending(&mut st, self.shared.id, |label| EngineError::Cancelled {
            label,
        });
        self.shared.work.notify_all();
    }
}

/// Streaming iterator over an [`AnalysisSession`]'s completions
/// ([`AnalysisSession::reports`]).
#[derive(Debug)]
pub struct SessionReports<'a> {
    session: &'a mut AnalysisSession,
}

impl Iterator for SessionReports<'_> {
    type Item = StageOutcome;

    fn next(&mut self) -> Option<StageOutcome> {
        self.session.next_report()
    }
}

impl Drop for AnalysisSession {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().expect("session state");
            st.shutdown = true;
        }
        self.shared.work.notify_all();
        for worker in self.workers.drain(..) {
            worker.wait();
        }
    }
}

/// Validates a stage's dependencies against the current session state and
/// returns the dependency slot indices. `index` is the slot the stage is
/// about to occupy.
fn validate(
    st: &State,
    session: u64,
    index: usize,
    stage: &Stage,
) -> Result<Vec<usize>, EngineError> {
    let mut deps = Vec::new();
    let producer = stage.input_source().producer();
    for handle in producer.iter().chain(stage.after_handles()) {
        if handle.session() != session {
            return Err(EngineError::InvalidDependency {
                what: format!(
                    "stage '{}' references a handle from another session",
                    stage.label()
                ),
            });
        }
        if handle.index() == index {
            return Err(EngineError::DependencyCycle {
                label: stage.label().to_string(),
            });
        }
        if handle.index() >= st.slots.len() {
            return Err(EngineError::InvalidDependency {
                what: format!(
                    "stage '{}' references {handle}, which does not exist in this session",
                    stage.label()
                ),
            });
        }
        deps.push(handle.index());
    }
    // One edge per producer: a duplicate (e.g. `.input_from(a).after(a)`)
    // would register the stage as a waiter twice and double-count `unmet`,
    // which the completion walk must never see.
    deps.sort_unstable();
    deps.dedup();

    // Cycle check: walk the recorded dependency edges from every direct
    // dependency; reaching `index` means this submission would close a loop.
    // Only a reservation can be reached. A fresh slot (`index` past the end)
    // has issued no handle, so no recorded edge names it, and skipping the
    // walk keeps submitting a long chain linear.
    if index < st.slots.len() {
        let mut stack = deps.clone();
        let mut seen = vec![false; st.slots.len()];
        while let Some(d) = stack.pop() {
            if d == index {
                return Err(EngineError::DependencyCycle {
                    label: stage.label().to_string(),
                });
            }
            if seen[d] {
                continue;
            }
            seen[d] = true;
            stack.extend(st.slots[d].deps.iter().copied());
        }
    }

    // Sink negotiation: a producer whose load is already known must expose
    // the requested measurement point. (Producers still in reservation are
    // re-checked at resolution time.)
    match stage.input_source() {
        InputSource::Event(_) => {}
        InputSource::FromFarEnd { stage: p } => {
            if let Some(names) = &st.slots[p.index()].sink_names {
                if names.is_empty() {
                    return Err(EngineError::InvalidDependency {
                        what: format!(
                            "stage '{}' depends on the far end of '{}', whose load has no \
                             physical netlist to measure",
                            stage.label(),
                            st.slots[p.index()].label
                        ),
                    });
                }
            }
        }
        InputSource::FromSink { stage: p, sink } => {
            if let Some(names) = &st.slots[p.index()].sink_names {
                if !names.iter().any(|n| n == sink) {
                    return Err(EngineError::UnknownSink {
                        label: st.slots[p.index()].label.clone(),
                        sink: sink.clone(),
                        available: names.clone(),
                    });
                }
            }
        }
    }
    Ok(deps)
}

/// Fills slot `index` with a validated stage: registers its edges, and
/// either queues it, parks it on its dependencies, or fails it immediately
/// (cancelled session, expired deadline, already-failed producer).
fn fill(st: &mut State, shared: &Shared, index: usize, stage: Stage, deps: Vec<usize>) {
    st.slots[index].label = stage.label().to_string();
    st.slots[index].sink_names = Some(stage.load().sink_names());
    st.slots[index].deps = deps.clone();
    st.expected += 1;

    let label = stage.label().to_string();
    if st.cancelled {
        complete(
            st,
            &shared.work,
            shared.id,
            index,
            Err(EngineError::Cancelled { label }),
            None,
        );
        return;
    }
    if st.deadline_fired || shared.deadline_is_past() {
        if !st.deadline_fired {
            // First observer of the expired deadline: abort everything
            // pending too, not just this submission — otherwise queued
            // stages would still run after the deadline whenever a
            // post-deadline submit raced the workers to the flag.
            fire_deadline(st, shared.id);
        }
        complete(
            st,
            &shared.work,
            shared.id,
            index,
            Err(EngineError::DeadlineExceeded { label }),
            None,
        );
        return;
    }

    let mut unmet = 0;
    for &d in &deps {
        match &st.slots[d].phase {
            Phase::Done { result: Ok(_), .. } => {}
            Phase::Done { result: Err(_), .. } => {
                let upstream = st.slots[d].label.clone();
                complete(
                    st,
                    &shared.work,
                    shared.id,
                    index,
                    Err(EngineError::UpstreamFailed { label, upstream }),
                    None,
                );
                return;
            }
            _ => {
                st.slots[d].waiters.push(index);
                unmet += 1;
            }
        }
    }
    if unmet == 0 {
        st.slots[index].phase = Phase::Queued { stage };
        st.ready.push_back(index);
        shared.work.notify_one();
    } else {
        // A dependency that already started its backend analysis makes the
        // stage preparable on submit.
        let preparable = deps.iter().any(|&d| st.slots[d].started) && stage.wants_preparing();
        st.slots[index].phase = Phase::Waiting { stage, unmet };
        if preparable {
            st.prepare.push_back(index);
            shared.work.notify_one();
        }
    }
}

/// Records that slot `index` started its backend analysis and queues its
/// waiting dependents that want preparing for the next idle worker.
fn record_started(st: &mut State, work: &Condvar, index: usize) {
    let State { slots, prepare, .. } = st;
    slots[index].started = true;
    let queued = prepare.len();
    for &w in &slots[index].waiters {
        if matches!(&slots[w].phase, Phase::Waiting { stage, .. } if stage.wants_preparing()) {
            prepare.push_back(w);
        }
    }
    if prepare.len() > queued {
        work.notify_one();
    }
}

/// Pops the next stage to prepare: one still waiting and not yet prepared,
/// cloned so the caller can prepare it without holding the session lock.
fn next_to_prepare(st: &mut State) -> Option<Stage> {
    while let Some(i) = st.prepare.pop_front() {
        match &st.slots[i].phase {
            Phase::Waiting { stage, .. } if stage.wants_preparing() => return Some(stage.clone()),
            _ => {}
        }
    }
    None
}

/// Marks slot `index` done with `result`, streams the outcome, and walks the
/// waiter graph: dependents of a success are unblocked (queued when their
/// last dependency clears), dependents of a failure are poisoned with
/// [`EngineError::UpstreamFailed`] — transitively, but nothing else.
fn complete(
    st: &mut State,
    work: &Condvar,
    session: u64,
    index: usize,
    result: Result<StageReport, EngineError>,
    stage: Option<Stage>,
) {
    let stream = result.clone();
    complete_with_stream(st, work, session, index, result, stream, stage);
}

/// Like [`complete`], but the caller supplies the streamed copy of the
/// result. Workers clone their report *before* taking the state lock and
/// come here directly — a wide batch completing on many threads must not
/// serialize on waveform deep-copies held under the mutex.
fn complete_with_stream(
    st: &mut State,
    work: &Condvar,
    session: u64,
    index: usize,
    result: Result<StageReport, EngineError>,
    stream: Result<StageReport, EngineError>,
    stage: Option<Stage>,
) {
    let mut worklist = vec![(index, result, stream, stage)];
    while let Some((i, result, stream, stage)) = worklist.pop() {
        let failed = result.is_err();
        let upstream_label = st.slots[i].label.clone();
        st.slots[i].phase = Phase::Done { stage, result };
        let _ = st.tx.send((StageHandle { session, index: i }, stream));
        for w in std::mem::take(&mut st.slots[i].waiters) {
            match &mut st.slots[w].phase {
                Phase::Waiting { unmet, .. } if failed => {
                    let _ = unmet;
                    let label = st.slots[w].label.clone();
                    let poison = EngineError::UpstreamFailed {
                        label,
                        upstream: upstream_label.clone(),
                    };
                    worklist.push((w, Err(poison.clone()), Err(poison), None));
                }
                Phase::Waiting { unmet, .. } => {
                    *unmet -= 1;
                    if *unmet == 0 {
                        if let Phase::Waiting { stage, .. } =
                            std::mem::replace(&mut st.slots[w].phase, Phase::Running)
                        {
                            st.slots[w].phase = Phase::Queued { stage };
                            st.ready.push_back(w);
                            work.notify_one();
                        }
                    }
                }
                // Already done (cancelled / deadline / poisoned earlier).
                _ => {}
            }
        }
    }
}

/// Fails every waiting or queued slot with `err(label)`. Safe without waiter
/// propagation: every waiter of an aborted slot is itself waiting (a running
/// stage never waits), so this sweep reaches it directly.
fn abort_pending(st: &mut State, session: u64, err: impl Fn(String) -> EngineError) {
    for i in 0..st.slots.len() {
        if matches!(
            st.slots[i].phase,
            Phase::Waiting { .. } | Phase::Queued { .. }
        ) {
            let label = st.slots[i].label.clone();
            st.slots[i].phase = Phase::Done {
                stage: None,
                result: Err(err(label.clone())),
            };
            st.slots[i].waiters.clear();
            let _ = st
                .tx
                .send((StageHandle { session, index: i }, Err(err(label))));
        }
    }
}

fn fire_deadline(st: &mut State, session: u64) {
    st.deadline_fired = true;
    st.ready.clear();
    abort_pending(st, session, |label| EngineError::DeadlineExceeded { label });
}

fn worker_loop(shared: &Shared) {
    loop {
        let (index, stage, lints) = {
            let mut st = shared.state.lock().expect("session state");
            loop {
                if st.shutdown {
                    return;
                }
                if !st.deadline_fired && shared.deadline_is_past() {
                    fire_deadline(&mut st, shared.id);
                }
                if let Some(i) = st.ready.pop_front() {
                    match std::mem::replace(&mut st.slots[i].phase, Phase::Running) {
                        Phase::Queued { stage } => {
                            // Without a result cache there is no lookup to
                            // miss: the backend analysis starts now.
                            if shared.prepare_ahead && shared.result_cache.is_none() {
                                record_started(&mut st, &shared.work, i);
                            }
                            break (i, stage, std::mem::take(&mut st.slots[i].lints));
                        }
                        other => {
                            st.slots[i].phase = other;
                            continue;
                        }
                    }
                }
                if let Some(stage) = next_to_prepare(&mut st) {
                    drop(st);
                    // The result stays in the stage's cell for its own
                    // analysis to read, error included. A panic leaves the
                    // cell empty; that analysis then re-runs the extraction
                    // and reports the panic, so nothing is lost here.
                    let _ = catch_unwind(AssertUnwindSafe(|| stage.prepared_load()));
                    st = shared.state.lock().expect("session state");
                    continue;
                }
                st = wait_for_work(shared, st);
            }
        };
        // Incremental mode: compute the stage's content-addressed identity
        // (dependents chain their producer's recorded key, so identity flows
        // transitively down the cone) and replay a stored report on a hit.
        // The hit path skips resolve_input entirely — an unchanged cone
        // never runs a far-end propagation, let alone a backend.
        let key = stage_cache_key(shared, &stage);
        if let Some(key) = &key {
            let hit = shared
                .result_cache
                .as_ref()
                .and_then(|cache| cache.load(key, stage.label()));
            if let Some(report) = hit {
                shared.result_hits.fetch_add(1, Ordering::Relaxed);
                let stream = Ok(report.clone());
                let mut st = shared.state.lock().expect("session state");
                st.slots[index].cache_key = Some(*key);
                complete_with_stream(
                    &mut st,
                    &shared.work,
                    shared.id,
                    index,
                    Ok(report),
                    stream,
                    Some(stage),
                );
                continue;
            }
        }
        shared.simulated.fetch_add(1, Ordering::Relaxed);
        if shared.prepare_ahead && shared.result_cache.is_some() {
            let mut st = shared.state.lock().expect("session state");
            record_started(&mut st, &shared.work, index);
        }
        // The handoff propagation in resolve_input runs the same simulation
        // code the engine defends with catch_unwind; contain panics here the
        // same way, or a panicking handoff would kill the worker with the
        // slot stuck in Running and wait_all blocked forever.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            resolve_input(shared, &stage).and_then(|(s, mut handoff_lints)| {
                // The load was already synthesized and audited at submit
                // time; reuse those findings instead of linting twice.
                let mut report = shared.engine.analyze_prelinted(&s, lints)?;
                // Observations from the handoff propagation (a sparse kernel
                // degrading to dense) belong to the consumer that triggered
                // it.
                report.lints.append(&mut handoff_lints);
                Ok(report)
            })
        }))
        .unwrap_or_else(|payload| {
            Err(EngineError::StagePanicked {
                label: stage.label().to_string(),
                detail: crate::engine::panic_message(payload.as_ref()),
            })
        });
        // Persist the freshly simulated report before completing the slot
        // (store failures degrade to "not cached", never to a stage error).
        if let (Some(cache), Some(key), Ok(report)) = (&shared.result_cache, &key, &result) {
            let _ = cache.store(key, report);
        }
        // Deep-copy the report for the completion stream while no lock is
        // held; only the bookkeeping below happens under the mutex.
        let stream = result.clone();
        let mut st = shared.state.lock().expect("session state");
        st.slots[index].cache_key = key;
        complete_with_stream(
            &mut st,
            &shared.work,
            shared.id,
            index,
            result,
            stream,
            Some(stage),
        );
    }
}

/// Computes the result-cache key of a stage about to run: a fixed input
/// event fingerprints directly; a dependent stage chains its producer's
/// recorded key (always available — producers complete before dependents are
/// queued). An uncacheable producer (custom backend/load) makes the whole
/// downstream cone uncacheable, which is exactly the conservative behavior
/// we want: never replay what we could not have identified.
fn stage_cache_key(shared: &Shared, stage: &Stage) -> Option<crate::eco::StageKey> {
    shared.result_cache.as_ref()?;
    let producer_key = |p: &StageHandle| -> Option<u64> {
        let st = shared.state.lock().expect("session state");
        st.slots[p.index()].cache_key.map(|k| k.value())
    };
    let input = match stage.input_source() {
        InputSource::Event(event) => crate::eco::InputFingerprint::Fixed(*event),
        InputSource::FromFarEnd { stage: p } => crate::eco::InputFingerprint::FarEnd {
            producer: producer_key(p)?,
        },
        InputSource::FromSink { stage: p, sink } => crate::eco::InputFingerprint::Sink {
            producer: producer_key(p)?,
            sink: sink.as_str(),
        },
    };
    crate::eco::stage_key(stage, input, shared.engine.config(), &shared.options)
}

fn wait_for_work<'a>(shared: &'a Shared, st: MutexGuard<'a, State>) -> MutexGuard<'a, State> {
    match shared.deadline {
        // Once the deadline fired there is nothing left to time out on.
        Some(deadline) if !st.deadline_fired => {
            let timeout = deadline
                .saturating_duration_since(Instant::now())
                .max(Duration::from_millis(1));
            shared
                .work
                .wait_timeout(st, timeout)
                .expect("session state")
                .0
        }
        _ => shared.work.wait(st).expect("session state"),
    }
}

/// Resolves a dependent stage's input from its producer's completed report:
/// measures the handoff waveform (reusing the producer's simulated far end
/// when present, otherwise running the far-end propagation), converts it to
/// a slew-referenced ramp event, and attaches the sampled waveform when the
/// consumer's backend negotiates [`crate::BackendCaps::sampled_input`].
/// A primary-far-end handoff to a consumer that takes only the ramp runs the
/// propagation only up to the far end's last measured crossing
/// ([`StageReport::far_end_handoff`]).
///
/// Alongside the resolved stage it returns any lint observations the handoff
/// produced — today the `L030` Info lint when the propagation's sparse
/// kernel silently degraded to dense — which the worker attaches to the
/// consumer's report.
fn resolve_input(
    shared: &Shared,
    stage: &Stage,
) -> Result<(Stage, Vec<rlc_numeric::Diagnostic>), EngineError> {
    let (producer_index, sink) = match stage.input_source() {
        InputSource::Event(_) => return Ok((stage.clone(), Vec::new())),
        InputSource::FromFarEnd { stage: p } => (p.index(), None),
        InputSource::FromSink { stage: p, sink } => (p.index(), Some(sink.clone())),
    };
    let mut handoff_lints = Vec::new();
    let (producer_stage, report) = {
        let st = shared.state.lock().expect("session state");
        match &st.slots[producer_index].phase {
            Phase::Done {
                stage: Some(ps),
                result: Ok(r),
            } => (ps.clone(), r.clone()),
            _ => {
                return Err(EngineError::InvalidDependency {
                    what: format!(
                        "producer of stage '{}' has no completed report (scheduler invariant)",
                        stage.label()
                    ),
                })
            }
        }
    };

    let producer_label = producer_stage.label().to_string();
    let caps = shared.engine.backend_for(stage).caps();
    let sampled_handoff = shared.options.sampled_handoff && caps.sampled_input;
    let mut degrade_lint = |degraded: bool| {
        if degraded {
            handoff_lints.push(crate::backend::sparse_degrade_lint(&format!(
                "far-end propagation of '{producer_label}'"
            )));
        }
    };
    // Reusing the producer's already-simulated far end is negotiated: the
    // report must carry the waveform *and* the producer's backend must
    // declare [`crate::BackendCaps::simulates_far_end`].
    let reuse_simulated = shared
        .engine
        .backend_for(&producer_stage)
        .caps()
        .simulates_far_end;
    let (event, waveform, vdd) = match sink {
        None => match (&report.simulated_far_end, reuse_simulated) {
            (Some(sim), true) => {
                let measured = sim.ramp_event().ok_or_else(|| {
                    EngineError::unsupported(format!(
                        "the simulated far end of stage '{producer_label}' never completed a \
                         transition; it cannot drive a dependent stage"
                    ))
                })?;
                (
                    InputEvent::from_measured(measured.t50(), 0.8 * measured.slew),
                    Some(sim.waveform().clone()),
                    sim.vdd(),
                )
            }
            // The sampled consumer reads the whole far-end waveform.
            _ if sampled_handoff => {
                let far = cached_far_end(shared, producer_index, &producer_stage, &report)?;
                degrade_lint(far.degraded_to_dense);
                (
                    report.handoff_event(far.delay_from_input, far.slew),
                    Some(far.waveform.clone()),
                    report.vdd,
                )
            }
            _ => {
                let (event, degraded) =
                    cached_ramp_handoff(shared, producer_index, &producer_stage, &report)?;
                degrade_lint(degraded);
                (event, None, report.vdd)
            }
        },
        Some(name) => {
            let sinks = cached_far_end_sinks(shared, producer_index, &producer_stage, &report)?;
            let sink_report = sinks
                .iter()
                .find(|s| s.sink == name)
                .cloned()
                .ok_or_else(|| EngineError::UnknownSink {
                    label: producer_label.clone(),
                    sink: name.clone(),
                    available: sinks.iter().map(|s| s.sink.clone()).collect(),
                })?;
            let incomplete = || {
                EngineError::unsupported(format!(
                    "sink '{name}' of stage '{producer_label}' never completed a transition \
                     (a quiet neighbour only carries noise); it cannot drive a dependent stage"
                ))
            };
            let delay = sink_report.delay_from_input.ok_or_else(incomplete)?;
            let slew = sink_report.slew.ok_or_else(incomplete)?;
            // The engine models rising driver outputs only (the paper's
            // convention); a sink that completed a *falling* transition — an
            // opposite-switching bus aggressor — would silently hand off the
            // wrong edge polarity. Reject it instead.
            let v0 = sink_report
                .waveform
                .values()
                .first()
                .copied()
                .unwrap_or(0.0);
            if sink_report.waveform.last_value() < v0 {
                return Err(EngineError::unsupported(format!(
                    "sink '{name}' of stage '{producer_label}' completes a falling transition; \
                     the rising-edge stage convention cannot chain it — chain from a rising \
                     sink instead"
                )));
            }
            (
                report.handoff_event(delay, slew),
                Some(sink_report.waveform),
                report.vdd,
            )
        }
    };

    let sampled = waveform
        .filter(|_| sampled_handoff)
        .map(|waveform| SampledWaveform::new(waveform, vdd));
    Ok((stage.resolve_input(event, sampled), handoff_lints))
}

/// Runs one of a producer slot's handoff propagations at most once no matter
/// how many dependents fan out of it: the slot's handoff gate serializes
/// simultaneous resolvers, so one computes while the rest wait and read what
/// `cached` finds in the slot afterwards. `store` records a fresh result.
fn computed_once<T>(
    shared: &Shared,
    index: usize,
    cached: impl FnOnce(&SlotData) -> Option<T>,
    compute: impl FnOnce() -> Result<T, EngineError>,
    store: impl FnOnce(&mut SlotData, &T),
) -> Result<T, EngineError> {
    let gate = shared.state.lock().expect("session state").slots[index]
        .handoff_gate
        .clone();
    let _serialized = gate.lock().expect("handoff gate");
    if let Some(hit) = cached(&shared.state.lock().expect("session state").slots[index]) {
        return Ok(hit);
    }
    let computed = compute()?;
    store(
        &mut shared.state.lock().expect("session state").slots[index],
        &computed,
    );
    Ok(computed)
}

/// The producer's full-window primary-far-end propagation.
fn cached_far_end(
    shared: &Shared,
    index: usize,
    producer_stage: &Stage,
    report: &StageReport,
) -> Result<Arc<crate::backend::FarEndReport>, EngineError> {
    computed_once(
        shared,
        index,
        |slot| slot.far_cache.clone(),
        || {
            Ok(Arc::new(
                report.far_end(producer_stage.load(), &shared.options.far_end)?,
            ))
        },
        |slot, far| slot.far_cache = Some(far.clone()),
    )
}

/// The producer's ramp handoff: read off the full-window propagation when a
/// sampled consumer already ran it (the event is bit-identical either way),
/// otherwise from a propagation that stops at the far end's last measured
/// crossing.
fn cached_ramp_handoff(
    shared: &Shared,
    index: usize,
    producer_stage: &Stage,
    report: &StageReport,
) -> Result<(InputEvent, bool), EngineError> {
    computed_once(
        shared,
        index,
        |slot| {
            slot.ramp_cache.or_else(|| {
                slot.far_cache.as_ref().map(|far| {
                    (
                        report.handoff_event(far.delay_from_input, far.slew),
                        far.degraded_to_dense,
                    )
                })
            })
        },
        || report.far_end_handoff(producer_stage.load(), &shared.options.far_end),
        |slot, ramp| slot.ramp_cache = Some(*ramp),
    )
}

/// The producer's per-sink propagation ([`cached_far_end`]'s multi-sink
/// sibling).
fn cached_far_end_sinks(
    shared: &Shared,
    index: usize,
    producer_stage: &Stage,
    report: &StageReport,
) -> Result<Arc<Vec<crate::backend::SinkFarEnd>>, EngineError> {
    computed_once(
        shared,
        index,
        |slot| slot.sinks_cache.clone(),
        || {
            Ok(Arc::new(report.far_end_sinks(
                producer_stage.load(),
                &shared.options.far_end,
            )?))
        },
        |slot, sinks| slot.sinks_cache = Some(sinks.clone()),
    )
}
