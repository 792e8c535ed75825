//! The four workloads. Each is a closed loop with one client: an operation
//! starts when the previous one has returned.
//!
//! * `batch` — a session analyzing 48 independent nets from the paper's
//!   sweep envelope: scheduling fan-out, lint, Rs extraction and the Ceff
//!   iteration; no handoffs, no result cache.
//! * `path` — a session timing an 8-stage repeater path whose stages chain
//!   through far-end handoffs: the serial handoff transients dominate.
//! * `eco` — the middle stage of one of eight warm 12-stage paths is
//!   edited and the path is re-analyzed through the persistent result
//!   cache: the upstream half replays, exactly the edited stage's
//!   downstream cone re-simulates.
//! * `remote` — a client submits 32 nets (one in eight chained onto its
//!   predecessor) to a 2-shard service fleet over localhost: the wire
//!   protocol, shard routing and worker processes on top of the analysis.
//!
//! Every workload draws a pool of operations from the seed (for `eco`, a
//! design of several paths and a stream of edits), runs one operation
//! during set-up so lazy initialization is done before timing, and cycles
//! through the pool while measured.

use std::net::SocketAddr;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use rlc_ceff_suite::ceff::far_end::FarEndOptions;
use rlc_ceff_suite::interconnect::prelude::ff;
use rlc_ceff_suite::numeric::stats::Rng;
use rlc_ceff_suite::{
    EngineConfig, InputEvent, StageHandle, StageReport, StageResultCache, TimingEngine,
};
use rlc_service::{ServiceClient, ShardServer, WorkerPool};

use crate::design::{Cells, Input, Net};
use crate::trace::{probe_layers, Trace};

pub const NAMES: [&str; 4] = ["batch", "path", "eco", "remote"];

const POOL: usize = 16;
const BATCH_STAGES: usize = 48;
const PATH_STAGES: usize = 8;
const ECO_PATHS: usize = 8;
const ECO_STAGES: usize = 12;
/// Every change order edits the same depth, so each re-analysis replays
/// half its path and re-simulates the other half.
const ECO_EDITED_STAGE: usize = ECO_STAGES / 2;
const REMOTE_STAGES: usize = 32;
/// Every eighth remote stage takes its input from the far end of the one
/// before it, which lands both on the same shard.
const REMOTE_CHAIN_EVERY: usize = 8;
const SHARDS: usize = 2;
/// Stages whose layers `--trace 1` probes directly.
const PROBED_STAGES: usize = 12;

/// What one operation did, for the metrics and the trace.
pub struct OpStats {
    pub stages: usize,
    /// Summed backend time the engine reported for the operation's stages.
    pub busy_s: f64,
    /// Stages replayed from the result cache.
    pub hits: u64,
    /// Phase boundaries: open, submit and wait.
    pub phases: Vec<(&'static str, Instant, Instant)>,
}

pub trait Workload {
    /// Runs one operation.
    fn op(&mut self, index: usize) -> Result<OpStats, String>;
    /// Checks every output the operations produced against a reference.
    fn check(&mut self) -> Result<(), String>;
    /// Probes every layer directly on a sample of this workload's stages.
    fn probe(&self, trace: &mut Trace, scratch: &Path) -> Result<(), String>;
}

/// The bits of every number a stage reports that a user reads.
type Bits = Vec<[u64; 3]>;

fn bits(reports: impl IntoIterator<Item = (f64, f64, f64)>) -> Result<Bits, String> {
    reports
        .into_iter()
        .map(|(delay, slew, t50)| {
            if delay.is_finite() && slew.is_finite() && t50.is_finite() && slew > 0.0 {
                Ok([delay.to_bits(), slew.to_bits(), t50.to_bits()])
            } else {
                Err(format!(
                    "implausible stage result: delay {delay:e}, slew {slew:e}, t50 {t50:e}"
                ))
            }
        })
        .collect()
}

fn report_bits(reports: &[StageReport]) -> Result<Bits, String> {
    bits(reports.iter().map(|r| (r.delay, r.slew, r.input_t50)))
}

/// First results seen per pool entry; later operations must repeat them.
struct Seen {
    first: Vec<Option<Bits>>,
    mismatches: usize,
}

impl Seen {
    fn new() -> Seen {
        Seen {
            first: vec![None; POOL],
            mismatches: 0,
        }
    }

    fn record(&mut self, entry: usize, bits: Bits) {
        match &self.first[entry] {
            None => self.first[entry] = Some(bits),
            Some(first) if *first != bits => self.mismatches += 1,
            Some(_) => {}
        }
    }

    fn expect(&self, entry: usize, reference: &Bits, what: &str) -> Result<(), String> {
        if self.mismatches > 0 {
            return Err(format!(
                "{} operations did not repeat their first results",
                self.mismatches
            ));
        }
        match &self.first[entry] {
            Some(first) if first == reference => Ok(()),
            Some(_) => Err(format!("results differ from {what}")),
            None => Err("no results recorded".into()),
        }
    }
}

pub fn setup(name: &str, seed: u64, scratch: &Path) -> Result<Box<dyn Workload>, String> {
    std::fs::create_dir_all(scratch).map_err(|e| e.to_string())?;
    // The fleet's workers load the cells the set-up characterizes from a
    // shared on-disk cache instead of characterizing them again.
    let char_cache = scratch.join("char-cache");
    let cells = Cells::characterize((name == "remote").then_some(char_cache.as_path()))?;
    // Each workload draws its own stream, so one seed gives every workload
    // different inputs.
    let salt = NAMES.iter().position(|n| *n == name).unwrap_or(0) as u64;
    let mut rng = Rng::new(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ salt);
    let mut workload: Box<dyn Workload> = match name {
        "batch" => Box::new(Batch::new(cells, &mut rng)),
        "path" => Box::new(PathTiming::new(cells, &mut rng)),
        "eco" => Box::new(Eco::new(cells, rng, scratch)?),
        "remote" => Box::new(Remote::new(cells, &mut rng, &char_cache)?),
        other => return Err(format!("unknown workload '{other}'")),
    };
    workload.op(0)?;
    Ok(workload)
}

fn layer_cache(scratch: &Path) -> Result<StageResultCache, String> {
    StageResultCache::open(scratch.join("probe-result-cache")).map_err(|e| e.to_string())
}

/// Submits groups of nets to one fresh session of `engine` and waits for
/// all of them. Within a group, stage `k` is labelled `net-{k}` and takes
/// its input from the far end of stage `k - 1` when `chained(k)` holds; it
/// is a primary input otherwise. Reports come back group after group.
fn run_session(
    engine: &TimingEngine,
    cells: &Cells,
    groups: &[&[Net]],
    chained: impl Fn(usize) -> bool,
) -> Result<(Vec<StageReport>, OpStats), String> {
    let opened = Instant::now();
    let mut session = engine.session();
    let submitting = Instant::now();
    for nets in groups {
        let mut previous: Option<StageHandle> = None;
        for (k, net) in nets.iter().enumerate() {
            let input = match previous {
                Some(producer) if chained(k) => Input::After(producer),
                _ => net.event(),
            };
            let stage = net.stage(cells, format!("net-{k}"), input)?;
            previous = Some(session.submit(stage).map_err(|e| e.to_string())?);
        }
    }
    let waiting = Instant::now();
    let outcomes = session.wait_all();
    let done = Instant::now();
    let reports = outcomes
        .into_iter()
        .map(|(handle, outcome)| outcome.map_err(|e| format!("stage #{}: {e}", handle.index())))
        .collect::<Result<Vec<_>, _>>()?;
    let stats = OpStats {
        stages: reports.len(),
        busy_s: reports.iter().map(|r| r.elapsed_seconds).sum(),
        hits: session.result_cache_hits(),
        phases: vec![
            ("open", opened, submitting),
            ("submit", submitting, waiting),
            ("wait", waiting, done),
        ],
    };
    Ok((reports, stats))
}

/// The reference for a chained path: every stage analyzed directly, its
/// input the measured far end of the stage before, converted exactly as a
/// session converts a handoff.
fn direct_chain(engine: &TimingEngine, cells: &Cells, nets: &[Net]) -> Result<Bits, String> {
    let mut reports: Vec<StageReport> = Vec::with_capacity(nets.len());
    let mut input = None;
    for (k, net) in nets.iter().enumerate() {
        let event = match input {
            None => net.event(),
            Some(InputEvent { slew, delay }) => Input::Event { slew, delay },
        };
        let stage = net.stage(cells, format!("net-{k}"), event)?;
        let report = engine.analyze(&stage).map_err(|e| e.to_string())?;
        let far = report
            .far_end(stage.load(), &FarEndOptions::default())
            .map_err(|e| e.to_string())?;
        input = Some(InputEvent::from_measured(
            report.input_t50 + far.delay_from_input,
            far.slew,
        ));
        reports.push(report);
    }
    report_bits(&reports)
}

// ---------------------------------------------------------------------------

struct Batch {
    engine: TimingEngine,
    cells: Cells,
    pool: Vec<Vec<Net>>,
    seen: Seen,
}

impl Batch {
    fn new(cells: Cells, rng: &mut Rng) -> Batch {
        let pool = (0..POOL)
            .map(|_| (0..BATCH_STAGES).map(|_| Net::sweep(rng)).collect())
            .collect();
        Batch {
            engine: TimingEngine::new(EngineConfig::default()),
            cells,
            pool,
            seen: Seen::new(),
        }
    }
}

impl Workload for Batch {
    fn op(&mut self, index: usize) -> Result<OpStats, String> {
        let entry = index % POOL;
        let (reports, stats) =
            run_session(&self.engine, &self.cells, &[&self.pool[entry]], |_| false)?;
        self.seen.record(entry, report_bits(&reports)?);
        Ok(stats)
    }

    /// The session must compute exactly what analyzing each stage directly
    /// computes.
    fn check(&mut self) -> Result<(), String> {
        let reports = self.pool[0]
            .iter()
            .enumerate()
            .map(|(k, net)| {
                let stage = net.stage(&self.cells, format!("net-{k}"), net.event())?;
                self.engine.analyze(&stage).map_err(|e| e.to_string())
            })
            .collect::<Result<Vec<_>, _>>()?;
        self.seen
            .expect(0, &report_bits(&reports)?, "direct per-stage analysis")
    }

    fn probe(&self, trace: &mut Trace, scratch: &Path) -> Result<(), String> {
        let nets = &self.pool[0][..PROBED_STAGES];
        probe_layers(
            trace,
            &self.engine,
            &self.cells,
            nets,
            false,
            &layer_cache(scratch)?,
        )
        .map(drop)
    }
}

// ---------------------------------------------------------------------------

struct PathTiming {
    engine: TimingEngine,
    cells: Cells,
    pool: Vec<Vec<Net>>,
    seen: Seen,
}

impl PathTiming {
    fn new(cells: Cells, rng: &mut Rng) -> PathTiming {
        let pool = (0..POOL)
            .map(|_| (0..PATH_STAGES).map(|_| Net::repeater(rng)).collect())
            .collect();
        PathTiming {
            engine: TimingEngine::new(EngineConfig::default()),
            cells,
            pool,
            seen: Seen::new(),
        }
    }
}

impl Workload for PathTiming {
    fn op(&mut self, index: usize) -> Result<OpStats, String> {
        let entry = index % POOL;
        let (reports, stats) =
            run_session(&self.engine, &self.cells, &[&self.pool[entry]], |k| k > 0)?;
        self.seen.record(entry, report_bits(&reports)?);
        Ok(stats)
    }

    fn check(&mut self) -> Result<(), String> {
        let reference = direct_chain(&self.engine, &self.cells, &self.pool[0])?;
        self.seen.expect(0, &reference, "the directly chained path")
    }

    fn probe(&self, trace: &mut Trace, scratch: &Path) -> Result<(), String> {
        let reports = probe_layers(
            trace,
            &self.engine,
            &self.cells,
            &self.pool[0],
            true,
            &layer_cache(scratch)?,
        )?;
        self.seen
            .expect(0, &report_bits(&reports)?, "the probed path")
    }
}

// ---------------------------------------------------------------------------

struct Eco {
    engine: TimingEngine,
    cells: Cells,
    /// Independent paths of `ECO_STAGES` stages each.
    design: Vec<Vec<Net>>,
    rng: Rng,
    /// The latest results of each path.
    last: Vec<Bits>,
    /// Edits that re-simulated anything but the edited stage's cone.
    cone_violations: Vec<String>,
}

/// Analyzes every path of `design` in one session.
fn sign_off(
    engine: &TimingEngine,
    cells: &Cells,
    design: &[Vec<Net>],
) -> Result<(Vec<Bits>, u64), String> {
    let paths: Vec<&[Net]> = design.iter().map(Vec::as_slice).collect();
    let (reports, stats) = run_session(engine, cells, &paths, |k| k > 0)?;
    let paths = reports
        .chunks(ECO_STAGES)
        .map(report_bits)
        .collect::<Result<_, _>>()?;
    Ok((paths, stats.hits))
}

impl Eco {
    fn new(cells: Cells, mut rng: Rng, scratch: &Path) -> Result<Eco, String> {
        let design: Vec<Vec<Net>> = (0..ECO_PATHS)
            .map(|_| (0..ECO_STAGES).map(|_| Net::repeater(&mut rng)).collect())
            .collect();
        let engine = TimingEngine::new(
            EngineConfig::builder()
                .result_cache_dir(scratch.join("result-cache"))
                .build(),
        );
        // The design is signed off once, filling the result cache, before
        // any change order arrives.
        let (last, hits) = sign_off(&engine, &cells, &design)?;
        if hits != 0 {
            return Err("the sign-off found a warm result cache".into());
        }
        Ok(Eco {
            engine,
            cells,
            design,
            rng,
            last,
            cone_violations: Vec::new(),
        })
    }
}

impl Workload for Eco {
    /// Changes the receiver pin of one stage, then re-analyzes its path.
    /// Paths take turns, so every run edits them in the same proportions.
    fn op(&mut self, index: usize) -> Result<OpStats, String> {
        let path = index % ECO_PATHS;
        self.design[path][ECO_EDITED_STAGE].c_load = ff(self.rng.uniform_in(5.0, 40.0));
        let (reports, stats) =
            run_session(&self.engine, &self.cells, &[&self.design[path]], |k| k > 0)?;
        let replayed = reports.iter().map(|r| r.cache_hit);
        if !replayed
            .enumerate()
            .all(|(k, hit)| hit == (k < ECO_EDITED_STAGE))
        {
            self.cone_violations.push(format!(
                "edit of path {path}: {} stages replayed",
                stats.hits
            ));
        }
        self.last[path] = report_bits(&reports)?;
        Ok(stats)
    }

    /// Every edit must have replayed exactly the stages upstream of it, and
    /// the incremental results must be bit-identical to a cold analysis of
    /// the edited design.
    fn check(&mut self) -> Result<(), String> {
        if let Some(violation) = self.cone_violations.first() {
            return Err(format!(
                "{} edits did not re-simulate exactly their cone ({violation})",
                self.cone_violations.len()
            ));
        }
        let cold = TimingEngine::new(EngineConfig::default());
        let (paths, _) = sign_off(&cold, &self.cells, &self.design)?;
        if paths == self.last {
            Ok(())
        } else {
            Err("incremental results differ from a cold re-analysis".into())
        }
    }

    fn probe(&self, trace: &mut Trace, scratch: &Path) -> Result<(), String> {
        probe_layers(
            trace,
            &self.engine,
            &self.cells,
            &self.design[0],
            true,
            &layer_cache(scratch)?,
        )
        .map(drop)
    }
}

// ---------------------------------------------------------------------------

struct Remote {
    addr: SocketAddr,
    workers: Arc<Mutex<WorkerPool>>,
    cells: Cells,
    pool: Vec<Vec<Net>>,
    seen: Seen,
}

fn remote_chained(k: usize) -> bool {
    k % REMOTE_CHAIN_EVERY == REMOTE_CHAIN_EVERY - 1
}

impl Remote {
    fn new(cells: Cells, rng: &mut Rng, char_cache: &Path) -> Result<Remote, String> {
        // A chained pair is two repeater segments, so the handoff stays in
        // the characterized slew range; every other net is a sweep net.
        let pool = (0..POOL)
            .map(|_| {
                (0..REMOTE_STAGES)
                    .map(|k| {
                        if remote_chained(k) || remote_chained(k + 1) {
                            Net::repeater(rng)
                        } else {
                            Net::sweep(rng)
                        }
                    })
                    .collect()
            })
            .collect();
        // Shard workers are re-invocations of this executable.
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let fleet = ShardServer::spawn("127.0.0.1:0", SHARDS, Some(char_cache), None, &exe)
            .map_err(|e| format!("spawning the shard fleet: {e}"))?;
        let (addr, workers) = fleet.serve_in_background();
        Ok(Remote {
            addr,
            workers,
            cells,
            pool,
            seen: Seen::new(),
        })
    }
}

impl Workload for Remote {
    fn op(&mut self, index: usize) -> Result<OpStats, String> {
        let entry = index % POOL;
        let opened = Instant::now();
        let mut client = ServiceClient::connect(self.addr).map_err(|e| e.to_string())?;
        let submitting = Instant::now();
        let mut previous = None;
        for (k, net) in self.pool[entry].iter().enumerate() {
            let input = match previous {
                Some(producer) if remote_chained(k) => Input::After(producer),
                _ => net.event(),
            };
            let handle = client
                .submit(net.remote_stage(format!("net-{k}"), input))
                .map_err(|e| e.to_string())?;
            previous = Some(handle);
        }
        let waiting = Instant::now();
        let outcomes = client.wait_all().map_err(|e| e.to_string())?;
        client.close().map_err(|e| e.to_string())?;
        let done = Instant::now();
        let reports = outcomes
            .into_iter()
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        self.seen.record(
            entry,
            bits(reports.iter().map(|r| (r.delay, r.slew, r.input_t50)))?,
        );
        Ok(OpStats {
            stages: reports.len(),
            busy_s: reports.iter().map(|r| r.elapsed_seconds).sum(),
            // The fleet runs without a result cache.
            hits: 0,
            phases: vec![
                ("open", opened, submitting),
                ("submit", submitting, waiting),
                ("wait", waiting, done),
            ],
        })
    }

    /// Remote results must be bit-identical to an in-process session on
    /// the same stages.
    fn check(&mut self) -> Result<(), String> {
        let engine = TimingEngine::new(EngineConfig::default());
        let (reports, _) = run_session(&engine, &self.cells, &[&self.pool[0]], remote_chained)?;
        self.seen
            .expect(0, &report_bits(&reports)?, "the in-process session")
    }

    fn probe(&self, trace: &mut Trace, scratch: &Path) -> Result<(), String> {
        let engine = TimingEngine::new(EngineConfig::default());
        let nets = &self.pool[0][..PROBED_STAGES];
        probe_layers(
            trace,
            &engine,
            &self.cells,
            nets,
            false,
            &layer_cache(scratch)?,
        )
        .map(drop)
    }
}

impl Drop for Remote {
    /// Stops every worker process and waits for it to exit.
    fn drop(&mut self) {
        if let Ok(mut workers) = self.workers.lock() {
            for shard in 0..SHARDS {
                workers.kill(shard);
            }
        }
    }
}
