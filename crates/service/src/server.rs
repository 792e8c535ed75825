//! The single-process timing server: one TCP listener, one
//! `AnalysisSession` per client connection.
//!
//! Each accepted connection gets its own thread and its own session against
//! the shared `TimingEngine`; the characterization [`Library`] is shared
//! across connections (and, through the on-disk cache directory, across
//! *processes* — every shard worker of a cluster points at the same cache
//! dir, so only the first worker ever pays a cell's characterization cost).
//!
//! The request loop is strictly request/response. Frame-layer errors that
//! leave the stream on a frame boundary (stale version, bad checksum,
//! malformed payload) are answered with a typed
//! [`Response::Error`] and the connection keeps serving; errors that
//! desynchronize the stream close it — after reporting the oversized case,
//! which is still diagnosable.

use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use rlc_ceff_suite::charlib::{DriverCell, Library};
use rlc_ceff_suite::interconnect::{BranchId, CoupledBus, RlcLine, RlcTree};
use rlc_ceff_suite::{
    AggressorSpec, AggressorSwitching, AnalysisSession, BackendChoice, CoupledBusLoad, Diagnostic,
    DistributedRlcLoad, EngineConfig, EngineError, LoadModel, LumpedCapLoad, PiModelLoad,
    RlcTreeLoad, SessionOptions, Severity, Stage, StageHandle, StageReport, TimingEngine,
};

use crate::error::{engine_code, wire_code};
use crate::protocol::{
    Request, Response, WireBackend, WireCellRef, WireDiagnostic, WireInput, WireLoad, WireOutcome,
    WireReport, WireSessionOptions, WireStage,
};
use crate::wire::{is_recoverable, read_frame, write_frame, WireError};

/// Converts wire session options into facade [`SessionOptions`]. The
/// deadline clock starts when the server creates the session — i.e. at
/// `Hello` time.
pub fn session_options(wire: &WireSessionOptions) -> SessionOptions {
    let mut options = SessionOptions::default()
        .with_max_in_flight(wire.max_in_flight as usize)
        .with_sampled_handoff(wire.sampled_handoff);
    if let Some(nanos) = wire.timeout_nanos {
        options = options.with_deadline(Duration::from_nanos(nanos));
    }
    options
}

/// Converts facade [`SessionOptions`] into their wire form (the far-end
/// fidelity is not carried; the server default applies remotely).
pub fn wire_options(options: &SessionOptions) -> WireSessionOptions {
    WireSessionOptions {
        timeout_nanos: options
            .deadline
            .map(|d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)),
        max_in_flight: options.max_in_flight as u64,
        sampled_handoff: options.sampled_handoff,
    }
}

/// The scalar wire form of a completed [`StageReport`].
pub fn wire_report(report: &StageReport) -> WireReport {
    WireReport {
        label: report.label.clone(),
        backend: report.backend.to_string(),
        delay: report.delay,
        slew: report.slew,
        input_t50: report.input_t50,
        vdd: report.vdd,
        used_two_ramp: report.used_two_ramp,
        elapsed_seconds: report.elapsed_seconds,
    }
}

/// The wire form of a list of static-audit findings. Severity maps onto the
/// wire tag (`0` info, `1` warning, `2` error); code, locus and message
/// travel verbatim, so the remote audit is bit-identical to the in-process
/// one.
pub fn wire_diagnostics(diagnostics: &[Diagnostic]) -> Vec<WireDiagnostic> {
    diagnostics
        .iter()
        .map(|d| WireDiagnostic {
            code: d.code.clone(),
            severity: match d.severity {
                Severity::Info => 0,
                Severity::Warning => 1,
                Severity::Error => 2,
            },
            locus: d.locus.clone(),
            message: d.message.clone(),
        })
        .collect()
}

/// Maps a per-stage engine outcome onto the wire.
pub fn wire_outcome(outcome: &Result<StageReport, EngineError>) -> WireOutcome {
    match outcome {
        Ok(report) => Ok(wire_report(report)),
        Err(e) => Err((engine_code(e), e.to_string())),
    }
}

/// A single-process timing-analysis server. This is both the standalone
/// `--shards 1` mode of `rlc-serviced` and the per-worker process of a
/// [`crate::shard::ShardServer`] cluster.
pub struct Server {
    listener: TcpListener,
    engine: TimingEngine,
    library: Arc<Mutex<Library>>,
}

impl Server {
    /// Binds the server. When `cache_dir` is set, the library warm-starts
    /// from (and persists to) the on-disk characterization cache — the
    /// mechanism that lets many worker processes share one characterization
    /// effort. When `result_cache_dir` is set, every analyzed stage is
    /// persisted to (and replayed from) the content-addressed stage-result
    /// store, so repeated submissions of unchanged work — across clients,
    /// sessions, and worker processes sharing the directory — never touch
    /// a backend.
    ///
    /// # Errors
    /// I/O errors from binding, and cache-directory failures surfaced as
    /// [`std::io::ErrorKind::Other`].
    pub fn bind(
        addr: &str,
        cache_dir: Option<&Path>,
        result_cache_dir: Option<&Path>,
    ) -> std::io::Result<Server> {
        let mut builder = EngineConfig::builder();
        if let Some(dir) = cache_dir {
            builder = builder.cache_dir(dir);
        }
        if let Some(dir) = result_cache_dir {
            builder = builder.result_cache_dir(dir);
        }
        let engine = TimingEngine::new(builder.build());
        let library = engine
            .open_library()
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        Ok(Server {
            listener: TcpListener::bind(addr)?,
            engine,
            library: Arc::new(Mutex::new(library)),
        })
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr().expect("listener address")
    }

    /// Accepts connections forever, one thread per client.
    pub fn serve(&self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let engine = self.engine.clone();
                    let library = self.library.clone();
                    std::thread::spawn(move || serve_connection(stream, &engine, &library));
                }
                Err(_) => continue,
            }
        }
    }

    /// Moves the accept loop onto a background thread and returns the bound
    /// address — the in-process embedding tests and benches use.
    pub fn serve_in_background(self) -> SocketAddr {
        let addr = self.local_addr();
        std::thread::spawn(move || self.serve());
        addr
    }
}

/// The per-connection request loop.
fn serve_connection(stream: TcpStream, engine: &TimingEngine, library: &Arc<Mutex<Library>>) {
    let mut session: Option<AnalysisSession> = None;
    let mut handles: Vec<StageHandle> = Vec::new();
    serve_frames(stream, |request| {
        handle_request(request, engine, library, &mut session, &mut handles)
    });
}

/// The frame loop of one client connection, shared by [`Server`] and the
/// shard coordinator: reads each request frame, decodes it and writes the
/// responses `handle` returns, until a clean close between frames or a
/// `Close` request. A frame-layer error that leaves the stream on a frame
/// boundary is answered with a typed [`Response::Error`] and the loop keeps
/// serving. An oversized frame is reported (its declared length was
/// rejected before any allocation), then the connection closes, since the
/// stream position inside it is unknowable; any other read error closes it
/// at once.
pub(crate) fn serve_frames(stream: TcpStream, mut handle: impl FnMut(Request) -> Vec<Response>) {
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(stream);
    loop {
        let request = match read_frame(&mut reader) {
            Ok(Some(payload)) => Request::decode(&payload),
            Ok(None) => return,
            Err(e) => Err(e),
        };
        let (responses, done) = match request {
            Ok(request) => {
                let done = matches!(request, Request::Close);
                (handle(request), done)
            }
            Err(e) if is_recoverable(&e) || matches!(e, WireError::Oversized { .. }) => {
                let error = Response::Error {
                    code: wire_code(&e),
                    message: e.to_string(),
                };
                (vec![error], !is_recoverable(&e))
            }
            Err(_) => return,
        };
        for response in responses {
            if write_frame(reader.get_mut(), &response.encode()).is_err() {
                return;
            }
        }
        if done {
            return;
        }
    }
}

/// Handles one decoded request; a `WaitAll` produces two response frames
/// (a bulk `Reports` batch, then `Done`), everything else exactly one.
fn handle_request(
    request: Request,
    engine: &TimingEngine,
    library: &Arc<Mutex<Library>>,
    session: &mut Option<AnalysisSession>,
    handles: &mut Vec<StageHandle>,
) -> Vec<Response> {
    use crate::error::code;

    let need_session = |session: &Option<AnalysisSession>| -> Option<Response> {
        if session.is_none() {
            Some(Response::Error {
                code: code::PROTOCOL,
                message: "no open session: send Hello first".into(),
            })
        } else {
            None
        }
    };

    match request {
        Request::Hello { options } => {
            if session.is_some() {
                return vec![Response::Error {
                    code: code::PROTOCOL,
                    message: "a session is already open on this connection".into(),
                }];
            }
            *session = Some(engine.session_with(session_options(&options)));
            vec![Response::HelloAck]
        }
        Request::Submit(wire_stage) => {
            if let Some(err) = need_session(session) {
                return vec![err];
            }
            let s = session.as_mut().expect("session checked above");
            match build_stage(&wire_stage, library, handles).and_then(|stage| s.submit(stage)) {
                Ok(handle) => {
                    handles.push(handle);
                    vec![Response::Submitted {
                        index: (handles.len() - 1) as u64,
                    }]
                }
                Err(e) => vec![Response::Error {
                    code: engine_code(&e),
                    message: e.to_string(),
                }],
            }
        }
        Request::NextReport => {
            if let Some(err) = need_session(session) {
                return vec![err];
            }
            let s = session.as_mut().expect("session checked above");
            match s.next_report() {
                Some((handle, outcome)) => vec![Response::Report {
                    index: handle.index() as u64,
                    outcome: wire_outcome(&outcome),
                }],
                None => vec![Response::NoPending],
            }
        }
        Request::PollReport => {
            if let Some(err) = need_session(session) {
                return vec![err];
            }
            let s = session.as_mut().expect("session checked above");
            if s.outstanding() == 0 {
                return vec![Response::NoPending];
            }
            match s.try_next_report() {
                Some((handle, outcome)) => vec![Response::Report {
                    index: handle.index() as u64,
                    outcome: wire_outcome(&outcome),
                }],
                None => vec![Response::NotReady],
            }
        }
        Request::WaitAll => {
            if let Some(err) = need_session(session) {
                return vec![err];
            }
            let s = session.as_mut().expect("session checked above");
            // One bulk frame for the whole drain: a wide session costs one
            // frame + one Done, not a frame per stage.
            let mut reports = Vec::new();
            while let Some((handle, outcome)) = s.next_report() {
                reports.push((handle.index() as u64, wire_outcome(&outcome)));
            }
            let count = reports.len() as u64;
            vec![Response::Reports { reports }, Response::Done { count }]
        }
        Request::Cancel => {
            if let Some(s) = session.as_ref() {
                s.cancel();
            }
            vec![Response::CancelAck]
        }
        Request::Ping => vec![Response::Pong],
        Request::Close => vec![Response::Bye],
        Request::Lint(stage) => {
            // The audit inspects only the load netlist; the input event and
            // ordering edges are irrelevant to it, so they are neutralized
            // rather than resolved — a lint-only connection has no accepted
            // submissions to resolve handles against.
            let mut wire = *stage;
            wire.input = WireInput::Event {
                slew: 100e-12,
                delay: None,
            };
            wire.after.clear();
            match build_stage(&wire, library, handles) {
                Ok(stage) => vec![Response::LintReport {
                    diagnostics: wire_diagnostics(&engine.lint(&stage)),
                }],
                Err(e) => vec![Response::Error {
                    code: engine_code(&e),
                    message: e.to_string(),
                }],
            }
        }
    }
}

/// Rebuilds a facade [`Stage`] from its wire description, resolving the
/// cell against the shared library and wire handles against this
/// connection's accepted submissions.
fn build_stage(
    wire: &WireStage,
    library: &Arc<Mutex<Library>>,
    handles: &[StageHandle],
) -> Result<Stage, EngineError> {
    let cell: Arc<DriverCell> = match wire.cell {
        WireCellRef::Characterize { size } => library
            .lock()
            .expect("library lock")
            .get_or_characterize(size)
            .map_err(EngineError::from)?,
        WireCellRef::Synthetic {
            size,
            on_resistance,
        } => Arc::new(rlc_ceff_suite::fixtures::synthetic_cell(
            size,
            on_resistance,
        )),
    };
    let load = build_load(&wire.load)?;
    let mut builder = Stage::builder_shared(cell, load).label(&wire.label);
    match &wire.input {
        WireInput::Event { slew, delay } => {
            builder = builder.input_slew(*slew);
            if let Some(delay) = delay {
                builder = builder.input_delay(*delay);
            }
        }
        WireInput::FromFarEnd { producer } => {
            builder = builder.input_from(resolve_handle(handles, *producer, &wire.label)?);
        }
        WireInput::FromSink { producer, sink } => {
            builder =
                builder.input_from_sink(resolve_handle(handles, *producer, &wire.label)?, sink);
        }
    }
    for &after in &wire.after {
        builder = builder.after(resolve_handle(handles, after, &wire.label)?);
    }
    match wire.backend {
        WireBackend::Default => {}
        WireBackend::Analytic => builder = builder.backend(BackendChoice::Analytic),
        WireBackend::Spice => builder = builder.backend(BackendChoice::Spice),
    }
    builder.build()
}

fn resolve_handle(
    handles: &[StageHandle],
    index: u64,
    label: &str,
) -> Result<StageHandle, EngineError> {
    usize::try_from(index)
        .ok()
        .and_then(|i| handles.get(i).copied())
        .ok_or_else(|| EngineError::InvalidDependency {
            what: format!(
                "stage '{label}' references wire handle #{index}, but only {} stages have been \
                 accepted on this connection",
                handles.len()
            ),
        })
}

/// Validates one wire line and constructs it ([`RlcLine::new`] panics on
/// non-physical values; the wire layer must return a typed error instead).
fn build_line(line: &crate::protocol::WireLine, what: &str) -> Result<RlcLine, EngineError> {
    let physical = [
        line.resistance,
        line.inductance,
        line.capacitance,
        line.length,
    ]
    .iter()
    .all(|v| *v > 0.0 && v.is_finite());
    if !physical {
        return Err(EngineError::invalid(format!(
            "{what} must have positive, finite R/L/C/length (got R = {:e}, L = {:e}, C = {:e}, \
             len = {:e})",
            line.resistance, line.inductance, line.capacitance, line.length
        )));
    }
    Ok(RlcLine::new(
        line.resistance,
        line.inductance,
        line.capacitance,
        line.length,
    ))
}

fn build_aggressor(drive: &crate::protocol::WireAggressor) -> Result<AggressorSpec, EngineError> {
    let switching = match drive.switching {
        0 => AggressorSwitching::Quiet,
        1 => AggressorSwitching::SameDirection,
        2 => AggressorSwitching::OppositeDirection,
        other => {
            return Err(EngineError::invalid(format!(
                "unknown aggressor switching tag {other} (expected 0 quiet, 1 same, 2 opposite)"
            )))
        }
    };
    AggressorSpec::new(switching, drive.slew, drive.delay, drive.amplitude)
}

/// Rebuilds a facade load model from its wire topology, with every
/// validation failure surfaced as a typed [`EngineError::InvalidStage`]
/// (the underlying constructors assert on non-physical values).
pub fn build_load(load: &WireLoad) -> Result<Arc<dyn LoadModel>, EngineError> {
    match load {
        WireLoad::Lumped { c } => Ok(Arc::new(LumpedCapLoad::new(*c)?)),
        WireLoad::Pi {
            c_near,
            resistance,
            c_far,
        } => Ok(Arc::new(PiModelLoad::new(
            rlc_ceff_suite::moments::PiModel {
                c_near: *c_near,
                resistance: *resistance,
                c_far: *c_far,
            },
        )?)),
        WireLoad::Line { line, c_load } => Ok(Arc::new(DistributedRlcLoad::new(
            build_line(line, "a line load")?,
            *c_load,
        )?)),
        WireLoad::Tree { branches } => {
            let mut tree = RlcTree::new();
            let mut ids: Vec<BranchId> = Vec::with_capacity(branches.len());
            for (i, branch) in branches.iter().enumerate() {
                let parent = match branch.parent {
                    None => None,
                    Some(p) => {
                        let p = usize::try_from(p).ok().filter(|&p| p < i).ok_or_else(|| {
                            EngineError::invalid(format!(
                                "tree branch {i} names parent {:?}, but parents must precede \
                                 their children",
                                branch.parent
                            ))
                        })?;
                        Some(ids[p])
                    }
                };
                let id = tree.add_branch(parent, build_line(&branch.line, "a tree branch")?);
                if let Some((name, c_load)) = &branch.sink {
                    if !(*c_load >= 0.0 && c_load.is_finite()) {
                        return Err(EngineError::invalid(format!(
                            "sink '{name}' has a non-physical load capacitance {c_load:e}"
                        )));
                    }
                    tree.set_sink(id, name, *c_load);
                }
                ids.push(id);
            }
            Ok(Arc::new(RlcTreeLoad::new(tree)?))
        }
        WireLoad::Bus {
            victim,
            aggressor,
            coupling_capacitance,
            mutual_inductance,
            victim_load,
            aggressor_load,
            drive,
        } => {
            let victim = build_line(victim, "the victim line")?;
            let aggressor_line = build_line(aggressor, "the aggressor line")?;
            let couplings_physical = *coupling_capacitance >= 0.0
                && coupling_capacitance.is_finite()
                && mutual_inductance.is_finite()
                && mutual_inductance * mutual_inductance
                    < victim.inductance() * aggressor_line.inductance()
                && *victim_load >= 0.0
                && victim_load.is_finite()
                && *aggressor_load >= 0.0
                && aggressor_load.is_finite();
            if !couplings_physical {
                return Err(EngineError::invalid(format!(
                    "bus coupling must be physical (Cc = {coupling_capacitance:e}, \
                     M = {mutual_inductance:e}, victim CL = {victim_load:e}, \
                     aggressor CL = {aggressor_load:e})"
                )));
            }
            let bus = CoupledBus::new(
                victim,
                aggressor_line,
                *coupling_capacitance,
                *mutual_inductance,
                *victim_load,
                *aggressor_load,
            );
            Ok(Arc::new(CoupledBusLoad::new(bus, build_aggressor(drive)?)?))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{WireAggressor, WireBranch, WireLine};

    #[test]
    fn wire_loads_rebuild_into_the_facade_models() {
        let line = WireLine {
            resistance: 72.44,
            inductance: 5.14e-9,
            capacitance: 1.10e-12,
            length: 5e-3,
        };
        let lumped = build_load(&WireLoad::Lumped { c: 200e-15 }).unwrap();
        assert!((lumped.total_capacitance() - 200e-15).abs() < 1e-24);
        let pi = build_load(&WireLoad::Pi {
            c_near: 0.2e-12,
            resistance: 120.0,
            c_far: 0.9e-12,
        })
        .unwrap();
        assert!((pi.total_capacitance() - 1.1e-12).abs() < 1e-24);
        let rlc = build_load(&WireLoad::Line {
            line,
            c_load: 10e-15,
        })
        .unwrap();
        assert!((rlc.total_capacitance() - (1.10e-12 + 10e-15)).abs() < 1e-18);
        let tree = build_load(&WireLoad::Tree {
            branches: vec![
                WireBranch {
                    parent: None,
                    line,
                    sink: None,
                },
                WireBranch {
                    parent: Some(0),
                    line,
                    sink: Some(("rx0".into(), 15e-15)),
                },
                WireBranch {
                    parent: Some(0),
                    line,
                    sink: Some(("rx1".into(), 25e-15)),
                },
            ],
        })
        .unwrap();
        assert_eq!(tree.sink_names(), vec!["rx0", "rx1"]);
        let bus = build_load(&WireLoad::Bus {
            victim: line,
            aggressor: line,
            coupling_capacitance: 0.4e-12,
            mutual_inductance: 1e-9,
            victim_load: 10e-15,
            aggressor_load: 10e-15,
            drive: WireAggressor {
                switching: 2,
                slew: 100e-12,
                delay: 50e-12,
                amplitude: 1.8,
            },
        })
        .unwrap();
        assert_eq!(bus.sink_names(), vec!["victim", "aggressor"]);
    }

    #[test]
    fn non_physical_wire_loads_are_typed_errors_not_panics() {
        let bad_line = WireLine {
            resistance: -1.0,
            inductance: 5.14e-9,
            capacitance: 1.10e-12,
            length: 5e-3,
        };
        let good_line = WireLine {
            resistance: 72.44,
            inductance: 5.14e-9,
            capacitance: 1.10e-12,
            length: 5e-3,
        };
        assert!(matches!(
            build_load(&WireLoad::Line {
                line: bad_line,
                c_load: 10e-15
            }),
            Err(EngineError::InvalidStage { .. })
        ));
        // A forward parent reference is rejected, not asserted on.
        assert!(matches!(
            build_load(&WireLoad::Tree {
                branches: vec![WireBranch {
                    parent: Some(3),
                    line: good_line,
                    sink: Some(("rx".into(), 1e-15)),
                }],
            }),
            Err(EngineError::InvalidStage { .. })
        ));
        // A coupling coefficient >= 1 is rejected, not asserted on.
        assert!(matches!(
            build_load(&WireLoad::Bus {
                victim: good_line,
                aggressor: good_line,
                coupling_capacitance: 0.4e-12,
                mutual_inductance: 6e-9,
                victim_load: 10e-15,
                aggressor_load: 10e-15,
                drive: WireAggressor {
                    switching: 0,
                    slew: 100e-12,
                    delay: 0.0,
                    amplitude: 1.8
                },
            }),
            Err(EngineError::InvalidStage { .. })
        ));
        // Unknown aggressor switching tags too.
        assert!(matches!(
            build_load(&WireLoad::Bus {
                victim: good_line,
                aggressor: good_line,
                coupling_capacitance: 0.4e-12,
                mutual_inductance: 1e-9,
                victim_load: 10e-15,
                aggressor_load: 10e-15,
                drive: WireAggressor {
                    switching: 9,
                    slew: 100e-12,
                    delay: 0.0,
                    amplitude: 1.8
                },
            }),
            Err(EngineError::InvalidStage { .. })
        ));
    }

    #[test]
    fn options_round_trip_between_wire_and_facade() {
        let wire = WireSessionOptions {
            timeout_nanos: Some(250_000_000),
            max_in_flight: 3,
            sampled_handoff: false,
        };
        let options = session_options(&wire);
        assert_eq!(options.deadline, Some(Duration::from_millis(250)));
        assert_eq!(options.max_in_flight, 3);
        assert!(!options.sampled_handoff);
        assert_eq!(wire_options(&options), wire);
        assert_eq!(
            wire_options(&SessionOptions::default()),
            WireSessionOptions::defaults()
        );
    }
}
