//! Message layer of the service protocol: typed requests and responses,
//! encoded into the payload bytes of [`crate::wire`] frames.
//!
//! Stage submissions travel as a [`WireStage`] — a declarative, fully
//! serializable mirror of the facade's `StageBuilder` inputs (cell
//! reference, load topology, input event or upstream dependency, ordering
//! edges, backend choice). Results come back as [`WireReport`]s carrying the
//! scalar measurements of a `StageReport`; waveforms stay server-side, where
//! the session resolves cross-stage handoffs, so remote and in-process
//! analysis of the same path produce bit-identical numbers.
//!
//! Dependency handles are plain `u64` submission indices. A remote client
//! cannot reserve slots, so a wire handle can only name an
//! *already-accepted* submission — forward references and cycles are
//! unrepresentable on the wire, and the server validates indices against the
//! session it owns.

use rlc_numeric::codec::{fnv1a, Decoder, Encoder};

use crate::wire::WireError;

/// Session options a client carries across the wire when opening a session
/// ([`Request::Hello`]). The deadline is a *duration* (nanoseconds) measured
/// from session creation on the server, which makes it exactly expressible
/// remotely — `SessionOptions::timeout` is its facade-side twin. The far-end
/// propagation fidelity is not carried; the server's default applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WireSessionOptions {
    /// Wall-clock budget in nanoseconds, measured from the server-side
    /// session opening. `None` never expires.
    pub timeout_nanos: Option<u64>,
    /// Upper bound on concurrently running stages; `0` means one per worker
    /// thread.
    pub max_in_flight: u64,
    /// Whether capable backends receive the producer's full sampled waveform
    /// on cross-stage handoffs.
    pub sampled_handoff: bool,
}

impl WireSessionOptions {
    /// The facade defaults, as they travel on the wire.
    pub fn defaults() -> Self {
        WireSessionOptions {
            timeout_nanos: None,
            max_in_flight: 0,
            sampled_handoff: true,
        }
    }

    fn encode(&self, e: &mut Encoder) {
        match self.timeout_nanos {
            None => e.bool(false),
            Some(nanos) => {
                e.bool(true);
                e.u64(nanos);
            }
        }
        e.u64(self.max_in_flight);
        e.bool(self.sampled_handoff);
    }

    fn decode(d: &mut Decoder) -> Option<Self> {
        let timeout_nanos = if d.bool()? { Some(d.u64()?) } else { None };
        Some(WireSessionOptions {
            timeout_nanos,
            max_in_flight: d.u64()?,
            sampled_handoff: d.bool()?,
        })
    }
}

/// Which driver cell a stage uses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WireCellRef {
    /// A real cell, characterized (or fetched from the shared on-disk
    /// characterization cache) by the server's library at the given drive
    /// strength.
    Characterize {
        /// Drive strength multiplier (e.g. `75.0` for a 75X inverter).
        size: f64,
    },
    /// The workspace's deterministic synthetic test cell: an affine timing
    /// table scaled by drive strength, no characterization transients. Used
    /// by tests and benches so remote runs stay characterization-free.
    Synthetic {
        /// Drive strength multiplier.
        size: f64,
        /// Driver on-resistance (ohms).
        on_resistance: f64,
    },
}

impl WireCellRef {
    fn encode(&self, e: &mut Encoder) {
        match self {
            WireCellRef::Characterize { size } => {
                e.u8(0);
                e.f64(*size);
            }
            WireCellRef::Synthetic {
                size,
                on_resistance,
            } => {
                e.u8(1);
                e.f64(*size);
                e.f64(*on_resistance);
            }
        }
    }

    fn decode(d: &mut Decoder) -> Option<Self> {
        match d.u8()? {
            0 => Some(WireCellRef::Characterize { size: d.f64()? }),
            1 => Some(WireCellRef::Synthetic {
                size: d.f64()?,
                on_resistance: d.f64()?,
            }),
            _ => None,
        }
    }
}

/// A uniform RLC line on the wire (total resistance, inductance,
/// capacitance, physical length — the `RlcLine` constructor arguments).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireLine {
    /// Total line resistance (ohms).
    pub resistance: f64,
    /// Total line inductance (henries).
    pub inductance: f64,
    /// Total line capacitance (farads).
    pub capacitance: f64,
    /// Physical length (meters).
    pub length: f64,
}

impl WireLine {
    fn encode(&self, e: &mut Encoder) {
        e.f64(self.resistance);
        e.f64(self.inductance);
        e.f64(self.capacitance);
        e.f64(self.length);
    }

    fn decode(d: &mut Decoder) -> Option<Self> {
        Some(WireLine {
            resistance: d.f64()?,
            inductance: d.f64()?,
            capacitance: d.f64()?,
            length: d.f64()?,
        })
    }
}

/// One branch of a tree topology on the wire. Branches are listed in
/// insertion order; a parent always precedes its children, so `parent`
/// indices point strictly backwards.
#[derive(Debug, Clone, PartialEq)]
pub struct WireBranch {
    /// Index of the parent branch, `None` for the root branch at the
    /// driving point.
    pub parent: Option<u64>,
    /// The branch's line segment.
    pub line: WireLine,
    /// The named sink terminating this branch, with its load capacitance
    /// (farads), when the branch ends in a receiver.
    pub sink: Option<(String, f64)>,
}

/// The aggressor drive of a coupled bus on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct WireAggressor {
    /// Switching direction: `0` quiet, `1` same direction, `2` opposite.
    pub switching: u8,
    /// Aggressor ramp transition time (seconds, 0–100 %).
    pub slew: f64,
    /// Absolute start time of the aggressor ramp (seconds).
    pub delay: f64,
    /// Aggressor swing (volts).
    pub amplitude: f64,
}

impl WireAggressor {
    fn encode(&self, e: &mut Encoder) {
        e.u8(self.switching);
        e.f64(self.slew);
        e.f64(self.delay);
        e.f64(self.amplitude);
    }

    fn decode(d: &mut Decoder) -> Option<Self> {
        Some(WireAggressor {
            switching: d.u8()?,
            slew: d.f64()?,
            delay: d.f64()?,
            amplitude: d.f64()?,
        })
    }
}

/// A load topology on the wire — the serializable mirror of the facade's
/// physical load models.
#[derive(Debug, Clone, PartialEq)]
pub enum WireLoad {
    /// A lumped capacitor (farads).
    Lumped {
        /// The capacitance.
        c: f64,
    },
    /// An O'Brien–Savarino RC pi load.
    Pi {
        /// Near-end capacitance (farads).
        c_near: f64,
        /// Series resistance (ohms).
        resistance: f64,
        /// Far-end capacitance (farads).
        c_far: f64,
    },
    /// A distributed RLC line terminated by a fan-out capacitance.
    Line {
        /// The line.
        line: WireLine,
        /// Far-end load capacitance (farads).
        c_load: f64,
    },
    /// A multi-sink RLC tree.
    Tree {
        /// The branches, parents before children.
        branches: Vec<WireBranch>,
    },
    /// A victim/aggressor coupled bus.
    Bus {
        /// The victim line (driven by the stage's driver).
        victim: WireLine,
        /// The aggressor line.
        aggressor: WireLine,
        /// Total line-to-line coupling capacitance (farads).
        coupling_capacitance: f64,
        /// Total mutual inductance (henries).
        mutual_inductance: f64,
        /// Victim far-end load capacitance (farads).
        victim_load: f64,
        /// Aggressor far-end load capacitance (farads).
        aggressor_load: f64,
        /// The aggressor's drive.
        drive: WireAggressor,
    },
}

impl WireLoad {
    fn encode(&self, e: &mut Encoder) {
        match self {
            WireLoad::Lumped { c } => {
                e.u8(0);
                e.f64(*c);
            }
            WireLoad::Pi {
                c_near,
                resistance,
                c_far,
            } => {
                e.u8(1);
                e.f64(*c_near);
                e.f64(*resistance);
                e.f64(*c_far);
            }
            WireLoad::Line { line, c_load } => {
                e.u8(2);
                line.encode(e);
                e.f64(*c_load);
            }
            WireLoad::Tree { branches } => {
                e.u8(3);
                e.u64(branches.len() as u64);
                for b in branches {
                    match b.parent {
                        None => e.bool(false),
                        Some(p) => {
                            e.bool(true);
                            e.u64(p);
                        }
                    }
                    b.line.encode(e);
                    match &b.sink {
                        None => e.bool(false),
                        Some((name, c_load)) => {
                            e.bool(true);
                            e.str(name);
                            e.f64(*c_load);
                        }
                    }
                }
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
                e.u8(4);
                victim.encode(e);
                aggressor.encode(e);
                e.f64(*coupling_capacitance);
                e.f64(*mutual_inductance);
                e.f64(*victim_load);
                e.f64(*aggressor_load);
                drive.encode(e);
            }
        }
    }

    fn decode(d: &mut Decoder) -> Option<Self> {
        match d.u8()? {
            0 => Some(WireLoad::Lumped { c: d.f64()? }),
            1 => Some(WireLoad::Pi {
                c_near: d.f64()?,
                resistance: d.f64()?,
                c_far: d.f64()?,
            }),
            2 => Some(WireLoad::Line {
                line: WireLine::decode(d)?,
                c_load: d.f64()?,
            }),
            3 => {
                // A branch encodes to at least 34 bytes.
                let n = d.count(34)?;
                let mut branches = Vec::new();
                for _ in 0..n {
                    let parent = if d.bool()? { Some(d.u64()?) } else { None };
                    let line = WireLine::decode(d)?;
                    let sink = if d.bool()? {
                        Some((d.str()?, d.f64()?))
                    } else {
                        None
                    };
                    branches.push(WireBranch { parent, line, sink });
                }
                Some(WireLoad::Tree { branches })
            }
            4 => Some(WireLoad::Bus {
                victim: WireLine::decode(d)?,
                aggressor: WireLine::decode(d)?,
                coupling_capacitance: d.f64()?,
                mutual_inductance: d.f64()?,
                victim_load: d.f64()?,
                aggressor_load: d.f64()?,
                drive: WireAggressor::decode(d)?,
            }),
            _ => None,
        }
    }
}

/// Where a stage's input comes from, on the wire. Handles are submission
/// indices of previously accepted stages of the same remote session.
#[derive(Debug, Clone, PartialEq)]
pub enum WireInput {
    /// A fixed input ramp.
    Event {
        /// Input transition time (seconds, 0–100 %).
        slew: f64,
        /// Absolute ramp start time (seconds); `None` applies the
        /// `StageBuilder` default.
        delay: Option<f64>,
    },
    /// The measured primary far-end waveform of an earlier submission.
    FromFarEnd {
        /// Submission index of the producer.
        producer: u64,
    },
    /// The measured waveform at a named sink of an earlier submission.
    FromSink {
        /// Submission index of the producer.
        producer: u64,
        /// The sink name the producer's load must expose.
        sink: String,
    },
}

impl WireInput {
    /// The producer's submission index, for dependent inputs.
    pub fn producer(&self) -> Option<u64> {
        match self {
            WireInput::Event { .. } => None,
            WireInput::FromFarEnd { producer } => Some(*producer),
            WireInput::FromSink { producer, .. } => Some(*producer),
        }
    }

    fn encode(&self, e: &mut Encoder) {
        match self {
            WireInput::Event { slew, delay } => {
                e.u8(0);
                e.f64(*slew);
                match delay {
                    None => e.bool(false),
                    Some(v) => {
                        e.bool(true);
                        e.f64(*v);
                    }
                }
            }
            WireInput::FromFarEnd { producer } => {
                e.u8(1);
                e.u64(*producer);
            }
            WireInput::FromSink { producer, sink } => {
                e.u8(2);
                e.u64(*producer);
                e.str(sink);
            }
        }
    }

    fn decode(d: &mut Decoder) -> Option<Self> {
        match d.u8()? {
            0 => {
                let slew = d.f64()?;
                let delay = if d.bool()? { Some(d.f64()?) } else { None };
                Some(WireInput::Event { slew, delay })
            }
            1 => Some(WireInput::FromFarEnd { producer: d.u64()? }),
            2 => Some(WireInput::FromSink {
                producer: d.u64()?,
                sink: d.str()?,
            }),
            _ => None,
        }
    }
}

/// Which backend analyzes the stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WireBackend {
    /// The engine's default backend.
    #[default]
    Default,
    /// The paper's analytic effective-capacitance flow.
    Analytic,
    /// The golden transient simulation.
    Spice,
}

/// One stage submission on the wire — everything the server needs to rebuild
/// a `Stage` against its own library and session.
#[derive(Debug, Clone, PartialEq)]
pub struct WireStage {
    /// Stage label (used in reports and error messages).
    pub label: String,
    /// The driver cell.
    pub cell: WireCellRef,
    /// The load topology.
    pub load: WireLoad,
    /// The input source.
    pub input: WireInput,
    /// Scheduling-only dependencies (submission indices).
    pub after: Vec<u64>,
    /// Backend choice.
    pub backend: WireBackend,
}

impl WireStage {
    /// Every submission index this stage depends on (producer + ordering
    /// edges).
    pub fn dependencies(&self) -> impl Iterator<Item = u64> + '_ {
        self.input
            .producer()
            .into_iter()
            .chain(self.after.iter().copied())
    }

    /// Whether the stage has no dependencies at all — the class the shard
    /// coordinator may transparently resubmit to a surviving shard when a
    /// worker dies.
    pub fn is_independent(&self) -> bool {
        self.input.producer().is_none() && self.after.is_empty()
    }

    fn encode(&self, e: &mut Encoder) {
        e.str(&self.label);
        self.cell.encode(e);
        self.load.encode(e);
        self.input.encode(e);
        e.u64s(&self.after);
        e.u8(match self.backend {
            WireBackend::Default => 0,
            WireBackend::Analytic => 1,
            WireBackend::Spice => 2,
        });
    }

    fn decode(d: &mut Decoder) -> Option<Self> {
        Some(WireStage {
            label: d.str()?,
            cell: WireCellRef::decode(d)?,
            load: WireLoad::decode(d)?,
            input: WireInput::decode(d)?,
            after: d.u64s()?,
            backend: match d.u8()? {
                0 => WireBackend::Default,
                1 => WireBackend::Analytic,
                2 => WireBackend::Spice,
                _ => return None,
            },
        })
    }

    /// A routing key for the shard coordinator: the FNV of the cell + load
    /// description, so stages of the same net/cell land on the same shard
    /// (and share its in-process characterization).
    pub fn routing_key(&self) -> u64 {
        let mut e = Encoder::new();
        self.cell.encode(&mut e);
        self.load.encode(&mut e);
        fnv1a(&e.finish())
    }
}

/// The scalar measurements of a completed stage, on the wire. Waveforms stay
/// server-side; every `f64` round-trips as its exact bit pattern, so remote
/// reports match in-process ones bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct WireReport {
    /// Stage label.
    pub label: String,
    /// Name of the backend that produced the report.
    pub backend: String,
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
    /// Wall-clock time the analysis took server-side (seconds).
    pub elapsed_seconds: f64,
}

impl WireReport {
    fn encode(&self, e: &mut Encoder) {
        e.str(&self.label);
        e.str(&self.backend);
        e.f64(self.delay);
        e.f64(self.slew);
        e.f64(self.input_t50);
        e.f64(self.vdd);
        e.bool(self.used_two_ramp);
        e.f64(self.elapsed_seconds);
    }

    fn decode(d: &mut Decoder) -> Option<Self> {
        Some(WireReport {
            label: d.str()?,
            backend: d.str()?,
            delay: d.f64()?,
            slew: d.f64()?,
            input_t50: d.f64()?,
            vdd: d.f64()?,
            used_two_ramp: d.bool()?,
            elapsed_seconds: d.f64()?,
        })
    }
}

/// One static-audit finding on the wire — the serializable mirror of the
/// facade's `Diagnostic`. Severity travels as a tag (`0` info, `1` warning,
/// `2` error) and the strings round-trip verbatim, so a remote `LINT` pass
/// returns diagnostics bit-identical to the in-process audit of the same
/// stage.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct WireDiagnostic {
    /// Stable lint code (e.g. `"L001"`).
    pub code: String,
    /// Severity tag: `0` info, `1` warning, `2` error.
    pub severity: u8,
    /// The node or element the finding is anchored to; empty when global.
    pub locus: String,
    /// Human-readable explanation.
    pub message: String,
}

impl WireDiagnostic {
    fn encode(&self, e: &mut Encoder) {
        e.str(&self.code);
        e.u8(self.severity);
        e.str(&self.locus);
        e.str(&self.message);
    }

    fn decode(d: &mut Decoder) -> Option<Self> {
        let code = d.str()?;
        let severity = d.u8()?;
        if severity > 2 {
            return None;
        }
        Some(WireDiagnostic {
            code,
            severity,
            locus: d.str()?,
            message: d.str()?,
        })
    }
}

/// A per-stage result on the wire: the report, or a stable response code
/// plus the error's display string.
pub type WireOutcome = Result<WireReport, (u16, String)>;

fn encode_outcome(outcome: &WireOutcome, e: &mut Encoder) {
    match outcome {
        Ok(report) => {
            e.bool(true);
            report.encode(e);
        }
        Err((code, message)) => {
            e.bool(false);
            e.u16(*code);
            e.str(message);
        }
    }
}

fn decode_outcome(d: &mut Decoder) -> Option<WireOutcome> {
    if d.bool()? {
        Some(Ok(WireReport::decode(d)?))
    } else {
        Some(Err((d.u16()?, d.str()?)))
    }
}

/// A client-to-server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Opens the connection's analysis session. Must be the first request;
    /// the session deadline clock (if any) starts here.
    Hello {
        /// The session options.
        options: WireSessionOptions,
    },
    /// Submits one stage. The server replies [`Response::Submitted`] with
    /// the stage's submission index, or [`Response::Error`] (in which case
    /// no index is consumed).
    Submit(Box<WireStage>),
    /// Asks for the next completed stage, **blocking** until one finishes.
    /// Replies [`Response::Report`], or [`Response::NoPending`] when every
    /// accepted submission has already been reported.
    NextReport,
    /// Non-blocking sibling of [`Request::NextReport`]: replies
    /// [`Response::Report`], [`Response::NotReady`] (work still running) or
    /// [`Response::NoPending`] (nothing outstanding). This is what the shard
    /// coordinator uses to multiplex one client across many workers without
    /// parking a thread per shard.
    PollReport,
    /// Drains every not-yet-reported outcome into one
    /// [`Response::Reports`] frame, then [`Response::Done`].
    WaitAll,
    /// Cancels everything that has not started running. Replies
    /// [`Response::CancelAck`]; cancelled stages still produce their typed
    /// outcome frames.
    Cancel,
    /// Liveness probe; replies [`Response::Pong`].
    Ping,
    /// Ends the conversation; the server replies [`Response::Bye`] and
    /// closes the connection.
    Close,
    /// Runs the static circuit audit over the stage **without** submitting
    /// it for analysis — nothing is simulated, no matrix is factorized, no
    /// submission index is consumed, and the engine's lint level is ignored
    /// (an explicit audit always reports everything it finds). Replies
    /// [`Response::LintReport`] with every finding, or [`Response::Error`]
    /// when the stage description itself cannot be rebuilt.
    Lint(Box<WireStage>),
}

impl Request {
    /// Encodes the request into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        match self {
            Request::Hello { options } => {
                e.u8(1);
                options.encode(&mut e);
            }
            Request::Submit(stage) => {
                e.u8(2);
                stage.encode(&mut e);
            }
            Request::NextReport => e.u8(3),
            Request::PollReport => e.u8(4),
            Request::WaitAll => e.u8(5),
            Request::Cancel => e.u8(6),
            Request::Ping => e.u8(7),
            Request::Close => e.u8(8),
            Request::Lint(stage) => {
                e.u8(9);
                stage.encode(&mut e);
            }
        }
        e.finish()
    }

    /// Decodes a frame payload as a request.
    ///
    /// # Errors
    /// [`WireError::Malformed`] on an unknown tag, a short payload, or
    /// trailing bytes.
    pub fn decode(payload: &[u8]) -> Result<Request, WireError> {
        let mut d = Decoder::new(payload);
        let request = (|| {
            let request = match d.u8()? {
                1 => Request::Hello {
                    options: WireSessionOptions::decode(&mut d)?,
                },
                2 => Request::Submit(Box::new(WireStage::decode(&mut d)?)),
                3 => Request::NextReport,
                4 => Request::PollReport,
                5 => Request::WaitAll,
                6 => Request::Cancel,
                7 => Request::Ping,
                8 => Request::Close,
                9 => Request::Lint(Box::new(WireStage::decode(&mut d)?)),
                _ => return None,
            };
            Some(request)
        })()
        .ok_or_else(|| WireError::Malformed {
            what: "request".into(),
        })?;
        if !d.done() {
            return Err(WireError::Malformed {
                what: "request carries trailing bytes".into(),
            });
        }
        Ok(request)
    }
}

/// A server-to-client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The session is open.
    HelloAck,
    /// The stage was accepted at this submission index.
    Submitted {
        /// The stage's submission index (the wire handle dependents use).
        index: u64,
    },
    /// One completed stage.
    Report {
        /// The stage's submission index.
        index: u64,
        /// The result.
        outcome: WireOutcome,
    },
    /// Nothing has completed yet ([`Request::PollReport`] only).
    NotReady,
    /// Every accepted submission has been reported.
    NoPending,
    /// Ends a [`Request::WaitAll`] stream.
    Done {
        /// Number of reports streamed by this `WaitAll`.
        count: u64,
    },
    /// The cancellation was applied.
    CancelAck,
    /// Liveness reply.
    Pong,
    /// The server acknowledges [`Request::Close`] and will close the
    /// connection.
    Bye,
    /// The request failed with a stable response code (see
    /// [`crate::error::code`]).
    Error {
        /// The stable response code.
        code: u16,
        /// Human-readable detail.
        message: String,
    },
    /// The findings of a [`Request::Lint`] audit, in emission order. An
    /// empty list is a clean bill of health.
    LintReport {
        /// Every diagnostic the audit produced.
        diagnostics: Vec<WireDiagnostic>,
    },
    /// A batch of completed stages in one frame — what [`Request::WaitAll`]
    /// answers with, so draining a wide session costs one frame, not one
    /// per stage. [`Response::Report`] answers `NextReport` and
    /// `PollReport` only.
    Reports {
        /// `(submission index, outcome)` pairs, in completion order.
        reports: Vec<(u64, WireOutcome)>,
    },
}

impl Response {
    /// Encodes the response into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        match self {
            Response::HelloAck => e.u8(1),
            Response::Submitted { index } => {
                e.u8(2);
                e.u64(*index);
            }
            Response::Report { index, outcome } => {
                e.u8(3);
                e.u64(*index);
                encode_outcome(outcome, &mut e);
            }
            Response::NotReady => e.u8(4),
            Response::NoPending => e.u8(5),
            Response::Done { count } => {
                e.u8(6);
                e.u64(*count);
            }
            Response::CancelAck => e.u8(7),
            Response::Pong => e.u8(8),
            Response::Bye => e.u8(9),
            Response::Error { code, message } => {
                e.u8(10);
                e.u16(*code);
                e.str(message);
            }
            Response::LintReport { diagnostics } => {
                e.u8(11);
                e.u64(diagnostics.len() as u64);
                for diagnostic in diagnostics {
                    diagnostic.encode(&mut e);
                }
            }
            Response::Reports { reports } => {
                e.u8(12);
                e.u64(reports.len() as u64);
                for (index, outcome) in reports {
                    e.u64(*index);
                    encode_outcome(outcome, &mut e);
                }
            }
        }
        e.finish()
    }

    /// Decodes a frame payload as a response.
    ///
    /// # Errors
    /// [`WireError::Malformed`] on an unknown tag, a short payload, or
    /// trailing bytes.
    pub fn decode(payload: &[u8]) -> Result<Response, WireError> {
        let mut d = Decoder::new(payload);
        let response = (|| {
            let response = match d.u8()? {
                1 => Response::HelloAck,
                2 => Response::Submitted { index: d.u64()? },
                3 => Response::Report {
                    index: d.u64()?,
                    outcome: decode_outcome(&mut d)?,
                },
                4 => Response::NotReady,
                5 => Response::NoPending,
                6 => Response::Done { count: d.u64()? },
                7 => Response::CancelAck,
                8 => Response::Pong,
                9 => Response::Bye,
                10 => Response::Error {
                    code: d.u16()?,
                    message: d.str()?,
                },
                11 => {
                    // A diagnostic encodes to at least 25 bytes.
                    let n = d.count(25)?;
                    let mut diagnostics = Vec::new();
                    for _ in 0..n {
                        diagnostics.push(WireDiagnostic::decode(&mut d)?);
                    }
                    Response::LintReport { diagnostics }
                }
                12 => {
                    // An entry encodes to at least 19 bytes.
                    let n = d.count(19)?;
                    let mut reports = Vec::new();
                    for _ in 0..n {
                        reports.push((d.u64()?, decode_outcome(&mut d)?));
                    }
                    Response::Reports { reports }
                }
                _ => return None,
            };
            Some(response)
        })()
        .ok_or_else(|| WireError::Malformed {
            what: "response".into(),
        })?;
        if !d.done() {
            return Err(WireError::Malformed {
                what: "response carries trailing bytes".into(),
            });
        }
        Ok(response)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_stage() -> WireStage {
        WireStage {
            label: "bus/seg3".into(),
            cell: WireCellRef::Characterize { size: 100.0 },
            load: WireLoad::Bus {
                victim: WireLine {
                    resistance: 72.44,
                    inductance: 5.14e-9,
                    capacitance: 1.10e-12,
                    length: 5.0e-3,
                },
                aggressor: WireLine {
                    resistance: 72.44,
                    inductance: 5.14e-9,
                    capacitance: 1.10e-12,
                    length: 5.0e-3,
                },
                coupling_capacitance: 0.4e-12,
                mutual_inductance: 1.0e-9,
                victim_load: 10e-15,
                aggressor_load: 10e-15,
                drive: WireAggressor {
                    switching: 2,
                    slew: 100e-12,
                    delay: 50e-12,
                    amplitude: 1.8,
                },
            },
            input: WireInput::FromSink {
                producer: 7,
                sink: "rx_far".into(),
            },
            after: vec![2, 5],
            backend: WireBackend::Analytic,
        }
    }

    #[test]
    fn requests_round_trip() {
        let requests = vec![
            Request::Hello {
                options: WireSessionOptions {
                    timeout_nanos: Some(250_000_000),
                    max_in_flight: 4,
                    sampled_handoff: false,
                },
            },
            Request::Hello {
                options: WireSessionOptions::defaults(),
            },
            Request::Submit(Box::new(sample_stage())),
            Request::Submit(Box::new(WireStage {
                label: "launch".into(),
                cell: WireCellRef::Synthetic {
                    size: 75.0,
                    on_resistance: 70.0,
                },
                load: WireLoad::Tree {
                    branches: vec![
                        WireBranch {
                            parent: None,
                            line: WireLine {
                                resistance: 40.0,
                                inductance: 2e-9,
                                capacitance: 0.5e-12,
                                length: 2e-3,
                            },
                            sink: None,
                        },
                        WireBranch {
                            parent: Some(0),
                            line: WireLine {
                                resistance: 20.0,
                                inductance: 1e-9,
                                capacitance: 0.3e-12,
                                length: 1e-3,
                            },
                            sink: Some(("rx0".into(), 15e-15)),
                        },
                    ],
                },
                input: WireInput::Event {
                    slew: 100e-12,
                    delay: None,
                },
                after: vec![],
                backend: WireBackend::Default,
            })),
            Request::NextReport,
            Request::PollReport,
            Request::WaitAll,
            Request::Cancel,
            Request::Ping,
            Request::Close,
            Request::Lint(Box::new(sample_stage())),
        ];
        for request in requests {
            let decoded = Request::decode(&request.encode()).unwrap();
            assert_eq!(decoded, request);
        }
    }

    #[test]
    fn responses_round_trip_bit_identically() {
        let report = WireReport {
            label: "launch".into(),
            backend: "analytic-ceff".into(),
            delay: 1.234567890123e-10,
            slew: 9.87e-11,
            input_t50: 7.0e-11,
            vdd: 1.8,
            used_two_ramp: true,
            elapsed_seconds: 0.0123,
        };
        let responses = vec![
            Response::HelloAck,
            Response::Submitted { index: 42 },
            Response::Report {
                index: 3,
                outcome: Ok(report.clone()),
            },
            Response::Report {
                index: 4,
                outcome: Err((12, "stage 'x' was poisoned".into())),
            },
            Response::NotReady,
            Response::NoPending,
            Response::Done { count: 9 },
            Response::CancelAck,
            Response::Pong,
            Response::Bye,
            Response::Error {
                code: 100,
                message: "submit before hello".into(),
            },
            Response::LintReport {
                diagnostics: vec![],
            },
            Response::LintReport {
                diagnostics: vec![
                    WireDiagnostic {
                        code: "L001".into(),
                        severity: 2,
                        locus: "n3".into(),
                        message: "node `n3` is floating".into(),
                    },
                    WireDiagnostic {
                        code: "L030".into(),
                        severity: 0,
                        locus: String::new(),
                        message: "sparse kernel degraded to dense".into(),
                    },
                    WireDiagnostic {
                        code: "L023".into(),
                        severity: 1,
                        locus: "R7".into(),
                        message: "near-zero resistance".into(),
                    },
                ],
            },
            Response::Reports { reports: vec![] },
            Response::Reports {
                reports: vec![
                    (0, Ok(report.clone())),
                    (7, Err((12, "stage 'x' was poisoned".into()))),
                    (3, Ok(report.clone())),
                ],
            },
        ];
        for response in responses {
            let decoded = Response::decode(&response.encode()).unwrap();
            assert_eq!(decoded, response);
        }
        // Bit-identity of the floats, explicitly.
        if let Response::Report { outcome: Ok(r), .. } = Response::decode(
            &Response::Report {
                index: 0,
                outcome: Ok(report.clone()),
            }
            .encode(),
        )
        .unwrap()
        {
            assert_eq!(r.delay.to_bits(), report.delay.to_bits());
            assert_eq!(r.slew.to_bits(), report.slew.to_bits());
            assert_eq!(r.input_t50.to_bits(), report.input_t50.to_bits());
        } else {
            panic!("expected a report");
        }
    }

    #[test]
    fn malformed_payloads_are_typed_not_panics() {
        // Unknown tags.
        assert!(matches!(
            Request::decode(&[99]),
            Err(WireError::Malformed { .. })
        ));
        assert!(matches!(
            Response::decode(&[99]),
            Err(WireError::Malformed { .. })
        ));
        // Empty payloads.
        assert!(Request::decode(&[]).is_err());
        assert!(Response::decode(&[]).is_err());
        // Trailing bytes.
        let mut bytes = Request::Ping.encode();
        bytes.push(0);
        assert!(matches!(
            Request::decode(&bytes),
            Err(WireError::Malformed { what }) if what.contains("trailing")
        ));
        // Truncated submissions.
        let full = Request::Submit(Box::new(sample_stage())).encode();
        for cut in [1, 5, full.len() / 2, full.len() - 1] {
            assert!(Request::decode(&full[..cut]).is_err());
        }
        // An out-of-range severity tag is malformed, not silently accepted.
        let bad = Response::LintReport {
            diagnostics: vec![WireDiagnostic {
                code: "L001".into(),
                severity: 3,
                locus: "n".into(),
                message: "m".into(),
            }],
        }
        .encode();
        assert!(matches!(
            Response::decode(&bad),
            Err(WireError::Malformed { .. })
        ));
        // A batch whose count outruns its entries fails fast, untruncated
        // entries and all — no panic, no huge pre-allocation.
        let mut lying_count = Encoder::default();
        lying_count.u8(12);
        lying_count.u64(u64::MAX);
        lying_count.u64(4);
        assert!(Response::decode(&lying_count.finish()).is_err());
        let full = Response::Reports {
            reports: vec![(4, Err((12, "poisoned".into())))],
        }
        .encode();
        for cut in [1, 9, full.len() / 2, full.len() - 1] {
            assert!(Response::decode(&full[..cut]).is_err());
        }
    }

    #[test]
    fn dependencies_and_routing_keys() {
        let stage = sample_stage();
        assert_eq!(stage.dependencies().collect::<Vec<_>>(), vec![7, 2, 5]);
        assert!(!stage.is_independent());

        let mut independent = stage.clone();
        independent.input = WireInput::Event {
            slew: 100e-12,
            delay: Some(20e-12),
        };
        independent.after.clear();
        assert!(independent.is_independent());

        // The routing key depends on cell + load, not on label or input.
        let mut relabeled = independent.clone();
        relabeled.label = "other".into();
        assert_eq!(independent.routing_key(), relabeled.routing_key());
        let mut other_cell = independent.clone();
        other_cell.cell = WireCellRef::Characterize { size: 50.0 };
        assert_ne!(independent.routing_key(), other_cell.routing_key());
    }
}
