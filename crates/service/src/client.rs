//! The client library: a [`ServiceClient`] that mirrors the in-process
//! `AnalysisSession` workflow over a service connection.
//!
//! The API intentionally shadows the facade's `StageBuilder` / `StageHandle`
//! shape, so porting an in-process analysis to remote mode is a handful of
//! renames:
//!
//! ```text
//! engine.session()                  ->  ServiceClient::connect(addr)?
//! Stage::builder(cell, load)        ->  RemoteStage::builder(cell, load)
//! session.submit(stage.build()?)?   ->  client.submit(stage.build())?
//! session.next_report()             ->  client.next_report()?
//! session.wait_all()                ->  client.wait_all()?
//! ```
//!
//! Loads are described by topology ([`RemoteLoad`]) rather than by trait
//! object — the server rebuilds the same facade load models on its side, so
//! a remote analysis is bit-identical to the in-process one.

use std::collections::BTreeMap;
use std::io::BufReader;
use std::net::{TcpStream, ToSocketAddrs};

use rlc_ceff_suite::interconnect::{CoupledBus, RlcLine, RlcTree};
use rlc_ceff_suite::{AggressorSpec, AggressorSwitching, SessionOptions};

use crate::error::ServiceError;
use crate::protocol::{
    Request, Response, WireAggressor, WireBackend, WireBranch, WireCellRef, WireDiagnostic,
    WireInput, WireLine, WireLoad, WireReport, WireSessionOptions, WireStage,
};
use crate::server::wire_options;
use crate::wire::{read_frame, write_frame};

/// The scalar results of one remotely analyzed stage (the wire form of the
/// facade's `StageReport`).
pub type RemoteReport = WireReport;

/// One static-audit finding from a remote lint pass (the wire form of the
/// facade's `Diagnostic`).
pub type RemoteDiagnostic = WireDiagnostic;

/// A handle on a remotely submitted stage. Indices count accepted
/// submissions on this connection, exactly like `StageHandle::index()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RemoteHandle {
    index: u64,
}

impl RemoteHandle {
    /// The submission index of this stage.
    pub fn index(&self) -> u64 {
        self.index
    }
}

/// The driver cell of a remote stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RemoteCell {
    wire: WireCellRef,
}

impl RemoteCell {
    /// A cell the server characterizes (or loads from its shared cache) at
    /// the given drive size.
    pub fn characterized(size: f64) -> RemoteCell {
        RemoteCell {
            wire: WireCellRef::Characterize { size },
        }
    }

    /// A synthetic, characterization-free cell — deterministic and cheap,
    /// built from the same closed-form tables the test fixtures use.
    pub fn synthetic(size: f64, on_resistance: f64) -> RemoteCell {
        RemoteCell {
            wire: WireCellRef::Synthetic {
                size,
                on_resistance,
            },
        }
    }
}

/// The load topology of a remote stage, mirroring the facade load models.
#[derive(Debug, Clone, PartialEq)]
pub struct RemoteLoad {
    wire: WireLoad,
}

fn wire_line(line: &RlcLine) -> WireLine {
    WireLine {
        resistance: line.resistance(),
        inductance: line.inductance(),
        capacitance: line.capacitance(),
        length: line.length(),
    }
}

fn wire_aggressor(spec: &AggressorSpec) -> WireAggressor {
    WireAggressor {
        switching: match spec.switching {
            AggressorSwitching::Quiet => 0,
            AggressorSwitching::SameDirection => 1,
            AggressorSwitching::OppositeDirection => 2,
        },
        slew: spec.slew,
        delay: spec.delay,
        amplitude: spec.amplitude,
    }
}

impl RemoteLoad {
    /// A lumped capacitor (`LumpedCapLoad`).
    pub fn lumped(c: f64) -> RemoteLoad {
        RemoteLoad {
            wire: WireLoad::Lumped { c },
        }
    }

    /// A reduced-order pi load (`PiModelLoad`).
    pub fn pi(c_near: f64, resistance: f64, c_far: f64) -> RemoteLoad {
        RemoteLoad {
            wire: WireLoad::Pi {
                c_near,
                resistance,
                c_far,
            },
        }
    }

    /// A distributed RLC line with a far-end capacitor
    /// (`DistributedRlcLoad`).
    pub fn line(line: &RlcLine, c_load: f64) -> RemoteLoad {
        RemoteLoad {
            wire: WireLoad::Line {
                line: wire_line(line),
                c_load,
            },
        }
    }

    /// An RLC routing tree (`RlcTreeLoad`), carried branch by branch.
    /// Parents always precede children in an `RlcTree`, so the wire form
    /// reconstructs identically.
    pub fn from_tree(tree: &RlcTree) -> RemoteLoad {
        let branches = tree
            .branches()
            .map(|(_, branch)| WireBranch {
                parent: branch.parent().map(|p| p.index() as u64),
                line: wire_line(branch.line()),
                sink: branch.sink().map(|sink| (sink.name.clone(), sink.c_load)),
            })
            .collect();
        RemoteLoad {
            wire: WireLoad::Tree { branches },
        }
    }

    /// A capacitively and inductively coupled two-line bus
    /// (`CoupledBusLoad`) with the given aggressor drive.
    pub fn bus(bus: &CoupledBus, aggressor: AggressorSpec) -> RemoteLoad {
        RemoteLoad {
            wire: WireLoad::Bus {
                victim: wire_line(bus.victim()),
                aggressor: wire_line(bus.aggressor()),
                coupling_capacitance: bus.coupling_capacitance(),
                mutual_inductance: bus.mutual_inductance(),
                victim_load: bus.victim_load(),
                aggressor_load: bus.aggressor_load(),
                drive: wire_aggressor(&aggressor),
            },
        }
    }
}

/// A fully described remote stage, ready to submit.
#[derive(Debug, Clone, PartialEq)]
pub struct RemoteStage {
    pub(crate) wire: WireStage,
}

impl RemoteStage {
    /// The raw wire message this stage submits — for tests and tools that
    /// speak the protocol directly.
    pub fn into_wire(self) -> WireStage {
        self.wire
    }

    /// Starts describing a stage, mirroring `Stage::builder`.
    pub fn builder(cell: RemoteCell, load: RemoteLoad) -> RemoteStageBuilder {
        RemoteStageBuilder {
            wire: WireStage {
                label: String::new(),
                cell: cell.wire,
                load: load.wire,
                input: WireInput::Event {
                    slew: 0.0,
                    delay: None,
                },
                after: Vec::new(),
                backend: WireBackend::Default,
            },
        }
    }
}

/// The remote mirror of the facade's `StageBuilder`. Validation happens
/// server-side at submit time, so `build` is infallible here.
#[derive(Debug, Clone)]
pub struct RemoteStageBuilder {
    wire: WireStage,
}

impl RemoteStageBuilder {
    /// Names the stage (used in error messages and reports).
    pub fn label(mut self, label: impl Into<String>) -> Self {
        self.wire.label = label.into();
        self
    }

    /// Drives the stage with an ideal ramp of the given transition time.
    pub fn input_slew(mut self, slew: f64) -> Self {
        let delay = match self.wire.input {
            WireInput::Event { delay, .. } => delay,
            _ => None,
        };
        self.wire.input = WireInput::Event { slew, delay };
        self
    }

    /// Absolute start time of the input ramp (seconds).
    pub fn input_delay(mut self, delay: f64) -> Self {
        let slew = match self.wire.input {
            WireInput::Event { slew, .. } => slew,
            _ => 0.0,
        };
        self.wire.input = WireInput::Event {
            slew,
            delay: Some(delay),
        };
        self
    }

    /// Chains this stage's input to the producer's far-end waveform.
    pub fn input_from(mut self, producer: RemoteHandle) -> Self {
        self.wire.input = WireInput::FromFarEnd {
            producer: producer.index,
        };
        self
    }

    /// Chains this stage's input to a named sink of the producer's load.
    pub fn input_from_sink(mut self, producer: RemoteHandle, sink: impl Into<String>) -> Self {
        self.wire.input = WireInput::FromSink {
            producer: producer.index,
            sink: sink.into(),
        };
        self
    }

    /// Adds an ordering-only dependency.
    pub fn after(mut self, upstream: RemoteHandle) -> Self {
        self.wire.after.push(upstream.index);
        self
    }

    /// Forces the analytic backend.
    pub fn analytic(mut self) -> Self {
        self.wire.backend = WireBackend::Analytic;
        self
    }

    /// Forces the golden transient-simulation backend.
    pub fn spice(mut self) -> Self {
        self.wire.backend = WireBackend::Spice;
        self
    }

    /// Finishes the description. The server validates on submit.
    pub fn build(self) -> RemoteStage {
        RemoteStage { wire: self.wire }
    }
}

/// A connection to a timing service — either a single [`crate::Server`] or
/// the client-facing side of a [`crate::ShardServer`] fleet; the protocol
/// is identical.
pub struct ServiceClient {
    reader: BufReader<TcpStream>,
    submitted: u64,
    collected: BTreeMap<u64, Result<RemoteReport, ServiceError>>,
}

impl ServiceClient {
    /// Connects with default session options.
    ///
    /// # Errors
    /// Transport failures and typed server rejections.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<ServiceClient, ServiceError> {
        ServiceClient::connect_wire(addr, WireSessionOptions::defaults())
    }

    /// Connects with explicit session options. The deadline is carried as
    /// nanoseconds and starts ticking when the server opens the session;
    /// far-end fidelity options are not carried (the server default
    /// applies).
    ///
    /// # Errors
    /// Transport failures and typed server rejections.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        options: &SessionOptions,
    ) -> Result<ServiceClient, ServiceError> {
        ServiceClient::connect_wire(addr, wire_options(options))
    }

    fn connect_wire(
        addr: impl ToSocketAddrs,
        options: WireSessionOptions,
    ) -> Result<ServiceClient, ServiceError> {
        let stream = TcpStream::connect(addr).map_err(crate::wire::WireError::from)?;
        let _ = stream.set_nodelay(true);
        let mut client = ServiceClient {
            reader: BufReader::new(stream),
            submitted: 0,
            collected: BTreeMap::new(),
        };
        match client.roundtrip(&Request::Hello { options })? {
            Response::HelloAck => Ok(client),
            other => Err(unexpected(other)),
        }
    }

    fn roundtrip(&mut self, request: &Request) -> Result<Response, ServiceError> {
        write_frame(self.reader.get_mut(), &request.encode())?;
        match read_frame(&mut self.reader)? {
            Some(payload) => Ok(Response::decode(&payload)?),
            None => Err(ServiceError::Wire(crate::wire::WireError::Truncated)),
        }
    }

    /// Submits a stage for analysis.
    ///
    /// # Errors
    /// Typed rejections (invalid stage, unknown sink, dependency cycle, …)
    /// carry their stable response code; no handle is allocated for them.
    pub fn submit(&mut self, stage: RemoteStage) -> Result<RemoteHandle, ServiceError> {
        match self.roundtrip(&Request::Submit(Box::new(stage.wire)))? {
            Response::Submitted { index } => {
                debug_assert_eq!(index, self.submitted);
                self.submitted = index + 1;
                Ok(RemoteHandle { index })
            }
            Response::Error { code, message } => Err(ServiceError::remote(code, message)),
            other => Err(unexpected(other)),
        }
    }

    /// Blocks for the next completed stage, in completion order. Returns
    /// `Ok(None)` once every submitted stage has been reported.
    ///
    /// # Errors
    /// Transport failures; per-stage failures arrive as the `Err` arm of
    /// the per-stage result, not as a transport error.
    #[allow(clippy::type_complexity)]
    pub fn next_report(
        &mut self,
    ) -> Result<Option<(RemoteHandle, Result<RemoteReport, ServiceError>)>, ServiceError> {
        match self.roundtrip(&Request::NextReport)? {
            Response::Report { index, outcome } => {
                let outcome =
                    outcome.map_err(|(code, message)| ServiceError::remote(code, message));
                self.collected.insert(index, outcome.clone());
                Ok(Some((RemoteHandle { index }, outcome)))
            }
            Response::NoPending => Ok(None),
            Response::Error { code, message } => Err(ServiceError::remote(code, message)),
            other => Err(unexpected(other)),
        }
    }

    /// Waits for every outstanding stage and returns all per-stage results
    /// in submission order (index 0 first) — the remote analogue of
    /// `AnalysisSession::wait_all`.
    ///
    /// # Errors
    /// Transport failures only; per-stage failures are the `Err` arms of
    /// the returned vector.
    #[allow(clippy::type_complexity)]
    pub fn wait_all(&mut self) -> Result<Vec<Result<RemoteReport, ServiceError>>, ServiceError> {
        write_frame(self.reader.get_mut(), &Request::WaitAll.encode())?;
        loop {
            let payload = match read_frame(&mut self.reader)? {
                Some(payload) => payload,
                None => return Err(ServiceError::Wire(crate::wire::WireError::Truncated)),
            };
            match Response::decode(&payload)? {
                // The server and the shard coordinator both answer with one
                // `Reports` frame for the whole drain, then `Done`.
                Response::Reports { reports } => {
                    for (index, outcome) in reports {
                        self.collected.insert(
                            index,
                            outcome.map_err(|(code, message)| ServiceError::remote(code, message)),
                        );
                    }
                }
                Response::Done { .. } => break,
                Response::Error { code, message } => {
                    return Err(ServiceError::remote(code, message))
                }
                other => return Err(unexpected(other)),
            }
        }
        let mut results = Vec::with_capacity(self.submitted as usize);
        for index in 0..self.submitted {
            results.push(self.collected.get(&index).cloned().ok_or_else(|| {
                ServiceError::Unexpected {
                    what: format!("stage #{index} was never reported"),
                }
            })?);
        }
        Ok(results)
    }

    /// The result of an already-reported stage, if any.
    pub fn report_for(&self, handle: RemoteHandle) -> Option<&Result<RemoteReport, ServiceError>> {
        self.collected.get(&handle.index)
    }

    /// Runs the server's static circuit audit over a stage description
    /// **without** submitting it for analysis — the remote analogue of the
    /// facade's `TimingEngine::lint`. Nothing is simulated, no submission
    /// index is consumed, and the findings are bit-identical to the
    /// in-process audit of the same stage.
    ///
    /// # Errors
    /// Typed rejections (a stage description the server cannot rebuild)
    /// and transport failures.
    pub fn lint(&mut self, stage: RemoteStage) -> Result<Vec<RemoteDiagnostic>, ServiceError> {
        match self.roundtrip(&Request::Lint(Box::new(stage.wire)))? {
            Response::LintReport { diagnostics } => Ok(diagnostics),
            Response::Error { code, message } => Err(ServiceError::remote(code, message)),
            other => Err(unexpected(other)),
        }
    }

    /// Cancels everything not yet running server-side.
    ///
    /// # Errors
    /// Transport failures.
    pub fn cancel(&mut self) -> Result<(), ServiceError> {
        match self.roundtrip(&Request::Cancel)? {
            Response::CancelAck => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    /// A liveness round trip.
    ///
    /// # Errors
    /// Transport failures.
    pub fn ping(&mut self) -> Result<(), ServiceError> {
        match self.roundtrip(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    /// Ends the conversation cleanly.
    ///
    /// # Errors
    /// Transport failures.
    pub fn close(mut self) -> Result<(), ServiceError> {
        match self.roundtrip(&Request::Close)? {
            Response::Bye => Ok(()),
            other => Err(unexpected(other)),
        }
    }
}

fn unexpected(response: Response) -> ServiceError {
    ServiceError::Unexpected {
        what: format!("{response:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn remote_loads_mirror_the_facade_topologies() {
        let line = RlcLine::new(14.5e3, 1.028e-6, 2.2e-10, 5e-3);
        let RemoteLoad {
            wire: WireLoad::Line { line: w, c_load },
        } = RemoteLoad::line(&line, 10e-15)
        else {
            panic!("expected a line load");
        };
        assert_eq!(w.resistance, line.resistance());
        assert_eq!(w.length, line.length());
        assert_eq!(c_load, 10e-15);

        let mut tree = RlcTree::new();
        let trunk = tree.add_branch(None, line);
        let branch = tree.add_branch(Some(trunk), line);
        tree.set_sink(branch, "rx", 15e-15);
        let RemoteLoad {
            wire: WireLoad::Tree { branches },
        } = RemoteLoad::from_tree(&tree)
        else {
            panic!("expected a tree load");
        };
        assert_eq!(branches.len(), 2);
        assert_eq!(branches[0].parent, None);
        assert_eq!(branches[1].parent, Some(0));
        assert_eq!(branches[1].sink, Some(("rx".into(), 15e-15)));

        let bus = CoupledBus::symmetric(line, 6.6e-11, 2.056e-7, 10e-15);
        let spec = AggressorSpec::new(AggressorSwitching::OppositeDirection, 100e-12, 50e-12, 1.8)
            .unwrap();
        let RemoteLoad {
            wire:
                WireLoad::Bus {
                    coupling_capacitance,
                    drive,
                    ..
                },
        } = RemoteLoad::bus(&bus, spec)
        else {
            panic!("expected a bus load");
        };
        assert_eq!(coupling_capacitance, 6.6e-11);
        assert_eq!(drive.switching, 2);
    }

    #[test]
    fn builder_mirrors_the_stage_builder_shape() {
        let producer = RemoteHandle { index: 3 };
        let stage =
            RemoteStage::builder(RemoteCell::synthetic(75.0, 70.0), RemoteLoad::lumped(1e-13))
                .label("capture")
                .input_from_sink(producer, "rx_far")
                .after(RemoteHandle { index: 1 })
                .analytic()
                .build();
        assert_eq!(stage.wire.label, "capture");
        assert_eq!(
            stage.wire.input,
            WireInput::FromSink {
                producer: 3,
                sink: "rx_far".into()
            }
        );
        assert_eq!(stage.wire.after, vec![1]);
        assert_eq!(stage.wire.backend, WireBackend::Analytic);
        // Delay and slew compose regardless of call order.
        let stage =
            RemoteStage::builder(RemoteCell::characterized(50.0), RemoteLoad::lumped(1e-13))
                .input_delay(20e-12)
                .input_slew(80e-12)
                .build();
        assert_eq!(
            stage.wire.input,
            WireInput::Event {
                slew: 80e-12,
                delay: Some(20e-12)
            }
        );
    }
}
