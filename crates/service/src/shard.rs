//! The shard coordinator: N worker processes behind one client-facing
//! listener.
//!
//! The coordinator speaks the same wire protocol on both sides. Toward the
//! client it impersonates a single [`crate::server::Server`]; behind the
//! scenes it routes every accepted stage to one of N worker *processes*
//! (each a plain `Server` with its own `AnalysisSession` per coordinator
//! connection), multiplexes their completion streams back into one, and
//! handles worker death by transparently resubmitting independent stages.
//! Dependent stages whose upstream waveforms died with the worker are
//! normally failed with a typed [`crate::error::code::SHARD_LOST`] outcome —
//! unless the fleet shares a stage-result store (`result_cache_dir`), in
//! which case the coordinator replants the *whole producer chain* on a
//! surviving shard: the already-finished links replay from the shared cache
//! (bit-identical, no re-simulation), regrowing the waveforms the unfinished
//! stages need.
//!
//! Routing is affinity-based: a stage that consumes another stage's output
//! (`input_from` / `input_from_sink`) **must** land on its producer's shard,
//! because the producer's waveform only exists in that worker's session.
//! Independent stages are hashed by their topology key across the live
//! shards. Ordering-only `after` edges crossing shards are handled by the
//! coordinator itself: the dependent is held back until the foreign
//! upstream reports, then the edge is dropped (success) or the dependent is
//! poisoned (failure) — exactly the semantics a single `AnalysisSession`
//! applies.
//!
//! All workers share one on-disk characterization cache directory, so a
//! cell characterized by any worker warm-starts every other.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::error::code;
use crate::protocol::{Request, Response, WireInput, WireOutcome, WireSessionOptions, WireStage};
use crate::server::Server;
use crate::wire::{read_frame, write_frame, WireError};

/// Environment variable that turns a process into a shard worker: its value
/// is the address the worker's [`Server`] binds.
pub const WORKER_LISTEN_ENV: &str = "RLC_SERVICE_WORKER_LISTEN";
/// Environment variable carrying the shared characterization cache
/// directory to a shard worker.
pub const WORKER_CACHE_ENV: &str = "RLC_SERVICE_WORKER_CACHE";
/// Environment variable carrying the shared stage-result cache directory
/// to a shard worker.
pub const WORKER_RESULT_CACHE_ENV: &str = "RLC_SERVICE_WORKER_RESULT_CACHE";
/// Line prefix a worker prints on stdout once its listener is bound.
pub const READY_PREFIX: &str = "RLC_SERVICE_WORKER_READY ";

/// Worker-mode entry point. Call this **first** in the `main` of any binary
/// that spawns a [`WorkerPool`] from its own executable (benches and
/// examples cannot reference the `rlc-serviced` binary path, so they
/// re-invoke `std::env::current_exe()` with [`WORKER_LISTEN_ENV`] set).
///
/// When the environment marks this process as a worker, this binds a
/// [`Server`], announces the bound address on stdout, and serves until the
/// parent closes the worker's stdin (or kills it). Returns `false` (without
/// side effects) in a normal process.
pub fn maybe_run_worker_from_env() -> bool {
    let Some(listen) = std::env::var_os(WORKER_LISTEN_ENV) else {
        return false;
    };
    let listen = listen.to_string_lossy().into_owned();
    let cache = std::env::var_os(WORKER_CACHE_ENV).map(PathBuf::from);
    let result_cache = std::env::var_os(WORKER_RESULT_CACHE_ENV).map(PathBuf::from);
    let server = Server::bind(&listen, cache.as_deref(), result_cache.as_deref())
        .expect("shard worker failed to bind");
    println!("{READY_PREFIX}{}", server.local_addr());
    let _ = std::io::stdout().flush();
    // The parent holds our stdin open for our whole life; EOF means the
    // parent is gone and the worker must not outlive it.
    std::thread::spawn(|| {
        let mut sink = [0u8; 256];
        let mut stdin = std::io::stdin();
        loop {
            match stdin.read(&mut sink) {
                Ok(0) | Err(_) => std::process::exit(0),
                Ok(_) => {}
            }
        }
    });
    server.serve();
    true
}

struct Worker {
    child: Option<Child>,
    addr: SocketAddr,
}

/// A fleet of shard worker processes, each running a [`Server`] on an
/// ephemeral localhost port. Dropping the pool kills every worker.
pub struct WorkerPool {
    workers: Vec<Worker>,
}

impl WorkerPool {
    /// Spawns `shards` worker processes from `exe` (any binary whose `main`
    /// starts with [`maybe_run_worker_from_env`]), all sharing `cache_dir`
    /// (characterization) and `result_cache_dir` (stage results).
    ///
    /// # Errors
    /// Spawn failures, and workers that exit before announcing an address.
    pub fn spawn(
        exe: &Path,
        shards: usize,
        cache_dir: Option<&Path>,
        result_cache_dir: Option<&Path>,
    ) -> std::io::Result<Self> {
        let mut workers = Vec::new();
        for shard in 0..shards.max(1) {
            let mut command = Command::new(exe);
            command
                .env(WORKER_LISTEN_ENV, "127.0.0.1:0")
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit());
            if let Some(dir) = cache_dir {
                command.env(WORKER_CACHE_ENV, dir);
            }
            if let Some(dir) = result_cache_dir {
                command.env(WORKER_RESULT_CACHE_ENV, dir);
            }
            let mut child = command.spawn()?;
            let stdout = child.stdout.take().expect("piped worker stdout");
            let mut lines = BufReader::new(stdout).lines();
            let addr = loop {
                match lines.next() {
                    Some(Ok(line)) => {
                        if let Some(rest) = line.strip_prefix(READY_PREFIX) {
                            break rest.trim().parse::<SocketAddr>().map_err(|e| {
                                std::io::Error::other(format!(
                                    "shard {shard} announced an unparseable address: {e}"
                                ))
                            })?;
                        }
                    }
                    _ => {
                        let _ = child.kill();
                        let _ = child.wait();
                        return Err(std::io::Error::other(format!(
                            "shard {shard} exited before announcing its address"
                        )));
                    }
                }
            };
            // Keep draining the worker's stdout so it can never block on a
            // full pipe.
            std::thread::spawn(move || for _line in lines {});
            workers.push(Worker {
                child: Some(child),
                addr,
            });
        }
        Ok(WorkerPool { workers })
    }

    /// The listen addresses of the workers, in shard order.
    pub fn addrs(&self) -> Vec<SocketAddr> {
        self.workers.iter().map(|w| w.addr).collect()
    }

    /// Kills one worker process — the failure-injection hook the
    /// shard-death tests use.
    pub fn kill(&mut self, shard: usize) {
        if let Some(mut child) = self.workers[shard].child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        for worker in &mut self.workers {
            if let Some(mut child) = worker.child.take() {
                let _ = child.kill();
                let _ = child.wait();
            }
        }
    }
}

/// The client-facing front of a worker fleet: accepts protocol connections
/// and runs one coordinator per client, which routes the client's stages to
/// the shards.
pub struct ShardServer {
    listener: TcpListener,
    pool: Arc<Mutex<WorkerPool>>,
    addrs: Vec<SocketAddr>,
    shared_result_cache: bool,
}

impl ShardServer {
    /// Spawns `shards` workers from `exe` and binds the client listener.
    /// With `result_cache_dir` set, the fleet shares one stage-result store,
    /// which also upgrades shard-death recovery: dependent chains are
    /// replanted on survivors (replaying finished links from the store)
    /// instead of being failed with `SHARD_LOST`.
    ///
    /// # Errors
    /// Bind and worker-spawn failures.
    pub fn spawn(
        listen: &str,
        shards: usize,
        cache_dir: Option<&Path>,
        result_cache_dir: Option<&Path>,
        exe: &Path,
    ) -> std::io::Result<Self> {
        let pool = WorkerPool::spawn(exe, shards, cache_dir, result_cache_dir)?;
        let addrs = pool.addrs();
        Ok(ShardServer {
            listener: TcpListener::bind(listen)?,
            pool: Arc::new(Mutex::new(pool)),
            addrs,
            shared_result_cache: result_cache_dir.is_some(),
        })
    }

    /// The client-facing address.
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr().expect("listener address")
    }

    /// A handle on the worker pool — the failure-injection hook tests use
    /// to kill shards mid-run.
    pub fn pool(&self) -> Arc<Mutex<WorkerPool>> {
        self.pool.clone()
    }

    /// Accepts clients forever, one coordinator thread per connection.
    pub fn serve(&self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let addrs = self.addrs.clone();
                    let shared = self.shared_result_cache;
                    std::thread::spawn(move || Coordinator::new(addrs, shared).run(stream));
                }
                Err(_) => continue,
            }
        }
    }

    /// Moves the accept loop onto a background thread; returns the
    /// client-facing address and the pool handle.
    pub fn serve_in_background(self) -> (SocketAddr, Arc<Mutex<WorkerPool>>) {
        let addr = self.local_addr();
        let pool = self.pool.clone();
        std::thread::spawn(move || self.serve());
        (addr, pool)
    }
}

/// One coordinator-side connection to a worker. `local_to_global` maps the
/// worker session's stage indices (per this connection) back to the
/// client's global index space.
struct ShardConn {
    stream: Option<BufReader<TcpStream>>,
    local_to_global: Vec<u64>,
}

impl ShardConn {
    fn alive(&self) -> bool {
        self.stream.is_some()
    }

    /// Strict request/response round trip; any failure kills the
    /// connection (the caller then runs shard-death recovery).
    fn roundtrip(&mut self, request: &Request) -> Result<Response, WireError> {
        let result = (|| {
            let reader = self.stream.as_mut().ok_or_else(|| WireError::Io {
                what: "shard connection already closed".into(),
            })?;
            write_frame(reader.get_mut(), &request.encode())?;
            match read_frame(reader)? {
                Some(payload) => Response::decode(&payload),
                None => Err(WireError::Truncated),
            }
        })();
        if result.is_err() {
            self.stream = None;
        }
        result
    }
}

/// What became of one placement attempt.
enum Place {
    /// Accepted by a worker; the stage is in flight.
    Submitted,
    /// A worker synchronously rejected the submission.
    Rejected(u16, String),
    /// Dependencies are not resolvable yet; retry after the next report.
    Deferred,
    /// The coordinator recorded a failure outcome itself (dead dependency
    /// chain, no live shards, cancellation).
    Poisoned,
}

/// Everything the coordinator tracks about one accepted stage.
struct StageState {
    wire: WireStage,
    shard: Option<usize>,
    local: Option<u64>,
    done: bool,
    failed: bool,
}

/// The per-client brain: owns one connection to every worker and the whole
/// global stage table for this client session.
struct Coordinator {
    addrs: Vec<SocketAddr>,
    shards: Vec<ShardConn>,
    stages: Vec<StageState>,
    deferred: Vec<u64>,
    completed: VecDeque<(u64, WireOutcome)>,
    done_count: u64,
    /// Whether every worker shares one stage-result store. When true, a
    /// dead shard's dependent chains are replanted on survivors (finished
    /// links replay from the store) instead of failing with `SHARD_LOST`.
    shared_result_cache: bool,
}

impl Coordinator {
    fn new(addrs: Vec<SocketAddr>, shared_result_cache: bool) -> Self {
        Coordinator {
            addrs,
            shards: Vec::new(),
            stages: Vec::new(),
            deferred: Vec::new(),
            completed: VecDeque::new(),
            done_count: 0,
            shared_result_cache,
        }
    }

    /// The client-facing request loop: the server's frame loop, with stage
    /// handling delegated to the worker fleet.
    fn run(mut self, stream: TcpStream) {
        crate::server::serve_frames(stream, |request| self.handle(request));
    }

    fn handle(&mut self, request: Request) -> Vec<Response> {
        match request {
            Request::Hello { options } => vec![self.hello(&options)],
            Request::Submit(wire_stage) => vec![self.submit(*wire_stage)],
            Request::NextReport => vec![self.next_report()],
            Request::PollReport => vec![self.poll_report()],
            Request::WaitAll => self.wait_all(),
            Request::Cancel => vec![self.cancel()],
            Request::Ping => vec![Response::Pong],
            Request::Close => vec![Response::Bye],
            Request::Lint(wire_stage) => vec![self.lint(*wire_stage)],
        }
    }

    /// Forwards a lint audit to the first live worker. The audit is
    /// stateless server-side (no session state, no handles), so every shard
    /// produces the same answer and no routing is needed.
    fn lint(&mut self, wire: WireStage) -> Response {
        if self.shards.is_empty() {
            return Response::Error {
                code: code::PROTOCOL,
                message: "no open session: send Hello first".into(),
            };
        }
        for s in 0..self.shards.len() {
            if !self.shards[s].alive() {
                continue;
            }
            match self.shards[s].roundtrip(&Request::Lint(Box::new(wire.clone()))) {
                Ok(response @ (Response::LintReport { .. } | Response::Error { .. })) => {
                    return response
                }
                Ok(_) | Err(_) => {
                    self.shards[s].stream = None;
                    self.shard_died(s);
                }
            }
        }
        Response::Error {
            code: code::SHARD_LOST,
            message: "no shard workers are reachable".into(),
        }
    }

    /// Opens a connection (and a worker-side session) on every shard.
    fn hello(&mut self, options: &WireSessionOptions) -> Response {
        if !self.shards.is_empty() {
            return Response::Error {
                code: code::PROTOCOL,
                message: "a session is already open on this connection".into(),
            };
        }
        for &addr in &self.addrs {
            let stream = TcpStream::connect(addr).ok().map(BufReader::new);
            let mut conn = ShardConn {
                stream,
                local_to_global: Vec::new(),
            };
            if conn.alive() {
                let _ = conn.stream.as_mut().map(|r| r.get_mut().set_nodelay(true));
                match conn.roundtrip(&Request::Hello { options: *options }) {
                    Ok(Response::HelloAck) => {}
                    _ => conn.stream = None,
                }
            }
            self.shards.push(conn);
        }
        if self.shards.iter().any(ShardConn::alive) {
            Response::HelloAck
        } else {
            Response::Error {
                code: code::SHARD_LOST,
                message: "no shard workers are reachable".into(),
            }
        }
    }

    fn submit(&mut self, wire: WireStage) -> Response {
        if self.shards.is_empty() {
            return Response::Error {
                code: code::PROTOCOL,
                message: "no open session: send Hello first".into(),
            };
        }
        let global = self.stages.len() as u64;
        for dependency in wire.dependencies() {
            if dependency >= global {
                return Response::Error {
                    code: code::INVALID_DEPENDENCY,
                    message: format!(
                        "stage '{}' references handle #{dependency}, but only {global} stages \
                         have been accepted",
                        wire.label
                    ),
                };
            }
        }
        self.stages.push(StageState {
            wire,
            shard: None,
            local: None,
            done: false,
            failed: false,
        });
        match self.try_place(global) {
            Place::Submitted | Place::Poisoned => Response::Submitted { index: global },
            Place::Deferred => {
                self.deferred.push(global);
                Response::Submitted { index: global }
            }
            Place::Rejected(code, message) => {
                // Mirror the single-server contract: a rejected submission
                // allocates no handle.
                self.stages.pop();
                Response::Error { code, message }
            }
        }
    }

    /// Tries to route stage `global` to a worker. See the module docs for
    /// the routing rules.
    fn try_place(&mut self, global: u64) -> Place {
        let g = global as usize;
        let mut target: Option<usize> = None;

        // The waveform producer pins the shard.
        if let Some(p) = self.stages[g].wire.input.producer() {
            let producer = &self.stages[p as usize];
            if producer.done && producer.failed {
                return self.poison_upstream(global, p);
            }
            match producer.shard {
                Some(s) if self.shards[s].alive() => target = Some(s),
                Some(s) => {
                    let message = format!(
                        "stage '{}' depends on '{}', whose shard {s} died",
                        self.stages[g].wire.label, self.stages[p as usize].wire.label
                    );
                    return self.poison(global, code::SHARD_LOST, message);
                }
                // The producer is itself deferred (or was poisoned without
                // ever being placed — caught above once it reports).
                None => return Place::Deferred,
            }
        }

        // Ordering edges: forward same-shard edges as local handles, drop
        // satisfied ones, and hold the stage back for foreign ones.
        let mut forward_after: Vec<u64> = Vec::new();
        for i in 0..self.stages[g].wire.after.len() {
            let a = self.stages[g].wire.after[i];
            let upstream = &self.stages[a as usize];
            if upstream.done {
                if upstream.failed {
                    return self.poison_upstream(global, a);
                }
                continue;
            }
            match upstream.shard {
                Some(s) if self.shards[s].alive() => match target {
                    None => {
                        target = Some(s);
                        forward_after.push(a);
                    }
                    Some(t) if t == s => forward_after.push(a),
                    // Cross-shard ordering: wait for the foreign upstream
                    // to report, then drop or poison the edge.
                    Some(_) => return Place::Deferred,
                },
                // The upstream's shard died: its ShardLost (or resubmitted
                // success) outcome will arrive; decide then.
                Some(_) => return Place::Deferred,
                None => return Place::Deferred,
            }
        }

        let target = match target {
            Some(t) => t,
            None => match self.hash_shard(global) {
                Some(t) => t,
                None => {
                    let message = format!(
                        "no live shard left to run stage '{}'",
                        self.stages[g].wire.label
                    );
                    return self.poison(global, code::SHARD_LOST, message);
                }
            },
        };
        self.send_submit(global, target, &forward_after)
    }

    /// Forwards stage `global` to worker `shard`, rewriting global handles
    /// into the worker session's local index space.
    fn send_submit(&mut self, global: u64, shard: usize, forward_after: &[u64]) -> Place {
        let g = global as usize;
        let mut wire = self.stages[g].wire.clone();
        match &mut wire.input {
            WireInput::FromFarEnd { producer } | WireInput::FromSink { producer, .. } => {
                *producer = self.stages[*producer as usize]
                    .local
                    .expect("producer placed on this shard");
            }
            WireInput::Event { .. } => {}
        }
        wire.after = forward_after
            .iter()
            .map(|&a| {
                self.stages[a as usize]
                    .local
                    .expect("after-dependency placed on this shard")
            })
            .collect();
        match self.shards[shard].roundtrip(&Request::Submit(Box::new(wire))) {
            Ok(Response::Submitted { index }) => {
                let conn = &mut self.shards[shard];
                debug_assert_eq!(index as usize, conn.local_to_global.len());
                conn.local_to_global.push(global);
                self.stages[g].shard = Some(shard);
                self.stages[g].local = Some(index);
                Place::Submitted
            }
            Ok(Response::Error { code, message }) => Place::Rejected(code, message),
            Ok(_) | Err(_) => {
                self.shards[shard].stream = None;
                self.shard_died(shard);
                // The dead-shard sweep left this stage unplaced; route it
                // again among the survivors.
                self.try_place(global)
            }
        }
    }

    /// The hash route for stages with no placement constraint.
    fn hash_shard(&self, global: u64) -> Option<usize> {
        let live: Vec<usize> = (0..self.shards.len())
            .filter(|&s| self.shards[s].alive())
            .collect();
        if live.is_empty() {
            return None;
        }
        let key = self.stages[global as usize].wire.routing_key();
        Some(live[(key % live.len() as u64) as usize])
    }

    fn poison(&mut self, global: u64, code: u16, message: String) -> Place {
        self.record(global, Err((code, message)));
        Place::Poisoned
    }

    fn poison_upstream(&mut self, global: u64, upstream: u64) -> Place {
        let message = format!(
            "stage '{}' depends on '{}', which failed",
            self.stages[global as usize].wire.label, self.stages[upstream as usize].wire.label
        );
        self.poison(global, code::UPSTREAM_FAILED, message)
    }

    /// Records a final outcome for stage `global` and queues it for
    /// delivery to the client.
    fn record(&mut self, global: u64, outcome: WireOutcome) {
        let state = &mut self.stages[global as usize];
        if state.done {
            return;
        }
        state.done = true;
        state.failed = outcome.is_err();
        self.done_count += 1;
        self.completed.push_back((global, outcome));
    }

    /// Drains every live worker's completion stream without blocking, then
    /// retries deferred placements against the new state.
    fn sweep(&mut self) {
        for s in 0..self.shards.len() {
            if !self.shards[s].alive() {
                continue;
            }
            loop {
                match self.shards[s].roundtrip(&Request::PollReport) {
                    Ok(Response::Report { index, outcome }) => {
                        let global = self.shards[s].local_to_global[index as usize];
                        self.record(global, outcome);
                    }
                    Ok(Response::NotReady) | Ok(Response::NoPending) => break,
                    Ok(_) | Err(_) => {
                        self.shards[s].stream = None;
                        self.shard_died(s);
                        break;
                    }
                }
            }
        }
        self.pump_deferred();
    }

    /// Shard-death recovery: every unfinished stage that worker owned is
    /// either resubmitted (independent stages — their inputs are fully
    /// described on the wire), replanted together with its producer chain
    /// on a survivor (dependent stages, when the fleet shares a
    /// stage-result store), or failed with a typed `SHARD_LOST` outcome
    /// (dependent stages without a shared store — their upstream waveforms
    /// died with the session).
    fn shard_died(&mut self, shard: usize) {
        let owned = self.shards[shard].local_to_global.clone();
        for global in owned {
            let state = &mut self.stages[global as usize];
            if state.done || state.shard != Some(shard) {
                continue;
            }
            state.shard = None;
            state.local = None;
            if state.wire.is_independent() {
                self.deferred.push(global);
            } else if self.shared_result_cache {
                self.requeue_chain(global, shard);
            } else {
                let message = format!(
                    "shard {shard} died while running dependent stage '{}'",
                    state.wire.label
                );
                self.record(global, Err((code::SHARD_LOST, message)));
            }
        }
    }

    /// Replants dependent stage `leaf` (whose shard just died) and its whole
    /// waveform-producer chain on a surviving shard. The routing rules pin a
    /// chain to one shard, so the entire chain died together; with every
    /// worker sharing one stage-result store, resubmitting the finished
    /// links costs a cache replay each (bit-identical, no backend) and
    /// regrows the waveforms the unfinished links need. Duplicate reports
    /// from replayed links are dropped by `record`'s idempotence.
    fn requeue_chain(&mut self, leaf: u64, dead: usize) {
        // The producer chain, leaf first.
        let mut chain = vec![leaf];
        let mut cursor = leaf;
        while let Some(p) = self.stages[cursor as usize].wire.input.producer() {
            chain.push(p);
            cursor = p;
        }
        // Replant root-first so each link finds its producer live again.
        for &member in chain.iter().rev() {
            let state = &self.stages[member as usize];
            // Links already replanted (several leaves share their upstream
            // chain, and the root may sit in the independent-requeue set)
            // keep their new home.
            if let Some(s) = state.shard {
                if self.shards[s].alive() {
                    continue;
                }
            }
            if member != leaf && state.wire.is_independent() && !state.done {
                // `shard_died` already queued (or will queue) the root
                // through the normal independent path; the links above it
                // defer until it lands.
                continue;
            }
            let was_done = state.done;
            if was_done && state.failed {
                let _ = self.poison_upstream(leaf, member);
                return;
            }
            self.stages[member as usize].shard = None;
            self.stages[member as usize].local = None;
            match self.try_place(member) {
                Place::Submitted => {}
                Place::Deferred if !was_done => self.deferred.push(member),
                Place::Rejected(code, message) if !was_done => {
                    self.record(member, Err((code, message)));
                }
                Place::Poisoned if !was_done => {}
                // A finished link that cannot be replanted (no live shard,
                // or a worker rejected it): `record` no-ops on done stages,
                // so the loss lands on the stage that still needed it.
                _ => {
                    let message = format!(
                        "shard {dead} died and no survivor could replay '{}' for dependent \
                         stage '{}'",
                        self.stages[member as usize].wire.label,
                        self.stages[leaf as usize].wire.label
                    );
                    self.record(leaf, Err((code::SHARD_LOST, message)));
                    return;
                }
            }
        }
    }

    /// Replays deferred placements until a fixpoint.
    fn pump_deferred(&mut self) {
        loop {
            let mut progressed = false;
            let pending = std::mem::take(&mut self.deferred);
            for global in pending {
                if self.stages[global as usize].done {
                    progressed = true;
                    continue;
                }
                match self.try_place(global) {
                    Place::Submitted | Place::Poisoned => progressed = true,
                    Place::Rejected(code, message) => {
                        // The handle already exists client-side; a deferred
                        // rejection surfaces as a failure outcome instead.
                        self.record(global, Err((code, message)));
                        progressed = true;
                    }
                    Place::Deferred => self.deferred.push(global),
                }
            }
            if !progressed || self.deferred.is_empty() {
                return;
            }
        }
    }

    fn all_done(&self) -> bool {
        self.done_count as usize == self.stages.len()
    }

    /// Blocking next-completion, multiplexed across every worker.
    fn next_report(&mut self) -> Response {
        loop {
            if let Some((index, outcome)) = self.completed.pop_front() {
                return Response::Report { index, outcome };
            }
            if self.all_done() {
                return Response::NoPending;
            }
            self.sweep();
            if self.completed.is_empty() && !self.all_done() {
                std::thread::sleep(Duration::from_micros(300));
            }
        }
    }

    fn poll_report(&mut self) -> Response {
        if let Some((index, outcome)) = self.completed.pop_front() {
            return Response::Report { index, outcome };
        }
        if self.all_done() {
            return Response::NoPending;
        }
        self.sweep();
        match self.completed.pop_front() {
            Some((index, outcome)) => Response::Report { index, outcome },
            None if self.all_done() => Response::NoPending,
            None => Response::NotReady,
        }
    }

    fn wait_all(&mut self) -> Vec<Response> {
        while !self.all_done() {
            self.sweep();
            if !self.all_done() && self.completed.is_empty() {
                std::thread::sleep(Duration::from_micros(300));
            }
        }
        // One bulk frame for the whole drain, mirroring the single-server
        // front: a wide session costs one frame + one Done.
        let reports: Vec<(u64, WireOutcome)> = self.completed.drain(..).collect();
        let count = reports.len() as u64;
        vec![Response::Reports { reports }, Response::Done { count }]
    }

    fn cancel(&mut self) -> Response {
        for s in 0..self.shards.len() {
            if !self.shards[s].alive() {
                continue;
            }
            match self.shards[s].roundtrip(&Request::Cancel) {
                Ok(Response::CancelAck) => {}
                Ok(_) | Err(_) => {
                    self.shards[s].stream = None;
                    self.shard_died(s);
                }
            }
        }
        // Stages the coordinator was still holding back can never run now.
        let pending = std::mem::take(&mut self.deferred);
        for global in pending {
            if !self.stages[global as usize].done {
                let message = format!(
                    "session cancelled before deferred stage '{}' could be placed",
                    self.stages[global as usize].wire.label
                );
                self.record(global, Err((code::CANCELLED, message)));
            }
        }
        Response::CancelAck
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_env_is_inert_in_normal_processes() {
        // The test process has no worker environment, so this must be a
        // cheap no-op returning false.
        assert!(!maybe_run_worker_from_env());
    }

    #[test]
    fn ready_line_round_trips_an_address() {
        let line = format!("{READY_PREFIX}127.0.0.1:4525");
        let rest = line.strip_prefix(READY_PREFIX).unwrap();
        assert_eq!(
            rest.parse::<SocketAddr>().unwrap(),
            "127.0.0.1:4525".parse::<SocketAddr>().unwrap()
        );
    }
}
