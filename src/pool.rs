//! [`WorkerPool`]: the threads a [`crate::TimingEngine`] lends its sessions.
//!
//! An [`crate::AnalysisSession`] runs each of its worker loops as one job on
//! the pool of the engine that opened it; the engine and its clones share
//! the pool, which starts with no threads. A job goes to an idle thread, or
//! to a new thread when none is idle, so sessions running at the same time
//! (the service's connections) and a session opened inside another
//! session's backend never wait for each other. A thread that finishes a job
//! parks as idle and keeps its thread-local simulation workspace; idle
//! threads beyond [`crate::EngineConfig::base_threads`] exit instead, so a
//! burst of concurrent sessions leaves no extra threads behind. When the
//! last engine clone drops, the pool joins the threads it still has.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{JoinHandle, ThreadId};

/// Locks `mutex`, ignoring poison: every critical section below leaves its
/// state consistent, and a panicking job never holds one of these locks.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The threads of one engine ([`crate::TimingEngine`] holds it behind an
/// `Arc`).
pub(crate) struct WorkerPool {
    shared: Arc<PoolShared>,
}

/// The pool state its threads hold on to.
struct PoolShared {
    state: Mutex<PoolState>,
    /// Most threads that stay parked once their job is done.
    max_idle: usize,
}

struct PoolState {
    /// Parked threads, the most recently parked last.
    idle: Vec<Arc<Mailbox>>,
    /// The handles of the threads that may still run a job.
    threads: Vec<(ThreadId, JoinHandle<()>)>,
    /// The handles of surplus threads that exited on their own, joined when
    /// the pool next spawns a thread or drops.
    exited: Vec<JoinHandle<()>>,
    /// Set when the pool drops: no thread parks any more.
    closed: bool,
}

/// A job and its completion signal.
struct Task {
    job: Box<dyn FnOnce() + Send>,
    done: Done,
}

/// Where a parked thread waits for its next task.
#[derive(Default)]
struct Mailbox {
    mail: Mutex<Mail>,
    ready: Condvar,
}

#[derive(Default)]
enum Mail {
    #[default]
    Empty,
    Task(Task),
    /// The pool dropped: exit.
    Close,
}

impl Mailbox {
    fn deliver(&self, mail: Mail) {
        *lock(&self.mail) = mail;
        self.ready.notify_one();
    }

    /// Blocks until a task or the close arrives.
    fn receive(&self) -> Option<Task> {
        let mut mail = lock(&self.mail);
        loop {
            match std::mem::take(&mut *mail) {
                Mail::Empty => {
                    mail = self
                        .ready
                        .wait(mail)
                        .unwrap_or_else(PoisonError::into_inner)
                }
                Mail::Task(task) => return Some(task),
                Mail::Close => return None,
            }
        }
    }
}

#[derive(Default)]
struct Signal {
    fired: Mutex<bool>,
    wake: Condvar,
}

/// Fires a job's completion signal when dropped, so it fires even if the
/// job or the thread running it panics.
struct Done(Arc<Signal>);

impl Drop for Done {
    fn drop(&mut self) {
        *lock(&self.0.fired) = true;
        self.0.wake.notify_all();
    }
}

/// The completion signal of one job handed to [`WorkerPool::execute`].
pub(crate) struct JobHandle(Arc<Signal>);

impl JobHandle {
    /// Blocks until the job has returned (or panicked) and its closure has
    /// been dropped.
    pub(crate) fn wait(self) {
        let mut fired = lock(&self.0.fired);
        while !*fired {
            fired = self
                .0
                .wake
                .wait(fired)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

impl WorkerPool {
    /// An empty pool whose idle threads beyond `max_idle` exit.
    pub(crate) fn new(max_idle: usize) -> WorkerPool {
        WorkerPool {
            shared: Arc::new(PoolShared {
                state: Mutex::new(PoolState {
                    idle: Vec::new(),
                    threads: Vec::new(),
                    exited: Vec::new(),
                    closed: false,
                }),
                max_idle,
            }),
        }
    }

    /// Runs `job` on the most recently parked idle thread, or on a new
    /// thread when none is idle. A panic in `job` is contained: the thread
    /// survives it and the returned signal still fires.
    ///
    /// # Panics
    /// Panics if the operating system refuses a new thread.
    pub(crate) fn execute(&self, job: impl FnOnce() + Send + 'static) -> JobHandle {
        let signal = Arc::new(Signal::default());
        let task = Task {
            job: Box::new(job),
            done: Done(signal.clone()),
        };
        let mut state = lock(&self.shared.state);
        if let Some(mailbox) = state.idle.pop() {
            drop(state);
            mailbox.deliver(Mail::Task(task));
        } else {
            // Spawned under the lock, so the handle is registered before
            // the thread can look for it when it exits.
            let shared = self.shared.clone();
            let handle = std::thread::Builder::new()
                .name("rlc-session-worker".to_string())
                .spawn(move || run_thread(&shared, task))
                .expect("the operating system refused a session worker thread");
            state.threads.push((handle.thread().id(), handle));
            let exited = std::mem::take(&mut state.exited);
            drop(state);
            join_all(exited);
        }
        JobHandle(signal)
    }

    /// Number of threads that may still run a job, and of parked threads.
    fn counts(&self) -> (usize, usize) {
        let state = lock(&self.shared.state);
        (state.threads.len(), state.idle.len())
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (threads, idle) = self.counts();
        f.debug_struct("WorkerPool")
            .field("threads", &threads)
            .field("idle", &idle)
            .field("max_idle", &self.shared.max_idle)
            .finish()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        let (idle, threads, exited) = {
            let mut state = lock(&self.shared.state);
            state.closed = true;
            (
                std::mem::take(&mut state.idle),
                std::mem::take(&mut state.threads),
                std::mem::take(&mut state.exited),
            )
        };
        for mailbox in idle {
            mailbox.deliver(Mail::Close);
        }
        // Jobs drop their closures before they signal, so the last engine
        // is never dropped on a pool thread; the filter only keeps a thread
        // from joining itself if that ever changes.
        let me = std::thread::current().id();
        join_all(
            threads
                .into_iter()
                .filter(|(id, _)| *id != me)
                .map(|(_, handle)| handle)
                .chain(exited),
        );
    }
}

/// Joins pool threads. They run every job under `catch_unwind`, so none
/// returns a panic to report.
fn join_all(handles: impl IntoIterator<Item = JoinHandle<()>>) {
    for handle in handles {
        let _ = handle.join();
    }
}

/// The body of a pool thread: runs its first task, then parks for more
/// until it is surplus or the pool closes.
fn run_thread(shared: &PoolShared, first: Task) {
    let mailbox = Arc::new(Mailbox::default());
    let mut task = first;
    loop {
        let Task { job, done } = task;
        // Calling the boxed closure consumes it: its captures (a session's
        // state, and through it an engine) are dropped before `done` fires.
        let _ = catch_unwind(AssertUnwindSafe(job));
        // Park before signalling, so whoever waited on this job finds the
        // thread idle.
        let parked = shared.park(&mailbox);
        drop(done);
        if !parked {
            return;
        }
        match mailbox.receive() {
            Some(next) => task = next,
            None => return,
        }
    }
}

impl PoolShared {
    /// Parks the calling thread as idle, or returns `false` so it exits when
    /// the pool already has `max_idle` parked threads or has closed. An
    /// exiting surplus thread leaves its handle to be joined.
    fn park(&self, mailbox: &Arc<Mailbox>) -> bool {
        let mut state = lock(&self.state);
        if !state.closed && state.idle.len() < self.max_idle {
            state.idle.push(mailbox.clone());
            return true;
        }
        let me = std::thread::current().id();
        if let Some(i) = state.threads.iter().position(|(id, _)| *id == me) {
            let (_, handle) = state.threads.swap_remove(i);
            state.exited.push(handle);
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;
    use std::sync::Barrier;

    #[test]
    fn a_panicking_job_still_signals_and_its_thread_runs_the_next_job() {
        let pool = WorkerPool::new(1);
        let (tx, rx) = channel();
        let first = {
            let tx = tx.clone();
            pool.execute(move || {
                tx.send(std::thread::current().id()).unwrap();
                panic!("deliberate worker-pool test panic");
            })
        };
        first.wait();
        let second = pool.execute(move || tx.send(std::thread::current().id()).unwrap());
        second.wait();
        let (panicked_on, next_on) = (rx.recv().unwrap(), rx.recv().unwrap());
        assert_eq!(panicked_on, next_on, "the panic must not cost the thread");
        assert_eq!(pool.counts(), (1, 1));
    }

    #[test]
    fn idle_threads_beyond_the_cap_exit() {
        let pool = WorkerPool::new(1);
        // Three jobs that can only finish together need three threads.
        let barrier = Arc::new(Barrier::new(3));
        let jobs: Vec<JobHandle> = (0..3)
            .map(|_| {
                let barrier = barrier.clone();
                pool.execute(move || {
                    barrier.wait();
                })
            })
            .collect();
        for job in jobs {
            job.wait();
        }
        assert_eq!(pool.counts(), (1, 1), "two of three threads exit");
    }

    #[test]
    fn a_job_is_dropped_before_its_signal_fires() {
        let pool = WorkerPool::new(2);
        let token = Arc::new(());
        let held = token.clone();
        pool.execute(move || assert!(Arc::strong_count(&held) >= 2))
            .wait();
        assert_eq!(Arc::strong_count(&token), 1);
    }
}
