//! The engine front-end: a [`Handler`] that gives every client a
//! [`Session`] and carries job completions from the worker pool back to
//! the reactor core.
//!
//! Completions travel through the engine's completion hook: a worker
//! pushes the finished job id and wakes the core, and the next
//! [`Handler::tick`] routes each id to its client's session (responses
//! stay in request order). A `shutdown` op from any client starts the
//! core's graceful drain: in-flight jobs complete and their responses
//! flush before connections close.

use crate::config::NetConfig;
use crate::framing::LineEvent;
use crate::reactor::{Core, Handler};
use freqywm_service::proto::{frame_too_large_response, Session};
use freqywm_service::{Engine, JobId};
use std::collections::{HashMap, HashSet};
use std::io;
use std::net::TcpListener;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Serves the engine's JSON-lines protocol on `listener` until a
/// `shutdown` op completes its graceful drain. With `metrics_listener`
/// the same thread also answers HTTP `GET /metrics` with the engine's
/// Prometheus exposition (`freqywm serve --metrics-listen`). Installs
/// the engine's completion hook for the duration (one serving
/// front-end per engine).
///
/// The reactor itself is single-threaded and never blocks on a job:
/// total thread cost of a deployment is this thread plus the engine's
/// worker pool, independent of connection count.
pub fn serve_listener(
    engine: &Engine,
    listener: TcpListener,
    metrics_listener: Option<TcpListener>,
    config: NetConfig,
) -> io::Result<()> {
    let auth_token = config.auth_token.clone();
    let mut core = Core::new(listener, metrics_listener, config, engine.net_counters())?;
    let completed = Arc::new(Mutex::new(Vec::new()));
    let hook_completed = Arc::clone(&completed);
    let waker = core.waker();
    engine.set_completion_hook(move |id| {
        hook_completed
            .lock()
            .expect("completion list poisoned")
            .push(id);
        waker.wake();
    });
    let mut handler = EngineHandler {
        engine,
        auth_token,
        completed,
        jobs: HashMap::new(),
        orphaned: HashSet::new(),
        unmatched: Vec::new(),
    };
    let result = core.run(&mut handler);
    engine.clear_completion_hook();
    result
}

struct EngineHandler<'a> {
    engine: &'a Engine,
    auth_token: Option<String>,
    completed: Arc<Mutex<Vec<JobId>>>,
    /// In-flight job → owning client.
    jobs: HashMap<JobId, u64>,
    /// Jobs whose client died before they finished; their results are
    /// consumed and dropped on completion so the engine's result table
    /// stays flat.
    orphaned: HashSet<JobId>,
    /// Completions seen before their submit was registered (same-loop
    /// race); retried next iteration.
    unmatched: Vec<JobId>,
}

impl Handler for EngineHandler<'_> {
    type Client = Session;

    fn open(&mut self) -> Session {
        Session::with_auth(self.auth_token.clone())
    }

    fn on_frame(&mut self, core: &mut Core<'_, Session>, id: u64, frame: LineEvent) {
        let max_frame = core.config().max_frame;
        let Some(c) = core.client_mut(id) else {
            return;
        };
        match frame {
            LineEvent::Line(line) => c.state.push_line(self.engine, &line),
            LineEvent::Oversized => c
                .state
                .push_transport_error(frame_too_large_response(max_frame)),
        }
    }

    /// Records new jobs, reacts to a shutdown op, moves responses out.
    fn settle(&mut self, core: &mut Core<'_, Session>, id: u64) {
        let Some(c) = core.client_mut(id) else {
            return;
        };
        for job in c.state.take_new_jobs() {
            self.jobs.insert(job, id);
        }
        for resp in c.state.take_ready() {
            c.io.queue(&resp);
        }
        if c.state.wants_shutdown() {
            core.start_drain();
        }
    }

    fn is_settled(session: &Session) -> bool {
        session.is_settled()
    }

    fn closed(&mut self, mut session: Session) {
        for id in session.take_new_jobs() {
            self.orphaned.insert(id);
        }
        for id in session.pending_job_ids() {
            self.jobs.remove(&id);
            self.orphaned.insert(id);
        }
    }

    /// Routes job completions to their sessions.
    fn tick(&mut self, core: &mut Core<'_, Session>) {
        let done: Vec<JobId> = {
            let mut list = std::mem::take(&mut self.unmatched);
            list.append(&mut self.completed.lock().expect("completion list poisoned"));
            list
        };
        for job in done {
            match self.jobs.remove(&job) {
                Some(id) => match core.client_mut(id) {
                    Some(c) => {
                        c.state.on_job_done(self.engine, job);
                        core.touch(id);
                    }
                    None => {
                        let _ = self.engine.try_take(job);
                    }
                },
                None if self.orphaned.remove(&job) => {
                    let _ = self.engine.try_take(job);
                }
                // Completed before its submit was recorded at settle;
                // deliver next iteration.
                None => self.unmatched.push(job),
            }
        }
    }

    /// A completion that raced its own submit registration (its wake
    /// byte may already be consumed) is delivered next iteration,
    /// never blocked on.
    fn timeout(&self) -> Option<Duration> {
        (!self.unmatched.is_empty()).then_some(Duration::ZERO)
    }

    fn render_metrics(&self, _core: &Core<'_, Session>) -> String {
        self.engine.metrics().to_prom()
    }
}
