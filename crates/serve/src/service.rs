//! The service core behind both transports: admission, the worker pool,
//! deadlines, outcome counters, the stats sections both servers share,
//! the accept loop, and the drain.
//!
//! A transport frames bytes into request bodies and hands them to
//! [`Service::submit`] with a [`Reply`] that delivers each answer — the
//! daemon's writes the response line on the worker, the gateway's hands
//! it back to the connection thread.
//!
//! The JSONL daemon is the one-shard case of the gateway's
//! `shards × workers`. A job carries one or more items that run
//! back-to-back on one worker — a `/v1/batch` group amortizes its cache
//! lookups that way.
//!
//! * **Backpressure** — admission never blocks: a full queue answers
//!   `rejected` at once, so clients always learn their fate.
//! * **Panic-proofing** — items run under [`engine::execute`]'s
//!   `catch_unwind`; a poison request answers `internal` and the worker
//!   serves the next job.
//! * **Deadlines** — `deadline_ms` is measured from admission (see
//!   [`crate::protocol`]): an explicit `0` is a `bad_request`, work still
//!   queued at its deadline is cancelled, and a solve that finishes after
//!   it answers `expired` rather than a stale success.
//! * **Drain** — [`Service::drain`] closes every queue: admitted work
//!   finishes, new work is rejected. [`Service::accept`] then shuts the
//!   read half of every open connection, so idle clients see EOF instead
//!   of holding the drain open, while admitted work still writes its
//!   answer.

use crate::cache::PlanCache;
use crate::engine;
use crate::lru::lock_unpoisoned;
use crate::obs::{Phase, ReqTrace, ServeObs, COMMANDS};
use crate::protocol::{fields, object, ErrorKind, ServeError};
use crate::queue::{AdmissionQueue, AdmitError};
use serde::value::{Number, Value};
use std::collections::BTreeMap;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// The answer to an explicit `deadline_ms: 0`.
const ZERO_DEADLINE: &str = "deadline_ms must be >= 1; omit for no deadline";

/// How long the accept loop sleeps when no connection is pending.
const ACCEPT_POLL: Duration = Duration::from_millis(10);

/// Final counters of one server run (the counts of the `requests` and
/// `cache` stats sections).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeSummary {
    /// Requests admitted to the queue.
    pub admitted: u64,
    /// Requests answered `rejected`: backpressure, drain, or (gateway) an
    /// admission limit.
    pub rejected: u64,
    /// Requests answered with `ok: true`.
    pub completed: u64,
    /// Requests answered with `ok: false` (including caught panics), not
    /// counting rejections: `bad_request + expired + failed + panics`.
    pub errors: u64,
    /// Malformed or invalid requests (`bad_request` responses).
    pub bad_request: u64,
    /// Requests whose `deadline_ms` elapsed while queued or during the
    /// solve.
    pub expired: u64,
    /// Domain failures (`failed` responses).
    pub failed: u64,
    /// Worker panics caught at the service boundary.
    pub panics: u64,
    /// Scenario-cache hits (a `ProblemTables` rebuild avoided).
    pub scenario_hits: u64,
    /// Plan-memo hits (a full plan computation avoided).
    pub plan_hits: u64,
}

/// Where a worker delivers each answer. It runs after the outcome is
/// counted, so a client that has read its answer sees settled counters.
pub trait Reply: Send {
    /// Answers item `index` (its position in the submitted list).
    fn reply(&self, index: usize, id: &Value, outcome: Outcome, trace: &mut ReqTrace);
}

/// What one request came to: its `result`, or the error it is answered
/// with.
pub type Outcome = Result<Value, ServeError>;

/// An answer handed back to the submitting thread: `(index, id, outcome)`.
pub type Answer = (usize, Value, Outcome);

impl Reply for mpsc::Sender<Answer> {
    fn reply(&self, index: usize, id: &Value, outcome: Outcome, _: &mut ReqTrace) {
        // The receiver only goes away with its connection: nobody to answer.
        let _ = self.send((index, id.clone(), outcome));
    }
}

struct Item {
    index: usize,
    id: Value,
    cmd: String,
    body: Value,
    deadline: Option<Duration>,
    trace: ReqTrace,
}

struct Job<R> {
    cache: Arc<PlanCache>,
    items: Vec<Item>,
    admitted_at: Instant,
    reply: R,
}

/// The `cmd` and deadline of a request body bound for the worker pool.
fn validate(
    body: &Value,
    default_cmd: Option<&str>,
) -> Result<(String, Option<Duration>), ServeError> {
    if body.as_object().is_none() {
        let kind = body.kind();
        return Err(ServeError::bad_request(format!(
            "request must be a JSON object, got {kind}"
        )));
    }
    let cmd = match body.field("cmd") {
        Value::String(cmd) => cmd.as_str(),
        Value::Null => default_cmd.ok_or_else(|| ServeError::bad_request("missing 'cmd'"))?,
        other => {
            let kind = other.kind();
            return Err(ServeError::bad_request(format!(
                "'cmd' must be a string, got {kind}"
            )));
        }
    };
    if !COMMANDS.contains(&cmd) {
        return Err(ServeError::bad_request(format!("unknown cmd '{cmd}'")));
    }
    // Absent (or JSON null) means "no deadline". An explicit zero can only
    // mean "already expired"; reading it as "no deadline" would invert the
    // client's intent, so it is refused.
    let deadline = match body.field("deadline_ms") {
        Value::Null => None,
        _ => match fields::u64_or(body, "deadline_ms", 0)? {
            0 => return Err(ServeError::bad_request(ZERO_DEADLINE)),
            ms => Some(Duration::from_millis(ms)),
        },
    };
    Ok((cmd.to_string(), deadline))
}

/// A listening socket whose connections the accept loop can wake at
/// drain.
pub trait Listener {
    /// One accepted connection.
    type Conn: Send;
    /// Accepts a connection as a blocking stream, plus a second handle to
    /// it (kept to wake its reader at drain). `WouldBlock` when nothing is
    /// pending; any other error ends the accept loop.
    fn accept_conn(&self) -> std::io::Result<(Self::Conn, Self::Conn)>;
    /// Shuts the read half: a blocked read returns EOF, writes still go
    /// out.
    fn shutdown_read(conn: &Self::Conn);
}

macro_rules! listener {
    ($listener:ty, $conn:ty) => {
        impl Listener for $listener {
            type Conn = $conn;
            fn accept_conn(&self) -> std::io::Result<($conn, $conn)> {
                let (conn, _) = self.accept()?;
                conn.set_nonblocking(false)?;
                let watch = conn.try_clone()?;
                Ok((conn, watch))
            }
            fn shutdown_read(conn: &$conn) {
                let _ = conn.shutdown(Shutdown::Read);
            }
        }
    };
}

listener!(TcpListener, TcpStream);
listener!(UnixListener, UnixStream);

/// The service both transports drive: sharded admission queues, their
/// workers, the outcome counters, and the drain. `R` is how a worker
/// answers a job.
pub struct Service<R> {
    shards: Vec<AdmissionQueue<Job<R>>>,
    workers_per_shard: usize,
    obs: ServeObs,
    counters: Mutex<ServeSummary>,
}

impl<R: Reply> Service<R> {
    /// `shards` queues admitting `queue_depth` jobs each, every one drained
    /// by `workers_per_shard` workers. `0` for either count means auto:
    /// half the machine's parallelism, clamped to `[1, 4]` (each request
    /// fans out internally via `ccs-par`, so workers × par-threads is the
    /// real concurrency).
    pub fn new(shards: usize, workers_per_shard: usize, queue_depth: usize, obs: ServeObs) -> Self {
        let cores = std::thread::available_parallelism().map_or(2, |n| n.get());
        let auto = |n: usize| if n > 0 { n } else { (cores / 2).clamp(1, 4) };
        Service {
            shards: (0..auto(shards))
                .map(|_| AdmissionQueue::new(queue_depth))
                .collect(),
            workers_per_shard: auto(workers_per_shard),
            obs,
            counters: Mutex::default(),
        }
    }

    /// The number of admission queues.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Jobs waiting for a worker, over all shards (racy snapshot).
    pub fn queued(&self) -> usize {
        self.shards.iter().map(AdmissionQueue::len).sum()
    }

    /// Whether [`Service::drain`] has been called.
    pub fn is_draining(&self) -> bool {
        self.shards[0].is_closed()
    }

    /// Starts the drain: every later submission is rejected, admitted work
    /// still finishes. Idempotent.
    pub fn drain(&self) {
        for shard in &self.shards {
            shard.close();
        }
    }

    /// Runs the worker pool around `front` (the transport's reader or
    /// accept loop, on the calling thread), then drains: returns once every
    /// admitted job has been answered and the workers have exited.
    pub fn run(&self, front: impl FnOnce()) {
        std::thread::scope(|scope| {
            for shard in &self.shards {
                for _ in 0..self.workers_per_shard {
                    scope.spawn(move || {
                        while let Some(job) = shard.pop() {
                            self.execute(job);
                        }
                    });
                }
            }
            front();
            self.drain();
        });
    }

    /// Polls the non-blocking `listener` until the drain starts, serving
    /// each connection with `handle` on its own thread. Then drains and
    /// shuts the read half of every open connection, and returns once
    /// every connection thread has finished.
    pub fn accept<L: Listener>(&self, listener: &L, handle: impl Fn(L::Conn) + Sync) {
        let open = Mutex::new(BTreeMap::new());
        std::thread::scope(|scope| {
            let mut next = 0u64;
            while !self.is_draining() {
                match listener.accept_conn() {
                    Ok((conn, watch)) => {
                        next += 1;
                        let key = next;
                        lock_unpoisoned(&open).insert(key, watch);
                        let (open, handle) = (&open, &handle);
                        scope.spawn(move || {
                            handle(conn);
                            lock_unpoisoned(open).remove(&key);
                        });
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(ACCEPT_POLL);
                    }
                    Err(_) => break,
                }
            }
            self.drain();
            for conn in lock_unpoisoned(&open).values() {
                L::shutdown_read(conn);
            }
        });
    }

    /// Validates `items` (`(index, body)` pairs) and admits the valid ones
    /// as one job on `shard`, run back-to-back against `cache`. Every item
    /// is answered through `reply` exactly once: refusals here, admitted
    /// items by a worker. `default_cmd` stands in for a missing `cmd`.
    pub fn submit(
        &self,
        shard: usize,
        cache: &Arc<PlanCache>,
        items: Vec<(usize, Value)>,
        default_cmd: Option<&str>,
        reply: R,
    ) {
        let mut admitted = Vec::with_capacity(items.len());
        for (index, body) in items {
            let mut trace = self.obs.start();
            let id = body.field("id").clone();
            let valid = validate(&body, default_cmd);
            // Admission covers validation; queue wait starts at
            // `admitted_at`.
            trace.record(Phase::Admission, trace.total_ns());
            match valid {
                Ok((cmd, deadline)) => admitted.push(Item {
                    index,
                    id,
                    cmd,
                    body,
                    deadline,
                    trace,
                }),
                Err(err) => self.answer(&reply, index, &id, Err(err), &mut trace),
            }
        }
        if admitted.is_empty() {
            return;
        }
        let count = admitted.len() as u64;
        let job = Job {
            cache: Arc::clone(cache),
            items: admitted,
            admitted_at: Instant::now(),
            reply,
        };
        let queue = &self.shards[shard];
        match queue.try_push(job) {
            Ok(()) => {
                lock_unpoisoned(&self.counters).admitted += count;
                ccs_telemetry::counter!("serve.admitted").add(count);
                let depth = queue.len();
                self.obs.observe_queue_depth(depth);
                ccs_telemetry::global()
                    .gauge("serve.queue_depth")
                    .set(depth as f64);
            }
            Err((job, reason)) => {
                let err = match reason {
                    AdmitError::Full { depth } => {
                        ServeError::rejected(format!("queue full (depth {depth})"))
                    }
                    AdmitError::Draining => ServeError::rejected("draining"),
                };
                for mut item in job.items {
                    let rejected = Err(err.clone());
                    self.answer(&job.reply, item.index, &item.id, rejected, &mut item.trace);
                }
            }
        }
    }

    /// Runs every item of one admitted job, in order.
    fn execute(&self, job: Job<R>) {
        for mut item in job.items {
            let _span = ccs_telemetry::global().span("serve.request");
            let queued = u64::try_from(job.admitted_at.elapsed().as_nanos()).unwrap_or(u64::MAX);
            item.trace.record(Phase::QueueWait, queued);
            let late = |when: &str| {
                let d = item.deadline.filter(|d| job.admitted_at.elapsed() > *d)?;
                let ms = d.as_millis();
                Some(ServeError::expired(format!(
                    "deadline of {ms} ms passed {when}"
                )))
            };
            // Expired work never starts; a result the client has already
            // given up on answers `expired`, never a stale success. Failures
            // keep their own kind — the deadline is moot for them.
            let outcome = match late("while queued") {
                Some(err) => Err(err),
                None => engine::execute(&job.cache, &item.cmd, &item.body, &mut item.trace)
                    .and_then(|handled| match late("during the solve") {
                        Some(err) => Err(err),
                        None => {
                            self.count_hits(handled.scenario_hit, handled.plan_hit);
                            Ok(handled.result)
                        }
                    }),
            };
            let status = outcome.as_ref().map_or_else(|e| e.kind.name(), |_| "ok");
            self.answer(&job.reply, item.index, &item.id, outcome, &mut item.trace);
            // End-to-end latency includes delivering the answer — what the
            // client actually observed.
            self.obs.finish(&item.trace, &item.cmd, status);
        }
    }

    /// Counts `outcome`, then delivers it.
    fn answer(&self, reply: &R, index: usize, id: &Value, outcome: Outcome, trace: &mut ReqTrace) {
        match &outcome {
            Ok(_) => self.count_completed(),
            Err(e) => self.count_error(e.kind),
        }
        reply.reply(index, id, outcome, trace);
    }

    fn count_hits(&self, scenario_hit: Option<bool>, plan_hit: Option<bool>) {
        let mut c = lock_unpoisoned(&self.counters);
        if scenario_hit == Some(true) {
            c.scenario_hits += 1;
            ccs_telemetry::counter!("serve.cache.scenario_hits").incr();
        }
        if plan_hit == Some(true) {
            c.plan_hits += 1;
            ccs_telemetry::counter!("serve.cache.plan_hits").incr();
        }
    }

    /// Counts an `ok` answer a transport gave itself (e.g. `ping`).
    pub fn count_completed(&self) {
        lock_unpoisoned(&self.counters).completed += 1;
        ccs_telemetry::counter!("serve.completed").incr();
    }

    /// Counts an error answer of `kind`. The per-kind counter and the
    /// `errors` total move under one lock, so every snapshot satisfies
    /// `errors == bad_request + expired + failed + panics`. Rejections are
    /// backpressure, not errors, and count only as `rejected`.
    pub fn count_error(&self, kind: ErrorKind) {
        let mut c = lock_unpoisoned(&self.counters);
        match kind {
            ErrorKind::Rejected => {
                c.rejected += 1;
                ccs_telemetry::counter!("serve.rejected").incr();
                return;
            }
            ErrorKind::BadRequest => c.bad_request += 1,
            ErrorKind::Expired => {
                c.expired += 1;
                ccs_telemetry::counter!("serve.expired").incr();
            }
            ErrorKind::Failed => c.failed += 1,
            ErrorKind::Internal => {
                c.panics += 1;
                ccs_telemetry::counter!("serve.panics").incr();
            }
        }
        c.errors += 1;
        ccs_telemetry::counter!("serve.errors").incr();
    }

    /// The counters so far (one consistent snapshot).
    pub fn summary(&self) -> ServeSummary {
        *lock_unpoisoned(&self.counters)
    }

    /// The stats sections both transports share: `cache` (sizes summed
    /// over `caches`), `latency_us`, `queue`, `requests`, and `uptime_s`.
    /// Each transport adds its `schema` and its own sections.
    pub fn stats(&self, caches: &[Arc<PlanCache>]) -> BTreeMap<String, Value> {
        let s = self.summary();
        let uint = |v: u64| Value::Number(Number::PosInt(v));
        let sum = |size: fn(&PlanCache) -> u64| uint(caches.iter().map(|c| size(c)).sum());
        let cache = object([
            ("bytes", sum(|c| c.bytes() as u64)),
            ("evictions", sum(PlanCache::evictions)),
            ("plan_hits", uint(s.plan_hits)),
            ("plans", sum(|c| c.plans_cached() as u64)),
            ("scenario_hits", uint(s.scenario_hits)),
            ("scenarios", sum(|c| c.scenarios() as u64)),
        ]);
        let capacity = self.shards.iter().map(|q| q.depth() as u64).sum();
        let queue = object([
            ("capacity", uint(capacity)),
            ("depth", uint(self.queued() as u64)),
            ("high_water", uint(self.obs.high_water())),
        ]);
        let requests = object([
            ("admitted", uint(s.admitted)),
            ("bad_request", uint(s.bad_request)),
            ("completed", uint(s.completed)),
            ("errors", uint(s.errors)),
            ("expired", uint(s.expired)),
            ("failed", uint(s.failed)),
            ("panics", uint(s.panics)),
            ("rejected", uint(s.rejected)),
            ("slow", uint(self.obs.slow_count())),
        ]);
        let uptime = Value::Number(Number::Float(self.obs.uptime_s()));
        [
            ("cache", cache),
            ("latency_us", self.obs.latency_value()),
            ("queue", queue),
            ("requests", requests),
            ("uptime_s", uptime),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect()
    }
}
