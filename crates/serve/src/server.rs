//! The JSONL daemon: line framing over stdin or a Unix socket, in front
//! of the shared [`Service`].
//!
//! Each input line is one request. `ping`, `stats` and `shutdown` are
//! answered inline by the reader — liveness and metrics must stay
//! reachable under full backpressure; every other line goes through the
//! service, whose worker writes the response line itself. EOF on stdin or
//! a `shutdown` request from any connection drains the daemon: admitted
//! work finishes, new work is rejected, and the process returns 0. Process
//! supervisors should close the daemon's stdin (or send
//! `{"cmd":"shutdown"}`) as their TERM action.

use crate::cache::{PlanCache, DEFAULT_CACHE_BYTES};
use crate::lru::lock_unpoisoned;
use crate::obs::{self, render_value, Phase, ReqTrace, ServeObs};
use crate::protocol::{err_response, object, ok_response, response_value, ServeError};
use crate::service::{Outcome, Reply, ServeSummary, Service};
use ccs_telemetry::RotatingWriter;
use serde::value::Value;
use std::io::{BufRead, BufReader, Write};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads executing requests. `0` = auto (see
    /// [`Service::new`]).
    pub workers: usize,
    /// Maximum queued (admitted but not yet started) requests; beyond
    /// this, requests are rejected with explicit backpressure.
    pub queue_depth: usize,
    /// Period of the stats line on stderr, one JSON snapshot per line
    /// (`None` = silent).
    pub stats_every: Option<Duration>,
    /// Rewrite this file (atomically) with Prometheus text metrics every
    /// stats period and at drain.
    pub metrics_file: Option<String>,
    /// Append one JSONL trace line per request to this file
    /// (size-capped — see [`ccs_telemetry::RotatingWriter`]).
    pub trace_requests: Option<String>,
    /// Byte cap of the active trace file before rotation.
    pub trace_max_bytes: u64,
    /// Requests slower end-to-end than this are counted, flagged
    /// `"slow":true` in their trace line, and logged to stderr with their
    /// phase breakdown (`None` = off).
    pub slow_ms: Option<u64>,
    /// Hard cap on one request line's length; longer lines are discarded
    /// and answered with `bad_request` instead of buffering without bound.
    pub max_line_bytes: usize,
    /// Byte budget of the plan/scenario cache ([`PlanCache::with_budget`]).
    pub cache_bytes: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 0,
            queue_depth: 64,
            stats_every: Some(Duration::from_secs(10)),
            metrics_file: None,
            trace_requests: None,
            trace_max_bytes: 16 << 20,
            slow_ms: None,
            max_line_bytes: 4 << 20,
            cache_bytes: DEFAULT_CACHE_BYTES,
        }
    }
}

/// A line-oriented response sink shared between the reader (inline
/// answers) and the workers (results).
type SharedWriter = Arc<Mutex<Box<dyn Write + Send>>>;

fn write_line(writer: &SharedWriter, line: &str) {
    // Poison-tolerant: a worker that panicked mid-write must not turn
    // every later response into a lock panic.
    let mut w = lock_unpoisoned(writer);
    // A broken client pipe must not kill the daemon; drop the response.
    let _ = writeln!(w, "{line}");
    let _ = w.flush();
}

impl Reply for SharedWriter {
    fn reply(&self, _: usize, id: &Value, outcome: Outcome, trace: &mut ReqTrace) {
        let line = trace.time(Phase::Serialize, || {
            render_value(&response_value(id, outcome))
        });
        write_line(self, &line);
    }
}

/// Outcome of one capped line read ([`read_line_capped`]).
pub enum LineRead {
    /// A complete line, without its trailing newline. Bytes that are not
    /// valid UTF-8 are replaced (the JSON parse then rejects the line).
    Line(String),
    /// The line exceeded the cap; it was consumed (through its newline, or
    /// EOF) and discarded. Carries the number of bytes consumed.
    TooLong(usize),
    /// End of stream.
    Eof,
}

/// Reads one `\n`-terminated line from `reader`, holding at most `cap`
/// bytes in memory. An over-long line is drained to its newline and
/// reported as [`LineRead::TooLong`] so the connection can answer
/// `bad_request` and resynchronize, instead of buffering an attacker- (or
/// bug-)sized line without bound.
///
/// # Errors
///
/// Propagates io errors from the underlying reader.
pub fn read_line_capped<R: BufRead>(reader: &mut R, cap: usize) -> std::io::Result<LineRead> {
    let mut buf: Vec<u8> = Vec::new();
    let mut overflow = false;
    let mut consumed = 0usize;
    loop {
        let chunk = reader.fill_buf()?;
        if chunk.is_empty() {
            return Ok(if overflow {
                LineRead::TooLong(consumed)
            } else if buf.is_empty() {
                LineRead::Eof
            } else {
                LineRead::Line(String::from_utf8_lossy(&buf).into_owned())
            });
        }
        let newline = chunk.iter().position(|&b| b == b'\n');
        let take = newline.unwrap_or(chunk.len());
        consumed += take;
        if !overflow {
            if buf.len() + take <= cap {
                buf.extend_from_slice(&chunk[..take]);
            } else {
                overflow = true;
                buf = Vec::new();
            }
        }
        let terminated = newline.is_some();
        reader.consume(take + usize::from(terminated));
        if terminated {
            return Ok(if overflow {
                LineRead::TooLong(consumed)
            } else {
                LineRead::Line(String::from_utf8_lossy(&buf).into_owned())
            });
        }
    }
}

struct Daemon {
    service: Service<SharedWriter>,
    cache: Arc<PlanCache>,
    max_line_bytes: usize,
}

impl Daemon {
    fn new(config: &ServeConfig) -> Self {
        let trace = config.trace_requests.as_ref().and_then(|path| {
            RotatingWriter::create(path, config.trace_max_bytes)
                .map_err(|e| {
                    eprintln!("serve: cannot open trace file {path}: {e} (tracing disabled)")
                })
                .ok()
        });
        let obs = ServeObs::new(trace, config.slow_ms.map(Duration::from_millis));
        Daemon {
            service: Service::new(1, config.workers, config.queue_depth, obs),
            cache: Arc::new(PlanCache::with_budget(config.cache_bytes)),
            max_line_bytes: config.max_line_bytes,
        }
    }

    /// Answers request lines from `input` until EOF or `shutdown`; returns
    /// whether a `shutdown` ended it.
    fn read(&self, mut input: impl BufRead, writer: &SharedWriter) -> bool {
        let cap = self.max_line_bytes;
        loop {
            match read_line_capped(&mut input, cap) {
                Ok(LineRead::Line(line)) => {
                    if !self.line(line.trim(), writer) {
                        return true;
                    }
                }
                Ok(LineRead::TooLong(bytes)) => self.refuse(
                    writer,
                    format!("request line of {bytes} bytes exceeds the {cap}-byte cap"),
                ),
                Ok(LineRead::Eof) | Err(_) => return false,
            }
        }
    }

    /// Answers one request line; `false` once it was a `shutdown`.
    fn line(&self, line: &str, writer: &SharedWriter) -> bool {
        if line.is_empty() {
            return true;
        }
        let body: Value = match serde_json::from_str(line) {
            Ok(body) => body,
            Err(e) => {
                self.refuse(writer, format!("malformed request: {e}"));
                return true;
            }
        };
        let id = body.field("id");
        match body.field("cmd") {
            Value::String(cmd) if cmd == "ping" => {
                self.service.count_completed();
                let pong = object([("pong", Value::Bool(true))]);
                write_line(writer, &ok_response(id, pong));
            }
            Value::String(cmd) if cmd == "stats" => {
                // The snapshot covers the requests answered before it.
                write_line(writer, &ok_response(id, self.stats_snapshot()));
                self.service.count_completed();
            }
            Value::String(cmd) if cmd == "shutdown" => {
                let draining = object([("draining", Value::Bool(true))]);
                write_line(writer, &ok_response(id, draining));
                return false;
            }
            _ => self
                .service
                .submit(0, &self.cache, vec![(0, body)], None, Arc::clone(writer)),
        }
        true
    }

    /// Answers an unparseable line with `bad_request`.
    fn refuse(&self, writer: &SharedWriter, message: String) {
        let err = ServeError::bad_request(message);
        self.service.count_error(err.kind);
        write_line(writer, &err_response(&Value::Null, &err));
    }

    /// The versioned stats snapshot ([`obs::STATS_SCHEMA`]) — the payload
    /// of the `stats` command, the JSON stats line, and the metrics file.
    fn stats_snapshot(&self) -> Value {
        let mut map = self.service.stats(std::slice::from_ref(&self.cache));
        let schema = Value::String(obs::STATS_SCHEMA.to_string());
        map.insert("schema".to_string(), schema);
        Value::Object(map)
    }

    /// Rewrites the Prometheus metrics file, if one is configured.
    fn write_metrics_file(&self, config: &ServeConfig) {
        if let Some(path) = &config.metrics_file {
            obs::write_file_atomic(path, &obs::render_prometheus(&self.stats_snapshot()));
        }
    }

    /// Runs the service around `front` with the optional stats ticker, then
    /// writes the final metrics file and the drain line.
    fn run(&self, config: &ServeConfig, front: impl FnOnce()) -> ServeSummary {
        self.service.run(|| {
            std::thread::scope(|scope| {
                let (stop, stopped) = mpsc::channel::<()>();
                if config.stats_every.is_some() || config.metrics_file.is_some() {
                    // Default the metrics-file rewrite to the stats period
                    // (or 10 s when only --metrics-file is set).
                    let period = config.stats_every.unwrap_or(Duration::from_secs(10));
                    scope.spawn(move || {
                        while stopped.recv_timeout(period) == Err(RecvTimeoutError::Timeout) {
                            if config.stats_every.is_some() {
                                eprintln!("{}", render_value(&self.stats_snapshot()));
                            }
                            self.write_metrics_file(config);
                        }
                    });
                }
                front();
                drop(stop);
            });
        });
        // The final metrics-file state covers everything up to the drain.
        self.write_metrics_file(config);
        let summary = self.service.summary();
        eprintln!(
            "serve: drained — admitted={} rejected={} completed={} errors={} \
             (panics caught: {}, scenario hits: {}, plan hits: {})",
            summary.admitted,
            summary.rejected,
            summary.completed,
            summary.errors,
            summary.panics,
            summary.scenario_hits,
            summary.plan_hits,
        );
        summary
    }
}

/// Serves one line-oriented connection (requests on `input`, responses on
/// `output`) until EOF or a `shutdown` request, then drains and returns
/// the final counters. [`serve_stdio`] and the tests build on it.
pub fn serve_connection<R: BufRead>(
    input: R,
    output: Box<dyn Write + Send>,
    config: &ServeConfig,
) -> ServeSummary {
    let daemon = Daemon::new(config);
    let writer: SharedWriter = Arc::new(Mutex::new(output));
    daemon.run(config, || {
        daemon.read(input, &writer);
    })
}

/// Serves stdin → stdout. Returns when stdin reaches EOF or a `shutdown`
/// request arrives, after the queue has drained.
pub fn serve_stdio(config: &ServeConfig) -> ServeSummary {
    let stdin = std::io::stdin();
    serve_connection(stdin.lock(), Box::new(std::io::stdout()), config)
}

/// Serves a Unix domain socket: every connection speaks the same JSONL
/// protocol, all connections share one queue, worker pool, and cache. A
/// `shutdown` request from any connection drains the whole daemon; idle
/// connections do not hold the drain open. The socket file is removed on
/// exit.
///
/// # Errors
///
/// An io error binding the socket (the per-connection errors are handled
/// by dropping the connection).
pub fn serve_unix(path: &str, config: &ServeConfig) -> std::io::Result<ServeSummary> {
    use std::os::unix::net::{UnixListener, UnixStream};

    // A stale socket file from a previous run would make bind fail.
    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path)?;
    listener.set_nonblocking(true)?;
    let daemon = Daemon::new(config);
    let summary = daemon.run(config, || {
        daemon.service.accept(&listener, |stream: UnixStream| {
            let Ok(write_half) = stream.try_clone() else {
                return;
            };
            let writer: SharedWriter = Arc::new(Mutex::new(Box::new(write_half)));
            if daemon.read(BufReader::new(stream), &writer) {
                daemon.service.drain();
            }
        });
    });
    let _ = std::fs::remove_file(path);
    Ok(summary)
}
