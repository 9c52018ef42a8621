//! The serving loop: a fixed worker pool behind a bounded admission
//! queue, with per-request deadlines, panic isolation, and idle-session
//! GC.
//!
//! The request path is an *admission → deadline → degrade → shed*
//! pipeline:
//!
//! 1. **Admission.** The acceptor thread pushes each connection onto a
//!    bounded queue. Queue full ⇒ the connection is **shed** with an
//!    immediate `503 Retry-After` written non-blockingly — overload
//!    costs the server one small fixed write, never unbounded memory
//!    or a blocked acceptor.
//! 2. **Deadline.** A worker picking up a request gets a wall-clock
//!    budget ([`ServerConfig::request_deadline`]). Viewport renders run
//!    under it ([`Session::viewport_deadline`]): when the budget
//!    expires with tiles still unrendered, the response **degrades** to
//!    a cache-only coarse preview (`X-Degraded: 1`, `X-Resolved`
//!    fraction header) instead of blocking the worker.
//! 3. **Isolation.** Each request runs under `catch_unwind`: a
//!    panicking handler costs that request a `500`, never a worker —
//!    the tile cache's abandoned-flight recovery guarantees concurrent
//!    waiters of a panicked render self-recover too.
//! 4. **Timeouts.** Sockets carry read/write timeouts, so a slow-loris
//!    client pins a worker for at most the timeout, then gets `408`.
//! 5. **GC.** A reaper thread drops sessions idle past
//!    [`ServerConfig::session_idle`] and sweeps the engine's snapshot
//!    registry ([`ExplorationEngine::gc`]).
//!
//! Faults from the shared [`FaultPlan`] are
//! consulted at fixed points (render start, dispatch, pre-response,
//! response write), making every robustness property above testable
//! deterministically.
//!
//! ## Endpoints
//!
//! | Method & path | Meaning |
//! |---|---|
//! | `GET /healthz` | liveness probe |
//! | `GET /stats` | server + cache + registry counters (JSON) |
//! | `POST /session` | new session on the root snapshot |
//! | `POST /session/{id}/fork` | O(1) fork of an existing session |
//! | `GET /session/{id}` | session info (fingerprint, generation, …) |
//! | `DELETE /session/{id}` | drop a session |
//! | `GET /session/{id}/tile/{zoom}/{tx}/{ty}` | one exact tile (binary f64-LE; ETag) |
//! | `GET /session/{id}/viewport?x0=&x1=&y0=&y1=&w=&h=` | stitched viewport (may degrade) |
//! | `GET /session/{id}/topk?k=` | k most influential regions (JSON) |
//! | `GET /session/{id}/influence?x=&y=` | RNN set + influence at a point |
//! | `GET /session/{id}/placement?m=` | top-m MaxBRkNN placement regions (JSON; exact, ETag) |
//! | `POST /session/{id}/relocate?facility=` | move a facility to its best location |
//! | `POST /session/{id}/edit?op=add&x=&y=` (or `op=remove&id=`, `op=move&id=&x=&y=`) | what-if edit |
//!
//! Binary raster responses carry `X-Grid: {width} {height}` and
//! `X-Extent: {x_lo} {x_hi} {y_lo} {y_hi}` headers; the body is
//! row-major `f64` little-endian. Exact responses carry the snapshot
//! fingerprint as a strong `ETag` (tiles are immutable per
//! fingerprint), and a matching `If-None-Match` short-circuits to
//! `304` without touching the render path.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rnn_heatmap::{ExplorationEngine, Session, ViewportFrame};
use rnnhm_core::edit::EditError;
use rnnhm_core::measure::IncrementalMeasure;
use rnnhm_core::placement::PlacementRegion;
use rnnhm_core::sink::LabeledRegion;
use rnnhm_geom::{Point, Rect};
use rnnhm_heatmap::raster::HeatRaster;
use rnnhm_heatmap::tiles::TileId;

use crate::fault::FaultPlan;
use crate::http::{read_request, Body, ReadError, Request, Response};
use crate::json;

/// The root session every server starts with (never reaped, never
/// deletable — the stable entry point for clients that don't manage
/// sessions).
pub const ROOT_SESSION: u64 = 0;

/// Hard cap on a viewport's total pixel budget (`w * h`), enforced at
/// validation time — before any raster is allocated. 4M pixels is a
/// 32 MiB f64 frame, comfortably past any interactive screen while
/// bounding the damage of adversarial `w=4096&h=4096` requests.
pub const MAX_VIEWPORT_PIXELS: u64 = 1 << 22;

/// Server tuning knobs. `Default` is sized for an interactive local
/// deployment; tests and the load generator shrink the timeouts.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Worker threads serving requests.
    pub workers: usize,
    /// Bounded admission-queue depth; connections beyond it are shed
    /// with `503`.
    pub queue_depth: usize,
    /// Socket read timeout (slow-loris bound; `408` on expiry).
    pub read_timeout: Duration,
    /// Socket write timeout (slow-reader bound).
    pub write_timeout: Duration,
    /// Per-request render budget; viewports degrade past it.
    pub request_deadline: Duration,
    /// Sessions idle longer than this are reaped (the root session is
    /// exempt).
    pub session_idle: Duration,
    /// Reaper wake-up cadence.
    pub gc_interval: Duration,
    /// Hard cap on live sessions (`503` past it).
    pub max_sessions: usize,
    /// Fault-injection schedule (disabled by default); share the `Arc`
    /// with a chaos harness to arm faults while serving.
    pub fault: Arc<FaultPlan>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_depth: 64,
            read_timeout: Duration::from_secs(2),
            write_timeout: Duration::from_secs(2),
            request_deadline: Duration::from_millis(250),
            session_idle: Duration::from_secs(60),
            gc_interval: Duration::from_secs(1),
            max_sessions: 1024,
            fault: Arc::new(FaultPlan::new()),
        }
    }
}

#[derive(Default)]
struct Counters {
    accepted: AtomicU64,
    requests: AtomicU64,
    responses_2xx: AtomicU64,
    responses_3xx: AtomicU64,
    responses_4xx: AtomicU64,
    responses_5xx: AtomicU64,
    shed: AtomicU64,
    degraded: AtomicU64,
    deadline_rejected: AtomicU64,
    panics_caught: AtomicU64,
    read_timeouts: AtomicU64,
    dropped_connections: AtomicU64,
    truncated_writes: AtomicU64,
    queue_high_water: AtomicU64,
    sessions_created: AtomicU64,
    sessions_reaped: AtomicU64,
}

/// A point-in-time snapshot of the server's counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServerStats {
    /// Connections accepted (including ones later shed).
    pub accepted: u64,
    /// Requests fully parsed and dispatched.
    pub requests: u64,
    /// Responses by status class.
    pub responses_2xx: u64,
    /// 3xx responses (`304 Not Modified`).
    pub responses_3xx: u64,
    /// 4xx responses.
    pub responses_4xx: u64,
    /// 5xx responses (including panic-isolation `500`s, excluding
    /// admission sheds).
    pub responses_5xx: u64,
    /// Connections shed with `503` at admission.
    pub shed: u64,
    /// Viewport responses degraded to a preview by the deadline.
    pub degraded: u64,
    /// Placement queries rejected with `503` because the deadline
    /// expired — optimizers never degrade to an approximate answer.
    pub deadline_rejected: u64,
    /// Handler panics caught (workers survived each one).
    pub panics_caught: u64,
    /// Connections that hit the socket read timeout.
    pub read_timeouts: u64,
    /// Connections dropped responseless by fault injection.
    pub dropped_connections: u64,
    /// Responses truncated mid-write by fault injection.
    pub truncated_writes: u64,
    /// Deepest the admission queue has been.
    pub queue_high_water: u64,
    /// Sessions created over the server's lifetime (excluding the
    /// root).
    pub sessions_created: u64,
    /// Sessions reaped by the idle GC.
    pub sessions_reaped: u64,
    /// Sessions currently live (including the root).
    pub sessions_live: usize,
}

struct SessionEntry<M: IncrementalMeasure> {
    // lint:lock-rank(25)
    session: Arc<RwLock<Session<M>>>,
    last_used: Instant,
}

// Lock ranks (see ARCHITECTURE.md "Invariant lints"): the serve stack
// sits below the engine/cache locks — a handler may hold a session
// read lock while the engine takes its own (ranks 30+), never the
// reverse.
struct Ctx<M: IncrementalMeasure> {
    engine: Arc<ExplorationEngine<M>>,
    config: ServerConfig,
    // lint:lock-rank(20)
    sessions: Mutex<HashMap<u64, SessionEntry<M>>>,
    next_session: AtomicU64,
    // lint:lock-rank(12)
    queue: Mutex<VecDeque<TcpStream>>,
    // lint:lock-rank(12)
    queue_cv: Condvar,
    // lint:lock-rank(10)
    reaper_lock: Mutex<()>,
    // lint:lock-rank(10)
    reaper_cv: Condvar,
    shutdown: AtomicBool,
    counters: Counters,
}

/// A running server; dropping (or calling [`Server::shutdown`]) stops
/// the acceptor, drains the workers, and joins every thread.
pub struct Server<M: IncrementalMeasure + Send + Sync + 'static> {
    ctx: Arc<Ctx<M>>,
    addr: SocketAddr,
    handles: Vec<JoinHandle<()>>,
}

/// Starts serving `engine` per `config`. Returns once the listener is
/// bound and the worker pool is up; the returned handle owns every
/// thread.
pub fn serve<M>(engine: Arc<ExplorationEngine<M>>, config: ServerConfig) -> io::Result<Server<M>>
where
    M: IncrementalMeasure + Send + Sync + 'static,
{
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let mut sessions = HashMap::new();
    sessions.insert(
        ROOT_SESSION,
        SessionEntry {
            session: Arc::new(RwLock::new(engine.session())),
            last_used: rnnhm_core::clock::now(),
        },
    );
    let ctx = Arc::new(Ctx {
        engine,
        config,
        sessions: Mutex::new(sessions),
        next_session: AtomicU64::new(1),
        queue: Mutex::new(VecDeque::new()),
        queue_cv: Condvar::new(),
        reaper_lock: Mutex::new(()),
        reaper_cv: Condvar::new(),
        shutdown: AtomicBool::new(false),
        counters: Counters::default(),
    });
    let mut handles = Vec::new();
    for i in 0..ctx.config.workers.max(1) {
        let ctx = ctx.clone();
        handles.push(
            std::thread::Builder::new()
                .name(format!("serve-worker-{i}"))
                .spawn(move || worker_loop(&ctx))?,
        );
    }
    {
        let ctx = ctx.clone();
        handles.push(
            std::thread::Builder::new()
                .name("serve-reaper".to_string())
                .spawn(move || reaper_loop(&ctx))?,
        );
    }
    {
        let ctx = ctx.clone();
        handles.push(
            std::thread::Builder::new()
                .name("serve-acceptor".to_string())
                .spawn(move || acceptor_loop(&ctx, listener))?,
        );
    }
    Ok(Server { ctx, addr, handles })
}

impl<M: IncrementalMeasure + Send + Sync + 'static> Server<M> {
    /// The bound address (useful with `addr: 127.0.0.1:0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The engine being served (for out-of-band verification: tests
    /// re-render responses through it to prove bit-identity).
    pub fn engine(&self) -> &Arc<ExplorationEngine<M>> {
        &self.ctx.engine
    }

    /// The fault plan the server consults (shared with
    /// [`ServerConfig::fault`]).
    pub fn fault(&self) -> &Arc<FaultPlan> {
        &self.ctx.config.fault
    }

    /// Snapshot of the server counters.
    pub fn stats(&self) -> ServerStats {
        self.ctx.stats()
    }

    /// Stops accepting, drains and joins every thread. Equivalent to
    /// dropping, but explicit.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if self.handles.is_empty() {
            return;
        }
        self.ctx.shutdown.store(true, Ordering::SeqCst);
        // Unblock the acceptor (blocking accept has no timeout):
        // connect to ourselves so `incoming()` yields once more and
        // sees the flag.
        let _ = TcpStream::connect(self.addr);
        self.ctx.queue_cv.notify_all();
        self.ctx.reaper_cv.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl<M: IncrementalMeasure + Send + Sync + 'static> Drop for Server<M> {
    fn drop(&mut self) {
        self.stop();
    }
}

fn acceptor_loop<M: IncrementalMeasure + Send + Sync>(ctx: &Ctx<M>, listener: TcpListener) {
    for conn in listener.incoming() {
        if ctx.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let Ok(stream) = conn else { continue };
        ctx.counters.accepted.fetch_add(1, Ordering::Relaxed);
        let mut q = ctx.queue.lock().unwrap_or_else(|e| e.into_inner());
        if q.len() >= ctx.config.queue_depth {
            drop(q);
            shed(ctx, stream);
        } else {
            q.push_back(stream);
            let depth = q.len() as u64;
            drop(q);
            ctx.counters.queue_high_water.fetch_max(depth, Ordering::Relaxed);
            ctx.queue_cv.notify_one();
        }
    }
}

/// Sheds an over-admission connection: one non-blocking best-effort
/// `503` write, then close. The 503 is a fixed ~120-byte payload — on
/// a fresh connection it always fits the kernel send buffer, so this
/// never blocks the acceptor (and if a pathological socket would
/// block, the write is simply skipped).
fn shed<M: IncrementalMeasure>(ctx: &Ctx<M>, mut stream: TcpStream) {
    ctx.counters.shed.fetch_add(1, Ordering::Relaxed);
    let _ = stream.set_nonblocking(true);
    // The client has usually written its request already; leave it
    // unread and the close would RST the connection, tearing the 503
    // out of the client's receive buffer. Drain what's arrived (a
    // non-blocking read of a fresh socket — never waits).
    drain_before_close(&mut stream);
    let resp = Response::text(503, "admission queue full; retry with jittered backoff")
        .header("Retry-After", "0")
        .close();
    let _ = stream.write(&resp.to_bytes());
}

/// Best-effort bounded drain of unread request bytes before an
/// error-path close. Closing a socket with unread data sends a TCP
/// RST, and a reset can discard the just-written error response before
/// the client reads it — the client would see "connection reset"
/// instead of its `431`/`503`. Bounded on purpose: at most 64 KiB and
/// only bytes already queued (the socket is switched to non-blocking),
/// so an attacker still streaming gets the RST, not a listener.
fn drain_before_close(stream: &mut TcpStream) {
    let _ = stream.set_nonblocking(true);
    let mut scratch = [0u8; 4096];
    let mut total = 0usize;
    while total < 64 * 1024 {
        match io::Read::read(stream, &mut scratch) {
            Ok(0) | Err(_) => break,
            Ok(n) => total += n,
        }
    }
    let _ = stream.set_nonblocking(false);
}

fn worker_loop<M: IncrementalMeasure + Send + Sync>(ctx: &Ctx<M>) {
    loop {
        let conn = {
            let mut q = ctx.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(c) = q.pop_front() {
                    break Some(c);
                }
                if ctx.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                q = ctx.queue_cv.wait(q).unwrap_or_else(|e| e.into_inner());
            }
        };
        match conn {
            Some(stream) => handle_connection(ctx, stream),
            None => return,
        }
    }
}

fn handle_connection<M: IncrementalMeasure + Send + Sync>(ctx: &Ctx<M>, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(ctx.config.read_timeout));
    let _ = stream.set_write_timeout(Some(ctx.config.write_timeout));
    let _ = stream.set_nodelay(true);
    loop {
        let req = match read_request(&mut stream) {
            Ok(req) => req,
            Err(ReadError::Closed) => return,
            Err(ReadError::Io(e)) => {
                if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) {
                    // Slow-loris: the client held the socket past the
                    // read timeout without completing a request.
                    ctx.counters.read_timeouts.fetch_add(1, Ordering::Relaxed);
                    let resp = Response::text(408, "request read timed out").close();
                    ctx.count_response(resp.status);
                    let _ = resp.write_to(&mut stream, None);
                }
                return;
            }
            Err(ReadError::Bad(resp)) => {
                ctx.count_response(resp.status);
                drain_before_close(&mut stream);
                let _ = resp.write_to(&mut stream, None);
                return;
            }
        };
        ctx.counters.requests.fetch_add(1, Ordering::Relaxed);
        if ctx.config.fault.should_drop_connection() {
            ctx.counters.dropped_connections.fetch_add(1, Ordering::Relaxed);
            return;
        }
        // The request's wall-clock budget starts when a worker picks
        // it up (queueing time is the admission queue's concern, kept
        // bounded by shedding).
        let deadline = rnnhm_core::clock::now() + ctx.config.request_deadline;
        let mut resp = match catch_unwind(AssertUnwindSafe(|| handle(ctx, &req, deadline))) {
            Ok(resp) => resp,
            Err(_) => {
                // Panic isolation: the request dies, the worker lives.
                // Close the connection — we can't know what state the
                // client conversation was in.
                ctx.counters.panics_caught.fetch_add(1, Ordering::Relaxed);
                Response::text(500, "internal error (request isolated)").close()
            }
        };
        // Keep-alive policy: honor the client's wish, but close when
        // shutting down or when other connections are queued — a
        // worker must not pin itself to one chatty client while
        // others wait.
        if req.wants_close()
            || ctx.shutdown.load(Ordering::SeqCst)
            || !ctx.queue.lock().unwrap_or_else(|e| e.into_inner()).is_empty()
        {
            resp.close = true;
        }
        ctx.count_response(resp.status);
        let truncate = ctx.config.fault.truncate_write();
        if truncate.is_some() {
            ctx.counters.truncated_writes.fetch_add(1, Ordering::Relaxed);
        }
        if resp.write_to(&mut stream, truncate).is_err() || truncate.is_some() || resp.close {
            return;
        }
    }
}

fn reaper_loop<M: IncrementalMeasure + Send + Sync>(ctx: &Ctx<M>) {
    let mut guard = ctx.reaper_lock.lock().unwrap_or_else(|e| e.into_inner());
    loop {
        guard = ctx
            .reaper_cv
            .wait_timeout(guard, ctx.config.gc_interval)
            .unwrap_or_else(|e| e.into_inner())
            .0;
        if ctx.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let now = rnnhm_core::clock::now();
        let mut reaped = 0u64;
        {
            let mut sessions = ctx.sessions.lock().unwrap_or_else(|e| e.into_inner());
            sessions.retain(|&id, entry| {
                let keep = id == ROOT_SESSION
                    || now.duration_since(entry.last_used) < ctx.config.session_idle;
                if !keep {
                    reaped += 1;
                }
                keep
            });
        }
        if reaped > 0 {
            ctx.counters.sessions_reaped.fetch_add(reaped, Ordering::Relaxed);
        }
        // Sweep the snapshot registry: snapshots only the reaped
        // sessions kept alive die with them.
        ctx.engine.gc();
    }
}

impl<M: IncrementalMeasure + Send + Sync> Ctx<M> {
    fn count_response(&self, status: u16) {
        let counter = match status / 100 {
            2 => &self.counters.responses_2xx,
            3 => &self.counters.responses_3xx,
            4 => &self.counters.responses_4xx,
            _ => &self.counters.responses_5xx,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    fn stats(&self) -> ServerStats {
        let c = &self.counters;
        ServerStats {
            accepted: c.accepted.load(Ordering::Relaxed),
            requests: c.requests.load(Ordering::Relaxed),
            responses_2xx: c.responses_2xx.load(Ordering::Relaxed),
            responses_3xx: c.responses_3xx.load(Ordering::Relaxed),
            responses_4xx: c.responses_4xx.load(Ordering::Relaxed),
            responses_5xx: c.responses_5xx.load(Ordering::Relaxed),
            shed: c.shed.load(Ordering::Relaxed),
            degraded: c.degraded.load(Ordering::Relaxed),
            deadline_rejected: c.deadline_rejected.load(Ordering::Relaxed),
            panics_caught: c.panics_caught.load(Ordering::Relaxed),
            read_timeouts: c.read_timeouts.load(Ordering::Relaxed),
            dropped_connections: c.dropped_connections.load(Ordering::Relaxed),
            truncated_writes: c.truncated_writes.load(Ordering::Relaxed),
            queue_high_water: c.queue_high_water.load(Ordering::Relaxed),
            sessions_created: c.sessions_created.load(Ordering::Relaxed),
            sessions_reaped: c.sessions_reaped.load(Ordering::Relaxed),
            sessions_live: self.sessions.lock().unwrap_or_else(|e| e.into_inner()).len(),
        }
    }

    /// Looks a session up, stamping its idle clock.
    fn session(&self, id: u64) -> Option<Arc<RwLock<Session<M>>>> {
        let mut sessions = self.sessions.lock().unwrap_or_else(|e| e.into_inner());
        let entry = sessions.get_mut(&id)?;
        entry.last_used = rnnhm_core::clock::now();
        Some(entry.session.clone())
    }
}

/// The ETag of a snapshot fingerprint: a strong validator (tiles are
/// immutable per fingerprint, so equality really is bit-identity).
fn etag(fingerprint: u64) -> String {
    format!("\"{fingerprint:016x}\"")
}

fn parse_f64(req: &Request, name: &str) -> Result<f64, Response> {
    let raw = req
        .param(name)
        .ok_or_else(|| Response::text(400, &format!("missing query parameter '{name}'")))?;
    let x: f64 = raw
        .parse()
        .map_err(|_| Response::text(400, &format!("query parameter '{name}' is not a number")))?;
    if !x.is_finite() {
        return Err(Response::text(422, &format!("query parameter '{name}' must be finite")));
    }
    Ok(x)
}

fn parse_u64(req: &Request, name: &str) -> Result<u64, Response> {
    req.param(name)
        .ok_or_else(|| Response::text(400, &format!("missing query parameter '{name}'")))?
        .parse()
        .map_err(|_| Response::text(400, &format!("query parameter '{name}' is not an integer")))
}

/// The facility id a query parameter names. Facility ids are `u32`, so
/// a larger value names no facility; it is rejected like any unknown id
/// rather than truncated onto a live one.
fn facility_id(raw: u64) -> Result<u32, EditError> {
    u32::try_from(raw).map_err(|_| EditError::UnknownFacility)
}

/// A binary raster response: row-major `f64` little-endian body plus
/// the grid geometry headers clients need to interpret it. The body is
/// the raster's own values, encoded as they are written.
fn raster_response(raster: HeatRaster) -> Response {
    let spec = raster.spec;
    let e = spec.extent;
    Response::new(200)
        .header("Content-Type", "application/octet-stream")
        .header("X-Grid", &format!("{} {}", spec.width, spec.height))
        .header("X-Extent", &format!("{} {} {} {}", e.x_lo, e.x_hi, e.y_lo, e.y_hi))
        .with_body(Body::F64Le(raster.into_values()))
}

fn region_json<M: IncrementalMeasure>(session: &Session<M>, region: &LabeledRegion) -> String {
    let c = session.region_center(region);
    format!(
        "{{\"center\":[{},{}],\"influence\":{},\"rnn_size\":{}}}",
        json::number(c.x),
        json::number(c.y),
        json::number(region.influence),
        region.rnn.len()
    )
}

/// Routes one request. Runs under `catch_unwind`; panics anywhere in
/// here cost a `500`, not a worker.
fn handle<M: IncrementalMeasure + Send + Sync>(
    ctx: &Ctx<M>,
    req: &Request,
    deadline: Instant,
) -> Response {
    if ctx.config.fault.should_panic() {
        // lint:allow(panic-path): deliberate fault injection exercising the catch_unwind isolation
        panic!("injected handler panic");
    }
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    let method = req.method.as_str();
    match segments.as_slice() {
        [] => match method {
            "GET" => Response::text(
                200,
                "rnn-heatmap serve\n\
                 GET  /healthz | /stats\n\
                 POST /session | /session/{id}/fork | DELETE /session/{id}\n\
                 GET  /session/{id} | /session/{id}/tile/{zoom}/{tx}/{ty}\n\
                 GET  /session/{id}/viewport?x0=&x1=&y0=&y1=&w=&h=\n\
                 GET  /session/{id}/topk?k= | /session/{id}/influence?x=&y=\n\
                 GET  /session/{id}/placement?m=\n\
                 POST /session/{id}/relocate?facility=\n\
                 POST /session/{id}/edit?op=add&x=&y= (op=remove&id=, op=move&id=&x=&y=)",
            ),
            _ => Response::text(405, "method not allowed"),
        },
        ["healthz"] => match method {
            "GET" => Response::text(200, "ok"),
            _ => Response::text(405, "method not allowed"),
        },
        ["stats"] => match method {
            "GET" => stats_response(ctx),
            _ => Response::text(405, "method not allowed"),
        },
        ["session"] => match method {
            "POST" => create_session(ctx, None),
            _ => Response::text(405, "method not allowed"),
        },
        ["session", id] => {
            let Ok(id) = id.parse::<u64>() else {
                return Response::text(400, "session id is not an integer");
            };
            match method {
                "GET" => with_session(ctx, id, |s| session_info(id, s)),
                "DELETE" => delete_session(ctx, id),
                _ => Response::text(405, "method not allowed"),
            }
        }
        ["session", id, rest @ ..] => {
            let Ok(id) = id.parse::<u64>() else {
                return Response::text(400, "session id is not an integer");
            };
            match (method, rest) {
                ("POST", ["fork"]) => create_session(ctx, Some(id)),
                ("GET", ["tile", z, x, y]) => tile_endpoint(ctx, req, id, z, x, y),
                ("GET", ["viewport"]) => viewport_endpoint(ctx, req, id, deadline),
                ("GET", ["topk"]) => topk_endpoint(ctx, req, id),
                ("GET", ["influence"]) => influence_endpoint(ctx, req, id),
                ("GET", ["placement"]) => placement_endpoint(ctx, req, id, deadline),
                ("POST", ["relocate"]) => relocate_endpoint(ctx, req, id),
                ("POST", ["edit"]) => edit_endpoint(ctx, req, id),
                (
                    _,
                    ["fork" | "tile" | "viewport" | "topk" | "influence" | "placement" | "relocate"
                    | "edit"],
                ) => Response::text(405, "method not allowed"),
                _ => Response::text(404, "no such endpoint"),
            }
        }
        _ => Response::text(404, "no such endpoint"),
    }
}

/// Runs `f` over a read-locked session, or `404`s.
fn with_session<M: IncrementalMeasure + Send + Sync>(
    ctx: &Ctx<M>,
    id: u64,
    f: impl FnOnce(&Session<M>) -> Response,
) -> Response {
    match ctx.session(id) {
        Some(arc) => f(&arc.read().unwrap_or_else(|e| e.into_inner())),
        None => Response::text(404, "no such session (expired or never created)"),
    }
}

fn session_info<M: IncrementalMeasure>(id: u64, session: &Session<M>) -> Response {
    Response::json(
        200,
        format!(
            "{{\"session\":{id},\"fingerprint\":\"{:016x}\",\"generation\":{},\
             \"facilities\":{},\"circles\":{},\"k\":{}}}",
            session.fingerprint(),
            session.generation(),
            session.n_facilities(),
            session.n_circles(),
            session.k()
        ),
    )
}

fn create_session<M: IncrementalMeasure + Send + Sync>(
    ctx: &Ctx<M>,
    parent: Option<u64>,
) -> Response {
    let session = match parent {
        None => ctx.engine.session(),
        Some(pid) => match ctx.session(pid) {
            Some(arc) => arc.read().unwrap_or_else(|e| e.into_inner()).fork(),
            None => return Response::text(404, "no such session (expired or never created)"),
        },
    };
    let mut sessions = ctx.sessions.lock().unwrap_or_else(|e| e.into_inner());
    if sessions.len() >= ctx.config.max_sessions {
        return Response::text(503, "session table full; retry later").header("Retry-After", "1");
    }
    let id = ctx.next_session.fetch_add(1, Ordering::Relaxed);
    let fingerprint = session.fingerprint();
    let generation = session.generation();
    sessions.insert(
        id,
        SessionEntry {
            session: Arc::new(RwLock::new(session)),
            last_used: rnnhm_core::clock::now(),
        },
    );
    drop(sessions);
    ctx.counters.sessions_created.fetch_add(1, Ordering::Relaxed);
    Response::json(
        200,
        format!(
            "{{\"session\":{id},\"fingerprint\":\"{fingerprint:016x}\",\"generation\":{generation}}}"
        ),
    )
}

fn delete_session<M: IncrementalMeasure + Send + Sync>(ctx: &Ctx<M>, id: u64) -> Response {
    if id == ROOT_SESSION {
        return Response::text(400, "the root session is permanent");
    }
    let removed = ctx.sessions.lock().unwrap_or_else(|e| e.into_inner()).remove(&id);
    match removed {
        Some(_) => Response::new(204),
        None => Response::text(404, "no such session (expired or never created)"),
    }
}

fn tile_endpoint<M: IncrementalMeasure + Send + Sync>(
    ctx: &Ctx<M>,
    req: &Request,
    id: u64,
    z: &str,
    x: &str,
    y: &str,
) -> Response {
    let (Ok(zoom), Ok(tx), Ok(ty)) = (z.parse::<u8>(), x.parse::<u32>(), y.parse::<u32>()) else {
        return Response::text(400, "tile address must be {zoom}/{tx}/{ty} integers");
    };
    with_session(ctx, id, |session| {
        let scheme = session.tile_scheme();
        if zoom > scheme.max_zoom() || tx >= scheme.n_tiles(zoom) || ty >= scheme.n_tiles(zoom) {
            return Response::text(400, "tile address outside the pyramid");
        }
        // Approximate (LoD) tiles never carry the fingerprint ETag —
        // it is a strong validator certifying exact bytes — so
        // revalidation is only honored on the exact path.
        let approx_zoom = session.lod_exact_zoom().is_some_and(|ze| zoom < ze);
        let tag = etag(session.fingerprint());
        if !approx_zoom && req.header("if-none-match") == Some(tag.as_str()) {
            return Response::new(304).header("ETag", &tag);
        }
        if let Some(delay) = ctx.config.fault.render_delay() {
            std::thread::sleep(delay);
        }
        let frame = session.tile_lod(TileId { zoom, tx, ty });
        if frame.approx {
            raster_response(Arc::unwrap_or_clone(frame.raster))
                .header("Cache-Control", "private")
                .header("X-Approx", "1")
                .header("X-Approx-Error", &format!("{}", frame.error_bound))
        } else {
            raster_response(Arc::unwrap_or_clone(frame.raster))
                .header("ETag", &tag)
                .header("Cache-Control", "private, immutable")
                .header("X-Resolved", "1")
        }
    })
}

fn viewport_endpoint<M: IncrementalMeasure + Send + Sync>(
    ctx: &Ctx<M>,
    req: &Request,
    id: u64,
    deadline: Instant,
) -> Response {
    let parsed = (|| {
        let x0 = parse_f64(req, "x0")?;
        let x1 = parse_f64(req, "x1")?;
        let y0 = parse_f64(req, "y0")?;
        let y1 = parse_f64(req, "y1")?;
        let w = parse_u64(req, "w")?;
        let h = parse_u64(req, "h")?;
        if x0 >= x1 || y0 >= y1 {
            return Err(Response::text(422, "viewport extent must have positive area"));
        }
        // Finite endpoints can still subtract to an infinite span
        // (e.g. ±1e308), which would poison every downstream zoom and
        // pixel-size computation.
        if !(x1 - x0).is_finite() || !(y1 - y0).is_finite() {
            return Err(Response::text(422, "viewport extent width overflows"));
        }
        if !(1..=4096).contains(&w) || !(1..=4096).contains(&h) {
            return Err(Response::text(422, "viewport pixel size must be in 1..=4096"));
        }
        // Per-axis caps alone still admit a 4096×4096 = 128 MiB f64
        // raster; cap the total pixel budget *before* any allocation.
        if w * h > MAX_VIEWPORT_PIXELS {
            return Err(Response::text(422, "viewport pixel area exceeds the 4M-pixel budget"));
        }
        Ok((Rect::new(x0, x1, y0, y1), w as usize, h as usize))
    })();
    let (rect, w, h) = match parsed {
        Ok(p) => p,
        Err(resp) => return resp,
    };
    with_session(ctx, id, |session| {
        let tag = etag(session.fingerprint());
        if req.header("if-none-match") == Some(tag.as_str()) {
            // Only exact responses ever carry this ETag, so a match
            // certifies the client holds exact bytes — skip rendering
            // entirely.
            return Response::new(304).header("ETag", &tag);
        }
        if let Some(delay) = ctx.config.fault.render_delay() {
            std::thread::sleep(delay);
        }
        match session.viewport_deadline(rect, w, h, deadline) {
            ViewportFrame::Exact(raster) => {
                raster_response(raster).header("ETag", &tag).header("X-Resolved", "1")
            }
            ViewportFrame::Degraded(preview) => {
                ctx.counters.degraded.fetch_add(1, Ordering::Relaxed);
                raster_response(preview.raster)
                    .header("X-Degraded", "1")
                    .header("X-Resolved", &format!("{}", preview.resolved))
            }
            ViewportFrame::Approx { raster, error_bound } => {
                // A complete LoD answer, not a degraded one: labeled
                // approximate, with its measured error bound, and
                // without the strong-validator ETag.
                raster_response(raster)
                    .header("X-Approx", "1")
                    .header("X-Approx-Error", &format!("{error_bound}"))
            }
        }
    })
}

fn topk_endpoint<M: IncrementalMeasure + Send + Sync>(
    ctx: &Ctx<M>,
    req: &Request,
    id: u64,
) -> Response {
    let k = match req.param("k") {
        None => 5,
        Some(raw) => match raw.parse::<usize>() {
            Ok(k) if (1..=1000).contains(&k) => k,
            _ => return Response::text(422, "k must be an integer in 1..=1000"),
        },
    };
    with_session(ctx, id, |session| {
        let regions = session.top_k(k);
        let items: Vec<String> = regions.iter().map(|r| region_json(session, r)).collect();
        Response::json(200, format!("{{\"regions\":[{}]}}", items.join(",")))
    })
}

fn influence_endpoint<M: IncrementalMeasure + Send + Sync>(
    ctx: &Ctx<M>,
    req: &Request,
    id: u64,
) -> Response {
    let (x, y) = match (parse_f64(req, "x"), parse_f64(req, "y")) {
        (Ok(x), Ok(y)) => (x, y),
        (Err(resp), _) | (_, Err(resp)) => return resp,
    };
    with_session(ctx, id, |session| {
        let (rnn, influence) = session.influence_at(Point::new(x, y));
        let ids: Vec<String> = rnn.iter().map(|c| c.to_string()).collect();
        Response::json(
            200,
            format!("{{\"influence\":{},\"rnn\":[{}]}}", json::number(influence), ids.join(",")),
        )
    })
}

fn placement_json(p: &PlacementRegion) -> String {
    format!(
        "{{\"point\":[{},{}],\"bbox\":[{},{},{},{}],\"influence\":{},\"rnn_size\":{}}}",
        json::number(p.point.x),
        json::number(p.point.y),
        json::number(p.bbox.x_lo),
        json::number(p.bbox.x_hi),
        json::number(p.bbox.y_lo),
        json::number(p.bbox.y_hi),
        json::number(p.influence),
        p.rnn.len()
    )
}

/// Top-m MaxBRkNN placement regions. The answer is a pure function of
/// the snapshot fingerprint and the measure, so the fingerprint ETag
/// is a strong validator and `304` revalidation is exact. Unlike
/// viewports, placement never degrades: past the deadline the request
/// is rejected with `503 Retry-After` — an optimizer must not
/// silently return an approximate argmax.
fn placement_endpoint<M: IncrementalMeasure + Send + Sync>(
    ctx: &Ctx<M>,
    req: &Request,
    id: u64,
    deadline: Instant,
) -> Response {
    let m = match req.param("m") {
        None => 3,
        Some(raw) => match raw.parse::<usize>() {
            Ok(m) if (1..=100).contains(&m) => m,
            _ => return Response::text(422, "m must be an integer in 1..=100"),
        },
    };
    with_session(ctx, id, |session| {
        let tag = etag(session.fingerprint());
        if req.header("if-none-match") == Some(tag.as_str()) {
            return Response::new(304).header("ETag", &tag);
        }
        if let Some(delay) = ctx.config.fault.render_delay() {
            std::thread::sleep(delay);
        }
        if rnnhm_core::clock::now() >= deadline {
            ctx.counters.deadline_rejected.fetch_add(1, Ordering::Relaxed);
            return Response::text(503, "placement deadline exceeded; exact answer unavailable")
                .header("Retry-After", "1");
        }
        if ctx.config.fault.should_panic_placement() {
            // lint:allow(panic-path): deliberate fault injection exercising the catch_unwind isolation
            panic!("injected placement panic");
        }
        let placements = session.top_placements(m);
        let items: Vec<String> = placements.iter().map(placement_json).collect();
        Response::json(
            200,
            format!(
                "{{\"fingerprint\":\"{:016x}\",\"m\":{m},\"placements\":[{}]}}",
                session.fingerprint(),
                items.join(",")
            ),
        )
        .header("ETag", &tag)
    })
}

/// Moves a facility to its best location (tentative remove + best
/// re-insert, then a committed move). Errors from the edit engine —
/// unknown facility, too few facilities for the session's `k` — come
/// back as `422` with nothing committed.
fn relocate_endpoint<M: IncrementalMeasure + Send + Sync>(
    ctx: &Ctx<M>,
    req: &Request,
    id: u64,
) -> Response {
    let raw = match parse_u64(req, "facility") {
        Ok(f) => f,
        Err(resp) => return resp,
    };
    let Some(arc) = ctx.session(id) else {
        return Response::text(404, "no such session (expired or never created)");
    };
    let mut session = arc.write().unwrap_or_else(|e| e.into_inner());
    let rel = match facility_id(raw).and_then(|fid| session.best_relocation(fid)) {
        Ok(rel) => rel,
        Err(err) => return Response::text(422, &format!("relocation rejected: {err}")),
    };
    let fid = rel.facility;
    match session.move_facility(fid, rel.best.point) {
        Ok(dirty) => Response::json(
            200,
            format!(
                "{{\"facility\":{fid},\"from\":[{},{}],\"to\":[{},{}],\"influence\":{},\
                 \"gain\":{},\"fingerprint\":\"{:016x}\",\"generation\":{},\"dirty_rects\":{}}}",
                json::number(rel.from.x),
                json::number(rel.from.y),
                json::number(rel.best.point.x),
                json::number(rel.best.point.y),
                json::number(rel.best.influence),
                json::number(rel.gain),
                session.fingerprint(),
                session.generation(),
                dirty.rects().len()
            ),
        ),
        Err(err) => Response::text(422, &format!("relocation rejected: {err}")),
    }
}

fn edit_endpoint<M: IncrementalMeasure + Send + Sync>(
    ctx: &Ctx<M>,
    req: &Request,
    id: u64,
) -> Response {
    let Some(arc) = ctx.session(id) else {
        return Response::text(404, "no such session (expired or never created)");
    };
    let mut session = arc.write().unwrap_or_else(|e| e.into_inner());
    let op = req.param("op").unwrap_or("");
    let outcome = match op {
        "add" => {
            let (x, y) = match (parse_f64(req, "x"), parse_f64(req, "y")) {
                (Ok(x), Ok(y)) => (x, y),
                (Err(resp), _) | (_, Err(resp)) => return resp,
            };
            session.add_facility(Point::new(x, y)).map(|(fid, dirty)| (Some(fid), dirty))
        }
        "remove" => match parse_u64(req, "id") {
            Ok(raw) => facility_id(raw)
                .and_then(|fid| session.remove_facility(fid))
                .map(|dirty| (None, dirty)),
            Err(resp) => return resp,
        },
        "move" => {
            let raw = match parse_u64(req, "id") {
                Ok(raw) => raw,
                Err(resp) => return resp,
            };
            let (x, y) = match (parse_f64(req, "x"), parse_f64(req, "y")) {
                (Ok(x), Ok(y)) => (x, y),
                (Err(resp), _) | (_, Err(resp)) => return resp,
            };
            facility_id(raw)
                .and_then(|fid| session.move_facility(fid, Point::new(x, y)))
                .map(|dirty| (None, dirty))
        }
        _ => return Response::text(400, "op must be one of add, remove, move"),
    };
    match outcome {
        Ok((fid, dirty)) => {
            let facility = fid.map_or("null".to_string(), |f| f.to_string());
            let bbox = dirty.bbox().map_or("null".to_string(), |b| {
                format!(
                    "[{},{},{},{}]",
                    json::number(b.x_lo),
                    json::number(b.x_hi),
                    json::number(b.y_lo),
                    json::number(b.y_hi)
                )
            });
            Response::json(
                200,
                format!(
                    "{{\"facility\":{facility},\"fingerprint\":\"{:016x}\",\"generation\":{},\
                     \"dirty_rects\":{},\"dirty_bbox\":{bbox}}}",
                    session.fingerprint(),
                    session.generation(),
                    dirty.rects().len()
                ),
            )
        }
        Err(err) => Response::text(422, &format!("edit rejected: {err}")),
    }
}

fn stats_response<M: IncrementalMeasure + Send + Sync>(ctx: &Ctx<M>) -> Response {
    let s = ctx.stats();
    let cache = ctx.engine.cache_stats();
    let registry = ctx.engine.registry_stats();
    let faults = ctx.config.fault.counts();
    Response::json(
        200,
        format!(
            "{{\"server\":{{\"accepted\":{},\"requests\":{},\"responses_2xx\":{},\
             \"responses_3xx\":{},\"responses_4xx\":{},\"responses_5xx\":{},\"shed\":{},\
             \"degraded\":{},\"deadline_rejected\":{},\"panics_caught\":{},\"read_timeouts\":{},\
             \"dropped_connections\":{},\"truncated_writes\":{},\"queue_high_water\":{},\
             \"sessions_live\":{},\"sessions_created\":{},\"sessions_reaped\":{}}},\
             \"cache\":{{\"hits\":{},\"misses\":{},\"insertions\":{},\"entries\":{},\
             \"bytes\":{},\"bytes_quantized\":{},\"bytes_exact\":{},\
             \"single_flight_waits\":{},\"single_flight_dedups\":{},\
             \"deadline_giveups\":{}}},\
             \"registry\":{{\"entries\":{},\"live\":{},\"registered\":{}}},\
             \"faults\":{{\"delays\":{},\"panics\":{},\"drops\":{},\"truncations\":{}}}}}",
            s.accepted,
            s.requests,
            s.responses_2xx,
            s.responses_3xx,
            s.responses_4xx,
            s.responses_5xx,
            s.shed,
            s.degraded,
            s.deadline_rejected,
            s.panics_caught,
            s.read_timeouts,
            s.dropped_connections,
            s.truncated_writes,
            s.queue_high_water,
            s.sessions_live,
            s.sessions_created,
            s.sessions_reaped,
            cache.hits,
            cache.misses,
            cache.insertions,
            cache.entries,
            cache.bytes,
            cache.bytes_quantized,
            cache.bytes_exact,
            cache.single_flight_waits,
            cache.single_flight_dedups,
            cache.deadline_giveups,
            registry.entries,
            registry.live,
            registry.registered,
            faults.delays,
            faults.panics,
            faults.drops,
            faults.truncations,
        ),
    )
}
