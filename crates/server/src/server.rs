//! The event-driven TCP daemon.
//!
//! Architecture: a blocking acceptor registers capped, non-blocking
//! connections onto poller *shards* (round-robin). Each shard owns its
//! connections outright — a slab of [`Conn`]s with per-connection read
//! and write buffers — and loops: drain its mailbox (new registrations,
//! worker completions), read whatever each connection has, dispatch
//! complete request lines, and flush pending responses. Cheap methods
//! (`explain`, `stats`, `health`, `list_queries`, `shutdown`) execute
//! inline on the shard; discovery runs (`run_*`), debug sleeps, and
//! requests needing a cold artifact load are offloaded to worker
//! threads over per-worker bounded channels — each worker exclusively
//! owns its receiver, so dequeues never contend on a shared lock (the
//! old `Mutex<Receiver>` held across `recv_timeout` serialized every
//! worker on one mutex). A full queue sheds with a typed `overloaded`
//! error; so does a connect beyond `max_connections` and a tenant over
//! its admission quota.
//!
//! There are no busy-wait polls: the acceptor blocks in `accept` (a
//! shutdown wakes it with a loopback self-connect), shards park on
//! their mailbox condvar after a bounded spin of empty passes, and
//! [`ServerHandle::wait`] blocks on a condvar instead of spinning.
//!
//! Deadlines start when the *first byte* of a request is read off the
//! socket — not when the parsed request is enqueued — so a slow-loris
//! client that dribbles a request across its own `deadline_ms` is
//! answered `deadline_exceeded` like any other late request. Workers
//! re-check the same clock at dequeue.
//!
//! Responses stay in request order per connection: each request gets a
//! sequence number at parse time and a small reorder buffer releases
//! completions in sequence, so pipelined clients read responses in the
//! order they wrote requests — byte-identical to a sequential client.

use crate::metrics::Metrics;
use crate::protocol::{err_response, obj, ok_response, ok_response_raw, parse_request, Request};
use crate::service::{Body, Registry};
use rqp_faults::{FaultPlan, FaultSite};
use serde::Value;
use std::collections::{BTreeMap, HashMap};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Empty passes a shard spins through before parking on its condvar.
const SPIN_PASSES: u32 = 256;
/// Park duration; bounds how stale time-based checks (stall timeouts)
/// can get on an otherwise idle shard, and keeps worst-case shutdown
/// latency well under the 10ms budget the tests assert.
const PARK: Duration = Duration::from_millis(1);
/// Read chunks taken from one connection per pass before moving on, so
/// a firehose client cannot starve its shard siblings.
const READS_PER_PASS: usize = 8;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads executing offloaded (`run_*` / debug-sleep /
    /// cold-load) requests.
    pub workers: usize,
    /// Bounded admission capacity across the worker pool (split evenly
    /// into per-worker queues); requests beyond it are shed.
    pub queue_capacity: usize,
    /// Poller shards servicing connections.
    pub shards: usize,
    /// Hard cap on concurrently registered connections; a connect
    /// beyond it is answered `overloaded` and closed instead of
    /// spawning unbounded per-connection threads.
    pub max_connections: usize,
    /// Per-tenant cap on in-flight offloaded requests (`None` = no
    /// quota). Tenants are named by the request's `tenant` field;
    /// requests without one share the anonymous tenant.
    pub tenant_quota: Option<usize>,
    /// Deadline applied when a request carries no `deadline_ms`.
    pub default_deadline: Duration,
    /// Honor the debug `sleep_ms` request field (load tests only).
    pub allow_debug_sleep: bool,
    /// Hard cap on one request line; a longer line is answered
    /// `bad_request` and the connection closed, so an unbounded client
    /// cannot grow the server's buffer without limit.
    pub max_line_bytes: usize,
    /// How long a connection may sit mid-line (bytes received, no
    /// terminating newline) before it is answered `timeout` and closed —
    /// a stalled client cannot pin server state forever. Idle
    /// connections *between* requests are unaffected.
    pub read_timeout: Duration,
    /// How long a stopping shard keeps collecting worker completions
    /// for in-flight requests before synthesizing typed
    /// `shutting_down` errors for whatever is still unanswered. An
    /// idle shard (nothing in flight) exits immediately regardless.
    pub shutdown_drain: Duration,
    /// Connection-level fault plan (`server.read` / `server.write`
    /// drops); `None` serves faithfully.
    pub faults: Option<Arc<FaultPlan>>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            queue_capacity: 64,
            shards: 2,
            max_connections: 1024,
            tenant_quota: None,
            default_deadline: Duration::from_secs(30),
            allow_debug_sleep: false,
            max_line_bytes: 1 << 20,
            read_timeout: Duration::from_secs(30),
            shutdown_drain: Duration::from_millis(100),
            faults: None,
        }
    }
}

/// One admitted request travelling to the worker pool.
struct Job {
    req: Request,
    /// When the request's first byte was read off the socket — the
    /// deadline clock's origin.
    started: Instant,
    deadline: Duration,
    /// Routing back to the owning connection.
    shard: usize,
    slot: usize,
    gen: u64,
    seq: u64,
    /// Tenant charged for this job, released when it completes.
    tenant: Option<String>,
}

/// A finished offloaded request returning to its shard.
struct Completion {
    slot: usize,
    gen: u64,
    seq: u64,
    line: String,
}

/// A shard's mailbox: new connections from the acceptor and finished
/// jobs from workers, with a condvar the shard parks on when idle.
#[derive(Default)]
struct Inbox {
    registrations: Vec<TcpStream>,
    completions: Vec<Completion>,
}

struct Mailbox {
    inbox: Mutex<Inbox>,
    cv: Condvar,
}

impl Mailbox {
    fn new() -> Self {
        Self {
            inbox: Mutex::new(Inbox::default()),
            cv: Condvar::new(),
        }
    }

    fn notify(&self) {
        // Taking the lock (even empty) serializes with a parking
        // shard's predicate check, so a wakeup cannot slip between
        // "inbox is empty" and the wait.
        drop(self.inbox.lock().unwrap());
        self.cv.notify_all();
    }
}

/// Shared shutdown signalling: an atomic flag for hot-path checks, a
/// condvar-guarded copy for [`ServerHandle::wait`], the shard mailboxes
/// to kick, and the listen address for the loopback self-connect that
/// unblocks the acceptor.
struct Waker {
    stop: AtomicBool,
    addr: SocketAddr,
    stopped: Mutex<bool>,
    stopped_cv: Condvar,
    mailboxes: Arc<Vec<Mailbox>>,
}

impl Waker {
    fn is_stopped(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Signals shutdown exactly once: flips the flag, wakes waiters and
    /// every shard, and self-connects to pop the acceptor out of
    /// `accept`.
    fn signal_stop(&self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        *self.stopped.lock().unwrap() = true;
        self.stopped_cv.notify_all();
        for mb in self.mailboxes.iter() {
            mb.notify();
        }
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(200));
    }

    fn wait_stopped(&self) {
        let mut stopped = self.stopped.lock().unwrap();
        while !*stopped {
            stopped = self.stopped_cv.wait(stopped).unwrap();
        }
    }
}

/// In-flight offloaded requests per tenant, for admission quotas.
type TenantLoad = Mutex<HashMap<String, usize>>;

fn tenant_key(t: &Option<String>) -> String {
    t.clone().unwrap_or_default()
}

fn release_tenant(tenants: &TenantLoad, tenant: &Option<String>) {
    let key = tenant_key(tenant);
    let mut load = tenants.lock().unwrap();
    if let Some(n) = load.get_mut(&key) {
        *n -= 1;
        if *n == 0 {
            load.remove(&key);
        }
    }
}

/// A running server; dropping the handle does **not** stop it — call
/// [`stop`](Self::stop).
pub struct ServerHandle {
    /// The bound address (useful with port 0).
    pub addr: SocketAddr,
    waker: Arc<Waker>,
    acceptor: Option<JoinHandle<()>>,
    shards: Vec<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    metrics: Arc<Metrics>,
}

impl ServerHandle {
    /// The server's metrics (shared with the `stats` method).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    fn join_all(&mut self) {
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        for h in self.shards.drain(..) {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }

    /// Signals shutdown and joins every server thread.
    pub fn stop(mut self) {
        self.waker.signal_stop();
        self.join_all();
    }

    /// True once a `shutdown` request or [`stop`](Self::stop) was seen.
    pub fn is_stopped(&self) -> bool {
        self.waker.is_stopped()
    }

    /// Blocks (on a condvar — no polling) until the server stops via a
    /// `shutdown` request, then joins its threads.
    pub fn wait(mut self) {
        self.waker.wait_stopped();
        self.join_all();
    }
}

/// Binds `addr` and serves `registry` until stopped. Returns immediately
/// with a [`ServerHandle`]; all work happens on background threads.
pub fn serve(
    registry: Registry,
    addr: impl ToSocketAddrs,
    config: ServerConfig,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let local_addr = listener.local_addr()?;

    let registry = Arc::new(registry);
    let metrics = Arc::new(Metrics::new());
    let tenants: Arc<TenantLoad> = Arc::new(Mutex::new(HashMap::new()));
    let conn_count = Arc::new(AtomicUsize::new(0));

    let nshards = config.shards.max(1);
    let nworkers = config.workers.max(1);
    let mailboxes: Arc<Vec<Mailbox>> = Arc::new((0..nshards).map(|_| Mailbox::new()).collect());
    let waker = Arc::new(Waker {
        stop: AtomicBool::new(false),
        addr: local_addr,
        stopped: Mutex::new(false),
        stopped_cv: Condvar::new(),
        mailboxes: Arc::clone(&mailboxes),
    });

    // Sharded worker handoff: each worker exclusively owns a bounded
    // receiver, so dequeueing is lock-free across workers. The total
    // admission capacity is split evenly (min 1 per worker).
    let per_worker = (config.queue_capacity / nworkers).max(1);
    let mut senders: Vec<SyncSender<Job>> = Vec::with_capacity(nworkers);
    let workers: Vec<JoinHandle<()>> = (0..nworkers)
        .map(|_| {
            let (tx, rx) = std::sync::mpsc::sync_channel::<Job>(per_worker);
            senders.push(tx);
            let registry = Arc::clone(&registry);
            let metrics = Arc::clone(&metrics);
            let waker = Arc::clone(&waker);
            let mailboxes = Arc::clone(&mailboxes);
            let tenants = Arc::clone(&tenants);
            let config = config.clone();
            std::thread::spawn(move || {
                worker_loop(
                    rx, &registry, &metrics, &waker, &mailboxes, &tenants, &config,
                )
            })
        })
        .collect();

    let shards: Vec<JoinHandle<()>> = (0..nshards)
        .map(|shard_id| {
            let registry = Arc::clone(&registry);
            let metrics = Arc::clone(&metrics);
            let waker = Arc::clone(&waker);
            let mailboxes = Arc::clone(&mailboxes);
            let tenants = Arc::clone(&tenants);
            let conn_count = Arc::clone(&conn_count);
            let senders = senders.clone();
            let config = config.clone();
            std::thread::spawn(move || {
                shard_loop(
                    shard_id,
                    &mailboxes,
                    senders,
                    &registry,
                    &metrics,
                    &waker,
                    &tenants,
                    &conn_count,
                    &config,
                )
            })
        })
        .collect();
    // The shards hold the only senders now: when every shard exits on
    // stop, workers see Disconnected and exit — no shutdown polling.
    drop(senders);

    let acceptor = {
        let waker = Arc::clone(&waker);
        let metrics = Arc::clone(&metrics);
        let mailboxes = Arc::clone(&mailboxes);
        let conn_count = Arc::clone(&conn_count);
        let max_connections = config.max_connections.max(1);
        std::thread::spawn(move || {
            let mut rr = 0usize;
            loop {
                match listener.accept() {
                    Ok((stream, _)) => {
                        if waker.is_stopped() {
                            break; // possibly the wake self-connect
                        }
                        let _ = stream.set_nodelay(true);
                        if conn_count.load(Ordering::SeqCst) >= max_connections {
                            shed_connection(stream, max_connections, &metrics);
                            continue;
                        }
                        if stream.set_nonblocking(true).is_err() {
                            continue;
                        }
                        conn_count.fetch_add(1, Ordering::SeqCst);
                        let mb = &mailboxes[rr % mailboxes.len()];
                        rr = rr.wrapping_add(1);
                        mb.inbox.lock().unwrap().registrations.push(stream);
                        mb.cv.notify_all();
                    }
                    Err(_) => {
                        if waker.is_stopped() {
                            break;
                        }
                    }
                }
            }
        })
    };

    Ok(ServerHandle {
        addr: local_addr,
        waker,
        acceptor: Some(acceptor),
        shards,
        workers,
        metrics,
    })
}

/// Answers a connect beyond the connection cap with a typed shed and
/// closes it — a connect flood degrades explicitly instead of
/// exhausting threads or file-descriptor-per-thread state.
fn shed_connection(mut stream: TcpStream, max_connections: usize, metrics: &Metrics) {
    metrics.record_shed("<connect>");
    let _ = stream.set_write_timeout(Some(Duration::from_millis(200)));
    let response = err_response(
        &Value::Null,
        "overloaded",
        &format!("connection limit ({max_connections}) reached; retry later"),
    );
    let _ = stream.write_all(format!("{response}\n").as_bytes());
}

// ---- Per-connection state ----------------------------------------------

struct Conn {
    stream: TcpStream,
    gen: u64,
    /// Accumulated request bytes without a terminating newline yet.
    buf: Vec<u8>,
    /// Pending response bytes not yet accepted by the socket.
    out: Vec<u8>,
    /// Next request sequence number to assign at parse time.
    next_seq: u64,
    /// Next sequence number eligible to be written out.
    next_write: u64,
    /// Out-of-order completed responses awaiting their turn.
    ready: BTreeMap<u64, String>,
    /// Offloaded requests outstanding on this connection.
    inflight: usize,
    /// When the current partial request's first byte arrived (None when
    /// `buf` is empty) — origin of both the deadline clock and the
    /// mid-line stall timeout.
    first_byte: Option<Instant>,
    /// Client hung up or a fatal protocol error was answered: finish
    /// flushing in-flight responses, then drop.
    closing: bool,
    /// Connection is unrecoverable; remove it now.
    dead: bool,
}

impl Conn {
    fn new(stream: TcpStream, gen: u64) -> Self {
        Self {
            stream,
            gen,
            buf: Vec::new(),
            out: Vec::new(),
            next_seq: 0,
            next_write: 0,
            ready: BTreeMap::new(),
            inflight: 0,
            first_byte: None,
            closing: false,
            dead: false,
        }
    }

    /// Queues `line` as the response to request `seq`, releasing any
    /// consecutive run of buffered responses into the write buffer.
    fn respond(&mut self, seq: u64, line: String) {
        self.ready.insert(seq, line);
        while let Some(line) = self.ready.remove(&self.next_write) {
            self.out.extend_from_slice(line.as_bytes());
            self.out.push(b'\n');
            self.next_write += 1;
        }
    }

    /// Non-blocking flush of the write buffer. Returns false if the
    /// connection died.
    fn try_flush(&mut self) -> bool {
        let mut written = 0usize;
        while written < self.out.len() {
            match self.stream.write(&self.out[written..]) {
                Ok(0) => {
                    self.dead = true;
                    break;
                }
                Ok(n) => written += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        self.out.drain(..written);
        !self.dead
    }

    /// True once every response has been flushed and nothing is pending.
    fn drained(&self) -> bool {
        self.inflight == 0 && self.ready.is_empty() && self.out.is_empty()
    }
}

// ---- Shard loop --------------------------------------------------------

#[allow(clippy::too_many_arguments)]
fn shard_loop(
    shard_id: usize,
    mailboxes: &[Mailbox],
    senders: Vec<SyncSender<Job>>,
    registry: &Registry,
    metrics: &Metrics,
    waker: &Waker,
    tenants: &TenantLoad,
    conn_count: &AtomicUsize,
    config: &ServerConfig,
) {
    let mailbox = &mailboxes[shard_id];
    let mut conns: Vec<Option<Conn>> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    let mut generation = 0u64;
    let mut scratch = vec![0u8; 64 * 1024];
    let mut idle_passes = 0u32;
    let mut rr_worker = shard_id;
    // Set when the stop signal is first seen; bounds how long the shard
    // keeps collecting completions for in-flight requests.
    let mut draining: Option<Instant> = None;

    loop {
        // Drain the mailbox; park here (bounded, condvar-signalled) once
        // the shard has spun through enough empty passes. Parking is
        // also allowed while draining a shutdown — the 1ms timeout keeps
        // completion pickup prompt without a busy spin.
        let (registrations, completions) = {
            let mut inbox = mailbox.inbox.lock().unwrap();
            if inbox.registrations.is_empty()
                && inbox.completions.is_empty()
                && idle_passes > SPIN_PASSES
            {
                let (guard, _) = mailbox.cv.wait_timeout(inbox, PARK).unwrap();
                inbox = guard;
            }
            (
                std::mem::take(&mut inbox.registrations),
                std::mem::take(&mut inbox.completions),
            )
        };

        let mut did_work = !registrations.is_empty() || !completions.is_empty();

        for stream in registrations {
            generation += 1;
            let conn = Conn::new(stream, generation);
            match free.pop() {
                Some(slot) => conns[slot] = Some(conn),
                None => conns.push(Some(conn)),
            }
        }

        for completion in completions {
            let Some(Some(conn)) = conns.get_mut(completion.slot) else {
                continue;
            };
            if conn.gen != completion.gen {
                continue; // slot was reused; the original conn is gone
            }
            conn.inflight -= 1;
            if let Some(plan) = &config.faults {
                if plan.should_inject(FaultSite::ServerWrite) {
                    metrics.record_injected();
                    conn.dead = true;
                    continue;
                }
            }
            conn.respond(completion.seq, completion.line);
        }

        for (slot, entry) in conns.iter_mut().enumerate() {
            let Some(conn) = entry.as_mut() else {
                continue;
            };
            if !conn.dead {
                did_work |= service_conn(
                    conn,
                    slot,
                    shard_id,
                    &senders,
                    &mut rr_worker,
                    &mut scratch,
                    registry,
                    metrics,
                    waker,
                    tenants,
                    config,
                );
            }
            if conn.dead || (conn.closing && conn.drained()) {
                *entry = None;
                free.push(slot);
                conn_count.fetch_sub(1, Ordering::SeqCst);
            }
        }

        if waker.is_stopped() {
            // Drain mode: keep collecting worker completions so every
            // accepted request is answered — a full response when its
            // worker finishes inside the drain window, a typed
            // `shutting_down` error otherwise. Never a silent drop. An
            // idle shard (everything drained) exits immediately, which
            // is what keeps no-load shutdown latency in single-digit
            // milliseconds.
            let since = *draining.get_or_insert_with(Instant::now);
            let all_drained = conns.iter().flatten().all(|c| c.dead || c.drained());
            if all_drained || since.elapsed() >= config.shutdown_drain {
                for conn in conns.iter_mut().flatten() {
                    let unanswered: Vec<u64> = (conn.next_write..conn.next_seq)
                        .filter(|s| !conn.ready.contains_key(s))
                        .collect();
                    for seq in unanswered {
                        conn.inflight = conn.inflight.saturating_sub(1);
                        conn.respond(
                            seq,
                            err_response(
                                &Value::Null,
                                "shutting_down",
                                "server shut down before this request completed",
                            ),
                        );
                    }
                    let _ = conn.try_flush();
                }
                break;
            }
        }

        idle_passes = if did_work {
            0
        } else {
            idle_passes.saturating_add(1)
        };
    }

    let open = conns.iter().flatten().count();
    conn_count.fetch_sub(open, Ordering::SeqCst);
    // Dropping `senders` here releases the workers once every shard exits.
}

/// Reads, dispatches, and flushes one connection. Returns true if any
/// byte moved or request was dispatched.
#[allow(clippy::too_many_arguments)]
fn service_conn(
    conn: &mut Conn,
    slot: usize,
    shard_id: usize,
    senders: &[SyncSender<Job>],
    rr_worker: &mut usize,
    scratch: &mut [u8],
    registry: &Registry,
    metrics: &Metrics,
    waker: &Waker,
    tenants: &TenantLoad,
    config: &ServerConfig,
) -> bool {
    let mut did_work = false;

    if !conn.closing {
        for _ in 0..READS_PER_PASS {
            match conn.stream.read(scratch) {
                Ok(0) => {
                    conn.closing = true;
                    break;
                }
                Ok(n) => {
                    did_work = true;
                    if let Some(plan) = &config.faults {
                        if plan.should_inject(FaultSite::ServerRead) {
                            metrics.record_injected();
                            conn.dead = true;
                            return true; // injected connection drop mid-read
                        }
                    }
                    conn.buf.extend_from_slice(&scratch[..n]);
                    if n < scratch.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.dead = true;
                    return true;
                }
            }
        }
    }

    // Dispatch every complete line. The first one inherits the stored
    // first-byte instant (slow-loris defense); later lines in the same
    // batch started "now".
    let now = Instant::now();
    while let Some(pos) = conn.buf.iter().position(|&b| b == b'\n') {
        let line: Vec<u8> = conn.buf.drain(..=pos).collect();
        let line = &line[..line.len() - 1];
        let started = conn.first_byte.take().unwrap_or(now);
        if line.len() > config.max_line_bytes {
            let response = err_response(
                &Value::Null,
                "bad_request",
                &format!(
                    "request line of {} bytes exceeds the {}-byte cap",
                    line.len(),
                    config.max_line_bytes
                ),
            );
            let seq = conn.next_seq;
            conn.next_seq += 1;
            conn.respond(seq, response);
            conn.closing = true;
            break;
        }
        let text = String::from_utf8_lossy(line);
        let trimmed = text.trim();
        if trimmed.is_empty() {
            continue;
        }
        did_work = true;
        dispatch_line(
            conn, slot, shard_id, trimmed, started, senders, rr_worker, registry, metrics, waker,
            tenants, config,
        );
        if conn.dead || conn.closing {
            break;
        }
    }

    if conn.buf.is_empty() {
        conn.first_byte = None;
    } else {
        conn.first_byte.get_or_insert(now);
        if conn.buf.len() > config.max_line_bytes {
            let response = err_response(
                &Value::Null,
                "bad_request",
                &format!(
                    "unterminated request exceeds the {}-byte cap",
                    config.max_line_bytes
                ),
            );
            let seq = conn.next_seq;
            conn.next_seq += 1;
            conn.respond(seq, response);
            conn.closing = true;
        } else if let Some(since) = conn.first_byte {
            if since.elapsed() >= config.read_timeout {
                let response = err_response(
                    &Value::Null,
                    "timeout",
                    &format!(
                        "request stalled mid-line for over {}ms",
                        config.read_timeout.as_millis()
                    ),
                );
                let seq = conn.next_seq;
                conn.next_seq += 1;
                conn.respond(seq, response);
                conn.closing = true;
            }
        }
    }

    conn.try_flush();
    did_work
}

/// Parses one request line and either executes it inline (cheap
/// methods over resident queries) or offloads it to the worker pool
/// under admission control.
#[allow(clippy::too_many_arguments)]
fn dispatch_line(
    conn: &mut Conn,
    slot: usize,
    shard_id: usize,
    line: &str,
    started: Instant,
    senders: &[SyncSender<Job>],
    rr_worker: &mut usize,
    registry: &Registry,
    metrics: &Metrics,
    waker: &Waker,
    tenants: &TenantLoad,
    config: &ServerConfig,
) {
    let seq = conn.next_seq;
    conn.next_seq += 1;

    let respond = |conn: &mut Conn, seq: u64, response: String| {
        if let Some(plan) = &config.faults {
            if plan.should_inject(FaultSite::ServerWrite) {
                metrics.record_injected();
                conn.dead = true;
                return;
            }
        }
        conn.respond(seq, response);
    };

    let req = match parse_request(line) {
        Ok(r) => r,
        Err((kind, message)) => {
            metrics.record("<invalid>", false, Duration::ZERO);
            respond(conn, seq, err_response(&Value::Null, &kind, &message));
            return;
        }
    };
    // Requests arriving after the stop signal are refused with a typed
    // error rather than raced against the draining shards.
    if waker.is_stopped() {
        metrics.record(&req.method, false, Duration::ZERO);
        respond(
            conn,
            seq,
            err_response(&req.id, "shutting_down", "server is shutting down"),
        );
        return;
    }
    let deadline = req
        .deadline_ms
        .map(Duration::from_millis)
        .unwrap_or(config.default_deadline);

    let debug_sleep = config.allow_debug_sleep && req.sleep_ms > 0;
    let inline = !debug_sleep
        && match req.method.as_str() {
            "stats" | "health" | "list_queries" | "shutdown" => true,
            // Cheap only while the query is resident; a cold artifact
            // load must not block the poller shard.
            "explain" => req
                .query
                .as_deref()
                .is_none_or(|name| registry.is_resident(name)),
            _ => false,
        };

    if inline {
        let response = if started.elapsed() > deadline {
            metrics.record_deadline_expired(&req.method);
            err_response(
                &req.id,
                "deadline_exceeded",
                &format!(
                    "request aged {}ms since its first byte, past its {}ms deadline",
                    started.elapsed().as_millis(),
                    deadline.as_millis()
                ),
            )
        } else {
            execute(&req, registry, metrics, waker, config)
        };
        respond(conn, seq, response);
        return;
    }

    // Offload path: tenant quota, then the sharded worker queues.
    if let Some(quota) = config.tenant_quota {
        let key = tenant_key(&req.tenant);
        let mut load = tenants.lock().unwrap();
        let n = load.entry(key).or_insert(0);
        if *n >= quota {
            drop(load);
            metrics.record_shed(&req.method);
            let tenant = req.tenant.as_deref().unwrap_or("<anonymous>");
            respond(
                conn,
                seq,
                err_response(
                    &req.id,
                    "overloaded",
                    &format!("tenant `{tenant}` is at its quota of {quota} in-flight requests"),
                ),
            );
            return;
        }
        *n += 1;
    }

    let method = req.method.clone();
    let id = req.id.clone();
    let tenant = config.tenant_quota.is_some().then(|| req.tenant.clone());
    let mut job = Job {
        req,
        started,
        deadline,
        shard: shard_id,
        slot,
        gen: conn.gen,
        seq,
        tenant: tenant.clone().flatten(),
    };
    let admitted_tenant = tenant.is_some();
    for attempt in 0..senders.len() {
        let idx = (*rr_worker + attempt) % senders.len();
        match senders[idx].try_send(job) {
            Ok(()) => {
                *rr_worker = (idx + 1) % senders.len();
                conn.inflight += 1;
                return;
            }
            Err(TrySendError::Full(j)) => job = j,
            Err(TrySendError::Disconnected(j)) => {
                job = j;
                break;
            }
        }
    }
    if admitted_tenant {
        release_tenant(tenants, &job.tenant);
    }
    metrics.record_shed(&method);
    respond(
        conn,
        seq,
        err_response(
            &id,
            "overloaded",
            &format!(
                "admission queue full ({} slots); retry later",
                config.queue_capacity
            ),
        ),
    );
}

// ---- Workers -----------------------------------------------------------

fn worker_loop(
    rx: Receiver<Job>,
    registry: &Registry,
    metrics: &Metrics,
    waker: &Waker,
    mailboxes: &[Mailbox],
    tenants: &TenantLoad,
    config: &ServerConfig,
) {
    // Blocking receive on an exclusively-owned queue: no shared dequeue
    // lock, no polling. The channel disconnects (every shard dropped
    // its senders) when the server stops.
    while let Ok(job) = rx.recv() {
        let waited = job.started.elapsed();
        let response = if waited > job.deadline {
            metrics.record_deadline_expired(&job.req.method);
            err_response(
                &job.req.id,
                "deadline_exceeded",
                &format!(
                    "request aged {}ms since its first byte, past its {}ms deadline",
                    waited.as_millis(),
                    job.deadline.as_millis()
                ),
            )
        } else {
            execute(&job.req, registry, metrics, waker, config)
        };
        if config.tenant_quota.is_some() {
            release_tenant(tenants, &job.tenant);
        }
        let mailbox = &mailboxes[job.shard];
        mailbox.inbox.lock().unwrap().completions.push(Completion {
            slot: job.slot,
            gen: job.gen,
            seq: job.seq,
            line: response,
        });
        mailbox.cv.notify_all();
    }
}

/// Executes one admitted request and renders its response line.
fn execute(
    req: &Request,
    registry: &Registry,
    metrics: &Metrics,
    waker: &Waker,
    config: &ServerConfig,
) -> String {
    let t0 = Instant::now();
    if config.allow_debug_sleep && req.sleep_ms > 0 {
        std::thread::sleep(Duration::from_millis(req.sleep_ms));
    }
    let result = match req.method.as_str() {
        "stats" => {
            let mut value = metrics.to_value(config.workers, config.queue_capacity);
            if let Value::Object(fields) = &mut value {
                fields.push(("shards".into(), Value::Num(config.shards.max(1) as f64)));
                fields.push(("discovery".into(), registry.discovery_stats()));
                if let Some(cache) = registry.cache() {
                    fields.push(("cache".into(), cache.stats_value()));
                }
            }
            Ok(Body::Value(value))
        }
        "health" => Ok(Body::Value(obj(vec![
            ("queries", registry.health()),
            ("faults", metrics.faults_value()),
        ]))),
        "shutdown" => {
            waker.signal_stop();
            Ok(Body::Value(Value::Object(vec![(
                "stopping".into(),
                Value::Bool(true),
            )])))
        }
        _ => {
            let (result, stats) = registry.dispatch(req);
            metrics.record_call(&stats);
            result
        }
    };
    let latency = t0.elapsed();
    match result {
        Ok(Body::Value(body)) => {
            metrics.record(&req.method, true, latency);
            ok_response(&req.id, body)
        }
        Ok(Body::Raw(body)) => {
            metrics.record(&req.method, true, latency);
            ok_response_raw(&req.id, &body)
        }
        Err((kind, message)) => {
            metrics.record(&req.method, false, latency);
            err_response(&req.id, &kind, &message)
        }
    }
}
