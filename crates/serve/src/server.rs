//! The daemon itself: connection scheduling, request coalescing, the
//! persistent polyhedral store, and the stdio/TCP serve loops.
//!
//! # Shape
//!
//! A fixed pool of worker threads (default
//! [`shackle_core::par::thread_count`]) pulls accepted connections off
//! a channel; each worker owns one connection at a time and answers
//! every frame on it until the peer closes. Malformed frames answer
//! with [`ErrorClass::Protocol`] error frames; the connection stays up.
//!
//! # Coalescing
//!
//! Concurrent `optimize` requests for the same work — keyed by the
//! canonical name-free kernel hash plus `(probe_n, width, init)` —
//! share one search: the first requester computes, the rest block on a
//! condvar and clone the leader's response
//! (`serve.coalesced` counts the followers). The search result is a
//! pure function of the key, so sharing is sound.
//!
//! # Persistence
//!
//! When constructed with a store path (or `$SHACKLE_POLY_CACHE` is
//! set), the server loads the polyhedral memo store on startup and
//! saves it on shutdown, so a restarted daemon answers its first
//! requests from a warm cache. `serve.bytes_persisted` records the
//! bytes written by the last save. A store the loader refuses (another
//! format version, truncated, failing its checksum) is a cold start
//! counted in `serve.store_rejected`, never a failed start-up.

use crate::proto::{read_frame, send_response, ErrorClass, Request, Response};
use crate::service::{self, ServiceConfig};
use shackle_core::par;
use shackle_polyhedra::cache;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};

/// In-flight key: canonical kernel hash + the scoring parameters that
/// change the answer.
type FlightKey = (u64, i64, i64, String);

/// One shared computation: the leader fills `slot` and notifies.
struct Flight {
    slot: Mutex<Option<Response>>,
    done: Condvar,
}

/// The daemon's shared state. Wrap it in an [`Arc`] and hand it to
/// [`Server::serve_tcp`] / [`Server::serve_stdio`]; tests can also call
/// [`Server::handle`] directly.
pub struct Server {
    cfg: ServiceConfig,
    workers: usize,
    store: Option<PathBuf>,
    inflight: Mutex<HashMap<FlightKey, Arc<Flight>>>,
    shutting_down: AtomicBool,
    /// Set by [`Server::serve_tcp`] so a `Shutdown` request can nudge
    /// the blocking accept loop awake from inside [`Server::handle`].
    listen_addr: Mutex<Option<std::net::SocketAddr>>,
}

impl Server {
    /// A server with default config: default legality budget, one
    /// worker per `par::thread_count()`, store path from
    /// `$SHACKLE_POLY_CACHE` if set.
    pub fn new() -> Self {
        Self::with_config(ServiceConfig::default())
    }

    /// A server with an explicit service config (tests use a strict
    /// budget here to drive `Unknown` refusals).
    pub fn with_config(cfg: ServiceConfig) -> Self {
        Server {
            cfg,
            workers: par::thread_count().max(1),
            store: cache::store_path(),
            inflight: Mutex::new(HashMap::new()),
            shutting_down: AtomicBool::new(false),
            listen_addr: Mutex::new(None),
        }
    }

    /// Override the worker-pool size.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Override (or disable, with `None`) the persistent store path.
    pub fn with_store(mut self, store: Option<PathBuf>) -> Self {
        self.store = store;
        self
    }

    /// Load the persistent polyhedral store, if configured and present.
    /// Returns the number of entries loaded (0 when there is nothing to
    /// load — a cold start is not an error). A store that cannot be
    /// read as a whole — another format version, truncated, or failing
    /// its checksum (`InvalidData`) — is a cold start too, counted in
    /// `serve.store_rejected`: `cache::load_from` inserts nothing from
    /// such a file, and the next save replaces it.
    pub fn load_store(&self) -> io::Result<usize> {
        let Some(path) = &self.store else {
            return Ok(0);
        };
        match cache::load_from(path) {
            Ok(n) => Ok(n),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(0),
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                shackle_probe::counter("serve.store_rejected").add(1);
                Ok(0)
            }
            Err(e) => Err(e),
        }
    }

    /// Save the polyhedral store, if configured. Returns bytes written
    /// (0 when persistence is off) and records them in
    /// `serve.bytes_persisted`.
    pub fn save_store(&self) -> io::Result<u64> {
        let Some(path) = &self.store else {
            return Ok(0);
        };
        let bytes = cache::save_to(path)?;
        shackle_probe::counter("serve.bytes_persisted").set(bytes);
        Ok(bytes)
    }

    /// Has a shutdown request been received?
    pub fn is_shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::SeqCst)
    }

    /// Answer one decoded request. This is the scheduling-free core the
    /// serve loops and the tests share.
    pub fn handle(&self, req: Request) -> Response {
        shackle_probe::counter("serve.requests").add(1);
        let resp = match req {
            Request::Optimize {
                probe_n,
                width,
                init,
                source,
            } => {
                shackle_probe::counter("serve.optimize_requests").add(1);
                self.optimize_coalesced(probe_n, width, &init, &source)
            }
            Request::Quote { probe_n, source } => {
                shackle_probe::counter("serve.quote_requests").add(1);
                match service::quote(&source, probe_n) {
                    Ok(r) => r,
                    Err(e) => e.into_response(),
                }
            }
            Request::Stats => Response::Stats {
                json: self.stats_json(),
            },
            Request::Shutdown => {
                self.shutting_down.store(true, Ordering::SeqCst);
                if let Some(addr) = *self.listen_addr.lock().unwrap_or_else(|e| e.into_inner()) {
                    Server::nudge(addr);
                }
                Response::ShuttingDown
            }
        };
        if matches!(resp, Response::Error { .. }) {
            shackle_probe::counter("serve.errors").add(1);
        }
        resp
    }

    /// Optimize with request coalescing: identical concurrent requests
    /// (canonical kernel hash + parameters) share one search.
    fn optimize_coalesced(&self, probe_n: i64, width: i64, init: &str, source: &str) -> Response {
        // Validation and parsing happen before coalescing: an invalid
        // request must answer its own error, and the key needs the
        // parsed program's canonical hash.
        let (program, init_spec) = match service::prepare_optimize(probe_n, width, init, source) {
            Ok(p) => p,
            Err(e) => return e.into_response(),
        };
        let key: FlightKey = (
            service::canonical_kernel_hash(&program),
            probe_n,
            width,
            init_spec.to_spec(),
        );

        let (flight, leader) = {
            let mut map = self.inflight.lock().unwrap_or_else(|e| e.into_inner());
            match map.get(&key) {
                Some(f) => (Arc::clone(f), false),
                None => {
                    let f = Arc::new(Flight {
                        slot: Mutex::new(None),
                        done: Condvar::new(),
                    });
                    map.insert(key.clone(), Arc::clone(&f));
                    (f, true)
                }
            }
        };

        if !leader {
            shackle_probe::counter("serve.coalesced").add(1);
            let mut slot = flight.slot.lock().unwrap_or_else(|e| e.into_inner());
            while slot.is_none() {
                slot = flight.done.wait(slot).unwrap_or_else(|e| e.into_inner());
            }
            return slot.clone().expect("flight result filled");
        }

        let resp = match service::optimize(&program, probe_n, width, &init_spec, &self.cfg) {
            Ok(r) => r,
            Err(e) => e.into_response(),
        };
        // Publish before unkeying: followers still holding the Arc see
        // the result; new requests after removal start a fresh flight
        // (and hit the warm memo cache).
        {
            let mut slot = flight.slot.lock().unwrap_or_else(|e| e.into_inner());
            *slot = Some(resp.clone());
            flight.done.notify_all();
        }
        self.inflight
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(&key);
        resp
    }

    /// Server + cache statistics as one JSON object (the `Stats`
    /// response). Includes the probe span tree when instrumentation is
    /// enabled, so a client can render per-request phase breakdowns
    /// without a sidecar channel.
    fn stats_json(&self) -> String {
        let poly = cache::stats();
        cache::publish_stats();
        let counter = |n: &'static str| shackle_probe::counter(n).get();
        shackle_probe::counter("serve.cache_evictions").set(poly.evictions);
        let profile = if shackle_probe::enabled() {
            let p = shackle_probe::profile();
            format!(", \"profile\": {}", p.to_json().trim_end())
        } else {
            String::new()
        };
        format!(
            "{{\"requests\": {}, \"optimize_requests\": {}, \"quote_requests\": {}, \
             \"coalesced\": {}, \"errors\": {}, \"bytes_persisted\": {}, \
             \"cache_entries\": {}, \"cache_capacity\": {}, \
             \"poly\": {{\"feasibility_queries\": {}, \"feasibility_hits\": {}, \
             \"projection_queries\": {}, \"projection_hits\": {}, \
             \"gist_queries\": {}, \"gist_hits\": {}, \"unknown_verdicts\": {}, \
             \"evictions\": {}}}{}}}",
            counter("serve.requests"),
            counter("serve.optimize_requests"),
            counter("serve.quote_requests"),
            counter("serve.coalesced"),
            counter("serve.errors"),
            counter("serve.bytes_persisted"),
            cache::entry_count(),
            cache::cache_capacity(),
            poly.feasibility_queries,
            poly.feasibility_hits,
            poly.projection_queries,
            poly.projection_hits,
            poly.gist_queries,
            poly.gist_hits,
            poly.unknown_verdicts,
            poly.evictions,
            profile,
        )
    }

    /// Answer every frame on one byte stream until EOF or shutdown.
    /// Payloads that fail to decode answer [`ErrorClass::Protocol`];
    /// unreadable *framing* (bad length prefix, mid-frame EOF) ends the
    /// connection, since the stream position is no longer trustworthy.
    pub fn serve_connection(&self, r: &mut impl Read, w: &mut impl Write) -> io::Result<()> {
        loop {
            let Some((tag, payload)) = read_frame(r)? else {
                return Ok(());
            };
            let resp = match Request::decode(tag, &payload) {
                Ok(req) => self.handle(req),
                Err(e) => {
                    shackle_probe::counter("serve.requests").add(1);
                    shackle_probe::counter("serve.errors").add(1);
                    Response::Error {
                        class: ErrorClass::Protocol,
                        message: e.to_string(),
                    }
                }
            };
            let shutdown = matches!(resp, Response::ShuttingDown);
            send_response(w, &resp)?;
            if shutdown {
                return Ok(());
            }
        }
    }

    /// Serve stdin/stdout: the single-connection mode CI smoke uses
    /// (`shackle_serve --stdio`). Loads the store before and saves it
    /// after.
    pub fn serve_stdio(&self) -> io::Result<()> {
        self.load_store()?;
        let result = self.serve_connection(&mut io::stdin().lock(), &mut io::stdout().lock());
        self.save_store()?;
        result
    }

    /// Serve TCP connections until a `Shutdown` request arrives. Blocks
    /// the calling thread; workers are joined and the store saved
    /// before returning.
    pub fn serve_tcp(self: &Arc<Self>, listener: TcpListener) -> io::Result<()> {
        self.load_store()?;
        let addr = listener.local_addr()?;
        *self.listen_addr.lock().unwrap_or_else(|e| e.into_inner()) = Some(addr);
        let (tx, rx) = mpsc::channel::<TcpStream>();
        let rx = Arc::new(Mutex::new(rx));

        let mut pool = Vec::with_capacity(self.workers);
        for _ in 0..self.workers {
            let rx = Arc::clone(&rx);
            let server = Arc::clone(self);
            pool.push(std::thread::spawn(move || loop {
                let conn = rx.lock().unwrap_or_else(|e| e.into_inner()).recv();
                match conn {
                    Ok(stream) => {
                        stream.set_nodelay(true).ok();
                        let mut r = match stream.try_clone() {
                            Ok(s) => s,
                            Err(_) => continue,
                        };
                        let mut w = stream;
                        // Peer disconnects are that connection's
                        // problem, not the server's.
                        let _ = server.serve_connection(&mut r, &mut w);
                    }
                    Err(_) => return, // channel closed: shutting down
                }
            }));
        }

        for conn in listener.incoming() {
            if self.is_shutting_down() {
                break;
            }
            match conn {
                Ok(stream) => {
                    if tx.send(stream).is_err() {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
            if self.is_shutting_down() {
                break;
            }
        }
        drop(tx);
        for t in pool {
            let _ = t.join();
        }
        *self.listen_addr.lock().unwrap_or_else(|e| e.into_inner()) = None;
        self.save_store()?;
        Ok(())
    }

    /// Unblock a [`Server::serve_tcp`] accept loop after
    /// [`Request::Shutdown`] set the flag: the acceptor only re-checks
    /// the flag per connection, so poke it with one empty connection.
    pub fn nudge(addr: std::net::SocketAddr) {
        let _ = TcpStream::connect(addr);
    }
}

impl Default for Server {
    fn default() -> Self {
        Self::new()
    }
}

/// A thin synchronous client for the daemon's TCP endpoint: one
/// request, one response, over a persistent connection.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connect to a serving address.
    pub fn connect(addr: std::net::SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(Client { stream })
    }

    /// Send one request and wait for its response.
    pub fn request(&mut self, req: &Request) -> io::Result<Response> {
        crate::proto::send_request(&mut self.stream, req)?;
        crate::proto::read_response(&mut self.stream)
    }

    /// The remote address (to [`Server::nudge`] after a shutdown).
    pub fn peer_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.stream.peer_addr()
    }
}
