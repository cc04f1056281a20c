//! Load harness for the optimization daemon (`shackle-serve`):
//! latency/throughput under concurrent clients, and the cross-request
//! polyhedral store's cold-vs-warm hit rates across a daemon restart.
//!
//! The harness runs the real server in-process over loopback TCP (the
//! same `serve_tcp` loop the binary runs) and drives it in four phases:
//!
//! 1. **Quote load** — every concurrency level sends a stream of
//!    model-only `quote` requests; per-request latency is recorded for
//!    p50/p99 and requests/second.
//! 2. **Cold optimize** — starting from an empty polyhedral cache, each
//!    kernel of the mix is optimized once; the memo-cache hit rate of
//!    this pass is the *single-run* rate (intra-search reuse only — the
//!    30–75% band the batch harness reports).
//! 3. **Optimize load** — each concurrency level sends `optimize`
//!    requests round-robin over the mix, measuring the served (warm
//!    in-memory) latency distribution.
//! 4. **Warm restart** — the daemon shuts down (persisting the store),
//!    the in-memory cache is wiped, a second daemon generation loads
//!    the store from disk and replays the same mix; its hit rate must
//!    *strictly* exceed the cold rate, which is the whole point of a
//!    cache that outlives the process.
//!
//! `BENCH_serve.json` (schema `shackle-serve-v1`) records all of it;
//! the `serveperf` binary drives this module, `--profile` additionally
//! renders the daemon's span tree.

use crate::report::BenchReport;
use shackle_ir::kernels;
use shackle_ir::parse::to_source;
use shackle_polyhedra::cache;
use shackle_serve::{Client, Request, Response, Server};
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Load-run options.
#[derive(Clone, Debug)]
pub struct LoadOptions {
    /// Quick mode: fewer requests per level — the CI smoke
    /// configuration.
    pub quick: bool,
    /// Concurrency levels swept (the acceptance floor is three).
    pub concurrency: Vec<usize>,
    /// Quote requests per client per level.
    pub quote_requests: usize,
    /// Optimize requests per client per level.
    pub optimize_requests: usize,
    /// Worker threads for the in-process server.
    pub workers: usize,
    /// Render the daemon's probe span tree after the run.
    pub profile: bool,
    /// Enforce the acceptance floors (warm > cold, quote speedup).
    /// Unit tests disable this: the polyhedral cache and its stats are
    /// process-global, so a parallel test binary cannot measure rates
    /// in isolation; the `serveperf` binary always enforces.
    pub enforce: bool,
    /// Output artifact path.
    pub out: PathBuf,
}

impl Default for LoadOptions {
    fn default() -> Self {
        Self {
            quick: false,
            concurrency: vec![1, 4, 8],
            quote_requests: 200,
            optimize_requests: 4,
            workers: 8,
            profile: false,
            enforce: true,
            out: PathBuf::from("BENCH_serve.json"),
        }
    }
}

impl LoadOptions {
    /// The quick (CI smoke) configuration.
    pub fn quick() -> Self {
        Self {
            quick: true,
            quote_requests: 50,
            optimize_requests: 2,
            ..Default::default()
        }
    }
}

/// One measured load level.
#[derive(Clone, Debug)]
pub struct LoadRow {
    /// `"quote"` or `"optimize"`.
    pub mode: &'static str,
    /// Concurrent clients.
    pub concurrency: usize,
    /// Total requests across the level.
    pub requests: usize,
    /// Median per-request latency, microseconds.
    pub p50_us: u64,
    /// 99th-percentile per-request latency, microseconds.
    pub p99_us: u64,
    /// Mean per-request latency, microseconds.
    pub mean_us: u64,
    /// Level throughput, requests per second.
    pub req_per_s: f64,
}

/// The cold/warm cache comparison across the simulated restart.
#[derive(Clone, Copy, Debug)]
pub struct CacheComparison {
    /// Memo queries issued by the cold pass.
    pub cold_queries: u64,
    /// Memo hits in the cold pass (intra-search reuse only).
    pub cold_hits: u64,
    /// Memo queries issued by the warm (post-restart) pass.
    pub warm_queries: u64,
    /// Memo hits in the warm pass (served by the reloaded store).
    pub warm_hits: u64,
    /// Bytes the store serialized to on shutdown.
    pub store_bytes: u64,
    /// Entries the second daemon generation loaded.
    pub store_entries: usize,
}

impl CacheComparison {
    /// Cold-pass hit rate in `[0, 1]`.
    pub fn cold_rate(&self) -> f64 {
        self.cold_hits as f64 / (self.cold_queries as f64).max(1.0)
    }

    /// Warm-pass hit rate in `[0, 1]`.
    pub fn warm_rate(&self) -> f64 {
        self.warm_hits as f64 / (self.warm_queries as f64).max(1.0)
    }
}

/// Everything one load run measured (and wrote to the artifact).
#[derive(Clone, Debug)]
pub struct ServeReport {
    /// Quote levels, one per concurrency.
    pub quote: Vec<LoadRow>,
    /// Optimize levels, one per concurrency.
    pub optimize: Vec<LoadRow>,
    /// The restart experiment.
    pub cache: CacheComparison,
    /// Cold single-request optimize mean, microseconds.
    pub optimize_cold_mean_us: u64,
    /// Quote p50 at concurrency 1, microseconds.
    pub quote_p50_us: u64,
    /// `optimize_cold_mean_us / quote_p50_us`.
    pub quote_ratio: f64,
}

/// The served kernel mix: `(name, request)` for one optimize each.
/// Small probe sizes keep a full search in tens of milliseconds so the
/// harness finishes quickly even in debug builds.
fn mix() -> Vec<(&'static str, Request)> {
    vec![
        (
            "matmul_ijk",
            Request::Optimize {
                probe_n: 24,
                width: 8,
                init: "ones".into(),
                source: to_source(&kernels::matmul_ijk()),
            },
        ),
        (
            "gauss",
            Request::Optimize {
                probe_n: 16,
                width: 8,
                init: "ones".into(),
                source: to_source(&kernels::gauss()),
            },
        ),
        (
            "cholesky_right",
            Request::Optimize {
                probe_n: 12,
                width: 4,
                init: "spd:A:3".into(),
                source: to_source(&kernels::cholesky_right()),
            },
        ),
    ]
}

/// Start one daemon generation on an ephemeral loopback port. The
/// store is loaded synchronously *before* the serve thread spawns, so
/// the caller can observe the loaded entry count without racing the
/// daemon (`serve_tcp` re-loads, which is an idempotent overwrite).
fn start_server(
    workers: usize,
    store: Option<PathBuf>,
) -> (SocketAddr, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let server = Arc::new(Server::new().with_workers(workers).with_store(store));
    server.load_store().expect("load store");
    let handle = std::thread::spawn(move || {
        server.serve_tcp(listener).expect("serve_tcp");
    });
    (addr, handle)
}

/// Send a shutdown frame and join the daemon thread (the shutdown path
/// persists the store).
fn stop_server(addr: SocketAddr, handle: std::thread::JoinHandle<()>) {
    let mut c = Client::connect(addr).expect("connect for shutdown");
    match c.request(&Request::Shutdown).expect("shutdown request") {
        Response::ShuttingDown => {}
        r => panic!("unexpected shutdown response {r:?}"),
    }
    drop(c);
    handle.join().expect("daemon thread");
}

fn percentile(sorted_us: &[u64], p: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let idx = ((sorted_us.len() as f64 - 1.0) * p).round() as usize;
    sorted_us[idx.min(sorted_us.len() - 1)]
}

fn expect_ok(resp: &Response) {
    match resp {
        Response::Optimized { .. } | Response::Quoted { .. } => {}
        r => panic!("load request failed: {r:?}"),
    }
}

/// Run one load level: `concurrency` clients, each sending
/// `per_client` requests from `reqs` round-robin, recording
/// per-request latencies.
fn load_level(
    mode: &'static str,
    addr: SocketAddr,
    concurrency: usize,
    per_client: usize,
    reqs: &[Request],
) -> LoadRow {
    let wall = Instant::now();
    let handles: Vec<_> = (0..concurrency)
        .map(|c| {
            let reqs = reqs.to_vec();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let mut lat = Vec::with_capacity(per_client);
                for i in 0..per_client {
                    let req = &reqs[(c + i) % reqs.len()];
                    let t = Instant::now();
                    let resp = client.request(req).expect("request");
                    lat.push(t.elapsed().as_micros() as u64);
                    expect_ok(&resp);
                }
                lat
            })
        })
        .collect();
    let mut lat: Vec<u64> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("client thread"))
        .collect();
    let wall = wall.elapsed().as_secs_f64();
    lat.sort_unstable();
    let requests = lat.len();
    let mean = lat.iter().sum::<u64>() / requests.max(1) as u64;
    LoadRow {
        mode,
        concurrency,
        requests,
        p50_us: percentile(&lat, 0.50),
        p99_us: percentile(&lat, 0.99),
        mean_us: mean,
        req_per_s: requests as f64 / wall.max(1e-9),
    }
}

/// Snapshot of the memo-cache query/hit totals.
fn poly_totals() -> (u64, u64) {
    let s = cache::stats();
    (
        s.feasibility_queries + s.projection_queries + s.gist_queries,
        s.feasibility_hits + s.projection_hits + s.gist_hits,
    )
}

fn row_json(r: &LoadRow) -> String {
    format!(
        "{{\"mode\": \"{}\", \"concurrency\": {}, \"requests\": {}, \
         \"p50_us\": {}, \"p99_us\": {}, \"mean_us\": {}, \
         \"req_per_s\": {:.1}}}",
        r.mode, r.concurrency, r.requests, r.p50_us, r.p99_us, r.mean_us, r.req_per_s
    )
}

fn print_row(r: &LoadRow) {
    println!(
        "{:<10} {:>5} {:>9} {:>10} {:>10} {:>10} {:>10.1}",
        r.mode, r.concurrency, r.requests, r.p50_us, r.p99_us, r.mean_us, r.req_per_s
    );
}

/// Run the full load experiment and write the artifact.
///
/// # Panics
///
/// With `opts.enforce`, panics if the warm hit rate does not strictly
/// exceed the cold rate, or the quote path is not at least 100× (10×
/// quick — debug builds compress the gap) faster than a cold optimize.
pub fn run(opts: &LoadOptions) -> ServeReport {
    assert!(
        opts.concurrency.len() >= 3,
        "the load sweep needs at least three concurrency levels"
    );
    let store =
        std::env::temp_dir().join(format!("shackle-serveperf-{}.store", std::process::id()));
    let _ = std::fs::remove_file(&store);
    let mix = mix();
    let optimize_reqs: Vec<Request> = mix.iter().map(|(_, r)| r.clone()).collect();
    let quote_reqs: Vec<Request> = mix
        .iter()
        .map(|(_, r)| match r {
            Request::Optimize {
                probe_n, source, ..
            } => Request::Quote {
                probe_n: *probe_n,
                source: source.clone(),
            },
            _ => unreachable!("mix is optimize requests"),
        })
        .collect();

    println!(
        "{:<10} {:>5} {:>9} {:>10} {:>10} {:>10} {:>10}",
        "mode", "conc", "requests", "p50 us", "p99 us", "mean us", "req/s"
    );

    // Generation 1: cold daemon, empty cache and no store on disk.
    cache::clear_cache();
    cache::reset_stats();
    let (addr, handle) = start_server(opts.workers, Some(store.clone()));

    // Phase 1: quote load. The quote path never touches the polyhedral
    // cache, so this leaves the cold/warm bookkeeping undisturbed.
    let mut quote_rows = Vec::new();
    for &c in &opts.concurrency {
        let row = load_level("quote", addr, c, opts.quote_requests, &quote_reqs);
        print_row(&row);
        quote_rows.push(row);
    }

    // Phase 2: the cold pass — each kernel optimized exactly once, one
    // client, so the hit rate is pure intra-search memoization.
    let (q0, h0) = poly_totals();
    let mut cold_lat = Vec::with_capacity(optimize_reqs.len());
    {
        let mut client = Client::connect(addr).expect("connect");
        for req in &optimize_reqs {
            let t = Instant::now();
            let resp = client.request(req).expect("cold optimize");
            cold_lat.push(t.elapsed().as_micros() as u64);
            expect_ok(&resp);
        }
    }
    let (q1, h1) = poly_totals();
    let optimize_cold_mean_us = cold_lat.iter().sum::<u64>() / cold_lat.len().max(1) as u64;

    // Phase 3: optimize load over the (now in-memory-warm) mix.
    let mut optimize_rows = Vec::new();
    for &c in &opts.concurrency {
        let row = load_level("optimize", addr, c, opts.optimize_requests, &optimize_reqs);
        print_row(&row);
        optimize_rows.push(row);
    }

    // Phase 4: restart. Shutdown persists the store; wipe the
    // in-memory cache; the next generation reloads from disk and
    // replays the same mix.
    stop_server(addr, handle);
    let store_bytes = std::fs::metadata(&store).map(|m| m.len()).unwrap_or(0);
    cache::clear_cache();
    if opts.enforce {
        // Like the floors below, only true in a single-tenant process:
        // under `cargo test` the other tests of this binary keep
        // filling the process-global maps.
        assert_eq!(cache::entry_count(), 0, "clear_cache left entries behind");
    }
    let (addr, handle) = start_server(opts.workers, Some(store.clone()));
    let store_entries = cache::entry_count();
    let (q2, h2) = poly_totals();
    {
        let mut client = Client::connect(addr).expect("connect");
        for req in &optimize_reqs {
            expect_ok(&client.request(req).expect("warm optimize"));
        }
    }
    let (q3, h3) = poly_totals();

    if opts.profile {
        let mut client = Client::connect(addr).expect("connect");
        match client.request(&Request::Stats).expect("stats") {
            Response::Stats { json } => println!("daemon stats: {json}"),
            r => panic!("unexpected stats response {r:?}"),
        }
        print!("{}", shackle_probe::profile().render_tree());
    }
    stop_server(addr, handle);
    let _ = std::fs::remove_file(&store);

    let cache_cmp = CacheComparison {
        cold_queries: q1 - q0,
        cold_hits: h1 - h0,
        warm_queries: q3 - q2,
        warm_hits: h3 - h2,
        store_bytes,
        store_entries,
    };
    let quote_p50_us = quote_rows
        .iter()
        .find(|r| r.concurrency == opts.concurrency[0])
        .map_or(1, |r| r.p50_us);
    let quote_ratio = optimize_cold_mean_us as f64 / quote_p50_us.max(1) as f64;
    println!(
        "cold hit rate {:.1}% ({} / {}), warm hit rate {:.1}% ({} / {}), \
         store {} entries / {} bytes",
        100.0 * cache_cmp.cold_rate(),
        cache_cmp.cold_hits,
        cache_cmp.cold_queries,
        100.0 * cache_cmp.warm_rate(),
        cache_cmp.warm_hits,
        cache_cmp.warm_queries,
        cache_cmp.store_entries,
        cache_cmp.store_bytes,
    );
    println!(
        "quote p50 {} us vs cold optimize mean {} us: {:.0}x",
        quote_p50_us, optimize_cold_mean_us, quote_ratio
    );

    let quote_floor = if opts.quick { 10.0 } else { 100.0 };
    if opts.enforce {
        assert!(
            cache_cmp.warm_rate() > cache_cmp.cold_rate(),
            "warm hit rate {:.3} must strictly exceed cold {:.3}: \
             the persistent store is not paying for itself",
            cache_cmp.warm_rate(),
            cache_cmp.cold_rate()
        );
        assert!(
            quote_ratio >= quote_floor,
            "quote path only {quote_ratio:.1}x faster than cold optimize \
             (floor {quote_floor}x)"
        );
        assert!(store_entries > 0, "restart loaded an empty store");
    }

    let mut report = BenchReport::new();
    report.field_str("schema", "shackle-serve-v1");
    report.field_raw(
        "options",
        format!(
            "{{\"quick\": {}, \"concurrency\": {:?}, \"quote_requests\": {}, \
             \"optimize_requests\": {}, \"workers\": {}}}",
            opts.quick, opts.concurrency, opts.quote_requests, opts.optimize_requests, opts.workers
        ),
    );
    report.section("quote_load");
    for r in &quote_rows {
        report.row(row_json(r));
    }
    report.section("optimize_load");
    for r in &optimize_rows {
        report.row(row_json(r));
    }
    report.field_raw(
        "cache",
        format!(
            "{{\"cold_queries\": {}, \"cold_hits\": {}, \"cold_hit_rate\": {:.4}, \
             \"warm_queries\": {}, \"warm_hits\": {}, \"warm_hit_rate\": {:.4}, \
             \"store_bytes\": {}, \"store_entries\": {}}}",
            cache_cmp.cold_queries,
            cache_cmp.cold_hits,
            cache_cmp.cold_rate(),
            cache_cmp.warm_queries,
            cache_cmp.warm_hits,
            cache_cmp.warm_rate(),
            cache_cmp.store_bytes,
            cache_cmp.store_entries,
        ),
    );
    report.field_raw(
        "quote_vs_optimize",
        format!(
            "{{\"quote_p50_us\": {}, \"optimize_cold_mean_us\": {}, \
             \"ratio\": {:.1}, \"floor\": {:.1}}}",
            quote_p50_us, optimize_cold_mean_us, quote_ratio, quote_floor
        ),
    );
    report.write(&opts.out).expect("write BENCH_serve.json");
    println!("wrote {}", opts.out.display());

    ServeReport {
        quote: quote_rows,
        optimize: optimize_rows,
        cache: cache_cmp,
        optimize_cold_mean_us,
        quote_p50_us,
        quote_ratio,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_picks_nearest_rank() {
        let v = [10, 20, 30, 40, 50, 60, 70, 80, 90, 100];
        // nearest rank over (len - 1): (9 * 0.5).round() = index 5
        assert_eq!(percentile(&v, 0.50), 60);
        assert_eq!(percentile(&v, 0.99), 100);
        assert_eq!(percentile(&v, 0.0), 10);
        assert_eq!(percentile(&[11, 22, 33], 0.5), 22);
        assert_eq!(percentile(&[], 0.5), 0);
    }

    #[test]
    fn quick_load_measures_all_levels_and_writes_artifact() {
        let out = std::env::temp_dir().join(format!(
            "shackle-serveperf-test-{}.json",
            std::process::id()
        ));
        let opts = LoadOptions {
            quote_requests: 5,
            optimize_requests: 1,
            // The memo cache and its stats are process-global and this
            // binary's other tests run concurrently, so hit-rate
            // ordering cannot be asserted here; the serveperf binary
            // (single-tenant process) enforces it.
            enforce: false,
            out: out.clone(),
            ..LoadOptions::quick()
        };
        let report = run(&opts);
        assert_eq!(report.quote.len(), 3);
        assert_eq!(report.optimize.len(), 3);
        for r in report.quote.iter().chain(&report.optimize) {
            assert!(r.requests > 0);
            assert!(r.p50_us <= r.p99_us);
            assert!(r.req_per_s > 0.0);
        }
        assert!(report.cache.cold_queries > 0);
        assert!(report.cache.store_entries > 0);
        assert!(report.quote_ratio > 1.0);
        let text = std::fs::read_to_string(&out).unwrap();
        assert!(text.contains("\"schema\": \"shackle-serve-v1\""));
        assert!(text.contains("\"quote_load\""));
        assert!(text.contains("\"optimize_load\""));
        assert!(text.contains("\"cold_hit_rate\""));
        let _ = std::fs::remove_file(&out);
    }
}
