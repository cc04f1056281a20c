//! `serve_mix`: request in → response out through the daemon.
//!
//! One `Server` over a warm polyhedral cache. A round sends every
//! distinct request once: an `Optimize` and a `Quote` frame per
//! blockable kernel, the gauss_seidel_1d optimize (the expected typed
//! refusal) and one malformed-source quote (the expected `Parse`
//! error), in an order shuffled by the seed. No traffic mix is assumed:
//! nobody has observed this daemon's traffic, so the round is a census
//! of the request kinds, not a model of their frequencies. `round_ms`
//! and `work_per_s` are therefore almost entirely optimize time; the
//! quote path is gated through `item_ms_geomean`, where each (class,
//! kernel) item weighs the same. The frames go through
//! `Server::serve_connection` over the in-memory timestamping stream
//! (`crate::stream`): one caller, no socket, no second thread.

use super::compile_cold::{corpus, Item};
use super::{RoundOut, Workload};
use crate::reference::{check_selection, simulated_gains, InitFn, Selection};
use crate::stats::{self, SplitMix};
use crate::stream::{latencies_s, FrameSink, FrameSource};
use shackle_ir::parse::parse;
use shackle_kernels::gen::spd_ws_init;
use shackle_polyhedra::cache;
use shackle_serve::proto::{read_frame, send_request};
use shackle_serve::{Client, ErrorClass, Request, Response, Server};
use std::net::TcpListener;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// What the response to a frame must be.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Expect {
    Optimized,
    Quoted,
    Error(ErrorClass),
}

pub struct ServeMix {
    server: Server,
    /// Pre-encoded request frames of one round, in sending order; frame
    /// `k` is item `frame_item[k]`.
    frames: Vec<Vec<u8>>,
    frame_item: Vec<usize>,
    expect: Vec<Expect>,
    item_names: Vec<String>,
    /// The checked selection behind every `Optimized` response.
    selections: Vec<Selection>,
    checks: (u64, u64),
}

fn encode(req: &Request) -> Vec<u8> {
    let mut bytes = Vec::new();
    send_request(&mut bytes, req).expect("writing to a Vec cannot fail");
    bytes
}

fn decode(bytes: &[u8]) -> Option<Response> {
    let (tag, payload) = read_frame(&mut &bytes[..]).ok()??;
    Response::decode(tag, &payload).ok()
}

fn matches_expectation(resp: Option<&Response>, expect: Expect) -> bool {
    match (resp, expect) {
        (Some(Response::Optimized { .. }), Expect::Optimized) => true,
        (Some(Response::Quoted { predicted_cycles }), Expect::Quoted) => *predicted_cycles > 0,
        (Some(Response::Error { class, .. }), Expect::Error(c)) => *class == c,
        _ => false,
    }
}

/// The wire names its initializer families; factorizations need the
/// SPD one, with this run's seed. Returns the spec and the initializer
/// the daemon builds from it.
fn wire_init(item: &Item, seed: u64) -> (String, InitFn) {
    match item.name {
        "cholesky_right" | "cholesky_left" | "gauss" => (
            format!("spd:A:{seed}"),
            Box::new(spd_ws_init("A", item.probe_n as usize, seed)),
        ),
        _ => ("ones".to_string(), Box::new(|_: &str, _: &[usize]| 1.0)),
    }
}

impl ServeMix {
    pub fn set_up(seed: u64) -> Self {
        cache::clear_cache();
        let items: Vec<Item> = corpus(seed)
            .into_iter()
            .filter(|i| !i.name.ends_with(".ds"))
            .collect();

        // one item and one frame per (class, kernel); the refusal row
        // is never quoted (the probe does not bind its second
        // parameter)
        let (mut frames, mut expect, mut item_names) = (Vec::new(), Vec::new(), Vec::new());
        for item in &items {
            frames.push(encode(&Request::Optimize {
                probe_n: item.probe_n,
                width: item.cfg.width,
                init: wire_init(item, seed).0,
                source: item.source.clone(),
            }));
            expect.push(if item.blockable {
                Expect::Optimized
            } else {
                Expect::Error(ErrorClass::Internal)
            });
            item_names.push(format!("optimize/{}", item.name));
        }
        for item in items.iter().filter(|i| i.blockable) {
            frames.push(encode(&Request::Quote {
                probe_n: item.probe_n,
                source: item.source.clone(),
            }));
            expect.push(Expect::Quoted);
            item_names.push(format!("quote/{}", item.name));
        }
        frames.push(encode(&Request::Quote {
            probe_n: 24,
            source: "program broken\n  do i = 1 ..".to_string(),
        }));
        expect.push(Expect::Error(ErrorClass::Parse));
        item_names.push("quote/malformed".to_string());

        let mut frame_item: Vec<usize> = (0..frames.len()).collect();
        SplitMix(seed).shuffle(&mut frame_item);
        let mut this = ServeMix {
            server: Server::new().with_store(None),
            frames: frame_item.iter().map(|&i| frames[i].clone()).collect(),
            expect: frame_item.iter().map(|&i| expect[i]).collect(),
            frame_item,
            item_names,
            selections: Vec::new(),
            checks: (0, 0),
        };

        // one untimed connection: what the daemon selects for each
        // kernel is checked the same way a batch compile's is
        let mut sink = FrameSink::default();
        let served = this
            .server
            .serve_connection(&mut FrameSource::new(&this.frames), &mut sink);
        this.checks = (1, u64::from(served.is_err()));
        for (k, &item) in this.frame_item.iter().enumerate() {
            if this.expect[k] != Expect::Optimized {
                continue;
            }
            this.checks.0 += 1;
            let checked = match sink.responses.get(k).and_then(|bytes| decode(bytes)) {
                Some(Response::Optimized {
                    winner_cycles,
                    report,
                }) => check_selection(
                    &parse(&items[item].source).expect("corpus sources parse"),
                    &report,
                    winner_cycles,
                    items[item].probe_n,
                    &wire_init(&items[item], seed).1,
                ),
                _ => Err("no optimized response".to_string()),
            };
            match checked {
                Ok(selection) => this.selections.push(selection),
                Err(e) => {
                    eprintln!("serve_mix: {}: {e}", this.item_names[item]);
                    this.checks.1 += 1;
                }
            }
        }
        this
    }

    /// Fold per-frame latencies and response bytes into a `RoundOut`.
    fn finish(&self, round_s: f64, latency_s: &[f64], responses: &[Vec<u8>]) -> RoundOut {
        let mut out = RoundOut::empty(self.item_names.len());
        out.round_s = round_s;
        for (&item, &l) in self.frame_item.iter().zip(latency_s) {
            out.item_s[item] = l;
        }
        out.attempted = self.frames.len() as u64;
        out.failed = (self.frames.len() - responses.len().min(self.frames.len())) as u64;
        for (bytes, &expect) in responses.iter().zip(&self.expect) {
            out.hash = stats::fnv1a(out.hash, bytes);
            out.failed += u64::from(!matches_expectation(decode(bytes).as_ref(), expect));
        }
        out
    }
}

impl Workload for ServeMix {
    fn item_names(&self) -> Vec<String> {
        self.item_names.clone()
    }

    fn round(&mut self) -> RoundOut {
        let mut src = FrameSource::new(&self.frames);
        let mut sink = FrameSink::default();
        let start = Instant::now();
        let served = {
            let _span = shackle_probe::span("serve.connection");
            self.server.serve_connection(&mut src, &mut sink)
        };
        let round_s = start.elapsed().as_secs_f64();
        let latency = latencies_s(&src, &sink);
        let mut out = self.finish(round_s, &latency, &sink.responses);
        out.failed += u64::from(served.is_err());
        out
    }

    fn setup_checks(&self) -> (u64, u64) {
        self.checks
    }

    fn work_per_s(&self, round_lo_s: f64, _item_lo_s: &[f64]) -> f64 {
        self.frames.len() as f64 / round_lo_s
    }

    fn gains(&self, _item_lo_s: &[f64]) -> Vec<f64> {
        simulated_gains(self.selections.iter())
    }

    fn facts(&self) -> Vec<(&'static str, f64)> {
        let sum = |f: fn(&Selection) -> u64| self.selections.iter().map(f).sum::<u64>() as f64;
        vec![
            ("frames", self.frames.len() as f64),
            ("winner_cycles", sum(|s| s.winner_cycles)),
            ("input_cycles", sum(|s| s.input_cycles)),
            ("code_bytes", sum(|s| s.code_bytes)),
        ]
    }

    fn probe_layers(&mut self, dir: &Path) -> Vec<(&'static str, f64)> {
        let mut out = Vec::new();

        // the persistent store: save the warm cache, wipe, load it back
        let store = dir.join("poly-store.shpl");
        let entries = cache::entry_count();
        let start = Instant::now();
        let bytes = cache::save_to(&store).unwrap_or(0);
        out.push(("serve.store_save_ms", start.elapsed().as_secs_f64() * 1e3));
        cache::clear_cache();
        let start = Instant::now();
        let loaded = cache::load_from(&store).unwrap_or(0);
        out.push(("serve.store_load_ms", start.elapsed().as_secs_f64() * 1e3));
        if loaded != entries {
            eprintln!("serve_mix: store reloaded {loaded} of {entries} entries");
        }
        out.push(("serve.store_bytes", bytes as f64));

        // transport + scheduler: the same quote over loopback TCP,
        // 1 client ↔ 1 worker (recorded, not gated: it does not repeat
        // within a tenth on a shared 2-vCPU VM)
        let quote = self
            .expect
            .iter()
            .position(|e| *e == Expect::Quoted)
            .expect("the mix has quotes");
        let (lo_us, p50_us) = tcp_quote_roundtrip(&self.frames[quote]).unwrap_or_else(|e| {
            eprintln!("serve_mix: loopback TCP unavailable ({e}); tcp_roundtrip reads 0");
            (0.0, 0.0)
        });
        out.push(("serve.tcp_roundtrip_us", lo_us));
        out.push(("serve.tcp_roundtrip_p50_us", p50_us));
        out
    }
}

/// Lower decile and median (µs) of one quote over loopback TCP against
/// a one-worker daemon. `frame` is an encoded quote request.
fn tcp_quote_roundtrip(frame: &[u8]) -> std::io::Result<(f64, f64)> {
    const REQUESTS: usize = 300;
    let (tag, payload) = read_frame(&mut &frame[..])?.expect("a whole frame");
    let req = Request::decode(tag, &payload).expect("a frame this module encoded");
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let server = Arc::new(Server::new().with_workers(1).with_store(None));
    let daemon = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.serve_tcp(listener))
    };
    let measured = (|| {
        let mut client = Client::connect(addr)?;
        let mut us = Vec::with_capacity(REQUESTS);
        for _ in 0..REQUESTS {
            let start = Instant::now();
            client.request(&req)?;
            us.push(start.elapsed().as_secs_f64() * 1e6);
        }
        client.request(&Request::Shutdown)?;
        Ok((stats::lo(&us), stats::median(&us)))
    })();
    if measured.is_err() {
        // the daemon never saw a Shutdown: set the flag and wake the
        // acceptor so the thread can be joined
        server.handle(Request::Shutdown);
        Server::nudge(addr);
    }
    daemon.join().expect("daemon thread does not panic")?;
    measured
}
