//! End-to-end daemon tests: byte-identity with the batch search path
//! under concurrency, one test per structured error class, request
//! coalescing, store persistence across a restart, and the `--stdio`
//! binary smoke.
//!
//! The polyhedral memo cache and the probe counters are process-global,
//! so every test here serializes behind [`LOCK`]; other test binaries
//! run in separate processes and cannot interfere.

use shackle_core::par;
use shackle_core::search::{candidate_shackles, SearchConfig};
use shackle_ir::kernels;
use shackle_ir::parse::to_source;
use shackle_kernels::gen::spd_ws_init;
use shackle_polyhedra::{cache, Budget};
use shackle_serve::pipeline::{auto_search, Mode, TOP_K};
use shackle_serve::proto::{read_response, send_request};
use shackle_serve::{Client, ErrorClass, Request, Response, Server, ServiceConfig};
use std::io::Write;
use std::net::TcpListener;
use std::sync::{Arc, Barrier, Mutex};

static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// The kernel mix the stress test serves: (request, batch expectation
/// inputs). Small probe sizes keep the full search in tens of
/// milliseconds.
fn mix() -> Vec<(Request, u64, String)> {
    let specs: [(shackle_ir::Program, i64, i64); 6] = [
        (kernels::matmul_ijk(), 24, 8),
        (kernels::gauss(), 16, 8),
        // the scenario-diversity wave: a reversed-traversal solve, a
        // triangular update, a stencil, and a contraction only
        // partially-blockable — each must parse off the wire and answer
        // byte-identically to the batch pipeline
        (kernels::backsolve(), 16, 4),
        (kernels::syrk(), 12, 4),
        (kernels::jacobi2d(), 16, 4),
        (kernels::tensor_contract(), 8, 4),
    ];
    specs
        .into_iter()
        .map(|(p, probe_n, width)| {
            let cfg = SearchConfig {
                width,
                ..Default::default()
            };
            let ones = |_: &str, _: &[usize]| 1.0;
            let batch = auto_search(&p, &cfg, probe_n, ones, Mode::Memoized);
            (
                Request::Optimize {
                    probe_n,
                    width,
                    init: "ones".to_string(),
                    source: to_source(&p),
                },
                batch.winner_cycles,
                batch.report,
            )
        })
        .collect()
}

/// Satellite 3's stress test: concurrent TCP clients receive responses
/// byte-identical to the batch `pipeline::auto_search` path, at
/// `SHACKLE_THREADS` ∈ {1, 8}.
#[test]
fn concurrent_clients_match_batch_path_at_1_and_8_threads() {
    let _g = lock();
    for threads in [1usize, 8] {
        let _t = par::with_threads(threads);
        cache::clear_cache();
        let expected = mix();

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = Arc::new(Server::new().with_store(None));
        let srv = Arc::clone(&server);
        let accept = std::thread::spawn(move || srv.serve_tcp(listener).unwrap());

        let clients: Vec<_> = (0..6)
            .map(|i| {
                let expected = expected.clone();
                std::thread::spawn(move || {
                    let mut c = Client::connect(addr).unwrap();
                    for round in 0..2 {
                        let (req, cycles, report) = &expected[(i + round) % expected.len()];
                        match c.request(req).unwrap() {
                            Response::Optimized {
                                winner_cycles,
                                report: served,
                            } => {
                                assert_eq!(winner_cycles, *cycles, "threads={threads}");
                                assert_eq!(&served, report, "threads={threads}");
                            }
                            r => panic!("unexpected response {r:?}"),
                        }
                    }
                })
            })
            .collect();
        for c in clients {
            c.join().unwrap();
        }

        let mut c = Client::connect(addr).unwrap();
        assert!(matches!(
            c.request(&Request::Shutdown).unwrap(),
            Response::ShuttingDown
        ));
        drop(c);
        accept.join().unwrap();
    }
}

#[test]
fn parse_errors_are_structured_frames() {
    let _g = lock();
    let server = Server::new().with_store(None);
    match server.handle(Request::Optimize {
        probe_n: 24,
        width: 8,
        init: "ones".into(),
        source: "this is not a kernel".into(),
    }) {
        Response::Error { class, message } => {
            assert_eq!(class, ErrorClass::Parse);
            assert!(!message.is_empty());
        }
        r => panic!("unexpected response {r:?}"),
    }
}

#[test]
fn undecidable_legality_refuses_with_unknown() {
    let _g = lock();
    cache::clear_cache();
    let server = Server::with_config(ServiceConfig {
        budget: Budget::strict(),
    })
    .with_store(None);
    match server.handle(Request::Optimize {
        probe_n: 12,
        width: 4,
        init: "spd:A:3".into(),
        source: to_source(&kernels::cholesky_right()),
    }) {
        Response::Error { class, message } => {
            assert_eq!(class, ErrorClass::Unknown);
            assert!(message.contains("undecided"), "message: {message}");
        }
        r => panic!("unexpected response {r:?}"),
    }
    // The same request under the default budget succeeds: the refusal
    // is about the budget, not the kernel.
    cache::clear_cache();
    let server = Server::new().with_store(None);
    match server.handle(Request::Optimize {
        probe_n: 12,
        width: 4,
        init: "spd:A:3".into(),
        source: to_source(&kernels::cholesky_right()),
    }) {
        Response::Optimized { winner_cycles, .. } => assert!(winner_cycles > 0),
        r => panic!("unexpected response {r:?}"),
    }
}

/// One pass per request, seen through the product's own counters: a
/// served optimize decides each enumerated candidate once, decides the
/// factors of the leaf order its report prints (its best-ranked chain
/// is legal, so no other factor is asked about), generates each
/// rescored program's code once (the winner's is printed from there),
/// and answers what the batch path answers.
#[test]
fn optimize_decides_each_candidate_once_and_generates_each_survivor_once() {
    let _g = lock();
    cache::clear_cache();
    let program = kernels::cholesky_right();
    let cfg = SearchConfig {
        width: 4,
        ..Default::default()
    };
    let batch = auto_search(&program, &cfg, 12, spd_ws_init("A", 12, 3), Mode::Memoized);
    assert!((1..=TOP_K).contains(&batch.rescored));

    let legality = shackle_probe::counter("core.legality_queries");
    let codegen = shackle_probe::counter("core.codegen_programs");
    let was_enabled = shackle_probe::set_enabled(true);
    let before = (legality.get(), codegen.get());
    let response = Server::new().with_store(None).handle(Request::Optimize {
        probe_n: 12,
        width: 4,
        init: "spd:A:3".into(),
        source: to_source(&program),
    });
    let counted = (legality.get() - before.0, codegen.get() - before.1);
    shackle_probe::set_enabled(was_enabled);

    // the forward space blocks cholesky_right fully: one enumerated
    // list, then the one-factor left-looking column order
    let candidates = candidate_shackles(&program, &cfg).len();
    let order = batch
        .report
        .lines()
        .find_map(|l| l.strip_prefix("order "))
        .expect("cholesky_right has an improving leaf order");
    let order_factors = order.matches("shackle[").count();
    assert_eq!(order_factors, 1, "{order}");
    assert_eq!(
        counted,
        ((candidates + order_factors) as u64, batch.rescored as u64)
    );
    match response {
        Response::Optimized {
            winner_cycles,
            report,
        } => {
            assert_eq!(winner_cycles, batch.winner_cycles);
            assert_eq!(report, batch.report);
        }
        r => panic!("unexpected response {r:?}"),
    }
}

#[test]
fn invalid_parameters_are_internal_errors() {
    let _g = lock();
    let server = Server::new().with_store(None);
    match server.handle(Request::Optimize {
        probe_n: 0,
        width: 8,
        init: "ones".into(),
        source: to_source(&kernels::matmul_ijk()),
    }) {
        Response::Error { class, .. } => assert_eq!(class, ErrorClass::Internal),
        r => panic!("unexpected response {r:?}"),
    }
}

/// A payload the decoder rejects answers a `Protocol` error frame and
/// the connection keeps working.
#[test]
fn protocol_errors_keep_the_connection_alive() {
    let _g = lock();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = Arc::new(Server::new().with_store(None));
    let srv = Arc::clone(&server);
    let accept = std::thread::spawn(move || srv.serve_tcp(listener).unwrap());

    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    // Unknown request tag 0x63 with an empty payload: valid framing,
    // invalid request.
    stream.write_all(&[0x63]).unwrap();
    stream.write_all(&0u64.to_le_bytes()).unwrap();
    stream.flush().unwrap();
    match read_response(&mut stream).unwrap() {
        Response::Error { class, .. } => assert_eq!(class, ErrorClass::Protocol),
        r => panic!("unexpected response {r:?}"),
    }
    // Same connection, now a well-formed quote: still served.
    let quote = Request::Quote {
        probe_n: 24,
        source: to_source(&kernels::matmul_ijk()),
    };
    send_request(&mut stream, &quote).unwrap();
    match read_response(&mut stream).unwrap() {
        Response::Quoted { predicted_cycles } => assert!(predicted_cycles > 0),
        r => panic!("unexpected response {r:?}"),
    }
    send_request(&mut stream, &Request::Shutdown).unwrap();
    assert!(matches!(
        read_response(&mut stream).unwrap(),
        Response::ShuttingDown
    ));
    drop(stream);
    accept.join().unwrap();
}

/// A quote for a kernel that declares a parameter the daemon does not
/// bind (`S` of gauss_seidel_1d, `P` of banded Cholesky) is a `Parse`
/// refusal naming it, not the price of the program with it at 0, and
/// the worker answers the next request.
#[test]
fn quote_refuses_an_unbound_parameter() {
    let _g = lock();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = Arc::new(Server::new().with_store(None));
    let srv = Arc::clone(&server);
    let accept = std::thread::spawn(move || srv.serve_tcp(listener).unwrap());

    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    for (program, param) in [
        (kernels::gauss_seidel_1d(), "S"),
        (kernels::banded_cholesky(), "P"),
    ] {
        let quote = Request::Quote {
            probe_n: 24,
            source: to_source(&program),
        };
        send_request(&mut stream, &quote).unwrap();
        match read_response(&mut stream).unwrap() {
            Response::Error { class, message } => {
                assert_eq!(class, ErrorClass::Parse, "{message}");
                assert!(message.contains(param), "{message}");
            }
            r => panic!("{}: unexpected response {r:?}", program.name()),
        }
    }
    let quote = Request::Quote {
        probe_n: 24,
        source: to_source(&kernels::matmul_ijk()),
    };
    send_request(&mut stream, &quote).unwrap();
    match read_response(&mut stream).unwrap() {
        Response::Quoted { predicted_cycles } => assert!(predicted_cycles > 0),
        r => panic!("unexpected response {r:?}"),
    }
    send_request(&mut stream, &Request::Shutdown).unwrap();
    assert!(matches!(
        read_response(&mut stream).unwrap(),
        Response::ShuttingDown
    ));
    drop(stream);
    accept.join().unwrap();
}

/// Kernels that are well-formed text but semantically invalid — an
/// unbound subscript variable, a rank mismatch, an undeclared array —
/// are `Parse` refusals naming the offender, not worker panics, and the
/// connection keeps working.
#[test]
fn semantically_invalid_kernels_are_parse_refusals() {
    let _g = lock();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = Arc::new(Server::new().with_store(None));
    let srv = Arc::clone(&server);
    let accept = std::thread::spawn(move || srv.serve_tcp(listener).unwrap());

    let kernel = |stmt: &str| {
        format!(
            "program bad\nparam N\narray A(N, N)\n\n\
             do I = 1 .. N\n  do J = 1 .. N\n    S1: {stmt}\n"
        )
    };
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    for (stmt, offender) in [
        ("A[I, J] = A[Q, J] + 1", "Q"),
        ("A[I] = A[I, J] + 1", "A[I]"),
        ("B[I, J] = A[I, J] + 1", "B"),
    ] {
        let quote = Request::Quote {
            probe_n: 24,
            source: kernel(stmt),
        };
        send_request(&mut stream, &quote).unwrap();
        match read_response(&mut stream).unwrap() {
            Response::Error { class, message } => {
                assert_eq!(class, ErrorClass::Parse, "{stmt}: {message}");
                assert!(message.contains(offender), "{stmt}: {message}");
            }
            r => panic!("{stmt}: unexpected response {r:?}"),
        }
    }
    // Same connection, now a valid kernel: still served.
    let quote = Request::Quote {
        probe_n: 24,
        source: kernel("A[I, J] = A[J, I] + 1"),
    };
    send_request(&mut stream, &quote).unwrap();
    match read_response(&mut stream).unwrap() {
        Response::Quoted { predicted_cycles } => assert!(predicted_cycles > 0),
        r => panic!("unexpected response {r:?}"),
    }
    send_request(&mut stream, &Request::Shutdown).unwrap();
    assert!(matches!(
        read_response(&mut stream).unwrap(),
        Response::ShuttingDown
    ));
    drop(stream);
    accept.join().unwrap();
}

/// A kernel whose subscript leaves its array is refused before any
/// search runs it: a `Parse` frame naming the reference and a point
/// where it overruns, and the worker answers the next request on the
/// same connection.
#[test]
fn an_out_of_bounds_kernel_gets_a_frame_and_the_worker_answers_on() {
    let _g = lock();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = Arc::new(Server::new().with_store(None));
    let srv = Arc::clone(&server);
    let accept = std::thread::spawn(move || srv.serve_tcp(listener).unwrap());

    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    let overrun = Request::Optimize {
        probe_n: 24,
        width: 8,
        init: "ones".into(),
        source: "program overrun\nparam N\narray A(N)\n\n\
                 do I = 1 .. N\n  S1: A[I + 1] = A[I] + 1\n"
            .into(),
    };
    send_request(&mut stream, &overrun).unwrap();
    match read_response(&mut stream).unwrap() {
        Response::Error { class, message } => {
            assert_eq!(class, ErrorClass::Parse, "{message}");
            assert!(message.contains("A[I + 1]"), "{message}");
            assert!(message.contains("N = "), "a witness: {message}");
        }
        r => panic!("unexpected response {r:?}"),
    }
    let optimize = Request::Optimize {
        probe_n: 24,
        width: 8,
        init: "ones".into(),
        source: to_source(&kernels::matmul_ijk()),
    };
    send_request(&mut stream, &optimize).unwrap();
    match read_response(&mut stream).unwrap() {
        Response::Optimized { winner_cycles, .. } => assert!(winner_cycles > 0),
        r => panic!("unexpected response {r:?}"),
    }
    send_request(&mut stream, &Request::Shutdown).unwrap();
    assert!(matches!(
        read_response(&mut stream).unwrap(),
        Response::ShuttingDown
    ));
    drop(stream);
    accept.join().unwrap();
}

/// Send `requests` down one in-memory connection and decode what comes
/// back. The call returning at all is the worker surviving: a panic in
/// a handler unwinds through `serve_connection`.
fn serve_in_memory(server: &Server, requests: &[Request]) -> Vec<Response> {
    let mut frames = Vec::new();
    for r in requests {
        send_request(&mut frames, r).unwrap();
    }
    let mut answers = Vec::new();
    server
        .serve_connection(&mut frames.as_slice(), &mut answers)
        .unwrap();
    let mut answers = answers.as_slice();
    requests
        .iter()
        .map(|_| read_response(&mut answers).unwrap())
        .collect()
}

/// The refusal `source` must draw from both request kinds, each
/// followed on the same connection by a request that is served.
fn assert_refused(source: &str, probe_n: i64, class: ErrorClass, names: &str) {
    let _g = lock();
    let server = Server::new().with_store(None);
    let good = to_source(&kernels::matmul_ijk());
    let answers = serve_in_memory(
        &server,
        &[
            Request::Optimize {
                probe_n,
                width: 4,
                init: "ones".into(),
                source: source.to_string(),
            },
            Request::Quote {
                probe_n,
                source: source.to_string(),
            },
            Request::Quote {
                probe_n,
                source: good,
            },
        ],
    );
    for (kind, answer) in ["optimize", "quote"].iter().zip(&answers) {
        match answer {
            Response::Error { class: c, message } => {
                assert_eq!(*c, class, "{kind}: {message}");
                assert!(message.contains(names), "{kind}: {message}");
            }
            r => panic!("{kind}: unexpected response {r:?}"),
        }
    }
    match &answers[2] {
        Response::Quoted { predicted_cycles } => assert!(*predicted_cycles > 0),
        r => panic!("unexpected response {r:?}"),
    }
}

/// The daemon binds `N` and nothing else: a kernel sized by another
/// parameter is refused by name, not unwound on.
#[test]
fn a_parameter_the_daemon_does_not_bind_is_a_parse_refusal() {
    assert_refused(
        "program other\nparam M\narray C(M, M)\n\n\
         do I = 1 .. M\n  do J = 1 .. M\n    S1: C[I, J] = C[I, J] + 1\n",
        16,
        ErrorClass::Parse,
        "parameter M",
    );
}

/// A parameter only a loop bound names cannot be refused on the
/// declaration alone — gauss_seidel_1d declares `S` that way and has no
/// legal product to score — but once a product would be scored it is
/// refused by name, not unwound on, and the worker answers the next
/// request. (The kernel caps `I` at `N` as well as `M`, so it stays in
/// bounds for every `M` and reaches the search.)
#[test]
fn a_parameter_only_a_loop_bound_names_is_refused_before_scoring() {
    let _g = lock();
    let server = Server::new().with_store(None);
    let optimize = |source: String| Request::Optimize {
        probe_n: 24,
        width: 4,
        init: "ones".into(),
        source,
    };
    let bound_only = "program p\nparam N\nparam M\narray B(N, N)\narray A(N, N)\n\n\
        do J = 1 .. N\n  do I = 1 .. min(M, N)\n    S1: B[I, J] = A[I, J] + 1\n";
    let answers = serve_in_memory(
        &server,
        &[
            optimize(bound_only.to_string()),
            optimize(to_source(&kernels::gauss_seidel_1d())),
            optimize(to_source(&kernels::matmul_ijk())),
        ],
    );
    match &answers[0] {
        Response::Error { class, message } => {
            assert_eq!(*class, ErrorClass::Parse, "{message}");
            assert!(message.contains("parameter M"), "{message}");
        }
        r => panic!("unexpected response {r:?}"),
    }
    match &answers[1] {
        Response::Error { class, message } => {
            assert_eq!(*class, ErrorClass::Internal, "{message}");
            assert!(message.contains("no legal blocking product"), "{message}");
        }
        r => panic!("unexpected response {r:?}"),
    }
    assert!(
        matches!(answers[2], Response::Optimized { .. }),
        "{:?}",
        answers[2]
    );
}

/// An extent that is not positive at the requested probe size is
/// refused naming the array and the value.
#[test]
fn a_non_positive_extent_at_the_probe_size_is_an_internal_refusal() {
    assert_refused(
        "program short\nparam N\narray A(N - 20)\n\n\
         do I = 1 .. N - 20\n  S1: A[I] = A[I] + 1\n",
        16,
        ErrorClass::Internal,
        "extent of A must be positive, got -4",
    );
}

/// An extent past `i64` at the probe size is an `Internal` refusal
/// naming the array, not an `eval overflow` unwind out of the extent
/// evaluator, and the worker answers the next request.
#[test]
fn an_overflowing_extent_is_an_internal_refusal() {
    assert_refused(
        "program big\nparam N\narray A(4611686018427387904*N)\n\n\
         do I = 1 .. N\n  S1: A[I] = A[I] + 1\n",
        16,
        ErrorClass::Internal,
        "size of A overflows i64 at probe_n 16",
    );
}

/// Concurrent identical requests coalesce onto one search: all callers
/// get equal responses and `serve.coalesced` counts the followers.
#[test]
fn identical_concurrent_requests_coalesce() {
    let _g = lock();
    cache::clear_cache();
    let server = Arc::new(Server::new().with_store(None));
    let before = shackle_probe::counter("serve.coalesced").get();
    let n = 4;
    let barrier = Arc::new(Barrier::new(n));
    let req = Request::Optimize {
        probe_n: 24,
        width: 8,
        init: "ones".into(),
        // A renamed kernel must coalesce with the original: the flight
        // key uses the canonical name-free hash.
        source: to_source(&kernels::matmul_ijk().with_name("renamed_copy")),
    };
    let handles: Vec<_> = (0..n)
        .map(|i| {
            let server = Arc::clone(&server);
            let barrier = Arc::clone(&barrier);
            let mut req = req.clone();
            if i == 0 {
                if let Request::Optimize { source, .. } = &mut req {
                    *source = to_source(&kernels::matmul_ijk());
                }
            }
            std::thread::spawn(move || {
                barrier.wait();
                server.handle(req)
            })
        })
        .collect();
    let responses: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    for r in &responses {
        assert!(matches!(r, Response::Optimized { .. }), "got {r:?}");
        match (r, &responses[0]) {
            (
                Response::Optimized {
                    winner_cycles: a,
                    report: ra,
                },
                Response::Optimized {
                    winner_cycles: b,
                    report: rb,
                },
            ) => {
                assert_eq!(a, b);
                assert_eq!(ra, rb);
            }
            _ => unreachable!(),
        }
    }
    let coalesced = shackle_probe::counter("serve.coalesced").get() - before;
    assert!(
        coalesced >= 1,
        "expected at least one coalesced follower, got {coalesced}"
    );
}

/// The cross-request store: entries survive a simulated daemon restart
/// and replay as cache hits for the next process.
#[test]
fn store_persists_across_restart() {
    let _g = lock();
    let path = std::env::temp_dir().join(format!(
        "shackle-serve-restart-{}.store",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    cache::clear_cache();
    cache::reset_stats();

    let req = Request::Optimize {
        probe_n: 24,
        width: 8,
        init: "ones".into(),
        source: to_source(&kernels::matmul_ijk()),
    };
    let first = {
        let server = Server::new().with_store(Some(path.clone()));
        let resp = server.handle(req.clone());
        let bytes = server.save_store().unwrap();
        assert!(bytes > 0, "save wrote nothing");
        resp
    };
    let entries_before = cache::entry_count();
    assert!(entries_before > 0);

    // "Restart": wipe the in-memory cache, reload from disk.
    cache::clear_cache();
    assert_eq!(cache::entry_count(), 0);
    let server = Server::new().with_store(Some(path.clone()));
    let loaded = server.load_store().unwrap();
    assert_eq!(loaded, entries_before);

    cache::reset_stats();
    let second = server.handle(req);
    match (&first, &second) {
        (
            Response::Optimized {
                winner_cycles: a,
                report: ra,
            },
            Response::Optimized {
                winner_cycles: b,
                report: rb,
            },
        ) => {
            assert_eq!(a, b);
            assert_eq!(ra, rb, "restarted daemon must answer byte-identically");
        }
        (a, b) => panic!("unexpected responses {a:?} / {b:?}"),
    }
    let stats = cache::stats();
    let hits = stats.feasibility_hits + stats.projection_hits + stats.gist_hits;
    assert!(hits > 0, "reloaded store produced no hits: {stats:?}");
    let _ = std::fs::remove_file(&path);
}

/// What the parent commit's daemon wrote for a cache holding the one
/// verdict "`x - 1 >= 0` is feasible": store version 1, no checksum.
fn parent_version_store() -> Vec<u8> {
    let mut s = b"SHPL".to_vec();
    s.push(1); // version
    s.extend([0, 2, 10, 0, 2, 1, 1, 2, 1]); // one feasibility entry
    s.extend([1, 0, 2, 0, 0xff]); // empty projection and gist sections, end
    s
}

/// Flip the first `false` feasibility verdict of a store to `true`
/// (zig-zag LEB128 counts and lengths; the feasibility section follows
/// the five-byte header).
fn flip_first_infeasible_verdict(store: &mut [u8]) {
    let varint = |pos: &mut usize| {
        let (mut z, mut shift) = (0u64, 0);
        loop {
            let b = store[*pos];
            *pos += 1;
            z |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return (z >> 1) as usize;
            }
            shift += 7;
        }
    };
    let mut pos = 6;
    let at = (0..varint(&mut pos))
        .find_map(|_| {
            pos += varint(&mut pos);
            pos += 1;
            (store[pos - 1] == 0).then_some(pos - 1)
        })
        .expect("an infeasible verdict in the store");
    store[at] = 1;
}

/// A store the loader refuses — the parent's format, a truncated file,
/// one flipped verdict — is a cold start: the daemon comes up (it used
/// to fail at start-up), counts the file in `serve.store_rejected`, and
/// answers an optimize byte-identically to a cold daemon.
#[test]
fn an_unreadable_store_is_a_cold_start() {
    let _g = lock();
    let path = std::env::temp_dir().join(format!(
        "shackle-serve-unreadable-{}.store",
        std::process::id()
    ));
    let req = Request::Optimize {
        probe_n: 16,
        width: 8,
        init: "ones".into(),
        source: to_source(&kernels::matmul_ijk()),
    };
    cache::clear_cache();
    let cold = Server::new().with_store(None).handle(req.clone());
    assert!(matches!(cold, Response::Optimized { .. }), "{cold:?}");
    cache::save_to(&path).unwrap();
    let intact = std::fs::read(&path).unwrap();
    let mut flipped = intact.clone();
    flip_first_infeasible_verdict(&mut flipped);

    let rejected = shackle_probe::counter("serve.store_rejected");
    for (what, bytes) in [
        ("parent version", parent_version_store()),
        ("truncated", intact[..intact.len() / 2].to_vec()),
        ("flipped verdict", flipped),
    ] {
        std::fs::write(&path, &bytes).unwrap();
        cache::clear_cache();
        let before = rejected.get();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = Arc::new(Server::new().with_store(Some(path.clone())));
        let srv = Arc::clone(&server);
        let daemon = std::thread::spawn(move || srv.serve_tcp(listener));
        let mut client = Client::connect(addr).unwrap();
        let answer = client.request(&req).unwrap();
        assert_eq!(rejected.get(), before + 1, "{what}");
        assert_eq!(answer, cold, "{what}: a warm answer from a refused store");
        assert!(matches!(
            client.request(&Request::Shutdown).unwrap(),
            Response::ShuttingDown
        ));
        drop(client);
        daemon.join().unwrap().unwrap();
    }
    let _ = std::fs::remove_file(&path);
}

/// The `--stdio` mode the CI smoke drives: one quote, one optimize, one
/// stats over a pipe, well-formed responses for each.
#[test]
fn stdio_binary_answers_quote_optimize_stats() {
    let _g = lock();
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_shackle_serve"))
        .arg("--stdio")
        .env_remove("SHACKLE_POLY_CACHE")
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .unwrap();
    let mut stdin = child.stdin.take().unwrap();
    let src = to_source(&kernels::matmul_ijk());
    send_request(
        &mut stdin,
        &Request::Quote {
            probe_n: 24,
            source: src.clone(),
        },
    )
    .unwrap();
    send_request(
        &mut stdin,
        &Request::Optimize {
            probe_n: 16,
            width: 8,
            init: "ones".into(),
            source: src,
        },
    )
    .unwrap();
    send_request(&mut stdin, &Request::Stats).unwrap();
    drop(stdin); // EOF ends the stdio serve loop

    let mut stdout = child.stdout.take().unwrap();
    assert!(matches!(
        read_response(&mut stdout).unwrap(),
        Response::Quoted { predicted_cycles } if predicted_cycles > 0
    ));
    assert!(matches!(
        read_response(&mut stdout).unwrap(),
        Response::Optimized { winner_cycles, .. } if winner_cycles > 0
    ));
    match read_response(&mut stdout).unwrap() {
        Response::Stats { json } => {
            assert!(json.contains("\"requests\": 3"), "stats: {json}");
            assert!(json.contains("\"quote_requests\": 1"), "stats: {json}");
        }
        r => panic!("unexpected response {r:?}"),
    }
    assert!(child.wait().unwrap().success());
}
