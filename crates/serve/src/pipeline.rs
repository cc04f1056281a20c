//! The canonical §8 auto-shackle search pipeline: enumerate, grow,
//! score, select.
//!
//! This module is the single source of truth for the end-to-end search
//! used both by batch callers (the `benchmark` crate's `compile_cold`
//! and `host_run` workloads, `tests/search_identity.rs`) and by the
//! daemon's `optimize` handler ([`crate::service`]) — one
//! implementation, so a served response is byte-identical to a batch
//! run by construction, not by test luck.
//!
//! The search does each piece of work once. One tri-state Theorem-1
//! pass per enumerated candidate list
//! ([`shackle_core::search::candidate_verdicts`], early-exit
//! cheapest-first over shared dependences, under the caller's
//! [`Budget`]) is the only time the solver is asked anything: greedy
//! Theorem-2 growth conjoins proven-legal shackles, which stay legal
//! by §6. Two-phase scoring follows (the `shackle-model` analytical
//! predictor ranks every product, the exact probe-cache simulator
//! re-scores only the top [`TOP_K`]), and the winner's code is the
//! program its score was simulated from. Enumeration, growth and
//! scoring fan out over [`shackle_core::par`]; the textual report is
//! byte-identical at any thread count and whatever the polyhedral cache
//! already holds.

use shackle_core::search::{
    candidate_verdicts, complete_product, legal_candidates, two_phase, SearchConfig,
};
use shackle_core::{scan, span, Legality, Shackle};
use shackle_ir::Program;
use shackle_kernels::trace::trace_execution;
use shackle_memsim::{ground_truth, CacheConfig};
use shackle_model::{predict, KernelGeometry};
use shackle_polyhedra::Budget;
use std::collections::BTreeMap;
use std::convert::Infallible;
use std::fmt::Write as _;
use std::sync::OnceLock;

/// The pipeline [`auto_search`] runs. There is one; the type survives
/// because the frozen `benchmark/` crate names `Mode::Memoized`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Shared dependences + early-exit legality + memoized queries +
    /// parallel fan-out.
    Memoized,
}

/// The search result in comparable form.
#[derive(Clone, Debug)]
pub struct SearchOutcome {
    /// Raw candidates enumerated (before the legality filter).
    pub candidates: usize,
    /// Legal distinct candidates.
    pub legal: usize,
    /// Fully-blocking distinct products grown from the legal seeds.
    pub products: usize,
    /// Products re-scored with the exact simulator (the analytical
    /// model ranks all of them; only the top [`TOP_K`] are simulated).
    pub rescored: usize,
    /// Simulated memory cycles of the selected product.
    pub winner_cycles: u64,
    /// Full textual report: every verdict, product, score and the
    /// winner's generated code. Byte-identical across thread counts.
    pub report: String,
}

/// The probe cache used to score candidates (the §8 cost-model stand-in;
/// same as the `auto_shackle` example).
pub const PROBE_CACHE: CacheConfig = CacheConfig {
    size: 8 * 1024,
    line: 128,
    assoc: 4,
    latency: 0,
};

/// Survivors of the analytical first pass that get exact probe-cache
/// simulation (`shackle_core::search::two_phase`). Two is enough for
/// the handful of grown products this search ranks; the dense-grid
/// sweeps (`tests/prop_model.rs`, the `benchmark` crate's
/// `autotune_sweep`) keep the top 8.
pub const TOP_K: usize = 2;

/// The binding every search scores under: the probe size for `N`, and
/// nothing else.
pub(crate) fn probe_params(probe_n: i64) -> BTreeMap<String, i64> {
    BTreeMap::from([("N".to_string(), probe_n)])
}

/// Run the full auto-shackle search — enumerate, grow, score, select.
/// `probe_n` is the problem size scored on the probe cache; `init`
/// seeds the workspace (use an SPD initializer for factorizations).
/// Legality is decided under the default [`Budget`]; a candidate the
/// solver cannot decide within it counts as illegal.
pub fn auto_search(
    program: &Program,
    cfg: &SearchConfig,
    probe_n: i64,
    init: impl Fn(&str, &[usize]) -> f64 + Sync,
    mode: Mode,
) -> SearchOutcome {
    // Taken only because the frozen `benchmark/` crate passes it.
    let Mode::Memoized = mode;
    let admit_all = |_: &[(Shackle, Legality)]| Ok::<(), Infallible>(());
    match search(program, cfg, probe_n, &init, &Budget::default(), &admit_all) {
        Ok(outcome) => outcome,
        Err(never) => match never {},
    }
}

/// The search body behind [`auto_search`] and the daemon's `optimize`
/// ([`crate::service::optimize`]). `budget` bounds the one Theorem-1
/// pass each enumerated candidate list gets — the forward space and,
/// when it yields no fully-blocking product, the reversed-cut retry —
/// and `admit` sees that pass's verdicts before any growth or scoring:
/// its error stops the search there. Proven verdicts do not depend on
/// the budget, so every search that completes renders the same report.
pub(crate) fn search<E>(
    program: &Program,
    cfg: &SearchConfig,
    probe_n: i64,
    init: &(impl Fn(&str, &[usize]) -> f64 + Sync),
    budget: &Budget,
    admit: &impl Fn(&[(Shackle, Legality)]) -> Result<(), E>,
) -> Result<SearchOutcome, E> {
    // 1. legality verdict per raw candidate; the legal ones, deduped in
    //    enumeration order, seed the growth
    let verdicts = candidate_verdicts(program, cfg, budget);
    admit(&verdicts)?;
    let legal = legal_candidates(program, &verdicts);

    // 2. grow each legal seed into a product (Theorem 2), keeping the
    //    distinct fully-blocking ones; maximal grown products that
    //    still leave references unconstrained are held back as the
    //    last-resort candidate set (step 2c)
    let mut products: Vec<Vec<Shackle>> = Vec::new();
    let mut partial: Vec<Vec<Shackle>> = Vec::new();
    for c in &legal {
        let seed = vec![c.shackle.clone()];
        let grown = complete_product(program, seed, &legal);
        if span::unconstrained_refs(program, &grown).is_empty() {
            if !products.contains(&grown) {
                products.push(grown);
            }
        } else if !partial.contains(&grown) {
            partial.push(grown);
        }
    }

    // 2b. codes whose data flows from high indices to low (triangular
    //     back-solve) have no legal forward traversal: when the forward
    //     space yields no fully-blocking product, rerun once with §8
    //     reversed cut sets enabled. The retry is a full re-entry so the
    //     report stays the single source of truth.
    if products.is_empty() && !cfg.reversed_directions {
        let cfg2 = SearchConfig {
            reversed_directions: true,
            ..cfg.clone()
        };
        let mut out = search(program, &cfg2, probe_n, init, budget, admit)?;
        out.report = format!(
            "no fully-blocking forward product; retrying with reversed cut sets\n{}",
            out.report
        );
        return Ok(out);
    }

    // 2c. some codes cannot be fully blocked at all — a rank-2
    //     reduction chain (tensor contraction's Σ over K,L into
    //     C[I,J]) makes every full-rank operand blocking illegal, so
    //     only output blockings survive and Theorem 2 growth stalls
    //     with references unconstrained. Ranking the maximal grown
    //     products is still the paper's best answer; the report says
    //     so explicitly.
    let mut partially_blocking = false;
    if products.is_empty() && !partial.is_empty() {
        products = partial;
        partially_blocking = true;
    }

    // 3. two-phase scoring: the analytical model ranks every product,
    //    then only the top-K survivors get the exact probe-cache
    //    simulation. Both phases tie-break by product index, so the
    //    outcome is deterministic. A survivor's generated code stays in
    //    its slot: the winner's is printed from there, not generated a
    //    second time.
    let params = probe_params(probe_n);
    let geom = KernelGeometry::new(program, &params);
    let scored: Vec<(&Vec<Shackle>, OnceLock<Program>)> =
        products.iter().map(|p| (p, OnceLock::new())).collect();
    let outcome = two_phase(
        &scored,
        TOP_K,
        |(product, _)| predict(&geom, product, &[PROBE_CACHE], 60).cycles,
        |(product, code)| {
            let code = code.get_or_init(|| scan::generate_scanned(program, product));
            ground_truth(&[PROBE_CACHE], 60, |h| {
                trace_execution(code, &params, init, h);
            })
            .cycles
        },
    );

    let mut report = String::new();
    let _ = writeln!(report, "candidates {}", verdicts.len());
    for (s, verdict) in &verdicts {
        let _ = writeln!(
            report,
            "candidate {s}: {}",
            if *verdict == Legality::Legal {
                "legal"
            } else {
                "illegal"
            }
        );
    }
    if partially_blocking {
        let _ = writeln!(
            report,
            "no fully-blocking product; ranking {} partially-blocking grown products",
            products.len()
        );
    }
    for (i, p) in products.iter().enumerate() {
        let text: Vec<String> = p.iter().map(|s| s.to_string()).collect();
        let _ = writeln!(report, "product {i}: {}", text.join(" x "));
    }
    let (rescored, winner_cycles) = match &outcome {
        Some(o) => {
            for (i, &cycles) in o.model_scores.iter().enumerate() {
                let _ = writeln!(report, "model {i}: {cycles} cycles predicted");
            }
            for &(i, cycles) in &o.rescored {
                let _ = writeln!(report, "rescore {i}: {cycles} cycles at N={probe_n}");
            }
            let code = scored[o.winner].1.get().expect("the winner was rescored");
            let _ = writeln!(report, "winner {}\n{}", o.winner, code);
            (o.rescored.len(), o.winner_score)
        }
        None => {
            let _ = writeln!(report, "winner none");
            (0, 0)
        }
    };

    Ok(SearchOutcome {
        candidates: verdicts.len(),
        legal: legal.len(),
        products: products.len(),
        rescored,
        winner_cycles,
        report,
    })
}
