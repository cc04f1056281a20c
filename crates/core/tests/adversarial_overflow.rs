//! Adversarial parser-to-solver coverage: kernels whose index
//! expressions carry coefficients large enough to overflow i64
//! arithmetic inside the Omega test (`lcm`, row combination, equality
//! substitution) must flow through the whole pipeline — parse →
//! dependence analysis → legality — without panicking. Either the i128
//! promotion rescues the computation and the verdict is *proven*, or
//! the solver refuses with a clean [`PolyError`] and legality degrades
//! to conservative rejection ([`LegalityReport::unknown`]).

use proptest::prelude::*;
use shackle_core::{check_legality_with_deps, Blocking, CutSet, Shackle};
use shackle_ir::deps::dependences;
use shackle_ir::parse::parse;
use shackle_polyhedra::{Budget, PolyError, Verdict};

/// 2^40 and 2^40 + 1: coprime, so FM's `lcm` on them is ~2^80 — far
/// past i64. The i128 promotion recomputes the combined rows exactly
/// and narrows back, so these dependences are *proven*, not refused.
const RESCUED_KERNEL: &str = "program overflow-probe
param N
array A(N)

do I = 1 .. N
  do J = 1 .. N
    S1: A[1099511627776 * I + 1099511627777 * J] = A[1099511627777 * I + 1099511627776 * J] + 1.0
";

/// Equality substitution multiplies the 2^32 subscript coefficient of
/// one dimension by the 2^32 coefficient of the other, producing 2^64
/// rows with gcd 1 — beyond any i64 narrowing. The solver must refuse
/// with `PolyError::Overflow`, never panic.
const REFUSED_KERNEL: &str = "program subst-overflow
param N
array A(N, N)

do I = 1 .. N
  do J = 1 .. N
    do K = 1 .. N
      S1: A[I + 4294967296 * J, 4294967296 * I + K] = A[I + 4294967296 * J, 4294967296 * I + K] + 1.0
";

#[test]
fn rescued_kernel_is_proven_by_i128_promotion() {
    let p = parse(RESCUED_KERNEL).expect("parser accepts 2^40-scale coefficients");
    let deps = dependences(&p);
    assert!(!deps.is_empty());
    for d in &deps {
        for s in &d.systems {
            // dependences() keeps only disjuncts that are not proven
            // empty; with the rescue they are all proven inhabited
            assert_eq!(s.try_is_integer_feasible(), Ok(true), "{s}");
            assert_eq!(s.decide(&Budget::default()), Verdict::Yes);
        }
    }
    // Legality's violation probes add tie constraints over the same
    // 2^40 subscripts, which can push past even the i128 rescue; the
    // report must stay sound either way (Unknown rejects) — and, above
    // all, complete without a panic.
    let shackle = Shackle::on_writes(&p, Blocking::new("A", vec![CutSet::axis(0, 1, 8)]));
    let rep = check_legality_with_deps(&p, std::slice::from_ref(&shackle), &deps);
    assert_eq!(
        rep.is_legal(),
        rep.violations.is_empty() && rep.unknown.is_empty()
    );
}

#[test]
fn refused_kernel_degrades_to_conservative_rejection() {
    let p = parse(REFUSED_KERNEL).expect("parser accepts 2^32-scale coefficients");
    let deps = dependences(&p);
    assert_eq!(deps.len(), 3, "self-dependence: output + flow + anti");
    for d in &deps {
        for s in &d.systems {
            // a clean refusal, not a panic — and Unknown, not a guess
            assert!(
                matches!(s.try_is_integer_feasible(), Err(PolyError::Overflow { .. })),
                "expected overflow refusal for {s}"
            );
            assert_eq!(s.decide(&Budget::default()), Verdict::Unknown);
        }
    }
    let shackle = Shackle::on_writes(
        &p,
        Blocking::new("A", vec![CutSet::axis(0, 2, 8), CutSet::axis(1, 2, 8)]),
    );
    let rep = check_legality_with_deps(&p, std::slice::from_ref(&shackle), &deps);
    // Unknown is disqualifying: no violation was *proven*, but the
    // blocking must still be rejected so generated code stays correct
    assert!(!rep.is_legal());
    assert!(rep.violations.is_empty());
    assert!(!rep.unknown.is_empty());
}

#[test]
fn hostile_coefficient_ceiling_is_unknown_not_wrong() {
    // A rescued-style kernel under a budget whose coefficient ceiling
    // is below the subscripts: the solver may refuse (Unknown) but must
    // never prove the opposite of the default-budget verdict.
    //
    // Proven verdicts are (correctly) replayed from the memo cache
    // whatever the budget, so the order below matters: `dependences`
    // has already proven these systems under the default budget, hence
    // the `clear_cache`; then every system meets the raw solver under
    // the tiny budget *first*, and only afterwards under the default
    // one. The 2^52 scale is outside the range the proptests below
    // sweep, so no concurrently running test re-proves these systems
    // in between.
    let p = parse(&scaled_kernel(52, false)).unwrap();
    let deps = dependences(&p);
    let tiny = Budget {
        max_coeff: 1 << 20,
        ..Budget::default()
    };
    shackle_polyhedra::cache::clear_cache();
    let systems: Vec<_> = deps.iter().flat_map(|d| &d.systems).collect();
    let under_tiny: Vec<Verdict> = systems.iter().map(|s| s.decide(&tiny)).collect();
    let mut refusals = 0u32;
    for (s, v) in systems.iter().zip(under_tiny) {
        match v {
            Verdict::Unknown => refusals += 1,
            v => assert_eq!(v, s.decide(&Budget::default()), "{s}"),
        }
    }
    assert!(refusals > 0, "2^52 coefficients must trip a 2^20 ceiling");
}

fn scaled_kernel(shift: u32, flip: bool) -> String {
    let a = 1i64 << shift;
    let b = a + 1;
    let (ca, cb) = if flip { (b, a) } else { (a, b) };
    format!(
        "program scaled-probe
param N
array A(N)

do I = 1 .. N
  do J = 1 .. N
    S1: A[{ca} * I + {cb} * J] = A[{cb} * I + {ca} * J] + 1.0
"
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Across the whole magnitude range where i64 arithmetic starts to
    /// crack (2^31 .. 2^50), every parsed kernel's dependence systems
    /// decide without panicking, `decide` agrees with the fallible
    /// entry point, and a hostile budget can only refuse — never
    /// contradict a proven verdict.
    #[test]
    fn parser_scale_coefficients_never_panic(shift in 31u32..51, flip in prop::bool::ANY) {
        let p = parse(&scaled_kernel(shift, flip)).expect("parses");
        let tiny = Budget { max_coeff: 1 << 24, ..Budget::default() };
        for d in dependences(&p) {
            for s in &d.systems {
                let direct = s.try_is_integer_feasible();
                let verdict = s.decide(&Budget::default());
                match direct {
                    Ok(v) => prop_assert_eq!(verdict.known(), Some(v)),
                    Err(_) => prop_assert_eq!(verdict, Verdict::Unknown),
                }
                if let v @ (Verdict::Yes | Verdict::No) = s.decide(&tiny) {
                    prop_assert_eq!(v, verdict, "hostile budget contradicted {}", s);
                }
            }
        }
    }

    /// Legality over the scaled kernels is always *sound*: any report
    /// with undecided dependences rejects the blocking.
    #[test]
    fn unknown_dependences_always_reject(shift in 31u32..51) {
        let p = parse(&scaled_kernel(shift, false)).expect("parses");
        let deps = dependences(&p);
        let shackle = Shackle::on_writes(&p, Blocking::new("A", vec![CutSet::axis(0, 1, 4)]));
        let rep = check_legality_with_deps(&p, std::slice::from_ref(&shackle), &deps);
        if !rep.unknown.is_empty() {
            prop_assert!(!rep.is_legal());
        }
        prop_assert_eq!(
            rep.is_legal(),
            rep.violations.is_empty() && rep.unknown.is_empty()
        );
    }
}
