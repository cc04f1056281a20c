//! Every `System` operation is pinned bit for bit.
//!
//! Generated code is a function of a system's variable order, row order
//! and pruning decisions (a loop bound is printed from the rows the
//! scanner's projection kept, in the order it kept them), and so are the
//! cache keys a search report's hash depends on. This test runs a seeded
//! stream of random operation sequences — `add`, `and`, `rename_var`,
//! `substitute` / `try_substitute`, `project_onto`, `gist`, integer
//! feasibility and `simplify::implies` (whose fast path is the
//! single-row and two-row dominance check) — over at most eight
//! variables, and after every step folds the system's `vars()`, the text
//! of its `constraints()`, `is_contradictory()` and the step's verdict
//! into one FNV-1a digest. A change to the representation must leave the
//! digest exactly where it is.
//!
//! The golden was recorded at commit `05e896d`, the last one whose rows
//! each owned a `Vec<i64>`.

use shackle_polyhedra::audit::Rng;
use shackle_polyhedra::simplify::implies;
use shackle_polyhedra::{Budget, Constraint, LinExpr, Rel, System};

const SEED: u64 = 0x5eed_0025;
const SEQUENCES: usize = 2_000;
const STEPS: usize = 8;
const GOLDEN: u64 = 0x42a4_29e6_aef2_b90f;

const NAMES: [&str; 8] = ["a", "b", "c", "d", "i", "j", "n", "z"];

struct Digest(u64);

impl Digest {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
        self.bytes(&[0xff]);
    }

    fn system(&mut self, s: &System) {
        self.str("vars");
        for v in s.vars() {
            self.str(v);
        }
        self.str("rows");
        for c in s.constraints() {
            self.str(&c.to_string());
        }
        self.bytes(&[s.is_contradictory() as u8, s.len() as u8]);
    }
}

fn below(rng: &mut Rng, n: usize) -> usize {
    (rng.next_u64() % n as u64) as usize
}

fn coeff(rng: &mut Rng) -> i64 {
    const POOL: [i64; 11] = [-4, -3, -2, -1, -1, 1, 1, 1, 2, 3, 5];
    POOL[below(rng, POOL.len())]
}

/// A name from the pool, or (rarely) one of the renamed variables.
fn name(rng: &mut Rng) -> String {
    if below(rng, 10) == 0 {
        format!("r{}", below(rng, 3))
    } else {
        NAMES[below(rng, NAMES.len())].to_string()
    }
}

fn expr(rng: &mut Rng, terms: usize) -> LinExpr {
    let mut e = LinExpr::constant(below(rng, 21) as i64 - 10);
    for _ in 0..terms {
        e.add_term(&name(rng), coeff(rng));
    }
    e
}

fn constraint(rng: &mut Rng) -> Constraint {
    let terms = 1 + below(rng, 3);
    let e = expr(rng, terms);
    if below(rng, 5) == 0 {
        Constraint::eq_zero(e)
    } else {
        Constraint::geq_zero(e)
    }
}

fn system(rng: &mut Rng, rows: usize) -> System {
    let mut s = System::new();
    for _ in 0..rows {
        s.add(constraint(rng));
    }
    s
}

/// A box around every variable of `s`, so projections and gists stay
/// small and feasibility queries stay cheap.
fn boxed(s: &System, rng: &mut Rng) -> System {
    let mut b = System::new();
    for v in s.vars() {
        b.add(Constraint::ge(
            LinExpr::var(v.as_str()),
            LinExpr::constant(-(below(rng, 4) as i64)),
        ));
        b.add(Constraint::le(
            LinExpr::var(v.as_str()),
            LinExpr::constant(below(rng, 6) as i64 + 1),
        ));
    }
    b
}

fn verdict<T: std::fmt::Debug>(d: &mut Digest, tag: &str, v: &T) {
    d.str(tag);
    d.str(&format!("{v:?}"));
}

/// One random step on `s`; returns the next system of the sequence.
fn step(s: System, rng: &mut Rng, d: &mut Digest) -> System {
    let budget = Budget::default();
    match below(rng, 10) {
        0 | 1 => {
            let mut s = s;
            s.add(constraint(rng));
            d.str("add");
            s
        }
        2 => {
            let rows = 1 + below(rng, 3);
            let other = system(rng, rows);
            d.str("and");
            if below(rng, 2) == 0 {
                s.and(&other)
            } else {
                other.and(&s)
            }
        }
        3 => {
            let mut s = s;
            let pick = below(rng, s.vars().len().max(1));
            if let Some(from) = s.vars().get(pick).cloned() {
                let to = format!("{from}'");
                if s.var_index(&to).is_none() {
                    s.rename_var(&from, &to);
                }
            }
            d.str("rename");
            s
        }
        4 => {
            let pick = below(rng, s.vars().len().max(1));
            let Some(v) = s.vars().get(pick).cloned() else {
                return s;
            };
            let terms = below(rng, 3);
            let repl = expr(rng, terms);
            if below(rng, 2) == 0 {
                d.str("substitute");
                s.substitute(&v, &repl)
            } else {
                let r = s.try_substitute(&v, &repl);
                verdict(d, "try_substitute", &r.as_ref().err());
                r.unwrap_or(s)
            }
        }
        5 => {
            let sys = s.and(&boxed(&s, rng));
            let keep: Vec<&str> = sys
                .vars()
                .iter()
                .map(String::as_str)
                .filter(|_| below(rng, 2) == 0)
                .collect();
            match sys.try_project_onto(&keep, &budget) {
                Ok((p, exact)) => {
                    verdict(d, "project", &exact);
                    p
                }
                Err(e) => {
                    verdict(d, "project_err", &e);
                    s
                }
            }
        }
        6 => {
            let rows = below(rng, 2);
            let ctx = boxed(&s, rng).and(&system(rng, rows));
            let g = s.gist(&ctx);
            d.str("gist");
            d.system(&g);
            if below(rng, 2) == 0 {
                g
            } else {
                s
            }
        }
        7 => {
            let sys = s.and(&boxed(&s, rng));
            verdict(d, "feasible", &sys.try_is_integer_feasible());
            verdict(d, "feasible_unboxed", &s.try_is_integer_feasible());
            s
        }
        8 => {
            // Mostly constraints over the system's own variables, so the
            // dominance fast paths are exercised, not only the Omega
            // fallback.
            let cs = s.constraints();
            let c = if !cs.is_empty() && below(rng, 3) > 0 {
                let pick = below(rng, cs.len());
                let base = &cs[pick];
                let slack = below(rng, 4) as i64 - 1;
                let e = base.expr().clone() + LinExpr::constant(slack);
                match base.rel() {
                    Rel::Eq if below(rng, 2) == 0 => Constraint::eq_zero(e),
                    _ => Constraint::geq_zero(e),
                }
            } else {
                constraint(rng)
            };
            let sys = s.and(&boxed(&s, rng));
            verdict(d, "implies", &implies(&sys, &c));
            verdict(d, "implies_unboxed", &implies(&s, &c));
            s
        }
        _ => {
            let simplified = s.and(&boxed(&s, rng)).simplified();
            d.str("simplified");
            d.system(&simplified);
            s
        }
    }
}

#[test]
fn system_operations_match_recorded_digest() {
    let mut rng = Rng::new(SEED);
    let mut d = Digest(0xcbf2_9ce4_8422_2325);
    for _ in 0..SEQUENCES {
        let rows = below(&mut rng, 4);
        let mut s = system(&mut rng, rows);
        d.system(&s);
        for _ in 0..STEPS {
            s = step(s, &mut rng, &mut d);
            d.system(&s);
            if s.vars().len() > 8 || s.len() > 14 {
                break;
            }
        }
    }
    assert_eq!(
        d.0, GOLDEN,
        "a System operation moved; digest {:#018x}",
        d.0
    );
}
