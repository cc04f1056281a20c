//! A store the loader cannot read as a whole is refused as a whole.
//!
//! `cache::load_from` used to insert every entry it had parsed before
//! the first bad one, and read the feasibility verdicts it was handed on
//! trust: one flipped bit replayed a wrong verdict as proven. Each file
//! below — the parent format (version 1, no checksum), a truncated store
//! and a store with one flipped verdict — must be `InvalidData` with
//! `cache::entry_count()` unchanged.

use shackle_polyhedra::{cache, Budget, Constraint, LinExpr, System};
use std::io::ErrorKind;
use std::path::PathBuf;
use std::sync::Mutex;

/// The cache is process-global; the tests here take turns.
static LOCK: Mutex<()> = Mutex::new(());

fn v(n: &str) -> LinExpr {
    LinExpr::var(n)
}

fn c(k: i64) -> LinExpr {
    LinExpr::constant(k)
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "shackle_store_reject_{}_{name}",
        std::process::id()
    ))
}

/// A store of a small warm cache: feasible and infeasible verdicts
/// (Pugh's example has none, and its recursion stores subproblems too),
/// a projection and a gist.
fn warm_store() -> Vec<u8> {
    cache::clear_cache();
    let mut pugh = System::new();
    let e1 = v("x") * 11 + v("y") * 13;
    let e2 = v("x") * 7 - v("y") * 9;
    pugh.add(Constraint::ge(e1.clone(), c(27)));
    pugh.add(Constraint::le(e1, c(45)));
    pugh.add(Constraint::ge(e2.clone(), c(-10)));
    pugh.add(Constraint::le(e2, c(4)));
    assert_eq!(pugh.try_is_integer_feasible(), Ok(false));
    let mut tri = System::new();
    tri.add(Constraint::ge(v("j"), c(1)));
    tri.add(Constraint::le(v("j"), v("i")));
    tri.add(Constraint::le(v("i"), v("n")));
    assert_eq!(tri.try_is_integer_feasible(), Ok(true));
    tri.try_project_onto(&["j", "n"], &Budget::default())
        .unwrap();
    tri.gist(&System::new());
    let path = tmp("warm");
    cache::save_to(&path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    bytes
}

/// What the parent commit wrote for a cache holding the one verdict
/// "`x - 1 >= 0` is feasible": version 1, its feasibility key layout
/// (flag, used columns, then rel, constant, coefficients per row), no
/// checksum. The parent loads it; this build must not.
fn parent_version_store() -> Vec<u8> {
    let mut s = b"SHPL".to_vec();
    s.push(1); // version
    s.extend([0, 2]); // feasibility section, one entry
    s.extend([10, 0, 2, 1, 1, 2]); // key length 5, zig-zagged; key
    s.push(1); // verdict
    s.extend([1, 0, 2, 0, 0xff]); // empty projection and gist sections, end
    s
}

/// Zig-zag LEB128, as the store writes counts and lengths.
fn varint(buf: &[u8], pos: &mut usize) -> usize {
    let (mut z, mut shift) = (0u64, 0);
    loop {
        let b = buf[*pos];
        *pos += 1;
        z |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return (z >> 1) as usize;
        }
        shift += 7;
    }
}

/// Offset of the first `false` verdict in the feasibility section (the
/// first section after the five-byte header).
fn first_infeasible_verdict(store: &[u8]) -> usize {
    let mut pos = 5;
    assert_eq!(store[pos], 0, "feasibility section first");
    pos += 1;
    for _ in 0..varint(store, &mut pos) {
        let klen = varint(store, &mut pos);
        pos += klen;
        if store[pos] == 0 {
            return pos;
        }
        pos += 1;
    }
    panic!("the warm store holds no infeasible verdict");
}

fn assert_refused(what: &str, bytes: &[u8]) {
    let path = tmp(what);
    std::fs::write(&path, bytes).unwrap();
    cache::clear_cache();
    let before = cache::entry_count();
    let err = cache::load_from(&path).expect_err(what);
    assert_eq!(err.kind(), ErrorKind::InvalidData, "{what}: {err}");
    assert_eq!(
        cache::entry_count(),
        before,
        "{what}: entries were inserted"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn a_parent_version_store_is_refused() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    assert_refused("parent_version", &parent_version_store());
}

#[test]
fn a_truncated_store_is_refused_whole() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let store = warm_store();
    let n = store.len();
    for cut in [5, n / 3, n / 2, n - 9, n - 1] {
        assert_refused(&format!("truncated_{cut}"), &store[..cut]);
    }
}

#[test]
fn a_flipped_verdict_bit_is_refused() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut store = warm_store();
    let at = first_infeasible_verdict(&store);
    store[at] = 1; // "infeasible" now reads "feasible"
    assert_refused("flipped_verdict", &store);
}
