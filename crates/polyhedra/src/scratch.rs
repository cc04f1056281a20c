//! Thread-local scratch pools for hot-path intermediates.
//!
//! FM elimination classifies every row, projection enumerates candidate
//! columns, dominance checks lay a constraint out densely and every
//! cached query serialises its key; at search depth that is thousands
//! of small, short-lived `Vec`s per polyhedral query. The pools hand out
//! cleared buffers that are returned on drop and reused per thread, so
//! the steady state allocates nothing.

use std::cell::RefCell;
use std::ops::{Deref, DerefMut};
use std::thread::LocalKey;

/// Buffers kept per thread and element type; anything beyond this is
/// simply freed.
const MAX_POOLED: usize = 32;

type Pool<T> = RefCell<Vec<Vec<T>>>;

thread_local! {
    static IDX: Pool<u32> = const { RefCell::new(Vec::new()) };
    static COEFF: Pool<i64> = const { RefCell::new(Vec::new()) };
    static BYTES: Pool<u8> = const { RefCell::new(Vec::new()) };
}

/// A pooled `Vec<T>`: handed out empty, returned to its thread's pool on
/// drop.
pub(crate) struct Pooled<T: 'static> {
    buf: Vec<T>,
    pool: &'static LocalKey<Pool<T>>,
}

fn take<T>(pool: &'static LocalKey<Pool<T>>) -> Pooled<T> {
    Pooled {
        buf: pool.with(|p| p.borrow_mut().pop()).unwrap_or_default(),
        pool,
    }
}

/// Borrow a cleared index buffer from the thread-local pool.
pub(crate) fn idx_vec() -> Pooled<u32> {
    take(&IDX)
}

/// Borrow a cleared coefficient buffer from the thread-local pool.
pub(crate) fn coeff_vec() -> Pooled<i64> {
    take(&COEFF)
}

/// Borrow a cleared byte buffer from the thread-local pool.
pub(crate) fn byte_vec() -> Pooled<u8> {
    take(&BYTES)
}

impl<T> Drop for Pooled<T> {
    fn drop(&mut self) {
        let mut v = std::mem::take(&mut self.buf);
        v.clear();
        // A pool already torn down at thread exit just frees the buffer.
        let _ = self.pool.try_with(|p| {
            let mut pool = p.borrow_mut();
            if pool.len() < MAX_POOLED {
                pool.push(v);
            }
        });
    }
}

impl<T> Deref for Pooled<T> {
    type Target = Vec<T>;
    fn deref(&self) -> &Vec<T> {
        &self.buf
    }
}

impl<T> DerefMut for Pooled<T> {
    fn deref_mut(&mut self) -> &mut Vec<T> {
        &mut self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_are_reused_and_cleared() {
        let cap_after_use;
        {
            let mut v = idx_vec();
            v.extend(0..100);
            cap_after_use = v.capacity();
        }
        let v2 = idx_vec();
        assert!(v2.is_empty(), "pooled buffer must come back cleared");
        assert_eq!(
            v2.capacity(),
            cap_after_use,
            "pooled buffer must keep its allocation"
        );
    }

    #[test]
    fn pool_is_bounded() {
        let many: Vec<Pooled<u32>> = (0..2 * MAX_POOLED).map(|_| idx_vec()).collect();
        drop(many);
        IDX.with(|p| assert!(p.borrow().len() <= MAX_POOLED));
    }
}
