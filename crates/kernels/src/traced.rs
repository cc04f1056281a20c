//! Tracing the two baseline algorithms that exist only as native code:
//! LAPACK-style WY QR and LAPACK-style banded Cholesky.
//!
//! Everything else in the figures is traced by running IR programs
//! through the interpreter (see [`crate::trace`]); these two baselines
//! use *domain knowledge* (associativity of reflections, band storage
//! micro-management) the compiler does not have, so each is written
//! once over a `Meter`: run with `()` it is the plain kernel
//! ([`crate::qr::qr_wy`], [`crate::banded::pbtrf_lapack`]); run with a
//! `SinkMeter` every element access reaches an [`AccessSink`] and
//! every flop is counted ([`qr_wy_traced`], [`pbtrf_lapack_traced`]).

use crate::banded::BandMat;
use crate::Mat;
use shackle_memsim::AccessSink;

/// What a hand-written kernel reports while it runs: the byte address
/// of every element access and the flops it performs.
pub(crate) trait Meter {
    /// One element access at byte address `addr`.
    fn touch(&mut self, addr: u64);
    /// `n` floating-point operations.
    fn flops(&mut self, n: u64);
}

/// The untraced run: nothing is recorded, everything inlines away.
impl Meter for () {
    #[inline(always)]
    fn touch(&mut self, _addr: u64) {}
    #[inline(always)]
    fn flops(&mut self, _n: u64) {}
}

/// A [`Meter`] that forwards accesses to an [`AccessSink`] and counts
/// flops.
struct SinkMeter<'a, S: AccessSink + ?Sized> {
    sink: &'a mut S,
    flops: u64,
}

impl<S: AccessSink + ?Sized> Meter for SinkMeter<'_, S> {
    fn touch(&mut self, addr: u64) {
        self.sink.push(addr);
    }

    fn flops(&mut self, n: u64) {
        self.flops += n;
    }
}

/// Outcome of a traced run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TracedRun {
    /// Floating-point operations performed.
    pub flops: u64,
}

/// [`crate::qr::qr_wy`] with tracing: `A` at address 0, the `T`/`W`
/// workspace after it.
///
/// # Panics
///
/// Panics if `nb == 0` or the matrix is not square.
pub fn qr_wy_traced<S: AccessSink + ?Sized>(a: &mut Mat, nb: usize, sink: &mut S) -> TracedRun {
    let mut m = SinkMeter { sink, flops: 0 };
    crate::qr::qr_wy_metered(a, nb, &mut m);
    TracedRun { flops: m.flops }
}

/// [`crate::banded::pbtrf_lapack`] with tracing: band storage at
/// address 0.
///
/// # Panics
///
/// Panics if `nb == 0` or not positive definite.
pub fn pbtrf_lapack_traced<S: AccessSink + ?Sized>(
    a: &mut BandMat,
    nb: usize,
    sink: &mut S,
) -> TracedRun {
    let mut m = SinkMeter { sink, flops: 0 };
    crate::banded::pbtrf_lapack_metered(a, nb, &mut m);
    TracedRun { flops: m.flops }
}
