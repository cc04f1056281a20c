//! Request semantics: validation, canonical kernel identity, and the
//! optimize/quote pipelines behind the daemon's protocol.
//!
//! The server ([`crate::server`]) owns connections, scheduling and
//! coalescing; this module owns what a request *means*. Everything here
//! is a pure function of the request plus the shared polyhedral cache,
//! so coalesced duplicates can share one computation safely.

use crate::pipeline::{probe_params, search, PROBE_CACHE};
use crate::proto::{ErrorClass, Response};
use shackle_core::search::SearchConfig;
use shackle_core::{Legality, Shackle};
use shackle_ir::parse::{parse, to_source};
use shackle_ir::Program;
use shackle_kernels::gen::spd_ws_init;
use shackle_kernels::trace::{array_extents, ExtentError};
use shackle_model::{predict, KernelGeometry};
use shackle_polyhedra::Budget;

/// Bounds on request parameters: a daemon must not let one request ask
/// for an effectively unbounded simulation.
pub const MAX_PROBE_N: i64 = 512;
pub const MAX_WIDTH: i64 = 1024;

/// Per-service knobs, fixed at server construction.
#[derive(Clone, Debug, Default)]
pub struct ServiceConfig {
    /// Budget for the search's legality pass: a request with a
    /// candidate the solver cannot decide within it is refused with an
    /// [`ErrorClass::Unknown`] error frame instead of silently
    /// degrading.
    pub budget: Budget,
}

/// A structured request failure, rendered as an error frame.
#[derive(Clone, Debug)]
pub struct ServeError {
    pub class: ErrorClass,
    pub message: String,
}

impl ServeError {
    fn new(class: ErrorClass, message: impl Into<String>) -> Self {
        ServeError {
            class,
            message: message.into(),
        }
    }

    pub fn into_response(self) -> Response {
        Response::Error {
            class: self.class,
            message: self.message,
        }
    }
}

/// FNV-1a over the canonical (name-free) source text: two kernels that
/// differ only in their `program` name hash identically, so concurrent
/// requests for a renamed copy coalesce onto one search. The init spec,
/// probe size and width are *not* part of this hash — the server keys
/// its in-flight map on `(hash, probe_n, width, init)`.
pub fn canonical_kernel_hash(program: &Program) -> u64 {
    let canonical = to_source(&program.clone().with_name("kernel"));
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in canonical.as_bytes() {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A boxed workspace-initializer closure produced by [`InitSpec::build`].
type InitFn<'a> = Box<dyn Fn(&str, &[usize]) -> f64 + Sync + 'a>;

/// A named workspace initializer, parsed from the request's init spec.
/// Closures cannot travel over the wire, so the protocol names the
/// initializer families the harnesses use.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InitSpec {
    /// Every element `1.0`.
    Ones,
    /// `shackle_kernels::gen::spd_ws_init(array, probe_n, seed)` — the
    /// symmetric-positive-definite seeding factorization kernels need.
    Spd { array: String, seed: u64 },
}

impl InitSpec {
    /// Parse `"ones"` or `"spd:<array>:<seed>"`.
    pub fn parse(spec: &str) -> Result<InitSpec, String> {
        if spec == "ones" {
            return Ok(InitSpec::Ones);
        }
        if let Some(rest) = spec.strip_prefix("spd:") {
            let (array, seed) = rest
                .rsplit_once(':')
                .ok_or_else(|| format!("bad init spec `{spec}`: expected spd:<array>:<seed>"))?;
            let seed: u64 = seed
                .parse()
                .map_err(|_| format!("bad init spec `{spec}`: seed must be an integer"))?;
            if array.is_empty() {
                return Err(format!("bad init spec `{spec}`: empty array name"));
            }
            return Ok(InitSpec::Spd {
                array: array.to_string(),
                seed,
            });
        }
        Err(format!(
            "unknown init spec `{spec}`: expected `ones` or `spd:<array>:<seed>`"
        ))
    }

    /// The canonical string form ([`InitSpec::parse`]'s inverse).
    pub fn to_spec(&self) -> String {
        match self {
            InitSpec::Ones => "ones".to_string(),
            InitSpec::Spd { array, seed } => format!("spd:{array}:{seed}"),
        }
    }

    /// Materialize the initializer for a given probe size.
    fn build(&self, probe_n: i64) -> InitFn<'_> {
        match self {
            InitSpec::Ones => Box::new(|_: &str, _: &[usize]| 1.0),
            InitSpec::Spd { array, seed } => {
                let f = spd_ws_init(array, probe_n as usize, *seed);
                Box::new(f)
            }
        }
    }
}

fn parse_kernel(source: &str) -> Result<Program, ServeError> {
    parse(source).map_err(|e| ServeError::new(ErrorClass::Parse, e.to_string()))
}

fn check_probe_n(probe_n: i64) -> Result<(), ServeError> {
    if (1..=MAX_PROBE_N).contains(&probe_n) {
        Ok(())
    } else {
        Err(ServeError::new(
            ErrorClass::Internal,
            format!("probe_n {probe_n} outside 1..={MAX_PROBE_N}"),
        ))
    }
}

/// Refuse a kernel whose arrays cannot be laid out at `probe_n` — the
/// simulation behind a score would unwind on it. A parameter the daemon
/// does not bind is the kernel's fault whatever the request says
/// ([`ErrorClass::Parse`]); an extent that is not positive, or an array
/// too large to address, is this request's, at this probe size
/// ([`ErrorClass::Internal`]).
fn check_extents(program: &Program, probe_n: i64) -> Result<(), ServeError> {
    match array_extents(program, &probe_params(probe_n)) {
        Ok(_) => Ok(()),
        Err(e @ ExtentError::MissingParameter { .. }) => Err(ServeError::new(
            ErrorClass::Parse,
            format!("{e}: the daemon binds N, and only N"),
        )),
        Err(e @ (ExtentError::NonPositive { .. } | ExtentError::Overflow { .. })) => Err(
            ServeError::new(ErrorClass::Internal, format!("{e} at probe_n {probe_n}")),
        ),
    }
}

/// Validate and parse an optimize request's pieces (everything up to
/// the expensive search). The server calls this *before* coalescing so
/// that invalid requests answer immediately and the in-flight key can
/// use the canonical hash.
pub fn prepare_optimize(
    probe_n: i64,
    width: i64,
    init: &str,
    source: &str,
) -> Result<(Program, InitSpec), ServeError> {
    check_probe_n(probe_n)?;
    if !(1..=MAX_WIDTH).contains(&width) {
        return Err(ServeError::new(
            ErrorClass::Internal,
            format!("width {width} outside 1..={MAX_WIDTH}"),
        ));
    }
    let program = parse_kernel(source)?;
    check_extents(&program, probe_n)?;
    let init = InitSpec::parse(init).map_err(|m| ServeError::new(ErrorClass::Internal, m))?;
    if let InitSpec::Spd { array, .. } = &init {
        if program.array(array).is_none() {
            return Err(ServeError::new(
                ErrorClass::Internal,
                format!("init spec references array `{array}` not declared by the kernel"),
            ));
        }
    }
    Ok((program, init))
}

/// The full optimize pipeline: the canonical search
/// ([`crate::pipeline::auto_search`]'s body, so a batch run renders the
/// same report byte for byte) with its one legality pass under the
/// service budget. A candidate that pass leaves undecided would make
/// the search's conservative rejection silent, so the request is
/// refused — before any growth or scoring — with a structured error.
pub fn optimize(
    program: &Program,
    probe_n: i64,
    width: i64,
    init: &InitSpec,
    cfg: &ServiceConfig,
) -> Result<Response, ServeError> {
    let _span = shackle_probe::span("optimize");
    let search_cfg = SearchConfig {
        width,
        ..Default::default()
    };
    let refuse_undecided = |verdicts: &[(Shackle, Legality)]| {
        let undecided = verdicts
            .iter()
            .filter(|(_, v)| *v == Legality::Undecided)
            .count();
        if undecided == 0 {
            return Ok(());
        }
        Err(ServeError::new(
            ErrorClass::Unknown,
            format!(
                "legality not provable within the service budget: \
                 {undecided} undecided candidate(s) of {}",
                verdicts.len()
            ),
        ))
    };
    let init_fn = init.build(probe_n);
    let outcome = {
        let _span = shackle_probe::span("search");
        search(
            program,
            &search_cfg,
            probe_n,
            &init_fn,
            &cfg.budget,
            &refuse_undecided,
        )?
    };
    if outcome.products == 0 {
        return Err(ServeError::new(
            ErrorClass::Internal,
            "no legal blocking product exists for this kernel at the requested width",
        ));
    }
    Ok(Response::Optimized {
        winner_cycles: outcome.winner_cycles,
        report: outcome.report,
    })
}

/// The fast path: analytical-model cycles for the *naive* (unblocked)
/// nest on the standard probe cache. No legality, no codegen, no
/// simulation — microseconds, in the spirit of latency-based tiling's
/// approximate-but-instant answers.
pub fn quote(source: &str, probe_n: i64) -> Result<Response, ServeError> {
    let _span = shackle_probe::span("quote");
    check_probe_n(probe_n)?;
    let program = parse_kernel(source)?;
    check_extents(&program, probe_n)?;
    let params = probe_params(probe_n);
    let geom = KernelGeometry::new(&program, &params);
    let predicted = predict(&geom, &[], &[PROBE_CACHE], 60).cycles;
    Ok(Response::Quoted {
        predicted_cycles: predicted,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use shackle_ir::kernels;

    #[test]
    fn canonical_hash_ignores_program_name_only() {
        let p = kernels::matmul_ijk();
        let renamed = p.clone().with_name("totally_different");
        assert_eq!(canonical_kernel_hash(&p), canonical_kernel_hash(&renamed));
        let other = kernels::cholesky_right();
        assert_ne!(canonical_kernel_hash(&p), canonical_kernel_hash(&other));
    }

    #[test]
    fn init_specs_parse_and_round_trip() {
        assert_eq!(InitSpec::parse("ones"), Ok(InitSpec::Ones));
        let spd = InitSpec::parse("spd:A:3").unwrap();
        assert_eq!(
            spd,
            InitSpec::Spd {
                array: "A".into(),
                seed: 3
            }
        );
        assert_eq!(InitSpec::parse(&spd.to_spec()), Ok(spd));
        assert!(InitSpec::parse("gaussian").is_err());
        assert!(InitSpec::parse("spd:A").is_err());
        assert!(InitSpec::parse("spd::3").is_err());
        assert!(InitSpec::parse("spd:A:x").is_err());
    }

    #[test]
    fn quote_predicts_naive_cycles() {
        let src = to_source(&kernels::matmul_ijk());
        match quote(&src, 24).unwrap() {
            Response::Quoted { predicted_cycles } => assert!(predicted_cycles > 0),
            r => panic!("unexpected response {r:?}"),
        }
    }

    #[test]
    fn parse_failures_surface_as_parse_errors() {
        let err = quote("program broken\n  do i = 1 ..", 24).unwrap_err();
        assert_eq!(err.class, ErrorClass::Parse);
        let err = prepare_optimize(24, 8, "ones", "nonsense").unwrap_err();
        assert_eq!(err.class, ErrorClass::Parse);
    }

    #[test]
    fn invalid_parameters_are_internal_errors() {
        let src = to_source(&kernels::matmul_ijk());
        assert_eq!(
            prepare_optimize(0, 8, "ones", &src).unwrap_err().class,
            ErrorClass::Internal
        );
        assert_eq!(
            prepare_optimize(24, 0, "ones", &src).unwrap_err().class,
            ErrorClass::Internal
        );
        assert_eq!(
            prepare_optimize(24, 8, "spd:Z:3", &src).unwrap_err().class,
            ErrorClass::Internal
        );
    }
}
