//! References that do not come from the pass under test.
//!
//! The search (`pipeline::auto_search`, alone or behind the daemon)
//! hands back a report and a claimed cycle count. Nothing here repeats
//! the search: the selected code is read back out of the product's own
//! report, executed by the tree interpreter (the semantics of record)
//! against the input program, and simulated again on the probe cache to
//! check the claimed cycles. The input code's cycles come from the same
//! simulation, so `gain = input cycles ÷ claimed winner cycles` moves
//! when the search selects differently and nothing here has to change.

use shackle_exec::{execute, NullObserver, Workspace};
use shackle_ir::parse::{parse, to_source};
use shackle_ir::Program;
use shackle_kernels::trace::trace_execution;
use shackle_memsim::ground_truth;
use shackle_serve::pipeline::PROBE_CACHE;
use std::collections::BTreeMap;

pub type InitFn = Box<dyn Fn(&str, &[usize]) -> f64 + Sync>;

/// Memory latency `pipeline::auto_search` scores candidates with.
const MEM_LATENCY: u64 = 60;

pub fn params(n: i64) -> BTreeMap<String, i64> {
    BTreeMap::from([("N".to_string(), n)])
}

/// The code the product selected, recovered from its report: the text
/// after the `winner <k>` line is the pretty-printed program (a `//
/// name` line, then the body in the concrete syntax), which parses back
/// exactly once the input's declarations are put in front of it.
/// `None` when the report names no winner or does not parse.
pub fn winner_program(input: &Program, report: &str) -> Option<Program> {
    let at = report.rfind("\nwinner ")? + 1;
    let mut lines = report[at..].splitn(3, '\n');
    if lines.next()? == "winner none" {
        return None;
    }
    lines.next()?.strip_prefix("// ")?;
    let body = lines.next()?;
    let source = to_source(input);
    let declarations = &source[..source.find("\n\n")? + 2];
    parse(&format!("{declarations}{body}")).ok()
}

/// Is `transformed` bit-identical to `input` under the tree
/// interpreter?
pub fn tree_equivalent(
    input: &Program,
    transformed: &Program,
    params: &BTreeMap<String, i64>,
    init: &InitFn,
) -> bool {
    let mut w1 = Workspace::for_program(input, params, init);
    let mut w2 = Workspace::for_program(transformed, params, init);
    let s1 = execute(input, &mut w1, params, &mut NullObserver);
    let s2 = execute(transformed, &mut w2, params, &mut NullObserver);
    s1.instances == s2.instances && w1 == w2
}

/// Memory cycles of `program` on the probe cache.
pub fn simulated_cycles(program: &Program, params: &BTreeMap<String, i64>, init: &InitFn) -> u64 {
    ground_truth(&[PROBE_CACHE], MEM_LATENCY, |h| {
        trace_execution(program, params, init, h);
    })
    .cycles
}

/// A selection that passed [`check_selection`].
pub struct Selection {
    /// Simulated memory cycles of the input code at the probe size.
    pub input_cycles: u64,
    /// The product's claim for the selected code, confirmed.
    pub winner_cycles: u64,
    /// Size of the pretty-printed selected code.
    pub code_bytes: u64,
}

/// Check what a search reported for `input`: the selected code must be
/// equivalent to the input under the tree interpreter and must simulate
/// to the cycles the product claimed for it.
pub fn check_selection(
    input: &Program,
    report: &str,
    claimed_cycles: u64,
    probe_n: i64,
    init: &InitFn,
) -> Result<Selection, String> {
    let code = winner_program(input, report).ok_or("the report holds no readable winner")?;
    let params = params(probe_n);
    if !tree_equivalent(input, &code, &params, init) {
        return Err("the selected code is not equivalent to the input".into());
    }
    let cycles = simulated_cycles(&code, &params, init);
    if cycles != claimed_cycles {
        return Err(format!(
            "the selected code simulates to {cycles} cycles, the product claimed {claimed_cycles}"
        ));
    }
    Ok(Selection {
        code_bytes: code.to_string().len() as u64,
        input_cycles: simulated_cycles(input, &params, init),
        winner_cycles: claimed_cycles,
    })
}

/// Input-code cycles ÷ selected-code cycles of every blocked item.
pub fn simulated_gains<'a>(selections: impl Iterator<Item = &'a Selection>) -> Vec<f64> {
    selections
        .map(|s| s.input_cycles as f64 / s.winner_cycles as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use shackle_core::search::SearchConfig;
    use shackle_ir::kernels;
    use shackle_serve::pipeline::{auto_search, Mode};

    fn ones() -> InitFn {
        Box::new(|_: &str, _: &[usize]| 1.0)
    }

    #[test]
    fn the_winner_reads_back_out_of_the_report() {
        let input = kernels::matmul_ijk();
        let cfg = SearchConfig {
            width: 8,
            ..Default::default()
        };
        let found = auto_search(&input, &cfg, 24, ones(), Mode::Memoized);
        let sel = check_selection(&input, &found.report, found.winner_cycles, 24, &ones())
            .expect("the product's own selection passes");
        assert!(sel.input_cycles > sel.winner_cycles && sel.winner_cycles == found.winner_cycles);
        assert!(sel.code_bytes > 0 && (sel.code_bytes as usize) < found.report.len());
        // a wrong claim is caught
        let wrong = check_selection(&input, &found.report, found.winner_cycles + 1, 24, &ones());
        assert!(wrong.is_err_and(|e| e.contains("claimed")));
    }

    #[test]
    fn a_refusal_has_no_winner() {
        assert!(winner_program(&kernels::matmul_ijk(), "candidates 0\nwinner none\n").is_none());
        assert!(winner_program(&kernels::matmul_ijk(), "no such line").is_none());
    }
}
