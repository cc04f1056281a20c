//! `shackle` — command-line driver for the data-shackling toolchain.
//!
//! ```text
//! shackle <kernel> [--width W] [--emit input|naive|scanned|rust|c]
//!                  [--product] [--verify N] [--search] [--deps]
//! ```
//!
//! Kernels: every entry of `shackle_kernels::catalogue`, by registry
//! name (`matmul_ijk`, `syrk`, …) or CLI alias (`matmul`, `cholesky`,
//! `cholesky-left`, `qr`, `banded`, `gauss-seidel`); the usage text
//! lists them.
//!
//! Examples:
//!
//! ```text
//! shackle matmul --emit scanned --width 25       # Figure 6
//! shackle cholesky --product --emit scanned      # fully blocked (Fig. 7+)
//! shackle cholesky --search                      # enumerate legal shackles
//! shackle adi --emit scanned --verify 50         # Fig. 14 + equivalence
//! ```

use data_shackle::core::search::{enumerate_legal, SearchConfig};
use data_shackle::core::{check_legality, naive::generate_naive, scan::generate_scanned, Shackle};
use data_shackle::exec::verify::{check_equivalence, hash_init};
use data_shackle::kernels::catalogue::{self, Entry};
use std::collections::BTreeMap;
use std::process::ExitCode;

struct Options {
    kernel: String,
    width: i64,
    emit: String,
    product: bool,
    verify: Option<i64>,
    search: bool,
    deps: bool,
    file: Option<String>,
    block: Option<String>,
    refs: Option<String>,
    order: Option<String>,
    reversed: bool,
}

fn usage() -> ExitCode {
    let kernels: Vec<&str> = catalogue::catalogue().iter().map(|e| e.alias).collect();
    eprintln!(
        "usage: shackle <kernel|-> [--width W] [--emit MODE] [--product] \
         [--verify N] [--search] [--deps]\n\
         \x20      [--file PROG.ds [--block ARRAY --refs 'R1;R2;…' [--order DIGITS]]]\n\
         emit modes: input naive scanned rust c\n\
         built-in kernels: {}\n\
         with --file, the kernel name is ignored (use `-`); --block/--refs build a\n\
         shackle on the parsed program (one reference per statement, textual order;\n\
         --order lists 0-based dimensions cut first, e.g. 10 for columns-then-rows)",
        kernels.join(" ")
    );
    ExitCode::from(2)
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Options, String> {
    let kernel = args.next().ok_or("missing kernel name")?;
    let mut opts = Options {
        kernel,
        width: 32,
        emit: "scanned".to_string(),
        product: false,
        verify: None,
        search: false,
        deps: false,
        file: None,
        block: None,
        refs: None,
        order: None,
        reversed: false,
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--width" => {
                opts.width = args
                    .next()
                    .ok_or("--width needs a value")?
                    .parse()
                    .map_err(|e| format!("bad width: {e}"))?;
            }
            "--emit" => {
                opts.emit = args.next().ok_or("--emit needs a value")?;
                if !["input", "naive", "scanned", "rust", "c"].contains(&opts.emit.as_str()) {
                    return Err(format!("unknown emit mode {}", opts.emit));
                }
            }
            "--verify" => {
                opts.verify = Some(
                    args.next()
                        .ok_or("--verify needs a size")?
                        .parse()
                        .map_err(|e| format!("bad size: {e}"))?,
                );
            }
            "--product" => opts.product = true,
            "--search" => opts.search = true,
            "--deps" => opts.deps = true,
            "--file" => opts.file = Some(args.next().ok_or("--file needs a path")?),
            "--block" => opts.block = Some(args.next().ok_or("--block needs an array")?),
            "--refs" => opts.refs = Some(args.next().ok_or("--refs needs a ;-list")?),
            "--order" => opts.order = Some(args.next().ok_or("--order needs digits")?),
            "--reversed" => opts.reversed = true,
            other => return Err(format!("unknown option {other}")),
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("shackle: {e}");
            return usage();
        }
    };
    let entry: Option<Entry> = catalogue::find(&opts.kernel);
    let program = if let Some(path) = &opts.file {
        let src = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("shackle: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        match data_shackle::ir::parse::parse(&src) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("shackle: {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        match entry {
            Some(e) => (e.build)(),
            None => {
                eprintln!("shackle: unknown kernel {}", opts.kernel);
                return usage();
            }
        }
    };

    if opts.deps {
        let deps = data_shackle::ir::deps::dependences(&program);
        println!("{} dependences:", deps.len());
        for d in &deps {
            println!("  {d}");
        }
        return ExitCode::SUCCESS;
    }

    if opts.search {
        let legal = enumerate_legal(
            &program,
            &SearchConfig {
                width: opts.width,
                ..Default::default()
            },
        );
        println!("{} legal single shackles:", legal.len());
        for c in &legal {
            println!(
                "  {} (unconstrained refs: {})",
                c.shackle,
                c.unconstrained.len()
            );
        }
        return ExitCode::SUCCESS;
    }

    if opts.emit == "input" {
        print!("{program}");
        return ExitCode::SUCCESS;
    }

    let factors = if let (Some(array), Some(refs)) = (&opts.block, &opts.refs) {
        // custom shackle on a (possibly parsed) program
        let decl = match program.array(array) {
            Some(d) => d,
            None => {
                eprintln!("shackle: program has no array {array}");
                return ExitCode::FAILURE;
            }
        };
        let rank = decl.rank();
        let order: Vec<usize> = match &opts.order {
            Some(digits) => digits
                .chars()
                .filter_map(|c| c.to_digit(10))
                .map(|d| d as usize)
                .collect(),
            None => (0..rank).collect(),
        };
        let mut parsed_refs = Vec::new();
        for piece in refs.split(';') {
            match data_shackle::ir::parse::parse_ref_str(piece.trim()) {
                Ok(r) => parsed_refs.push(r),
                Err(e) => {
                    eprintln!("shackle: bad reference `{piece}`: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        let cuts: Vec<data_shackle::core::CutSet> = order
            .iter()
            .map(|&d| {
                let c = data_shackle::core::CutSet::axis(d, rank, opts.width);
                if opts.reversed {
                    c.reversed()
                } else {
                    c
                }
            })
            .collect();
        let blocking = data_shackle::core::Blocking::new(array.as_str(), cuts);
        vec![Shackle::new(&program, blocking, parsed_refs)]
    } else {
        // the canonical shackle asked for, else the one the kernel has
        let canonical = entry.and_then(|e| {
            if opts.product {
                e.product.or(e.single)
            } else {
                e.single.or(e.product)
            }
        });
        match canonical {
            Some(shackle) => shackle(&program, opts.width),
            None => {
                eprintln!(
                    "shackle: no canonical {} shackle for kernel {} \
                     (use --block/--refs for custom programs)",
                    if opts.product { "product" } else { "single" },
                    opts.kernel
                );
                return ExitCode::FAILURE;
            }
        }
    };
    let report = check_legality(&program, &factors);
    if !report.is_legal() {
        eprintln!(
            "shackle: ILLEGAL shackle ({} of {} dependences violated):",
            report.violations.len(),
            report.dependences_checked
        );
        for v in report.violations.iter().take(5) {
            eprintln!("  {v}");
        }
        return ExitCode::FAILURE;
    }
    let transformed = match opts.emit.as_str() {
        "naive" => generate_naive(&program, &factors),
        _ => generate_scanned(&program, &factors),
    };
    match opts.emit.as_str() {
        "rust" => print!(
            "{}",
            data_shackle::ir::emit::emit(&transformed, data_shackle::ir::emit::Dialect::Rust)
        ),
        "c" => print!(
            "{}",
            data_shackle::ir::emit::emit(&transformed, data_shackle::ir::emit::Dialect::C)
        ),
        _ => print!("{transformed}"),
    }

    if let Some(n) = opts.verify {
        // a parsed program has size `N` and no ill-conditioned pivots
        let plain = || BTreeMap::from([("N".to_string(), n)]);
        let params = entry.map_or_else(plain, |e| e.params(n));
        let hashed = || Box::new(hash_init(7)) as catalogue::Init;
        let init = entry.map_or_else(hashed, |e| e.init(&params, 7));
        let eq = check_equivalence(&program, &transformed, &params, init);
        eprintln!(
            "verify n={n}: max relative difference {:.3e} over {} instances",
            eq.max_rel_diff, eq.reference.instances
        );
        if !eq.within(1e-9) {
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_vec(args: &[&str]) -> Result<Options, String> {
        parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let o = parse_vec(&["cholesky"]).unwrap();
        assert_eq!(o.kernel, "cholesky");
        assert_eq!(o.width, 32);
        assert_eq!(o.emit, "scanned");
        assert!(!o.product && !o.search && !o.deps && !o.reversed);
        assert!(o.verify.is_none() && o.file.is_none());
    }

    #[test]
    fn all_flags_parse() {
        let o = parse_vec(&[
            "-",
            "--width",
            "16",
            "--emit",
            "rust",
            "--product",
            "--verify",
            "50",
            "--file",
            "p.ds",
            "--block",
            "A",
            "--refs",
            "A[I]",
            "--order",
            "10",
            "--reversed",
        ])
        .unwrap();
        assert_eq!(o.width, 16);
        assert_eq!(o.emit, "rust");
        assert!(o.product && o.reversed);
        assert_eq!(o.verify, Some(50));
        assert_eq!(o.file.as_deref(), Some("p.ds"));
        assert_eq!(o.block.as_deref(), Some("A"));
        assert_eq!(o.order.as_deref(), Some("10"));
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse_vec(&[]).is_err());
        assert!(parse_vec(&["matmul", "--width"]).is_err());
        assert!(parse_vec(&["matmul", "--width", "abc"]).is_err());
        assert!(parse_vec(&["matmul", "--emit", "fortran"]).is_err());
        assert!(parse_vec(&["matmul", "--bogus"]).is_err());
    }
}
