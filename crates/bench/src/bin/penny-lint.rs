//! `penny-lint`: the kernel sanitizer, run standalone over workloads or
//! kernel files.
//!
//! Usage:
//!
//! ```text
//! penny-lint [--all-workloads] [ABBR|FILE]... [--deny-warnings]
//!            [--launch BX[,BY[,GX[,GY]]]] [--allow NAME]... [--json]
//!            [--refinement-table]
//! ```
//!
//! Each positional argument is a workload abbreviation (paper Table 3)
//! or a path to a `.penny` assembly file. `--all-workloads` lints all
//! 25 workloads. Diagnostics carry block and instruction provenance
//! (`severity[name] kernel@block:idx (inst): message`); `--json` emits
//! one JSON object per diagnostic instead. `--allow NAME` suppresses a
//! diagnostic by name. Workloads lint under their declared launch
//! geometry; file targets default to conservative (inexact) geometry,
//! which disables the shared-race prover — pass `--launch` to lint a
//! file under the exact dimensions it will run with. Exit status: 0
//! clean, 1 diagnostics reported (errors always; warnings only under
//! `--deny-warnings`), 2 usage error.
//!
//! `--refinement-table` additionally prints the before/after effect of
//! the range-refined alias analysis on every workload's region and
//! checkpoint counts (see `penny_bench::refinement`).

use penny_analysis::{lint_kernel, Diagnostic, LintOptions, Severity};
use penny_core::LaunchDims;
use penny_ir::Kernel;
use penny_obs::json::escape;

struct Target {
    label: String,
    kernel: Kernel,
    dims: Option<LaunchDims>,
}

fn main() {
    let mut all_workloads = false;
    let mut deny_warnings = false;
    let mut json = false;
    let mut refinement_table = false;
    let mut allow: Vec<String> = Vec::new();
    let mut names: Vec<String> = Vec::new();
    let mut launch: Option<LaunchDims> = None;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--all-workloads" => all_workloads = true,
            "--deny-warnings" => deny_warnings = true,
            "--json" => json = true,
            "--refinement-table" => refinement_table = true,
            "--allow" => {
                let n = args.next().unwrap_or_else(|| die("--allow needs a name"));
                allow.push(n);
            }
            other if other.starts_with("--allow=") => {
                allow.push(other["--allow=".len()..].to_string());
            }
            "--launch" => {
                let v = args.next().unwrap_or_else(|| die("--launch needs dimensions"));
                launch = Some(parse_launch(&v));
            }
            other if other.starts_with("--launch=") => {
                launch = Some(parse_launch(&other["--launch=".len()..]));
            }
            other if other.starts_with('-') => {
                die(&format!("unknown flag `{other}`"));
            }
            other => names.push(other.to_string()),
        }
    }
    if !all_workloads && names.is_empty() && !refinement_table {
        die("nothing to lint (try --all-workloads)");
    }

    let mut targets: Vec<Target> = Vec::new();
    if all_workloads {
        for w in penny_workloads::all_with_corpus() {
            let kernel =
                w.kernel().unwrap_or_else(|e| die(&format!("workload {}: {e}", w.abbr)));
            targets.push(Target { label: w.abbr.to_string(), kernel, dims: Some(w.dims) });
        }
    }
    for name in &names {
        if let Some(w) = penny_workloads::by_abbr(name) {
            let kernel =
                w.kernel().unwrap_or_else(|e| die(&format!("workload {}: {e}", w.abbr)));
            targets.push(Target { label: w.abbr.to_string(), kernel, dims: Some(w.dims) });
        } else {
            let src = std::fs::read_to_string(name).unwrap_or_else(|e| {
                die(&format!(
                    "`{name}` is neither a workload abbreviation nor a readable file: {e}"
                ))
            });
            let kernel = penny_ir::parse_kernel(&src)
                .unwrap_or_else(|e| die(&format!("{name}: parse error: {e}")));
            targets.push(Target { label: name.clone(), kernel, dims: launch });
        }
    }

    let mut errors = 0usize;
    let mut warnings = 0usize;
    for t in &targets {
        let mut opts = match t.dims {
            Some(d) => LintOptions::for_launch(d.block, d.grid),
            None => LintOptions::default(),
        };
        opts.allow.clone_from(&allow);
        let diags = lint_kernel(&t.kernel, &opts);
        for d in &diags {
            match d.severity {
                Severity::Error => errors += 1,
                Severity::Warning => warnings += 1,
            }
            if json {
                println!("{}", to_json(&t.label, d));
            } else {
                println!("{}: {d}", t.label);
            }
        }
    }

    if refinement_table {
        print!("{}", penny_bench::render_refinement(&penny_bench::refinement_comparison()));
    }

    if !json && !targets.is_empty() {
        eprintln!(
            "penny-lint: {} target(s), {errors} error(s), {warnings} warning(s)",
            targets.len()
        );
    }
    if errors > 0 || (deny_warnings && warnings > 0) {
        std::process::exit(1);
    }
}

fn die(msg: &str) -> ! {
    eprintln!("penny-lint: {msg}");
    std::process::exit(2);
}

/// `BX[,BY[,GX[,GY]]]` — omitted dimensions default to 1.
fn parse_launch(s: &str) -> LaunchDims {
    let mut dims = [1u32; 4];
    let parts: Vec<&str> = s.split(',').collect();
    if parts.is_empty() || parts.len() > 4 {
        die(&format!("bad --launch `{s}` (want BX[,BY[,GX[,GY]]])"));
    }
    for (slot, p) in dims.iter_mut().zip(&parts) {
        *slot = p
            .parse()
            .unwrap_or_else(|_| die(&format!("bad --launch dimension `{p}` in `{s}`")));
    }
    LaunchDims { block: (dims[0], dims[1]), grid: (dims[2], dims[3]) }
}

/// One diagnostic as a JSON object.
fn to_json(target: &str, d: &Diagnostic) -> String {
    format!(
        "{{\"target\":\"{}\",\"name\":\"{}\",\"severity\":\"{}\",\"kernel\":\"{}\",\"block\":\"{}\",\"loc\":\"{}\",\"inst\":\"{}\",\"message\":\"{}\"}}",
        escape(target),
        escape(d.name),
        d.severity,
        escape(&d.kernel),
        escape(&d.block),
        d.loc,
        d.inst,
        escape(&d.message),
    )
}
