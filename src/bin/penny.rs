//! `penny` — the command-line front end.
//!
//! ```text
//! penny compile <file> [--scheme Baseline|IGpu|BoltGlobal|BoltAuto|Penny]
//!                      [--grid N] [--block N] [--emit]
//! penny run     <file> [same flags] [--param V]... [--dump ADDR LEN]
//!                      [--inject BLOCK,WARP,LANE,REG,BIT,AFTER]...
//! penny check   <file>                 # parse + verify only
//! ```
//!
//! Kernels are in the PTX-like assembly (see `penny::ir::parser`).
//! `--scheme` takes a `penny::eval::SchemeId` token (default `Penny`),
//! which picks both the compiler configuration and the register-file
//! protection `run` simulates. `run` zero-fills device memory; use
//! `--fill ADDR LEN SEED` to place deterministic pseudo-random inputs,
//! `--dump ADDR LEN` to print memory after the launch. `--inject`'s REG
//! is the register number `penny compile --emit` prints: the parser
//! numbers registers in order of first appearance, so `%r5` in the file
//! may be `%r1` in the kernel.
//!
//! Exit status: 0 success; 1 the file cannot be read, parsed, verified,
//! compiled or run; 2 a usage error.

use std::process::ExitCode;

use penny::compiler::{compile, LaunchDims};
use penny::eval::{cli, outln, SchemeId};
use penny::sim::{FaultPlan, Gpu, GpuConfig, Injection, LaunchConfig};

enum Command {
    Check,
    Compile,
    Run,
}

struct Args {
    command: Command,
    file: String,
    scheme: SchemeId,
    grid: u32,
    block: u32,
    emit: bool,
    params: Vec<u32>,
    fills: Vec<(u32, u32, u32)>,
    dumps: Vec<(u32, u32)>,
    injections: Vec<Injection>,
}

const USAGE: &str = "usage: penny <compile|run|check> <file.ptx> \
     [--scheme Baseline|IGpu|BoltGlobal|BoltAuto|Penny] [--grid N] [--block N] \
     [--emit] [--param V]... [--fill ADDR LEN SEED]... [--dump ADDR LEN]... \
     [--inject BLOCK,WARP,LANE,REG,BIT,AFTER]... \
     (REG: the register number `penny compile --emit` prints)";

fn parse_u32(s: &str) -> Result<u32, String> {
    let s = s.trim();
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u32::from_str_radix(hex, 16).map_err(|e| format!("bad number `{s}`: {e}"))
    } else {
        s.parse().map_err(|e| format!("bad number `{s}`: {e}"))
    }
}

/// `BLOCK,WARP,LANE,REG,BIT,AFTER`.
fn parse_injection(spec: &str) -> Result<Injection, String> {
    let parts: Vec<u32> = spec.split(',').map(parse_u32).collect::<Result<_, _>>()?;
    let [block, warp, lane, reg, bit, after] = parts[..] else {
        return Err(format!("wants 6 fields, got {}", parts.len()));
    };
    Ok(Injection { block, warp, lane, reg, bit, after_warp_insts: u64::from(after) })
}

fn parse_args() -> Args {
    let mut argv = cli::Args::from_env("penny");
    let mut positional = Vec::new();
    let mut args = Args {
        command: Command::Check,
        file: String::new(),
        scheme: SchemeId::Penny,
        grid: 4,
        block: 32,
        emit: false,
        params: Vec::new(),
        fills: Vec::new(),
        dumps: Vec::new(),
        injections: Vec::new(),
    };
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--scheme" => args.scheme = argv.scheme(),
            "--grid" => args.grid = argv.parse(parse_u32),
            "--block" => args.block = argv.parse(parse_u32),
            "--emit" => args.emit = true,
            "--param" => args.params.push(argv.parse(parse_u32)),
            "--fill" => args.fills.push((
                argv.parse(parse_u32),
                argv.parse(parse_u32),
                argv.parse(parse_u32),
            )),
            "--dump" => args.dumps.push((argv.parse(parse_u32), argv.parse(parse_u32))),
            "--inject" => args.injections.push(argv.parse(parse_injection)),
            _ if a.starts_with('-') => cli::die(format!("unknown flag `{a}`\n{USAGE}")),
            _ => positional.push(a),
        }
    }
    let [command, file] =
        <[String; 2]>::try_from(positional).unwrap_or_else(|_| cli::die(USAGE));
    args.command = match command.as_str() {
        "check" => Command::Check,
        "compile" => Command::Compile,
        "run" => Command::Run,
        other => cli::die(format!("unknown command `{other}`\n{USAGE}")),
    };
    args.file = file;
    args
}

fn main() -> ExitCode {
    let args = parse_args();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("penny: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<(), String> {
    let text =
        std::fs::read_to_string(&args.file).map_err(|e| format!("{}: {e}", args.file))?;
    let kernel =
        penny::ir::parse_kernel(&text).map_err(|e| format!("{}: {e}", args.file))?;
    penny::ir::validate(&kernel).map_err(|e| format!("{}: {e}", args.file))?;

    match args.command {
        Command::Check => {
            outln!(
                "{}: ok ({} blocks, {} instructions, {} params)",
                kernel.name,
                kernel.num_blocks(),
                kernel.num_insts(),
                kernel.params.len()
            );
            Ok(())
        }
        Command::Compile => {
            let dims = LaunchDims::linear(args.grid, args.block);
            let cfg = args.scheme.config().with_launch(dims);
            let protected = compile(&kernel, &cfg).map_err(|e| e.to_string())?;
            let s = &protected.stats;
            outln!("scheme: {}", args.scheme.token());
            outln!("regions:            {}", s.regions);
            outln!(
                "checkpoints:        {} considered, {} committed",
                s.total_checkpoints,
                s.committed
            );
            outln!("  pruned (basic):   {}", s.pruned_basic);
            outln!("  pruned (optimal): +{}", s.pruned_additional);
            outln!(
                "overwrite-prone:    {} regs, {} adjustment blocks",
                s.overwrite_prone_regs,
                s.adjustment_blocks
            );
            outln!("regs/thread:        {}", s.regs_per_thread);
            outln!(
                "ckpt storage:       {} B shared, {} global slots",
                s.ckpt_shared_bytes,
                s.ckpt_global_slots
            );
            outln!("est. occupancy:     {:.0}%", s.occupancy * 100.0);
            if args.emit {
                outln!("\n{}", protected.kernel);
            }
            Ok(())
        }
        Command::Run => {
            let dims = LaunchDims::linear(args.grid, args.block);
            let cfg = args.scheme.config().with_launch(dims);
            let protected = compile(&kernel, &cfg).map_err(|e| e.to_string())?;
            if args.params.len() != kernel.params.len() {
                return Err(format!(
                    "kernel takes {} params ({}), {} given via --param",
                    kernel.params.len(),
                    kernel
                        .params
                        .iter()
                        .map(|p| p.name.as_str())
                        .collect::<Vec<_>>()
                        .join(", "),
                    args.params.len()
                ));
            }
            let mut gpu = Gpu::new(GpuConfig::fermi().with_rf(args.scheme.rf()));
            for &(addr, len, seed) in &args.fills {
                let mut rng = penny::workloads::util::XorShift32::new(seed);
                let data: Vec<u32> = (0..len).map(|_| rng.next_u32() % 1000).collect();
                gpu.global_mut().write_slice(addr, &data);
            }
            let launch = LaunchConfig::new(dims, args.params.clone())
                .with_faults(FaultPlan { injections: args.injections.clone() });
            let stats = gpu.run(&protected, &launch).map_err(|e| e.to_string())?;
            outln!("cycles:          {}", stats.cycles);
            outln!("instructions:    {}", stats.instructions);
            outln!("rf accesses:     {} reads, {} writes", stats.rf.reads, stats.rf.writes);
            outln!("errors detected: {}", stats.rf.detected);
            outln!("recoveries:      {}", stats.recoveries);
            for &(addr, len) in &args.dumps {
                let words = gpu.global().read_slice(addr, len as usize);
                outln!("[0x{addr:08X}..+{len}] = {words:?}");
            }
            Ok(())
        }
    }
}
