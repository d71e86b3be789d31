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
//! `--dump ADDR LEN` to print memory after the launch.

use std::process::ExitCode;

use penny::compiler::{compile, LaunchDims};
use penny::eval::SchemeId;
use penny::sim::{FaultPlan, Gpu, GpuConfig, Injection, LaunchConfig};

struct Args {
    command: String,
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

fn usage() -> &'static str {
    "usage: penny <compile|run|check> <file.ptx> \
     [--scheme Baseline|IGpu|BoltGlobal|BoltAuto|Penny] [--grid N] [--block N] \
     [--emit] [--param V]... [--fill ADDR LEN SEED]... [--dump ADDR LEN]... \
     [--inject BLOCK,WARP,LANE,REG,BIT,AFTER]..."
}

fn parse_u32(s: &str) -> Result<u32, String> {
    let s = s.trim();
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u32::from_str_radix(hex, 16).map_err(|e| format!("bad number `{s}`: {e}"))
    } else {
        s.parse().map_err(|e| format!("bad number `{s}`: {e}"))
    }
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let command = it.next().ok_or_else(|| usage().to_string())?;
    let file = it.next().ok_or_else(|| usage().to_string())?;
    let mut args = Args {
        command,
        file,
        scheme: SchemeId::Penny,
        grid: 4,
        block: 32,
        emit: false,
        params: Vec::new(),
        fills: Vec::new(),
        dumps: Vec::new(),
        injections: Vec::new(),
    };
    while let Some(flag) = it.next() {
        let mut next = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--scheme" => {
                let token = next()?;
                args.scheme = SchemeId::from_token(&token)
                    .ok_or_else(|| SchemeId::unknown_token(&token))?;
            }
            "--grid" => args.grid = parse_u32(&next()?)?,
            "--block" => args.block = parse_u32(&next()?)?,
            "--emit" => args.emit = true,
            "--param" => args.params.push(parse_u32(&next()?)?),
            "--fill" => {
                let (a, l, s) =
                    (parse_u32(&next()?)?, parse_u32(&next()?)?, parse_u32(&next()?)?);
                args.fills.push((a, l, s));
            }
            "--dump" => {
                let (a, l) = (parse_u32(&next()?)?, parse_u32(&next()?)?);
                args.dumps.push((a, l));
            }
            "--inject" => {
                let spec = next()?;
                let parts: Vec<u32> = spec
                    .split(',')
                    .map(parse_u32)
                    .collect::<Result<_, _>>()
                    .map_err(|e| format!("--inject {spec}: {e}"))?;
                if parts.len() != 6 {
                    return Err(format!("--inject wants 6 fields, got {}", parts.len()));
                }
                args.injections.push(Injection {
                    block: parts[0],
                    warp: parts[1],
                    lane: parts[2],
                    reg: parts[3],
                    bit: parts[4],
                    after_warp_insts: parts[5] as u64,
                });
            }
            other => return Err(format!("unknown flag `{other}`\n{}", usage())),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("penny: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let text =
        std::fs::read_to_string(&args.file).map_err(|e| format!("{}: {e}", args.file))?;
    let kernel =
        penny::ir::parse_kernel(&text).map_err(|e| format!("{}: {e}", args.file))?;
    penny::ir::validate(&kernel).map_err(|e| format!("{}: {e}", args.file))?;

    match args.command.as_str() {
        "check" => {
            println!(
                "{}: ok ({} blocks, {} instructions, {} params)",
                kernel.name,
                kernel.num_blocks(),
                kernel.num_insts(),
                kernel.params.len()
            );
            Ok(())
        }
        "compile" => {
            let dims = LaunchDims::linear(args.grid, args.block);
            let cfg = args.scheme.config().with_launch(dims);
            let protected = compile(&kernel, &cfg).map_err(|e| e.to_string())?;
            let s = &protected.stats;
            println!("scheme: {}", args.scheme.token());
            println!("regions:            {}", s.regions);
            println!(
                "checkpoints:        {} considered, {} committed",
                s.total_checkpoints, s.committed
            );
            println!("  pruned (basic):   {}", s.pruned_basic);
            println!("  pruned (optimal): +{}", s.pruned_additional);
            println!(
                "overwrite-prone:    {} regs, {} adjustment blocks",
                s.overwrite_prone_regs, s.adjustment_blocks
            );
            println!("regs/thread:        {}", s.regs_per_thread);
            println!(
                "ckpt storage:       {} B shared, {} global slots",
                s.ckpt_shared_bytes, s.ckpt_global_slots
            );
            println!("est. occupancy:     {:.0}%", s.occupancy * 100.0);
            if args.emit {
                println!("\n{}", protected.kernel);
            }
            Ok(())
        }
        "run" => {
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
            println!("cycles:          {}", stats.cycles);
            println!("instructions:    {}", stats.instructions);
            println!(
                "rf accesses:     {} reads, {} writes",
                stats.rf.reads, stats.rf.writes
            );
            println!("errors detected: {}", stats.rf.detected);
            println!("recoveries:      {}", stats.recoveries);
            for &(addr, len) in &args.dumps {
                let words = gpu.global().read_slice(addr, len as usize);
                println!("[0x{addr:08X}..+{len}] = {words:?}");
            }
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{}", usage())),
    }
}
