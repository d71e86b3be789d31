//! `compile`: the compiler alone. Every round parses 25 registered
//! kernels, the banked corpus kernels and 16 kernels generated from the
//! seed, and compiles each under all five schemes with the invariant
//! validator on (and the vulnerability analysis on for the protected
//! schemes), bypassing the compile cache. No simulation runs, so engine
//! and replay changes should leave this workload unchanged.
//!
//! Registered artifacts must match the repository's golden fingerprints;
//! every other artifact must repeat the first round's exactly. The
//! compiler rejects about half of all generated kernels under some
//! scheme (as unsupported, or with a panic — the program's own
//! generative suites skip those, see `penny_sim::gen::try_compile`), so
//! the set-up draws generated kernels until 8 dense and 8 sparse ones
//! compile under every scheme: a round's work then does not hinge on how
//! many of the seed's kernels happen to be rejected.

use std::collections::HashMap;

use penny_bench::SchemeId;
use penny_cache::fingerprint_protected;
use penny_core::PennyConfig;
use penny_sim::gen::{splitmix64, KernelSpec, OP_ALPHABET};
use penny_sim::GpuConfig;

use crate::harness::{
    parse_and_compile, setup_errors, Compiled, KernelText, Ops, Workload,
};
use crate::trace::Tracer;

/// Generated kernels per round.
const GENERATED: usize = 16;

/// Most generated kernels drawn per family and set-up.
const MAX_DRAWS: u64 = 256;

/// `penny_cache::fingerprint_protected` of the registered kernels under
/// the protected schemes (as compiled without the vulnerability map).
const GOLDEN: &str =
    include_str!("../../../crates/bench/tests/golden/artifact_fingerprints.txt");

/// Op-script length of every generated kernel.
const SCRIPT_LEN: usize = 6;

/// A generated kernel of fixed shape — a six-op script, dense or sparse
/// — whose ops, barrier and topology come from `draw`. Half the
/// generated kernels are of each family. `KernelSpec::from_seed` also
/// draws the family and the script length, which makes a round's compile
/// cost vary by tens of percent from seed to seed.
fn generated_spec(draw: u64, sparse: bool) -> KernelSpec {
    let mut s = draw;
    let mut next = || {
        s = splitmix64(s);
        s
    };
    let ops: Vec<u8> =
        (0..SCRIPT_LEN).map(|_| (next() % u64::from(OP_ALPHABET)) as u8).collect();
    if sparse {
        KernelSpec::sparse(ops, next(), 4)
    } else {
        KernelSpec::dense(ops, next() % 2 == 0)
    }
}

fn configs(k: &KernelText) -> Vec<PennyConfig> {
    let machine = GpuConfig::fermi().machine;
    SchemeId::ALL
        .iter()
        .map(|&s| {
            s.config()
                .with_launch(k.dims)
                .with_machine(machine)
                .with_validation(true)
                .with_vulnerability(s != SchemeId::Baseline)
        })
        .collect()
}

/// The `compile` workload.
pub struct Compile {
    seed: u64,
    /// Every kernel, registered ones first.
    kernels: Vec<KernelText>,
    registered: usize,
    golden: HashMap<(String, &'static str), u64>,
    /// Per kernel and scheme: the first round's fingerprint. Later rounds
    /// must repeat it.
    reference: Vec<Vec<Option<u64>>>,
    outputs: Vec<Compiled>,
    errors: Vec<String>,
    /// Wall time of every checked compile, in ms.
    latencies_ms: Vec<f64>,
}

impl Compile {
    /// The workload for `seed` (which picks the generated kernels).
    pub fn new(seed: u64) -> Compile {
        let golden = GOLDEN
            .lines()
            .filter(|l| !l.starts_with('#'))
            .filter_map(|l| {
                let mut f = l.split_whitespace();
                let (abbr, token, hex) = (f.next()?, f.next()?, f.next()?);
                let scheme = SchemeId::from_token(token)?;
                Some((
                    (abbr.to_string(), scheme.token()),
                    u64::from_str_radix(hex, 16).ok()?,
                ))
            })
            .collect();
        Compile {
            seed,
            kernels: Vec::new(),
            registered: 0,
            golden,
            reference: Vec::new(),
            outputs: Vec::new(),
            errors: Vec::new(),
            latencies_ms: Vec::new(),
        }
    }
}

impl Workload for Compile {
    fn setup(&mut self, t: &mut Tracer) {
        let registered: Vec<KernelText> =
            penny_workloads::all().iter().map(KernelText::of).collect();
        self.registered = registered.len();
        let mut kernels = registered;
        kernels.extend(penny_workloads::corpus::corpus().iter().map(KernelText::of));
        let compiled = parse_and_compile(t, &kernels, configs);
        self.errors = setup_errors(&kernels, &compiled);

        // Each kernel gets its own stream: chaining one generator's states
        // would make consecutive kernels' scripts shifted copies.
        let base = splitmix64(self.seed);
        let mut index = 0u64;
        for sparse in [false, true] {
            let mut accepted: Vec<KernelText> = Vec::new();
            let mut draws = 0;
            while accepted.len() < GENERATED / 2 && draws < MAX_DRAWS {
                let batch: Vec<KernelText> = (accepted.len()..GENERATED / 2)
                    .map(|_| {
                        index += 1;
                        let spec =
                            generated_spec(splitmix64(base.wrapping_add(index)), sparse);
                        KernelText {
                            name: spec.name(),
                            text: spec.build().to_string(),
                            dims: spec.dims(),
                        }
                    })
                    .collect();
                draws += batch.len() as u64;
                let compiled = parse_and_compile(t, &batch, configs);
                accepted.extend(batch.into_iter().zip(compiled).filter_map(|(k, c)| {
                    let all = c.parse_error.is_none()
                        && c.artifacts.iter().all(|(a, _)| a.is_ok());
                    all.then_some(k)
                }));
            }
            kernels.extend(accepted);
        }
        self.kernels = kernels;
    }

    fn round(&mut self) {
        self.outputs = parse_and_compile(&mut Tracer::off(), &self.kernels, configs);
    }

    fn traced_round(&mut self, t: &mut Tracer) {
        self.outputs = parse_and_compile(t, &self.kernels, configs);
    }

    fn check(&mut self) -> Ops {
        let mut ops = Ops::default();
        let first = self.reference.is_empty();
        for (ki, (k, out)) in
            self.kernels.iter().zip(std::mem::take(&mut self.outputs)).enumerate()
        {
            if first {
                self.reference.push(Vec::new());
            }
            if let Some(e) = out.parse_error {
                eprintln!("compile: {e}");
                ops.check(false);
                continue;
            }
            for (si, (artifact, ns)) in out.artifacts.into_iter().enumerate() {
                let scheme = SchemeId::ALL[si];
                let fingerprint = match artifact {
                    Err(e) => {
                        eprintln!("compile: {} under {}: {e}", k.name, scheme.name());
                        None
                    }
                    Ok(mut p) => {
                        ops.items += 1;
                        self.latencies_ms.push(ns as f64 / 1e6);
                        let full = fingerprint_protected(&p);
                        let golden_ok = ki >= self.registered
                            || scheme == SchemeId::Baseline
                            || {
                                p.vulnerability = None;
                                let stock = fingerprint_protected(&p);
                                let want =
                                    self.golden.get(&(k.name.clone(), scheme.token()));
                                if want != Some(&stock) {
                                    eprintln!(
                                    "compile: {} under {}: fingerprint {stock:016x} != golden {want:016x?}",
                                    k.name,
                                    scheme.name()
                                );
                                }
                                want == Some(&stock)
                            };
                        golden_ok.then_some(full)
                    }
                };
                if first {
                    self.reference[ki].push(fingerprint);
                }
                let repeated = fingerprint.is_some()
                    && self.reference[ki].get(si) == Some(&fingerprint);
                if fingerprint.is_some() && !repeated {
                    eprintln!(
                        "compile: {} under {} differs from the first round",
                        k.name,
                        scheme.name()
                    );
                }
                ops.check(repeated);
            }
        }
        ops
    }

    fn final_failures(&self) -> Vec<String> {
        let mut failures = self.errors.clone();
        let generated = self
            .kernels
            .len()
            .saturating_sub(self.registered + penny_workloads::corpus::corpus().len());
        if generated < GENERATED {
            failures.push(format!("only {generated} of {GENERATED} generated kernels compile under every scheme"));
        }
        failures
    }

    fn notes(&self) -> Vec<String> {
        vec![format!(
            "compile compile_p50_ms {:.4} compile_p99_ms {:.4} over {} compiles",
            crate::stats::median(&self.latencies_ms),
            crate::stats::percentile(&self.latencies_ms, 99.0),
            self.latencies_ms.len()
        )]
    }
}
