//! The benchmark workloads. Each stresses different layers, and each
//! optimisation has a workload that exercises its mechanism and one that
//! bypasses it (see the README for the layer-to-workload map).

pub mod campaign;
pub mod compile;
pub mod figures;
pub mod sweep;

use std::path::Path;

use crate::harness::Workload;

/// Workload names, in `BENCHMARK.json` order.
pub const NAMES: [&str; 5] =
    ["figures", "compile", "sweep-exhaustive", "sweep-static", "campaign"];

/// The named workload for `seed`; files it writes go under `scratch`.
pub fn make(name: &str, seed: u64, scratch: &Path) -> Option<Box<dyn Workload>> {
    Some(match name {
        "figures" => Box::new(figures::Figures::new(seed)),
        "compile" => Box::new(compile::Compile::new(seed)),
        "sweep-exhaustive" => Box::new(sweep::Sweep::exhaustive(seed)),
        "sweep-static" => Box::new(sweep::Sweep::statik(seed)),
        "campaign" => Box::new(campaign::Campaign::new(seed, scratch)),
        _ => return None,
    })
}
