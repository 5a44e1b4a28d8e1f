//! Fig. 10: normalized energy efficiency (over DianNao) of the five
//! accelerators on seven DNN models and three datasets.
//!
//! Paper's SmartExchange series: 6.7 / 3.4 / 2.3 / 2.0 / 5.0 / 3.3 / 5.2,
//! geometric mean 3.7× over DianNao (and 2.0×–6.7× over the best
//! baseline per model).

use crate::args::Flags;
use crate::runner::ModelComparison;
use crate::{cli, Result};
use se_hw::{EnergyModel, SeAcceleratorConfig};
use se_ir::NetworkDesc;
use std::io::Write;

/// Runs the figure on the paper's accelerator-benchmark model set.
///
/// # Errors
///
/// Propagates sweep and I/O failures.
pub fn run(flags: &Flags, out: &mut dyn Write) -> Result<()> {
    run_with_models(flags, &cli::selected_models(flags)?, out)
}

/// [`run`] on an explicit model set (the testable core: byte-identity of
/// cached vs direct runs is asserted on small networks).
///
/// # Errors
///
/// Propagates sweep and I/O failures.
pub fn run_with_models(flags: &Flags, models: &[NetworkDesc], out: &mut dyn Write) -> Result<()> {
    let comparisons = cli::comparison_sweep(flags, models)?;
    writeln!(out, "Fig. 10: normalized energy efficiency (over DianNao)\n")?;
    writeln!(out, "{}", cli::normalized_view(&comparisons, energy_efficiency))?;
    writeln!(out, "paper SmartExchange row: 6.7 3.4 2.3 2.0 5.0 3.3 5.2 (geomean 3.7)")?;
    writeln!(out, "shape checks: SmartExchange highest on every model; DianNao = 1.0.")?;
    Ok(())
}

/// One model's energy efficiencies normalized over DianNao.
pub fn energy_efficiency(cmp: &ModelComparison) -> [Option<f64>; 5] {
    let e = cmp.energies_mj(&EnergyModel::default(), &SeAcceleratorConfig::default());
    let base = e[0].expect("DianNao runs everything");
    e.map(|v| v.map(|energy| base / energy))
}
