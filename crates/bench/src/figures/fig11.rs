//! Fig. 11: normalized number of DRAM accesses (over the SmartExchange
//! accelerator) for the five accelerators on seven models.
//!
//! Paper's range: the baselines need 1.1×–3.5× the DRAM accesses of
//! SmartExchange (geometric means 1.8 / 1.6 / 1.8 / 2.0 for DianNao /
//! SCNN / Cambricon-X / Bit-pragmatic).

use crate::args::Flags;
use crate::runner::ModelComparison;
use crate::{cli, Result};
use std::io::Write;

/// Runs the figure on the paper's accelerator-benchmark model set.
///
/// # Errors
///
/// Propagates sweep and I/O failures.
pub fn run(flags: &Flags, out: &mut dyn Write) -> Result<()> {
    let comparisons = cli::comparison_sweep(flags, &cli::selected_models(flags)?)?;
    writeln!(out, "Fig. 11: normalized DRAM accesses (over SmartExchange)\n")?;
    writeln!(out, "{}", cli::normalized_view(&comparisons, dram_accesses))?;
    writeln!(out, "paper: baselines at 1.1x-3.5x of SmartExchange; SmartExchange = 1.0.")?;
    writeln!(out, "shape check: every baseline >= 1.0 on every model.")?;
    Ok(())
}

/// One model's DRAM bytes normalized over SmartExchange.
pub fn dram_accesses(cmp: &ModelComparison) -> [Option<f64>; 5] {
    let d = cmp.dram_bytes();
    let se = d[4].expect("SE runs everything") as f64;
    d.map(|v| v.map(|bytes| bytes as f64 / se))
}
