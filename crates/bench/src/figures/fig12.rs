//! Fig. 12: normalized speedup (over DianNao) of the five accelerators on
//! seven models, batch size 1.
//!
//! Paper's SmartExchange series: 9.7 / 14.5 / 15.7 / 8.8 / 19.2 / 13.7 /
//! 12.6 (geometric mean 13.0×), with average advantages of 3.8× / 2.5× /
//! 2.0× over SCNN / Cambricon-X / Bit-pragmatic.

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
    writeln!(out, "Fig. 12: normalized speedup (over DianNao), batch 1\n")?;
    writeln!(out, "{}", cli::normalized_view(&comparisons, speedup))?;
    writeln!(out, "paper SmartExchange row: 9.7 14.5 15.7 8.8 19.2 13.7 12.6 (geomean 13.0)")?;
    writeln!(out, "shape checks: SmartExchange fastest everywhere; DianNao = 1.0.")?;
    Ok(())
}

/// One model's speedups normalized over DianNao.
pub fn speedup(cmp: &ModelComparison) -> [Option<f64>; 5] {
    let c = cmp.cycles();
    let base = c[0].expect("DianNao runs everything") as f64;
    c.map(|v| v.map(|cycles| base / cycles as f64))
}
