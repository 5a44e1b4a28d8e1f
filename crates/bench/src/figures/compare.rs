//! Combined Figs. 10 + 11 + 12: one sweep of the seven benchmark models
//! through all five accelerators, printing all three normalized views
//! (energy efficiency, DRAM accesses, speedup) — `se fig10`, `se fig11`,
//! and `se fig12` regenerate each figure separately from the same engine.

use crate::args::Flags;
use crate::{cli, figures, Result};
use std::io::Write;

/// Runs one sweep and prints all three normalized views.
///
/// # Errors
///
/// Propagates sweep and I/O failures.
pub fn run(flags: &Flags, out: &mut dyn Write) -> Result<()> {
    let comparisons = cli::comparison_sweep(flags, &cli::selected_models(flags)?)?;
    let views = [
        (
            "Fig. 10: normalized energy efficiency (over DianNao)",
            cli::normalized_view(&comparisons, figures::fig10::energy_efficiency),
        ),
        (
            "Fig. 11: normalized DRAM accesses (over SmartExchange)",
            cli::normalized_view(&comparisons, figures::fig11::dram_accesses),
        ),
        (
            "Fig. 12: normalized speedup (over DianNao)",
            cli::normalized_view(&comparisons, figures::fig12::speedup),
        ),
    ];
    for (title, rendered) in views {
        writeln!(out, "{title}\n")?;
        writeln!(out, "{rendered}")?;
    }
    writeln!(out, "paper rows for SmartExchange:")?;
    writeln!(out, "  Fig. 10: 6.7 3.4 2.3 2.0 5.0 3.3 5.2 (geomean 3.7)")?;
    writeln!(out, "  Fig. 11: baselines at 1.1x-3.5x of SmartExchange")?;
    writeln!(out, "  Fig. 12: 9.7 14.5 15.7 8.8 19.2 13.7 12.6 (geomean 13.0)")?;
    Ok(())
}
