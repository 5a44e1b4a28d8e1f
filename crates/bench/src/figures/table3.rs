//! Table III: SmartExchange on the compact models (MobileNetV2 and
//! EfficientNet-B0) — the paper reports CR 6.57× / 6.67× with **zero**
//! structured sparsity: on already-compact models the gains come purely
//! from the decomposition + power-of-2 quantization.

use crate::args::Flags;
use crate::{table, Result};
use se_core::{SeConfig, VectorSparsity};
use se_ir::storage;
use se_models::{artifacts, zoo};
use std::io::Write;

/// Runs the table.
///
/// # Errors
///
/// Propagates compression and I/O failures.
pub fn run(flags: &Flags, out: &mut dyn Write) -> Result<()> {
    let entries =
        vec![(zoo::mobilenet_v2(), "6.57", "2.12"), (zoo::efficientnet_b0(), "6.67", "3.06")];
    let entries = flags.select(entries, |(net, _, _)| net.name())?;
    writeln!(out, "Table III: SmartExchange on compact models\n")?;
    let iterations = if flags.fast { 4 } else { 8 };
    // Compact models: no vector sparsification (paper Spar. = 0.00%).
    let se_cfg = SeConfig::default()
        .with_max_iterations(iterations)?
        .with_vector_sparsity(VectorSparsity::None)?;
    let mut rows = Vec::new();
    for (net, paper_cr, paper_param) in &entries {
        se_core::se_info!("  compressing {} ...", net.name());
        // Replays (or populates) the persisted `CompressedNetwork`
        // artifact when `--traces-dir` is given; reports are bit-identical
        // to the direct streaming path.
        let reports = artifacts::network_reports_cached(
            net,
            &se_cfg,
            flags.seed,
            flags.traces_dir.as_deref(),
        )?;
        let mut total = storage::SeStorage::default();
        let mut params = 0u64;
        let mut pruned = 0f64;
        for r in &reports {
            total.accumulate(&r.storage);
            params += r.params;
            pruned += f64::from(r.vector_sparsity) * r.params as f64;
        }
        rows.push(vec![
            net.name().to_string(),
            format!("{:.2}", storage::compression_rate(params, &total)),
            paper_cr.to_string(),
            format!("{:.2}", total.total_megabytes()),
            paper_param.to_string(),
            format!("{:.2}", total.basis_megabytes()),
            format!("{:.2}", total.ce_megabytes()),
            format!("{:.2}%", pruned / params as f64 * 100.0),
        ]);
    }
    writeln!(
        out,
        "{}",
        table::render(
            &[
                "model",
                "CR (ours)",
                "CR (paper)",
                "Param MB (ours)",
                "(paper)",
                "B MB",
                "Ce MB",
                "Spar",
            ],
            &rows,
        )
    )?;
    writeln!(out, "paper: CR ~6.6x at 0.00% structured sparsity for both compact models.")?;
    Ok(())
}
