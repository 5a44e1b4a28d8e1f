//! Bit-identity pins for the SmartExchange accelerator simulator.
//!
//! Every digest below is an FNV-1a hash of every field of every
//! [`LayerResult`] the simulator produces over a grid of layers (each
//! spatial kind at several strides and paddings, FC and squeeze-excite),
//! weight forms (SmartExchange and dense) and accelerator switches (index
//! selector on/off, Booth / plain-bit / unit serial lanes, dedicated
//! compact-model design on/off, `row_sample` 1 and 4, the default array and
//! a small one that forces several filter, channel and pixel tiles). A
//! faster simulator kernel must reproduce these values unchanged rather
//! than re-capture them.

use se_core::{layer as se_layer, SeConfig, VectorSparsity};
use se_hw::sim::SeAccelerator;
use se_hw::{Accelerator, LayerResult, MemCounters, OpCounters, SeAcceleratorConfig};
use se_ir::{LayerDesc, LayerKind, LayerTrace, QuantTensor, WeightData};
use se_tensor::rng;

/// 64-bit FNV-1a, fed little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn word(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Every field of a result, destructured so a new field fails to
    /// compile here instead of silently escaping the pin.
    fn result(&mut self, r: &LayerResult) {
        let LayerResult { name, compute_cycles, dram_cycles, total_cycles, mem, ops } = r;
        self.word(name.len() as u64);
        self.bytes(name.as_bytes());
        for v in [*compute_cycles, *dram_cycles, *total_cycles] {
            self.word(v);
        }
        let MemCounters {
            dram_input_bytes,
            dram_output_bytes,
            dram_weight_bytes,
            dram_index_bytes,
            input_gb_read_bytes,
            input_gb_write_bytes,
            output_gb_read_bytes,
            output_gb_write_bytes,
            weight_gb_read_bytes,
            weight_gb_write_bytes,
            rf_bytes,
        } = *mem;
        for v in [
            dram_input_bytes,
            dram_output_bytes,
            dram_weight_bytes,
            dram_index_bytes,
            input_gb_read_bytes,
            input_gb_write_bytes,
            output_gb_read_bytes,
            output_gb_write_bytes,
            weight_gb_read_bytes,
            weight_gb_write_bytes,
            rf_bytes,
        ] {
            self.word(v);
        }
        let OpCounters {
            pe_lane_cycles,
            accumulator_adds,
            rebuild_shift_adds,
            index_compares,
            macs,
            idle_lane_cycles,
        } = *ops;
        for v in [
            pe_lane_cycles,
            accumulator_adds,
            rebuild_shift_adds,
            index_compares,
            macs,
            idle_lane_cycles,
        ] {
            self.word(v);
        }
    }
}

fn conv(
    name: &str,
    c: usize,
    m: usize,
    k: usize,
    stride: usize,
    pad: usize,
    hw: usize,
) -> LayerDesc {
    LayerDesc::new(
        name,
        LayerKind::Conv2d { in_channels: c, out_channels: m, kernel: k, stride, padding: pad },
        (hw, hw),
    )
}

fn depthwise(name: &str, c: usize, stride: usize, pad: usize, hw: usize) -> LayerDesc {
    LayerDesc::new(
        name,
        LayerKind::DepthwiseConv2d { channels: c, kernel: 3, stride, padding: pad },
        (hw, hw),
    )
}

/// The layer grid: each entry pairs a geometry with the decomposition
/// settings that give its SE form zero coefficient rows, pruned channels
/// or several slices per filter.
fn layers() -> Vec<(LayerDesc, SeConfig)> {
    let base = SeConfig::default().with_max_iterations(3).unwrap();
    let keep = |f: f32| base.clone().with_vector_sparsity(VectorSparsity::KeepFraction(f)).unwrap();
    vec![
        // Fewer filters than slices (the fold path), padded, stride 1.
        (conv("conv_s1_pad", 6, 5, 3, 1, 1, 10), keep(0.5)),
        // Unpadded stride 2, with pruned channels in the index.
        (conv("conv_s2", 7, 12, 3, 2, 0, 13), keep(0.6).with_channel_prune(Some(0.9)).unwrap()),
        // Padded stride 2, more filters than the default array's slices.
        (conv("conv_s2_pad_wide", 16, 70, 3, 2, 1, 12), keep(0.4)),
        // 5x5 kernel split into several slices per filter.
        (conv("conv_k5", 3, 3, 5, 1, 2, 9), keep(0.7).with_max_unit_rows(6).unwrap()),
        (conv("pw", 20, 12, 1, 1, 0, 8), keep(0.5)),
        (conv("pw_s2_wide", 9, 70, 1, 2, 0, 9), keep(0.6)),
        (depthwise("dw_s1", 10, 1, 1, 10), keep(0.7)),
        (depthwise("dw_s2_wide", 70, 2, 1, 9), keep(0.7)),
        (
            LayerDesc::new("fc", LayerKind::Linear { in_features: 96, out_features: 40 }, (1, 1)),
            keep(0.5),
        ),
        (
            LayerDesc::new("se", LayerKind::SqueezeExcite { channels: 16, reduced: 4 }, (6, 6)),
            base.clone(),
        ),
        // A single filter: every coefficient row it zeroes is zero across
        // the layer, so no activation fetch may be charged for it.
        (conv("conv_one_filter", 5, 1, 3, 1, 1, 8), keep(0.4)),
        (conv("pw_one_filter", 12, 1, 1, 1, 0, 6), keep(0.4)),
    ]
}

/// Activations with element, row and channel sparsity: ReLU-style zeros,
/// every fifth row cleared and every seventh channel dead, so the index
/// selector has zero activation rows to skip.
fn activations(desc: &LayerDesc, seed: u64) -> QuantTensor {
    let (h, w) = desc.input_hw();
    let shape: Vec<usize> = match *desc.kind() {
        LayerKind::Linear { in_features, .. } => vec![in_features],
        LayerKind::Conv2d { in_channels: c, .. }
        | LayerKind::DepthwiseConv2d { channels: c, .. }
        | LayerKind::SqueezeExcite { channels: c, .. } => vec![c, h, w],
    };
    let mut r = rng::seeded(seed);
    let mut t = rng::normal_tensor(&mut r, &shape, 1.0).map(|v| if v < 0.2 { 0.0 } else { v });
    if shape.len() == 3 {
        let data = t.data_mut();
        for (row, chunk) in data.chunks_mut(w).enumerate() {
            let channel = row / h;
            if row % 5 == 3 || channel % 7 == 4 {
                chunk.fill(0.0);
            }
        }
    }
    QuantTensor::quantize(&t, 8).unwrap()
}

/// SE and dense traces for every layer of the grid, in a fixed order.
fn traces() -> Vec<LayerTrace> {
    let mut out = Vec::new();
    for (i, (desc, cfg)) in layers().into_iter().enumerate() {
        let seed = 0x51_60 + i as u64;
        let fan_in = desc.weight_shape()[1..].iter().product();
        let w = rng::kaiming_tensor(&mut rng::seeded(seed), &desc.weight_shape(), fan_in);
        let act = activations(&desc, seed + 1000);
        let parts = se_layer::compress_layer(&desc, &w, &cfg).unwrap();
        out.push(LayerTrace::new(desc.clone(), WeightData::Se(parts), act.clone()).unwrap());
        let dense = QuantTensor::quantize(&w, 8).unwrap();
        out.push(LayerTrace::new(desc, WeightData::Dense(dense), act).unwrap());
    }
    out
}

/// Every switch combination on the default array and on a small array.
fn configs() -> Vec<SeAcceleratorConfig> {
    let mut out = Vec::new();
    for (dim_m, dim_c, dim_f) in [(64, 16, 8), (4, 2, 4)] {
        for index_select in [true, false] {
            for (bit_serial, booth_encoder) in [(true, true), (true, false), (false, false)] {
                for compact_dedicated in [true, false] {
                    for row_sample in [1, 4] {
                        out.push(SeAcceleratorConfig {
                            dim_m,
                            dim_c,
                            dim_f,
                            index_select,
                            bit_serial,
                            booth_encoder,
                            compact_dedicated,
                            row_sample,
                            ..Default::default()
                        });
                    }
                }
            }
        }
    }
    out
}

/// Per-trace digests over the whole switch grid, in [`traces`] order.
const PINNED: [(&str, u64); 24] = [
    ("conv_s1_pad/se", 0xd580_a098_cd52_b3b9),
    ("conv_s1_pad/dense", 0x14a0_aadf_d666_5921),
    ("conv_s2/se", 0xe34a_8442_8d27_d359),
    ("conv_s2/dense", 0xf0fd_eabe_d8be_11c5),
    ("conv_s2_pad_wide/se", 0x95c6_a149_36d8_164d),
    ("conv_s2_pad_wide/dense", 0xbdf4_018e_8d66_306d),
    ("conv_k5/se", 0x87e1_9299_5d8a_aced),
    ("conv_k5/dense", 0x9ee4_22c2_481a_cf39),
    ("pw/se", 0x358a_80d6_7b6d_c461),
    ("pw/dense", 0xc170_6981_6a25_73fd),
    ("pw_s2_wide/se", 0x5b6a_d78c_f1cc_7449),
    ("pw_s2_wide/dense", 0x008e_8e8e_b832_0f59),
    ("dw_s1/se", 0xd860_e4c9_89e4_f3dd),
    ("dw_s1/dense", 0xa99a_48a4_c061_96cd),
    ("dw_s2_wide/se", 0x56bc_9dbd_ed0a_e0be),
    ("dw_s2_wide/dense", 0xad56_6e2d_b276_b730),
    ("fc/se", 0xb322_96f9_2c30_8a4d),
    ("fc/dense", 0x6817_441a_73c0_82c9),
    ("se/se", 0x1fc7_f3da_1227_b27d),
    ("se/dense", 0xaf72_5fcf_dbb0_da05),
    ("conv_one_filter/se", 0x6bd1_99ce_18f8_bc61),
    ("conv_one_filter/dense", 0x704e_c5d3_47db_6b0d),
    ("pw_one_filter/se", 0xf103_8f9d_0f5f_c525),
    ("pw_one_filter/dense", 0x2142_3a7b_1b61_4641),
];

#[test]
fn simulator_outputs_are_pinned() {
    let traces = traces();
    let mut digests: Vec<Fnv> = traces.iter().map(|_| Fnv::new()).collect();
    for cfg in configs() {
        let accel = SeAccelerator::new(cfg).unwrap();
        for (t, h) in traces.iter().zip(&mut digests) {
            h.result(&accel.process_layer(t).unwrap());
        }
    }
    let got: Vec<(String, u64)> = traces
        .iter()
        .zip(&digests)
        .map(|(t, h)| {
            let form = if matches!(t.weights(), WeightData::Se(_)) { "se" } else { "dense" };
            (format!("{}/{form}", t.desc().name()), h.0)
        })
        .collect();
    let want: Vec<(String, u64)> = PINNED.iter().map(|&(n, d)| (n.to_string(), d)).collect();
    assert_eq!(got, want, "simulator output digests moved");
}
