//! Criterion benches for the accelerator simulators: per-layer simulation
//! throughput for the SmartExchange engine and the four baselines, plus
//! the serial-vs-parallel five-accelerator comparison grid on a
//! repeated-geometry (ResNet164-profile) network.

use criterion::{criterion_group, criterion_main, Criterion};
use se_baselines::{BaselineConfig, BitPragmatic, CambriconX, DianNao, Scnn};
use se_bench::runner::{compare_pairs, RunnerOptions};
use se_hw::sim::SeAccelerator;
use se_hw::{Accelerator, SeAcceleratorConfig};
use se_ir::{Dataset, LayerDesc, LayerKind, NetworkDesc};
use se_models::traces::{self, TraceOptions};
use se_models::zoo;
use std::hint::black_box;

/// A one-layer network holding a padded 3×3 CONV with `channels` input and
/// output channels on a `hw × hw` map.
fn conv_net(channels: usize, hw: usize) -> NetworkDesc {
    NetworkDesc::new(
        "bench",
        Dataset::Cifar10,
        vec![LayerDesc::new(
            "c1",
            LayerKind::Conv2d {
                in_channels: channels,
                out_channels: channels,
                kernel: 3,
                stride: 1,
                padding: 1,
            },
            (hw, hw),
        )],
    )
    .unwrap()
}

fn test_net() -> NetworkDesc {
    conv_net(64, 16)
}

fn bench_simulators(c: &mut Criterion) {
    let net = test_net();
    let opts = TraceOptions::fast();
    let dense = traces::dense_trace(&net, 0, 0).unwrap();
    let se = traces::se_trace(&net, 0, 0, &opts.se_config).unwrap();

    let mut group = c.benchmark_group("simulate_conv_64x64x3x3_16x16");
    group.sample_size(20);

    let accel = SeAccelerator::new(SeAcceleratorConfig::default()).unwrap();
    group.bench_function("smartexchange", |b| {
        b.iter(|| black_box(accel.process_layer(black_box(&se)).unwrap()))
    });

    let sampled_cfg = SeAcceleratorConfig { row_sample: 4, ..Default::default() };
    let sampled = SeAccelerator::new(sampled_cfg).unwrap();
    group.bench_function("smartexchange_row_sample_4", |b| {
        b.iter(|| black_box(sampled.process_layer(black_box(&se)).unwrap()))
    });

    let diannao = DianNao::new(BaselineConfig::default()).unwrap();
    group.bench_function("diannao", |b| {
        b.iter(|| black_box(diannao.process_layer(black_box(&dense)).unwrap()))
    });

    let scnn = Scnn::new(BaselineConfig::default()).unwrap();
    group.bench_function("scnn", |b| {
        b.iter(|| black_box(scnn.process_layer(black_box(&dense)).unwrap()))
    });

    let cx = CambriconX::new(BaselineConfig::default()).unwrap();
    group.bench_function("cambricon_x", |b| {
        b.iter(|| black_box(cx.process_layer(black_box(&dense)).unwrap()))
    });

    let prag = BitPragmatic::default();
    group.bench_function("bit_pragmatic", |b| {
        b.iter(|| black_box(prag.process_layer(black_box(&dense)).unwrap()))
    });

    group.finish();
}

/// The SmartExchange simulator on a VGG11-conv6-shaped layer (512→512,
/// 3×3 on 28×28): 4 pixel groups per output row on the default array, so
/// the per-filter pass pools over them, against DianNao on the same layer.
fn bench_simulate_vgg11_conv6(c: &mut Criterion) {
    let net = conv_net(512, 28);
    let opts = TraceOptions::fast();
    let dense = traces::dense_trace(&net, 0, 0).unwrap();
    let se = traces::se_trace(&net, 0, 0, &opts.se_config).unwrap();

    let mut group = c.benchmark_group("simulate_conv_512x512x3x3_28x28");
    group.sample_size(10);

    let accel = SeAccelerator::new(SeAcceleratorConfig::default()).unwrap();
    group.bench_function("smartexchange", |b| {
        b.iter(|| black_box(accel.process_layer(black_box(&se)).unwrap()))
    });

    let sampled_cfg = SeAcceleratorConfig { row_sample: 4, ..Default::default() };
    let sampled = SeAccelerator::new(sampled_cfg).unwrap();
    group.bench_function("smartexchange_row_sample_4", |b| {
        b.iter(|| black_box(sampled.process_layer(black_box(&se)).unwrap()))
    });

    let diannao = DianNao::new(BaselineConfig::default()).unwrap();
    group.bench_function("diannao", |b| {
        b.iter(|| black_box(diannao.process_layer(black_box(&dense)).unwrap()))
    });

    group.finish();
}

/// Serial vs parallel five-accelerator simulation on a repeated-geometry
/// network: the first stage of ResNet164 (conv1 + 12 bottlenecks — the
/// same three layer shapes repeated 12×, exercising the schedule caches).
/// Traces are generated once outside the measurement, so this isolates the
/// `(layer, accelerator)` simulation grid of `se_bench::runner`. Outputs
/// are bit-identical across worker counts; on an N-core machine the
/// parallel run should show a clear wall-clock win over the serial one.
fn bench_simulation_grid_parallel(c: &mut Criterion) {
    let full = zoo::resnet164();
    let profile: Vec<LayerDesc> = full.layers()[..37].to_vec();
    let net = NetworkDesc::new("ResNet164-stage1", Dataset::Cifar10, profile).unwrap();
    let opts = RunnerOptions::fast();
    let pairs = traces::trace_pairs(&net, &opts.traces).unwrap();
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    let mut group = c.benchmark_group("simulation_grid_resnet164_stage1");
    group.sample_size(10);
    for (label, workers) in
        [("serial_1_worker".to_string(), 1), (format!("parallel_{cores}_workers"), cores)]
    {
        let opts = opts.clone().with_parallelism(workers).unwrap();
        group.bench_function(&label, |b| {
            b.iter(|| black_box(compare_pairs(net.name(), black_box(&pairs), &opts).unwrap()))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_simulators,
    bench_simulate_vgg11_conv6,
    bench_simulation_grid_parallel
);
criterion_main!(benches);
