//! Traced in-process run of one perfbench workload.
//!
//! Feeds the inputs the `se` children consume through each layer's public
//! functions — weight/activation synthesis, quantization, decomposition,
//! trace encode/decode, the five simulators and the cluster scheduler —
//! with a span around every call. Spans stay in memory and are written
//! once at the end. The run prints per-layer metrics (span self times and
//! work counts), the untraced/traced overhead ratio, and cross-checks
//! against the child-built artifacts and child outputs, as one JSON line.
//!
//! Invoked by `perfbench/run.py --trace 1`; see `perfbench/README.md`.

mod spans;

use se_baselines::{BitPragmatic, CambriconX, DianNao, Scnn};
use se_bench::figures::fig10;
use se_bench::runner::{self, RunnerOptions};
use se_hw::sim::SeAccelerator;
use se_hw::{Accelerator, HwError, RunResult, SeAcceleratorConfig};
use se_ir::{LayerTrace, QuantTensor, WeightData};
use se_models::traces::{self, TracePair};
use se_models::{activations, weights, zoo};
use se_serve::cluster::{simulate_cluster, ClusterSpec, ModelService, RouterPolicy};
use se_serve::workload::{self, ArrivalPattern};
use se_serve::{BatchEngine, BatchPolicy, FaultAction, FaultEvent, FaultPlan, TierSpec, SE_LANE};
use spans::Tracer;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

type Result<T> = std::result::Result<T, Box<dyn std::error::Error + Send + Sync>>;

/// The models `se trace build` builds in the trace-build workload; every
/// op generates them serially in-process.
const GEN_MODELS: [&str; 2] = ["ResNet164", "VGG11"];

/// The models `se cluster` serves in the cluster workload; every op serves
/// them in-process.
const SERVE_MODELS: [&str; 2] = ["ResNet164", "MobileNetV2"];

/// Span names of the four baseline lanes, indexed like `se_serve::ACCEL_NAMES`.
const BASELINE_SPANS: [&str; 4] =
    ["baselines.diannao", "baselines.scnn", "baselines.cambricon_x", "baselines.pragmatic"];

// The `se cluster` scenario of the cluster workload, as `CLUSTER` in
// `perfbench/run.py` passes it to the children; the lane-table check
// fails if the two disagree. Rates are requests per second, times are
// microseconds.
const LIGHT_RATE: f64 = 1000.0;
const INSTANCES: usize = 4;
const MAX_BATCH: usize = 8;
const DEADLINE_US: f64 = 2000.0;
const KILL_US: f64 = 100_000.0;
const RESTART_US: f64 = 200_000.0;

/// `--tiers buf:3.5mb:16,dram:8mb:4,ssd:1gb:1`.
fn tiers() -> Vec<TierSpec> {
    vec![
        TierSpec::new("buf", 7 << 19, 16.0),
        TierSpec::new("dram", 8 << 20, 4.0),
        TierSpec::new("ssd", 1 << 30, 1.0),
    ]
}

#[derive(Debug)]
struct Args {
    seed: u64,
    requests: usize,
    replay: Vec<String>,
    built: Vec<PathBuf>,
    work: PathBuf,
    fig10_out: Option<PathBuf>,
    cluster_out: Vec<PathBuf>,
    spans_out: PathBuf,
}

fn parse_args() -> Result<Args> {
    let mut kv: BTreeMap<String, Vec<String>> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag.strip_prefix("--").ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        kv.entry(key.to_string()).or_default().push(value);
    }
    let one = |k: &str| -> Result<String> {
        match kv.get(k).map(Vec::as_slice) {
            Some([v]) => Ok(v.clone()),
            _ => Err(format!("--{k} must be given exactly once").into()),
        }
    };
    let paths = |k: &str| -> Vec<PathBuf> {
        kv.get(k).map(|v| v.iter().map(PathBuf::from).collect()).unwrap_or_default()
    };
    Ok(Args {
        seed: one("seed")?.parse()?,
        requests: one("requests")?.parse()?,
        replay: one("replay")?.split(',').map(str::to_string).collect(),
        built: paths("built"),
        work: PathBuf::from(one("work")?),
        fig10_out: paths("fig10-out").pop(),
        cluster_out: paths("cluster-out"),
        spans_out: PathBuf::from(one("spans-out")?),
    })
}

/// Work counts of one in-process op. A pure speed change leaves every
/// field identical, so the untraced and traced passes must agree.
#[derive(Debug, Default, Clone, PartialEq)]
struct Counts {
    compress_calls: u64,
    weights: u64,
    encode_bytes: u64,
    decode_bytes: u64,
    se_macs: u64,
    scnn_unsupported: u64,
    schedule_builds: u64,
    schedule_lookups: u64,
    decisions: u64,
    batches: u64,
    batched_requests: u64,
    rejected: u64,
    rerouted: u64,
    lost: u64,
    residency_hits: u64,
    residency_fetches: u64,
    promotions: u64,
    demotions: u64,
    cold_fetches: u64,
}

/// One cluster lane at one load point: the lane index and the lane-table
/// columns completed, rejected, missed, weight fetches, evictions,
/// rerouted and lost.
type LaneTally = (usize, [u64; 7]);

/// Everything one in-process op produced that the checks look at.
#[derive(Debug, Default)]
struct OpOutput {
    counts: Counts,
    /// Serial wall of each generated model's per-layer loop, seconds.
    serial_gen_s: BTreeMap<String, f64>,
    generated: BTreeMap<String, (Vec<TracePair>, Vec<u8>)>,
    decoded: BTreeMap<String, traces::TraceFile>,
    runs: BTreeMap<String, [Option<RunResult>; 5]>,
    /// Per load point (light, overload): every lane's tally.
    tallies: Vec<Vec<LaneTally>>,
    /// Whether every served footprint fits the top tier (no streamed
    /// admissions), which `cold_fetches` is derived under.
    no_streams: bool,
}

fn find_artifact(dirs: &[PathBuf], file: &str) -> Option<PathBuf> {
    dirs.iter().map(|d| d.join(file)).find(|p| p.exists())
}

/// One in-process op: generate → encode → write → read → decode →
/// simulate every (layer, accelerator) → serve two load points.
fn run_op(tr: &mut Tracer, a: &Args, opts: &RunnerOptions) -> Result<OpOutput> {
    let mut out = OpOutput::default();
    let c = &mut out.counts;
    let serial_cfg = opts.traces.se_config.clone().with_parallelism(1)?;
    let digest = traces::options_digest(&opts.traces);
    let gen_dir = a.work.join("gen");
    std::fs::create_dir_all(&gen_dir)?;

    for name in GEN_MODELS {
        let net = zoo::by_name(name)?;
        let seed = opts.traces.base_seed;
        let t = Instant::now();
        let mut pairs = Vec::new();
        for (i, desc) in net.layers().iter().enumerate() {
            if opts.traces.conv_like_only && !desc.kind().is_conv_like() {
                continue;
            }
            // The body of `se_models::traces::trace_pair`, one call per span.
            let w =
                tr.span("models.weights", |_| weights::synthetic_weights(net.name(), desc, seed))?;
            let qw = tr.span("ir.quantize", |_| QuantTensor::quantize(&w, 8))?;
            let act = tr
                .span("models.activations", |_| activations::synthetic_activation(&net, i, seed))?;
            let qa = tr.span("ir.quantize", |_| QuantTensor::quantize(&act, 8))?;
            let parts = tr
                .span("core.compress", |_| se_core::layer::compress_layer(desc, &w, &serial_cfg))?;
            c.compress_calls += 1;
            c.weights += w.len() as u64;
            let pair = tr.span("ir.layer_trace", |_| -> Result<TracePair> {
                let dense = LayerTrace::new(desc.clone(), WeightData::Dense(qw), qa.clone())?;
                let se = LayerTrace::new(desc.clone(), WeightData::Se(parts), qa)?;
                Ok(TracePair { layer_index: i, dense, se })
            })?;
            pairs.push(pair);
        }
        out.serial_gen_s.insert(name.to_string(), t.elapsed().as_secs_f64());
        let bytes =
            tr.span("traces.encode", |_| traces::encode_trace_pairs(net.name(), digest, &pairs))?;
        c.encode_bytes += bytes.len() as u64;
        let file = gen_dir.join(traces::trace_file_name(net.name(), &opts.traces));
        tr.span("traces.write", |_| std::fs::write(&file, &bytes))?;
        out.generated.insert(name.to_string(), (pairs, bytes));
    }

    for name in &a.replay {
        let file_name = traces::trace_file_name(name, &opts.traces);
        let path = find_artifact(&a.built, &file_name)
            .ok_or_else(|| format!("no child-built artifact {file_name}"))?;
        let bytes = tr.span("traces.read", |_| std::fs::read(&path))?;
        c.decode_bytes += bytes.len() as u64;
        let file = tr.span("traces.decode", |_| traces::decode_trace_pairs(&bytes))?;
        out.decoded.insert(name.clone(), file);
    }

    for name in &a.replay {
        let pairs = &out.decoded[name].pairs;
        // Private simulator instances, one set per model like one `se`
        // child per model, so schedule builds are counted per model.
        let se = SeAccelerator::new(opts.se_cfg.clone())?;
        let dn = DianNao::new(opts.baseline_cfg.clone())?;
        let sc = Scnn::new(opts.baseline_cfg.clone())?;
        let cx = CambriconX::new(opts.baseline_cfg.clone())?;
        let bp = BitPragmatic::new(opts.se_cfg.clone())?;
        let baselines: [&dyn Accelerator; 4] = [&dn, &sc, &cx, &bp];
        let mut runs: [Option<RunResult>; 5] = std::array::from_fn(|_| Some(RunResult::default()));
        for pair in pairs {
            for (lane, acc) in baselines.iter().enumerate() {
                match tr.span(BASELINE_SPANS[lane], |_| acc.process_layer(&pair.dense)) {
                    Ok(layer) => {
                        if let Some(run) = runs[lane].as_mut() {
                            run.layers.push(layer);
                        }
                    }
                    Err(HwError::UnsupportedTrace { .. }) => {
                        runs[lane] = None;
                        if lane == 1 {
                            c.scnn_unsupported += 1;
                        }
                    }
                    Err(e) => return Err(e.into()),
                }
            }
            let layer = tr.span("hw.se_sim", |_| se.process_layer(&pair.se))?;
            runs[SE_LANE].as_mut().expect("the SE lane runs every layer").layers.push(layer);
            c.se_macs += pair.se.desc().macs()?;
        }
        c.schedule_builds += se.cached_schedules() as u64;
        c.schedule_lookups += pairs.len() as u64;
        out.runs.insert(name.clone(), runs);
    }

    let freq = SeAcceleratorConfig::default().frequency_hz;
    let cycles = |us: f64| (us * 1e-6 * freq).round() as u64;
    let engine = BatchEngine::new(opts.se_cfg.clone(), opts.baseline_cfg.clone())?;
    // `se cluster` serves its models in zoo order, whatever the order of
    // `--models`; request i targets model i mod M of that order.
    let mut served: Vec<(usize, &str, &[Option<RunResult>; 5])> = SERVE_MODELS
        .into_iter()
        .map(|n| {
            let rank = zoo::accelerator_benchmark_models().iter().position(|m| m.name() == n);
            match (rank, out.runs.get(n)) {
                (Some(rank), Some(runs)) => Ok((rank, n, runs)),
                _ => Err(format!("{n} is not a replayed benchmark model")),
            }
        })
        .collect::<std::result::Result<_, _>>()?;
    served.sort_unstable_by_key(|s| s.0);
    let services: Vec<Option<Vec<ModelService>>> = tr.span("serve.tables", |_| {
        (0..5)
            .map(|lane| {
                served
                    .iter()
                    .map(|(_, name, runs)| {
                        runs[lane]
                            .as_ref()
                            .map(|r| ModelService::from_engine(&engine, lane, name, r, MAX_BATCH))
                    })
                    .collect()
            })
            .collect()
    });
    let tiers = tiers();
    out.no_streams =
        services.iter().flatten().flatten().all(|s| s.footprint_bytes <= tiers[0].capacity_bytes);
    let mut events = vec![
        FaultEvent { at: cycles(KILL_US), instance: 1, action: FaultAction::Kill },
        FaultEvent { at: cycles(RESTART_US), instance: 1, action: FaultAction::Restart },
    ];
    events.sort_unstable_by_key(|e| (e.at, e.instance));
    let spec = ClusterSpec {
        instances: INSTANCES,
        router: RouterPolicy::JoinShortestQueue,
        policy: BatchPolicy { max_batch: MAX_BATCH, max_wait: cycles(50.0), queue_cap: 256 },
        buffer_bytes: None,
        tiers: Some(tiers),
        faults: FaultPlan { events, autoscale: None },
    };
    // The CLI's derived default rate: 1.5x the cluster's aggregate
    // SmartExchange batch-1 service rate.
    let mean_se_exec1 = served
        .iter()
        .map(|(_, _, runs)| runs[SE_LANE].as_ref().map_or(0.0, |r| r.total_cycles() as f64))
        .sum::<f64>()
        / served.len() as f64;
    let overload_rate = 1.5 * INSTANCES as f64 * freq / mean_se_exec1;
    for rate in [LIGHT_RATE, overload_rate] {
        let stream = tr.span("serve.workload", |_| {
            workload::request_stream(
                a.requests,
                rate,
                freq,
                ArrivalPattern::Uniform,
                served.len(),
                Some(cycles(DEADLINE_US)),
            )
        })?;
        let mut tally = Vec::new();
        for (lane, lane_services) in services.iter().enumerate() {
            let Some(lane_services) = lane_services else { continue };
            let report =
                tr.span("serve.sched", |_| simulate_cluster(&stream, lane_services, &spec))?;
            c.decisions += stream.len() as u64;
            c.batches += report.batch_sizes.len() as u64;
            c.batched_requests += report.batch_sizes.iter().sum::<usize>() as u64;
            c.rejected += report.rejected;
            c.rerouted += report.rerouted;
            c.lost += report.lost;
            c.residency_hits += report.residency.hits;
            c.residency_fetches += report.residency.fetches;
            let promotions: u64 = report.tier_traffic.iter().skip(1).map(|t| t.promotions).sum();
            c.promotions += promotions;
            c.demotions += report.tier_traffic.iter().map(|t| t.demotions).sum::<u64>();
            // Every fetch is a promotion, a stream or a cold fetch; with
            // no streams (checked) the rest are cold.
            c.cold_fetches += report.residency.fetches - promotions;
            tally.push((
                lane,
                [
                    report.completed() as u64,
                    report.rejected,
                    report.misses,
                    report.residency.fetches,
                    report.residency.evictions,
                    report.rerouted,
                    report.lost,
                ],
            ));
        }
        out.tallies.push(tally);
    }
    Ok(out)
}

/// Parses the child's lane table into the [`LaneTally`] columns per lane name.
fn child_tallies(stdout: &str) -> BTreeMap<String, [u64; 7]> {
    let mut m = BTreeMap::new();
    for line in stdout.lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        if f.len() != 14 || !se_serve::ACCEL_NAMES.contains(&f[0]) {
            continue;
        }
        let cols: Vec<u64> =
            [1, 2, 3, 9, 11, 12, 13].iter().filter_map(|&i| f[i].parse().ok()).collect();
        if let Ok(cols) = <[u64; 7]>::try_from(cols) {
            m.insert(f[0].to_string(), cols);
        }
    }
    m
}

struct Checks(Vec<(String, bool)>);

impl Checks {
    fn add(&mut self, name: impl Into<String>, ok: bool) {
        self.0.push((name.into(), ok));
    }
}

fn check_outputs(a: &Args, opts: &RunnerOptions, out: &OpOutput, ck: &mut Checks) -> Result<()> {
    let digest = traces::options_digest(&opts.traces);
    for (name, (pairs, bytes)) in &out.generated {
        let file = traces::trace_file_name(name, &opts.traces);
        if let Some(path) = find_artifact(&a.built, &file) {
            ck.add(
                format!("{name}: in-process encoding equals child artifact"),
                std::fs::read(path)? == *bytes,
            );
        }
        if let Some(decoded) = out.decoded.get(name) {
            ck.add(
                format!("{name}: serial pairs equal child-built pairs"),
                decoded.pairs == *pairs,
            );
        }
    }
    for (name, file) in &out.decoded {
        ck.add(
            format!("{name}: artifact names its network and options"),
            file.net_name == *name && file.digest == digest,
        );
    }
    if let Some(path) = &a.fig10_out {
        let child = std::fs::read_to_string(path)?;
        for (name, runs) in &out.runs {
            let cmp = runner::ModelComparison { model: name.clone(), runs: runs.clone() };
            let table = se_bench::cli::normalized_view(&[cmp], fig10::energy_efficiency);
            ck.add(
                format!("{name}: in-process Fig. 10 row equals child row"),
                child.contains(&table),
            );
        }
    }
    for (point, path) in a.cluster_out.iter().enumerate() {
        let child = child_tallies(&std::fs::read_to_string(path)?);
        let Some(tally) = out.tallies.get(point) else {
            ck.add(format!("cluster point {point}: simulated in-process"), false);
            continue;
        };
        let same = tally.len() == child.len()
            && tally
                .iter()
                .all(|(lane, cols)| child.get(se_serve::ACCEL_NAMES[*lane]) == Some(cols));
        ck.add(
            format!("cluster point {point}: in-process lanes equal the child's lane table"),
            same,
        );
    }
    ck.add("no streamed admissions (cold_fetches derivation holds)", out.no_streams);
    Ok(())
}

fn main() {
    if let Err(e) = real_main() {
        eprintln!("perfbench-traced: {e}");
        std::process::exit(1);
    }
}

fn real_main() -> Result<()> {
    let a = parse_args()?;
    let mut opts = RunnerOptions::fast();
    opts.traces = opts.traces.with_seed(a.seed);
    let mut ck = Checks(Vec::new());

    // Untraced pass first, so warm-up (page cache, allocator) is paid
    // outside the traced pass whose spans give the per-layer numbers; the
    // overhead ratio therefore errs low.
    let mut plain = Tracer::new(false, 0);
    let t = Instant::now();
    let untraced = run_op(&mut plain, &a, &opts)?;
    let untraced_s = t.elapsed().as_secs_f64();

    let mut tr = Tracer::new(true, 1);
    let t = Instant::now();
    let out = run_op(&mut tr, &a, &opts)?;
    let op_s = t.elapsed().as_secs_f64();
    ck.add("untraced and traced passes do identical work", untraced.counts == out.counts);
    check_outputs(&a, &opts, &out, &mut ck)?;

    // Probes outside the op: the parallel entry points the CLI uses.
    let mut speedups = BTreeMap::new();
    for name in GEN_MODELS {
        let net = zoo::by_name(name)?;
        let t = Instant::now();
        let parallel = traces::trace_pairs(&net, &opts.traces)?;
        let wall = t.elapsed().as_secs_f64();
        speedups.insert(name.to_ascii_lowercase(), out.serial_gen_s[name] / wall);
        ck.add(
            format!("{name}: parallel trace_pairs equals serial pairs"),
            parallel == out.generated[name].0,
        );
    }
    let mut grid_wall = 0.0;
    for (name, file) in &out.decoded {
        let t = Instant::now();
        let cmp = runner::compare_pairs(name, &file.pairs, &opts)?;
        grid_wall += t.elapsed().as_secs_f64();
        ck.add(format!("{name}: compare_pairs equals serial lanes"), cmp.runs == out.runs[name]);
    }

    let summary = tr.summary(op_s);
    tr.write_jsonl(&a.spans_out)?;

    let s = |name: &str| summary.self_s.get(name).copied().unwrap_or(0.0);
    let c = &out.counts;
    let lane_s: f64 = BASELINE_SPANS.iter().map(|n| s(n)).sum::<f64>() + s("hw.se_sim");
    let mib = |b: u64| b as f64 / (1024.0 * 1024.0);
    let ratio = |x: u64, y: u64| if y == 0 { 0.0 } else { x as f64 / y as f64 };
    let mut m: Vec<(String, f64, &str)> = vec![
        ("models.weights.s".into(), s("models.weights"), "s"),
        ("models.activations.s".into(), s("models.activations"), "s"),
        ("ir.quantize.s".into(), s("ir.quantize"), "s"),
        ("ir.layer_trace.s".into(), s("ir.layer_trace"), "s"),
        ("core.compress.s".into(), s("core.compress"), "s"),
        ("core.compress.calls".into(), c.compress_calls as f64, "count"),
        (
            "core.compress.ns_per_weight".into(),
            s("core.compress") * 1e9 / c.weights as f64,
            "ns/weight",
        ),
    ];
    for (model, x) in &speedups {
        m.push((format!("pipeline.build_speedup.{model}"), *x, "ratio"));
    }
    m.extend([
        ("traces.encode.s".into(), s("traces.encode"), "s"),
        ("traces.encode.mb".into(), mib(c.encode_bytes), "MB"),
        ("traces.write.s".into(), s("traces.write"), "s"),
        ("traces.read.s".into(), s("traces.read"), "s"),
        ("traces.decode.s".into(), s("traces.decode"), "s"),
        ("traces.decode.mb".into(), mib(c.decode_bytes), "MB"),
        ("hw.se_sim.s".into(), s("hw.se_sim"), "s"),
        ("hw.se_sim.ns_per_mac".into(), s("hw.se_sim") * 1e9 / c.se_macs as f64, "ns/MAC"),
        ("baselines.diannao.s".into(), s("baselines.diannao"), "s"),
        ("baselines.scnn.s".into(), s("baselines.scnn"), "s"),
        ("baselines.cambricon_x.s".into(), s("baselines.cambricon_x"), "s"),
        ("baselines.pragmatic.s".into(), s("baselines.pragmatic"), "s"),
        ("baselines.scnn.unsupported".into(), c.scnn_unsupported as f64, "count"),
        ("hw.schedule.builds".into(), c.schedule_builds as f64, "count"),
        (
            "hw.schedule.hit_ratio".into(),
            1.0 - ratio(c.schedule_builds, c.schedule_lookups),
            "ratio",
        ),
        ("pipeline.grid_speedup".into(), lane_s / grid_wall, "ratio"),
        ("serve.workload.s".into(), s("serve.workload"), "s"),
        ("serve.tables.s".into(), s("serve.tables"), "s"),
        ("serve.sched.s".into(), s("serve.sched"), "s"),
        (
            "serve.sched.ns_per_decision".into(),
            s("serve.sched") * 1e9 / c.decisions as f64,
            "ns/decision",
        ),
        ("serve.batches".into(), c.batches as f64, "count"),
        ("serve.mean_batch".into(), ratio(c.batched_requests, c.batches), "requests"),
        ("serve.rejected".into(), c.rejected as f64, "count"),
        ("serve.rerouted".into(), c.rerouted as f64, "count"),
        ("serve.lost".into(), c.lost as f64, "count"),
        (
            "hw.residency.hit_ratio".into(),
            ratio(c.residency_hits, c.residency_hits + c.residency_fetches),
            "ratio",
        ),
        ("hw.residency.promotions".into(), c.promotions as f64, "count"),
        ("hw.residency.demotions".into(), c.demotions as f64, "count"),
        ("hw.residency.cold_fetches".into(), c.cold_fetches as f64, "count"),
        ("other.s".into(), summary.other_s, "s"),
        ("bench.op_s".into(), op_s, "s"),
        ("bench.trace_overhead".into(), op_s / untraced_s, "ratio"),
    ]);

    // The `*.s` metrics are the span self times and `other.s`. A span left
    // unprinted, or a metric read from a misnamed span, leaves a gap.
    let folded: f64 = m.iter().filter(|(name, ..)| name.ends_with(".s")).map(|(_, v, _)| v).sum();
    ck.add(
        "printed span self times plus other.s fold to bench.op_s",
        summary.other_s >= 0.0 && (folded - op_s).abs() <= 1e-6 * op_s,
    );

    let metrics: Vec<String> = m
        .iter()
        .map(|(name, v, unit)| format!("\"{name}\": {{\"value\": {v:e}, \"unit\": \"{unit}\"}}"))
        .collect();
    let checks: Vec<String> =
        ck.0.iter()
            .map(|(name, ok)| format!("{{\"name\": \"{}\", \"ok\": {ok}}}", name.replace('"', "'")))
            .collect();
    println!("{{\"metrics\": {{{}}}, \"checks\": [{}]}}", metrics.join(", "), checks.join(", "));
    Ok(())
}
