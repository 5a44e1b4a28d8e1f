//! Hostile-input properties of the decoders that read files back in: the
//! trace-artifact codec (`decode_trace_pairs`) and the Chrome-trace reader
//! (`Json::parse` → `events_from_chrome_trace`).
//! Truncated prefixes and bit flips of a valid input must come back as
//! `Ok` or `Err` — never a panic. The small trace set is swept
//! exhaustively; the larger Chrome trace is sampled.

use proptest::prelude::*;
use se_bench::json::Json;
use se_bench::obs_export::{chrome_trace, events_from_chrome_trace};
use se_ir::{Dataset, LayerDesc, LayerKind, NetworkDesc};
use se_models::traces::{self, TraceOptions};
use se_obs::Recorder;
use se_serve::cluster::{simulate_cluster_run, ClusterSpec, ModelService, RouterPolicy, TierSpec};
use se_serve::fault::{FaultAction, FaultEvent, FaultPlan};
use se_serve::queue::BatchPolicy;
use se_serve::workload::Request;
use std::sync::OnceLock;

/// A valid encoded trace set: dense and SE weights, conv and
/// squeeze-excite layers.
fn trace_set() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let conv =
            LayerKind::Conv2d { in_channels: 3, out_channels: 4, kernel: 3, stride: 1, padding: 1 };
        let net = NetworkDesc::new(
            "tiny",
            Dataset::Cifar10,
            vec![
                LayerDesc::new("c1", conv, (4, 4)),
                LayerDesc::new("se1", LayerKind::SqueezeExcite { channels: 4, reduced: 2 }, (4, 4)),
            ],
        )
        .unwrap();
        let opts = TraceOptions::fast();
        let pairs = traces::trace_pairs(&net, &opts).unwrap();
        traces::encode_trace_pairs(net.name(), traces::options_digest(&opts), &pairs).unwrap()
    })
}

/// A valid exported Chrome trace of a churned, tiered two-model cluster
/// run, so batch spans, queue counters, fault and tier instants all occur.
fn chrome_trace_text() -> &'static str {
    static TEXT: OnceLock<String> = OnceLock::new();
    TEXT.get_or_init(|| {
        let service = |name: &str, base: u64, footprint: u64| ModelService {
            name: name.into(),
            streamed: (1..=4).map(|k| base + 40 * k).collect(),
            resident: (1..=4).map(|k| base / 2 + 40 * k).collect(),
            footprint_bytes: footprint,
            switch_cycles: base / 2,
        };
        let services = [service("se", 200, 300), service("dense", 260, 1600)];
        let spec = ClusterSpec {
            instances: 2,
            router: RouterPolicy::RoundRobin,
            policy: BatchPolicy { max_batch: 4, max_wait: 120, queue_cap: 8 },
            buffer_bytes: None,
            tiers: Some(vec![TierSpec::new("buf", 1700, 64.0), TierSpec::new("ssd", 9000, 1.0)]),
            faults: FaultPlan {
                events: vec![
                    FaultEvent { at: 1_500, instance: 1, action: FaultAction::Kill },
                    FaultEvent { at: 6_000, instance: 1, action: FaultAction::Restart },
                ],
                autoscale: None,
            },
        };
        let requests: Vec<Request> = (0..40)
            .map(|i| Request {
                model: (i % 2) as usize,
                arrival: i * 150,
                deadline: Some(i * 150 + 900),
            })
            .collect();
        let mut rec = Recorder::new();
        simulate_cluster_run(&requests, &services, &spec, &mut rec).unwrap();
        chrome_trace(&[("se".to_string(), rec.events())]).render()
    })
}

fn decode(bytes: &[u8]) {
    let _ = traces::decode_trace_pairs(bytes);
}

fn read_chrome_trace(bytes: &[u8]) {
    if let Ok(doc) = Json::parse(&String::from_utf8_lossy(bytes)) {
        let _ = events_from_chrome_trace(&doc);
    }
}

fn flip(bytes: &[u8], at: u64, bit: u8) -> Vec<u8> {
    let mut out = bytes.to_vec();
    out[at as usize % bytes.len()] ^= 1 << (bit % 8);
    out
}

#[test]
fn unmutated_inputs_decode() {
    let file = traces::decode_trace_pairs(trace_set()).unwrap();
    assert_eq!(file.pairs.len(), 2);
    let doc = Json::parse(chrome_trace_text()).unwrap();
    let streams = events_from_chrome_trace(&doc).unwrap();
    assert!(streams[0].1.len() > 40, "the trace covers the run");
}

#[test]
fn every_trace_set_bit_flip_decodes_or_errs() {
    let bytes = trace_set();
    for at in 0..bytes.len() as u64 {
        for bit in 0..8 {
            decode(&flip(bytes, at, bit));
        }
    }
}

#[test]
fn span_end_overflow_is_an_error() {
    let text = r#"{"traceEvents": [
        {"name": "process_name", "ph": "M", "pid": 0, "args": {"name": "se"}},
        {"name": "batch", "ph": "X", "pid": 0, "tid": 0, "ts": 18446744073709549568,
         "dur": 18446744073709549568, "args": {"seq": 0, "model": 0, "size": 1}}
    ]}"#;
    let err = events_from_chrome_trace(&Json::parse(text).unwrap()).unwrap_err();
    assert!(err.to_string().contains("overflows"), "{err}");
}

#[test]
fn every_truncated_prefix_is_an_error() {
    let bytes = trace_set();
    for len in 0..bytes.len() {
        assert!(traces::decode_trace_pairs(&bytes[..len]).is_err(), "prefix {len}");
    }
    let text = chrome_trace_text().as_bytes();
    // A prefix that is itself a complete document cannot occur: the text
    // ends in the closing brace of the top-level object.
    for len in (0..text.len()).step_by(7) {
        assert!(Json::parse(&String::from_utf8_lossy(&text[..len])).is_err(), "prefix {len}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn trace_set_double_bit_flips_never_panic(a in any::<u64>(), b in any::<u64>(), bits in any::<u8>()) {
        decode(&flip(&flip(trace_set(), a, bits), b, bits >> 3));
    }

    #[test]
    fn chrome_trace_bit_flips_never_panic(at in any::<u64>(), bit in any::<u8>()) {
        read_chrome_trace(&flip(chrome_trace_text().as_bytes(), at, bit));
    }
}
