//! End-to-end guarantees of the persisted-trace pipeline: a figure run
//! that replays `--traces-dir` artifacts must produce **byte-identical**
//! output to the direct (uncached) run — the whole point of trading the
//! regeneration cost for a file read is that nothing else changes.

use se_bench::args::Flags;
use se_bench::{cli, figures};
use se_ir::{Dataset, LayerDesc, LayerKind, NetworkDesc};
use se_models::traces;

/// A small two-model set exercising repeated geometries and the SCNN
/// `None` lane (squeeze-excite).
fn model_set() -> Vec<NetworkDesc> {
    let conv = |name: &str, ci: usize, co: usize, hw: usize| {
        LayerDesc::new(
            name,
            LayerKind::Conv2d {
                in_channels: ci,
                out_channels: co,
                kernel: 3,
                stride: 1,
                padding: 1,
            },
            (hw, hw),
        )
    };
    vec![
        NetworkDesc::new(
            "alpha",
            Dataset::Cifar10,
            vec![conv("a1", 3, 8, 8), conv("a2", 8, 8, 8), conv("a3", 8, 8, 8)],
        )
        .unwrap(),
        NetworkDesc::new(
            "beta",
            Dataset::Cifar10,
            vec![
                conv("b1", 3, 8, 8),
                LayerDesc::new("se1", LayerKind::SqueezeExcite { channels: 8, reduced: 2 }, (8, 8)),
                conv("b2", 8, 4, 8),
            ],
        )
        .unwrap(),
    ]
}

fn fig10_output(flags: &Flags, models: &[NetworkDesc]) -> String {
    let mut out = Vec::new();
    figures::fig10::run_with_models(flags, models, &mut out).unwrap();
    String::from_utf8(out).unwrap()
}

#[test]
fn fig10_cache_warm_output_is_byte_identical_to_direct() {
    let models = model_set();
    let dir = std::env::temp_dir().join(format!("se-fig10-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let direct_flags = Flags::default();
    let direct = fig10_output(&direct_flags, &models);
    assert!(direct.contains("Fig. 10"));
    assert!(direct.contains("alpha") && direct.contains("beta"));
    assert!(direct.contains("n/a"), "SCNN lane must be n/a on beta:\n{direct}");

    // `se trace build` equivalent for the custom model set.
    let opts = direct_flags.runner_options().traces;
    for net in &models {
        traces::build_trace_file(net, &opts, &dir).unwrap();
    }

    let cached_flags = Flags { traces_dir: Some(dir.clone()), ..Flags::default() };
    let cached = fig10_output(&cached_flags, &models);
    assert_eq!(direct, cached, "cache-warm fig10 output must be byte-identical");

    // Cold cache on changed options: falls back to direct generation and
    // still matches (a different seed is a different figure, but must be
    // deterministic between its own cached/uncached runs).
    let seeded = Flags { seed: 3, traces_dir: Some(dir.clone()), ..Flags::default() };
    let seeded_direct = Flags { seed: 3, ..Flags::default() };
    assert_eq!(fig10_output(&seeded, &models), fig10_output(&seeded_direct, &models));

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn table2_compression_artifacts_replay_byte_identically() {
    // MLP-2 is the one cheap entry in Table II; the compression-side
    // artifact cache must be invisible in the output: direct run, cache-
    // populating run, and cache-warm replay all byte-identical.
    let dir = std::env::temp_dir().join(format!("se-table2-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let run = |flags: &Flags| {
        let mut out = Vec::new();
        figures::table2::run(flags, &mut out).unwrap();
        String::from_utf8(out).unwrap()
    };
    let select = Flags { models: Some(vec!["MLP-2".into()]), ..Flags::default() };
    let direct = run(&select);
    assert!(direct.contains("MLP-2"));
    let cached_flags = Flags { traces_dir: Some(dir.clone()), ..select };
    let populating = run(&cached_flags);
    assert_eq!(direct, populating, "cache-populating run must match direct");
    let senet: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.path().extension().and_then(|x| x.to_str()) == Some("senet"))
        .collect();
    assert_eq!(senet.len(), 1, "one compressed-network artifact written");
    let warm = run(&cached_flags);
    assert_eq!(direct, warm, "cache-warm replay must match direct");

    // `se trace info` lists the compression artifact alongside traces.
    let mut out = Vec::new();
    cli::run_from_args(
        &["trace".into(), "info".into(), "--traces-dir".into(), dir.display().to_string()],
        &mut out,
    )
    .unwrap();
    let text = String::from_utf8(out).unwrap();
    assert!(text.contains("compressed-network artifacts"), "{text}");
    assert!(text.contains(".senet"), "{text}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn trace_subcommand_validates_its_arguments() {
    let mut out = Vec::new();
    let args = |list: &[&str]| list.iter().map(|s| s.to_string()).collect::<Vec<_>>();
    // No action.
    let err = cli::run_from_args(&args(&["trace"]), &mut out).unwrap_err();
    assert!(err.to_string().contains("build|info"), "{err}");
    // Missing --traces-dir.
    let err = cli::run_from_args(&args(&["trace", "build"]), &mut out).unwrap_err();
    assert!(err.to_string().contains("--traces-dir"), "{err}");
    // Unknown models with a traces dir: build refuses to do nothing.
    let dir = std::env::temp_dir().join(format!("se-trace-none-{}", std::process::id()));
    let err = cli::run_from_args(
        &args(&["trace", "build", "--traces-dir", dir.to_str().unwrap(), "--models", "nope"]),
        &mut out,
    )
    .unwrap_err();
    assert!(err.to_string().contains("no models"), "{err}");
}

#[test]
fn trace_info_tabulates_artifacts() {
    let models = model_set();
    let dir = std::env::temp_dir().join(format!("se-trace-info-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = Flags::default().runner_options().traces;
    for net in &models {
        traces::build_trace_file(net, &opts, &dir).unwrap();
    }
    let mut out = Vec::new();
    cli::run_from_args(
        &["trace".into(), "info".into(), "--traces-dir".into(), dir.display().to_string()],
        &mut out,
    )
    .unwrap();
    let text = String::from_utf8(out).unwrap();
    assert!(text.contains("alpha") && text.contains("beta"), "{text}");
    assert!(text.contains(".setrace"), "{text}");
    std::fs::remove_dir_all(&dir).unwrap();
}
