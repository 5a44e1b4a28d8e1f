//! Bit-identity pins for the SmartExchange decomposition kernel.
//!
//! Every digest below is an FNV-1a hash of the exact `f32` bit patterns the
//! decomposition produces (`ce`, `basis`) and of every field of the Fig. 9
//! iteration records. Any change to the operation order inside the
//! least-squares fits, the power-of-2 rounding or the sparsifiers shows up
//! here as a mismatch, so a faster kernel must reproduce these values
//! unchanged rather than re-capture them.

use se_core::{algorithm, layer, SeConfig, VectorSparsity};
use se_tensor::{rng, Mat, Tensor};

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

    fn f32(&mut self, v: f32) {
        self.bytes(&v.to_bits().to_le_bytes());
    }

    fn mat(&mut self, m: &Mat) {
        self.word(m.rows() as u64);
        self.word(m.cols() as u64);
        for &v in m.data() {
            self.f32(v);
        }
    }
}

fn policies() -> [(&'static str, VectorSparsity); 4] {
    [
        ("none", VectorSparsity::None),
        ("threshold", VectorSparsity::Threshold(4e-3)),
        ("keep", VectorSparsity::KeepFraction(0.4)),
        ("relative", VectorSparsity::RelativeThreshold(0.4)),
    ]
}

/// The seeded inputs: the trace-build chunk shapes (768×3 is a VGG11 3×3
/// filter chunk, 22×3 a ResNet164 1×1 FC row), the smallest square case, a
/// 4-column shape, and two rank-deficient matrices (proportional rows, and
/// an all-zero column) that drive the ridge escalation.
fn inputs() -> Vec<(&'static str, Mat)> {
    let mut r = rng::seeded(0x5e_90_1d);
    let big = rng::normal_mat(&mut r, 768, 3, 0.05);
    let row = rng::normal_mat(&mut r, 22, 3, 0.2);
    let square = rng::normal_mat(&mut r, 3, 3, 0.1);
    let wide = rng::normal_mat(&mut r, 40, 4, 0.08);
    let scales = rng::normal_mat(&mut r, 30, 1, 0.1);
    let proportional = Mat::from_fn(30, 3, |i, j| scales.get(i, 0) * [1.0, -0.5, 0.25][j]);
    let mut zero_col = rng::normal_mat(&mut r, 24, 3, 0.1);
    for i in 0..24 {
        zero_col.set(i, 1, 0.0);
    }
    vec![
        ("768x3", big),
        ("22x3", row),
        ("3x3", square),
        ("40x4", wide),
        ("rank1", proportional),
        ("zero_col", zero_col),
    ]
}

fn configs() -> Vec<(String, SeConfig)> {
    let mut out = Vec::new();
    for (pname, policy) in policies() {
        for (mname, mask) in [("nomask", None), ("mask", Some(0.9))] {
            for iterations in [6usize, 30] {
                let cfg = SeConfig::default()
                    .with_max_iterations(iterations)
                    .unwrap()
                    .with_vector_sparsity(policy)
                    .unwrap()
                    .with_channel_prune(mask)
                    .unwrap();
                out.push((format!("{pname}/{mname}/{iterations}"), cfg));
            }
        }
    }
    let raw = SeConfig::default().with_quantize_basis(false).with_max_iterations(6).unwrap();
    out.push(("raw_basis/6".into(), raw));
    out
}

/// Digests `(decompose, decompose_traced decomposition, trace records)` for
/// every input × config pair, in a fixed order.
fn digests() -> (u64, u64) {
    let mut factors = Fnv::new();
    let mut records = Fnv::new();
    for (iname, w) in inputs() {
        for (cname, cfg) in configs() {
            let d = algorithm::decompose(&w, &cfg).unwrap();
            let (dt, trace) = algorithm::decompose_traced(&w, &cfg).unwrap();
            assert_eq!(d, dt, "{iname} {cname}: traced and untraced runs differ");
            factors.mat(&d.ce);
            factors.mat(&d.basis);
            records.word(trace.records.len() as u64);
            for rec in &trace.records {
                records.word(rec.iteration as u64);
                records.f32(rec.recon_error);
                records.f32(rec.ce_sparsity);
                records.f32(rec.ce_row_sparsity);
                records.f32(rec.basis_identity_dist);
                records.f32(rec.quant_delta);
            }
        }
    }
    (factors.0, records.0)
}

#[test]
fn decomposition_bits_are_pinned() {
    let (factors, records) = digests();
    assert_eq!(
        (factors, records),
        (0x6e5e_f07f_52db_3422, 0x1615_312b_1759_7526),
        "factor digest {factors:#018x}, record digest {records:#018x}"
    );
}

/// A whole CONV layer with channel pruning goes through the per-chunk
/// forced-row refit of `layer::compress_conv`.
#[test]
fn conv_layer_bits_are_pinned() {
    let mut r = rng::seeded(0xc0_17);
    let w: Tensor = rng::normal_tensor(&mut r, &[4, 40, 3, 3], 0.05);
    let mut h = Fnv::new();
    for (pname, policy) in policies() {
        let cfg = SeConfig::default()
            .with_max_iterations(6)
            .unwrap()
            .with_vector_sparsity(policy)
            .unwrap()
            .with_channel_prune(Some(0.9))
            .unwrap()
            .with_max_unit_rows(50)
            .unwrap();
        let layer = layer::compress_conv(&w, &cfg).unwrap();
        for s in layer.slices() {
            h.mat(&s.ce_values());
            h.mat(s.basis());
        }
        h.bytes(pname.as_bytes());
    }
    assert_eq!(h.0, 0x6f3d_85b2_b8d2_59c5, "conv digest {:#018x}", h.0);
}
