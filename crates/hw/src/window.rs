//! Shared cycle-model machinery: per-activation serial-cycle counts
//! (plain and zero-padded by row), strided window max/sum, and
//! row-occupancy masks.
//!
//! The bit-serial MAC lanes of a PE line run in lockstep: one weight
//! element is broadcast to `dimF` lanes, each multiplying it by its own
//! activation over that activation's non-zero Booth digits. The step
//! therefore costs the **maximum** serial count across the window of
//! activations, while the **sum** of serial counts is the actual switching
//! work (PE energy). Both are computed here, with stride-aware windows and
//! zero padding treated as cost-free.

use se_ir::{booth, QuantTensor};

/// How many serial cycles one multiplication by a given 8-bit activation
/// code costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SerialMode {
    /// Booth-encoded bit-serial lanes (the SmartExchange PE): non-zero
    /// radix-4 Booth digits; zero activations cost nothing.
    Booth,
    /// Plain essential-bit serial lanes (Bit-pragmatic): non-zero bits.
    PlainBits,
    /// Conventional parallel multipliers: one cycle per multiplication,
    /// including multiplications by zero.
    Unit,
}

impl SerialMode {
    /// Serial cycles for one activation code.
    #[inline]
    pub fn cycles(&self, code: i8) -> u8 {
        match self {
            SerialMode::Booth => booth::booth_nonzero_digits(code) as u8,
            SerialMode::PlainBits => booth::nonzero_bits(code) as u8,
            SerialMode::Unit => 1,
        }
    }

    /// [`SerialMode::cycles`] for every 8-bit code, indexed by the code's
    /// bit pattern: one table lookup per activation instead of a Booth
    /// recoding.
    fn table(&self) -> [u8; 256] {
        std::array::from_fn(|bits| self.cycles(bits as u8 as i8))
    }
}

/// Per-element serial-cycle counts for an entire activation tensor.
pub fn serial_counts(q: &QuantTensor, mode: SerialMode) -> Vec<u8> {
    let table = mode.table();
    q.data().iter().map(|&c| table[usize::from(c as u8)]).collect()
}

/// Per-element serial counts of an activation map stored as rows of
/// `width` codes, each row placed between `pad` zero codes on either side
/// (`width + 2·pad` per row). Windows that reach into a layer's zero
/// padding then index the row directly: padding lanes hold zero
/// activations and cost nothing.
pub fn padded_serial_counts(
    q: &QuantTensor,
    mode: SerialMode,
    width: usize,
    pad: usize,
) -> Vec<u8> {
    let table = mode.table();
    let mut out = Vec::with_capacity(q.len() / width.max(1) * (width + 2 * pad));
    for row in q.data().chunks_exact(width.max(1)) {
        out.resize(out.len() + pad, 0);
        out.extend(row.iter().map(|&c| table[usize::from(c as u8)]));
        out.resize(out.len() + pad, 0);
    }
    out
}

/// Maximum and sum of the serial counts over a strided window of a padded
/// row: `count` codes, `stride` apart, from index `start`. The maximum is
/// the lockstep step cost, the sum the per-lane switching work feeding the
/// PE energy counter. Codes past the end of the row are zero padding and
/// cost nothing.
#[inline]
pub fn window_stats(row: &[u8], start: usize, stride: usize, count: usize) -> (u8, u32) {
    let tail = row.get(start..).unwrap_or(&[]);
    let (mut max, mut sum) = (0u8, 0u32);
    let mut lane = |x: u8| {
        max = max.max(x);
        sum += u32::from(x);
    };
    if stride == 1 {
        tail.iter().take(count).for_each(|&x| lane(x));
    } else {
        tail.iter().step_by(stride).take(count).for_each(|&x| lane(x));
    }
    (max, sum)
}

/// Per-input-row occupancy of a `(C, H, W)` activation map: `mask[c*H + y]`
/// is `true` when row `y` of channel `c` has at least one non-zero code —
/// exactly the 1-bit activation index the index selector consumes.
pub fn activation_row_nonzero(q: &QuantTensor) -> Vec<bool> {
    let s = q.shape();
    if s.len() != 3 {
        // FC-style flat inputs: treat each element as its own "row".
        return q.data().iter().map(|&c| c != 0).collect();
    }
    let (c, h, w) = (s[0], s[1], s[2]);
    let mut mask = Vec::with_capacity(c * h);
    for row in 0..c * h {
        mask.push(q.data()[row * w..(row + 1) * w].iter().any(|&x| x != 0));
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;
    use se_tensor::Tensor;

    fn quant(v: Vec<f32>, shape: &[usize]) -> QuantTensor {
        QuantTensor::quantize(&Tensor::from_vec(v, shape).unwrap(), 8).unwrap()
    }

    #[test]
    fn serial_modes_on_zero() {
        assert_eq!(SerialMode::Booth.cycles(0), 0);
        assert_eq!(SerialMode::PlainBits.cycles(0), 0);
        assert_eq!(SerialMode::Unit.cycles(0), 1);
    }

    #[test]
    fn booth_cheaper_than_plain_on_runs() {
        // 0b0111_1110 = 126: 6 set bits, but few Booth digits.
        assert!(SerialMode::Booth.cycles(126) < SerialMode::PlainBits.cycles(126));
    }

    /// Row [1, 5, 2, 7, 3] behind 2 padding codes on either side.
    const PADDED: [u8; 9] = [0, 0, 1, 5, 2, 7, 3, 0, 0];

    #[test]
    fn window_max_respects_stride_and_padding() {
        let max = |start, stride, count| window_stats(&PADDED, start, stride, count).0;
        assert_eq!(max(2, 1, 3), 5);
        assert_eq!(max(3, 2, 2), 7); // elements 1 and 3
        assert_eq!(max(0, 1, 3), 1); // two padding lanes
        assert_eq!(max(6, 1, 4), 3); // runs off the end
        assert_eq!(max(20, 1, 2), 0); // fully out of range
    }

    #[test]
    fn window_sum_matches_manual() {
        let sum = |start, stride, count| window_stats(&PADDED, start, stride, count).1;
        assert_eq!(sum(2, 1, 5), 18);
        assert_eq!(sum(2, 2, 3), 1 + 2 + 3);
        assert_eq!(sum(1, 1, 3), 6);
    }

    #[test]
    fn padded_counts_surround_each_row_with_zeros() {
        let q = quant(vec![0.0, 1.0, 0.5, 0.0], &[1, 2, 2]);
        let plain = serial_counts(&q, SerialMode::Booth);
        let padded = padded_serial_counts(&q, SerialMode::Booth, 2, 1);
        assert_eq!(padded, vec![0, plain[0], plain[1], 0, 0, plain[2], plain[3], 0]);
        assert_eq!(padded_serial_counts(&q, SerialMode::Unit, 2, 0), vec![1; 4]);
    }

    #[test]
    fn row_mask_flags_nonzero_rows() {
        let q = quant(vec![0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.5], &[2, 2, 2]);
        assert_eq!(activation_row_nonzero(&q), vec![false, true, false, true]);
    }

    #[test]
    fn flat_inputs_use_element_mask() {
        let q = quant(vec![0.0, 1.0, 0.0], &[3]);
        assert_eq!(activation_row_nonzero(&q), vec![false, true, false]);
    }

    #[test]
    fn lookup_table_matches_every_code() {
        for mode in [SerialMode::Booth, SerialMode::PlainBits, SerialMode::Unit] {
            let table = mode.table();
            for code in i8::MIN..=i8::MAX {
                assert_eq!(table[usize::from(code as u8)], mode.cycles(code), "{mode:?} {code}");
            }
        }
    }

    #[test]
    fn serial_counts_cover_tensor() {
        let q = quant(vec![0.0, 1.0, 0.25, 0.5], &[4]);
        let counts = serial_counts(&q, SerialMode::Booth);
        assert_eq!(counts.len(), 4);
        assert_eq!(counts[0], 0);
        assert!(counts[1] >= 1);
    }
}
