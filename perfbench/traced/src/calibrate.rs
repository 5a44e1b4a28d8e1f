//! Fixed CPU calibration kernel of perfbench.
//!
//! Does the same arithmetic on every run and every commit and calls no
//! code of the repository, so its CPU time measures the host's speed and
//! nothing else. `perfbench/run.py` runs it once before every set-up build
//! and every op, and scales the ops' CPU times by it, so a host whose cores
//! run slower or faster for minutes at a time does not move the metrics.
//!
//! The work mixes what the `se` children do: a floating-point
//! multiply-add sweep over an L2-sized buffer (decomposition, simulation)
//! and dependent, branchy lookups in a larger table (schedules, residency,
//! decoding). Prints a checksum so that none of it is optimised away.

use std::hint::black_box;

/// f32 elements of the swept buffers (256 KiB each).
const FLOATS: usize = 1 << 16;
/// Sweeps over the buffers.
const PASSES: usize = 1200;
/// u32 entries of the lookup table (1 MiB).
const TABLE: usize = 1 << 18;
/// Dependent lookups.
const LOOKUPS: usize = 1 << 24;

fn main() {
    let mut x: Vec<f32> = (0..FLOATS).map(|i| (i % 97) as f32 * 0.01).collect();
    let y: Vec<f32> = (0..FLOATS).map(|i| (i % 89) as f32 * 0.02).collect();
    let mut dot = 0.0f64;
    for pass in 0..PASSES {
        let a = black_box(1.0 + pass as f32 * 1e-6);
        let mut acc = 0.0f32;
        for (xi, yi) in x.iter_mut().zip(&y) {
            *xi = *xi * 0.999 + a * yi;
            acc += *xi * yi;
        }
        dot += f64::from(acc);
    }

    let table: Vec<u32> = (0..TABLE as u32).map(|i| i.wrapping_mul(2_654_435_761) >> 7).collect();
    let (mut state, mut hash) = (0x9E37_79B9_7F4A_7C15u64, 0u64);
    for _ in 0..LOOKUPS {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let v = table[(state ^ hash) as usize & (TABLE - 1)];
        hash = if v & 1 == 0 {
            hash.rotate_left(5) ^ u64::from(v)
        } else {
            hash.wrapping_add(u64::from(v))
        };
    }
    println!("{dot:.6e} {hash:016x}");
}
