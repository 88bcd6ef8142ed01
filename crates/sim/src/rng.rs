//! Deterministic random-number streams and sampling helpers.
//!
//! Every source of randomness in a simulation (node capabilities, job
//! constraints, arrival times, failures, virtual-dimension coordinates, ...)
//! draws from its own *stream*, derived from a single root seed with
//! SplitMix64. Adding a new consumer of randomness therefore never perturbs
//! the draws seen by existing consumers, which keeps experiments comparable
//! across code versions.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The generator used throughout the workspace (seeded ChaCha via `StdRng`).
pub type SimRng = StdRng;

/// SplitMix64 finalizer — a fast, well-distributed 64-bit mixer.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The inverse of [`splitmix64`]: `unsplitmix64(splitmix64(x)) == x` for
/// every `x`. Each step of the mixer is invertible — the add by its
/// negation, a multiply by the odd constant's inverse mod 2⁶⁴, and a
/// `z ^ (z >> s)` by folding the shifted terms back in until they run out.
pub fn unsplitmix64(mut z: u64) -> u64 {
    z ^= (z >> 31) ^ (z >> 62);
    z = z.wrapping_mul(0x3196_42B2_D24D_8EC3);
    z ^= (z >> 27) ^ (z >> 54);
    z = z.wrapping_mul(0x96DE_1B17_3F11_9089);
    z ^= (z >> 30) ^ (z >> 60);
    z.wrapping_sub(0x9E37_79B9_7F4A_7C15)
}

/// Derive the seed for logical stream `stream` from `root`.
///
/// Distinct `(root, stream)` pairs yield (with overwhelming probability)
/// distinct, statistically independent seeds.
pub fn derive_seed(root: u64, stream: u64) -> u64 {
    splitmix64(root ^ splitmix64(stream.wrapping_add(0xA076_1D64_78BD_642F)))
}

/// A fresh deterministic generator for `(root, stream)`.
pub fn rng_for(root: u64, stream: u64) -> SimRng {
    SimRng::seed_from_u64(derive_seed(root, stream))
}

/// Well-known stream identifiers used across the workspace.
///
/// Centralizing them avoids accidental stream collisions between crates.
pub mod streams {
    /// Node GUIDs / overlay identifiers.
    pub const NODE_IDS: u64 = 1;
    /// Node resource capabilities.
    pub const NODE_CAPS: u64 = 2;
    /// Job constraints.
    pub const JOB_CONSTRAINTS: u64 = 3;
    /// Job arrival process.
    pub const ARRIVALS: u64 = 4;
    /// Job running times.
    pub const RUNTIMES: u64 = 5;
    /// Failure injection.
    pub const FAILURES: u64 = 6;
    /// CAN virtual-dimension coordinates.
    pub const VIRTUAL_DIM: u64 = 7;
    /// Matchmaker-internal tie breaking / random walks.
    pub const MATCHMAKER: u64 = 8;
    /// Network latency jitter.
    pub const NETWORK: u64 = 9;
    /// Message-fault injection: loss draws and retry-backoff jitter.
    pub const FAULT_INJECTION: u64 = 10;
    /// Tenant assignment and per-tenant quota spill in scenario specs.
    pub const TENANTS: u64 = 11;
    /// Modulated arrival processes (MMPP state dwell and rate draws).
    pub const MODULATION: u64 = 12;
    /// Correlated-failure domain sampling (rack / AS group membership).
    pub const CORRELATED_FAULTS: u64 = 13;
}

/// Sample an exponential variate with the given mean.
///
/// Uses inverse-transform sampling; `mean == 0` returns exactly `0.0`.
pub fn sample_exp<R: Rng + ?Sized>(rng: &mut R, mean: f64) -> f64 {
    assert!(mean >= 0.0 && mean.is_finite(), "invalid mean {mean}");
    if mean == 0.0 {
        return 0.0;
    }
    // 1 - U is in (0, 1], so ln() is finite.
    let u: f64 = rng.gen::<f64>();
    -mean * (1.0 - u).ln()
}

/// Sample a normal variate via the Box–Muller transform.
pub fn sample_normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, std_dev: f64) -> f64 {
    assert!(
        std_dev >= 0.0 && std_dev.is_finite(),
        "invalid std {std_dev}"
    );
    let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
    let u2: f64 = rng.gen();
    let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    mean + std_dev * z
}

/// Sample a normal variate truncated below at `lo` (re-draws, capped).
pub fn sample_truncated_normal<R: Rng + ?Sized>(
    rng: &mut R,
    mean: f64,
    std_dev: f64,
    lo: f64,
) -> f64 {
    for _ in 0..64 {
        let x = sample_normal(rng, mean, std_dev);
        if x >= lo {
            return x;
        }
    }
    lo
}

/// Sample an integer uniformly from `0..n`. Panics if `n == 0`.
pub fn sample_index<R: Rng + ?Sized>(rng: &mut R, n: usize) -> usize {
    assert!(n > 0, "sample_index: empty range");
    rng.gen_range(0..n)
}

/// Choose an element of `items` uniformly at random.
pub fn choose<'a, R: Rng + ?Sized, T>(rng: &mut R, items: &'a [T]) -> Option<&'a T> {
    if items.is_empty() {
        None
    } else {
        Some(&items[rng.gen_range(0..items.len())])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_independent_and_deterministic() {
        let mut a1 = rng_for(42, streams::ARRIVALS);
        let mut a2 = rng_for(42, streams::ARRIVALS);
        let mut b = rng_for(42, streams::RUNTIMES);
        let xs1: Vec<u64> = (0..16).map(|_| a1.gen()).collect();
        let xs2: Vec<u64> = (0..16).map(|_| a2.gen()).collect();
        let ys: Vec<u64> = (0..16).map(|_| b.gen()).collect();
        assert_eq!(xs1, xs2, "same (root, stream) must reproduce");
        assert_ne!(xs1, ys, "different streams must differ");
    }

    #[test]
    fn different_roots_differ() {
        let mut a = rng_for(1, streams::NODE_IDS);
        let mut b = rng_for(2, streams::NODE_IDS);
        let xa: u64 = a.gen();
        let xb: u64 = b.gen();
        assert_ne!(xa, xb);
    }

    #[test]
    fn exp_sample_mean_is_close() {
        let mut rng = rng_for(7, 99);
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| sample_exp(&mut rng, 3.0)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.05, "empirical mean {mean}");
    }

    #[test]
    fn exp_sample_is_nonnegative_and_finite() {
        let mut rng = rng_for(8, 99);
        for _ in 0..10_000 {
            let x = sample_exp(&mut rng, 0.5);
            assert!(x.is_finite() && x >= 0.0);
        }
        assert_eq!(sample_exp(&mut rng, 0.0), 0.0);
    }

    #[test]
    fn normal_sample_moments() {
        let mut rng = rng_for(9, 99);
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| sample_normal(&mut rng, 10.0, 2.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.15, "var {var}");
    }

    #[test]
    fn truncated_normal_respects_floor() {
        let mut rng = rng_for(10, 99);
        for _ in 0..10_000 {
            let x = sample_truncated_normal(&mut rng, 0.0, 5.0, 1.0);
            assert!(x >= 1.0);
        }
    }

    #[test]
    fn unsplitmix_inverts_splitmix() {
        let edges = [0, 1, u64::MAX, 1 << 63, 0x9E37_79B9_7F4A_7C15];
        for x in edges
            .into_iter()
            .chain((0..10_000u64).map(|i| i.wrapping_mul(0x2545_F491_4F6C_DD1D)))
        {
            assert_eq!(unsplitmix64(splitmix64(x)), x, "{x:#x}");
            assert_eq!(splitmix64(unsplitmix64(x)), x, "{x:#x}");
        }
    }

    #[test]
    fn splitmix_is_a_bijection_spot_check() {
        // Distinct inputs should give distinct outputs (spot check a range).
        let outs: std::collections::HashSet<u64> = (0..10_000u64).map(splitmix64).collect();
        assert_eq!(outs.len(), 10_000);
    }
}
