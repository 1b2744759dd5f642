//! Deterministic weight initializers.
//!
//! All randomness in the workspace flows through caller-provided RNGs
//! (seeded `SplitRng` in practice) so experiments reproduce bit-for-bit.

use scnn_rng::Rng;

use crate::Tensor;

/// He/Kaiming-normal initialization: `N(0, sqrt(2 / fan_in))`, the standard
/// choice for ReLU networks (used for convolution and linear weights).
pub fn he_normal(rng: &mut impl Rng, dims: &[usize], fan_in: usize) -> Tensor {
    let std = (2.0 / fan_in as f32).sqrt();
    gaussian(rng, dims, std)
}

/// Uniform initialization on `[lo, hi)`.
pub fn uniform(rng: &mut impl Rng, dims: &[usize], lo: f32, hi: f32) -> Tensor {
    let n: usize = dims.iter().product();
    let data = (0..n).map(|_| rng.gen_range(lo..hi)).collect();
    Tensor::from_vec(data, dims)
}

fn gaussian(rng: &mut impl Rng, dims: &[usize], std: f32) -> Tensor {
    let n: usize = dims.iter().product();
    // Box-Muller transform; avoids a rand_distr dependency.
    let mut data = Vec::with_capacity(n);
    while data.len() < n {
        let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
        let u2: f32 = rng.gen_range(0.0..1.0);
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f32::consts::PI * u2;
        data.push(r * theta.cos() * std);
        if data.len() < n {
            data.push(r * theta.sin() * std);
        }
    }
    Tensor::from_vec(data, dims)
}

#[cfg(test)]
mod tests {
    use super::*;
    use scnn_rng::SplitRng;

    #[test]
    fn he_normal_has_expected_scale() {
        let mut rng = SplitRng::seed_from_u64(7);
        let t = he_normal(&mut rng, &[64, 64], 64);
        let mean = t.mean();
        let var = t.map(|v| (v - mean) * (v - mean)).mean();
        let expected = 2.0 / 64.0;
        assert!(mean.abs() < 0.02, "mean {mean} too far from 0");
        assert!(
            (var - expected).abs() / expected < 0.2,
            "variance {var} too far from {expected}"
        );
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut rng = SplitRng::seed_from_u64(3);
        let t = uniform(&mut rng, &[1000], -0.5, 0.25);
        assert!(t.as_slice().iter().all(|&v| (-0.5..0.25).contains(&v)));
    }

    #[test]
    fn deterministic_given_seed() {
        let mk = || {
            let mut rng = SplitRng::seed_from_u64(42);
            he_normal(&mut rng, &[3, 3], 9)
        };
        assert_eq!(mk(), mk());
    }
}
