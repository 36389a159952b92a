//! Workload inputs: the Segment-shaped data set with Gaussian
//! uncertainty, its ten cross-validation folds, and a request-order RNG.

use udt_data::repository::by_name;
use udt_data::split::{k_folds, TrainTest};
use udt_data::uncertainty::{inject_uncertainty, UncertaintySpec};

/// Share of the published Segment size (2 310 tuples) generated.
pub const SCALE: f64 = 0.5;
/// Pdf width as a share of each attribute's range (`w`).
pub const WIDTH: f64 = 0.10;
/// Sample points per pdf (`s`).
pub const SAMPLES: usize = 64;
/// Cross-validation folds.
pub const FOLDS: usize = 10;

/// The folds of one seed's data set.
pub struct Inputs {
    pub folds: Vec<TrainTest>,
    /// Pdf sample points in the whole data set.
    pub pdf_points: usize,
}

/// Builds the inputs for `seed`: the repository's Segment data set at
/// [`SCALE`] (its generator seed fixed by its spec) with Gaussian
/// uncertainty, split into folds by a `seed`-shuffle.
///
/// The seed does not reach the generator: the generator's seed sets the
/// class layout and so the size of the trees, and across generator seeds
/// that moved build time by more than any bound the benchmark could hold.
/// A different seed still gives every fold other training tuples, and
/// every caller another request order.
pub fn generate(seed: u64) -> Result<Inputs, String> {
    let spec = by_name("Segment").ok_or("the repository has no Segment spec")?;
    let point = spec.generate(SCALE).map_err(|e| e.to_string())?;
    let data = inject_uncertainty(
        &point,
        &UncertaintySpec::baseline().with_w(WIDTH).with_s(SAMPLES),
    )
    .map_err(|e| e.to_string())?;
    let folds = k_folds(&data, FOLDS, seed).map_err(|e| e.to_string())?;
    Ok(Inputs {
        folds,
        pdf_points: data.total_samples(),
    })
}

/// SplitMix64: a small seeded generator for request order.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniformly shuffled `0..n` (Fisher–Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            p.swap(i, j);
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutation_is_seeded_and_complete() {
        let a = Rng::new(7).permutation(50);
        assert_eq!(a, Rng::new(7).permutation(50));
        assert_ne!(a, Rng::new(8).permutation(50));
        let mut sorted = a.clone();
        sorted.sort();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}
