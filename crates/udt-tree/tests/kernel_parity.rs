//! Parity suite for the score-kernel layer ([`udt_tree::kernel`]).
//!
//! Every build scores candidate batches with the batch kernel
//! ([`KernelKind::Simd`]); the per-candidate scalar formula
//! ([`KernelKind::Scalar`]) is the oracle it is checked against. The
//! contract:
//!
//! 1. **Same split**: over the same events, every distribution-based
//!    algorithm (UDT / UDT-BP / UDT-LP / UDT-GP / UDT-ES) under every
//!    measure picks the same attribute and the same split point under
//!    either kernel. The batch kernel's ≈1e-14 score jitter is absorbed
//!    by the split tie-break band
//!    ([`udt_tree::split::SplitChoice::is_improved_by`]) and its bound
//!    margin only ever prunes *less*, never differently.
//! 2. **Close scores**: batch scores stay within [`SIMD_SCORE_TOL`] of
//!    the scalar formula at every candidate position.
//!
//! The build environment is offline, so instead of `proptest` these use
//! a seeded ChaCha8 generator with explicit case loops; every case is
//! reproducible from the seed.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use udt_data::{Dataset, Tuple, UncertainValue};
use udt_prob::SampledPdf;
use udt_tree::events::AttributeEvents;
use udt_tree::fractional::FractionalTuple;
use udt_tree::split::SearchStats;
use udt_tree::{Algorithm, KernelKind, Measure, UdtConfig};

const CASES: usize = 12;

/// Agreement of the simd batch kernel with the scalar formula. The
/// polynomial log2 and the algebraically rearranged formulas stay within
/// ~1e-14 of libm on these workloads; the kernel unit tests pin 1e-12,
/// mirrored here.
const SIMD_SCORE_TOL: f64 = 1e-12;

/// The five distribution-based algorithms of §4.2 / §5.
const ALGORITHMS: [Algorithm; 5] = [
    Algorithm::Udt,
    Algorithm::UdtBp,
    Algorithm::UdtLp,
    Algorithm::UdtGp,
    Algorithm::UdtEs,
];

const MEASURES: [Measure; 3] = [Measure::Entropy, Measure::Gini, Measure::GainRatio];

/// Generates a small random uncertain dataset (numerical pdf columns).
fn random_dataset(rng: &mut ChaCha8Rng) -> Dataset {
    let k = rng.gen_range(2..4usize);
    let n_classes = rng.gen_range(2..5usize);
    let n = rng.gen_range(5..18usize);
    let mut ds = Dataset::numerical(k, n_classes);
    for _ in 0..n {
        let values: Vec<UncertainValue> = (0..k)
            .map(|_| {
                let s = rng.gen_range(1..10usize);
                let lo = rng.gen_range(-40.0..40.0);
                let width = rng.gen_range(0.1..15.0);
                let points: Vec<f64> = (0..s).map(|i| lo + width * i as f64 / s as f64).collect();
                let mass: Vec<f64> = (0..s).map(|_| rng.gen_range(0.01..1.0)).collect();
                UncertainValue::Numeric(SampledPdf::new(points, mass).expect("valid pdf"))
            })
            .collect();
        ds.push(Tuple::new(values, rng.gen_range(0..n_classes)))
            .expect("tuple matches schema");
    }
    ds
}

/// The root events of every numerical attribute, scored by `kernel`.
fn root_events(data: &Dataset, kernel: KernelKind) -> Vec<(usize, AttributeEvents)> {
    let tuples: Vec<FractionalTuple> = data
        .tuples()
        .iter()
        .map(FractionalTuple::from_tuple)
        .collect();
    (0..data.n_attributes())
        .filter_map(|j| {
            AttributeEvents::build(&tuples, j, data.n_classes()).map(|e| (j, e.scored_by(kernel)))
        })
        .collect()
}

/// Contract 1: at the root, the batch kernel and the scalar oracle pick
/// the same attribute and the same split point for all five algorithms
/// × three measures.
#[test]
fn simd_and_scalar_events_choose_the_same_root_split() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xC0DE);
    for case in 0..CASES {
        let data = random_dataset(&mut rng);
        let scalar = root_events(&data, KernelKind::Scalar);
        let simd = root_events(&data, KernelKind::Simd);
        for algorithm in ALGORITHMS {
            let search = UdtConfig::new(algorithm).split_search();
            for measure in MEASURES {
                let want = search.find_best(&scalar, measure, &mut SearchStats::default());
                let got = search.find_best(&simd, measure, &mut SearchStats::default());
                let key =
                    |c: Option<udt_tree::SplitChoice>| c.map(|c| (c.attribute, c.split.to_bits()));
                assert_eq!(
                    key(got),
                    key(want),
                    "case {case}, {algorithm:?}, {measure:?}: the kernels must choose the same split"
                );
            }
        }
    }
}

/// Contract 2: batch scores stay within the documented tolerance of the
/// scalar formula at every candidate position.
#[test]
fn batch_scores_agree_within_documented_tolerances() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x5C02E);
    for case in 0..CASES {
        let data = random_dataset(&mut rng);
        let scalar = root_events(&data, KernelKind::Scalar);
        let simd = root_events(&data, KernelKind::Simd);
        for ((attribute, base), (_, ev)) in scalar.iter().zip(&simd) {
            let n = base.n_positions();
            for measure in MEASURES {
                let mut reference = Vec::new();
                base.score_range_into(0..n - 1, measure, &mut reference);
                let mut scores = Vec::new();
                ev.score_range_into(0..n - 1, measure, &mut scores);
                assert_eq!(scores.len(), reference.len());
                for (i, (&got, &want)) in scores.iter().zip(&reference).enumerate() {
                    if !want.is_finite() || !got.is_finite() {
                        assert!(
                            got.is_finite() == want.is_finite(),
                            "case {case}, attr {attribute}, {measure:?}, position {i}: \
                             {got} vs {want}"
                        );
                        continue;
                    }
                    assert!(
                        (got - want).abs() <= SIMD_SCORE_TOL * want.abs().max(1.0),
                        "case {case}, attr {attribute}, {measure:?}, position {i}: \
                         {got} vs {want}"
                    );
                }
            }
        }
    }
}
