//! Edge-case coverage for the score-kernel layer, exercised through the
//! public [`AttributeEvents`] batch entry points so every case runs
//! under both the scalar oracle and the batch kernel:
//!
//! - empty-side candidates (the `WEIGHT_EPSILON` mass gate) score `+∞`;
//! - single-class columns score exactly zero dispersion everywhere;
//! - every SIMD tail-lane shape (range lengths 1..=9 at every offset)
//!   agrees with the scalar kernel;
//! - `clamp_residue` absorbs tiny-negative floating drift in the
//!   counter-difference entry points instead of producing `NaN`s;
//! - the gain-ratio `split_info ≤ 0` gate yields `+∞`, never `NaN`,
//!   under extreme mass imbalance.

use udt_tree::events::AttributeEvents;
use udt_tree::{ClassCounts, KernelKind, Measure};

const MEASURES: [Measure; 3] = [Measure::Entropy, Measure::Gini, Measure::GainRatio];

/// Both kernels, the scalar oracle first.
const KERNELS: [KernelKind; 2] = [KernelKind::Scalar, KernelKind::Simd];

/// Builds an events structure from explicit cumulative rows, scored by
/// `kernel`.
fn events(xs: &[f64], rows: &[&[f64]], kernel: KernelKind) -> AttributeEvents {
    let n_classes = rows[0].len();
    let cum: Vec<f64> = rows.iter().flat_map(|r| r.iter().copied()).collect();
    AttributeEvents::from_parts(xs.to_vec(), cum, n_classes, vec![0, xs.len() - 1])
        .expect("at least two positions")
        .scored_by(kernel)
}

/// Scores the full candidate range of `ev` into a fresh vector.
fn scores(ev: &AttributeEvents, measure: Measure) -> Vec<f64> {
    let mut out = Vec::new();
    ev.score_range_into(0..ev.n_positions() - 1, measure, &mut out);
    out
}

#[test]
fn empty_side_candidates_score_infinite() {
    // Candidate 0 has no left mass at all, candidate 1 carries less than
    // WEIGHT_EPSILON on the left, and candidate 3 leaves the right side
    // empty; candidate 2 is a regular split. (An all-zero leading row
    // cannot come out of the event pipeline, which mass-gates events,
    // but the scoring layer must still gate it — it reaches the kernels
    // through `from_parts` and through sub-epsilon partition residues.)
    let xs = [0.0, 1.0, 2.0, 3.0, 4.0];
    let rows: [&[f64]; 5] = [
        &[0.0, 0.0],
        &[5e-10, 0.0],
        &[1.0, 0.0],
        &[1.0, 2.0],
        &[1.0, 2.0],
    ];
    for kernel in KERNELS {
        let ev = events(&xs, &rows, kernel);
        for measure in MEASURES {
            let got = scores(&ev, measure);
            assert_eq!(
                got[0],
                f64::INFINITY,
                "{kernel:?}/{measure:?}: empty left side"
            );
            assert_eq!(
                got[1],
                f64::INFINITY,
                "{kernel:?}/{measure:?}: sub-epsilon left side"
            );
            assert!(got[2].is_finite(), "{kernel:?}/{measure:?}");
            assert_eq!(
                got[3],
                f64::INFINITY,
                "{kernel:?}/{measure:?}: empty right side"
            );
            // The batch and single-candidate paths agree on the gates.
            for (i, &s) in got.iter().enumerate() {
                let single = ev.score_at(i, measure);
                assert_eq!(
                    s.is_finite(),
                    single.is_finite(),
                    "{kernel:?}/{measure:?}, candidate {i}"
                );
            }
        }
    }
}

#[test]
fn single_class_columns_score_zero_everywhere() {
    // All mass in class 1 of 3: both sides of every candidate are pure,
    // so entropy and Gini are exactly 0.0 and gain ratio divides a zero
    // gain by a positive split_info. The scalar kernel is exactly zero;
    // the simd kernel's algebraic rearrangement leaves at most its
    // documented 1e-12 jitter around it.
    let xs = [0.0, 1.0, 2.0, 3.0];
    let rows: [&[f64]; 4] = [
        &[0.0, 1.0, 0.0],
        &[0.0, 2.0, 0.0],
        &[0.0, 3.5, 0.0],
        &[0.0, 5.0, 0.0],
    ];
    for kernel in KERNELS {
        let ev = events(&xs, &rows, kernel);
        for measure in MEASURES {
            for (i, s) in scores(&ev, measure).into_iter().enumerate() {
                match kernel {
                    KernelKind::Scalar => assert_eq!(s, 0.0, "{measure:?}, candidate {i}"),
                    KernelKind::Simd => {
                        assert!(s.abs() <= 1e-12, "{measure:?}, candidate {i}: {s}")
                    }
                }
            }
        }
    }
}

#[test]
fn every_tail_lane_shape_matches_the_scalar_kernel() {
    // 13 positions → 12 candidates, scored through every sub-range of
    // length 1..=9 at every offset: covers full AVX2 blocks (4 rows),
    // SSE2 pairs, and 1–3-row tails.
    let n = 13usize;
    let k = 3usize;
    let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
    let mut running = [0.0f64; 3];
    let rows_data: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            running[i % k] += 0.25 + 0.25 * ((i * 7 + 3) % 5) as f64;
            running.to_vec()
        })
        .collect();
    let rows: Vec<&[f64]> = rows_data.iter().map(Vec::as_slice).collect();
    let reference = events(&xs, &rows, KernelKind::Scalar);
    let ev = events(&xs, &rows, KernelKind::Simd);
    for measure in MEASURES {
        for len in 1..=9usize {
            for start in 0..=(n - 1 - len) {
                let mut want = Vec::new();
                let mut got = Vec::new();
                reference.score_range_into(start..start + len, measure, &mut want);
                ev.score_range_into(start..start + len, measure, &mut got);
                for (slot, (&g, &w)) in got.iter().zip(&want).enumerate() {
                    assert!(
                        (g - w).abs() <= 1e-9 || (g == w),
                        "{measure:?}, range {start}..{}, slot {slot}: {g} vs {w}",
                        start + len
                    );
                }
            }
        }
    }
}

#[test]
fn clamp_residue_absorbs_tiny_negative_drift() {
    // The cumulative matrices hold monotone rows by construction,
    // but the counter-difference entry points (`split_score_cum`,
    // `interval_lower_bound_cum`) accept rows reconstructed from
    // independently accumulated sums, where `total − left` can drift a
    // few ulps negative. The clamp must turn that into an empty class,
    // not a NaN from `log` of a negative ratio.
    let left = [0.3 + 2e-16, 0.7];
    let total = [0.3, 1.4];
    for measure in MEASURES {
        let drifted = measure.split_score_cum(&left, &total);
        assert!(!drifted.is_nan(), "{measure:?}: {drifted}");
        let exact = measure.split_score_cum(&[0.3, 0.7], &total);
        assert!(
            (drifted - exact).abs() < 1e-9,
            "{measure:?}: {drifted} vs {exact}"
        );
    }
    // Same drift between an interval's two end-point rows.
    for measure in [Measure::Entropy, Measure::Gini] {
        let bound = measure.interval_lower_bound_cum(&[0.3 + 2e-16, 0.7], &[0.3, 0.9], &total);
        assert!(!bound.is_nan(), "{measure:?}: {bound}");
    }
}

#[test]
fn gain_ratio_split_info_gate_yields_infinity_not_nan() {
    // Multi-way splits with every empty part but one have
    // `split_info == 0` exactly; the gate must answer +∞.
    let mut full = ClassCounts::new(2);
    full.add(0, 3.0);
    full.add(1, 2.0);
    let empty = ClassCounts::new(2);
    let gated = Measure::GainRatio.multiway_score(&[full, empty]);
    assert_eq!(gated, f64::INFINITY);

    // Binary candidates under extreme imbalance: nl/n rounds to exactly
    // 1.0 while the right side still clears the mass gate, driving
    // split_info within a few ulps of zero. Whatever side of zero each
    // kernel's arithmetic lands on, the answer must be +∞ or finite —
    // never NaN — under either kernel.
    let xs = [0.0, 1.0, 2.0];
    let rows: [&[f64]; 3] = [&[1e17, 0.0], &[1e17, 0.5], &[1e17, 1.0]];
    for kernel in KERNELS {
        let ev = events(&xs, &rows, kernel);
        for (i, s) in scores(&ev, Measure::GainRatio).into_iter().enumerate() {
            assert!(!s.is_nan(), "{kernel:?}: candidate {i} produced NaN");
        }
    }
}
