//! The score-kernel layer: how candidate splits are *numerically* scored.
//!
//! The split-search strategies of [`crate::split`] are written against
//! [`crate::events::AttributeEvents`], which scores candidates either one
//! at a time ([`crate::events::AttributeEvents::score_at`]) or in
//! contiguous batches
//! ([`crate::events::AttributeEvents::score_range_into`]). Scores are
//! always eq. 1 over the `f64` fractional class counts of the
//! cumulative matrix; [`KernelKind`] only decides how a batch is
//! evaluated:
//!
//! * **simd** — the production scorer, used by every tree build
//!   ([`crate::UdtConfig::profile`]). It scores whole batches of
//!   contiguous candidate rows per call with `core::arch` x86_64
//!   SSE2/AVX2 intrinsics, on the backend detected at runtime
//!   ([`detected_backend`]: AVX2 → SSE2 → a portable unrolled loop on
//!   other targets). It hoists the per-column invariants — the total row
//!   and the total mass — out of the per-candidate loop and evaluates
//!   `x·log2(x)` with a lane-exact polynomial, so every backend produces
//!   **bit-identical** lanes and the scores agree with the scalar
//!   formula to ~1e-13.
//! * **scalar** — the per-candidate [`crate::Measure::split_score_cum`]
//!   formula. It is the test oracle the batch kernel is checked
//!   against, and it scores the short batches (fewer than eight
//!   candidates) that pruned searches leave behind, where the vector
//!   set-up costs more than it saves. It is selected only at the events
//!   level ([`crate::events::AttributeEvents::scored_by`],
//!   [`crate::columns::events_from_column_with`]).
//!
//! # Parity contract
//!
//! Both kernels choose the **same split**: the batch kernel's score
//! jitter (~1e-14) is absorbed by the deterministic 1e-12 tie-break band
//! of [`crate::split::SplitChoice::is_improved_by`], and interval lower
//! bounds stay on the exact scalar formula with a 1e-12 safety margin,
//! so pruning remains safe against jittered batch scores. The
//! `kernel_parity` integration suite checks this at the root of seeded
//! datasets across all five distribution-based algorithms × all three
//! measures.

pub(crate) mod simd;

/// Which arithmetic kernel scores candidate splits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelKind {
    /// The per-candidate scalar formula: the test oracle and the
    /// short-batch path.
    Scalar,
    /// The batch kernel: vectorized per-class accumulation over
    /// contiguous candidate rows (AVX2/SSE2 on x86_64, portable
    /// otherwise). The production scorer.
    Simd,
}

impl KernelKind {
    /// The kernel every tree build scores with.
    pub const PRODUCTION: KernelKind = KernelKind::Simd;
}

/// The SIMD instruction set the simd kernel dispatches to on this host,
/// resolved once per process. Every backend computes bit-identical
/// scores; the choice is purely about speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdBackend {
    /// 4-lane `f64` AVX2 path (x86_64, runtime-detected).
    Avx2,
    /// 2-lane `f64` SSE2 path (x86_64 baseline).
    Sse2,
    /// Unrolled scalar path with the same lane-exact arithmetic (non-x86
    /// targets, and the tail lanes of every batch).
    Portable,
}

impl SimdBackend {
    /// Lower-case name for reports and the bench host header.
    pub fn name(&self) -> &'static str {
        match self {
            SimdBackend::Avx2 => "avx2",
            SimdBackend::Sse2 => "sse2",
            SimdBackend::Portable => "portable",
        }
    }
}

/// The backend the simd kernel uses on this host (cached after the first
/// call).
pub fn detected_backend() -> SimdBackend {
    static BACKEND: std::sync::OnceLock<SimdBackend> = std::sync::OnceLock::new();
    *BACKEND.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                SimdBackend::Avx2
            } else {
                SimdBackend::Sse2
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            SimdBackend::Portable
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_detection_is_stable_and_named() {
        let b = detected_backend();
        assert_eq!(b, detected_backend());
        assert!(["avx2", "sse2", "portable"].contains(&b.name()));
        #[cfg(not(target_arch = "x86_64"))]
        assert_eq!(b, SimdBackend::Portable);
    }
}
