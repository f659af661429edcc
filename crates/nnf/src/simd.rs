//! Explicit SIMD lane backends for the evaluation kernels.
//!
//! The lane-batched kernels of [`crate::kernel`] give every tape slot a
//! `[f64; LANES]` value plane (LANES = 8) and answer eight queries per
//! sweep. How the eight lanes of one slot are multiplied and added is an
//! *execution-strategy* choice, never a numerics choice: every backend
//! performs the same IEEE-754 operations, per lane, in the same order, so
//! answers are bit-identical across backends (and to the scalar
//! [`crate::queries`] entry points). That contract is what lets the
//! runtime pick the widest vector unit the CPU offers without anyone
//! downstream noticing.
//!
//! Backends:
//!
//! * [`LaneBackend::Scalar`] — fixed-length `[f64; 8]` array arithmetic,
//!   always compiled, always supported. This is the bit-identical
//!   reference path (the compiler typically auto-vectorizes it to the
//!   *baseline* target feature set, e.g. SSE2 on `x86_64`).
//! * [`LaneBackend::Avx2`] — two 256-bit `__m256d` registers per value
//!   plane, via stable `core::arch::x86_64` intrinsics inside
//!   `#[target_feature(enable = "avx2")]` sweeps.
//! * [`LaneBackend::Avx512`] — one 512-bit `__m512d` register holds the
//!   whole plane; an and-gate's per-child update is a single `vmulpd`.
//! * `LaneBackend::Neon` — four 128-bit `float64x2_t` registers on
//!   `aarch64` (NEON is baseline there, but detection keeps the dispatch
//!   uniform; the variant only exists on that target).
//!
//! The vector paths are gated behind the `simd` cargo feature (default
//! on); `--no-default-features` compiles the scalar path only. At runtime
//! [`LaneBackend::detect`] picks the widest supported backend once per
//! process; tests and benchmarks can force any supported backend per tape
//! with `EvalTape::set_lane_backend` — forcing [`LaneBackend::Scalar`] is
//! the "fallback stays exercised on SIMD hosts" switch.

use std::sync::OnceLock;

/// A vector instruction set the lane-batched kernels can sweep with. See
/// the module docs for the bit-identity contract between backends.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LaneBackend {
    /// `[f64; 8]` array arithmetic — always compiled, always supported,
    /// and the reference the vector backends must bit-match.
    Scalar,
    /// 2 × 256-bit AVX2 registers per value plane (`x86_64`).
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    Avx2,
    /// 1 × 512-bit AVX-512F register per value plane (`x86_64`).
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    Avx512,
    /// 4 × 128-bit NEON registers per value plane (`aarch64`).
    #[cfg(all(feature = "simd", target_arch = "aarch64"))]
    Neon,
}

impl LaneBackend {
    /// The widest backend this CPU supports, detected once per process.
    pub fn detect() -> LaneBackend {
        static BEST: OnceLock<LaneBackend> = OnceLock::new();
        *BEST.get_or_init(Self::detect_uncached)
    }

    fn detect_uncached() -> LaneBackend {
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                return LaneBackend::Avx512;
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                return LaneBackend::Avx2;
            }
        }
        #[cfg(all(feature = "simd", target_arch = "aarch64"))]
        {
            if std::arch::is_aarch64_feature_detected!("neon") {
                return LaneBackend::Neon;
            }
        }
        LaneBackend::Scalar
    }

    /// Whether this CPU can execute sweeps on this backend.
    pub fn is_supported(self) -> bool {
        match self {
            LaneBackend::Scalar => true,
            #[cfg(all(feature = "simd", target_arch = "x86_64"))]
            LaneBackend::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(all(feature = "simd", target_arch = "x86_64"))]
            LaneBackend::Avx512 => std::arch::is_x86_feature_detected!("avx512f"),
            #[cfg(all(feature = "simd", target_arch = "aarch64"))]
            LaneBackend::Neon => std::arch::is_aarch64_feature_detected!("neon"),
        }
    }

    /// Every backend this CPU supports, [`LaneBackend::Scalar`] first —
    /// the iteration set of the cross-backend identity tests.
    pub fn all_supported() -> Vec<LaneBackend> {
        [
            LaneBackend::Scalar,
            #[cfg(all(feature = "simd", target_arch = "x86_64"))]
            LaneBackend::Avx2,
            #[cfg(all(feature = "simd", target_arch = "x86_64"))]
            LaneBackend::Avx512,
            #[cfg(all(feature = "simd", target_arch = "aarch64"))]
            LaneBackend::Neon,
        ]
        .into_iter()
        .filter(|b| b.is_supported())
        .collect()
    }

    /// A stable one-token name for logs and benchmark JSON.
    pub fn name(self) -> &'static str {
        match self {
            LaneBackend::Scalar => "scalar",
            #[cfg(all(feature = "simd", target_arch = "x86_64"))]
            LaneBackend::Avx2 => "avx2",
            #[cfg(all(feature = "simd", target_arch = "x86_64"))]
            LaneBackend::Avx512 => "avx512",
            #[cfg(all(feature = "simd", target_arch = "aarch64"))]
            LaneBackend::Neon => "neon",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_is_always_supported_and_listed_first() {
        assert!(LaneBackend::Scalar.is_supported());
        let all = LaneBackend::all_supported();
        assert_eq!(all[0], LaneBackend::Scalar);
        assert!(all.iter().all(|b| b.is_supported()));
    }

    /// Without the `simd` feature only the scalar backend exists, whatever
    /// the CPU offers: this is what the feature-off build must test.
    #[cfg(not(feature = "simd"))]
    #[test]
    fn without_the_simd_feature_only_scalar_is_supported() {
        assert_eq!(LaneBackend::all_supported(), [LaneBackend::Scalar]);
        assert_eq!(LaneBackend::detect(), LaneBackend::Scalar);
    }

    #[test]
    fn detection_is_stable_and_supported() {
        let best = LaneBackend::detect();
        assert_eq!(best, LaneBackend::detect());
        assert!(best.is_supported());
        assert!(LaneBackend::all_supported().contains(&best));
    }

    #[test]
    fn names_are_unique() {
        let all = LaneBackend::all_supported();
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                assert_ne!(a.name(), b.name());
            }
        }
    }
}
