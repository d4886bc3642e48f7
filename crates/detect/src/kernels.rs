//! Shared kernel-optimization primitives for the detector hot paths.
//!
//! The sliding-window scans dominate the whole simulator (BENCH_pipeline:
//! C4 alone was ~90 ms/frame before this layer). Two constant-factor sinks
//! recur across all four detectors:
//!
//! 1. **Redundant per-window recomputation** — every pixel of a census
//!    level was re-fetched as `f32` and re-cast/clamped to a code by each
//!    of the ~(W/stride)·(H/stride) overlapping windows covering it.
//!    [`CensusCodePlane`] materializes the cast once per level.
//! 2. **Per-window allocations** — HOG descriptors, census histograms and
//!    NMS buffers were freshly `Vec`-allocated in the innermost loops.
//!    The HOG-family scans now score straight from the block grid and NMS
//!    works in place, so only two buffers remain: a window row's scores
//!    and the ACF lookup offsets. [`DetectScratch`] owns them; detectors
//!    check one out of the [`FrameFeatures`](crate::FrameFeatures) pool
//!    per `detect` call and reuse it across every row and scale.
//!
//! Everything here is **output-preserving by construction**: the same
//! integer codes, the same `f64` values in the same order, so scores,
//! boxes, and `ops` counters stay bit-identical to the unoptimized
//! reference paths (enforced by `tests/kernel_equivalence.rs`).

use eecs_vision::image::GrayImage;

use crate::c4_detector::CENSUS_BINS as CODE_BINS;

/// A census level as a dense `u8` code plane.
///
/// `census_transform` stores codes as `f32` pixels in a [`GrayImage`]
/// (exact integers in `[0, 255]`). Scoring reads them as
/// `(pixel as usize).min(255)`; this plane applies that cast/clamp once
/// per pixel instead of once per covering window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CensusCodePlane {
    width: usize,
    height: usize,
    codes: Vec<u8>,
}

impl CensusCodePlane {
    /// Casts a census-transformed level into codes. Each code equals
    /// `(census.get(x, y) as usize).min(255)` — the exact expression the
    /// reference scoring path evaluates per window pixel.
    pub fn from_census(census: &GrayImage) -> CensusCodePlane {
        let codes = census
            .as_slice()
            .iter()
            .map(|&v| (v as usize).min(CODE_BINS - 1) as u8)
            .collect();
        CensusCodePlane {
            width: census.width(),
            height: census.height(),
            codes,
        }
    }

    /// Plane width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Plane height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Code at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are outside the plane.
    #[inline]
    pub fn code(&self, x: usize, y: usize) -> usize {
        self.codes[y * self.width + x] as usize
    }

    /// The codes of row `y` from column `x0`, `len` wide.
    ///
    /// # Panics
    ///
    /// Panics if the span exceeds the plane.
    #[inline]
    pub fn row(&self, x0: usize, y: usize, len: usize) -> &[u8] {
        let start = y * self.width + x0;
        &self.codes[start..start + len]
    }

    /// Raw row-major code slice.
    pub fn as_slice(&self) -> &[u8] {
        &self.codes
    }
}

/// Reusable scratch buffers for one detector scan.
///
/// Checked out of the per-frame pool via
/// [`FrameFeatures::with_scratch`](crate::FrameFeatures::with_scratch);
/// buffers keep their capacity between windows, scales, detectors, and
/// frames, so the steady-state hot loop performs no heap allocation.
/// Contents are transient — every user clears (or overwrites) a buffer
/// before reading it.
#[derive(Debug, Default)]
pub struct DetectScratch {
    /// One window row's HOG/LSVM root scores
    /// (`HogBlockGrid::score_row_into`).
    pub row_scores: Vec<f64>,
    /// Per-level flattened lookup offsets (ACF stump positions).
    pub offsets: Vec<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn code_plane_matches_reference_cast() {
        // Include out-of-range and fractional values: the plane must apply
        // exactly the `(v as usize).min(255)` cast the scorer used.
        let census = GrayImage::from_fn(7, 5, |x, y| match (x + y) % 4 {
            0 => (x * 37 + y) as f32,
            1 => 255.9,
            2 => 300.0,
            _ => 12.5,
        });
        let plane = CensusCodePlane::from_census(&census);
        assert_eq!(plane.width(), 7);
        assert_eq!(plane.height(), 5);
        for y in 0..5 {
            for x in 0..7 {
                let want = (census.get(x, y) as usize).min(255);
                assert_eq!(plane.code(x, y), want, "at ({x},{y})");
            }
        }
        let row = plane.row(2, 3, 4);
        assert_eq!(row.len(), 4);
        for (i, &c) in row.iter().enumerate() {
            assert_eq!(c as usize, plane.code(2 + i, 3));
        }
    }

    #[test]
    fn scratch_buffers_keep_capacity() {
        let mut s = DetectScratch::default();
        s.row_scores.extend([1.0; 64]);
        let cap = s.row_scores.capacity();
        s.row_scores.clear();
        assert!(s.row_scores.capacity() >= cap);
    }
}
