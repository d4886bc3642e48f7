//! Shared kernel-optimization primitives for the detector hot paths.
//!
//! The sliding-window scans dominate the whole simulator. Three
//! constant-factor sinks recur across all four detectors:
//!
//! 1. **Redundant per-window recomputation** — every pixel of a census
//!    level was re-fetched as `f32` and re-cast/clamped to a code by each
//!    of the ~(W/stride)·(H/stride) overlapping windows covering it.
//!    [`CensusCodePlane::compute`] census-transforms a level straight to
//!    `u8` codes in one pass, so the C4 scan reads bytes.
//! 2. **Per-window allocations** — HOG descriptors, census histograms and
//!    NMS buffers were freshly `Vec`-allocated in the innermost loops.
//!    The HOG-family scans now score straight from the block grid (stored
//!    lane-major, so one pass adds a group of terms to a whole window row)
//!    and NMS works in place.
//! 3. **Per-level allocations** — each pyramid level's resized image,
//!    HOG cells and blocks, ACF channels or census codes. A detector
//!    builds, scans and releases one level at a time, into the buffers
//!    of one [`DetectScratch`] checked out of the
//!    [`FrameFeatures`](crate::FrameFeatures) pool per `detect` call:
//!    they grow to the largest level once and are overwritten at every
//!    other, so no more than one level's features is ever alive.
//!
//! Everything here is **output-preserving by construction**: the same
//! integer codes, the same `f64` values in the same order, so scores,
//! boxes, and `ops` counters stay bit-identical to the unoptimized
//! reference paths (enforced by `tests/kernel_equivalence.rs`).

use eecs_vision::channels::AcfChannels;
use eecs_vision::hog::{HogBlockGrid, HogCellGrid};
use eecs_vision::image::{GrayImage, RgbImage};

use crate::c4_detector::{CENSUS_BINS as CODE_BINS, CENSUS_MARGIN};

/// A census level as a dense `u8` code plane.
///
/// `census_transform` stores codes as `f32` pixels in a [`GrayImage`]
/// (exact integers in `[0, 255]`) that the reference scorer reads as
/// `(pixel as usize).min(255)`. [`CensusCodePlane::compute`] produces
/// those codes directly from the level; [`CensusCodePlane::from_census`]
/// casts an already-transformed image and serves as its oracle.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
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

    /// The 8-neighbour census transform of `level` as codes, in one pass:
    /// equal to `from_census(&census_transform(level))` code for code.
    ///
    /// Each code sets bit `b` when neighbour `b` (row-major over the 3×3
    /// neighbourhood, centre skipped) satisfies `n < c - CENSUS_MARGIN`,
    /// the same `f32` test in the same bit order. Border pixels clamp
    /// their neighbours to the edge; interior pixels read them directly.
    pub fn compute(level: &GrayImage) -> CensusCodePlane {
        let mut plane = CensusCodePlane::default();
        plane.compute_into(level);
        plane
    }

    /// [`CensusCodePlane::compute`] into this plane, reusing its
    /// allocation: every code is rewritten by the same test.
    pub fn compute_into(&mut self, level: &GrayImage) {
        let (w, h) = (level.width(), level.height());
        let codes = &mut self.codes;
        codes.clear();
        codes.reserve_exact(w * h);
        codes.resize(w * h, 0);
        if w > 0 {
            let px = level.as_slice();
            let row = |y: usize| &px[y * w..(y + 1) * w];
            for (y, out) in codes.chunks_exact_mut(w).enumerate() {
                let (up, mid, down) = (row(y.saturating_sub(1)), row(y), row((y + 1).min(h - 1)));
                for x in [0, w - 1] {
                    let (l, r) = (x.saturating_sub(1), (x + 1).min(w - 1));
                    out[x] = census_code(
                        mid[x],
                        [
                            up[l], up[x], up[r], mid[l], mid[r], down[l], down[x], down[r],
                        ],
                    );
                }
                if w > 2 {
                    let n = w - 2;
                    let (ul, uc, ur) = (&up[..n], &up[1..=n], &up[2..]);
                    let (ml, mc, mr) = (&mid[..n], &mid[1..=n], &mid[2..]);
                    let (dl, dc, dr) = (&down[..n], &down[1..=n], &down[2..]);
                    for (i, o) in out[1..=n].iter_mut().enumerate() {
                        *o = census_code(
                            mc[i],
                            [ul[i], uc[i], ur[i], ml[i], mr[i], dl[i], dc[i], dr[i]],
                        );
                    }
                }
            }
        }
        self.width = w;
        self.height = h;
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

/// One census code: bit `b` is set when `neighbours[b] < c - CENSUS_MARGIN`.
#[inline(always)]
fn census_code(c: f32, neighbours: [f32; 8]) -> u8 {
    let t = c - CENSUS_MARGIN;
    let mut code = 0u8;
    for (bit, n) in neighbours.into_iter().enumerate() {
        code |= u8::from(n < t) << bit;
    }
    code
}

/// Reusable scratch buffers for one detector scan.
///
/// Checked out of the per-frame pool via
/// [`FrameFeatures::with_scratch`](crate::FrameFeatures::with_scratch);
/// buffers keep their capacity between windows, levels, detectors and
/// (through [`FrameFeatures::recycle`](crate::FrameFeatures::recycle))
/// frames, so the steady-state scan performs no large allocation.
/// Contents are transient — every user overwrites a buffer before
/// reading it, through the `*_into` kernels.
#[derive(Debug, Default)]
pub struct DetectScratch {
    /// One window row's HOG/LSVM root scores: `HogBlockGrid::score_row_into`
    /// sizes it to the row's window count and adds each group of
    /// descriptor terms to every entry in place.
    pub row_scores: Vec<f64>,
    /// Per-level flattened lookup offsets (ACF stump positions).
    pub offsets: Vec<usize>,
    /// The current grayscale level: HOG's and LSVM's resized frame, C4's
    /// resized internal image.
    pub level: GrayImage,
    /// C4's frame at its fixed internal resolution.
    pub internal: GrayImage,
    /// ACF's current RGB level.
    pub rgb_level: RgbImage,
    /// The current level's HOG cell histograms.
    pub cells: HogCellGrid,
    /// The current level's normalized HOG blocks.
    pub blocks: HogBlockGrid,
    /// The current level's aggregated ACF channels.
    pub channels: AcfChannels,
    /// The current level's census codes.
    pub codes: CensusCodePlane,
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
