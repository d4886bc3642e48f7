//! Histograms of oriented gradients (Dalal–Triggs).
//!
//! Section V-A of the paper uses a 3780-dimension HOG descriptor per
//! detection window (64×128 window, 8×8 cells, 2×2-cell blocks, 9 bins).
//! This module reproduces that layout and additionally exposes a pooled
//! variant used as part of the per-frame video-comparison feature.

use crate::gradient::binned_gradient_rows;
use crate::image::GrayImage;
use crate::{Result, VisionError};

/// HOG layout parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HogConfig {
    /// Cell side in pixels.
    pub cell_size: usize,
    /// Block side in cells (blocks overlap with stride of one cell).
    pub block_cells: usize,
    /// Number of unsigned orientation bins.
    pub bins: usize,
}

impl Default for HogConfig {
    /// The Dalal–Triggs parameters used in the paper.
    fn default() -> Self {
        HogConfig {
            cell_size: 8,
            block_cells: 2,
            bins: 9,
        }
    }
}

impl HogConfig {
    /// Descriptor length for a `w × h` pixel window.
    ///
    /// Returns `None` when the window does not contain at least one block.
    pub fn descriptor_len(&self, w: usize, h: usize) -> Option<usize> {
        let cx = w / self.cell_size;
        let cy = h / self.cell_size;
        if cx < self.block_cells || cy < self.block_cells {
            return None;
        }
        let bx = cx - self.block_cells + 1;
        let by = cy - self.block_cells + 1;
        Some(bx * by * self.block_cells * self.block_cells * self.bins)
    }
}

/// Per-cell orientation histograms over a full image, from which window
/// descriptors are assembled in O(window size in cells).
///
/// Computing the grid once per frame and slicing it per window is what makes
/// sliding-window HOG detection tractable; the paper's OpenCV detector does
/// the same internally.
#[derive(Debug, Clone)]
pub struct HogCellGrid {
    cells_x: usize,
    cells_y: usize,
    config: HogConfig,
    /// `cells_x * cells_y * bins` histogram values, row-major by cell.
    hist: Vec<f32>,
}

impl HogCellGrid {
    /// Computes cell histograms for the whole image.
    ///
    /// # Errors
    ///
    /// Returns [`VisionError::TooSmall`] if the image holds no complete
    /// cell, or [`VisionError::InvalidArgument`] for degenerate configs.
    pub fn compute(img: &GrayImage, config: HogConfig) -> Result<HogCellGrid> {
        if config.cell_size == 0 || config.bins == 0 || config.block_cells == 0 {
            return Err(VisionError::InvalidArgument(
                "cell_size, bins and block_cells must be positive".into(),
            ));
        }
        let cells_x = img.width() / config.cell_size;
        let cells_y = img.height() / config.cell_size;
        if cells_x == 0 || cells_y == 0 {
            return Err(VisionError::TooSmall(format!(
                "{}x{} image with cell size {}",
                img.width(),
                img.height(),
                config.cell_size
            )));
        }
        // One fused pass in row-major order: each cell still receives its
        // pixels in the (dy, dx) order of a per-cell walk, so every
        // histogram entry sums the same terms in the same order.
        let (cs, bins) = (config.cell_size, config.bins);
        let mut hist = vec![0.0f32; cells_x * cells_y * bins];
        binned_gradient_rows(img, cells_x * cs, cells_y * cs, bins, |y, mag, bin| {
            let row = &mut hist[(y / cs) * cells_x * bins..][..cells_x * bins];
            let cells = mag.chunks_exact(cs).zip(bin.chunks_exact(cs));
            for (cell, (mag, bin)) in row.chunks_exact_mut(bins).zip(cells) {
                for (&m, &b) in mag.iter().zip(bin) {
                    if m != 0.0 {
                        cell[b] += m;
                    }
                }
            }
        });
        Ok(HogCellGrid {
            cells_x,
            cells_y,
            config,
            hist,
        })
    }

    /// Grid width in cells.
    pub fn cells_x(&self) -> usize {
        self.cells_x
    }

    /// Grid height in cells.
    pub fn cells_y(&self) -> usize {
        self.cells_y
    }

    /// The configuration used to build the grid.
    pub fn config(&self) -> HogConfig {
        self.config
    }

    /// Histogram slice of one cell.
    ///
    /// # Panics
    ///
    /// Panics if the cell coordinates are out of range.
    pub fn cell(&self, cx: usize, cy: usize) -> &[f32] {
        assert!(cx < self.cells_x && cy < self.cells_y, "cell out of range");
        let base = (cy * self.cells_x + cx) * self.config.bins;
        &self.hist[base..base + self.config.bins]
    }

    /// Assembles the block-normalized descriptor of the window whose
    /// top-left cell is `(cx0, cy0)` spanning `cells_w × cells_h` cells.
    ///
    /// Blocks of `block_cells × block_cells` cells slide with single-cell
    /// stride; each block is L2-normalized (Dalal–Triggs "L2-norm" scheme).
    ///
    /// # Errors
    ///
    /// Returns [`VisionError::InvalidArgument`] if the window exceeds the
    /// grid or is smaller than one block.
    pub fn window_descriptor(
        &self,
        cx0: usize,
        cy0: usize,
        cells_w: usize,
        cells_h: usize,
    ) -> Result<Vec<f64>> {
        let mut out = Vec::new();
        self.window_descriptor_into(cx0, cy0, cells_w, cells_h, &mut out)?;
        Ok(out)
    }

    /// [`HogCellGrid::window_descriptor`] writing into a caller-owned
    /// buffer: `out` is cleared and filled with the identical descriptor
    /// values, so sliding-window scans can reuse one allocation across
    /// every window instead of allocating a fresh `Vec` per window.
    ///
    /// # Errors
    ///
    /// Same conditions as [`HogCellGrid::window_descriptor`]; on error
    /// `out` is left cleared.
    pub fn window_descriptor_into(
        &self,
        cx0: usize,
        cy0: usize,
        cells_w: usize,
        cells_h: usize,
        out: &mut Vec<f64>,
    ) -> Result<()> {
        out.clear();
        let b = self.config.block_cells;
        if cells_w < b || cells_h < b {
            return Err(VisionError::InvalidArgument(
                "window smaller than one block".into(),
            ));
        }
        if cx0 + cells_w > self.cells_x || cy0 + cells_h > self.cells_y {
            return Err(VisionError::InvalidArgument(
                "window exceeds the cell grid".into(),
            ));
        }
        let bins = self.config.bins;
        let blocks_x = cells_w - b + 1;
        let blocks_y = cells_h - b + 1;
        out.reserve(blocks_x * blocks_y * b * b * bins);
        for by in 0..blocks_y {
            for bx in 0..blocks_x {
                let start = out.len();
                for cy in 0..b {
                    for cx in 0..b {
                        let cell = self.cell(cx0 + bx + cx, cy0 + by + cy);
                        out.extend(cell.iter().map(|&v| v as f64));
                    }
                }
                // L2 block normalization.
                let norm: f64 = out[start..].iter().map(|v| v * v).sum::<f64>().sqrt();
                if norm > 1e-12 {
                    for v in &mut out[start..] {
                        *v /= norm;
                    }
                }
            }
        }
        Ok(())
    }
}

/// Precomputed block-normalized HOG blocks of a whole level.
///
/// [`HogCellGrid::window_descriptor`] normalizes each
/// `block_cells × block_cells` block over its own values only, so a block's
/// normalized vector is independent of the window it appears in — yet the
/// sliding scan recomputes it for every overlapping window that contains
/// it (a block is shared by up to `blocks-per-window` windows at single-cell
/// stride). `HogBlockGrid` materializes every block's normalized vector
/// once; [`HogBlockGrid::window_score`] then folds a linear filter over a
/// window's blocks **in the exact element order and accumulation order of
/// `LinearSvm::score` on the assembled descriptor**, so scores are
/// bit-identical to the assemble-then-dot path while skipping both the
/// per-window allocation and the redundant normalizations.
#[derive(Debug, Clone)]
pub struct HogBlockGrid {
    blocks_x: usize,
    blocks_y: usize,
    block_len: usize,
    config: HogConfig,
    /// `blocks_x * blocks_y * block_len` values, row-major by block.
    data: Vec<f64>,
}

impl HogBlockGrid {
    /// Precomputes every block of `grid`. A grid smaller than one block
    /// yields an empty block grid (0 × 0 blocks), matching the window
    /// positions for which `window_descriptor` would succeed: none.
    pub fn compute(grid: &HogCellGrid) -> HogBlockGrid {
        let b = grid.config.block_cells;
        let bins = grid.config.bins;
        let blocks_x = (grid.cells_x + 1).saturating_sub(b);
        let blocks_y = (grid.cells_y + 1).saturating_sub(b);
        let block_len = b * b * bins;
        let mut data = Vec::with_capacity(blocks_x * blocks_y * block_len);
        for by in 0..blocks_y {
            for bx in 0..blocks_x {
                let start = data.len();
                for cy in 0..b {
                    for cx in 0..b {
                        let cell = grid.cell(bx + cx, by + cy);
                        data.extend(cell.iter().map(|&v| v as f64));
                    }
                }
                // Identical L2 normalization to `window_descriptor`: the
                // norm is over this block's values only.
                let norm: f64 = data[start..].iter().map(|v| v * v).sum::<f64>().sqrt();
                if norm > 1e-12 {
                    for v in &mut data[start..] {
                        *v /= norm;
                    }
                }
            }
        }
        HogBlockGrid {
            blocks_x,
            blocks_y,
            block_len,
            config: grid.config,
            data,
        }
    }

    /// Grid width in blocks.
    pub fn blocks_x(&self) -> usize {
        self.blocks_x
    }

    /// Grid height in blocks.
    pub fn blocks_y(&self) -> usize {
        self.blocks_y
    }

    /// Values per block (`block_cells² × bins`).
    pub fn block_len(&self) -> usize {
        self.block_len
    }

    /// The layout the blocks were built under.
    pub fn config(&self) -> HogConfig {
        self.config
    }

    /// The normalized vector of the block whose top-left cell is
    /// `(bx, by)`.
    ///
    /// # Panics
    ///
    /// Panics if the block coordinates are out of range.
    pub fn block(&self, bx: usize, by: usize) -> &[f64] {
        assert!(
            bx < self.blocks_x && by < self.blocks_y,
            "block out of range"
        );
        let start = (by * self.blocks_x + bx) * self.block_len;
        &self.data[start..start + self.block_len]
    }

    /// Descriptor length of a `cells_w × cells_h` window, or `None` when
    /// `window_descriptor` would reject the window geometry (smaller than
    /// one block).
    pub fn window_len(&self, cells_w: usize, cells_h: usize) -> Option<usize> {
        let b = self.config.block_cells;
        if cells_w < b || cells_h < b {
            return None;
        }
        Some((cells_w - b + 1) * (cells_h - b + 1) * self.block_len)
    }

    /// `weights · descriptor` of the window whose top-left cell is
    /// `(cx0, cy0)`, without materializing the descriptor.
    ///
    /// Returns `None` exactly when
    /// [`HogCellGrid::window_descriptor`] would fail for the same window
    /// (too small for one block, or exceeding the grid). The dot product
    /// accumulates left-to-right over the same element sequence as
    /// `LinearSvm::score` on the assembled descriptor, so the result is
    /// bit-identical to `dot(weights, window_descriptor(..))`.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is shorter than the window descriptor.
    pub fn window_score(
        &self,
        cx0: usize,
        cy0: usize,
        cells_w: usize,
        cells_h: usize,
        weights: &[f64],
    ) -> Option<f64> {
        let b = self.config.block_cells;
        if cells_w < b || cells_h < b {
            return None;
        }
        // `window_descriptor` checks against the cell grid; blocks_x =
        // cells_x - b + 1, so cx0 + cells_w <= cells_x is equivalent to
        // cx0 + (cells_w - b + 1) <= blocks_x.
        let wx = cells_w - b + 1;
        let wy = cells_h - b + 1;
        if cx0 + wx > self.blocks_x || cy0 + wy > self.blocks_y {
            return None;
        }
        assert!(
            weights.len() >= wx * wy * self.block_len,
            "weight vector shorter than the window descriptor"
        );
        let mut acc = 0.0f64;
        let mut w = weights.iter();
        for by in 0..wy {
            for bx in 0..wx {
                for &v in self.block(cx0 + bx, cy0 + by) {
                    // Same fold as `dot`: ((0 + w0·x0) + w1·x1) + …
                    acc += *w.next().expect("length checked above") * v;
                }
            }
        }
        Some(acc)
    }

    /// The scores of one window row: `out` is cleared and then holds
    /// `window_score(k * stride, cy0, cells_w, cells_h, weights)` for
    /// every `k` whose window fits the grid, in order of `k`. A row no
    /// window fits (too small for a block, past the grid, or narrower
    /// than one window) leaves `out` empty.
    ///
    /// Windows are scored four at a time with four independent
    /// accumulators. Each lane folds its window in `window_score`'s exact
    /// element order and no sum is ever re-associated, so every score is
    /// bit-identical; the four dependency chains only let the adds
    /// overlap.
    ///
    /// # Panics
    ///
    /// Panics if `stride == 0` or `weights` is shorter than the window
    /// descriptor.
    pub fn score_row_into(
        &self,
        cy0: usize,
        cells_w: usize,
        cells_h: usize,
        stride: usize,
        weights: &[f64],
        out: &mut Vec<f64>,
    ) {
        assert!(stride > 0, "stride must be positive");
        out.clear();
        let b = self.config.block_cells;
        if cells_w < b || cells_h < b {
            return;
        }
        let (wx, wy) = (cells_w - b + 1, cells_h - b + 1);
        if wx > self.blocks_x || cy0 + wy > self.blocks_y {
            return;
        }
        let row_len = wx * self.block_len;
        assert!(
            weights.len() >= wy * row_len,
            "weight vector shorter than the window descriptor"
        );
        // A window's blocks in one block row are adjacent in `data`, and
        // so are their weights: each lane walks `wy` contiguous runs.
        let start = |cx0: usize| (cy0 * self.blocks_x + cx0) * self.block_len;
        let windows = (self.blocks_x - wx) / stride + 1;
        let mut cx0 = 0;
        for _ in 0..windows / 4 {
            let lanes = [cx0, cx0 + stride, cx0 + 2 * stride, cx0 + 3 * stride].map(start);
            out.extend(self.score_lanes(lanes, wy, row_len, weights));
            cx0 += 4 * stride;
        }
        for _ in 0..windows % 4 {
            out.extend(self.score_lanes([start(cx0)], wy, row_len, weights));
            cx0 += stride;
        }
    }

    /// `N` window scores, lane `j` starting at `data[starts[j]]`; each
    /// lane accumulates `((0 + w0·x0) + w1·x1) + …` as `window_score`
    /// does.
    #[inline(always)]
    fn score_lanes<const N: usize>(
        &self,
        starts: [usize; N],
        wy: usize,
        row_len: usize,
        weights: &[f64],
    ) -> [f64; N] {
        let mut acc = [0.0f64; N];
        let row_stride = self.blocks_x * self.block_len;
        for (by, w) in weights.chunks_exact(row_len).take(wy).enumerate() {
            let x = starts.map(|s| &self.data[s + by * row_stride..][..row_len]);
            for i in 0..row_len {
                let w = w[i];
                for j in 0..N {
                    acc[j] += w * x[j][i];
                }
            }
        }
        acc
    }
}

/// Convenience: the full HOG descriptor of a standalone window image (the
/// paper's per-window 3780-d feature when the window is 64×128 with default
/// parameters).
#[derive(Debug, Clone)]
pub struct HogDescriptor;

impl HogDescriptor {
    /// Computes the descriptor of `img` treated as a single window.
    ///
    /// # Errors
    ///
    /// Propagates grid/window errors for undersized images.
    pub fn compute(img: &GrayImage, config: HogConfig) -> Result<Vec<f64>> {
        let grid = HogCellGrid::compute(img, config)?;
        grid.window_descriptor(0, 0, grid.cells_x(), grid.cells_y())
    }
}

/// A pooled, low-dimensional orientation descriptor: the image is divided
/// into a `grid_x × grid_y` grid and each tile contributes a
/// magnitude-weighted `bins`-bin orientation histogram, L1-normalized over
/// the whole vector.
///
/// This is the compact stand-in for the paper's 3780-d HOG component of the
/// 4180-d video-comparison feature (see DESIGN.md, dimensionality note).
///
/// # Errors
///
/// Returns [`VisionError::InvalidArgument`] for zero grid dimensions/bins or
/// [`VisionError::TooSmall`] when the image is smaller than the grid.
pub fn pooled_hog(img: &GrayImage, grid_x: usize, grid_y: usize, bins: usize) -> Result<Vec<f64>> {
    if grid_x == 0 || grid_y == 0 || bins == 0 {
        return Err(VisionError::InvalidArgument(
            "grid dimensions and bins must be positive".into(),
        ));
    }
    if img.width() < grid_x || img.height() < grid_y {
        return Err(VisionError::TooSmall(format!(
            "{}x{} image for {}x{} grid",
            img.width(),
            img.height(),
            grid_x,
            grid_y
        )));
    }
    let mut out = vec![0.0f64; grid_x * grid_y * bins];
    let w = img.width();
    let h = img.height();
    let tile_x: Vec<usize> = (0..w).map(|x| (x * grid_x / w).min(grid_x - 1)).collect();
    binned_gradient_rows(img, w, h, bins, |y, mag, bin| {
        let ty = (y * grid_y / h).min(grid_y - 1);
        for ((&m, &b), &tx) in mag.iter().zip(bin).zip(&tile_x) {
            if m != 0.0 {
                out[(ty * grid_x + tx) * bins + b] += m as f64;
            }
        }
    });
    let total: f64 = out.iter().sum();
    if total > 1e-12 {
        for v in &mut out {
            *v /= total;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_dimensions_3780() {
        // 64×128 window, 8-px cells, 2×2 blocks, 9 bins → 7·15·4·9 = 3780.
        let cfg = HogConfig::default();
        assert_eq!(cfg.descriptor_len(64, 128), Some(3780));
    }

    #[test]
    fn descriptor_len_none_for_tiny_window() {
        let cfg = HogConfig::default();
        assert_eq!(cfg.descriptor_len(8, 8), None);
    }

    #[test]
    fn full_descriptor_matches_config_len() {
        let img = GrayImage::from_fn(32, 64, |x, y| ((x ^ y) % 7) as f32 / 7.0);
        let cfg = HogConfig::default();
        let d = HogDescriptor::compute(&img, cfg).unwrap();
        assert_eq!(d.len(), cfg.descriptor_len(32, 64).unwrap());
    }

    #[test]
    fn blocks_are_l2_normalized() {
        let img = GrayImage::from_fn(16, 16, |x, y| ((x * y) % 5) as f32 / 5.0);
        let cfg = HogConfig::default();
        let d = HogDescriptor::compute(&img, cfg).unwrap();
        let block_len = cfg.block_cells * cfg.block_cells * cfg.bins;
        for chunk in d.chunks(block_len) {
            let norm: f64 = chunk.iter().map(|v| v * v).sum::<f64>().sqrt();
            assert!(norm < 1.0 + 1e-9, "block norm {norm}");
        }
    }

    #[test]
    fn flat_image_descriptor_is_zero() {
        let img = GrayImage::filled(16, 16, 0.5);
        let d = HogDescriptor::compute(&img, HogConfig::default()).unwrap();
        assert!(d.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn window_descriptor_equals_cropped_full_descriptor() {
        // Slicing the grid must give the same histograms as cropping the
        // image (up to boundary gradient effects, so compare an interior
        // window of an image with cell-aligned content).
        let img = GrayImage::from_fn(48, 48, |x, y| ((x / 8 + y / 8) % 2) as f32);
        let cfg = HogConfig::default();
        let grid = HogCellGrid::compute(&img, cfg).unwrap();
        let d = grid.window_descriptor(1, 1, 4, 4).unwrap();
        assert_eq!(d.len(), 3 * 3 * 4 * 9);
    }

    #[test]
    fn vertical_edges_dominate_correct_bin() {
        // Strong vertical stripes → horizontal gradients → θ≈0 → bin 0.
        let img = GrayImage::from_fn(32, 32, |x, _| ((x / 4) % 2) as f32);
        let grid = HogCellGrid::compute(&img, HogConfig::default()).unwrap();
        let mut bins = vec![0.0f32; 9];
        for cy in 0..grid.cells_y() {
            for cx in 0..grid.cells_x() {
                for (b, v) in grid.cell(cx, cy).iter().enumerate() {
                    bins[b] += v;
                }
            }
        }
        let max_bin = bins
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert!(
            max_bin == 0 || max_bin == 8,
            "dominant bin {max_bin}: {bins:?}"
        );
    }

    #[test]
    fn rejects_degenerate_configs() {
        let img = GrayImage::new(16, 16);
        assert!(HogCellGrid::compute(
            &img,
            HogConfig {
                cell_size: 0,
                ..Default::default()
            }
        )
        .is_err());
        assert!(HogCellGrid::compute(
            &img,
            HogConfig {
                bins: 0,
                ..Default::default()
            }
        )
        .is_err());
        let tiny = GrayImage::new(4, 4);
        assert!(HogCellGrid::compute(&tiny, HogConfig::default()).is_err());
    }

    #[test]
    fn window_bounds_checked() {
        let img = GrayImage::new(32, 32);
        let grid = HogCellGrid::compute(&img, HogConfig::default()).unwrap();
        assert!(grid.window_descriptor(3, 3, 4, 4).is_err()); // exceeds 4-cell grid
        assert!(grid.window_descriptor(0, 0, 1, 1).is_err()); // below block size
    }

    #[test]
    fn pooled_hog_dimension_and_normalization() {
        let img = GrayImage::from_fn(40, 30, |x, y| ((x + y) % 9) as f32 / 9.0);
        let d = pooled_hog(&img, 4, 4, 9).unwrap();
        assert_eq!(d.len(), 4 * 4 * 9);
        let sum: f64 = d.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        assert!(d.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn pooled_hog_flat_image_is_zero_vector() {
        let img = GrayImage::filled(20, 20, 0.3);
        let d = pooled_hog(&img, 2, 2, 6).unwrap();
        assert!(d.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn pooled_hog_distinguishes_orientations() {
        let vertical = GrayImage::from_fn(32, 32, |x, _| ((x / 4) % 2) as f32);
        let horizontal = GrayImage::from_fn(32, 32, |_, y| ((y / 4) % 2) as f32);
        let dv = pooled_hog(&vertical, 2, 2, 9).unwrap();
        let dh = pooled_hog(&horizontal, 2, 2, 9).unwrap();
        let dist: f64 = dv
            .iter()
            .zip(&dh)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        assert!(dist > 0.1, "descriptors should differ, dist={dist}");
    }

    #[test]
    fn window_descriptor_into_matches_allocating_variant() {
        let img = GrayImage::from_fn(40, 56, |x, y| ((x * 3 + y * 7) % 11) as f32 / 11.0);
        let cfg = HogConfig {
            cell_size: 4,
            block_cells: 2,
            bins: 9,
        };
        let grid = HogCellGrid::compute(&img, cfg).unwrap();
        let mut scratch = Vec::new();
        for (cx0, cy0, cw, ch) in [(0, 0, 4, 12), (3, 1, 4, 12), (6, 2, 2, 2)] {
            let fresh = grid.window_descriptor(cx0, cy0, cw, ch).unwrap();
            grid.window_descriptor_into(cx0, cy0, cw, ch, &mut scratch)
                .unwrap();
            assert_eq!(fresh.len(), scratch.len());
            for (a, b) in fresh.iter().zip(&scratch) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        // Errors clear the buffer and match the allocating variant.
        assert!(grid
            .window_descriptor_into(100, 0, 4, 12, &mut scratch)
            .is_err());
        assert!(scratch.is_empty());
    }

    #[test]
    fn block_grid_blocks_match_single_block_descriptors() {
        let img = GrayImage::from_fn(48, 64, |x, y| ((x ^ (y * 5)) % 13) as f32 / 13.0);
        let cfg = HogConfig {
            cell_size: 4,
            block_cells: 2,
            bins: 9,
        };
        let grid = HogCellGrid::compute(&img, cfg).unwrap();
        let blocks = HogBlockGrid::compute(&grid);
        assert_eq!(blocks.blocks_x(), grid.cells_x() - 1);
        assert_eq!(blocks.blocks_y(), grid.cells_y() - 1);
        for by in 0..blocks.blocks_y() {
            for bx in 0..blocks.blocks_x() {
                let d = grid.window_descriptor(bx, by, 2, 2).unwrap();
                let b = blocks.block(bx, by);
                assert_eq!(d.len(), b.len());
                for (x, y) in d.iter().zip(b) {
                    assert_eq!(x.to_bits(), y.to_bits());
                }
            }
        }
    }

    #[test]
    fn window_score_bit_identical_to_assembled_dot() {
        let img = GrayImage::from_fn(48, 64, |x, y| ((x * y) % 17) as f32 / 17.0);
        let cfg = HogConfig {
            cell_size: 4,
            block_cells: 2,
            bins: 9,
        };
        let grid = HogCellGrid::compute(&img, cfg).unwrap();
        let blocks = HogBlockGrid::compute(&grid);
        let (cw, ch) = (4, 12);
        let len = blocks.window_len(cw, ch).unwrap();
        let weights: Vec<f64> = (0..len)
            .map(|i| ((i * 37 % 101) as f64 - 50.0) / 13.0)
            .collect();
        let dot = |w: &[f64], x: &[f64]| -> f64 { w.iter().zip(x).map(|(a, b)| a * b).sum() };
        for cy0 in 0..grid.cells_y() - ch + 1 {
            for cx0 in 0..grid.cells_x() - cw + 1 {
                let desc = grid.window_descriptor(cx0, cy0, cw, ch).unwrap();
                let want = dot(&weights, &desc);
                let got = blocks.window_score(cx0, cy0, cw, ch, &weights).unwrap();
                assert_eq!(want.to_bits(), got.to_bits(), "window ({cx0},{cy0})");
            }
        }
        // Invalid geometry returns None exactly where window_descriptor errs.
        assert!(blocks.window_score(100, 0, cw, ch, &weights).is_none());
        assert!(blocks.window_score(0, 0, 1, 1, &weights).is_none());
    }

    #[test]
    fn row_scores_bit_identical_to_window_score() {
        // Grids 5–13 blocks wide: with the window widths below, row
        // lengths run through every remainder mod four, down to rows
        // that hold no window at all.
        for width in [24, 36, 44, 56] {
            let img = GrayImage::from_fn(width, 56, |x, y| ((x * 7 + y * y) % 19) as f32 / 19.0);
            let cfg = HogConfig {
                cell_size: 4,
                block_cells: 2,
                bins: 9,
            };
            let grid = HogCellGrid::compute(&img, cfg).unwrap();
            let blocks = HogBlockGrid::compute(&grid);
            let mut row = vec![f64::NAN; 3];
            for (cw, ch) in [(2, 2), (3, 5), (4, 12), (6, 3), (14, 2), (1, 1)] {
                let weights: Vec<f64> = (0..blocks.window_len(cw, ch).unwrap_or(0))
                    .map(|i| ((i * 53 % 97) as f64 - 48.0) / 7.0)
                    .collect();
                for stride in 1..=3 {
                    for cy0 in 0..grid.cells_y() + 1 {
                        blocks.score_row_into(cy0, cw, ch, stride, &weights, &mut row);
                        let want: Vec<f64> = (0..)
                            .map_while(|k| blocks.window_score(k * stride, cy0, cw, ch, &weights))
                            .collect();
                        assert_eq!(
                            row.len(),
                            want.len(),
                            "{width}px {cw}x{ch} s{stride} row {cy0}"
                        );
                        for (got, want) in row.iter().zip(&want) {
                            assert_eq!(got.to_bits(), want.to_bits());
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn pooled_hog_rejects_bad_args() {
        let img = GrayImage::new(8, 8);
        assert!(pooled_hog(&img, 0, 2, 9).is_err());
        assert!(pooled_hog(&img, 2, 2, 0).is_err());
        assert!(pooled_hog(&img, 16, 16, 9).is_err());
    }
}
