//! Shared per-frame feature cache.
//!
//! The four detectors all derive their features from the same frame: HOG
//! and LSVM resize the grayscale image and build HOG cell grids, ACF
//! resizes the RGB image and aggregates channels, C4 resizes through a
//! fixed internal resolution and census-transforms each level. Run
//! back-to-back on one frame (the assessment phase does exactly that),
//! they repeat the grayscale conversion, many pyramid levels, and — when
//! two detectors share a HOG layout — entire cell grids.
//!
//! [`FrameFeatures`] memoizes those intermediates so each is computed once
//! per frame and shared across detectors via
//! [`Detector::detect_with_cache`](crate::Detector::detect_with_cache).
//!
//! Two invariants make the cache safe for the simulator:
//!
//! 1. **Exactness** — every cache key fully encodes the derivation of the
//!    value from the frame (target dimensions, HOG layout, shrink factor,
//!    and for C4 the internal resolution the level was resized *through*).
//!    All derivations are deterministic, so a cached value is bit-identical
//!    to what the detector would have computed directly.
//! 2. **No energy accounting** — the cache is a *host simulation* speedup
//!    only. The modeled camera hardware runs each algorithm in isolation,
//!    so per-algorithm `ops` counters (and therefore
//!    `processing_energy(ops)` charges) must not shrink when features are
//!    shared; detectors increment `ops` exactly as in the uncached path.
//!
//! Errors from the underlying vision routines (degenerate target
//! dimensions, too-small levels) are returned but not cached: failure
//! paths are rare and cheap, and detectors handle them at the same points
//! as the direct computation.

use eecs_vision::channels::AcfChannels;
use eecs_vision::hog::{HogBlockGrid, HogCellGrid, HogConfig};
use eecs_vision::image::{GrayImage, RgbImage};
use eecs_vision::resize::{resize_gray, resize_rgb};
use eecs_vision::Result as VisionResult;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use crate::c4_detector::census_transform;
use crate::kernels::{CensusCodePlane, DetectScratch};

/// Key of a HOG cell grid: level dimensions plus the full HOG layout
/// (`HogConfig` carries no `Hash` impl, so the fields are spread here).
type HogKey = (usize, usize, usize, usize, usize);
/// Key of a census-transformed level: the internal resolution the level was
/// resized through, then the level dimensions.
type CensusKey = (usize, usize, usize, usize);

/// Memoized per-frame intermediates, shared across detectors.
///
/// Construct one per frame with [`FrameFeatures::new`] and pass it to each
/// detector's `detect_with_cache`. All methods take `&self` and the cache
/// is `Sync`, so one instance may serve several threads, though the
/// simulator uses one per worker task.
pub struct FrameFeatures<'a> {
    frame: &'a RgbImage,
    gray: OnceLock<Arc<GrayImage>>,
    gray_levels: Mutex<HashMap<(usize, usize), Arc<GrayImage>>>,
    rgb_levels: Mutex<HashMap<(usize, usize), Arc<RgbImage>>>,
    hog_grids: Mutex<HashMap<HogKey, Arc<HogCellGrid>>>,
    hog_blocks: Mutex<HashMap<HogKey, Arc<HogBlockGrid>>>,
    acf_levels: Mutex<HashMap<(usize, usize, usize), Arc<AcfChannels>>>,
    census_levels: Mutex<HashMap<CensusKey, Arc<GrayImage>>>,
    census_codes: Mutex<HashMap<CensusKey, Arc<CensusCodePlane>>>,
    scratch: Mutex<Vec<DetectScratch>>,
}

impl<'a> FrameFeatures<'a> {
    /// Creates an empty cache over `frame`. Nothing is computed until a
    /// detector asks for it.
    pub fn new(frame: &'a RgbImage) -> FrameFeatures<'a> {
        FrameFeatures {
            frame,
            gray: OnceLock::new(),
            gray_levels: Mutex::new(HashMap::new()),
            rgb_levels: Mutex::new(HashMap::new()),
            hog_grids: Mutex::new(HashMap::new()),
            hog_blocks: Mutex::new(HashMap::new()),
            acf_levels: Mutex::new(HashMap::new()),
            census_levels: Mutex::new(HashMap::new()),
            census_codes: Mutex::new(HashMap::new()),
            scratch: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` with a [`DetectScratch`] checked out of this frame's pool.
    ///
    /// Buffers keep their capacity across checkouts, so every detector
    /// scanning through the same cache reuses the same allocations; under
    /// concurrent access each caller simply gets its own scratch. Contents
    /// are transient — callers must not read a buffer before writing it.
    pub fn with_scratch<R>(&self, f: impl FnOnce(&mut DetectScratch) -> R) -> R {
        let mut scratch = {
            let mut pool = self.scratch.lock().unwrap();
            pool.pop().unwrap_or_default()
        };
        let out = f(&mut scratch);
        self.scratch.lock().unwrap().push(scratch);
        out
    }

    /// The frame this cache is derived from.
    pub fn frame(&self) -> &RgbImage {
        self.frame
    }

    /// The grayscale conversion of the frame.
    pub fn gray(&self) -> Arc<GrayImage> {
        self.gray
            .get_or_init(|| Arc::new(self.frame.to_gray()))
            .clone()
    }

    /// The grayscale frame resized to `w × h`
    /// (= `resize_gray(&frame.to_gray(), w, h)`).
    ///
    /// # Errors
    ///
    /// Propagates [`resize_gray`] errors; failures are not cached.
    pub fn resized_gray(&self, w: usize, h: usize) -> VisionResult<Arc<GrayImage>> {
        if let Some(hit) = self.gray_levels.lock().unwrap().get(&(w, h)) {
            return Ok(hit.clone());
        }
        let level = Arc::new(resize_gray(&self.gray(), w, h)?);
        Ok(self
            .gray_levels
            .lock()
            .unwrap()
            .entry((w, h))
            .or_insert(level)
            .clone())
    }

    /// The RGB frame resized to `w × h` (= `resize_rgb(frame, w, h)`).
    ///
    /// # Errors
    ///
    /// Propagates [`resize_rgb`] errors; failures are not cached.
    pub fn resized_rgb(&self, w: usize, h: usize) -> VisionResult<Arc<RgbImage>> {
        if let Some(hit) = self.rgb_levels.lock().unwrap().get(&(w, h)) {
            return Ok(hit.clone());
        }
        let level = Arc::new(resize_rgb(self.frame, w, h)?);
        Ok(self
            .rgb_levels
            .lock()
            .unwrap()
            .entry((w, h))
            .or_insert(level)
            .clone())
    }

    /// The HOG cell grid of the `w × h` grayscale level under `config`
    /// (= `HogCellGrid::compute(&resize_gray(&gray, w, h), config)`).
    ///
    /// Shared between the HOG and LSVM detectors whenever their scale
    /// schedules land on the same level with the same layout.
    ///
    /// # Errors
    ///
    /// Propagates resize or grid-computation errors; failures are not
    /// cached.
    pub fn hog_grid(
        &self,
        w: usize,
        h: usize,
        config: HogConfig,
    ) -> VisionResult<Arc<HogCellGrid>> {
        let key = (w, h, config.cell_size, config.block_cells, config.bins);
        if let Some(hit) = self.hog_grids.lock().unwrap().get(&key) {
            return Ok(hit.clone());
        }
        let level = self.resized_gray(w, h)?;
        let grid = Arc::new(HogCellGrid::compute(&level, config)?);
        Ok(self
            .hog_grids
            .lock()
            .unwrap()
            .entry(key)
            .or_insert(grid)
            .clone())
    }

    /// The precomputed block-normalized HOG blocks of the `w × h` level
    /// under `config` (= `HogBlockGrid::compute(&hog_grid(w, h, config))`).
    ///
    /// Every block's normalized vector is bit-identical to the block the
    /// cell grid's `window_descriptor` would assemble in place, so window
    /// scores folded over these blocks equal the assemble-then-dot path
    /// exactly; the scan skips the per-window normalization and
    /// allocation.
    ///
    /// # Errors
    ///
    /// Propagates resize or grid-computation errors; failures are not
    /// cached.
    pub fn hog_blocks(
        &self,
        w: usize,
        h: usize,
        config: HogConfig,
    ) -> VisionResult<Arc<HogBlockGrid>> {
        let key = (w, h, config.cell_size, config.block_cells, config.bins);
        if let Some(hit) = self.hog_blocks.lock().unwrap().get(&key) {
            return Ok(hit.clone());
        }
        let grid = self.hog_grid(w, h, config)?;
        let blocks = Arc::new(HogBlockGrid::compute(&grid));
        Ok(self
            .hog_blocks
            .lock()
            .unwrap()
            .entry(key)
            .or_insert(blocks)
            .clone())
    }

    /// The aggregated ACF channels of the `w × h` RGB level
    /// (= `AcfChannels::compute(&resize_rgb(frame, w, h), shrink)`).
    ///
    /// # Errors
    ///
    /// Propagates resize or channel-computation errors; failures are not
    /// cached.
    pub fn acf_channels(
        &self,
        w: usize,
        h: usize,
        shrink: usize,
    ) -> VisionResult<Arc<AcfChannels>> {
        let key = (w, h, shrink);
        if let Some(hit) = self.acf_levels.lock().unwrap().get(&key) {
            return Ok(hit.clone());
        }
        let level = self.resized_rgb(w, h)?;
        let channels = Arc::new(AcfChannels::compute(&level, shrink)?);
        Ok(self
            .acf_levels
            .lock()
            .unwrap()
            .entry(key)
            .or_insert(channels)
            .clone())
    }

    /// The census transform of the `w × h` level obtained by resizing the
    /// grayscale frame through C4's fixed `internal_w × internal_h`
    /// resolution first
    /// (= `census_transform(&resize_gray(&resize_gray(&gray, iw, ih), w, h))`).
    ///
    /// The internal resolution is part of the key because a second-order
    /// resize is **not** the same image as a direct resize to `w × h`.
    /// Only the reference path reads this `f32` image; the scan reads
    /// [`FrameFeatures::census_codes`].
    ///
    /// # Errors
    ///
    /// Propagates resize errors (from either stage); failures are not
    /// cached.
    pub fn census_level(
        &self,
        internal_w: usize,
        internal_h: usize,
        w: usize,
        h: usize,
    ) -> VisionResult<Arc<GrayImage>> {
        let key = (internal_w, internal_h, w, h);
        if let Some(hit) = self.census_levels.lock().unwrap().get(&key) {
            return Ok(hit.clone());
        }
        let internal = self.resized_gray(internal_w, internal_h)?;
        let level = resize_gray(&internal, w, h)?;
        let census = Arc::new(census_transform(&level));
        Ok(self
            .census_levels
            .lock()
            .unwrap()
            .entry(key)
            .or_insert(census)
            .clone())
    }

    /// The `u8` code plane of the census level keyed exactly like
    /// [`FrameFeatures::census_level`], built in one pass straight from
    /// the resized level by [`CensusCodePlane::compute`]: each code equals
    /// `(pixel as usize).min(255)` of the census level, the cast the
    /// reference scorer applies per window pixel, without building or
    /// caching the `f32` census image.
    ///
    /// # Errors
    ///
    /// Propagates resize errors (from either stage); failures are not
    /// cached.
    pub fn census_codes(
        &self,
        internal_w: usize,
        internal_h: usize,
        w: usize,
        h: usize,
    ) -> VisionResult<Arc<CensusCodePlane>> {
        let key = (internal_w, internal_h, w, h);
        if let Some(hit) = self.census_codes.lock().unwrap().get(&key) {
            return Ok(hit.clone());
        }
        let internal = self.resized_gray(internal_w, internal_h)?;
        let plane = Arc::new(CensusCodePlane::compute(&resize_gray(&internal, w, h)?));
        Ok(self
            .census_codes
            .lock()
            .unwrap()
            .entry(key)
            .or_insert(plane)
            .clone())
    }
}

impl std::fmt::Debug for FrameFeatures<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "FrameFeatures({}x{}, {} gray / {} rgb levels, {} hog grids, {} hog block grids, {} acf levels, {} census levels, {} code planes)",
            self.frame.width(),
            self.frame.height(),
            self.gray_levels.lock().unwrap().len(),
            self.rgb_levels.lock().unwrap().len(),
            self.hog_grids.lock().unwrap().len(),
            self.hog_blocks.lock().unwrap().len(),
            self.acf_levels.lock().unwrap().len(),
            self.census_levels.lock().unwrap().len(),
            self.census_codes.lock().unwrap().len(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_frame() -> RgbImage {
        let mut img = RgbImage::new(64, 48);
        for y in 0..48 {
            for x in 0..64 {
                img.set(
                    x,
                    y,
                    [
                        (x as f32) / 64.0,
                        (y as f32) / 48.0,
                        ((x * y) % 7) as f32 / 7.0,
                    ],
                );
            }
        }
        img
    }

    #[test]
    fn gray_matches_direct_conversion() {
        let frame = test_frame();
        let cache = FrameFeatures::new(&frame);
        assert_eq!(*cache.gray(), frame.to_gray());
        // Second call returns the same allocation.
        assert!(Arc::ptr_eq(&cache.gray(), &cache.gray()));
    }

    #[test]
    fn resized_levels_match_direct_and_are_shared() {
        let frame = test_frame();
        let cache = FrameFeatures::new(&frame);
        let level = cache.resized_gray(32, 24).unwrap();
        assert_eq!(*level, resize_gray(&frame.to_gray(), 32, 24).unwrap());
        assert!(Arc::ptr_eq(&level, &cache.resized_gray(32, 24).unwrap()));

        let rgb = cache.resized_rgb(16, 12).unwrap();
        assert_eq!(*rgb, resize_rgb(&frame, 16, 12).unwrap());
        assert!(Arc::ptr_eq(&rgb, &cache.resized_rgb(16, 12).unwrap()));
    }

    #[test]
    fn census_key_encodes_internal_resolution() {
        let frame = test_frame();
        let cache = FrameFeatures::new(&frame);
        let via_32 = cache.census_level(32, 24, 24, 18).unwrap();
        let via_48 = cache.census_level(48, 36, 24, 18).unwrap();
        // Same final dimensions, different derivation: distinct entries.
        assert!(!Arc::ptr_eq(&via_32, &via_48));
        let direct = census_transform(
            &resize_gray(&resize_gray(&frame.to_gray(), 32, 24).unwrap(), 24, 18).unwrap(),
        );
        assert_eq!(*via_32, direct);
    }

    #[test]
    fn census_codes_match_level_cast_and_are_shared() {
        let frame = test_frame();
        let cache = FrameFeatures::new(&frame);
        let plane = cache.census_codes(32, 24, 24, 18).unwrap();
        let level = cache.census_level(32, 24, 24, 18).unwrap();
        for y in 0..18 {
            for x in 0..24 {
                assert_eq!(plane.code(x, y), (level.get(x, y) as usize).min(255));
            }
        }
        assert!(Arc::ptr_eq(
            &plane,
            &cache.census_codes(32, 24, 24, 18).unwrap()
        ));
    }

    #[test]
    fn hog_blocks_derive_from_the_cached_grid() {
        let frame = test_frame();
        let cache = FrameFeatures::new(&frame);
        let cfg = HogConfig {
            cell_size: 4,
            block_cells: 2,
            bins: 9,
        };
        let blocks = cache.hog_blocks(64, 48, cfg).unwrap();
        let grid = cache.hog_grid(64, 48, cfg).unwrap();
        assert_eq!(blocks.blocks_x(), grid.cells_x() - 1);
        let direct = HogBlockGrid::compute(&grid);
        let weights: Vec<f64> = (0..blocks.block_len()).map(|i| i as f64 - 17.5).collect();
        assert_eq!(
            blocks.window_score(2, 3, 2, 2, &weights),
            direct.window_score(2, 3, 2, 2, &weights)
        );
        assert!(Arc::ptr_eq(
            &blocks,
            &cache.hog_blocks(64, 48, cfg).unwrap()
        ));
    }

    #[test]
    fn scratch_pool_reuses_buffers() {
        let frame = test_frame();
        let cache = FrameFeatures::new(&frame);
        let cap = cache.with_scratch(|s| {
            s.row_scores.clear();
            s.row_scores.extend(std::iter::repeat(0.5).take(512));
            s.row_scores.capacity()
        });
        // The same buffer (or at least its capacity) comes back.
        let cap2 = cache.with_scratch(|s| s.row_scores.capacity());
        assert!(cap2 >= cap);
    }

    #[test]
    fn errors_are_propagated_not_cached() {
        let frame = test_frame();
        let cache = FrameFeatures::new(&frame);
        assert!(cache.resized_gray(0, 10).is_err());
        // The failed key did not poison the cache.
        assert!(cache.resized_gray(10, 10).is_ok());
    }
}
