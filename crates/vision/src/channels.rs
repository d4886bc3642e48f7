//! Aggregated channel features (ACF).
//!
//! Dollár's ACF detector computes, per frame, ten feature channels —
//! three color channels, gradient magnitude, and six orientation-weighted
//! gradient channels — then *aggregates* (box-downsamples) them by a shrink
//! factor. Candidate windows are classified from raw channel lookups by a
//! boosted ensemble (`eecs_learn::boost`).
//!
//! The aggregation is why ACF is an order of magnitude cheaper than HOG
//! (Tables II–IV of the paper) and also why it misses small people at
//! 360×288: after shrink-4 aggregation a distant pedestrian spans only a
//! couple of channel pixels.

use crate::gradient::binned_gradient_rows;
use crate::image::{GrayImage, RgbImage};
use crate::resize::box_downsample_into;
use crate::{Result, VisionError};

/// Number of channels produced by [`AcfChannels::compute`]:
/// 3 color + 1 gradient magnitude + [`ORIENT_BINS`] orientations.
pub const CHANNEL_COUNT: usize = 4 + ORIENT_BINS;

/// Number of quantized gradient-orientation channels.
pub const ORIENT_BINS: usize = 6;

/// The aggregated channel stack of one frame.
///
/// The default is an empty stack for [`AcfChannels::compute_into`] to
/// fill.
#[derive(Debug, Clone)]
pub struct AcfChannels {
    channels: Vec<GrayImage>,
    shrink: usize,
    /// Luma of the last input, kept as workspace so that `compute_into`
    /// reuses its allocation too.
    gray: GrayImage,
}

impl Default for AcfChannels {
    fn default() -> Self {
        AcfChannels {
            channels: vec![GrayImage::default(); CHANNEL_COUNT],
            shrink: 1,
            gray: GrayImage::default(),
        }
    }
}

impl AcfChannels {
    /// Computes the ten aggregated channels of `img` with the given shrink
    /// factor.
    ///
    /// # Errors
    ///
    /// Returns [`VisionError::InvalidArgument`] for `shrink == 0` and
    /// [`VisionError::TooSmall`] when the image is smaller than one
    /// aggregation block.
    pub fn compute(img: &RgbImage, shrink: usize) -> Result<AcfChannels> {
        let mut channels = AcfChannels::default();
        channels.compute_into(img, shrink)?;
        Ok(channels)
    }

    /// [`AcfChannels::compute`] into this stack, reusing its planes'
    /// allocations: the same sums in the same order, so every channel is
    /// bit-identical.
    ///
    /// # Errors
    ///
    /// As [`AcfChannels::compute`]; on error the stack is left unchanged.
    pub fn compute_into(&mut self, img: &RgbImage, shrink: usize) -> Result<()> {
        if shrink == 0 {
            return Err(VisionError::InvalidArgument(
                "shrink must be positive".into(),
            ));
        }
        if img.width() < shrink || img.height() < shrink {
            return Err(VisionError::TooSmall(format!(
                "{}x{} with shrink {}",
                img.width(),
                img.height(),
                shrink
            )));
        }
        img.to_gray_into(&mut self.gray);
        let gray = &self.gray;
        let (out_w, out_h) = (gray.width() / shrink, gray.height() / shrink);
        let (colors, sums) = self.channels.split_at_mut(3);

        // Magnitude and the orientation channels accumulate straight into
        // their aggregated planes: pixels arrive in row-major order, so
        // each aggregated pixel sums its block in `box_downsample`'s
        // (dy, dx) order. Zero-magnitude pixels are skipped — they would
        // add +0.0 to a sum of terms that are all ≥ +0, which changes
        // nothing — and so is every orientation plane a pixel's magnitude
        // does not land in.
        for plane in sums.iter_mut() {
            plane.refill(out_w, out_h, |data| data.resize(out_w * out_h, 0.0));
        }
        let block_x: Vec<usize> = (0..out_w * shrink).map(|x| x / shrink).collect();
        binned_gradient_rows(
            gray,
            out_w * shrink,
            out_h * shrink,
            ORIENT_BINS,
            |y, mag, bin| {
                let row = (y / shrink) * out_w;
                for ((&m, &b), &bx) in mag.iter().zip(bin).zip(&block_x) {
                    if m != 0.0 {
                        sums[0].as_mut_slice()[row + bx] += m;
                        sums[1 + b].as_mut_slice()[row + bx] += m;
                    }
                }
            },
        );

        // The color channels aggregate straight from the borrowed planes.
        for (plane, c) in colors.iter_mut().zip([&img.r, &img.g, &img.b]) {
            box_downsample_into(c, shrink, plane)?;
        }
        let norm = 1.0 / (shrink * shrink) as f32;
        for plane in sums {
            for v in plane.as_mut_slice() {
                *v *= norm;
            }
        }
        self.shrink = shrink;
        Ok(())
    }

    /// Aggregated channel width.
    pub fn width(&self) -> usize {
        self.channels[0].width()
    }

    /// Aggregated channel height.
    pub fn height(&self) -> usize {
        self.channels[0].height()
    }

    /// The shrink factor used for aggregation.
    pub fn shrink(&self) -> usize {
        self.shrink
    }

    /// Borrow of channel `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c >= CHANNEL_COUNT`.
    pub fn channel(&self, c: usize) -> &GrayImage {
        &self.channels[c]
    }

    /// Flattens the window with top-left aggregated-pixel `(x0, y0)` and
    /// size `w × h` (in aggregated pixels) into a single feature vector of
    /// length `w * h * CHANNEL_COUNT` — the ACF classifier input.
    ///
    /// # Errors
    ///
    /// Returns [`VisionError::InvalidArgument`] if the window exceeds the
    /// channel bounds.
    pub fn window_features(&self, x0: usize, y0: usize, w: usize, h: usize) -> Result<Vec<f64>> {
        if x0 + w > self.width() || y0 + h > self.height() || w == 0 || h == 0 {
            return Err(VisionError::InvalidArgument(format!(
                "window {x0},{y0} {w}x{h} exceeds channels {}x{}",
                self.width(),
                self.height()
            )));
        }
        let mut out = Vec::with_capacity(w * h * CHANNEL_COUNT);
        for ch in &self.channels {
            for y in y0..y0 + h {
                for x in x0..x0 + w {
                    out.push(ch.get(x, y) as f64);
                }
            }
        }
        Ok(out)
    }

    /// Feature-vector length for a `w × h` aggregated-pixel window.
    pub fn feature_len(w: usize, h: usize) -> usize {
        w * h * CHANNEL_COUNT
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_image() -> RgbImage {
        let mut img = RgbImage::new(32, 24);
        for y in 0..24 {
            for x in 0..32 {
                img.set(
                    x,
                    y,
                    [(x as f32 / 32.0), (y as f32 / 24.0), ((x + y) % 2) as f32],
                );
            }
        }
        img
    }

    #[test]
    fn channel_count_and_dims() {
        let ch = AcfChannels::compute(&test_image(), 4).unwrap();
        assert_eq!(ch.width(), 8);
        assert_eq!(ch.height(), 6);
        assert_eq!(ch.shrink(), 4);
        assert_eq!(CHANNEL_COUNT, 10);
    }

    #[test]
    fn color_channels_average_input() {
        let img = RgbImage::filled(8, 8, [0.25, 0.5, 0.75]);
        let ch = AcfChannels::compute(&img, 2).unwrap();
        assert!((ch.channel(0).get(1, 1) - 0.25).abs() < 1e-5);
        assert!((ch.channel(1).get(1, 1) - 0.5).abs() < 1e-5);
        assert!((ch.channel(2).get(1, 1) - 0.75).abs() < 1e-5);
    }

    #[test]
    fn flat_image_has_empty_gradient_channels() {
        let img = RgbImage::filled(16, 16, [0.5, 0.5, 0.5]);
        let ch = AcfChannels::compute(&img, 2).unwrap();
        for c in 3..CHANNEL_COUNT {
            assert!(ch.channel(c).as_slice().iter().all(|&v| v.abs() < 1e-5));
        }
    }

    #[test]
    fn orientation_channels_partition_magnitude() {
        let ch = AcfChannels::compute(&test_image(), 1).unwrap();
        // Sum of orientation channels equals the magnitude channel
        // pixel-wise (each pixel's magnitude goes to exactly one bin).
        for y in 0..ch.height() {
            for x in 0..ch.width() {
                let mag = ch.channel(3).get(x, y);
                let sum: f32 = (4..CHANNEL_COUNT).map(|c| ch.channel(c).get(x, y)).sum();
                assert!((mag - sum).abs() < 1e-4, "at ({x},{y}): {mag} vs {sum}");
            }
        }
    }

    #[test]
    fn window_features_layout() {
        let ch = AcfChannels::compute(&test_image(), 4).unwrap();
        let f = ch.window_features(1, 1, 3, 2).unwrap();
        assert_eq!(f.len(), AcfChannels::feature_len(3, 2));
        // First element is channel 0 at (1,1).
        assert!((f[0] - ch.channel(0).get(1, 1) as f64).abs() < 1e-9);
    }

    #[test]
    fn window_bounds_validated() {
        let ch = AcfChannels::compute(&test_image(), 4).unwrap();
        assert!(ch.window_features(7, 0, 2, 2).is_err());
        assert!(ch.window_features(0, 0, 0, 2).is_err());
    }

    #[test]
    fn rejects_bad_shrink() {
        assert!(AcfChannels::compute(&test_image(), 0).is_err());
        assert!(AcfChannels::compute(&RgbImage::new(2, 2), 4).is_err());
    }
}
