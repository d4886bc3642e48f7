//! Planar float images.
//!
//! All pixel values are `f32` in `[0, 1]`. The renderer writes RGB images;
//! detectors mostly consume the grayscale projection.

use std::fmt;

/// A single-channel image with `f32` pixels in `[0, 1]`.
///
/// The default is the empty 0 × 0 image, which the `*_into` kernels
/// (for example [`resize_gray_into`](crate::resize::resize_gray_into))
/// grow on first use.
#[derive(Clone, PartialEq, Default)]
pub struct GrayImage {
    width: usize,
    height: usize,
    data: Vec<f32>,
}

impl GrayImage {
    /// Creates a black image.
    pub fn new(width: usize, height: usize) -> Self {
        GrayImage {
            width,
            height,
            data: vec![0.0; width * height],
        }
    }

    /// Creates an image filled with `value`.
    pub fn filled(width: usize, height: usize, value: f32) -> Self {
        GrayImage {
            width,
            height,
            data: vec![value; width * height],
        }
    }

    /// Creates an image from a row-major pixel vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != width * height`.
    pub fn from_vec(width: usize, height: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), width * height, "pixel count mismatch");
        GrayImage {
            width,
            height,
            data,
        }
    }

    /// Builds an image pixel-by-pixel from `f(x, y)`.
    pub fn from_fn(width: usize, height: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(width * height);
        for y in 0..height {
            for x in 0..width {
                data.push(f(x, y));
            }
        }
        GrayImage {
            width,
            height,
            data,
        }
    }

    /// Image width in pixels.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height in pixels.
    #[inline]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Raw row-major pixel slice.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable raw pixel slice.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Pixel at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics (debug) or reads out of bounds (never: release also panics via
    /// slice indexing) if the coordinates are outside the image.
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> f32 {
        self.data[y * self.width + x]
    }

    /// Pixel at `(x, y)` with clamp-to-edge semantics for signed
    /// coordinates; useful for convolution borders.
    #[inline]
    pub fn get_clamped(&self, x: isize, y: isize) -> f32 {
        let cx = x.clamp(0, self.width as isize - 1) as usize;
        let cy = y.clamp(0, self.height as isize - 1) as usize;
        self.get(cx, cy)
    }

    /// Sets pixel `(x, y)` to `v`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are outside the image.
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, v: f32) {
        self.data[y * self.width + x] = v;
    }

    /// Crops the rectangle `[x0, x0+w) × [y0, y0+h)`.
    ///
    /// # Panics
    ///
    /// Panics if the rectangle exceeds the image bounds.
    pub fn crop(&self, x0: usize, y0: usize, w: usize, h: usize) -> GrayImage {
        assert!(
            x0 + w <= self.width && y0 + h <= self.height,
            "crop out of bounds"
        );
        GrayImage::from_fn(w, h, |x, y| self.get(x0 + x, y0 + y))
    }

    /// Mean pixel value (0 for an empty image).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            return 0.0;
        }
        self.data.iter().sum::<f32>() / self.data.len() as f32
    }

    /// Empties the image (to 0 × 0) with room for a `width × height`
    /// one, so that `*_into` kernels filling ever larger levels up to
    /// that size allocate once.
    pub fn reserve_level(&mut self, width: usize, height: usize) {
        reuse_exact(&mut self.data, width * height);
        self.width = 0;
        self.height = 0;
    }

    /// Reshapes the image to `width × height` in place: `fill` receives
    /// the emptied pixel vector and pushes the new pixels in row-major
    /// order. The allocation is kept when it holds the new image
    /// (see [`reuse_exact`]).
    ///
    /// # Panics
    ///
    /// Panics if `fill` pushes other than `width * height` pixels.
    pub(crate) fn refill(&mut self, width: usize, height: usize, fill: impl FnOnce(&mut Vec<f32>)) {
        reuse_exact(&mut self.data, width * height);
        fill(&mut self.data);
        assert_eq!(self.data.len(), width * height, "pixel count mismatch");
        self.width = width;
        self.height = height;
    }
}

/// Empties `buf` for `n` new elements. The allocation is kept when it
/// holds `n`; otherwise it is freed *before* exactly `n` are allocated,
/// so a buffer reused for ever larger pyramid levels holds one level's
/// allocation at a time, sized to the largest level seen, where the
/// amortized growth of `Vec` could double it.
pub(crate) fn reuse_exact<T>(buf: &mut Vec<T>, n: usize) {
    buf.clear();
    if buf.capacity() < n {
        *buf = Vec::new();
        buf.reserve_exact(n);
    }
}

impl fmt::Debug for GrayImage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "GrayImage({}x{}, mean={:.3})",
            self.width,
            self.height,
            self.mean()
        )
    }
}

/// A three-channel planar RGB image with `f32` pixels in `[0, 1]`.
#[derive(Clone, PartialEq, Default)]
pub struct RgbImage {
    /// Red channel.
    pub r: GrayImage,
    /// Green channel.
    pub g: GrayImage,
    /// Blue channel.
    pub b: GrayImage,
}

impl RgbImage {
    /// Creates a black RGB image.
    pub fn new(width: usize, height: usize) -> Self {
        RgbImage {
            r: GrayImage::new(width, height),
            g: GrayImage::new(width, height),
            b: GrayImage::new(width, height),
        }
    }

    /// Creates an image filled with a constant color.
    pub fn filled(width: usize, height: usize, rgb: [f32; 3]) -> Self {
        RgbImage {
            r: GrayImage::filled(width, height, rgb[0]),
            g: GrayImage::filled(width, height, rgb[1]),
            b: GrayImage::filled(width, height, rgb[2]),
        }
    }

    /// Image width in pixels.
    pub fn width(&self) -> usize {
        self.r.width()
    }

    /// Image height in pixels.
    pub fn height(&self) -> usize {
        self.r.height()
    }

    /// RGB triple at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are outside the image.
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> [f32; 3] {
        [self.r.get(x, y), self.g.get(x, y), self.b.get(x, y)]
    }

    /// Sets the RGB triple at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are outside the image.
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, rgb: [f32; 3]) {
        self.r.set(x, y, rgb[0]);
        self.g.set(x, y, rgb[1]);
        self.b.set(x, y, rgb[2]);
    }

    /// Luma (ITU-R BT.601) grayscale projection.
    pub fn to_gray(&self) -> GrayImage {
        let mut gray = GrayImage::default();
        self.to_gray_into(&mut gray);
        gray
    }

    /// [`RgbImage::to_gray`] into `out`, reusing its allocation.
    pub fn to_gray_into(&self, out: &mut GrayImage) {
        let (r, g, b) = (&self.r.data, &self.g.data, &self.b.data);
        out.refill(self.width(), self.height(), |data| {
            data.extend(
                r.iter()
                    .zip(g)
                    .zip(b)
                    .map(|((&r, &g), &b)| 0.299 * r + 0.587 * g + 0.114 * b),
            );
        });
    }

    /// Crops the rectangle `[x0, x0+w) × [y0, y0+h)`.
    ///
    /// # Panics
    ///
    /// Panics if the rectangle exceeds the image bounds.
    pub fn crop(&self, x0: usize, y0: usize, w: usize, h: usize) -> RgbImage {
        RgbImage {
            r: self.r.crop(x0, y0, w, h),
            g: self.g.crop(x0, y0, w, h),
            b: self.b.crop(x0, y0, w, h),
        }
    }

    /// Multiplies every channel by `gain` (global illumination change) and
    /// clamps back to `[0, 1]`.
    pub fn scale_brightness(&mut self, gain: f32) {
        for ch in [&mut self.r, &mut self.g, &mut self.b] {
            for p in ch.as_mut_slice() {
                *p = (*p * gain).clamp(0.0, 1.0);
            }
        }
    }
}

impl fmt::Debug for RgbImage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RgbImage({}x{})", self.width(), self.height())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_is_black() {
        let img = GrayImage::new(4, 3);
        assert_eq!(img.width(), 4);
        assert_eq!(img.height(), 3);
        assert_eq!(img.mean(), 0.0);
    }

    #[test]
    fn get_set_roundtrip() {
        let mut img = GrayImage::new(5, 5);
        img.set(2, 3, 0.7);
        assert_eq!(img.get(2, 3), 0.7);
        assert_eq!(img.get(3, 2), 0.0);
    }

    #[test]
    fn from_fn_coordinates() {
        let img = GrayImage::from_fn(3, 2, |x, y| (x + 10 * y) as f32);
        assert_eq!(img.get(2, 1), 12.0);
        assert_eq!(img.get(0, 0), 0.0);
    }

    #[test]
    fn clamped_access_at_borders() {
        let img = GrayImage::from_fn(2, 2, |x, y| (x + 2 * y) as f32);
        assert_eq!(img.get_clamped(-5, 0), img.get(0, 0));
        assert_eq!(img.get_clamped(10, 10), img.get(1, 1));
    }

    #[test]
    fn crop_extracts_window() {
        let img = GrayImage::from_fn(4, 4, |x, y| (y * 4 + x) as f32);
        let c = img.crop(1, 2, 2, 2);
        assert_eq!(c.get(0, 0), 9.0);
        assert_eq!(c.get(1, 1), 14.0);
    }

    #[test]
    #[should_panic(expected = "crop out of bounds")]
    fn crop_out_of_bounds_panics() {
        GrayImage::new(3, 3).crop(2, 2, 2, 2);
    }

    #[test]
    fn rgb_to_gray_weights() {
        let mut img = RgbImage::new(1, 1);
        img.set(0, 0, [1.0, 0.0, 0.0]);
        assert!((img.to_gray().get(0, 0) - 0.299).abs() < 1e-6);
        img.set(0, 0, [1.0, 1.0, 1.0]);
        assert!((img.to_gray().get(0, 0) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn brightness_scaling_clamps() {
        let mut img = RgbImage::filled(2, 2, [0.8, 0.5, 0.2]);
        img.scale_brightness(2.0);
        assert_eq!(img.get(0, 0), [1.0, 1.0, 0.4]);
    }

    #[test]
    fn mean_of_filled() {
        let img = GrayImage::filled(10, 10, 0.25);
        assert!((img.mean() - 0.25).abs() < 1e-6);
    }

    #[test]
    fn debug_nonempty() {
        assert!(format!("{:?}", GrayImage::new(2, 2)).contains("2x2"));
        assert!(format!("{:?}", RgbImage::new(2, 2)).contains("2x2"));
    }
}
