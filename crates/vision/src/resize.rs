//! Bilinear image resampling.

use crate::image::{GrayImage, RgbImage};
use crate::{Result, VisionError};

/// Resizes a grayscale image to `(new_w, new_h)` with bilinear
/// interpolation.
///
/// # Errors
///
/// Returns [`VisionError::InvalidArgument`] if either target dimension is
/// zero or the source image is empty.
pub fn resize_gray(src: &GrayImage, new_w: usize, new_h: usize) -> Result<GrayImage> {
    let mut out = GrayImage::default();
    resize_gray_into(src, new_w, new_h, &mut out)?;
    Ok(out)
}

/// [`resize_gray`] into `out`, reusing its allocation: the same taps and
/// the same arithmetic, so the pixels are bit-identical.
///
/// # Errors
///
/// As [`resize_gray`]; on error `out` is left unchanged.
pub fn resize_gray_into(
    src: &GrayImage,
    new_w: usize,
    new_h: usize,
    out: &mut GrayImage,
) -> Result<()> {
    if new_w == 0 || new_h == 0 {
        return Err(VisionError::InvalidArgument(
            "target dimensions must be positive".into(),
        ));
    }
    if src.width() == 0 || src.height() == 0 {
        return Err(VisionError::InvalidArgument("empty source image".into()));
    }
    let (w, h) = (src.width(), src.height());
    let px = src.as_slice();
    // Identity resize is exact under center-aligned bilinear sampling
    // (fx = x, so every tap lands on the source pixel): skip the sampling
    // loop entirely.
    if new_w == w && new_h == h {
        out.refill(w, h, |data| data.extend_from_slice(px));
        return Ok(());
    }
    let sx = w as f32 / new_w as f32;
    let sy = h as f32 / new_h as f32;
    // Each tap depends on one axis only, so every column's and every
    // row's are computed once, with the per-pixel form's `floor`, clamp
    // and `f − floor` arithmetic: outputs are bit-identical to sampling
    // each pixel on its own.
    let cols: Vec<Tap> = (0..new_w).map(|x| Tap::new(x, sx, w)).collect();
    out.refill(new_w, new_h, |data| {
        for y in 0..new_h {
            let Tap { lo, hi, t: ty } = Tap::new(y, sy, h);
            let (row0, row1) = (&px[lo * w..][..w], &px[hi * w..][..w]);
            data.extend(cols.iter().map(|&Tap { lo, hi, t: tx }| {
                let top = row0[lo] + tx * (row0[hi] - row0[lo]);
                let bot = row1[lo] + tx * (row1[hi] - row1[lo]);
                top + ty * (bot - top)
            }));
        }
    });
    Ok(())
}

/// The two source indices and the weight of one output coordinate under
/// center-aligned bilinear sampling.
#[derive(Clone, Copy)]
struct Tap {
    /// `floor(f)`, clamped to the source.
    lo: usize,
    /// `floor(f) + 1`, clamped to the source.
    hi: usize,
    /// `f − floor(f)`, the weight of `hi`.
    t: f32,
}

impl Tap {
    /// The tap of output coordinate `i` at source/target ratio `scale`
    /// over a source `len` pixels long: `f = (i + 0.5)·scale − 0.5`.
    fn new(i: usize, scale: f32, len: usize) -> Tap {
        let f = (i as f32 + 0.5) * scale - 0.5;
        let lo = f.floor() as isize;
        let clamp = |v: isize| v.clamp(0, len as isize - 1) as usize;
        Tap {
            lo: clamp(lo),
            hi: clamp(lo + 1),
            t: f - lo as f32,
        }
    }
}

/// Resizes an RGB image channel-wise.
///
/// # Errors
///
/// Same conditions as [`resize_gray`].
pub fn resize_rgb(src: &RgbImage, new_w: usize, new_h: usize) -> Result<RgbImage> {
    let mut out = RgbImage::default();
    resize_rgb_into(src, new_w, new_h, &mut out)?;
    Ok(out)
}

/// [`resize_rgb`] into `out`, reusing its planes' allocations.
///
/// # Errors
///
/// As [`resize_gray`]; on error `out` is left unchanged.
pub fn resize_rgb_into(
    src: &RgbImage,
    new_w: usize,
    new_h: usize,
    out: &mut RgbImage,
) -> Result<()> {
    resize_gray_into(&src.r, new_w, new_h, &mut out.r)?;
    resize_gray_into(&src.g, new_w, new_h, &mut out.g)?;
    resize_gray_into(&src.b, new_w, new_h, &mut out.b)
}

/// Downsamples by integer factor `shrink` using box averaging — the
/// aggregation step of ACF ("aggregated channel features").
///
/// Trailing pixels that do not fill a complete `shrink × shrink` block are
/// dropped, matching Dollár's implementation.
///
/// # Errors
///
/// Returns [`VisionError::InvalidArgument`] for `shrink == 0` and
/// [`VisionError::TooSmall`] if the image is smaller than one block.
pub fn box_downsample(src: &GrayImage, shrink: usize) -> Result<GrayImage> {
    let mut out = GrayImage::default();
    box_downsample_into(src, shrink, &mut out)?;
    Ok(out)
}

/// [`box_downsample`] into `out`, reusing its allocation.
///
/// # Errors
///
/// As [`box_downsample`]; on error `out` is left unchanged.
pub fn box_downsample_into(src: &GrayImage, shrink: usize, out: &mut GrayImage) -> Result<()> {
    if shrink == 0 {
        return Err(VisionError::InvalidArgument(
            "shrink must be positive".into(),
        ));
    }
    let out_w = src.width() / shrink;
    let out_h = src.height() / shrink;
    if out_w == 0 || out_h == 0 {
        return Err(VisionError::TooSmall(format!(
            "{}x{} with shrink {}",
            src.width(),
            src.height(),
            shrink
        )));
    }
    let norm = 1.0 / (shrink * shrink) as f32;
    out.refill(out_w, out_h, |data| {
        for y in 0..out_h {
            data.extend((0..out_w).map(|x| {
                let mut sum = 0.0;
                for dy in 0..shrink {
                    for dx in 0..shrink {
                        sum += src.get(x * shrink + dx, y * shrink + dy);
                    }
                }
                sum * norm
            }));
        }
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_resize_preserves_pixels() {
        let src = GrayImage::from_fn(5, 4, |x, y| (x * 7 + y) as f32 / 40.0);
        let out = resize_gray(&src, 5, 4).unwrap();
        for y in 0..4 {
            for x in 0..5 {
                assert!((out.get(x, y) - src.get(x, y)).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn constant_image_stays_constant() {
        let src = GrayImage::filled(8, 8, 0.37);
        let out = resize_gray(&src, 3, 13).unwrap();
        for p in out.as_slice() {
            assert!((p - 0.37).abs() < 1e-5);
        }
    }

    #[test]
    fn upscale_preserves_mean_roughly() {
        let src = GrayImage::from_fn(4, 4, |x, _| if x < 2 { 0.0 } else { 1.0 });
        let out = resize_gray(&src, 16, 16).unwrap();
        assert!((out.mean() - src.mean()).abs() < 0.05);
    }

    #[test]
    fn rejects_zero_target() {
        let src = GrayImage::new(4, 4);
        assert!(resize_gray(&src, 0, 4).is_err());
        assert!(resize_gray(&src, 4, 0).is_err());
    }

    #[test]
    fn box_downsample_averages_blocks() {
        let src = GrayImage::from_vec(2, 2, vec![0.0, 1.0, 1.0, 0.0]);
        let out = box_downsample(&src, 2).unwrap();
        assert_eq!(out.width(), 1);
        assert!((out.get(0, 0) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn box_downsample_drops_partial_blocks() {
        let src = GrayImage::filled(5, 5, 1.0);
        let out = box_downsample(&src, 2).unwrap();
        assert_eq!((out.width(), out.height()), (2, 2));
    }

    #[test]
    fn box_downsample_rejects_degenerate() {
        let src = GrayImage::filled(3, 3, 1.0);
        assert!(box_downsample(&src, 0).is_err());
        assert!(box_downsample(&src, 4).is_err());
    }

    #[test]
    fn rgb_resize_channels_independent() {
        let mut src = RgbImage::new(2, 2);
        src.set(0, 0, [1.0, 0.0, 0.5]);
        src.set(1, 0, [1.0, 0.0, 0.5]);
        src.set(0, 1, [1.0, 0.0, 0.5]);
        src.set(1, 1, [1.0, 0.0, 0.5]);
        let out = resize_rgb(&src, 4, 4).unwrap();
        let px = out.get(2, 2);
        assert!((px[0] - 1.0).abs() < 1e-5);
        assert!(px[1].abs() < 1e-5);
        assert!((px[2] - 0.5).abs() < 1e-5);
    }
}
