//! `resize_gray` against the per-pixel bilinear definition, bit for bit.
//!
//! The detectors' reference scans share `resize_gray` with their fast
//! paths, so the detector equivalence battery cannot see a change to it.
//! The oracle here samples every output pixel on its own: its sample
//! position, `floor`, clamped taps and three lerps.

use eecs_vision::image::GrayImage;
use eecs_vision::resize::resize_gray;
use proptest::prelude::*;

/// Center-aligned bilinear sample of `src` at `(fx, fy)`.
fn bilinear(src: &GrayImage, fx: f32, fy: f32) -> f32 {
    let x0 = fx.floor() as isize;
    let y0 = fy.floor() as isize;
    let tx = fx - x0 as f32;
    let ty = fy - y0 as f32;
    let p00 = src.get_clamped(x0, y0);
    let p10 = src.get_clamped(x0 + 1, y0);
    let p01 = src.get_clamped(x0, y0 + 1);
    let p11 = src.get_clamped(x0 + 1, y0 + 1);
    let top = p00 + tx * (p10 - p00);
    let bot = p01 + tx * (p11 - p01);
    top + ty * (bot - top)
}

/// Every output pixel sampled independently.
fn resize_oracle(src: &GrayImage, new_w: usize, new_h: usize) -> Vec<f32> {
    let sx = src.width() as f32 / new_w as f32;
    let sy = src.height() as f32 / new_h as f32;
    let mut out = Vec::with_capacity(new_w * new_h);
    for y in 0..new_h {
        for x in 0..new_w {
            let fx = (x as f32 + 0.5) * sx - 0.5;
            let fy = (y as f32 + 0.5) * sy - 0.5;
            out.push(bilinear(src, fx, fy));
        }
    }
    out
}

fn assert_matches_oracle(src: &GrayImage, new_w: usize, new_h: usize) {
    let got = resize_gray(src, new_w, new_h).unwrap();
    assert_eq!((got.width(), got.height()), (new_w, new_h));
    let want = resize_oracle(src, new_w, new_h);
    for (i, (g, w)) in got.as_slice().iter().zip(&want).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{}x{} -> {new_w}x{new_h}, pixel ({}, {})",
            src.width(),
            src.height(),
            i % new_w,
            i / new_w
        );
    }
}

/// A `w × h` image of `pixels`' first `w · h` values.
fn image(w: usize, h: usize, pixels: &[f32]) -> GrayImage {
    GrayImage::from_vec(w, h, pixels[..w * h].to_vec())
}

const MAX_SIDE: usize = 48;

#[test]
fn pyramid_shaped_resizes_match_the_oracle() {
    let src = GrayImage::from_fn(45, 37, |x, y| ((x * 31 + y * 17) % 23) as f32 / 23.0);
    let (w, h) = (45.0f64, 37.0f64);
    // ×1.45 upscale, mild and deep downscales, and the identity.
    for scale in [1.45, 1.35, 0.82, 0.5, 0.13, 0.05, 1.0] {
        let nw = ((w * scale).round() as usize).max(1);
        let nh = ((h * scale).round() as usize).max(1);
        assert_matches_oracle(&src, nw, nh);
    }
}

#[test]
fn identity_returns_the_source() {
    let src = GrayImage::from_fn(13, 7, |x, y| ((x ^ y) % 5) as f32 / 5.0);
    let out = resize_gray(&src, 13, 7).unwrap();
    assert_eq!(out, src);
    assert_matches_oracle(&src, 13, 7);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn random_resizes_match_the_oracle(
        (w, h, nw, nh) in (1..MAX_SIDE, 1..MAX_SIDE, 1..2 * MAX_SIDE, 1..2 * MAX_SIDE),
        pixels in prop::collection::vec(0.0..1.0f32, MAX_SIDE * MAX_SIDE),
    ) {
        let src = image(w, h, &pixels);
        assert_matches_oracle(&src, nw, nh);
        // ×1.45 upscale and a deep downscale of the same source.
        assert_matches_oracle(&src, w + w * 9 / 20, h + h * 9 / 20);
        assert_matches_oracle(&src, w.div_ceil(7), h.div_ceil(7));
        // The identity path skips sampling; it must agree all the same.
        assert_matches_oracle(&src, w, h);
    }

    #[test]
    fn single_row_and_column_sources_match_the_oracle(
        (n, nw, nh) in (1..MAX_SIDE, 1..2 * MAX_SIDE, 1..2 * MAX_SIDE),
        pixels in prop::collection::vec(0.0..1.0f32, MAX_SIDE),
    ) {
        // Both taps of the one-pixel axis clamp onto the same source line.
        assert_matches_oracle(&image(1, n, &pixels), nw, nh);
        assert_matches_oracle(&image(n, 1, &pixels), nw, nh);
    }
}
