//! The row-slice raster kernels against their per-pixel definitions, bit
//! for bit.
//!
//! `fill_rect` and `vertical_gradient` fill whole row slices of each
//! channel, and `add_noise` walks the three planes in one zipped pass.
//! The oracles here are the per-pixel loops they replaced: clip, then
//! `set` one pixel at a time, drawing one noise sample per pixel in
//! row-major order. Every rendered frame goes through these
//! kernels, so the goldens depend on their exact bits.

use eecs_vision::draw::{add_noise, fill_rect, vertical_gradient};
use eecs_vision::image::{GrayImage, RgbImage};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, RngExt, SeedableRng};

fn fill_rect_oracle(img: &mut RgbImage, x0: i64, y0: i64, x1: i64, y1: i64, rgb: [f32; 3]) {
    let (w, h) = (img.width() as i64, img.height() as i64);
    for y in y0.clamp(0, h)..y1.clamp(0, h) {
        for x in x0.clamp(0, w)..x1.clamp(0, w) {
            img.set(x as usize, y as usize, rgb);
        }
    }
}

fn vertical_gradient_oracle(img: &mut RgbImage, top: [f32; 3], bottom: [f32; 3]) {
    let (w, h) = (img.width(), img.height());
    for y in 0..h {
        let t = if h > 1 {
            y as f32 / (h - 1) as f32
        } else {
            0.0
        };
        let rgb = [
            top[0] + t * (bottom[0] - top[0]),
            top[1] + t * (bottom[1] - top[1]),
            top[2] + t * (bottom[2] - top[2]),
        ];
        for x in 0..w {
            img.set(x, y, rgb);
        }
    }
}

fn add_noise_oracle(img: &mut RgbImage, amp: f32, rng: &mut StdRng) {
    for y in 0..img.height() {
        for x in 0..img.width() {
            let [r, g, b] = img.get(x, y);
            let n = rng.random_range(-amp..=amp);
            img.set(
                x,
                y,
                [
                    (r + n).clamp(0.0, 1.0),
                    (g + n).clamp(0.0, 1.0),
                    (b + n).clamp(0.0, 1.0),
                ],
            );
        }
    }
}

const MAX_SIDE: usize = 24;

/// A `w × h` image whose planes take their values from `pixels`; the
/// values reach past `[0, 1]` so both noise clamps fire.
fn image(w: usize, h: usize, pixels: &[f32]) -> RgbImage {
    let n = w * h;
    let plane = |k: usize| GrayImage::from_vec(w, h, pixels[k * n..(k + 1) * n].to_vec());
    RgbImage {
        r: plane(0),
        g: plane(1),
        b: plane(2),
    }
}

fn pixel_strategy() -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-0.25..1.25f32, 3 * MAX_SIDE * MAX_SIDE)
}

fn bits(img: &RgbImage) -> Vec<u32> {
    [&img.r, &img.g, &img.b]
        .into_iter()
        .flat_map(|c| c.as_slice().iter().map(|v| v.to_bits()))
        .collect()
}

/// Rect corners well past every side of the image: clipped, negative,
/// inverted and empty rectangles all come up.
fn corner() -> std::ops::Range<i64> {
    -(MAX_SIDE as i64)..2 * MAX_SIDE as i64
}

#[test]
fn degenerate_rects_match_the_oracle() {
    let rgb = [0.9, 0.1, 0.4];
    for (w, h) in [(1, 1), (1, 5), (5, 1), (4, 3)] {
        let src = image(w, h, &vec![0.5; 3 * w * h]);
        for (x0, y0, x1, y1) in [
            (0, 0, 0, 0),
            (2, 2, 2, 5),
            (3, 0, 1, 1),
            (0, 3, 1, 1),
            (-5, -5, -1, -1),
            (9, 9, 12, 12),
            (-5, -5, 50, 50),
            (0, 0, 1, 1),
        ] {
            let (mut got, mut want) = (src.clone(), src.clone());
            fill_rect(&mut got, x0, y0, x1, y1, rgb);
            fill_rect_oracle(&mut want, x0, y0, x1, y1, rgb);
            assert_eq!(bits(&got), bits(&want), "{w}x{h} fill {x0},{y0},{x1},{y1}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn fill_rect_matches_the_oracle(
        (w, h) in (1..MAX_SIDE + 1, 1..MAX_SIDE + 1),
        (x0, y0, x1, y1) in (corner(), corner(), corner(), corner()),
        rgb in (0.0..1.0f32, 0.0..1.0f32, 0.0..1.0f32),
        pixels in pixel_strategy(),
    ) {
        let rgb = [rgb.0, rgb.1, rgb.2];
        let mut got = image(w, h, &pixels);
        let mut want = got.clone();
        fill_rect(&mut got, x0, y0, x1, y1, rgb);
        fill_rect_oracle(&mut want, x0, y0, x1, y1, rgb);
        prop_assert_eq!(bits(&got), bits(&want));
    }

    #[test]
    fn vertical_gradient_matches_the_oracle(
        (w, h) in (1..MAX_SIDE + 1, 1..MAX_SIDE + 1),
        top in (0.0..1.0f32, 0.0..1.0f32, 0.0..1.0f32),
        bottom in (0.0..1.0f32, 0.0..1.0f32, 0.0..1.0f32),
        pixels in pixel_strategy(),
    ) {
        let (top, bottom) = ([top.0, top.1, top.2], [bottom.0, bottom.1, bottom.2]);
        let mut got = image(w, h, &pixels);
        let mut want = got.clone();
        vertical_gradient(&mut got, top, bottom);
        vertical_gradient_oracle(&mut want, top, bottom);
        prop_assert_eq!(bits(&got), bits(&want));
    }

    #[test]
    fn add_noise_matches_the_oracle(
        (w, h) in (1..MAX_SIDE + 1, 1..MAX_SIDE + 1),
        amp in 0.0..1.5f32,
        seed in 0..u64::MAX,
        pixels in pixel_strategy(),
    ) {
        let mut got = image(w, h, &pixels);
        let mut want = got.clone();
        let (mut rng_got, mut rng_want) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
        add_noise(&mut got, amp, &mut rng_got);
        add_noise_oracle(&mut want, amp, &mut rng_want);
        prop_assert_eq!(bits(&got), bits(&want));
        // Both consumed the same number of draws.
        prop_assert_eq!(rng_got.next_u64(), rng_want.next_u64());
    }
}
