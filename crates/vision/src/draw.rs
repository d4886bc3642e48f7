//! Rasterization helpers used by the synthetic scene renderer.
//!
//! The EPFL/Graz datasets are replaced by rendered scenes (see `eecs-scene`);
//! these primitives draw backgrounds, furniture clutter, and human sprites.

use crate::image::RgbImage;
use rand::rngs::StdRng;
use rand::RngExt;

/// Fills the axis-aligned rectangle `[x0, x1) × [y0, y1)` (clipped to the
/// image) with a constant color.
pub fn fill_rect(img: &mut RgbImage, x0: i64, y0: i64, x1: i64, y1: i64, rgb: [f32; 3]) {
    fill_rows(img, x0, y0, x1, y1, |_| rgb);
}

/// Fills the clipped rectangle `[x0, x1) × [y0, y1)` one row slice per
/// channel at a time, in the color `color(y)` of each row `y`.
fn fill_rows(
    img: &mut RgbImage,
    x0: i64,
    y0: i64,
    x1: i64,
    y1: i64,
    color: impl Fn(i64) -> [f32; 3],
) {
    let (w, h) = (img.width() as i64, img.height() as i64);
    let (xa, xb) = (x0.clamp(0, w) as usize, x1.clamp(0, w) as usize);
    let (ya, yb) = (y0.clamp(0, h), y1.clamp(0, h));
    if xa >= xb {
        return;
    }
    let w = w as usize;
    for y in ya..yb {
        let rgb = color(y);
        let row = y as usize * w;
        for (chan, v) in [&mut img.r, &mut img.g, &mut img.b].into_iter().zip(rgb) {
            chan.as_mut_slice()[row + xa..row + xb].fill(v);
        }
    }
}

/// Fills an axis-aligned ellipse centered at `(cx, cy)` with semi-axes
/// `(rx, ry)`, clipped to the image.
pub fn fill_ellipse(img: &mut RgbImage, cx: f64, cy: f64, rx: f64, ry: f64, rgb: [f32; 3]) {
    if rx <= 0.0 || ry <= 0.0 {
        return;
    }
    let (w, h) = (img.width() as i64, img.height() as i64);
    let x0 = ((cx - rx).floor() as i64).clamp(0, w);
    let x1 = ((cx + rx).ceil() as i64).clamp(0, w);
    let y0 = ((cy - ry).floor() as i64).clamp(0, h);
    let y1 = ((cy + ry).ceil() as i64).clamp(0, h);
    for y in y0..y1 {
        for x in x0..x1 {
            let dx = (x as f64 + 0.5 - cx) / rx;
            let dy = (y as f64 + 0.5 - cy) / ry;
            if dx * dx + dy * dy <= 1.0 {
                img.set(x as usize, y as usize, rgb);
            }
        }
    }
}

/// Paints a vertical gradient from `top` color at `y = 0` to `bottom` color
/// at `y = height-1` over the whole image.
pub fn vertical_gradient(img: &mut RgbImage, top: [f32; 3], bottom: [f32; 3]) {
    let (w, h) = (img.width() as i64, img.height() as i64);
    fill_rows(img, 0, 0, w, h, |y| {
        let t = if h > 1 {
            y as f32 / (h - 1) as f32
        } else {
            0.0
        };
        [
            top[0] + t * (bottom[0] - top[0]),
            top[1] + t * (bottom[1] - top[1]),
            top[2] + t * (bottom[2] - top[2]),
        ]
    });
}

/// Adds zero-mean uniform noise of amplitude `amp` to every channel and
/// clamps back to `[0, 1]`. Deterministic given the RNG state: one draw
/// per pixel, in row-major order, shared by its three channels.
pub fn add_noise(img: &mut RgbImage, amp: f32, rng: &mut StdRng) {
    let RgbImage { r, g, b } = img;
    let planes = r
        .as_mut_slice()
        .iter_mut()
        .zip(g.as_mut_slice())
        .zip(b.as_mut_slice());
    for ((pr, pg), pb) in planes {
        let n = rng.random_range(-amp..=amp);
        *pr = (*pr + n).clamp(0.0, 1.0);
        *pg = (*pg + n).clamp(0.0, 1.0);
        *pb = (*pb + n).clamp(0.0, 1.0);
    }
}

/// Draws a furniture item into the bounding box: three vertically split
/// high-contrast panels (strong vertical edges with a person-like aspect
/// ratio — exactly the structure that fools a cleanly trained HOG template,
/// the cause of the paper's low HOG precision on dataset #2) plus one
/// horizontal shelf seam.
pub fn draw_furniture(
    img: &mut RgbImage,
    x0: f64,
    y0: f64,
    x1: f64,
    y1: f64,
    colors: ([f32; 3], [f32; 3]),
) {
    let w = x1 - x0;
    if w < 2.0 || y1 - y0 < 2.0 {
        return;
    }
    let third = w / 3.0;
    fill_rect(
        img,
        x0 as i64,
        y0 as i64,
        (x0 + third) as i64,
        y1 as i64,
        colors.0,
    );
    fill_rect(
        img,
        (x0 + third) as i64,
        y0 as i64,
        (x0 + 2.0 * third) as i64,
        y1 as i64,
        colors.1,
    );
    fill_rect(
        img,
        (x0 + 2.0 * third) as i64,
        y0 as i64,
        x1 as i64,
        y1 as i64,
        colors.0,
    );
    let mid = ((y0 + y1) / 2.0) as i64;
    fill_rect(img, x0 as i64, mid, x1 as i64, mid + 2, [0.08, 0.08, 0.08]);
}

/// Draws a simple human sprite into the bounding box `[x0, x1) × [y0, y1)`:
/// a head ellipse, a torso rectangle in the clothing color, and two legs.
///
/// The sprite is intentionally minimal — what matters for the detectors is
/// that it produces the vertical-edge and head-shoulder gradient structure
/// that real pedestrians produce for HOG/ACF/contour features.
pub fn draw_human(
    img: &mut RgbImage,
    x0: f64,
    y0: f64,
    x1: f64,
    y1: f64,
    clothing: [f32; 3],
    skin: [f32; 3],
) {
    let w = x1 - x0;
    let h = y1 - y0;
    if w <= 1.0 || h <= 2.0 {
        return;
    }
    let cx = (x0 + x1) / 2.0;
    // Head: top 1/6 of the box.
    let head_r = (w * 0.22).min(h / 12.0).max(0.6);
    fill_ellipse(img, cx, y0 + h / 12.0, head_r, h / 12.0, skin);
    // Torso: from 1/6 to 3/5 of the height, ~60% of the width.
    fill_rect(
        img,
        (cx - 0.30 * w) as i64,
        (y0 + h / 6.0) as i64,
        (cx + 0.30 * w) as i64,
        (y0 + 0.60 * h) as i64,
        clothing,
    );
    // Arms: thin strips on either side of the torso.
    fill_rect(
        img,
        (cx - 0.45 * w) as i64,
        (y0 + h / 6.0) as i64,
        (cx - 0.32 * w) as i64,
        (y0 + 0.52 * h) as i64,
        clothing,
    );
    fill_rect(
        img,
        (cx + 0.32 * w) as i64,
        (y0 + h / 6.0) as i64,
        (cx + 0.45 * w) as i64,
        (y0 + 0.52 * h) as i64,
        clothing,
    );
    // Legs: two strips from 3/5 down, darker version of the clothing.
    let legs = [clothing[0] * 0.5, clothing[1] * 0.5, clothing[2] * 0.5];
    fill_rect(
        img,
        (cx - 0.25 * w) as i64,
        (y0 + 0.60 * h) as i64,
        (cx - 0.05 * w) as i64,
        y1 as i64,
        legs,
    );
    fill_rect(
        img,
        (cx + 0.05 * w) as i64,
        (y0 + 0.60 * h) as i64,
        (cx + 0.25 * w) as i64,
        y1 as i64,
        legs,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn fill_rect_clips_to_image() {
        let mut img = RgbImage::new(4, 4);
        fill_rect(&mut img, -10, -10, 100, 2, [1.0, 0.0, 0.0]);
        assert_eq!(img.get(0, 0), [1.0, 0.0, 0.0]);
        assert_eq!(img.get(3, 1), [1.0, 0.0, 0.0]);
        assert_eq!(img.get(0, 2), [0.0, 0.0, 0.0]);
    }

    #[test]
    fn ellipse_center_filled_corner_not() {
        let mut img = RgbImage::new(11, 11);
        fill_ellipse(&mut img, 5.5, 5.5, 4.0, 4.0, [0.0, 1.0, 0.0]);
        assert_eq!(img.get(5, 5), [0.0, 1.0, 0.0]);
        assert_eq!(img.get(0, 0), [0.0, 0.0, 0.0]);
    }

    #[test]
    fn degenerate_ellipse_is_noop() {
        let mut img = RgbImage::new(4, 4);
        fill_ellipse(&mut img, 2.0, 2.0, 0.0, 3.0, [1.0, 1.0, 1.0]);
        assert_eq!(img.get(2, 2), [0.0, 0.0, 0.0]);
    }

    #[test]
    fn gradient_interpolates_endpoints() {
        let mut img = RgbImage::new(2, 5);
        vertical_gradient(&mut img, [0.0, 0.0, 0.0], [1.0, 1.0, 1.0]);
        assert_eq!(img.get(0, 0), [0.0, 0.0, 0.0]);
        assert_eq!(img.get(0, 4), [1.0, 1.0, 1.0]);
        let mid = img.get(0, 2);
        assert!((mid[0] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn noise_stays_in_unit_interval() {
        let mut img = RgbImage::filled(8, 8, [0.5, 0.5, 0.5]);
        let mut rng = StdRng::seed_from_u64(1);
        add_noise(&mut img, 0.9, &mut rng);
        for y in 0..8 {
            for x in 0..8 {
                for c in img.get(x, y) {
                    assert!((0.0..=1.0).contains(&c));
                }
            }
        }
    }

    #[test]
    fn noise_changes_pixels() {
        let mut img = RgbImage::filled(8, 8, [0.5, 0.5, 0.5]);
        let before = img.clone();
        let mut rng = StdRng::seed_from_u64(2);
        add_noise(&mut img, 0.1, &mut rng);
        assert_ne!(img, before);
    }

    #[test]
    fn human_sprite_touches_torso_and_head() {
        let mut img = RgbImage::new(32, 64);
        draw_human(
            &mut img,
            4.0,
            2.0,
            28.0,
            62.0,
            [0.2, 0.2, 0.9],
            [0.9, 0.7, 0.6],
        );
        // Torso center should be clothing-colored.
        assert_eq!(img.get(16, 25), [0.2, 0.2, 0.9]);
        // Head region should be skin-colored near the top center.
        assert_eq!(img.get(16, 6), [0.9, 0.7, 0.6]);
        // Far corner untouched.
        assert_eq!(img.get(0, 63), [0.0, 0.0, 0.0]);
    }

    #[test]
    fn tiny_human_box_is_noop() {
        let mut img = RgbImage::new(8, 8);
        draw_human(
            &mut img,
            1.0,
            1.0,
            1.5,
            2.0,
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
        );
        assert_eq!(img, RgbImage::new(8, 8));
    }
}
