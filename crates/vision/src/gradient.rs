//! Image gradients: Sobel filters, magnitude and orientation.

use crate::image::GrayImage;

/// Per-pixel gradient magnitude and orientation of an image.
///
/// Orientation is *unsigned* (mapped into `[0, π)`), the convention used by
/// both HOG and ACF channel features.
#[derive(Debug, Clone)]
pub struct GradientField {
    /// Gradient magnitude per pixel.
    pub magnitude: GrayImage,
    /// Unsigned orientation per pixel, radians in `[0, π)`.
    pub orientation: GrayImage,
}

impl GradientField {
    /// Computes Sobel gradients of `img` with clamp-to-edge borders.
    pub fn compute(img: &GrayImage) -> GradientField {
        let w = img.width();
        let h = img.height();
        let mut magnitude = GrayImage::new(w, h);
        let mut orientation = GrayImage::new(w, h);
        for y in 0..h {
            for x in 0..w {
                let (gx, gy) = sobel_at(img, x as isize, y as isize);
                let mag = (gx * gx + gy * gy).sqrt();
                let mut theta = (gy).atan2(gx); // [-π, π]
                if theta < 0.0 {
                    theta += std::f32::consts::PI; // unsigned: [0, π)
                }
                if theta >= std::f32::consts::PI {
                    theta -= std::f32::consts::PI;
                }
                magnitude.set(x, y, mag);
                orientation.set(x, y, theta);
            }
        }
        GradientField {
            magnitude,
            orientation,
        }
    }

    /// Quantizes the orientation at `(x, y)` into one of `bins` equal
    /// sectors of `[0, π)`.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0` or the coordinates are out of bounds.
    pub fn orientation_bin(&self, x: usize, y: usize, bins: usize) -> usize {
        assert!(bins > 0, "bins must be positive");
        let theta = self.orientation.get(x, y);
        let bin = (theta / std::f32::consts::PI * bins as f32) as usize;
        bin.min(bins - 1)
    }
}

/// Sobel response at a pixel, clamped borders. Returns `(gx, gy)`.
fn sobel_at(img: &GrayImage, x: isize, y: isize) -> (f32, f32) {
    let p = |dx: isize, dy: isize| img.get_clamped(x + dx, y + dy);
    let gx = (p(1, -1) + 2.0 * p(1, 0) + p(1, 1)) - (p(-1, -1) + 2.0 * p(-1, 0) + p(-1, 1));
    let gy = (p(-1, 1) + 2.0 * p(0, 1) + p(1, 1)) - (p(-1, -1) + 2.0 * p(0, -1) + p(1, -1));
    (gx, gy)
}

/// Angular margin, in radians, outside of which a cross-product sector
/// decision provably equals the `atan2f` reference bin (DESIGN.md §14,
/// "Exact sector binning"). The reference's own error — `atan2f`, the
/// fold by the `f32` π, the division and the multiply — stays below
/// `bins × 2.3e-7` plus `atan2f`'s error over π in bin units; this margin
/// is `bins × 3.2e-6` bin units, so it still holds for an `atan2f` that
/// is off by ~39 ulps (glibc documents at most 2).
const SECTOR_MARGIN: f64 = 1e-5;

/// The reference orientation bin of the gradient `(gx, gy)`: exactly
/// what [`GradientField::orientation_bin`] returns for a pixel with
/// those Sobel responses (same `atan2f`, same fold, same quantization).
fn reference_bin(gx: f32, gy: f32, bins: usize) -> usize {
    let mut theta = gy.atan2(gx);
    if theta < 0.0 {
        theta += std::f32::consts::PI;
    }
    if theta >= std::f32::consts::PI {
        theta -= std::f32::consts::PI;
    }
    ((theta / std::f32::consts::PI * bins as f32) as usize).min(bins - 1)
}

/// Orientation binning without `atan2f` wherever a bin can be proven.
///
/// Sector `b` of `[0, π)` lies between the boundaries `θ_b = bπ/bins` and
/// `θ_{b+1}`. After folding `(gx, gy)` into the upper half-plane, the
/// sign of the `f64` cross product of each boundary's unit vector with
/// the gradient says on which side of the boundary the gradient lies:
/// counting positive crosses gives a candidate sector, and two more
/// crosses check that the gradient sits at least [`SECTOR_MARGIN`]
/// inside it. Three rules make every answer equal [`reference_bin`]:
///
/// - the axis cases (`gx == 0` or `gy == 0`, either sign of zero) map to
///   two constant bins taken from the reference expression;
/// - a gradient within the margin of a boundary — or non-finite — takes
///   the reference expression itself;
/// - every other gradient takes the cross-product sector.
#[derive(Debug)]
pub(crate) struct SectorBinner {
    bins: usize,
    /// `(cos θ_k, sin θ_k)` for `k = 0..=bins`; both end boundaries are
    /// stored exactly, as `(1, 0)` and `(-1, 0)`.
    bounds: Vec<(f64, f64)>,
    /// The bin of every `gy == ±0` gradient with a non-NaN `gx`.
    horizontal: usize,
    /// The bin of every `gx == ±0` gradient with a nonzero, non-NaN `gy`.
    vertical: usize,
}

impl SectorBinner {
    /// The classifier for `bins` equal sectors of `[0, π)`.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0`.
    pub(crate) fn new(bins: usize) -> SectorBinner {
        assert!(bins > 0, "bins must be positive");
        let bounds = (0..=bins)
            .map(|k| match k {
                0 => (1.0, 0.0),
                k if k == bins => (-1.0, 0.0),
                k => {
                    let (sin, cos) = (k as f64 * std::f64::consts::PI / bins as f64).sin_cos();
                    (cos, sin)
                }
            })
            .collect();
        SectorBinner {
            bins,
            bounds,
            horizontal: reference_bin(1.0, 0.0, bins),
            vertical: reference_bin(0.0, 1.0, bins),
        }
    }

    /// The orientation bin of the gradient `(gx, gy)`, equal to
    /// [`reference_bin`] for every pair of `f32` values.
    #[inline]
    pub(crate) fn bin(&self, gx: f32, gy: f32) -> usize {
        if gy == 0.0 && !gx.is_nan() {
            return self.horizontal;
        }
        if gx == 0.0 && !gy.is_nan() {
            return self.vertical;
        }
        // Unsigned orientation: fold into the upper half-plane. The f64
        // products of f32 inputs neither overflow nor lose the subnormal
        // range, so every cross below is accurate to ~1e-16 relative.
        let (ux, uy) = if gy < 0.0 {
            (-f64::from(gx), -f64::from(gy))
        } else {
            (f64::from(gx), f64::from(gy))
        };
        let cross = |(cos, sin): (f64, f64)| cos * uy - sin * ux;
        let bin = self.bounds[1..self.bins]
            .iter()
            .map(|&b| usize::from(cross(b) > 0.0))
            .sum::<usize>();
        // |ux| + uy ≥ |u|, so clearing this margin puts the gradient at
        // least SECTOR_MARGIN radians inside the sector. NaN and infinite
        // inputs fail the comparisons and fall back.
        let margin = SECTOR_MARGIN * (ux.abs() + uy);
        if cross(self.bounds[bin]) > margin && -cross(self.bounds[bin + 1]) > margin {
            bin
        } else {
            reference_bin(gx, gy, self.bins)
        }
    }
}

/// Fused Sobel and orientation binning over the top-left
/// `width × height` region of `img`.
///
/// Calls `visit(y, magnitude, bins)` once per region row, top to bottom,
/// with that row's `width` magnitudes and bins. Magnitudes are
/// bit-identical to [`GradientField::compute`]'s (same taps, same
/// clamp-to-edge borders, same operation order), and where a magnitude
/// is nonzero its bin equals [`GradientField::orientation_bin`]; the bin
/// of a zero-magnitude pixel is unspecified, so callers skip those
/// pixels exactly as the two-pass code did.
///
/// # Panics
///
/// Panics if `bins == 0` or the region exceeds the image.
pub(crate) fn binned_gradient_rows(
    img: &GrayImage,
    width: usize,
    height: usize,
    bins: usize,
    mut visit: impl FnMut(usize, &[f32], &[usize]),
) {
    assert!(
        width <= img.width() && height <= img.height(),
        "region exceeds the image"
    );
    let binner = SectorBinner::new(bins);
    let (w, h) = (img.width(), img.height());
    let px = img.as_slice();
    let mut gx = vec![0.0f32; width];
    let mut gy = vec![0.0f32; width];
    let mut mag = vec![0.0f32; width];
    let mut bin = vec![0usize; width];
    // Columns 1..inner have both neighbours inside the image; the rest
    // clamp to the edge as `get_clamped` does.
    let inner = width.min(w - 1).max(1);
    for y in 0..height {
        let row = |yy: usize| &px[yy * w..(yy + 1) * w];
        let (r0, r1, r2) = (row(y.saturating_sub(1)), row(y), row((y + 1).min(h - 1)));
        // `sobel_at`'s expressions, term for term, with rows and columns
        // already clamped.
        let mut sobel = |x: usize, xm: usize, xp: usize| {
            gx[x] = (r0[xp] + 2.0 * r1[xp] + r2[xp]) - (r0[xm] + 2.0 * r1[xm] + r2[xm]);
            gy[x] = (r2[xm] + 2.0 * r2[x] + r2[xp]) - (r0[xm] + 2.0 * r0[x] + r0[xp]);
        };
        for x in (0..width.min(1)).chain(inner..width) {
            sobel(x, x.saturating_sub(1), (x + 1).min(w - 1));
        }
        if inner > 1 {
            let n = inner - 1;
            let (a, b, c) = (&r0[..n + 2], &r1[..n + 2], &r2[..n + 2]);
            let (gx, gy) = (&mut gx[1..inner], &mut gy[1..inner]);
            for i in 0..n {
                gx[i] = (a[i + 2] + 2.0 * b[i + 2] + c[i + 2]) - (a[i] + 2.0 * b[i] + c[i]);
                gy[i] = (c[i] + 2.0 * c[i + 1] + c[i + 2]) - (a[i] + 2.0 * a[i + 1] + a[i + 2]);
            }
        }
        for ((m, &gx), &gy) in mag.iter_mut().zip(&gx).zip(&gy) {
            *m = (gx * gx + gy * gy).sqrt();
        }
        for x in 0..width {
            if mag[x] != 0.0 {
                bin[x] = binner.bin(gx[x], gy[x]);
            }
        }
        visit(y, &mag, &bin);
    }
}

/// Sum of gradient magnitude over the whole image — a cheap "edge energy"
/// statistic used by scene-difference heuristics.
pub fn edge_energy(img: &GrayImage) -> f64 {
    let g = GradientField::compute(img);
    g.magnitude.as_slice().iter().map(|&m| m as f64).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_image_has_zero_gradient() {
        let img = GrayImage::filled(8, 8, 0.4);
        let g = GradientField::compute(&img);
        assert!(g.magnitude.as_slice().iter().all(|&m| m.abs() < 1e-6));
    }

    #[test]
    fn vertical_edge_has_horizontal_gradient() {
        // Left half dark, right half bright → gradient along x (θ ≈ 0).
        let img = GrayImage::from_fn(8, 8, |x, _| if x < 4 { 0.0 } else { 1.0 });
        let g = GradientField::compute(&img);
        // At the edge column the magnitude is large...
        assert!(g.magnitude.get(4, 4) > 1.0);
        // ...and the orientation is near 0 or π (unsigned horizontal).
        let theta = g.orientation.get(4, 4);
        assert!(
            !(0.2..=std::f32::consts::PI - 0.2).contains(&theta),
            "theta={theta}"
        );
    }

    #[test]
    fn horizontal_edge_has_vertical_gradient() {
        let img = GrayImage::from_fn(8, 8, |_, y| if y < 4 { 0.0 } else { 1.0 });
        let g = GradientField::compute(&img);
        let theta = g.orientation.get(4, 4);
        assert!(
            (theta - std::f32::consts::FRAC_PI_2).abs() < 0.2,
            "theta={theta}"
        );
    }

    #[test]
    fn orientation_in_range() {
        let img = GrayImage::from_fn(16, 16, |x, y| ((x * 3 + y * 7) % 5) as f32 / 5.0);
        let g = GradientField::compute(&img);
        for &theta in g.orientation.as_slice() {
            assert!((0.0..std::f32::consts::PI).contains(&theta));
        }
    }

    #[test]
    fn orientation_bins_cover_all_indices() {
        let img = GrayImage::from_fn(8, 8, |x, y| if x + y < 8 { 0.0 } else { 1.0 });
        let g = GradientField::compute(&img);
        for y in 0..8 {
            for x in 0..8 {
                let b = g.orientation_bin(x, y, 6);
                assert!(b < 6);
            }
        }
    }

    #[test]
    fn diagonal_edge_in_diagonal_bin() {
        // Anti-diagonal edge: gradient direction 45°, bin index ~ bins/4.
        let img = GrayImage::from_fn(16, 16, |x, y| if x + y < 16 { 0.0 } else { 1.0 });
        let g = GradientField::compute(&img);
        let b = g.orientation_bin(8, 8, 4);
        assert_eq!(b, 1, "45° should fall in the second of four bins");
    }

    /// The binning definition, restated from `GradientField::compute` and
    /// `orientation_bin` so the classifier is checked against the
    /// original expression rather than against its own fallback.
    fn oracle_bin(gx: f32, gy: f32, bins: usize) -> usize {
        let mut theta = (gy).atan2(gx);
        if theta < 0.0 {
            theta += std::f32::consts::PI;
        }
        if theta >= std::f32::consts::PI {
            theta -= std::f32::consts::PI;
        }
        let bin = (theta / std::f32::consts::PI * bins as f32) as usize;
        bin.min(bins - 1)
    }

    /// Every `bins` a caller can pass is at least 1; cover the small ones
    /// densely (HOG uses 9, ACF 6, the video feature 8) and a few large.
    fn bin_counts() -> impl Iterator<Item = usize> {
        (1..=32).chain([36, 64, 100, 180, 360, 1000])
    }

    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn assert_classifies(binner: &SectorBinner, bins: usize, gx: f32, gy: f32) {
        assert_eq!(
            binner.bin(gx, gy),
            oracle_bin(gx, gy, bins),
            "bins={bins} gx={gx:e} ({:#010x}) gy={gy:e} ({:#010x})",
            gx.to_bits(),
            gy.to_bits()
        );
    }

    #[test]
    fn sector_bins_match_atan2f_on_random_bit_patterns() {
        let mut state = 17u64;
        for bins in bin_counts() {
            let binner = SectorBinner::new(bins);
            for _ in 0..5_000 {
                let r = next(&mut state);
                let (a, b) = (r as u32, (r >> 32) as u32);
                // Raw patterns (NaN and infinities included), then the same
                // sign and mantissa bits forced to subnormal, and to
                // magnitudes of 2^125 and beyond.
                let raw = (f32::from_bits(a), f32::from_bits(b));
                let sub = (
                    f32::from_bits(a & 0x807F_FFFF),
                    f32::from_bits(b & 0x807F_FFFF),
                );
                let huge = (
                    f32::from_bits(a | 0x7E00_0000),
                    f32::from_bits(b | 0x7E00_0000),
                );
                let mixed = (sub.0, huge.1);
                for (gx, gy) in [raw, sub, huge, mixed, (mixed.1, mixed.0)] {
                    assert_classifies(&binner, bins, gx, gy);
                }
            }
        }
    }

    #[test]
    fn sector_bins_match_atan2f_next_to_every_boundary() {
        // Directions a few ulps either side of every kπ/bins, at radii from
        // subnormal to huge, in all four quadrants.
        for bins in bin_counts() {
            let binner = SectorBinner::new(bins);
            for k in 0..=bins {
                let theta = k as f64 * std::f64::consts::PI / bins as f64;
                for dtheta in [-3e-5, -1e-5, -1e-7, 0.0, 1e-7, 1e-5, 3e-5] {
                    let (sin, cos) = (theta + dtheta).sin_cos();
                    for r in [1e-42, 0.75, 1e20] {
                        let (gx, gy) = ((r * cos) as f32, (r * sin) as f32);
                        for ux in -2i32..=2 {
                            for uy in -2i32..=2 {
                                let gx = f32::from_bits(gx.to_bits().wrapping_add_signed(ux));
                                let gy = f32::from_bits(gy.to_bits().wrapping_add_signed(uy));
                                assert_classifies(&binner, bins, gx, gy);
                                assert_classifies(&binner, bins, -gx, -gy);
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn sector_bins_match_atan2f_on_both_axes_and_signed_zeros() {
        let others = [
            1.0f32,
            -1.0,
            f32::MIN_POSITIVE,
            -f32::from_bits(1),
            3e38,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            0.0,
            -0.0,
        ];
        for bins in bin_counts() {
            let binner = SectorBinner::new(bins);
            for zero in [0.0f32, -0.0] {
                for &v in &others {
                    assert_classifies(&binner, bins, zero, v);
                    assert_classifies(&binner, bins, v, zero);
                }
            }
        }
    }

    #[test]
    fn binned_rows_match_the_gradient_field() {
        // The fused pass against `GradientField`, over a whole image (both
        // clamped edge columns), a smaller region (columns read but not
        // binned) and a one-pixel-wide image (both neighbours clamped).
        let img = GrayImage::from_fn(23, 17, |x, y| match (x + 2 * y) % 5 {
            0 => 0.0,
            1 => (x as f32 * 0.37).sin(),
            2 => (x * y) as f32 / 50.0,
            _ => 0.5,
        });
        let column = GrayImage::from_fn(1, 6, |_, y| (y * y) as f32 / 7.0);
        for (img, w, h) in [(&img, 23, 17), (&img, 20, 15), (&column, 1, 6)] {
            let g = GradientField::compute(img);
            for bins in [1, 6, 9] {
                let mut rows = 0;
                binned_gradient_rows(img, w, h, bins, |y, mag, bin| {
                    assert_eq!((mag.len(), bin.len()), (w, w));
                    for x in 0..w {
                        assert_eq!(mag[x].to_bits(), g.magnitude.get(x, y).to_bits());
                        if mag[x] != 0.0 {
                            assert_eq!(bin[x], g.orientation_bin(x, y, bins), "({x},{y})");
                        }
                    }
                    rows += 1;
                });
                assert_eq!(rows, h);
            }
        }
    }

    #[test]
    fn edge_energy_orders_images() {
        let flat = GrayImage::filled(16, 16, 0.5);
        let busy = GrayImage::from_fn(16, 16, |x, _| (x % 2) as f32);
        assert!(edge_energy(&busy) > edge_energy(&flat));
    }
}
