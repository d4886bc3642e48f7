//! The single-pass binning kernels against the two-pass definition.
//!
//! `HogCellGrid::compute`, `AcfChannels::compute` and `pooled_hog` bin
//! gradient orientations without materialising a `GradientField`. The
//! oracles below are the two-pass code they replaced, written from the
//! public `GradientField::compute` + `orientation_bin`; every output value
//! must match under `to_bits`.

use eecs_vision::channels::{AcfChannels, CHANNEL_COUNT, ORIENT_BINS};
use eecs_vision::gradient::GradientField;
use eecs_vision::hog::{pooled_hog, HogCellGrid, HogConfig};
use eecs_vision::image::{GrayImage, RgbImage};
use eecs_vision::resize::box_downsample;
use proptest::prelude::*;

/// Cell histograms, cell by cell, from a materialised gradient field.
fn oracle_hog_cells(img: &GrayImage, config: HogConfig) -> Vec<f32> {
    let cells_x = img.width() / config.cell_size;
    let cells_y = img.height() / config.cell_size;
    let grad = GradientField::compute(img);
    let mut hist = vec![0.0f32; cells_x * cells_y * config.bins];
    for cy in 0..cells_y {
        for cx in 0..cells_x {
            let base = (cy * cells_x + cx) * config.bins;
            for dy in 0..config.cell_size {
                for dx in 0..config.cell_size {
                    let x = cx * config.cell_size + dx;
                    let y = cy * config.cell_size + dy;
                    let mag = grad.magnitude.get(x, y);
                    if mag == 0.0 {
                        continue;
                    }
                    hist[base + grad.orientation_bin(x, y, config.bins)] += mag;
                }
            }
        }
    }
    hist
}

/// The ten ACF channels from full-resolution orientation planes.
fn oracle_acf(img: &RgbImage, shrink: usize) -> Vec<GrayImage> {
    let gray = img.to_gray();
    let grad = GradientField::compute(&gray);
    let (w, h) = (gray.width(), gray.height());
    let mut orient = vec![GrayImage::new(w, h); ORIENT_BINS];
    for y in 0..h {
        for x in 0..w {
            let mag = grad.magnitude.get(x, y);
            if mag == 0.0 {
                continue;
            }
            orient[grad.orientation_bin(x, y, ORIENT_BINS)].set(x, y, mag);
        }
    }
    [&img.r, &img.g, &img.b, &grad.magnitude]
        .into_iter()
        .chain(&orient)
        .map(|c| box_downsample(c, shrink).unwrap())
        .collect()
}

/// The pooled descriptor from a materialised gradient field.
fn oracle_pooled(img: &GrayImage, grid_x: usize, grid_y: usize, bins: usize) -> Vec<f64> {
    let grad = GradientField::compute(img);
    let mut out = vec![0.0f64; grid_x * grid_y * bins];
    let (w, h) = (img.width(), img.height());
    for y in 0..h {
        let ty = (y * grid_y / h).min(grid_y - 1);
        for x in 0..w {
            let tx = (x * grid_x / w).min(grid_x - 1);
            let mag = grad.magnitude.get(x, y) as f64;
            if mag == 0.0 {
                continue;
            }
            out[(ty * grid_x + tx) * bins + grad.orientation_bin(x, y, bins)] += mag;
        }
    }
    let total: f64 = out.iter().sum();
    if total > 1e-12 {
        for v in &mut out {
            *v /= total;
        }
    }
    out
}

/// A test image of one of six families. The axis-aligned families put
/// whole rows and columns of gradients on the axes (`gx == 0` or
/// `gy == 0`) and, for the 1:1 ramp, exactly on the 45° boundary of
/// every bin count divisible by four.
fn image(kind: usize, w: usize, h: usize, seed: u64) -> GrayImage {
    let mut state = seed;
    let mut noise = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 40) as f32 / (1u64 << 24) as f32
    };
    let a = 1 + (seed % 5) as usize;
    GrayImage::from_fn(w, h, |x, y| match kind {
        0 => noise(),
        1 => (x * a + y) as f32 / 64.0,
        2 => (x + y) as f32 / 32.0,
        3 => ((x / a) % 2) as f32,
        4 => ((y / a) % 2) as f32,
        _ => ((x / a + y / a) % 2) as f32 * 0.75,
    })
}

fn rgb_image(kind: usize, w: usize, h: usize, seed: u64) -> RgbImage {
    RgbImage {
        r: image(kind, w, h, seed),
        g: image((kind + 1) % 6, w, h, seed ^ 1),
        b: image((kind + 3) % 6, w, h, seed ^ 2),
    }
}

fn assert_bits_f32(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{what}[{i}]: {g} vs {w}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn hog_cells_match_two_pass_oracle(
        kind in 0..6usize,
        w in 4..48usize,
        h in 4..48usize,
        seed in 0..1_000_000u64,
        cell_size in 1..5usize,
        bins_pick in 0..7usize,
    ) {
        let bins = [1, 2, 3, 4, 6, 9, 16][bins_pick];
        let img = image(kind, w, h, seed);
        let config = HogConfig { cell_size, block_cells: 2, bins };
        let grid = HogCellGrid::compute(&img, config).unwrap();
        let mut got = Vec::new();
        for cy in 0..grid.cells_y() {
            for cx in 0..grid.cells_x() {
                got.extend_from_slice(grid.cell(cx, cy));
            }
        }
        assert_bits_f32(&got, &oracle_hog_cells(&img, config), "hog cells");
    }

    #[test]
    fn acf_channels_match_two_pass_oracle(
        kind in 0..6usize,
        w in 4..48usize,
        h in 4..48usize,
        seed in 0..1_000_000u64,
        shrink in 1..5usize,
    ) {
        let img = rgb_image(kind, w, h, seed);
        let got = AcfChannels::compute(&img, shrink).unwrap();
        let want = oracle_acf(&img, shrink);
        prop_assert_eq!(want.len(), CHANNEL_COUNT);
        for (c, want) in want.iter().enumerate() {
            prop_assert_eq!((got.width(), got.height()), (want.width(), want.height()));
            assert_bits_f32(got.channel(c).as_slice(), want.as_slice(), "acf channel");
        }
    }

    #[test]
    fn pooled_hog_matches_two_pass_oracle(
        kind in 0..6usize,
        w in 4..48usize,
        h in 5..48usize,
        seed in 0..1_000_000u64,
        grid in 1..5usize,
        bins_pick in 0..7usize,
    ) {
        let bins = [1, 2, 3, 4, 6, 9, 16][bins_pick];
        let img = image(kind, w, h, seed);
        let got = pooled_hog(&img, grid, grid + 1, bins).unwrap();
        let want = oracle_pooled(&img, grid, grid + 1, bins);
        prop_assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            prop_assert_eq!(g.to_bits(), w.to_bits());
        }
    }
}
