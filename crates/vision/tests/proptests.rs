//! Property-based tests for the vision substrate.

use eecs_vision::gradient::GradientField;
use eecs_vision::hog::{pooled_hog, HogCellGrid, HogConfig};
use eecs_vision::image::{GrayImage, RgbImage};
use eecs_vision::resize::{box_downsample, resize_gray};
use proptest::prelude::*;

fn gray_strategy(w: usize, h: usize) -> impl Strategy<Value = GrayImage> {
    prop::collection::vec(0.0..1.0f32, w * h).prop_map(move |v| GrayImage::from_vec(w, h, v))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn box_downsample_preserves_mean(img in gray_strategy(16, 12)) {
        let down = box_downsample(&img, 4).unwrap();
        // Full blocks partition the image, so the means agree exactly.
        prop_assert!((down.mean() - img.mean()).abs() < 1e-5);
    }

    #[test]
    fn resize_bounds_pixels(img in gray_strategy(10, 10)) {
        let up = resize_gray(&img, 23, 17).unwrap();
        // Bilinear interpolation cannot exceed the input range.
        for &p in up.as_slice() {
            prop_assert!((-1e-6..=1.0 + 1e-6).contains(&(p as f64)));
        }
    }

    #[test]
    fn gradient_orientation_always_in_range(img in gray_strategy(9, 9)) {
        let g = GradientField::compute(&img);
        for &theta in g.orientation.as_slice() {
            prop_assert!((0.0..std::f32::consts::PI).contains(&theta));
        }
        for &m in g.magnitude.as_slice() {
            prop_assert!(m >= 0.0);
        }
    }

    #[test]
    fn hog_descriptor_blocks_bounded(img in gray_strategy(16, 32)) {
        let cfg = HogConfig { cell_size: 4, block_cells: 2, bins: 9 };
        let grid = HogCellGrid::compute(&img, cfg).unwrap();
        let d = grid
            .window_descriptor(0, 0, grid.cells_x(), grid.cells_y())
            .unwrap();
        prop_assert_eq!(d.len(), cfg.descriptor_len(16, 32).unwrap());
        // L2-normalized blocks: every entry within [0, 1].
        for &v in &d {
            prop_assert!((-1e-9..=1.0 + 1e-9).contains(&v));
        }
    }

    #[test]
    fn pooled_hog_is_a_distribution_or_zero(img in gray_strategy(20, 20)) {
        let d = pooled_hog(&img, 3, 3, 6).unwrap();
        let sum: f64 = d.iter().sum();
        prop_assert!(d.iter().all(|&v| v >= 0.0));
        prop_assert!(sum.abs() < 1e-9 || (sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn grayscale_brightness_monotone(v in 0.0..0.5f32) {
        // Scaling an RGB image up never darkens its gray projection.
        let img = RgbImage::filled(4, 4, [v, v * 0.8, v * 0.5]);
        let mut brighter = img.clone();
        brighter.scale_brightness(1.5);
        prop_assert!(brighter.to_gray().mean() >= img.to_gray().mean() - 1e-6);
    }
}
