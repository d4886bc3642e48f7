//! The block-grid scorers against the assemble-then-dot definition.
//!
//! `HogBlockGrid::window_score` and `HogBlockGrid::score_row_into` must
//! return `dot(weights, window_descriptor(..))` bit for bit: the same
//! products, folded left to right from `0.0` in descriptor order. Random
//! layouts, windows, strides and filters; every comparison uses `to_bits`.

use eecs_vision::hog::{HogBlockGrid, HogCellGrid, HogConfig};
use eecs_vision::image::GrayImage;
use proptest::prelude::*;

const SIDE: usize = 40;

/// `LinearSvm::score` without its bias: `((0 + w0·x0) + w1·x1) + …`.
fn dot(weights: &[f64], x: &[f64]) -> f64 {
    weights.iter().zip(x).map(|(w, x)| w * x).sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn scorers_equal_dot_of_the_assembled_descriptor(
        (cell_size, block_cells, bins) in (2..6usize, 1..4usize, 1..14usize),
        (cells_w, cells_h, stride) in (1..9usize, 1..9usize, 1..4usize),
        (width, height) in (2..SIDE, 2..SIDE),
        pixels in prop::collection::vec(0.0..1.0f32, SIDE * SIDE),
        weights in prop::collection::vec(-4.0..4.0f64, 8 * 8 * 9 * 13),
    ) {
        // Sizes down to grids narrower or shorter than one block.
        let img = GrayImage::from_vec(width, height, pixels[..width * height].to_vec());
        let cfg = HogConfig { cell_size, block_cells, bins };
        let Ok(grid) = HogCellGrid::compute(&img, cfg) else {
            return Ok(());
        };
        let blocks = HogBlockGrid::compute(&grid);
        let mut row = Vec::new();
        for cy0 in 0..=grid.cells_y() {
            blocks.score_row_into(cy0, cells_w, cells_h, stride, &weights, &mut row);
            let mut windows = 0;
            for cx0 in (0..=grid.cells_x()).step_by(stride) {
                let Ok(desc) = grid.window_descriptor(cx0, cy0, cells_w, cells_h) else {
                    prop_assert!(blocks.window_score(cx0, cy0, cells_w, cells_h, &weights).is_none());
                    continue;
                };
                let want = dot(&weights, &desc).to_bits();
                let got = blocks.window_score(cx0, cy0, cells_w, cells_h, &weights);
                prop_assert_eq!(got.map(f64::to_bits), Some(want));
                prop_assert_eq!(row.get(cx0 / stride).map(|s| s.to_bits()), Some(want));
                windows += 1;
            }
            prop_assert_eq!(row.len(), windows);
        }
    }
}
