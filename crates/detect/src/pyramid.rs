//! Scale pyramids for sliding-window detection.
//!
//! Detecting a person of height `H` with a fixed `h`-pixel window means
//! searching the image resized by `s = h / H`. Each detector declares its
//! scale schedule; the schedule is where the algorithms' genuine cost and
//! coverage differences live (e.g. ACF never upsamples, so people smaller
//! than its window are invisible to it).

/// The detection window shared by all four detectors: 16×48 pixels,
/// matching the ~0.3 width/height aspect of a standing person.
pub const WINDOW_W: usize = 16;
/// Window height in pixels.
pub const WINDOW_H: usize = 48;

/// A geometric scale schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleSchedule {
    /// Smallest image resize factor (detects the largest people).
    pub min_scale: f64,
    /// Largest resize factor (> 1 upsamples to catch small people).
    pub max_scale: f64,
    /// Geometric ratio between consecutive scales (> 1).
    pub ratio: f64,
}

impl ScaleSchedule {
    /// Enumerates the scales, smallest to largest.
    ///
    /// # Panics
    ///
    /// Panics if the schedule is degenerate (`ratio ≤ 1`, inverted bounds,
    /// or non-positive scales).
    pub fn scales(&self) -> Vec<f64> {
        assert!(self.ratio > 1.0, "ratio must exceed 1");
        assert!(
            self.min_scale > 0.0 && self.max_scale >= self.min_scale,
            "invalid scale bounds"
        );
        let mut out = Vec::new();
        let mut s = self.min_scale;
        while s <= self.max_scale * 1.0001 {
            out.push(s);
            s *= self.ratio;
        }
        out
    }

    /// Restricts the schedule to scales at which a `w × h` image still
    /// contains at least one detection window.
    pub fn usable_scales(&self, w: usize, h: usize) -> Vec<f64> {
        let scales = self.scales();
        Self::usable_from(&scales, w, h).collect()
    }

    /// Filters a precomputed scale list (from [`ScaleSchedule::scales`]) to
    /// the scales at which a `w × h` image still contains at least one
    /// detection window. Detectors cache the enumerated list at training
    /// time and filter it per frame through this, instead of re-deriving
    /// (and re-validating) the geometric schedule on every `detect` call.
    pub fn usable_from(scales: &[f64], w: usize, h: usize) -> impl Iterator<Item = f64> + '_ {
        scales.iter().copied().filter(move |&s| {
            (w as f64 * s) as usize >= WINDOW_W && (h as f64 * s) as usize >= WINDOW_H
        })
    }

    /// Pixel dimensions of the pyramid level at `scale` for a `w × h`
    /// image: `((w·scale).round(), (h·scale).round())` — the exact
    /// expression every detector historically inlined per scale, hoisted
    /// here so the scan loops and the precompute-only bench kernels agree
    /// on level geometry by construction.
    pub fn level_dims(scale: f64, w: usize, h: usize) -> (usize, usize) {
        (
            (w as f64 * scale).round() as usize,
            (h as f64 * scale).round() as usize,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_are_geometric_and_bounded() {
        let sched = ScaleSchedule {
            min_scale: 0.25,
            max_scale: 1.0,
            ratio: 2.0,
        };
        assert_eq!(sched.scales(), vec![0.25, 0.5, 1.0]);
    }

    #[test]
    fn usable_scales_drop_tiny_images() {
        let sched = ScaleSchedule {
            min_scale: 0.1,
            max_scale: 1.0,
            ratio: 2.0,
        };
        // A 100×100 image at scale 0.1 is 10×10: smaller than the window.
        let usable = sched.usable_scales(100, 100);
        assert!(usable.iter().all(|&s| s * 100.0 >= WINDOW_H as f64));
        assert!(!usable.contains(&0.1));
    }

    #[test]
    #[should_panic(expected = "ratio")]
    fn degenerate_ratio_panics() {
        ScaleSchedule {
            min_scale: 0.5,
            max_scale: 1.0,
            ratio: 1.0,
        }
        .scales();
    }

    #[test]
    fn level_dims_round_like_the_scan_loops() {
        assert_eq!(ScaleSchedule::level_dims(0.5, 321, 240), (161, 120));
        assert_eq!(ScaleSchedule::level_dims(1.0, 160, 120), (160, 120));
        assert_eq!(ScaleSchedule::level_dims(1.25, 160, 120), (200, 150));
    }

    #[test]
    fn window_aspect_matches_person() {
        let aspect = WINDOW_W as f64 / WINDOW_H as f64;
        assert!((0.25..0.4).contains(&aspect), "aspect {aspect}");
    }
}
