//! Detections, bounding boxes, algorithm identities.

use crate::pyramid::{WINDOW_H, WINDOW_W};
use std::fmt;

/// The four detection algorithms of Section V-A.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AlgorithmId {
    /// Histograms of oriented gradients + linear SVM (Dalal–Triggs).
    Hog,
    /// Aggregated channel features + AdaBoost (Dollár et al.).
    Acf,
    /// Contour cues via census transform (Wu et al.).
    C4,
    /// Deformable part model (Felzenszwalb et al.).
    Lsvm,
}

impl AlgorithmId {
    /// All four algorithms in the paper's table order.
    pub const ALL: [AlgorithmId; 4] = [
        AlgorithmId::Hog,
        AlgorithmId::Acf,
        AlgorithmId::C4,
        AlgorithmId::Lsvm,
    ];

    /// A stable lowercase label, used as a metric-name component
    /// (`detect.runs.acf` and friends) without going through `Display`.
    pub fn name(self) -> &'static str {
        match self {
            AlgorithmId::Hog => "hog",
            AlgorithmId::Acf => "acf",
            AlgorithmId::C4 => "c4",
            AlgorithmId::Lsvm => "lsvm",
        }
    }
}

impl fmt::Display for AlgorithmId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AlgorithmId::Hog => write!(f, "HOG"),
            AlgorithmId::Acf => write!(f, "ACF"),
            AlgorithmId::C4 => write!(f, "C4"),
            AlgorithmId::Lsvm => write!(f, "LSVM"),
        }
    }
}

impl std::str::FromStr for AlgorithmId {
    type Err = String;

    /// Parses the paper's algorithm names as produced by `Display` —
    /// the round-trip the checkpoint serializer relies on.
    fn from_str(s: &str) -> Result<AlgorithmId, String> {
        match s {
            "HOG" => Ok(AlgorithmId::Hog),
            "ACF" => Ok(AlgorithmId::Acf),
            "C4" => Ok(AlgorithmId::C4),
            "LSVM" => Ok(AlgorithmId::Lsvm),
            other => Err(format!("unknown algorithm id `{other}`")),
        }
    }
}

/// An axis-aligned bounding box in pixel coordinates, `[x0, x1) × [y0, y1)`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BBox {
    /// Left edge.
    pub x0: f64,
    /// Top edge.
    pub y0: f64,
    /// Right edge.
    pub x1: f64,
    /// Bottom edge.
    pub y1: f64,
}

impl BBox {
    /// Creates a box; coordinates are normalized so `x0 ≤ x1`, `y0 ≤ y1`.
    pub fn new(x0: f64, y0: f64, x1: f64, y1: f64) -> BBox {
        BBox {
            x0: x0.min(x1),
            y0: y0.min(y1),
            x1: x0.max(x1),
            y1: y0.max(y1),
        }
    }

    /// Box width.
    pub fn width(&self) -> f64 {
        self.x1 - self.x0
    }

    /// Box height.
    pub fn height(&self) -> f64 {
        self.y1 - self.y0
    }

    /// Box area.
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Intersection area with another box.
    pub fn intersection(&self, other: &BBox) -> f64 {
        let ix = (self.x1.min(other.x1) - self.x0.max(other.x0)).max(0.0);
        let iy = (self.y1.min(other.y1) - self.y0.max(other.y0)).max(0.0);
        ix * iy
    }

    /// Intersection over union with another box, in `[0, 1]`.
    pub fn iou(&self, other: &BBox) -> f64 {
        let inter = self.intersection(other);
        let union = self.area() + other.area() - inter;
        if union <= 0.0 {
            0.0
        } else {
            inter / union
        }
    }

    /// Center point `(cx, cy)`.
    pub fn center(&self) -> (f64, f64) {
        ((self.x0 + self.x1) / 2.0, (self.y0 + self.y1) / 2.0)
    }

    /// Bottom-center point — projected through the ground homography for
    /// re-identification (Section IV-C).
    pub fn bottom_center(&self) -> (f64, f64) {
        ((self.x0 + self.x1) / 2.0, self.y1)
    }
}

/// A single detection: a box plus the algorithm's raw confidence score.
#[derive(Debug, Clone, PartialEq)]
pub struct Detection {
    /// Where.
    pub bbox: BBox,
    /// Raw (uncalibrated) detection score; higher is more confident.
    pub score: f64,
}

impl Detection {
    /// The detection of the window whose top-left corner is pixel `(x, y)`
    /// of the pyramid level at `scale`, in frame coordinates.
    pub(crate) fn window(x: usize, y: usize, scale: f64, score: f64) -> Detection {
        let (x0, y0) = (x as f64 / scale, y as f64 / scale);
        Detection {
            bbox: BBox::new(
                x0,
                y0,
                x0 + WINDOW_W as f64 / scale,
                y0 + WINDOW_H as f64 / scale,
            ),
            score,
        }
    }
}

/// The result of running a detector on one frame.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectionOutput {
    /// Candidate detections after non-maximum suppression, sorted by
    /// descending score.
    pub detections: Vec<Detection>,
    /// Deterministic count of feature/classifier operations spent — the
    /// quantity the energy model converts to Joules (the paper measured
    /// this with PowerTutor; we count it exactly).
    pub ops: u64,
}

impl DetectionOutput {
    /// Detections with score at least `threshold` (the paper's `d_t`).
    pub fn above(&self, threshold: f64) -> Vec<&Detection> {
        self.detections
            .iter()
            .filter(|d| d.score >= threshold)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iou_identical_is_one() {
        let b = BBox::new(0.0, 0.0, 10.0, 20.0);
        assert!((b.iou(&b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn iou_disjoint_is_zero() {
        let a = BBox::new(0.0, 0.0, 5.0, 5.0);
        let b = BBox::new(10.0, 10.0, 15.0, 15.0);
        assert_eq!(a.iou(&b), 0.0);
    }

    #[test]
    fn iou_half_overlap() {
        let a = BBox::new(0.0, 0.0, 10.0, 10.0);
        let b = BBox::new(5.0, 0.0, 15.0, 10.0);
        // Intersection 50, union 150.
        assert!((a.iou(&b) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn new_normalizes_corners() {
        let b = BBox::new(10.0, 20.0, 0.0, 5.0);
        assert_eq!(b.x0, 0.0);
        assert_eq!(b.y1, 20.0);
        assert!(b.area() > 0.0);
    }

    #[test]
    fn centers() {
        let b = BBox::new(0.0, 0.0, 10.0, 20.0);
        assert_eq!(b.center(), (5.0, 10.0));
        assert_eq!(b.bottom_center(), (5.0, 20.0));
    }

    #[test]
    fn above_filters_by_threshold() {
        let out = DetectionOutput {
            detections: vec![
                Detection {
                    bbox: BBox::new(0.0, 0.0, 1.0, 1.0),
                    score: 2.0,
                },
                Detection {
                    bbox: BBox::new(0.0, 0.0, 1.0, 1.0),
                    score: 0.5,
                },
            ],
            ops: 10,
        };
        assert_eq!(out.above(1.0).len(), 1);
        assert_eq!(out.above(0.0).len(), 2);
    }

    #[test]
    fn algorithm_display_matches_paper() {
        assert_eq!(AlgorithmId::Hog.to_string(), "HOG");
        assert_eq!(AlgorithmId::Lsvm.to_string(), "LSVM");
        assert_eq!(AlgorithmId::ALL.len(), 4);
    }

    #[test]
    fn algorithm_id_display_round_trips_through_from_str() {
        for alg in AlgorithmId::ALL {
            assert_eq!(alg.to_string().parse::<AlgorithmId>(), Ok(alg));
        }
        assert!("YOLO".parse::<AlgorithmId>().is_err());
    }

    #[test]
    fn degenerate_box_iou_zero() {
        let a = BBox::new(0.0, 0.0, 0.0, 0.0);
        assert_eq!(a.iou(&a), 0.0);
    }
}
