//! Per-detector sanity checks: catch silent garbage before it poisons the
//! controller's accuracy assessments.
//!
//! A detector running on a degraded sensor (see
//! `eecs_scene::sensor_fault`) can fail in ways that are worse than
//! returning nothing: non-finite scores propagate NaN into probability
//! calibration, a detection-count explosion floods re-identification, and
//! a collapsed score distribution (every window the same score) means the
//! classifier has stopped discriminating. [`DetectorHealth::check`]
//! inspects one [`DetectionOutput`] against a [`HealthPolicy`] and
//! reports every violation, so the runtime can replace the output with an
//! explicit empty report and quarantine the (camera, algorithm) pair
//! instead of trusting garbage.
//!
//! The default thresholds are deliberately lenient: a healthy detector on
//! clean or even moderately degraded frames never trips them, so enabling
//! the checks does not perturb fault-free runs.

use crate::detection::{AlgorithmId, DetectionOutput};
use std::fmt;

/// Thresholds separating a misbehaving detector from a merely busy one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthPolicy {
    /// Hard cap on detections per frame; more is a count explosion (the
    /// scene never holds more than a handful of people, and NMS keeps
    /// healthy outputs far below this).
    pub max_detections: usize,
    /// Score-collapse screening only applies to outputs with at least
    /// this many detections (tiny outputs legitimately tie).
    pub collapse_min_detections: usize,
    /// Minimum spread (`max score − min score`) a large output must show;
    /// below it the score distribution has collapsed.
    pub min_score_spread: f64,
}

impl HealthPolicy {
    /// Lenient defaults that healthy detectors never trip.
    pub fn lenient() -> HealthPolicy {
        HealthPolicy {
            max_detections: 512,
            collapse_min_detections: 16,
            min_score_spread: 1e-9,
        }
    }

    /// Validates the thresholds.
    ///
    /// # Errors
    ///
    /// Returns a message when a threshold is degenerate (zero caps, or a
    /// non-finite/negative spread).
    pub fn validate(&self) -> Result<(), String> {
        if self.max_detections == 0 {
            return Err("health policy: max_detections must be at least 1".into());
        }
        if self.collapse_min_detections < 2 {
            return Err("health policy: collapse_min_detections must be at least 2".into());
        }
        if !self.min_score_spread.is_finite() || self.min_score_spread < 0.0 {
            return Err(format!(
                "health policy: min_score_spread must be finite and non-negative, got {}",
                self.min_score_spread
            ));
        }
        Ok(())
    }
}

impl Default for HealthPolicy {
    fn default() -> Self {
        HealthPolicy::lenient()
    }
}

/// One way a detector output violated its [`HealthPolicy`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HealthIssue {
    /// A detection carried a NaN or infinite score.
    NonFiniteScore {
        /// Index of the offending detection in the output.
        index: usize,
    },
    /// A detection's bounding box had a non-finite coordinate.
    NonFiniteBox {
        /// Index of the offending detection in the output.
        index: usize,
    },
    /// The detector returned implausibly many detections.
    CountExplosion {
        /// How many it returned.
        count: usize,
        /// The policy's cap.
        limit: usize,
    },
    /// A large output whose scores are all (nearly) identical — the
    /// classifier has stopped discriminating.
    ScoreCollapse {
        /// How many detections shared the collapsed distribution.
        count: usize,
        /// The observed `max − min` score spread.
        spread: f64,
    },
}

impl HealthIssue {
    /// A stable kind label, used as a metric-name component
    /// (`health.issue.count_explosion` and friends).
    pub fn kind(&self) -> &'static str {
        match self {
            HealthIssue::NonFiniteScore { .. } => "non_finite_score",
            HealthIssue::NonFiniteBox { .. } => "non_finite_box",
            HealthIssue::CountExplosion { .. } => "count_explosion",
            HealthIssue::ScoreCollapse { .. } => "score_collapse",
        }
    }
}

impl fmt::Display for HealthIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HealthIssue::NonFiniteScore { index } => {
                write!(f, "non-finite score at detection {index}")
            }
            HealthIssue::NonFiniteBox { index } => {
                write!(f, "non-finite bounding box at detection {index}")
            }
            HealthIssue::CountExplosion { count, limit } => {
                write!(f, "detection count explosion: {count} > {limit}")
            }
            HealthIssue::ScoreCollapse { count, spread } => {
                write!(f, "score collapse: {count} detections, spread {spread:e}")
            }
        }
    }
}

/// The verdict on one detector output — which algorithm, and every policy
/// violation found.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectorHealth {
    /// The algorithm whose output was inspected.
    pub algorithm: AlgorithmId,
    /// All violations, in inspection order; empty means healthy.
    pub issues: Vec<HealthIssue>,
}

impl DetectorHealth {
    /// Inspects `output` against `policy` and records every violation.
    pub fn check(
        algorithm: AlgorithmId,
        output: &DetectionOutput,
        policy: &HealthPolicy,
    ) -> DetectorHealth {
        let mut issues = Vec::new();

        for (index, det) in output.detections.iter().enumerate() {
            if !det.score.is_finite() {
                issues.push(HealthIssue::NonFiniteScore { index });
            }
            let b = &det.bbox;
            if ![b.x0, b.y0, b.x1, b.y1].iter().all(|v| v.is_finite()) {
                issues.push(HealthIssue::NonFiniteBox { index });
            }
        }

        let count = output.detections.len();
        if count > policy.max_detections {
            issues.push(HealthIssue::CountExplosion {
                count,
                limit: policy.max_detections,
            });
        }

        // Collapse screening needs finite scores to be meaningful; the
        // non-finite issues above already condemn the output otherwise.
        if count >= policy.collapse_min_detections
            && output.detections.iter().all(|d| d.score.is_finite())
        {
            let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
            for d in &output.detections {
                lo = lo.min(d.score);
                hi = hi.max(d.score);
            }
            let spread = hi - lo;
            if spread < policy.min_score_spread {
                issues.push(HealthIssue::ScoreCollapse { count, spread });
            }
        }

        DetectorHealth { algorithm, issues }
    }

    /// Whether the output passed every check.
    pub fn is_healthy(&self) -> bool {
        self.issues.is_empty()
    }
}

impl fmt::Display for DetectorHealth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_healthy() {
            write!(f, "{}: healthy", self.algorithm)
        } else {
            write!(f, "{}: ", self.algorithm)?;
            for (i, issue) in self.issues.iter().enumerate() {
                if i > 0 {
                    write!(f, "; ")?;
                }
                write!(f, "{issue}")?;
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detection::{BBox, Detection};

    fn output(scores: &[f64]) -> DetectionOutput {
        DetectionOutput {
            detections: scores
                .iter()
                .map(|&score| Detection {
                    bbox: BBox::new(0.0, 0.0, 10.0, 20.0),
                    score,
                })
                .collect(),
            ops: 100,
        }
    }

    #[test]
    fn clean_output_is_healthy() {
        let policy = HealthPolicy::default();
        let out = output(&[3.0, 2.5, 1.0]);
        let health = DetectorHealth::check(AlgorithmId::Hog, &out, &policy);
        assert!(health.is_healthy());
        assert!(health.to_string().contains("healthy"));
    }

    #[test]
    fn empty_output_is_healthy() {
        let health = DetectorHealth::check(AlgorithmId::C4, &output(&[]), &HealthPolicy::default());
        assert!(health.is_healthy(), "no detections is a valid answer");
    }

    #[test]
    fn nan_and_infinite_scores_are_flagged() {
        let out = output(&[1.0, f64::NAN, f64::INFINITY]);
        let health = DetectorHealth::check(AlgorithmId::Acf, &out, &HealthPolicy::default());
        assert_eq!(
            health.issues,
            vec![
                HealthIssue::NonFiniteScore { index: 1 },
                HealthIssue::NonFiniteScore { index: 2 },
            ]
        );
    }

    #[test]
    fn non_finite_bbox_is_flagged() {
        let mut out = output(&[1.0]);
        out.detections[0].bbox.x1 = f64::NAN;
        let health = DetectorHealth::check(AlgorithmId::Lsvm, &out, &HealthPolicy::default());
        assert_eq!(health.issues, vec![HealthIssue::NonFiniteBox { index: 0 }]);
    }

    #[test]
    fn count_explosion_is_flagged() {
        let scores: Vec<f64> = (0..600).map(|i| i as f64).collect();
        let health =
            DetectorHealth::check(AlgorithmId::Hog, &output(&scores), &HealthPolicy::default());
        assert_eq!(
            health.issues,
            vec![HealthIssue::CountExplosion {
                count: 600,
                limit: 512
            }]
        );
    }

    #[test]
    fn score_collapse_is_flagged_only_on_large_outputs() {
        let policy = HealthPolicy::default();
        // 20 identical scores: collapsed.
        let collapsed = output(&[0.7; 20]);
        let health = DetectorHealth::check(AlgorithmId::C4, &collapsed, &policy);
        assert!(matches!(
            health.issues.as_slice(),
            [HealthIssue::ScoreCollapse { count: 20, .. }]
        ));
        // 5 identical scores: too small to judge.
        let tiny = output(&[0.7; 5]);
        assert!(DetectorHealth::check(AlgorithmId::C4, &tiny, &policy).is_healthy());
        // 20 spread scores: fine.
        let spread: Vec<f64> = (0..20).map(|i| i as f64 * 0.1).collect();
        assert!(DetectorHealth::check(AlgorithmId::C4, &output(&spread), &policy).is_healthy());
    }

    #[test]
    fn policy_validation_rejects_degenerate_thresholds() {
        assert!(HealthPolicy::default().validate().is_ok());
        assert!(HealthPolicy {
            max_detections: 0,
            ..HealthPolicy::default()
        }
        .validate()
        .is_err());
        assert!(HealthPolicy {
            collapse_min_detections: 1,
            ..HealthPolicy::default()
        }
        .validate()
        .is_err());
        assert!(HealthPolicy {
            min_score_spread: f64::NAN,
            ..HealthPolicy::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn display_lists_every_issue() {
        let out = output(&[f64::NAN]);
        let health = DetectorHealth::check(AlgorithmId::Hog, &out, &HealthPolicy::default());
        let text = health.to_string();
        assert!(text.contains("HOG") && text.contains("non-finite score"));
    }
}
