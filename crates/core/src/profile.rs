//! Per-training-item algorithm profiles (the rows of Tables II–IV).

use crate::{EecsError, Result};
use eecs_detect::detection::AlgorithmId;
use eecs_detect::probability::ScoreCalibration;
use eecs_energy::budget::EnergyBudget;
use eecs_manifold::video::VideoItem;
use std::collections::BTreeMap;

/// Which downgrade policy Section IV-B.4 applies — the efficiency-gated
/// rule is the paper's ("EECS only pays attention to algorithms that have
/// higher f_score/energy values compared to the most accurate algorithm");
/// the any-cheaper rule is the DESIGN.md §5 ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DowngradeRule {
    /// Candidates must be cheaper *and* have a better f-score/energy ratio.
    #[default]
    EfficiencyGated,
    /// Candidates must merely be cheaper (ablation).
    AnyCheaper,
}

/// What offline training learned about one algorithm on one training item:
/// exactly the columns of Tables II–IV plus the score calibration.
#[derive(Debug, Clone)]
pub struct AlgorithmProfile {
    /// Which algorithm.
    pub algorithm: AlgorithmId,
    /// The f-score-maximizing cut-off `d_t`.
    pub threshold: f64,
    /// Recall at `d_t`.
    pub recall: f64,
    /// Precision at `d_t`.
    pub precision: f64,
    /// F-score at `d_t`.
    pub f_score: f64,
    /// Measured energy per frame (processing + object-image transfer), J.
    pub energy_per_frame_j: f64,
    /// Modeled processing time per frame, seconds.
    pub processing_time_s: f64,
    /// Score → probability calibration for `P_ij`.
    pub calibration: ScoreCalibration,
}

impl AlgorithmProfile {
    /// The f-score / energy ratio the downgrade rule compares
    /// (Section IV-B.4).
    pub fn efficiency(&self) -> f64 {
        if self.energy_per_frame_j <= 0.0 {
            f64::INFINITY
        } else {
            self.f_score / self.energy_per_frame_j
        }
    }
}

/// Everything the controller knows about one training video item.
#[derive(Debug, Clone)]
pub struct TrainingRecord {
    /// Item label, e.g. `T_1.2`.
    pub name: String,
    /// Key-frame features for manifold matching.
    pub video: VideoItem,
    /// Per-algorithm profiles.
    pub profiles: BTreeMap<AlgorithmId, AlgorithmProfile>,
}

impl TrainingRecord {
    /// Creates a record.
    ///
    /// # Errors
    ///
    /// Returns [`EecsError::InvalidArgument`] when no profiles are given.
    pub fn new(
        name: impl Into<String>,
        video: VideoItem,
        profiles: Vec<AlgorithmProfile>,
    ) -> Result<TrainingRecord> {
        if profiles.is_empty() {
            return Err(EecsError::InvalidArgument(
                "a training record needs at least one algorithm profile".into(),
            ));
        }
        Ok(TrainingRecord {
            name: name.into(),
            video,
            profiles: profiles.into_iter().map(|p| (p.algorithm, p)).collect(),
        })
    }

    /// The profile of a specific algorithm, if trained.
    pub fn profile(&self, algorithm: AlgorithmId) -> Option<&AlgorithmProfile> {
        self.profiles.get(&algorithm)
    }

    /// Profiles ranked by descending f-score — the paper's "ranked list of
    /// algorithms … based on the f_score".
    pub fn ranked(&self) -> Vec<&AlgorithmProfile> {
        let mut v: Vec<&AlgorithmProfile> = self.profiles.values().collect();
        v.sort_by(|a, b| b.f_score.partial_cmp(&a.f_score).unwrap());
        v
    }

    /// Profiles whose per-frame energy fits the budget, ranked by f-score
    /// (the paper's `A_i*` is the first of these).
    pub fn feasible_ranked(&self, budget: &EnergyBudget) -> Vec<&AlgorithmProfile> {
        self.ranked()
            .into_iter()
            .filter(|p| budget.allows(p.energy_per_frame_j))
            .collect()
    }

    /// The most accurate budget-feasible algorithm `A_i*`.
    pub fn best_within_budget(&self, budget: &EnergyBudget) -> Option<&AlgorithmProfile> {
        self.feasible_ranked(budget).into_iter().next()
    }

    /// Downgrade candidates relative to `current` (Section IV-B.4) under
    /// `rule`: budget feasible and strictly cheaper, and under
    /// [`DowngradeRule::EfficiencyGated`] with a higher f-score/energy
    /// ratio. Cheapest first.
    pub fn downgrade_candidates_with(
        &self,
        current: &AlgorithmProfile,
        budget: &EnergyBudget,
        rule: DowngradeRule,
    ) -> Vec<&AlgorithmProfile> {
        let mut v: Vec<&AlgorithmProfile> = self
            .profiles
            .values()
            .filter(|p| {
                p.algorithm != current.algorithm
                    && budget.allows(p.energy_per_frame_j)
                    && p.energy_per_frame_j < current.energy_per_frame_j
                    && match rule {
                        DowngradeRule::EfficiencyGated => p.efficiency() > current.efficiency(),
                        DowngradeRule::AnyCheaper => true,
                    }
            })
            .collect();
        v.sort_by(|a, b| {
            a.energy_per_frame_j
                .partial_cmp(&b.energy_per_frame_j)
                .unwrap()
        });
        v
    }
}

#[cfg(test)]
pub(crate) fn test_profile(algorithm: AlgorithmId, f_score: f64, energy: f64) -> AlgorithmProfile {
    AlgorithmProfile {
        algorithm,
        threshold: 0.0,
        recall: f_score,
        precision: f_score,
        f_score,
        energy_per_frame_j: energy,
        processing_time_s: energy,
        calibration: ScoreCalibration::from_parts(1.0, 0.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eecs_linalg::Mat;

    fn video() -> VideoItem {
        VideoItem::new("t", Mat::from_fn(3, 4, |i, j| (i * 4 + j) as f64)).unwrap()
    }

    /// Table II shape: HOG 0.66/1.08J, ACF 0.505/0.07J, C4 0.63/4.92J,
    /// LSVM 0.89/3.31J.
    fn table2_record() -> TrainingRecord {
        TrainingRecord::new(
            "T_1.1",
            video(),
            vec![
                test_profile(AlgorithmId::Hog, 0.66, 1.08),
                test_profile(AlgorithmId::Acf, 0.505, 0.07),
                test_profile(AlgorithmId::C4, 0.63, 4.92),
                test_profile(AlgorithmId::Lsvm, 0.89, 3.31),
            ],
        )
        .unwrap()
    }

    #[test]
    fn ranked_by_f_score() {
        let r = table2_record();
        let order: Vec<AlgorithmId> = r.ranked().iter().map(|p| p.algorithm).collect();
        assert_eq!(
            order,
            vec![
                AlgorithmId::Lsvm,
                AlgorithmId::Hog,
                AlgorithmId::C4,
                AlgorithmId::Acf
            ]
        );
    }

    #[test]
    fn budget_excludes_expensive_algorithms() {
        let r = table2_record();
        // Fig 5a regime: budget ≥ 1.08 → HOG feasible, LSVM/C4 not.
        let budget = EnergyBudget::per_frame(1.08).unwrap();
        let best = r.best_within_budget(&budget).unwrap();
        assert_eq!(best.algorithm, AlgorithmId::Hog);
        // Fig 5b regime: budget ∈ [0.07, 1.08) → only ACF.
        let tight = EnergyBudget::per_frame(0.5).unwrap();
        assert_eq!(
            r.best_within_budget(&tight).unwrap().algorithm,
            AlgorithmId::Acf
        );
    }

    #[test]
    fn no_feasible_algorithm_under_tiny_budget() {
        let r = table2_record();
        let budget = EnergyBudget::per_frame(0.01).unwrap();
        assert!(r.best_within_budget(&budget).is_none());
    }

    #[test]
    fn downgrade_prefers_higher_efficiency_cheaper_algorithms() {
        let r = table2_record();
        let budget = EnergyBudget::per_frame(1.08).unwrap();
        let hog = r.profile(AlgorithmId::Hog).unwrap();
        let candidates = r.downgrade_candidates_with(hog, &budget, DowngradeRule::EfficiencyGated);
        // ACF: 0.505/0.07 = 7.2 ≫ HOG's 0.61 → the paper's downgrade.
        assert_eq!(candidates.len(), 1);
        assert_eq!(candidates[0].algorithm, AlgorithmId::Acf);
    }

    #[test]
    fn any_cheaper_rule_admits_more_candidates() {
        let r = table2_record();
        let budget = EnergyBudget::per_frame(10.0).unwrap();
        let lsvm = r.profile(AlgorithmId::Lsvm).unwrap();
        let gated = r.downgrade_candidates_with(lsvm, &budget, DowngradeRule::EfficiencyGated);
        let any = r.downgrade_candidates_with(lsvm, &budget, DowngradeRule::AnyCheaper);
        assert!(any.len() >= gated.len());
        // HOG (f 0.66 @ 1.08 J, efficiency 0.61) is cheaper than LSVM but
        // its ratio is higher than LSVM's 0.27, so both rules include it;
        // the ablation additionally cannot *lose* candidates.
        assert!(any.iter().any(|p| p.algorithm == AlgorithmId::Acf));
        // Candidates are sorted cheapest-first under both rules.
        for w in any.windows(2) {
            assert!(w[0].energy_per_frame_j <= w[1].energy_per_frame_j);
        }
    }

    #[test]
    fn no_downgrade_below_cheapest() {
        let r = table2_record();
        let budget = EnergyBudget::per_frame(10.0).unwrap();
        let acf = r.profile(AlgorithmId::Acf).unwrap();
        assert!(r
            .downgrade_candidates_with(acf, &budget, DowngradeRule::EfficiencyGated)
            .is_empty());
    }

    #[test]
    fn efficiency_ratio() {
        let p = test_profile(AlgorithmId::Acf, 0.5, 0.1);
        assert!((p.efficiency() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn empty_profiles_rejected() {
        assert!(TrainingRecord::new("x", video(), vec![]).is_err());
    }
}
