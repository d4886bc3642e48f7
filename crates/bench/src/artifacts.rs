//! Memoized training artifacts shared across sweep cells.
//!
//! `run_all` used to rebuild the detector bank, the feature vocabulary and
//! the per-(dataset, camera) training records once per figure bin that
//! needed them — identical deterministic work, repeated. [`Artifacts`]
//! hoists each of those into a build-once cache keyed by its inputs, so
//! concurrent sweep cells block only on the *same* key (a slot-level
//! `OnceLock`), never on each other. The memoized values are bit-identical
//! to freshly built ones (training is pure), which
//! `memoized_record_matches_fresh` pins down field by field.

use crate::{calibrated_device, experiment_extractor, record_for, Scale};
use eecs_core::config::EecsConfig;
use eecs_core::features::FeatureExtractor;
use eecs_core::profile::TrainingRecord;
use eecs_detect::bank::DetectorBank;
use eecs_energy::comm::LinkModel;
use eecs_scene::dataset::DatasetProfile;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};

/// A build-once-per-key cache: the outer mutex only guards the slot map,
/// so building one key never blocks lookups (or builds) of another.
struct Memo<K, V> {
    slots: Mutex<BTreeMap<K, Arc<OnceLock<Arc<V>>>>>,
}

impl<K: Ord + Clone, V> Memo<K, V> {
    fn new() -> Memo<K, V> {
        Memo {
            slots: Mutex::new(BTreeMap::new()),
        }
    }

    fn get_or_build(&self, key: K, build: impl FnOnce() -> V) -> Arc<V> {
        let slot = {
            let mut slots = self.slots.lock().expect("memo lock");
            Arc::clone(slots.entry(key).or_default())
        };
        Arc::clone(slot.get_or_init(|| Arc::new(build())))
    }
}

/// How the detector bank is trained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BankKind {
    /// The paper's full protocol ([`DetectorBank::train_default`]).
    Default,
    /// The reduced-sample variant tests use ([`DetectorBank::train_quick`]).
    Quick(u64),
}

/// The shared, memoized training artifacts of one experiment run.
pub struct Artifacts {
    scale: Scale,
    bank_kind: BankKind,
    bank: OnceLock<Arc<DetectorBank>>,
    config: OnceLock<Arc<EecsConfig>>,
    extractors: Memo<usize, FeatureExtractor>,
    records: Memo<(usize, usize, usize), TrainingRecord>,
}

impl Artifacts {
    /// Paper-protocol artifacts (full bank training) at the given scale.
    pub fn new(scale: Scale) -> Artifacts {
        Artifacts::with_kind(scale, BankKind::Default)
    }

    /// Quick-trained artifacts for tests and smoke runs: same caching, a
    /// much cheaper (seeded) bank.
    pub fn quick_trained(scale: Scale, seed: u64) -> Artifacts {
        Artifacts::with_kind(scale, BankKind::Quick(seed))
    }

    fn with_kind(scale: Scale, bank_kind: BankKind) -> Artifacts {
        Artifacts {
            scale,
            bank_kind,
            bank: OnceLock::new(),
            config: OnceLock::new(),
            extractors: Memo::new(),
            records: Memo::new(),
        }
    }

    /// The experiment scale the records are trained at.
    pub fn scale(&self) -> Scale {
        self.scale
    }

    /// The detector bank (trained on first use).
    ///
    /// # Panics
    ///
    /// Panics if bank training fails (deterministic; cannot fail for the
    /// built-in configurations).
    pub fn bank(&self) -> Arc<DetectorBank> {
        Arc::clone(self.bank.get_or_init(|| {
            let bank = match self.bank_kind {
                BankKind::Default => DetectorBank::train_default(),
                BankKind::Quick(seed) => DetectorBank::train_quick(seed),
            };
            Arc::new(bank.expect("detector bank training is deterministic"))
        }))
    }

    /// The calibrated experiment configuration (built on first use; forces
    /// the bank).
    pub fn config(&self) -> Arc<EecsConfig> {
        Arc::clone(self.config.get_or_init(|| {
            Arc::new(EecsConfig {
                device: calibrated_device(&self.bank()),
                link: LinkModel::default(),
                ..Default::default()
            })
        }))
    }

    /// The shared feature extractor for a vocabulary size.
    pub fn extractor(&self, words: usize) -> Arc<FeatureExtractor> {
        self.extractors
            .get_or_build(words, || experiment_extractor(self.scale, words))
    }

    /// The training record of one (dataset, camera) feed, keyed by
    /// `(dataset number, camera, vocabulary words)` — built at most once
    /// per key for the lifetime of the artifacts.
    pub fn record(
        &self,
        profile: &DatasetProfile,
        camera: usize,
        words: usize,
    ) -> Arc<TrainingRecord> {
        let key = (profile.id.number(), camera, words);
        self.records.get_or_build(key, || {
            record_for(
                profile,
                camera,
                &self.bank(),
                &self.extractor(words),
                &self.config(),
                self.scale,
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eecs_core::par::par_map_indexed;
    use eecs_core::testkit::assert_records_bit_identical;

    #[test]
    fn memoized_record_matches_fresh() {
        let artifacts = Artifacts::quick_trained(Scale::Quick, 42);
        let profile = DatasetProfile::miniature(eecs_scene::dataset::DatasetId::Lab);
        let words = 12;

        let memoized = artifacts.record(&profile, 0, words);
        // Same key → the cached Arc, not a rebuild.
        assert!(Arc::ptr_eq(
            &memoized,
            &artifacts.record(&profile, 0, words)
        ));

        // A from-scratch build of the same record is bit-identical.
        let fresh = record_for(
            &profile,
            0,
            &artifacts.bank(),
            &artifacts.extractor(words),
            &artifacts.config(),
            artifacts.scale(),
        );
        assert_records_bit_identical(&memoized, &fresh);
    }

    #[test]
    fn concurrent_same_key_builds_once() {
        let artifacts = Artifacts::quick_trained(Scale::Quick, 7);
        let profile = DatasetProfile::miniature(eecs_scene::dataset::DatasetId::Lab);
        let records = par_map_indexed(4, 4, |_| artifacts.record(&profile, 1, 12));
        for r in &records[1..] {
            assert!(Arc::ptr_eq(&records[0], r));
        }
    }
}
