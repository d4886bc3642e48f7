//! Dataset profiles.
//!
//! One profile per dataset in Section VI of the paper:
//!
//! | # | name    | source | setting | resolution | people | ground truth |
//! |---|---------|--------|---------|-----------|--------|--------------|
//! | 1 | lab     | EPFL   | indoor, empty room | 360×288 | 6 | every 25 frames |
//! | 2 | chap    | Graz   | indoor, furniture clutter | 1024×768 | 4–6 | every 10 frames |
//! | 3 | terrace | EPFL   | outdoor terrace | 360×288 | 8 | every 25 frames |

/// Identifies one of the paper's three datasets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetId {
    /// Dataset #1 — EPFL "lab sequences" (indoor, clean).
    Lab,
    /// Dataset #2 — Graz "chap" (indoor, cluttered, high resolution).
    Chap,
    /// Dataset #3 — EPFL "terrace sequences" (outdoor).
    Terrace,
}

impl DatasetId {
    /// All three datasets in paper order.
    pub const ALL: [DatasetId; 3] = [DatasetId::Lab, DatasetId::Chap, DatasetId::Terrace];

    /// The paper's dataset number (1-based).
    pub fn number(&self) -> usize {
        match self {
            DatasetId::Lab => 1,
            DatasetId::Chap => 2,
            DatasetId::Terrace => 3,
        }
    }
}

impl std::fmt::Display for DatasetId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DatasetId::Lab => write!(f, "lab"),
            DatasetId::Chap => write!(f, "chap"),
            DatasetId::Terrace => write!(f, "terrace"),
        }
    }
}

/// Full generation parameters of one synthetic dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetProfile {
    /// Which dataset this profile reproduces.
    pub id: DatasetId,
    /// Frame width in pixels.
    pub width: usize,
    /// Frame height in pixels.
    pub height: usize,
    /// Number of people walking in the scene.
    pub num_people: usize,
    /// Indoor scenes have walls; outdoor have sky.
    pub indoor: bool,
    /// Number of furniture clutter items (dataset #2 only).
    pub clutter_items: usize,
    /// Global illumination gain applied to rendered frames.
    pub brightness: f32,
    /// Sensor noise amplitude.
    pub noise: f32,
    /// Ground truth cadence in frames (25 for EPFL, 10 for Graz).
    pub gt_interval: usize,
    /// Side of the square walkable arena in meters.
    pub arena: f64,
    /// Total frames per feed (~3000 in the paper).
    pub total_frames: usize,
    /// Leading frames used for training (1000 in the paper).
    pub train_frames: usize,
    /// Base RNG seed; camera index and frame offsets derive from it.
    pub seed: u64,
}

impl DatasetProfile {
    /// Dataset #1 — "lab".
    pub fn lab() -> DatasetProfile {
        DatasetProfile {
            id: DatasetId::Lab,
            width: 360,
            height: 288,
            num_people: 6,
            indoor: true,
            clutter_items: 0,
            brightness: 0.95,
            noise: 0.02,
            gt_interval: 25,
            arena: 9.0,
            total_frames: 3000,
            train_frames: 1000,
            seed: 101,
        }
    }

    /// Dataset #2 — "chap".
    pub fn chap() -> DatasetProfile {
        DatasetProfile {
            id: DatasetId::Chap,
            width: 1024,
            height: 768,
            num_people: 5,
            indoor: true,
            clutter_items: 7,
            brightness: 0.80,
            noise: 0.03,
            gt_interval: 10,
            arena: 8.0,
            total_frames: 3000,
            train_frames: 1000,
            seed: 202,
        }
    }

    /// Dataset #3 — "terrace".
    pub fn terrace() -> DatasetProfile {
        DatasetProfile {
            id: DatasetId::Terrace,
            width: 360,
            height: 288,
            num_people: 8,
            indoor: false,
            clutter_items: 0,
            brightness: 1.15,
            noise: 0.025,
            gt_interval: 25,
            arena: 11.0,
            total_frames: 3000,
            train_frames: 1000,
            seed: 303,
        }
    }

    /// Profile for a dataset id.
    pub fn for_id(id: DatasetId) -> DatasetProfile {
        match id {
            DatasetId::Lab => DatasetProfile::lab(),
            DatasetId::Chap => DatasetProfile::chap(),
            DatasetId::Terrace => DatasetProfile::terrace(),
        }
    }

    /// A miniature variant (small frames, few frames) for fast tests.
    pub fn miniature(id: DatasetId) -> DatasetProfile {
        let mut p = DatasetProfile::for_id(id);
        p.width = 180;
        p.height = 144;
        p.total_frames = 100;
        p.train_frames = 40;
        p.gt_interval = 5;
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_resolutions() {
        assert_eq!(
            (DatasetProfile::lab().width, DatasetProfile::lab().height),
            (360, 288)
        );
        assert_eq!(
            (DatasetProfile::chap().width, DatasetProfile::chap().height),
            (1024, 768)
        );
        assert_eq!(
            (
                DatasetProfile::terrace().width,
                DatasetProfile::terrace().height
            ),
            (360, 288)
        );
    }

    #[test]
    fn gt_cadence_matches_paper() {
        assert_eq!(DatasetProfile::lab().gt_interval, 25);
        assert_eq!(DatasetProfile::chap().gt_interval, 10);
        assert_eq!(DatasetProfile::terrace().gt_interval, 25);
    }

    #[test]
    fn only_chap_has_clutter() {
        assert_eq!(DatasetProfile::lab().clutter_items, 0);
        assert!(DatasetProfile::chap().clutter_items > 0);
        assert_eq!(DatasetProfile::terrace().clutter_items, 0);
    }

    #[test]
    fn split_is_1000_train() {
        for id in DatasetId::ALL {
            let p = DatasetProfile::for_id(id);
            assert_eq!(p.train_frames, 1000);
            assert_eq!(p.total_frames - p.train_frames, 2000);
        }
    }

    #[test]
    fn ids_display_and_number() {
        assert_eq!(DatasetId::Lab.to_string(), "lab");
        assert_eq!(DatasetId::Chap.number(), 2);
        assert_eq!(DatasetId::ALL.len(), 3);
    }

    #[test]
    fn miniature_is_small() {
        let m = DatasetProfile::miniature(DatasetId::Lab);
        assert!(m.width < 360 && m.total_frames <= 100);
        assert_eq!(m.id, DatasetId::Lab);
    }
}
