//! Domain adaptation in action: the controller recognizing an unknown feed.
//!
//! ```bash
//! cargo run --release --example adaptive_environment
//! ```
//!
//! A camera wakes up somewhere — an empty indoor room, a cluttered office,
//! or an outdoor terrace — and uploads the features of a short clip. The
//! controller compares the clip against its training library on the
//! Grassmann manifold (Section III of the paper) and answers two
//! questions: *where does this look like?* and therefore *which detection
//! algorithm should you run?* — the motivation for Fig. 3.

use eecs::core::config::EecsConfig;
use eecs::core::controller::Controller;
use eecs::core::features::FeatureExtractor;
use eecs::core::training::train_record;
use eecs::detect::bank::DetectorBank;
use eecs::scene::dataset::{DatasetId, DatasetProfile};
use eecs::scene::sequence::VideoFeed;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("training detector bank…");
    let bank = DetectorBank::train_quick(3)?;
    let mut config = EecsConfig::default();
    config.similarity.beta = 6;

    // Build the training library: camera 0 of each miniature dataset.
    let profiles: Vec<DatasetProfile> = DatasetId::ALL
        .iter()
        .map(|&id| DatasetProfile::miniature(id))
        .collect();
    let mut vocab_frames = Vec::new();
    let mut training = Vec::new();
    for p in &profiles {
        let feed = VideoFeed::open(p.clone(), 0);
        let frames = feed.annotated_frames(0, 40);
        vocab_frames.extend(frames.iter().take(3).map(|f| f.image.clone()));
        training.push(frames);
    }
    let extractor = FeatureExtractor::build(&vocab_frames, 12, 9)?;
    println!("running offline training (4 algorithms × 3 environments)…");
    let records = profiles
        .iter()
        .zip(&training)
        .map(|(p, frames)| {
            train_record(
                &format!("T_{} ({})", p.id.number(), p.id),
                frames,
                &extractor,
                &bank,
                &config,
            )
        })
        .collect::<Result<Vec<_>, _>>()?;
    let controller = Controller::new(records, Vec::new(), config)?;

    // An unknown feed arrives from each environment's *test* segment.
    for p in &profiles {
        let feed = VideoFeed::open(p.clone(), 0);
        let clip = feed.annotated_frames(40, 100);
        let images: Vec<_> = clip.iter().map(|f| f.image.clone()).collect();
        let item = extractor.extract_video("unknown clip", &images)?;
        let (m, record) = controller.match_feed(&item)?;
        let ranked = record.ranked();
        let best = ranked.first().expect("profiled algorithms");
        println!(
            "\nclip actually from: {:<18} matched: {} (similarity {:.2})",
            p.id.to_string(),
            m.best_name,
            m.best_similarity
        );
        println!(
            "  → run {} (f-score {:.2}, {:.2} J/frame); full ranking: {}",
            best.algorithm,
            best.f_score,
            best.energy_per_frame_j,
            ranked
                .iter()
                .map(|r| format!("{}({:.2})", r.algorithm, r.f_score))
                .collect::<Vec<_>>()
                .join(" > ")
        );
    }
    Ok(())
}
