//! Developer probe: wall-clock and op costs of each detector per dataset.

use eecs_bench::artifacts::Artifacts;
use eecs_bench::Scale;
use eecs_scene::dataset::{DatasetId, DatasetProfile};
use eecs_scene::sequence::VideoFeed;
use std::time::Instant;

fn main() {
    let t0 = Instant::now();
    let bank = Artifacts::new(Scale::Paper).bank();
    println!("bank training: {:.1?}", t0.elapsed());

    for id in [DatasetId::Lab, DatasetId::Chap] {
        let profile = DatasetProfile::for_id(id);
        let feed = VideoFeed::open(profile, 0);
        let t0 = Instant::now();
        let frame = feed.frame(0);
        println!("{id}: render {:.1?}", t0.elapsed());
        for (alg, det) in bank.all() {
            let t0 = Instant::now();
            let out = det.detect(&frame.image);
            println!(
                "  {alg}: {:>10} ops, {} detections, {:.1?}",
                out.ops,
                out.detections.len(),
                t0.elapsed()
            );
        }
    }
}
