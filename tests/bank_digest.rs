//! Pins the trained detector banks bit for bit.
//!
//! Each detector of `DetectorBank::train_quick(23)` (the benchmark's bank)
//! and of `DetectorBank::train_default()` (the paper harness's bank) is
//! folded into one FNV-1a digest: the parameters the public API exposes,
//! under `f64::to_bits`, and every detection (score, bbox) plus the `ops`
//! counter on fixed Lab and Chap miniature frames. A training refactor that
//! moves any weight by one ulp changes a digest; a deliberate change to a
//! training recipe must update the constants below and say why.

use eecs::detect::c4_detector::census_transform;
use eecs::detect::pyramid::{WINDOW_H, WINDOW_W};
use eecs::detect::{AlgorithmId, DetectionOutput, DetectorBank};
use eecs::scene::dataset::{DatasetId, DatasetProfile};
use eecs::scene::sequence::VideoFeed;
use eecs::vision::image::RgbImage;

/// FNV-1a over little-endian words.
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn output(&mut self, out: &DetectionOutput) {
        self.u64(out.ops);
        self.u64(out.detections.len() as u64);
        for d in &out.detections {
            self.f64(d.score);
            for v in [d.bbox.x0, d.bbox.y0, d.bbox.x1, d.bbox.y1] {
                self.f64(v);
            }
        }
    }
}

/// Fixed miniature frames: two Lab views and two Chap views.
fn frames() -> Vec<RgbImage> {
    [
        (DatasetId::Lab, 0, 10),
        (DatasetId::Lab, 2, 35),
        (DatasetId::Chap, 1, 20),
        (DatasetId::Chap, 3, 45),
    ]
    .into_iter()
    .map(|(id, camera, f)| {
        VideoFeed::open(DatasetProfile::miniature(id), camera)
            .frame(f)
            .image
    })
    .collect()
}

/// One digest per detector, in table order.
fn bank_digests(bank: &DetectorBank) -> [(AlgorithmId, u64); 4] {
    let frames = frames();
    bank.all().map(|(id, det)| {
        let mut h = Digest::new();
        match id {
            AlgorithmId::Hog => {
                let svm = bank.hog().svm();
                svm.weights().iter().for_each(|&w| h.f64(w));
                h.f64(svm.bias());
            }
            AlgorithmId::Acf => h.u64(bank.acf().num_stumps() as u64),
            AlgorithmId::C4 => {
                // C4's weights are private; its reference scorer reads
                // every tile of the window at a grid of positions.
                for frame in &frames {
                    let census = census_transform(&frame.to_gray());
                    for y0 in (0..=census.height() - WINDOW_H).step_by(24) {
                        for x0 in (0..=census.width() - WINDOW_W).step_by(20) {
                            h.f64(bank.c4().score_window_reference(&census, x0, y0));
                        }
                    }
                }
            }
            AlgorithmId::Lsvm => h.u64(bank.lsvm().num_parts() as u64),
        }
        let mut detections = 0;
        for frame in &frames {
            let out = det.detect(frame);
            detections += out.detections.len();
            h.output(&out);
        }
        // Scores and boxes, not only `ops`, must reach the digest.
        assert!(detections > 0, "{id:?} detected nothing to pin");
        (id, h.0)
    })
}

fn assert_digests(bank: &DetectorBank, want: [(AlgorithmId, u64); 4]) {
    let got = bank_digests(bank);
    assert_eq!(
        got.map(|(id, d)| format!("{id:?} {d:#018x}")),
        want.map(|(id, d)| format!("{id:?} {d:#018x}")),
        "a trained detector changed"
    );
}

#[test]
fn quick_bank_23_is_pinned() {
    let bank = DetectorBank::train_quick(23).unwrap();
    assert_digests(
        &bank,
        [
            (AlgorithmId::Hog, 0x93b7_b8fa_d530_abb2),
            (AlgorithmId::Acf, 0x92b1_4294_625c_d1fd),
            (AlgorithmId::C4, 0x0427_e2d1_2450_e54e),
            (AlgorithmId::Lsvm, 0xbdcf_b287_5326_1837),
        ],
    );
}

#[test]
fn default_bank_is_pinned() {
    let bank = DetectorBank::train_default().unwrap();
    assert_digests(
        &bank,
        [
            (AlgorithmId::Hog, 0xe4a4_808a_8875_79d2),
            (AlgorithmId::Acf, 0xda99_b846_b43b_dedf),
            (AlgorithmId::C4, 0x8190_4ee9_8479_f85d),
            (AlgorithmId::Lsvm, 0xdd8b_24ea_55a1_bd5d),
        ],
    );
}
