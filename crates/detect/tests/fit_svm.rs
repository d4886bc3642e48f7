//! The shared SVM fit entry: without mining rounds it is exactly a plain
//! `LinearSvm::train`, and with them it only ever adds negatives.

use eecs_detect::training::{fit_svm, NegativeRegime, TrainingConfig};
use eecs_learn::svm::{LinearSvm, SvmConfig};
use eecs_learn::Example;
use eecs_vision::image::RgbImage;

/// Mean intensity of each third of the window, top to bottom: a tiny
/// featurizer that still separates people from backgrounds a little.
fn thirds(img: &RgbImage, buf: &mut Vec<f64>) -> eecs_detect::Result<()> {
    let gray = img.to_gray();
    let band = gray.height() / 3;
    buf.clear();
    for k in 0..3 {
        let mut sum = 0.0;
        for y in k * band..(k + 1) * band {
            for x in 0..gray.width() {
                sum += f64::from(gray.get(x, y));
            }
        }
        buf.push(sum / (band * gray.width()) as f64);
    }
    Ok(())
}

fn setup() -> (Vec<Example>, SvmConfig, TrainingConfig) {
    let training = TrainingConfig {
        positives: 30,
        negatives: 40,
        regime: NegativeRegime::WithClutter,
        seed: 9,
    };
    let examples = eecs_detect::training::synthesize(&training)
        .examples(thirds)
        .unwrap();
    let svm = SvmConfig {
        epochs: 10,
        seed: 3,
        ..SvmConfig::default()
    };
    (examples, svm, training)
}

#[test]
fn zero_rounds_is_a_plain_fit() {
    let (examples, svm, training) = setup();
    let plain = LinearSvm::train(&examples, &svm).unwrap();
    for pool in [0, 50] {
        let fitted = fit_svm(
            "test",
            examples.clone(),
            &svm,
            &training,
            (0, pool),
            |_, _| panic!("no mining round, no candidate featurized"),
        )
        .unwrap();
        let bits = |m: &LinearSvm| {
            let mut v: Vec<u64> = m.weights().iter().map(|w| w.to_bits()).collect();
            v.push(m.bias().to_bits());
            v
        };
        assert_eq!(bits(&fitted), bits(&plain));
    }
}

#[test]
fn mining_featurizes_the_pool_and_stays_deterministic() {
    let (examples, svm, training) = setup();
    let mut calls = 0usize;
    let mined = fit_svm(
        "test",
        examples.clone(),
        &svm,
        &training,
        (1, 25),
        |img, buf| {
            calls += 1;
            thirds(img, buf)
        },
    )
    .unwrap();
    assert_eq!(calls, 25, "one round featurizes the whole pool once");
    let again = fit_svm("test", examples, &svm, &training, (1, 25), thirds).unwrap();
    assert_eq!(mined, again);
}

#[test]
fn fit_errors_name_the_model() {
    let (examples, svm, training) = setup();
    let negatives: Vec<Example> = examples.into_iter().filter(|e| e.label < 0.0).collect();
    let err = fit_svm("probe", negatives, &svm, &training, (0, 0), thirds).unwrap_err();
    assert!(err.to_string().contains("probe svm"), "{err}");
}
