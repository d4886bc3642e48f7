//! Table V as a sweep: the 12×12 video-similarity matrix, one cell per
//! training row (each cell computes that row's 12 similarities), with the
//! featurized train/test windows shared lazily across cells.
//!
//! The `naive` variant (DESIGN.md §5 ablation) is a *differently named*
//! spec — `table5_naive` — so its manifest and merged document can never
//! be confused with the manifold run.

use crate::artifacts::{Artifacts, WORDS};
use crate::scenarios::{shard_cells, CellContext};
use crate::sweep::{Shard, SweepSpec};
use crate::Scale;
use eecs_core::jsonio::Json;
use eecs_core::par::par_map_indexed;
use eecs_learn::split::sample_windows;
use eecs_manifold::similarity::{video_similarity, SimilarityConfig};
use eecs_manifold::video::VideoItem;
use eecs_scene::dataset::{DatasetId, DatasetProfile};
use eecs_scene::sequence::VideoFeed;

/// The 12 item names, `1.1` … `3.4`, in dataset-then-camera order.
pub fn item_names() -> Vec<String> {
    DatasetId::ALL
        .iter()
        .flat_map(|id| (0..4).map(move |cam| format!("{}.{}", id.number(), cam + 1)))
        .collect()
}

/// The Table V grid: one cell per training row.
pub fn spec(naive: bool) -> SweepSpec {
    let name = if naive { "table5_naive" } else { "table5" };
    SweepSpec::new(name).axis("train", item_names())
}

/// The featurized sample windows every row needs.
struct Ctx {
    trains: Vec<Vec<VideoItem>>,
    tests: Vec<Vec<VideoItem>>,
}

/// Featurizes every sample window — `repeats` random windows of `window`
/// stride-subsampled frames from each feed's training and test segment —
/// with one pool task per window.
fn build_ctx(artifacts: &Artifacts) -> Ctx {
    let scale = artifacts.scale();
    // The paper samples 100 frames × 5 repeats; we default to 60 × 3 (see
    // EXPERIMENTS.md).
    let (window, repeats, stride) = match scale {
        Scale::Paper => (60, 3, 2),
        Scale::Quick => (16, 1, 2),
    };
    let span = window * stride;
    let extractor = artifacts.extractor(WORDS);
    // (feed, repeat, first frame), train then test windows of each feed.
    let mut windows = Vec::new();
    for id in DatasetId::ALL {
        let profile = DatasetProfile::for_id(id);
        let (train_end, test_end) = scale.bounds(&profile);
        for cam in 0..4 {
            let feed = VideoFeed::open(profile.clone(), cam);
            let c = cam as u64;
            for (range, seed) in [(0..train_end, 7 + c), (train_end..test_end, 1000 + c)] {
                let starts = sample_windows(range, span, repeats, seed).expect("range fits window");
                for (r, s) in starts.into_iter().enumerate() {
                    windows.push((feed.clone(), r, s));
                }
            }
        }
    }
    let items = par_map_indexed(windows.len(), 0, |w| {
        let (feed, r, s) = &windows[w];
        let frames = feed.frames(*s, s + span, stride);
        let images: Vec<_> = frames.into_iter().map(|f| f.image).collect();
        extractor
            .extract_video(format!("{}-r{r}", feed.camera_index()), &images)
            .expect("feature extraction on simulator frames")
    });
    let mut items = items.into_iter();
    let mut next_set = || items.by_ref().take(repeats).collect::<Vec<_>>();
    let (mut trains, mut tests) = (Vec::new(), Vec::new());
    for _ in 0..windows.len() / (2 * repeats) {
        trains.push(next_set());
        tests.push(next_set());
    }
    Ctx { trains, tests }
}

/// The Table V shard over shared artifacts.
pub fn shard(artifacts: &Artifacts, naive: bool) -> Shard<'_> {
    let spec = spec(naive);
    let ctx = CellContext::new(spec.cell_count());
    let names = item_names();
    Shard::new(spec, move |job| {
        let train = job.value("train").ok_or("cell without a train axis")?;
        let ti = names
            .iter()
            .position(|n| n == train)
            .ok_or_else(|| format!("unknown Table V row {train:?}"))?;
        let sim_cfg = SimilarityConfig {
            beta: 8,
            scale: 1.0,
        };
        let row = ctx.with(
            || build_ctx(artifacts),
            |ctx| {
                ctx.tests
                    .iter()
                    .map(|test_set| {
                        let mut total = 0.0;
                        let mut count = 0usize;
                        for (t, v) in ctx.trains[ti].iter().zip(test_set) {
                            total += if naive {
                                naive_similarity(t, v)
                            } else {
                                video_similarity(t, v, &sim_cfg).unwrap_or(0.0)
                            };
                            count += 1;
                        }
                        Json::Num(total / count.max(1) as f64)
                    })
                    .collect()
            },
        );
        Ok(Json::Obj(vec![("row".into(), Json::Arr(row))]))
    })
}

/// Renders the similarity matrix and the diagonal-match summary from a
/// merged sweep document.
///
/// # Errors
///
/// Returns an error when the document lacks the Table V shard or a field.
pub fn format(doc: &Json, naive: bool) -> Result<String, String> {
    let shard_name = if naive { "table5_naive" } else { "table5" };
    let names = item_names();
    let cells = shard_cells(doc, shard_name)?;
    let matrix: Vec<Vec<f64>> = cells
        .iter()
        .map(|(_, data)| {
            data.get("row")
                .and_then(Json::as_arr)
                .map(|r| r.iter().filter_map(Json::as_num).collect::<Vec<f64>>())
                .filter(|r| r.len() == names.len())
                .ok_or_else(|| format!("malformed Table V row in shard {shard_name:?}"))
        })
        .collect::<Result<_, _>>()?;
    if matrix.len() != names.len() {
        return Err(format!(
            "Table V expects {} rows, found {}",
            names.len(),
            matrix.len()
        ));
    }

    let mode = if naive {
        "naive Euclidean"
    } else {
        "manifold (GFK)"
    };
    let mut out = format!("== Table V: video similarities, {mode} ==\n");
    out.push_str(&format!("{:>8}", "T\\V"));
    for name in &names {
        out.push_str(&format!("{name:>7}"));
    }
    out.push('\n');
    for (ti, name) in names.iter().enumerate() {
        out.push_str(&format!("{name:>8}"));
        for v in &matrix[ti] {
            out.push_str(&format!("{v:>7.2}"));
        }
        out.push('\n');
    }

    // The paper's headline property: every test item matches the training
    // item of the same dataset and camera (argmax per column = diagonal).
    let n = names.len();
    let mut correct = 0;
    for vi in 0..n {
        let best = (0..n)
            .max_by(|&a, &b| matrix[a][vi].partial_cmp(&matrix[b][vi]).unwrap())
            .unwrap();
        if best == vi {
            correct += 1;
        } else {
            out.push_str(&format!(
                "MISMATCH: V_{} best matched T_{}\n",
                names[vi], names[best]
            ));
        }
    }
    out.push_str(&format!("\ndiagonal matches: {correct}/{n}\n"));
    Ok(out)
}

/// The ablation comparator: similarity from the Euclidean distance between
/// mean feature vectors (no manifold projection).
fn naive_similarity(t: &VideoItem, v: &VideoItem) -> f64 {
    let mean = |item: &VideoItem| -> Vec<f64> {
        let k = item.num_frames() as f64;
        let mut m = vec![0.0; item.feature_dim()];
        for row in item.features().iter_rows() {
            for (acc, &x) in m.iter_mut().zip(row) {
                *acc += x;
            }
        }
        m.iter().map(|x| x / k).collect()
    };
    let (mt, mv) = (mean(t), mean(v));
    let d2: f64 = mt.iter().zip(&mv).map(|(a, b)| (a - b) * (a - b)).sum();
    (-d2.sqrt()).exp()
}
