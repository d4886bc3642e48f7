//! Deterministic sensor-level fault injection for rendered frames.
//!
//! A [`SensorFaultPlan`] mirrors the design of `eecs_net::FaultPlan`, one
//! layer down the stack: instead of perturbing packets on the wire it
//! perturbs the *pixels a camera captures* before any detector sees them.
//! Every probabilistic decision is a pure function of
//! `(seed, camera, frame, event tag)` via the same SplitMix64-style
//! finalizer, so a corrupted video stream replays byte-for-byte — no
//! global RNG, no wall-clock dependence.
//!
//! Fault taxonomy (per camera, per frame):
//!
//! * **Gaussian-ish noise** — extra zero-mean sensor noise on top of the
//!   renderer's baseline, modelling a failing ADC or high ISO at night.
//! * **Motion blur** — horizontal box blur, modelling a shaking mount.
//! * **Exposure drift / low-light shift** — a multiplicative brightness
//!   gain drawn around 1.0 (biased low when `low_light_bias` is set),
//!   modelling auto-exposure hunting or dusk.
//! * **Stuck rows** — a band of rows latched to black, modelling a dead
//!   sensor region; position is deterministic per frame.
//! * **Frame drop** — the capture fails outright; the runtime is told via
//!   [`FrameImpairment::dropped`] so it can skip detection entirely.
//! * **Lens occlusion** — scheduled (not stochastic) windows in which an
//!   opaque blob covers a fraction of the view, modelling dirt or a
//!   misplaced thumb; occlusions persist over a frame interval, unlike
//!   the per-frame faults above.
//!
//! With [`SensorFaultPlan::ideal`] the plan is disabled and `corrupt`
//! never touches a pixel, preserving the repo's bit-identical replay
//! discipline for fault-free runs.

use eecs_vision::draw;
use eecs_vision::image::RgbImage;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;

/// Event-tag for the extra-noise trigger roll.
const TAG_NOISE: u64 = 1;
/// Event-tag for the motion-blur trigger roll.
const TAG_BLUR: u64 = 2;
/// Event-tag for the exposure trigger roll.
const TAG_EXPOSURE: u64 = 3;
/// Event-tag for the exposure magnitude roll.
const TAG_EXPOSURE_GAIN: u64 = 4;
/// Event-tag for the stuck-rows trigger roll.
const TAG_STUCK: u64 = 5;
/// Event-tag for the stuck-rows position roll.
const TAG_STUCK_POS: u64 = 6;
/// Event-tag for the frame-drop roll.
const TAG_DROP: u64 = 7;
/// Event-tag seeding the noise RNG stream.
const TAG_NOISE_STREAM: u64 = 8;

/// Stochastic impairment parameters of one camera's sensor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SensorImpairments {
    /// Amplitude of the extra zero-mean noise when it fires (`0` = off).
    pub noise_amp: f32,
    /// Probability in `[0, 1)` that a frame receives the extra noise.
    pub noise_prob: f64,
    /// Horizontal box-blur radius in pixels when blur fires (`0` = off).
    pub blur_radius: usize,
    /// Probability in `[0, 1)` that a frame is motion-blurred.
    pub blur_prob: f64,
    /// Maximum relative exposure drift: the gain is drawn from
    /// `[1 - drift, 1 + drift]` (or `[1 - drift, 1]` under
    /// `low_light_bias`).
    pub exposure_drift: f32,
    /// Probability in `[0, 1)` that a frame's exposure drifts.
    pub exposure_prob: f64,
    /// When set, exposure drift only darkens (dusk / low light).
    pub low_light_bias: bool,
    /// Number of consecutive dead rows when the stuck-row fault fires
    /// (`0` = off).
    pub stuck_rows: usize,
    /// Probability in `[0, 1)` that a frame shows the stuck-row band.
    pub stuck_prob: f64,
    /// Probability in `[0, 1)` that the capture fails and the frame is
    /// dropped before any processing.
    pub drop_prob: f64,
}

impl SensorImpairments {
    /// A perfectly healthy sensor: no impairment ever fires.
    pub fn ideal() -> SensorImpairments {
        SensorImpairments {
            noise_amp: 0.0,
            noise_prob: 0.0,
            blur_radius: 0,
            blur_prob: 0.0,
            exposure_drift: 0.0,
            exposure_prob: 0.0,
            low_light_bias: false,
            stuck_rows: 0,
            stuck_prob: 0.0,
            drop_prob: 0.0,
        }
    }

    /// A moderately failing sensor exercising every stochastic fault —
    /// the preset used by the chaos tests and the smoke matrix.
    pub fn harsh() -> SensorImpairments {
        SensorImpairments {
            noise_amp: 0.25,
            noise_prob: 0.4,
            blur_radius: 3,
            blur_prob: 0.3,
            exposure_drift: 0.5,
            exposure_prob: 0.3,
            low_light_bias: true,
            stuck_rows: 10,
            stuck_prob: 0.2,
            drop_prob: 0.15,
        }
    }

    /// Whether this sensor behaves perfectly.
    pub fn is_ideal(&self) -> bool {
        *self == SensorImpairments::ideal()
    }

    fn check(&self) {
        for (name, p) in [
            ("noise_prob", self.noise_prob),
            ("blur_prob", self.blur_prob),
            ("exposure_prob", self.exposure_prob),
            ("stuck_prob", self.stuck_prob),
            ("drop_prob", self.drop_prob),
        ] {
            assert!(
                (0.0..1.0).contains(&p),
                "sensor fault probability `{name}` must be in [0, 1), got {p}"
            );
        }
        assert!(
            self.exposure_drift >= 0.0 && self.exposure_drift < 1.0,
            "exposure_drift must be in [0, 1), got {}",
            self.exposure_drift
        );
        assert!(
            self.noise_amp >= 0.0,
            "noise_amp must be non-negative, got {}",
            self.noise_amp
        );
    }
}

impl Default for SensorImpairments {
    fn default() -> Self {
        SensorImpairments::ideal()
    }
}

/// A half-open window of *frame numbers*, `[start, end)`, during which a
/// scheduled occlusion persists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameWindow {
    /// First frame inside the window.
    pub start: usize,
    /// First frame past the window.
    pub end: usize,
}

impl FrameWindow {
    /// The window `[start, end)`.
    ///
    /// # Panics
    ///
    /// Panics when `start >= end` (empty windows are configuration bugs).
    pub fn new(start: usize, end: usize) -> FrameWindow {
        assert!(start < end, "empty sensor fault window [{start}, {end})");
        FrameWindow { start, end }
    }

    /// Whether `frame` falls inside the window.
    pub fn contains(&self, frame: usize) -> bool {
        (self.start..self.end).contains(&frame)
    }
}

/// What [`SensorFaultPlan::corrupt`] did to one frame — the camera-side
/// degraded-frame signal the runtime forwards to the controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FrameImpairment {
    /// The capture failed entirely; the frame carries no usable pixels
    /// and detection must be skipped.
    pub dropped: bool,
    /// Extra sensor noise was applied.
    pub noisy: bool,
    /// The frame was motion-blurred.
    pub blurred: bool,
    /// Exposure drifted (gain ≠ 1 applied).
    pub exposure_shifted: bool,
    /// A stuck-row band was burned into the frame.
    pub stuck_rows: bool,
    /// A scheduled lens occlusion covered part of the view.
    pub occluded: bool,
}

impl FrameImpairment {
    /// An untouched frame.
    pub fn clean() -> FrameImpairment {
        FrameImpairment::default()
    }

    /// Whether no fault of any kind was applied.
    pub fn is_clean(&self) -> bool {
        *self == FrameImpairment::clean()
    }

    /// Whether the frame is degraded but still usable (not dropped).
    pub fn degraded(&self) -> bool {
        !self.is_clean() && !self.dropped
    }
}

/// A seeded, deterministic schedule of sensor faults, mirroring
/// `eecs_net::FaultPlan` one layer down the stack.
///
/// ```
/// use eecs_scene::sensor_fault::{SensorFaultPlan, SensorImpairments};
///
/// let plan = SensorFaultPlan::seeded(42)
///     .with_default_impairments(SensorImpairments::harsh())
///     .with_occlusion(1, 40, 80, 0.4); // camera 1: 40% occluded, frames 40..80
/// assert!(plan.enabled());
/// assert!(!SensorFaultPlan::ideal().enabled());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SensorFaultPlan {
    seed: u64,
    default_impairments: SensorImpairments,
    per_camera: BTreeMap<usize, SensorImpairments>,
    /// `(camera, window, occluded fraction of the frame area)`.
    occlusions: Vec<(usize, FrameWindow, f64)>,
}

impl SensorFaultPlan {
    /// A plan with no sensor faults at all: `corrupt` never touches a
    /// pixel, so every report stays bit-identical to a fault-free run.
    pub fn ideal() -> SensorFaultPlan {
        SensorFaultPlan::seeded(0)
    }

    /// An empty plan carrying the RNG `seed`; add faults with the
    /// `with_*` builders.
    pub fn seeded(seed: u64) -> SensorFaultPlan {
        SensorFaultPlan {
            seed,
            default_impairments: SensorImpairments::ideal(),
            per_camera: BTreeMap::new(),
            occlusions: Vec::new(),
        }
    }

    /// The seed every roll is derived from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Sets the impairments used by cameras without a per-camera entry.
    ///
    /// # Panics
    ///
    /// Panics when a probability is outside `[0, 1)`.
    pub fn with_default_impairments(mut self, imp: SensorImpairments) -> SensorFaultPlan {
        imp.check();
        self.default_impairments = imp;
        self
    }

    /// Overrides the impairments of `camera`'s sensor.
    ///
    /// # Panics
    ///
    /// Panics when a probability is outside `[0, 1)`.
    pub fn with_camera_impairments(
        mut self,
        camera: usize,
        imp: SensorImpairments,
    ) -> SensorFaultPlan {
        imp.check();
        self.per_camera.insert(camera, imp);
        self
    }

    /// Schedules a partial lens occlusion on `camera` over frames
    /// `[start, end)`, covering `fraction` of the frame area with an
    /// opaque dark blob anchored in a deterministic corner.
    ///
    /// # Panics
    ///
    /// Panics when `start >= end` or `fraction` is outside `(0, 1]`.
    pub fn with_occlusion(
        mut self,
        camera: usize,
        start: usize,
        end: usize,
        fraction: f64,
    ) -> SensorFaultPlan {
        assert!(
            fraction > 0.0 && fraction <= 1.0,
            "occlusion fraction must be in (0, 1], got {fraction}"
        );
        self.occlusions
            .push((camera, FrameWindow::new(start, end), fraction));
        self
    }

    /// The impairments governing `camera`'s sensor.
    pub fn impairments(&self, camera: usize) -> SensorImpairments {
        self.per_camera
            .get(&camera)
            .copied()
            .unwrap_or(self.default_impairments)
    }

    /// Whether the plan injects any fault at all. An ideal plan lets the
    /// runtime skip the corruption pass entirely.
    pub fn enabled(&self) -> bool {
        !self.default_impairments.is_ideal()
            || self.per_camera.values().any(|i| !i.is_ideal())
            || !self.occlusions.is_empty()
    }

    /// Applies every scheduled and rolled fault for `(camera, frame)` to
    /// `img` in place, returning what was done. Pure in
    /// `(plan, camera, frame)`: the same inputs always corrupt the same
    /// pixels the same way.
    pub fn corrupt(&self, camera: usize, frame: usize, img: &mut RgbImage) -> FrameImpairment {
        let mut status = FrameImpairment::clean();
        if !self.enabled() {
            return status;
        }
        // A dropped frame carries no pixels worth corrupting further: the
        // sensor never delivered it. Blank it so any accidental use is
        // glaringly visible.
        if self.drops(camera, frame) {
            blank(img);
            status.dropped = true;
            return status;
        }
        let imp = self.impairments(camera);

        if imp.exposure_prob > 0.0
            && self.unit_roll(camera, frame, TAG_EXPOSURE) < imp.exposure_prob
        {
            let u = self.unit_roll(camera, frame, TAG_EXPOSURE_GAIN) as f32;
            let gain = if imp.low_light_bias {
                1.0 - imp.exposure_drift * u
            } else {
                1.0 + imp.exposure_drift * (2.0 * u - 1.0)
            };
            img.scale_brightness(gain);
            status.exposure_shifted = true;
        }

        if imp.blur_radius > 0 && self.unit_roll(camera, frame, TAG_BLUR) < imp.blur_prob {
            horizontal_blur(img, imp.blur_radius);
            status.blurred = true;
        }

        if imp.noise_amp > 0.0 && self.unit_roll(camera, frame, TAG_NOISE) < imp.noise_prob {
            let mut rng = StdRng::seed_from_u64(self.mix(camera, frame, TAG_NOISE_STREAM));
            draw::add_noise(img, imp.noise_amp, &mut rng);
            status.noisy = true;
        }

        if imp.stuck_rows > 0 && self.unit_roll(camera, frame, TAG_STUCK) < imp.stuck_prob {
            let h = img.height();
            let band = imp.stuck_rows.min(h);
            let span = h.saturating_sub(band).max(1);
            let y0 = (self.unit_roll(camera, frame, TAG_STUCK_POS) * span as f64) as usize;
            draw::fill_rect(
                img,
                0,
                y0 as i64,
                img.width() as i64,
                (y0 + band) as i64,
                [0.0, 0.0, 0.0],
            );
            status.stuck_rows = true;
        }

        for (cam, window, fraction) in &self.occlusions {
            if *cam == camera && window.contains(frame) {
                occlude(img, camera, *fraction);
                status.occluded = true;
            }
        }

        status
    }

    /// Whether the capture of `(camera, frame)` fails outright — the drop
    /// roll [`SensorFaultPlan::corrupt`] makes. A dropped frame's pixels
    /// are blanked whatever was rendered, so a caller may skip rendering
    /// it and hand `corrupt` a black buffer instead.
    pub fn drops(&self, camera: usize, frame: usize) -> bool {
        let drop_prob = self.impairments(camera).drop_prob;
        drop_prob > 0.0 && self.unit_roll(camera, frame, TAG_DROP) < drop_prob
    }

    /// Deterministic uniform draw in `[0, 1)` for the event `tag` of
    /// `(camera, frame)` — the pixel-level sibling of
    /// `FaultPlan::unit_roll`.
    fn unit_roll(&self, camera: usize, frame: usize, tag: u64) -> f64 {
        let z = self.mix(camera, frame, tag);
        (z >> 11) as f64 / (1u64 << 53) as f64
    }

    /// SplitMix64-style finalizer over the mixed inputs.
    fn mix(&self, camera: usize, frame: usize, tag: u64) -> u64 {
        crate::world::mix64(
            self.seed
                .wrapping_add(0x9E37_79B9_7F4A_7C15)
                .wrapping_add((camera as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9))
                .wrapping_add((frame as u64).wrapping_mul(0x94D0_49BB_1331_11EB))
                .wrapping_add(tag.wrapping_mul(0xD6E8_FEB8_6659_FD93)),
        )
    }
}

impl Default for SensorFaultPlan {
    fn default() -> Self {
        SensorFaultPlan::ideal()
    }
}

/// Blanks the frame to black — a dropped capture.
fn blank(img: &mut RgbImage) {
    for chan in [&mut img.r, &mut img.g, &mut img.b] {
        for v in chan.as_mut_slice() {
            *v = 0.0;
        }
    }
}

/// Horizontal box blur of the given radius, applied per channel. A sliding
/// window keeps it O(pixels) regardless of radius.
fn horizontal_blur(img: &mut RgbImage, radius: usize) {
    let (w, h) = (img.width(), img.height());
    if w == 0 || radius == 0 {
        return;
    }
    let mut row = vec![0.0f32; w];
    for chan in [&mut img.r, &mut img.g, &mut img.b] {
        for y in 0..h {
            let data = chan.as_mut_slice();
            let base = y * w;
            row.copy_from_slice(&data[base..base + w]);
            let mut sum: f32 = row[..(radius + 1).min(w)].iter().sum();
            let mut count = (radius + 1).min(w);
            for x in 0..w {
                data[base + x] = sum / count as f32;
                // Slide: admit x + radius + 1, evict x - radius.
                if x + radius + 1 < w {
                    sum += row[x + radius + 1];
                    count += 1;
                }
                if x >= radius {
                    sum -= row[x - radius];
                    count -= 1;
                }
            }
        }
    }
}

/// Covers `fraction` of the frame area with a near-black blob anchored in
/// a camera-dependent corner (dirt settles in different places on
/// different lenses).
fn occlude(img: &mut RgbImage, camera: usize, fraction: f64) {
    let (w, h) = (img.width() as f64, img.height() as f64);
    // A corner rectangle with the frame's aspect ratio and the requested
    // area: side scale = sqrt(fraction).
    let s = fraction.sqrt();
    let ow = (w * s).ceil() as i64;
    let oh = (h * s).ceil() as i64;
    let (x0, y0, x1, y1) = match camera % 4 {
        0 => (0, 0, ow, oh),
        1 => (w as i64 - ow, 0, w as i64, oh),
        2 => (0, h as i64 - oh, ow, h as i64),
        _ => (w as i64 - ow, h as i64 - oh, w as i64, h as i64),
    };
    draw::fill_rect(img, x0, y0, x1, y1, [0.03, 0.03, 0.03]);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_image() -> RgbImage {
        let mut img = RgbImage::filled(32, 24, [0.5, 0.4, 0.3]);
        // Structure, so blur visibly changes pixels.
        draw::fill_rect(&mut img, 8, 4, 16, 20, [0.9, 0.9, 0.9]);
        img
    }

    fn pixels(img: &RgbImage) -> Vec<u32> {
        [&img.r, &img.g, &img.b]
            .into_iter()
            .flat_map(|c| c.as_slice().iter().map(|v| v.to_bits()))
            .collect()
    }

    #[test]
    fn ideal_plan_never_touches_a_pixel() {
        let plan = SensorFaultPlan::ideal();
        assert!(!plan.enabled());
        let mut img = test_image();
        let before = pixels(&img);
        let status = plan.corrupt(0, 77, &mut img);
        assert!(status.is_clean());
        assert_eq!(before, pixels(&img), "ideal corruption is the identity");
    }

    #[test]
    fn corruption_is_deterministic_per_seed() {
        let plan = SensorFaultPlan::seeded(9)
            .with_default_impairments(SensorImpairments::harsh())
            .with_occlusion(0, 0, 1000, 0.3);
        for frame in [0, 13, 999] {
            let mut a = test_image();
            let mut b = test_image();
            let sa = plan.corrupt(0, frame, &mut a);
            let sb = plan.corrupt(0, frame, &mut b);
            assert_eq!(sa, sb);
            assert_eq!(pixels(&a), pixels(&b), "frame {frame} must replay");
        }
    }

    #[test]
    fn different_cameras_and_frames_corrupt_differently() {
        let plan = SensorFaultPlan::seeded(5).with_default_impairments(SensorImpairments::harsh());
        // Over many frames, at least one (camera, frame) pair diverges
        // from another — the faults are not globally synchronized.
        let mut distinct = false;
        for frame in 0..20 {
            let mut a = test_image();
            let mut b = test_image();
            plan.corrupt(0, frame, &mut a);
            plan.corrupt(1, frame, &mut b);
            if pixels(&a) != pixels(&b) {
                distinct = true;
                break;
            }
        }
        assert!(distinct, "per-camera streams must decorrelate");
    }

    #[test]
    fn dropped_frames_are_blanked_and_flagged() {
        let imp = SensorImpairments {
            drop_prob: 0.999,
            ..SensorImpairments::ideal()
        };
        let plan = SensorFaultPlan::seeded(3).with_default_impairments(imp);
        let mut img = test_image();
        let status = plan.corrupt(2, 4, &mut img);
        assert!(status.dropped);
        assert!(!status.degraded(), "dropped trumps degraded");
        assert!(pixels(&img).iter().all(|&bits| bits == 0.0f32.to_bits()));
    }

    #[test]
    fn drops_is_the_roll_corrupt_makes() {
        let plan = SensorFaultPlan::seeded(5)
            .with_default_impairments(SensorImpairments::harsh())
            .with_occlusion(1, 0, 400, 0.3);
        let mut dropped = 0;
        for camera in 0..4 {
            for frame in 0..400 {
                let mut img = test_image();
                let status = plan.corrupt(camera, frame, &mut img);
                assert_eq!(plan.drops(camera, frame), status.dropped);
                if status.dropped {
                    dropped += 1;
                    // A black buffer corrupts to the same pixels.
                    let mut black = RgbImage::new(img.width(), img.height());
                    assert_eq!(plan.corrupt(camera, frame, &mut black), status);
                    assert_eq!(pixels(&black), pixels(&img));
                }
            }
        }
        // Harsh sensors drop about 15% of frames.
        assert!((160..320).contains(&dropped), "{dropped} of 1600 dropped");
        assert!(!SensorFaultPlan::ideal().drops(0, 0));
    }

    #[test]
    fn occlusion_windows_are_half_open_and_darken_a_corner() {
        let plan = SensorFaultPlan::seeded(1).with_occlusion(1, 10, 20, 0.25);
        let mut img = test_image();
        assert!(plan.corrupt(1, 9, &mut img).is_clean());
        assert!(plan.corrupt(1, 20, &mut img).is_clean());
        assert!(plan.corrupt(0, 15, &mut img).is_clean(), "per-camera");
        let status = plan.corrupt(1, 10, &mut img);
        assert!(status.occluded && status.degraded());
        // Camera 1 anchors top-right.
        assert_eq!(img.get(31, 0), [0.03, 0.03, 0.03]);
        assert_ne!(img.get(0, 23), [0.03, 0.03, 0.03]);
    }

    #[test]
    fn blur_preserves_flat_regions_and_smooths_edges() {
        let mut img = test_image();
        let edge_before = img.get(7, 10);
        horizontal_blur(&mut img, 2);
        // Interior of the flat background stays flat.
        assert_eq!(img.get(2, 2), [0.5, 0.4, 0.3]);
        // The box edge got pulled toward the bright rectangle.
        assert!(img.get(7, 10)[0] > edge_before[0]);
    }

    #[test]
    #[should_panic(expected = "sensor fault probability")]
    fn certain_drop_rejected() {
        SensorFaultPlan::seeded(0).with_default_impairments(SensorImpairments {
            drop_prob: 1.0,
            ..SensorImpairments::ideal()
        });
    }

    #[test]
    #[should_panic(expected = "occlusion fraction")]
    fn zero_occlusion_rejected() {
        SensorFaultPlan::seeded(0).with_occlusion(0, 0, 10, 0.0);
    }

    #[test]
    #[should_panic(expected = "empty sensor fault window")]
    fn empty_window_rejected() {
        FrameWindow::new(4, 4);
    }
}
