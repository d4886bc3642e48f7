//! The metrics this benchmark reports. `BENCHMARK.json` declares the same
//! names, units, directions and bounds; a test keeps the two in step.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg(test)]
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the simulator sees, with the
/// share of the parent's median by which it may worsen.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// `run_ref_p50` divides a job's time by the reference unit's, timed
/// within a second of it, so the shared host's drift, which moves raw
/// times by 10-40% between runs minutes apart, mostly cancels; `setup_s`
/// has no such partner and takes the widest bound. Modeled quantities
/// repeat exactly for a seed: their bound covers the spread between seeds.
pub const END_TO_END: &[EndToEnd] = &[
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("run_ref_p50", "ref", Better::Lower, 0.2),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.1),
    e2e("energy_j_per_detection", "J", Better::Lower, 0.15),
    e2e("recall", "ratio", Better::Higher, 0.1),
];

/// Layers whose calls the traced replay times. Each reports
/// `<layer>.busy_s` and `<layer>.share` (of `trace.total_s`).
pub const LAYER_TIMES: &[&str] = &[
    "scene.render",
    "scene.impair",
    "detect.hog",
    "detect.acf",
    "detect.c4",
    "detect.lsvm",
    "detect.health",
    "core.ingest",
    "core.select",
    "core.reid",
    "net.send",
    "core.checkpoint",
    "setup.bank",
    "setup.vocab",
    "setup.train_record",
    "setup.match",
    "serve.apply",
];

/// Per-layer counts and ratios of the traced run, with their units and
/// the direction an optimisation would move them.
pub const LAYER_VALUES: &[(&str, &str, Better)] = &[
    ("scene.render.frames", "count", Better::Lower),
    ("scene.impair.degraded", "count", Better::Lower),
    ("detect.hog.calls", "count", Better::Lower),
    ("detect.hog.ops", "count", Better::Lower),
    ("detect.acf.calls", "count", Better::Lower),
    ("detect.acf.ops", "count", Better::Lower),
    ("detect.c4.calls", "count", Better::Lower),
    ("detect.c4.ops", "count", Better::Lower),
    ("detect.lsvm.calls", "count", Better::Lower),
    ("detect.lsvm.ops", "count", Better::Lower),
    ("detect.cache.gain", "ratio", Better::Higher),
    ("detect.c4.reject_ratio", "ratio", Better::Higher),
    ("detect.health.unhealthy", "count", Better::Lower),
    ("core.ingest.objects", "count", Better::Lower),
    ("core.select.calls", "count", Better::Lower),
    ("core.reid.calls", "count", Better::Lower),
    ("net.attempts", "count", Better::Lower),
    ("net.retries", "count", Better::Lower),
    ("net.corrupted", "count", Better::Lower),
    ("net.timeouts", "count", Better::Lower),
    ("net.goodput", "ratio", Better::Higher),
    ("core.checkpoint.commits", "count", Better::Lower),
    ("core.checkpoint.rollbacks", "count", Better::Lower),
    ("core.par.speedup_2w", "ratio", Better::Higher),
    ("serve.admitted", "count", Better::Higher),
    ("serve.rejected", "count", Better::Lower),
    ("serve.deadline_missed", "count", Better::Lower),
    ("trace.total_s", "s", Better::Lower),
    ("trace.coverage", "ratio", Better::Higher),
    ("trace.setup_coverage", "ratio", Better::Higher),
];

/// Every per-layer metric as `(name, unit, better)`, in report order.
pub fn per_layer() -> Vec<(String, &'static str, Better)> {
    let mut all = Vec::new();
    for layer in LAYER_TIMES {
        all.push((format!("{layer}.busy_s"), "s", Better::Lower));
        all.push((format!("{layer}.share"), "ratio", Better::Lower));
    }
    for &(name, unit, better) in LAYER_VALUES {
        all.push((name.to_string(), unit, better));
    }
    all
}

/// Whether `name` is a well-formed metric or workload name.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use eecs_core::jsonio::{parse, Json};
    use std::collections::BTreeSet;

    fn declared() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        parse(&text).expect("BENCHMARK.json parses")
    }

    fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
        entry.get(key).and_then(Json::as_str).expect(key)
    }

    #[test]
    fn end_to_end_table_matches_benchmark_json() {
        let doc = declared();
        let entries = doc.get("end_to_end").and_then(Json::as_arr).unwrap();
        assert_eq!(entries.len(), END_TO_END.len());
        for (entry, spec) in entries.iter().zip(END_TO_END) {
            assert_eq!(field(entry, "name"), spec.name);
            assert_eq!(field(entry, "unit"), spec.unit);
            assert_eq!(field(entry, "better"), spec.better.label());
            assert_eq!(entry.get("bound").and_then(Json::as_num), Some(spec.bound));
        }
        let setup_bound = END_TO_END[0].bound;
        assert!(END_TO_END.iter().all(|m| m.bound <= setup_bound));
    }

    #[test]
    fn per_layer_table_matches_benchmark_json() {
        let doc = declared();
        let entries = doc.get("per_layer").and_then(Json::as_arr).unwrap();
        let ours = per_layer();
        assert_eq!(entries.len(), ours.len());
        for (entry, (name, unit, better)) in entries.iter().zip(&ours) {
            assert_eq!(field(entry, "name"), name);
            assert_eq!(field(entry, "unit"), *unit);
            assert_eq!(field(entry, "better"), better.label());
        }
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut seen = BTreeSet::new();
        let names = END_TO_END
            .iter()
            .map(|m| m.name.to_string())
            .chain(per_layer().into_iter().map(|m| m.0));
        for name in names {
            assert!(valid_name(&name), "{name}");
            assert!(seen.insert(name.clone()), "{name} declared twice");
        }
        assert!(!valid_name("a b") && !valid_name(".a") && !valid_name(""));
    }
}
