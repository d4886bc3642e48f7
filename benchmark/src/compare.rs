//! `compare`: parent against change, from result files of alternating
//! runs, by the rules of the choosing-metrics guide (sections 6 to 8).
//!
//! ```text
//! benchmark compare --parent p1.json p2.json ... --change c1.json c2.json ...
//! ```
//!
//! The i-th parent file of a workload pairs with the i-th change file of
//! the same workload. Every workload needs at least [`MIN_PAIRS`] pairs.

use crate::metrics::{Better, EndToEnd, END_TO_END};
use crate::result::ResultFile;
use crate::stats::quartiles;
use std::collections::BTreeMap;

pub const MIN_PAIRS: usize = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change won at least 9 in 10 pairs and its median moved by more
    /// than the parent's interquartile range.
    Improved,
    /// The change's median is no worse than the bound allows.
    WithinBound,
    /// The parent's own spread is wider than the bound, so "no worse"
    /// cannot be shown.
    Unresolved,
    /// The change's median is worse than the parent's by more than the
    /// bound.
    Regressed,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::WithinBound => "within bound",
            Verdict::Unresolved => "unresolved",
            Verdict::Regressed => "regressed",
        }
    }
}

/// The verdict on one metric of one workload, and the share of pairs the
/// change won (ties count for neither side). `pairs` are
/// `(parent, change)` values.
pub fn verdict(pairs: &[(f64, f64)], metric: &EndToEnd) -> (Verdict, f64) {
    // Signed so that positive always means "the change is better".
    let gain = |parent: f64, change: f64| match metric.better {
        Better::Lower => parent - change,
        Better::Higher => change - parent,
    };
    let parent: Vec<f64> = pairs.iter().map(|p| p.0).collect();
    let change: Vec<f64> = pairs.iter().map(|p| p.1).collect();
    let [p1, pm, p3] = quartiles(&parent);
    let cm = quartiles(&change)[1];
    let wins = pairs.iter().filter(|(p, c)| gain(*p, *c) > 0.0).count() as f64 / pairs.len() as f64;
    let spread = p3 - p1;
    let allowed = metric.bound * pm.abs();
    let every_change_better = change
        .iter()
        .all(|&c| parent.iter().all(|&p| gain(p, c) > 0.0));
    let v = if wins >= 0.9 && gain(pm, cm) > spread {
        Verdict::Improved
    } else if -gain(pm, cm) > allowed {
        Verdict::Regressed
    } else if spread > allowed && !every_change_better {
        Verdict::Unresolved
    } else {
        Verdict::WithinBound
    };
    (v, wins)
}

struct Args {
    parent: Vec<String>,
    change: Vec<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        parent: Vec::new(),
        change: Vec::new(),
    };
    let mut side = None;
    for arg in args {
        match arg.as_str() {
            "--parent" => side = Some(&mut parsed.parent),
            "--change" => side = Some(&mut parsed.change),
            file => side
                .as_mut()
                .ok_or(format!("{file:?} comes before --parent or --change"))?
                .push(file.to_string()),
        }
    }
    Ok(parsed)
}

/// End-to-end values per workload, in file order.
fn by_workload(files: &[String]) -> Result<BTreeMap<String, Vec<ResultFile>>, String> {
    let mut grouped: BTreeMap<String, Vec<ResultFile>> = BTreeMap::new();
    for path in files {
        let file = ResultFile::load(path)?;
        if file.manifest.trace {
            return Err(format!(
                "{path} is a traced run; compare takes end-to-end runs"
            ));
        }
        grouped
            .entry(file.manifest.workload.clone())
            .or_default()
            .push(file);
    }
    Ok(grouped)
}

/// Renders the comparison table; `Err` on unusable input.
pub fn report(parent: &[ResultFile], change: &[ResultFile]) -> Result<(String, bool), String> {
    if parent.len() != change.len() || parent.len() < MIN_PAIRS {
        return Err(format!(
            "{} parent and {} change files: need at least {MIN_PAIRS} pairs",
            parent.len(),
            change.len()
        ));
    }
    let mut out = String::new();
    let mut regressed = false;
    for metric in END_TO_END {
        let pairs = parent
            .iter()
            .zip(change)
            .map(
                |(p, c)| match (p.metric(metric.name), c.metric(metric.name)) {
                    (Some(p), Some(c)) => Ok((p, c)),
                    _ => Err(format!("a result file lacks {}", metric.name)),
                },
            )
            .collect::<Result<Vec<_>, String>>()?;
        let (v, wins) = verdict(&pairs, metric);
        regressed |= v == Verdict::Regressed;
        let q = |side: Vec<f64>| {
            let [a, b, c] = quartiles(&side);
            format!("{b:>12.6} [{a:.6}, {c:.6}]")
        };
        out.push_str(&format!(
            "  {:<24} parent {}  change {}  won {:>3.0}%  {}\n",
            metric.name,
            q(pairs.iter().map(|p| p.0).collect()),
            q(pairs.iter().map(|p| p.1).collect()),
            100.0 * wins,
            v.label()
        ));
    }
    Ok((out, regressed))
}

pub fn main(args: &[String]) -> i32 {
    let result = parse_args(args).and_then(|args| {
        let parent = by_workload(&args.parent)?;
        let change = by_workload(&args.change)?;
        if parent.keys().ne(change.keys()) {
            return Err("parent and change files cover different workloads".into());
        }
        let mut regressed = false;
        for (workload, files) in &parent {
            let (table, r) = report(files, &change[workload])?;
            println!("{workload} ({} pairs)\n{table}", files.len());
            regressed |= r;
        }
        Ok(regressed)
    });
    match result {
        Ok(false) => 0,
        Ok(true) => 1,
        Err(e) => {
            eprintln!("benchmark compare: {e}");
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::result::sample_file;

    fn spec(name: &str) -> &'static EndToEnd {
        END_TO_END.iter().find(|m| m.name == name).unwrap()
    }

    fn pairs(parent: &[f64], change: &[f64]) -> Vec<(f64, f64)> {
        parent.iter().copied().zip(change.iter().copied()).collect()
    }

    const PARENT: [f64; 10] = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00];

    #[test]
    fn clear_gains_are_improvements_in_either_direction() {
        let faster: Vec<f64> = PARENT.iter().map(|p| p * 0.7).collect();
        let (v, wins) = verdict(&pairs(&PARENT, &faster), spec("run_ref_p50"));
        assert_eq!((v, wins), (Verdict::Improved, 1.0));
        let more: Vec<f64> = PARENT.iter().map(|p| p * 1.3).collect();
        let (v, wins) = verdict(&pairs(&PARENT, &more), spec("recall"));
        assert_eq!((v, wins), (Verdict::Improved, 1.0));
    }

    #[test]
    fn small_moves_stay_within_bound_and_large_ones_regress() {
        for metric in END_TO_END {
            let worse = |by: f64| -> Vec<f64> {
                let factor = match metric.better {
                    Better::Lower => 1.0 + by,
                    Better::Higher => 1.0 - by,
                };
                PARENT.iter().map(|p| p * factor).collect()
            };
            let slightly = worse(metric.bound / 3.0);
            let much = worse(metric.bound * 1.5);
            assert_eq!(
                verdict(&pairs(&PARENT, &slightly), metric).0,
                Verdict::WithinBound,
                "{}",
                metric.name
            );
            assert_eq!(
                verdict(&pairs(&PARENT, &much), metric).0,
                Verdict::Regressed,
                "{}",
                metric.name
            );
        }
    }

    #[test]
    fn a_gain_that_loses_pairs_is_not_an_improvement() {
        // Lower median, but the change wins only 6 of 10 pairs.
        let change = [0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 1.2, 1.2, 1.2, 1.2];
        let (v, wins) = verdict(&pairs(&PARENT, &change), spec("run_ref_p50"));
        assert_eq!((v, wins), (Verdict::WithinBound, 0.6));
    }

    #[test]
    fn a_noisy_parent_leaves_the_verdict_unresolved() {
        let noisy = [0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 0.9, 1.1, 1.0, 1.0];
        let same = noisy;
        assert_eq!(
            verdict(&pairs(&noisy, &same), spec("run_ref_p50")).0,
            Verdict::Unresolved
        );
    }

    #[test]
    fn report_needs_ten_pairs_and_flags_regressions() {
        let file = |v: f64| {
            sample_file(
                "lab_fig5a",
                &END_TO_END.iter().map(|m| (m.name, v)).collect::<Vec<_>>(),
            )
        };
        let parent: Vec<_> = (0..10).map(|_| file(1.0)).collect();
        assert!(report(&parent[..9], &parent[..9]).is_err());
        let (table, regressed) = report(&parent, &parent).unwrap();
        assert!(!regressed && table.contains("within bound"));
        let worse: Vec<_> = (0..10).map(|_| file(2.0)).collect();
        let (table, regressed) = report(&parent, &worse).unwrap();
        assert!(regressed && table.contains("regressed"));
    }
}
