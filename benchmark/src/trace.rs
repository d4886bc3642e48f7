//! In-memory spans for the traced replay.
//!
//! The replay opens a span around every call it makes into a layer; the
//! spans stay in memory until the run ends and are then written to the
//! result file. Nothing here runs on the timed (untraced) path.

use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call: seconds since the tracer started, the enclosing span
/// and the mission it belongs to (`None` for set-up work).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_s: f64,
    pub end_s: f64,
    pub parent: Option<usize>,
    pub mission: Option<usize>,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end_s - self.start_s
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    mission: Option<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            mission: None,
        }
    }

    /// Tags the spans opened from now on with `mission`.
    pub fn set_mission(&mut self, mission: Option<usize>) {
        self.mission = mission;
    }

    /// Opens a span; it encloses every span opened before its [`close`].
    ///
    /// [`close`]: Tracer::close
    pub fn open(&mut self, name: &'static str) {
        let start_s = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            start_s,
            end_s: start_s,
            parent: self.open.last().copied(),
            mission: self.mission,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        let id = self.open.pop().expect("close matches an open span");
        self.spans[id].end_s = self.origin.elapsed().as_secs_f64();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.open(name);
        let value = f();
        self.close();
        value
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Total duration of the spans of each name. A span's time includes its
/// children's, so the totals of nested names overlap.
pub fn busy_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut busy = BTreeMap::new();
    for span in spans {
        *busy.entry(span.name).or_insert(0.0) += span.duration();
    }
    busy
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_carry_their_mission() {
        let mut tr = Tracer::new();
        tr.open("root");
        tr.set_mission(Some(3));
        let v = tr.time("leaf", || 7);
        tr.close();
        assert_eq!(v, 7);
        let spans = tr.spans();
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[0].mission, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].mission, Some(3));
        assert!(spans[0].start_s <= spans[1].start_s && spans[1].end_s <= spans[0].end_s);
        let busy = busy_by_name(spans);
        assert!(busy["root"] >= busy["leaf"]);
    }
}
