//! In-memory spans around the calls the benchmark makes into each layer.
//!
//! A span records its name, start, end, parent span and job id. Spans are
//! kept in a thread-local buffer while tracing is on and read out when the
//! traced round ends; with tracing off, [`span`] costs one flag test. The
//! engines run on the benchmark's thread (serve's worker aside, which is
//! opaque to the trace), so one buffer sees every span.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the trace started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub job: u32,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Default)]
struct State {
    origin: Option<Instant>,
    job: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
    counters: BTreeMap<&'static str, f64>,
}

thread_local! {
    static STATE: RefCell<State> = RefCell::new(State::default());
}

/// Spans and counters of one recording.
pub type Trace = (Vec<Span>, BTreeMap<&'static str, f64>);

/// Starts recording: clears earlier spans and counters.
pub fn start() {
    STATE.with(|s| *s.borrow_mut() = State { origin: Some(Instant::now()), ..State::default() });
}

/// Stops recording and returns the spans and counters recorded since
/// [`start`].
pub fn finish() -> Trace {
    STATE.with(|s| {
        let state = std::mem::take(&mut *s.borrow_mut());
        assert!(state.open.is_empty(), "trace finished with open spans");
        (state.spans, state.counters)
    })
}

/// Sets the job id that new spans carry.
pub fn set_job(job: u32) {
    STATE.with(|s| s.borrow_mut().job = job);
}

/// Adds `value` to the named counter (only while recording).
pub fn count(name: &'static str, value: f64) {
    STATE.with(|s| {
        let mut s = s.borrow_mut();
        if s.origin.is_some() {
            *s.counters.entry(name).or_insert(0.0) += value;
        }
    });
}

/// Raises the named counter to `value` if that is larger (only while
/// recording).
pub fn count_max(name: &'static str, value: f64) {
    STATE.with(|s| {
        let mut s = s.borrow_mut();
        if s.origin.is_some() {
            let entry = s.counters.entry(name).or_insert(value);
            *entry = entry.max(value);
        }
    });
}

/// Closes its span when dropped.
pub struct Guard(Option<usize>);

/// Opens a span named `name`, child of the innermost open span.
pub fn span(name: &'static str) -> Guard {
    STATE.with(|s| {
        let mut s = s.borrow_mut();
        let Some(origin) = s.origin else { return Guard(None) };
        let start_ns = origin.elapsed().as_nanos() as u64;
        let index = s.spans.len();
        let (job, parent) = (s.job, s.open.last().copied());
        s.spans.push(Span { name, job, parent, start_ns, end_ns: start_ns });
        s.open.push(index);
        Guard(Some(index))
    })
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(index) = self.0 else { return };
        STATE.with(|s| {
            let mut s = s.borrow_mut();
            let Some(origin) = s.origin else { return };
            let end_ns = origin.elapsed().as_nanos() as u64;
            s.spans[index].end_ns = end_ns;
            if s.open.last() == Some(&index) {
                s.open.pop();
            }
        });
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0, span.start_ns);
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(reach), end.min(span.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// Self time in milliseconds and span count, summed per span name.
pub fn layer_totals(spans: &[Span]) -> BTreeMap<&'static str, (f64, u64)> {
    let mut totals: BTreeMap<&'static str, (f64, u64)> = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_times(spans)) {
        let entry = totals.entry(span.name).or_insert((0.0, 0));
        entry.0 += own as f64 / 1e6;
        entry.1 += 1;
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span { name, job: 0, parent, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("job", None, 0, 100),
            span("a", Some(0), 10, 30),
            span("b", Some(0), 25, 50),  // overlaps a by 5
            span("c", Some(1), 12, 20),  // grandchild: not subtracted from job
            span("d", Some(0), 90, 120), // runs past its parent's end
        ];
        assert_eq!(self_times(&spans), vec![100 - 40 - 10, 20 - 8, 25, 8, 30]);
        let totals = layer_totals(&spans);
        assert_eq!(totals["job"], (50.0 / 1e6, 1));
    }

    #[test]
    fn recording_nests_and_stops() {
        start();
        set_job(7);
        {
            let _outer = super::span("outer");
            let _inner = super::span("inner");
            count("things", 2.0);
        }
        let (spans, counters) = finish();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[1].parent, spans[1].job), (Some(0), 7));
        assert!(spans[0].end_ns >= spans[1].end_ns);
        assert_eq!(counters["things"], 2.0);
        // Off: no spans, no counters.
        let _ignored = super::span("outer");
        count("things", 1.0);
        start();
        assert_eq!(finish().0.len(), 0);
    }
}
