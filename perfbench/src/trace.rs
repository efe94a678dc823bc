//! Spans recorded around every call the benchmark makes into a layer.
//!
//! The tracer lives outside the program under test: it wraps calls into
//! the crates' public functions, never code inside them. A span is
//! `{name, start, end, parent, cell}`; the parent is the span open on the
//! calling thread when the span began (the benchmark runs every cell on
//! one thread, `Runner::new(1)`). Spans stay in memory and are written
//! out once the run ends. A layer's self time is the time of its spans
//! minus the part covered by their child spans.
//!
//! With tracing off, [`Tracer::span`] is a single branch around the call.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::sync::Mutex;

use crate::clock::thread_ns;

/// Marks "no parent" / "not tied to a cell".
const NONE: u32 = u32::MAX;

/// One closed span. Times are nanoseconds of the thread's CPU time
/// ([`crate::clock`]) since the tracer's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: u32,
    pub cell: u32,
}

impl Span {
    fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// In-memory span recorder. `Sync` so it can be captured by the cell
/// closures the runner requires to be `Sync`; the lock is uncontended.
pub struct Tracer {
    on: bool,
    epoch: u64,
    state: Mutex<State>,
}

/// Closes its span on drop, so a panicking call still leaves the open
/// span stack balanced for the cells that follow it.
pub struct Guard<'a> {
    tracer: &'a Tracer,
    id: u32,
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        let now = self.tracer.now();
        // A poisoned lock only means another span's owner panicked; the
        // span table itself is still consistent.
        let mut st = self
            .tracer
            .state
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        st.spans[self.id as usize].end = now;
        if st.open.last() == Some(&self.id) {
            st.open.pop();
        }
    }
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: thread_ns(),
            state: Mutex::new(State::default()),
        }
    }

    fn now(&self) -> u64 {
        thread_ns().saturating_sub(self.epoch)
    }

    /// Opens a span; it closes when the guard drops. `None` when off.
    pub fn open(&self, name: &'static str, cell: Option<usize>) -> Option<Guard<'_>> {
        if !self.on {
            return None;
        }
        let start = self.now();
        let mut st = self
            .state
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let id = u32::try_from(st.spans.len()).expect("fewer than 2^32 spans per run");
        let parent = st.open.last().copied().unwrap_or(NONE);
        st.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            cell: cell.map_or(NONE, |c| u32::try_from(c).unwrap_or(NONE)),
        });
        st.open.push(id);
        Some(Guard { tracer: self, id })
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&self, name: &'static str, cell: Option<usize>, f: impl FnOnce() -> R) -> R {
        let _guard = self.open(name, cell);
        f()
    }

    pub fn spans(&self) -> Vec<Span> {
        self.state
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .spans
            .clone()
    }
}

/// Per-span-name totals: self time in nanoseconds and span count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotal {
    pub self_ns: u64,
    pub count: u64,
}

/// Self time per span name: each span's duration minus its children's.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, NameTotal> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NONE {
            child_ns[s.parent as usize] += s.duration();
        }
    }
    let mut out: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_ns) {
        let t = out.entry(s.name).or_default();
        t.self_ns += s.duration().saturating_sub(children);
        t.count += 1;
    }
    out
}

/// The layer a span name belongs to: the part before the first dot.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Writes the spans as one JSON document:
/// `{"spans": [[name, start_ns, end_ns, parent, cell], ...]}` with
/// `-1` for "none".
pub fn write_spans(path: &Path, spans: &[Span]) -> io::Result<()> {
    let mut body = String::with_capacity(spans.len() * 48 + 16);
    body.push_str("{\"spans\":[");
    let opt = |v: u32| if v == NONE { -1 } else { i64::from(v) };
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        let _ = write!(
            body,
            "[\"{}\",{},{},{},{}]",
            s.name,
            s.start,
            s.end,
            opt(s.parent),
            opt(s.cell)
        );
    }
    body.push_str("]}\n");
    std::fs::write(path, body)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: u32) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            cell: NONE,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span("runner.pass", 0, 100, NONE),
            span("cluster.sim", 10, 50, 0),
            span("journal.append", 50, 60, 0),
            span("cluster.sim", 60, 90, 0),
        ];
        let t = self_times(&spans);
        assert_eq!(t["runner.pass"].self_ns, 20);
        assert_eq!(
            t["cluster.sim"],
            NameTotal {
                self_ns: 70,
                count: 2
            }
        );
        assert_eq!(t["journal.append"].self_ns, 10);
        assert_eq!(layer_of("journal.append"), "journal");
    }

    #[test]
    fn nesting_follows_the_open_stack_and_survives_panics() {
        let tr = Tracer::new(true);
        tr.span("runner.pass", None, || {
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                tr.span("cluster.sim", Some(3), || panic!("cell fails"))
            }));
            assert!(r.is_err());
            tr.span("stats.merge", None, || ());
        });
        let spans = tr.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[1].cell, 3);
        assert_eq!(spans[2].parent, 0, "the panicked span was closed");
        assert_eq!(spans[0].parent, NONE);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tr = Tracer::new(false);
        assert_eq!(tr.span("cluster.sim", None, || 7), 7);
        assert!(tr.spans().is_empty());
    }
}
