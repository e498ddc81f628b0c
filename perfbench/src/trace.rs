//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Every thread that records owns a recorder (`start`/`finish`); spans
//! stay in memory and are written as JSONL when the run ends. A span's
//! parent is the span open on the same thread when it began, and all
//! spans of one operation share its operation id.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span in the same recording, if any.
    pub parent: Option<usize>,
    pub op: u64,
    pub thread: usize,
}

/// What one thread recorded: spans and named event counts.
#[derive(Clone, Debug, Default)]
pub struct Recording {
    pub spans: Vec<Span>,
    pub counts: BTreeMap<&'static str, u64>,
}

impl Recording {
    /// Fold another thread's recording into this one.
    pub fn absorb(&mut self, other: Recording) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
        for (name, n) in other.counts {
            *self.counts.entry(name).or_default() += n;
        }
    }
}

struct Recorder {
    epoch: Instant,
    thread: usize,
    op: u64,
    rec: Recording,
    open: Vec<usize>,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Start recording on this thread; `epoch` is shared by all threads of a
/// run so their timestamps line up.
pub fn start(epoch: Instant, thread: usize) {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            epoch,
            thread,
            op: 0,
            rec: Recording::default(),
            open: Vec::new(),
        })
    });
}

/// Stop recording on this thread and hand back what it recorded.
pub fn finish() -> Recording {
    RECORDER.with(|r| r.borrow_mut().take().map(|rec| rec.rec).unwrap_or_default())
}

/// Count one named event on this thread, if it is recording.
pub fn bump(name: &'static str) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            *rec.rec.counts.entry(name).or_default() += 1;
        }
    });
}

/// Tag the spans that follow with an operation id.
pub fn set_op(op: u64) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.op = op;
        }
    });
}

/// Open a span that closes when the guard drops. A no-op on threads that
/// are not recording, so untraced runs pay one thread-local lookup.
pub fn span(name: &'static str) -> Guard {
    let index = RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let rec = r.as_mut()?;
        let index = rec.rec.spans.len();
        rec.rec.spans.push(Span {
            name,
            start_ns: rec.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: rec.open.last().copied(),
            op: rec.op,
            thread: rec.thread,
        });
        rec.open.push(index);
        Some(index)
    });
    Guard { index }
}

pub struct Guard {
    index: Option<usize>,
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(index) = self.index else { return };
        RECORDER.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                rec.rec.spans[index].end_ns = rec.epoch.elapsed().as_nanos() as u64;
                rec.open.retain(|&i| i != index);
            }
        });
    }
}

/// Per span name: (count, total self time in ms). Self time is a span's
/// duration minus its children's durations.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, f64)> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, (u64, f64)> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += own as f64 / 1e6;
    }
    out
}

/// Render spans as JSONL, one object per span.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op\":{},\"thread\":{}}}\n",
            s.name, s.start_ns, s.end_ns, parent, s.op, s.thread
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let spans = vec![
            Span {
                name: "a",
                start_ns: 0,
                end_ns: 10_000_000,
                parent: None,
                op: 1,
                thread: 0,
            },
            Span {
                name: "b",
                start_ns: 1_000_000,
                end_ns: 4_000_000,
                parent: Some(0),
                op: 1,
                thread: 0,
            },
        ];
        let t = self_times(&spans);
        assert_eq!(t["a"], (1, 7.0));
        assert_eq!(t["b"], (1, 3.0));
    }
}
