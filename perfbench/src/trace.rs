//! The benchmark's span recorder.
//!
//! A span is one call into a layer's public function, timed from the
//! benchmark's side of the boundary: a name, the enclosing span, the
//! work item it belongs to (a function or a request — spans of one item
//! share a `group`), and start/end offsets. Spans stay in memory; the
//! run aggregates them into per-layer *self* times when it ends (a
//! span's duration minus what its child spans cover).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded call.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer name, e.g. `ssa.build` or `opt.range-fold`.
    pub name: &'static str,
    /// The work item (function or request index) the span belongs to.
    pub group: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    open: Vec<usize>,
    group: u64,
}

/// In-memory span recorder. Shared by reference (or `Rc`) between the
/// benchmark's replica of a pipeline and the pass wrappers inside it.
pub struct Tracer {
    origin: Instant,
    inner: RefCell<Inner>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            inner: RefCell::new(Inner::default()),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Attribute the following spans to work item `group`.
    pub fn set_group(&self, group: u64) {
        self.inner.borrow_mut().group = group;
    }

    /// Run `f` inside a span called `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        {
            let mut inner = self.inner.borrow_mut();
            let parent = inner.open.last().copied();
            let group = inner.group;
            let idx = inner.spans.len();
            inner.spans.push(Span {
                name,
                group,
                parent,
                start_ns: self.now_ns(),
                end_ns: 0,
            });
            inner.open.push(idx);
        }
        let out = f();
        let end = self.now_ns();
        let mut inner = self.inner.borrow_mut();
        let idx = inner.open.pop().expect("span stack is balanced");
        inner.spans[idx].end_ns = end;
        out
    }

    /// Per-layer self time in nanoseconds, summed over every recorded
    /// span of that name.
    pub fn self_times(&self) -> BTreeMap<&'static str, u64> {
        let inner = self.inner.borrow();
        let mut child_ns = vec![0u64; inner.spans.len()];
        for s in &inner.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, children) in inner.spans.iter().zip(child_ns) {
            *out.entry(s.name).or_insert(0) += (s.end_ns - s.start_ns).saturating_sub(children);
        }
        out
    }

    /// Drop every recorded span (between corpus passes).
    pub fn clear(&self) {
        let mut inner = self.inner.borrow_mut();
        inner.spans.clear();
        inner.open.clear();
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.inner.borrow().spans.len()
    }

    /// Whether no span has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let t = Tracer::default();
        t.span("outer", || {
            t.span("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let st = t.self_times();
        assert!(st["inner"] >= 5_000_000);
        assert!(st["outer"] < st["inner"], "{st:?}");
        assert_eq!(t.len(), 2);
    }
}
