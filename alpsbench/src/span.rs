//! In-memory spans for the traced run.
//!
//! A span is one timed call into a layer: its name, start and end, the
//! span that caused it, and the quantum (or simulation pass) it belongs
//! to. The recorder's clock is the caller's choice: the real-Linux
//! workloads time spans in supervisor-thread CPU time, so that time the
//! supervisor spends preempted by the children it controls is not charged
//! to whichever layer it was in. Spans stay in memory until the run ends;
//! nothing is written while the workload is being measured.

/// One timed interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary this span times (`"quantum"`, `"read"`, …).
    pub name: &'static str,
    /// Quantum (or pass) id shared by every span of one unit of work.
    pub id: u64,
    /// Start, nanoseconds on the recorder's clock.
    pub start: u64,
    /// End, nanoseconds on the recorder's clock (`>= start`).
    pub end: u64,
    /// Index of the enclosing span in the recorder, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in nanoseconds on the recorder's clock.
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

/// Collects spans; `open`/`close` nest like a call stack.
#[derive(Debug)]
pub struct Recorder {
    clock: fn() -> u64,
    spans: Vec<Span>,
    stack: Vec<usize>,
    id: u64,
}

impl Recorder {
    /// An empty recorder reading `clock` (nanoseconds, non-decreasing).
    pub fn new(clock: fn() -> u64) -> Recorder {
        Recorder {
            clock,
            spans: Vec::new(),
            stack: Vec::new(),
            id: 0,
        }
    }

    /// Start a new unit of work; later spans carry this id.
    pub fn set_id(&mut self, id: u64) {
        self.id = id;
    }

    /// Open a span under the innermost open span.
    pub fn open(&mut self, name: &'static str) -> usize {
        let idx = self.spans.len();
        let now = (self.clock)();
        self.spans.push(Span {
            name,
            id: self.id,
            start: now,
            end: now,
            parent: self.stack.last().copied(),
        });
        self.stack.push(idx);
        idx
    }

    /// Close the innermost open span, which must be `idx`.
    pub fn close(&mut self, idx: usize) {
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(idx), "spans must close innermost first");
        self.spans[idx].end = (self.clock)();
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children. Children may overlap each other (a recorder
/// fed from several threads, or clock skew); the covered part is the
/// union of their intervals clipped to the parent, so overlap is never
/// subtracted twice.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                let b = b.min(s.end);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            id: 0,
            start,
            end,
            parent,
        }
    }

    #[test]
    fn overlapping_children_are_subtracted_once() {
        let spans = [
            span("quantum", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 50, Some(0)),  // overlaps a by 10
            span("c", 45, 48, Some(0)),  // inside b
            span("d", 90, 130, Some(0)), // runs past the parent's end
            span("e", 12, 20, Some(1)),  // grandchild: charged to a only
        ];
        let st = self_times(&spans);
        // Covered: [10,50) = 40 plus [90,100) = 10.
        assert_eq!(st[0], 50);
        assert_eq!(st[1], 30 - 8);
        assert_eq!(st[2], 20);
        assert_eq!(st[3], 3);
        assert_eq!(st[4], 40);
        assert_eq!(st[5], 8);
    }

    #[test]
    fn recorder_nests_and_tags_ids() {
        let mut r = Recorder::new(|| alps_os::clock::now().0);
        r.set_id(7);
        let q = r.open("quantum");
        let a = r.open("read");
        r.close(a);
        r.close(q);
        let s = r.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].parent, Some(0));
        assert!(s.iter().all(|s| s.id == 7 && s.end >= s.start));
        let st = self_times(s);
        assert_eq!(st[0] + s[1].dur(), s[0].dur());
    }
}
