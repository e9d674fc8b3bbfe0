//! In-memory spans recorded by the benchmark around its calls into the
//! program, and the self-time table derived from them.
//!
//! A span has a name, a start, an end and the index of the span that
//! caused it. Spans stay in memory while the benchmark measures and are
//! written out once it ends. A span's self time is its duration minus
//! the part of its interval that its children cover; children that run
//! in parallel (trials on pool threads) are merged as a union, so a
//! parent's self time is the time none of its children was running.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the log's origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer call the span wraps.
    pub name: &'static str,
    /// Start, ns since the origin.
    pub start_ns: u64,
    /// End, ns since the origin (`>= start_ns`).
    pub end_ns: u64,
    /// Index of the causing span in the same log, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An append-only span log sharing one clock origin.
#[derive(Debug, Clone)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log measuring from `origin`.
    pub fn new(origin: Instant) -> Self {
        SpanLog { origin, spans: Vec::new() }
    }

    /// Nanoseconds elapsed since the origin.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Record a finished span; returns its index.
    ///
    /// # Panics
    /// If `end_ns < start_ns` or `parent` is not an earlier span.
    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
    ) -> usize {
        assert!(end_ns >= start_ns, "span {name} ends before it starts");
        if let Some(p) = parent {
            assert!(p < self.spans.len(), "span {name} names unknown parent {p}");
        }
        self.spans.push(Span { name, start_ns, end_ns, parent });
        self.spans.len() - 1
    }

    /// Open a span starting now; close it with [`close`](Self::close).
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let t = self.now();
        self.push(name, t, t, parent)
    }

    /// Set the end of an open span to now.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now();
    }

    /// Move every span of `other` (same origin) into this log; spans of
    /// `other` without a parent become children of `parent`.
    pub fn append(&mut self, other: SpanLog, parent: Option<usize>) {
        let offset = self.spans.len();
        self.spans.extend(
            other
                .spans
                .into_iter()
                .map(|s| Span { parent: s.parent.map(|p| p + offset).or(parent), ..s }),
        );
    }

    /// The recorded spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name totals, sorted by self time, largest first.
    pub fn self_times(&self) -> Vec<SelfTime> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        let mut rows: Vec<SelfTime> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            let covered = covered_ns(s, children[i].iter().map(|&c| &self.spans[c]));
            let row = match rows.iter_mut().find(|r| r.name == s.name) {
                Some(r) => r,
                None => {
                    rows.push(SelfTime { name: s.name, count: 0, total_ns: 0, self_ns: 0 });
                    rows.last_mut().expect("just pushed")
                }
            };
            row.count += 1;
            row.total_ns += s.duration_ns();
            row.self_ns += s.duration_ns() - covered;
        }
        rows.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.name.cmp(b.name)));
        rows
    }

    /// The spans as a JSON array of `{name, start_ns, end_ns, parent}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out.push(']');
        out
    }
}

/// Nanoseconds of `parent`'s interval covered by the union of the
/// `children` intervals.
fn covered_ns<'a>(parent: &Span, children: impl Iterator<Item = &'a Span>) -> u64 {
    let mut iv: Vec<(u64, u64)> = children
        .map(|c| (c.start_ns.max(parent.start_ns), c.end_ns.min(parent.end_ns)))
        .filter(|&(a, b)| b > a)
        .collect();
    iv.sort_unstable();
    let mut covered = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in iv {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                covered += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = cur {
        covered += cb - ca;
    }
    covered
}

/// One row of the self-time table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelfTime {
    /// Span name.
    pub name: &'static str,
    /// Spans with that name.
    pub count: u64,
    /// Sum of their durations, ns.
    pub total_ns: u64,
    /// Sum of their self times, ns.
    pub self_ns: u64,
}

/// Render the top `n` rows with each row's share of the total self time.
pub fn self_time_table(rows: &[SelfTime], n: usize) -> String {
    let all: u64 = rows.iter().map(|r| r.self_ns).sum();
    let mut out = format!(
        "{:<32} {:>9} {:>12} {:>12} {:>7}\n",
        "span", "count", "total_ms", "self_ms", "self%"
    );
    for r in rows.iter().take(n) {
        let share = if all == 0 { 0.0 } else { 100.0 * r.self_ns as f64 / all as f64 };
        let _ = writeln!(
            out,
            "{:<32} {:>9} {:>12.3} {:>12.3} {:>6.1}%",
            r.name,
            r.count,
            r.total_ns as f64 / 1e6,
            r.self_ns as f64 / 1e6,
            share
        );
    }
    out
}
