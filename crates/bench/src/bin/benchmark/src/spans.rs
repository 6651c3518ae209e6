//! In-memory spans around the benchmark's calls into each layer.
//!
//! The library is not instrumented: every span here is opened and closed
//! by the benchmark, around a public call. Spans stay in memory and are
//! written once, when the run ends. With tracing off, [`Tracer::time`]
//! is a bare `Instant` pair, so the end-to-end pass pays nothing.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::json::Json;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// One identifier per job or request.
    pub job: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    origin: Instant,
    on: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// `origin` is shared by every tracer of a run so spans recorded on
    /// different threads line up.
    pub fn new(on: bool, origin: Instant) -> Self {
        Tracer {
            origin,
            on,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span that other spans will name as their parent. Returns
    /// `None` with tracing off.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, job: u64) -> Option<usize> {
        if !self.on {
            return None;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            job,
        });
        Some(self.spans.len() - 1)
    }

    pub fn close(&mut self, id: Option<usize>) {
        if let Some(i) = id {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Times `f`, recording a span when tracing is on. The returned
    /// duration is measured the same way in both modes.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        job: u64,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let t0 = Instant::now();
        let out = f();
        let dur = t0.elapsed();
        if self.on {
            let start_ns = t0.duration_since(self.origin).as_nanos() as u64;
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns + dur.as_nanos() as u64,
                parent,
                job,
            });
        }
        (out, dur)
    }

    /// Appends another thread's spans, re-basing their parent indices.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children are not counted
/// twice).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let clipped = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
            children[p].push(clipped);
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Per-name totals: `(count, total_ns, self_ns)`.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let selfs = self_times_ns(spans);
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.dur_ns();
        e.2 += self_ns;
    }
    out
}

/// The trace file: the per-name summary, then every span.
pub fn to_json(workload: &str, spans: &[Span]) -> Json {
    let summary = totals_by_name(spans)
        .into_iter()
        .map(|(name, (count, total, self_ns))| {
            (
                name,
                Json::obj([
                    ("count", Json::Num(count as f64)),
                    ("total_ns", Json::Num(total as f64)),
                    ("self_ns", Json::Num(self_ns as f64)),
                ]),
            )
        });
    let rows = spans
        .iter()
        .map(|s| {
            Json::obj([
                ("name", Json::str(s.name)),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("job", Json::Num(s.job as f64)),
            ])
        })
        .collect();
    Json::obj([
        ("workload", Json::str(workload)),
        ("by_name", Json::obj(summary)),
        ("spans", Json::Arr(rows)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            job: 0,
        }
    }

    #[test]
    fn self_time_subtracts_child_cover_once() {
        let spans = [
            span("job", 0, 100, None),
            span("a", 10, 40, Some(0)),
            // Overlaps `a` on 30..40: the union 10..60 covers 50 ns.
            span("b", 30, 60, Some(0)),
            span("leaf", 12, 20, Some(1)),
            // Runs past its parent: only 90..100 counts against the job.
            span("c", 90, 130, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 22, 30, 8, 40]);
        let by = totals_by_name(&spans);
        assert_eq!(by["job"], (1, 100, 40));
        assert_eq!(by["a"], (1, 30, 22));
    }

    #[test]
    fn tracing_off_records_nothing_but_still_times() {
        let mut t = Tracer::new(false, Instant::now());
        let job = t.open("job", None, 1);
        let (v, d) = t.time("x", job, 1, || {
            std::thread::sleep(Duration::from_millis(2));
            7
        });
        t.close(job);
        assert_eq!(v, 7);
        assert!(d >= Duration::from_millis(2));
        assert!(t.spans().is_empty());
    }

    #[test]
    fn spans_nest_and_absorb_rebases_parents() {
        let origin = Instant::now();
        let mut a = Tracer::new(true, origin);
        let job = a.open("job", None, 1);
        a.time("x", job, 1, || ());
        a.close(job);
        let mut b = Tracer::new(true, origin);
        let job_b = b.open("job", None, 2);
        b.time("y", job_b, 2, || ());
        b.close(job_b);
        a.absorb(b);
        let s = a.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[3].parent, Some(2));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
    }
}
