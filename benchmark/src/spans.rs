//! Spans recorded by the benchmark's own code around the calls into each
//! layer. Both processes keep them in memory and write them out when the
//! run ends; nothing inside the windtunnel crates is instrumented.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// One timed interval. `parent == 0` means a root (or a background
/// activity nothing was waiting for); ids start at 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub frame_id: i64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    pub fn duration_ms(&self) -> f64 {
        self.duration_ns() as f64 / 1.0e6
    }

    /// `[start, end]` of `other` lies inside this span.
    pub fn contains(&self, other: &Span) -> bool {
        self.start_ns <= other.start_ns && other.end_ns <= self.end_ns
    }
}

/// Nanoseconds since the Unix epoch, advanced by a monotonic clock.
///
/// The driver and its `serve` child each anchor an [`Instant`] to the
/// wall clock once; after that only the monotonic clock moves the
/// reading, so durations are immune to wall-clock steps while spans from
/// the two processes still share one time axis (to within the error of
/// reading the anchor pair, well under a microsecond).
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    origin: Instant,
    origin_unix_ns: u64,
}

impl Clock {
    pub fn new() -> Clock {
        let origin_unix_ns = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        Clock {
            origin: Instant::now(),
            origin_unix_ns,
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin_unix_ns + self.origin.elapsed().as_nanos() as u64
    }
}

/// Thread-safe in-memory span sink. A disabled recorder costs one branch
/// per call, so the untraced run carries the same call shape.
pub struct Recorder {
    clock: Clock,
    enabled: bool,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            clock: Clock::new(),
            enabled,
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The time axis of this recorder's spans.
    pub fn clock(&self) -> Clock {
        self.clock
    }

    pub fn now_ns(&self) -> u64 {
        self.clock.now_ns()
    }

    /// Time `op` under `name` (when enabled) and pass its result through.
    pub fn time<T>(&self, name: &str, frame_id: i64, op: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return op();
        }
        let start_ns = self.now_ns();
        let out = op();
        self.push(name, frame_id, start_ns, self.now_ns());
        out
    }

    /// Record an already-measured interval (when enabled).
    pub fn push(&self, name: &str, frame_id: i64, start_ns: u64, end_ns: u64) {
        if !self.enabled {
            return;
        }
        // Ids and parents are assigned when the run's spans are linked.
        self.spans.lock().expect("span sink poisoned").push(Span {
            id: 0,
            frame_id,
            name: name.to_string(),
            start_ns,
            end_ns,
            parent: 0,
        });
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span sink poisoned"))
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its direct children cover (overlapping children are not counted
/// twice, and a child is clipped to its parent).
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    let by_id: HashMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    for s in spans {
        if let Some(parent) = by_id.get(&s.parent) {
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if hi > lo {
                children.entry(s.parent).or_default().push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut cover = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut reach = 0u64;
                for &(lo, hi) in kids.iter() {
                    let lo = lo.max(reach);
                    if hi > lo {
                        cover += hi - lo;
                        reach = hi;
                    }
                }
            }
            (s.id, s.duration_ns().saturating_sub(cover))
        })
        .collect()
}

/// One JSON object per line; `self_ns` is derived, the rest is as recorded.
pub fn to_jsonl(spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let mut out = String::new();
    for s in spans {
        let _ = writeln!(
            out,
            "{{\"id\":{},\"frame_id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"self_ns\":{}}}",
            s.id,
            s.frame_id,
            s.name,
            s.start_ns,
            s.end_ns,
            s.parent,
            selfs.get(&s.id).copied().unwrap_or(0)
        );
    }
    out
}

/// The child reports its spans to the driver as `span <name> <start> <end>`
/// lines on stdout; ids, frames and parents are assigned by the driver,
/// which alone knows where frames begin.
pub fn to_wire_line(s: &Span) -> String {
    format!("span {} {} {}", s.name, s.start_ns, s.end_ns)
}

pub fn from_wire_line(line: &str) -> Option<Span> {
    let mut it = line.strip_prefix("span ")?.split(' ');
    let name = it.next()?.to_string();
    let start_ns = it.next()?.parse().ok()?;
    let end_ns = it.next()?.parse().ok()?;
    Some(Span {
        id: 0,
        frame_id: -1,
        name,
        start_ns,
        end_ns,
        parent: 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            frame_id: 0,
            name: format!("s{id}"),
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = vec![
            span(1, 0, 0, 100),
            span(2, 1, 10, 40),
            // Overlaps span 2 on [30, 40]: the union covers [10, 60].
            span(3, 1, 30, 60),
            // Sticks out of the parent: only [90, 100] counts.
            span(4, 1, 90, 130),
            // Grandchild: charged to span 2, not to the root.
            span(5, 2, 15, 25),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 100 - 50 - 10);
        assert_eq!(selfs[&2], 30 - 10);
        assert_eq!(selfs[&3], 30);
        assert_eq!(selfs[&5], 10);
    }

    #[test]
    fn wire_line_roundtrip() {
        let s = span(0, 0, 123, 456);
        let back = from_wire_line(&to_wire_line(&s)).unwrap();
        assert_eq!((back.name, back.start_ns, back.end_ns), (s.name, 123, 456));
        assert!(from_wire_line("port 4000").is_none());
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let rec = Recorder::new(false);
        assert_eq!(rec.time("x", 0, || 7), 7);
        rec.push("y", 0, 1, 2);
        assert!(rec.take().is_empty());
    }
}
