//! Clocks, order statistics and the in-memory span log.

use std::fmt::Write as _;
use std::time::Instant;

/// Process CPU seconds so far (user + system, every thread), from
/// `/proc/self/stat`. The kernel counts in ticks of 10 ms, so this is read
/// only around intervals of a second or more.
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; count after its ')'.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let mut fields = rest.split_ascii_whitespace();
    let utime = fields.nth(11).and_then(|v| v.parse::<u64>().ok());
    let stime = fields.next().and_then(|v| v.parse::<u64>().ok());
    match (utime, stime) {
        (Some(u), Some(s)) => (u + s) as f64 / 100.0,
        _ => 0.0,
    }
}

/// Median of a sample (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank `q`-quantile of an ascending sample.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The `q`-quantile of values the server truncates to whole microseconds.
/// A true value `k` µs lies in `[k, k + 1)`; the quantile is interpolated
/// inside that bin by rank (the grouped-data median), so a shift smaller
/// than the truncation still shows.
pub fn binned_percentile(values: &[u64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_unstable();
    let target = q * v.len() as f64;
    let k = v[((target.ceil() as usize).clamp(1, v.len())) - 1];
    let below = v.partition_point(|&x| x < k);
    let at = v.partition_point(|&x| x <= k) - below;
    k as f64 + ((target - below as f64) / at as f64).clamp(0.0, 1.0)
}

/// How many samples of an ascending list lie strictly above `value`.
pub fn count_above(sorted: &[f64], value: f64) -> usize {
    sorted.len() - sorted.partition_point(|&x| x <= value)
}

/// One timed interval of the traced run: a call from the benchmark into a
/// layer, or a server phase the response reported.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Unique span id (1-based; 0 means "no parent").
    pub id: u64,
    /// The enclosing span, or 0 for a root.
    pub parent: u64,
    /// Correlation id shared by every span of one request or run step.
    pub trace: u64,
    /// Layer-qualified span name, e.g. `serve.server.execute`.
    pub name: &'static str,
    /// Start, nanoseconds since the log's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the log's epoch.
    pub end_ns: u64,
}

/// Spans kept in memory and written out once, after the run. A log that is
/// off records nothing, so the untraced run pays one branch per call site.
pub struct SpanLog {
    on: bool,
    epoch: Instant,
    next_id: u64,
    cap: usize,
    /// Spans not kept because the log was full.
    pub dropped: u64,
    spans: Vec<Span>,
}

impl SpanLog {
    /// A log keeping at most `cap` spans; `on = false` records nothing.
    pub fn new(on: bool, epoch: Instant, cap: usize) -> Self {
        Self {
            on,
            epoch,
            next_id: 0,
            cap,
            dropped: 0,
            spans: Vec::new(),
        }
    }

    /// Whether the log records.
    pub fn on(&self) -> bool {
        self.on
    }

    /// The instant span times count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Nanoseconds from the epoch to `t`.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records `[start, start + dur_ns)` and returns its id (0 when off or
    /// full, which children then treat as "no parent").
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u64,
        trace: u64,
        start_ns: u64,
        dur_ns: u64,
    ) -> u64 {
        if !self.on {
            return 0;
        }
        if self.spans.len() >= self.cap {
            self.dropped += 1;
            return 0;
        }
        self.next_id += 1;
        self.spans.push(Span {
            id: self.next_id,
            parent,
            trace,
            name,
            start_ns,
            end_ns: start_ns + dur_ns,
        });
        self.next_id
    }

    /// Records the interval `[start, end)` measured with [`Instant`]s.
    pub fn record_at(
        &mut self,
        name: &'static str,
        parent: u64,
        trace: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let s = self.ns(start);
        self.record(name, parent, trace, s, self.ns(end).saturating_sub(s))
    }

    /// Appends another thread's spans, renumbering their ids so they stay
    /// unique in this log.
    pub fn absorb(&mut self, other: SpanLog) {
        let base = self.next_id;
        for mut s in other.spans {
            if self.spans.len() >= self.cap {
                self.dropped += 1;
                continue;
            }
            s.id += base;
            if s.parent != 0 {
                s.parent += base;
            }
            self.spans.push(s);
        }
        self.next_id += other.next_id;
        self.dropped += other.dropped;
    }

    /// Per span name: (count, mean duration µs, mean self time µs). Self time
    /// is a span's duration minus the time its children cover (children of
    /// one span never overlap: every layer call here is sequential).
    pub fn self_times(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let mut child_ns = std::collections::HashMap::<u64, u64>::new();
        for s in &self.spans {
            if s.parent != 0 {
                *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
            }
        }
        let mut by_name = std::collections::BTreeMap::<&'static str, (usize, u64, i64)>::new();
        for s in &self.spans {
            let dur = s.end_ns - s.start_ns;
            let own = dur as i64 - child_ns.get(&s.id).copied().unwrap_or(0) as i64;
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += dur;
            e.2 += own;
        }
        by_name
            .into_iter()
            .map(|(name, (n, dur, own))| {
                (
                    name,
                    n,
                    dur as f64 / n as f64 / 1e3,
                    own as f64 / n as f64 / 1e3,
                )
            })
            .collect()
    }

    /// The spans as JSON lines (one object per span).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"trace\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.trace, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }

    /// Number of spans kept.
    pub fn len(&self) -> usize {
        self.spans.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binned_percentile_interpolates_inside_the_bin() {
        assert_eq!(binned_percentile(&[3, 3, 3, 3], 0.5), 3.5);
        assert_eq!(binned_percentile(&[1, 2, 2, 9], 0.5), 2.5);
        assert!(binned_percentile(&[5; 100], 0.99) > 5.98);
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut log = SpanLog::new(true, Instant::now(), 16);
        let root = log.record("req", 0, 1, 0, 1000);
        log.record("a", root, 1, 0, 300);
        log.record("b", root, 1, 300, 200);
        let t = log.self_times();
        let req = t.iter().find(|r| r.0 == "req").expect("req span");
        assert_eq!(req.3, 0.5);
    }
}
