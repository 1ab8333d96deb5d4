//! In-memory spans around the public calls of one query.
//!
//! The benchmark records `query → {plan, open, probe…, finish}` from its own
//! side of the API; spans inside the library are a later change. Spans stay in
//! memory during the traced pass and are written out when the run ends.

use std::io::Write;
use std::time::Instant;

/// What a span brackets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanName {
    /// One whole query: everything below plus the harness's own glue.
    Query,
    /// `AlvisNetwork::plan`.
    Plan,
    /// `AlvisNetwork::stream`.
    Open,
    /// One `QueryStream::next_event` that sent a probe.
    Probe,
    /// `QueryStream::finish`.
    Finish,
}

impl SpanName {
    pub fn label(self) -> &'static str {
        match self {
            SpanName::Query => "query",
            SpanName::Plan => "plan",
            SpanName::Open => "open",
            SpanName::Probe => "probe",
            SpanName::Finish => "finish",
        }
    }
}

/// One recorded span. Times are nanoseconds since the log was created.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: SpanName,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one (`None` for a query).
    pub parent: Option<u32>,
    /// The query instance all spans of one request share.
    pub query: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Count, total duration and total self time of all spans of one name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// [`SpanTotals`] of each [`SpanName`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TotalsByName([SpanTotals; 5]);

impl TotalsByName {
    pub fn of(&self, name: SpanName) -> SpanTotals {
        self.0[name as usize]
    }
}

/// The spans of one traced pass.
#[derive(Debug)]
pub struct SpanLog {
    base: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    /// A log with room for `capacity` spans, so recording never allocates
    /// inside a measured query.
    pub fn with_capacity(capacity: usize) -> Self {
        SpanLog {
            base: Instant::now(),
            spans: Vec::with_capacity(capacity),
        }
    }

    /// Nanoseconds since the log was created.
    pub fn now(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// Records a span and returns its index.
    pub fn record(
        &mut self,
        name: SpanName,
        start_ns: u64,
        end_ns: u64,
        parent: Option<u32>,
        query: u32,
    ) -> u32 {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            query,
        });
        (self.spans.len() - 1) as u32
    }

    /// Sets the end of an already recorded span (a parent is recorded before
    /// its children so that they can name it).
    pub fn close(&mut self, span: u32, end_ns: u64) {
        self.spans[span as usize].end_ns = end_ns;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's self time: its duration minus its children's durations
    /// (children of one span never overlap here — the client is one thread).
    pub fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                let slot = &mut own[parent as usize];
                *slot = slot.saturating_sub(span.duration_ns());
            }
        }
        own
    }

    /// Totals of every span name, in one pass over the log.
    pub fn totals(&self) -> TotalsByName {
        let own = self.self_times();
        let mut totals = TotalsByName::default();
        for (span, self_ns) in self.spans.iter().zip(own) {
            let slot = &mut totals.0[span.name as usize];
            slot.count += 1;
            slot.total_ns += span.duration_ns();
            slot.self_ns += self_ns;
        }
        totals
    }

    /// Writes one JSON object per span: `name,start_ns,end_ns,parent,query`.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for span in &self.spans {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"query\":{}}}",
                span.name.label(),
                span.start_ns,
                span.end_ns,
                parent,
                span.query
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_log() -> SpanLog {
        let mut log = SpanLog::with_capacity(8);
        let q = log.record(SpanName::Query, 100, 100, None, 0);
        log.record(SpanName::Plan, 100, 130, Some(q), 0);
        log.record(SpanName::Open, 132, 140, Some(q), 0);
        log.record(SpanName::Probe, 141, 171, Some(q), 0);
        log.record(SpanName::Probe, 172, 192, Some(q), 0);
        log.record(SpanName::Finish, 195, 215, Some(q), 0);
        log.close(q, 220);
        log
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let log = sample_log();
        // query: 120 long, children cover 30 + 8 + 30 + 20 + 20 = 108.
        assert_eq!(log.self_times(), vec![12, 30, 8, 30, 20, 20]);
        assert_eq!(
            log.totals().of(SpanName::Query),
            SpanTotals {
                count: 1,
                total_ns: 120,
                self_ns: 12
            }
        );
        assert_eq!(
            log.totals().of(SpanName::Probe),
            SpanTotals {
                count: 2,
                total_ns: 50,
                self_ns: 50
            }
        );
        // Self times of a tree sum to the root's duration.
        assert_eq!(log.self_times().iter().sum::<u64>(), 120);
    }

    #[test]
    fn jsonl_has_one_object_per_span() {
        let mut out = Vec::new();
        sample_log().write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 6);
        assert_eq!(
            lines[0],
            r#"{"name":"query","start_ns":100,"end_ns":220,"parent":null,"query":0}"#
        );
        assert_eq!(
            lines[3],
            r#"{"name":"probe","start_ns":141,"end_ns":171,"parent":0,"query":0}"#
        );
    }
}
