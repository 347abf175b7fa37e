//! Spans recorded by the harness around its calls into each layer.
//!
//! Each sampled operation gets an id `<thread>:<seq>` and a root span
//! (`txn` or `request`); the calls made on its behalf are child spans. Spans
//! stay in a per-thread vector and are written out when the workload ends.
//! Every sampled operation is folded into per-name totals as it finishes, so
//! the per-layer numbers cover all of them while the trace file keeps only
//! the first [`KEPT_SPANS`] spans of each thread.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Spans each thread keeps for the trace file.
const KEPT_SPANS: usize = 40_000;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum Name {
    Txn,
    Request,
    CoreBegin,
    CoreRead,
    CoreWrite,
    CoreCommit,
    WlNewOrder,
    WlPayment,
    WlOrderStatus,
    WlDelivery,
    WlStockLevel,
    LogDurableWait,
    ClientSend,
    ClientFlush,
    ClientRecv,
}

impl Name {
    pub const ALL: [Name; 15] = [
        Name::Txn,
        Name::Request,
        Name::CoreBegin,
        Name::CoreRead,
        Name::CoreWrite,
        Name::CoreCommit,
        Name::WlNewOrder,
        Name::WlPayment,
        Name::WlOrderStatus,
        Name::WlDelivery,
        Name::WlStockLevel,
        Name::LogDurableWait,
        Name::ClientSend,
        Name::ClientFlush,
        Name::ClientRecv,
    ];

    pub fn as_str(self) -> &'static str {
        match self {
            Name::Txn => "txn",
            Name::Request => "request",
            Name::CoreBegin => "core.begin",
            Name::CoreRead => "core.read",
            Name::CoreWrite => "core.write",
            Name::CoreCommit => "core.commit",
            Name::WlNewOrder => "wl.new_order",
            Name::WlPayment => "wl.payment",
            Name::WlOrderStatus => "wl.order_status",
            Name::WlDelivery => "wl.delivery",
            Name::WlStockLevel => "wl.stock_level",
            Name::LogDurableWait => "log.durable_wait",
            Name::ClientSend => "client.send",
            Name::ClientFlush => "client.flush",
            Name::ClientRecv => "client.recv",
        }
    }

    /// Root spans stand for the harness's own loop; their self time is the
    /// harness's, not a layer's.
    pub fn is_root(self) -> bool {
        matches!(self, Name::Txn | Name::Request)
    }
}

/// "No span": returned by [`Tracer::start`] for operations that are not
/// sampled, and the parent of a root span.
pub const NO_SPAN: u32 = u32::MAX;

#[derive(Clone, Debug)]
pub struct Span {
    pub op_thread: u16,
    pub op_seq: u32,
    /// Index of the parent span in the same thread's vector, or [`NO_SPAN`].
    pub parent: u32,
    pub name: Name,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Self time of every span in `spans`: its duration minus the part of that
/// interval its direct children cover. `base` is the absolute index of
/// `spans[0]`, so parents (stored as absolute indices) can be resolved.
/// Writes into `out` so the recording path reuses one buffer.
pub fn self_times_into(spans: &[Span], base: usize, out: &mut Vec<u64>) {
    out.clear();
    out.extend(spans.iter().map(Span::duration));
    for s in spans {
        if s.parent == NO_SPAN {
            continue;
        }
        let p = s.parent as usize - base;
        let parent = &spans[p];
        let start = s.start_ns.max(parent.start_ns);
        let end = s.end_ns.min(parent.end_ns);
        out[p] = out[p].saturating_sub(end.saturating_sub(start));
    }
}

/// Totals for one span name over every sampled operation.
#[derive(Clone, Copy, Default, Debug)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Agg {
    /// Mean duration of one span of this name.
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

pub type Aggs = [Agg; Name::ALL.len()];

/// One thread's span recorder. Not shared: a thread owns its tracer and
/// hands it back when the workload ends.
pub struct Tracer {
    thread: u16,
    origin: Instant,
    spans: Vec<Span>,
    aggs: Aggs,
    /// Index of the open operation's root span.
    op_root: usize,
    /// Innermost open span, parent of the next one started.
    current: u32,
    sampling: bool,
    op_seq: u32,
    self_scratch: Vec<u64>,
}

impl Tracer {
    /// `origin` is shared by all tracers of a run so timestamps compare
    /// across threads.
    pub fn new(thread: usize, origin: Instant) -> Tracer {
        Tracer {
            thread: thread as u16,
            origin,
            // Reserved up front so recording never reallocates mid-measurement.
            spans: Vec::with_capacity(KEPT_SPANS + 64),
            aggs: [Agg::default(); Name::ALL.len()],
            op_root: 0,
            current: NO_SPAN,
            sampling: false,
            op_seq: 0,
            self_scratch: Vec::with_capacity(16),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// This thread's id and the sequence number of the operation in
    /// progress, for a follow-on span recorded by another thread.
    pub fn op_id(&self) -> (u16, u32) {
        (self.thread, self.op_seq)
    }

    /// Opens an operation. When `sample` is false every `start`/`end` until
    /// [`Tracer::end_op`] is a no-op costing one predictable branch.
    pub fn begin_op(&mut self, sample: bool, root: Name) {
        self.sampling = sample;
        if sample {
            self.op_root = self.spans.len();
            self.current = NO_SPAN;
            self.start(root);
        }
    }

    #[inline]
    pub fn start(&mut self, name: Name) -> u32 {
        if !self.sampling {
            return NO_SPAN;
        }
        let idx = self.spans.len() as u32;
        let now = self.now_ns();
        self.spans.push(Span {
            op_thread: self.thread,
            op_seq: self.op_seq,
            parent: self.current,
            name,
            start_ns: now,
            end_ns: now,
        });
        self.current = idx;
        idx
    }

    #[inline]
    pub fn end(&mut self, idx: u32) {
        if idx == NO_SPAN {
            return;
        }
        let now = self.now_ns();
        let span = &mut self.spans[idx as usize];
        span.end_ns = now;
        self.current = span.parent;
    }

    /// Closes the operation: ends the root span, folds the operation into
    /// the per-name totals, and drops its spans if the trace file is full.
    pub fn end_op(&mut self) {
        if !self.sampling {
            return;
        }
        self.end(self.op_root as u32);
        let op = &self.spans[self.op_root..];
        self_times_into(op, self.op_root, &mut self.self_scratch);
        for (span, self_ns) in op.iter().zip(&self.self_scratch) {
            let agg = &mut self.aggs[span.name as usize];
            agg.count += 1;
            agg.total_ns += span.duration();
            agg.self_ns += self_ns;
        }
        if self.spans.len() > KEPT_SPANS {
            self.spans.truncate(self.op_root);
        }
        self.op_seq += 1;
        self.sampling = false;
    }

    /// Records a finished span that continues operation `op` of another
    /// thread (the durable wait, observed on the sampler thread).
    pub fn record_follow_on(&mut self, op: (u16, u32), name: Name, start_ns: u64, end_ns: u64) {
        let span = Span {
            op_thread: op.0,
            op_seq: op.1,
            parent: NO_SPAN,
            name,
            start_ns,
            end_ns,
        };
        let agg = &mut self.aggs[name as usize];
        agg.count += 1;
        agg.total_ns += span.duration();
        agg.self_ns += span.duration();
        if self.spans.len() < KEPT_SPANS {
            self.spans.push(span);
        }
    }

    pub fn aggs(&self) -> &Aggs {
        &self.aggs
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Sums the per-name totals of several threads.
pub fn merge_aggs<'a>(tracers: impl IntoIterator<Item = &'a Tracer>) -> Aggs {
    let mut out = [Agg::default(); Name::ALL.len()];
    for t in tracers {
        for (o, a) in out.iter_mut().zip(t.aggs()) {
            o.count += a.count;
            o.total_ns += a.total_ns;
            o.self_ns += a.self_ns;
        }
    }
    out
}

/// Writes one JSON object per span: the operation id, the span's index in
/// its thread (`span`), its parent's index or null, name, start and end.
fn write_jsonl(path: &Path, tracers: &[Tracer]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for tracer in tracers {
        for (idx, s) in tracer.spans().iter().enumerate() {
            let parent = if s.parent == NO_SPAN {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"op\":\"{}:{}\",\"thread\":{},\"span\":{idx},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.op_thread,
                s.op_seq,
                tracer.thread,
                s.name.as_str(),
                s.start_ns,
                s.end_ns
            )?;
        }
    }
    out.flush()
}

/// Writes a workload's spans to `trace-<workload>.jsonl` under `out_dir`.
pub fn write_trace(out_dir: &Path, workload: &str, tracers: &[Tracer]) -> Result<(), String> {
    let path = out_dir.join(format!("trace-{workload}.jsonl"));
    write_jsonl(&path, tracers).map_err(|e| format!("write {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: u32, name: Name, start_ns: u64, end_ns: u64) -> Span {
        Span {
            op_thread: 0,
            op_seq: 0,
            parent,
            name,
            start_ns,
            end_ns,
        }
    }

    fn self_times(spans: &[Span], base: usize) -> Vec<u64> {
        let mut out = Vec::new();
        self_times_into(spans, base, &mut out);
        out
    }

    #[test]
    fn self_time_subtracts_what_children_cover() {
        // txn [0,100] ── begin [5,15]
        //             ├─ read  [20,60] ── (nested) commit [30,40]
        //             └─ write [90,120]  (runs past its parent: clipped)
        let spans = vec![
            span(NO_SPAN, Name::Txn, 0, 100),
            span(0, Name::CoreBegin, 5, 15),
            span(0, Name::CoreRead, 20, 60),
            span(2, Name::CoreCommit, 30, 40),
            span(0, Name::CoreWrite, 90, 120),
        ];
        assert_eq!(
            self_times(&spans, 0),
            vec![100 - 10 - 40 - 10, 10, 30, 10, 30]
        );
        // The same tree stored at an offset in a thread's vector.
        let shifted: Vec<Span> = spans
            .iter()
            .map(|s| Span {
                parent: if s.parent == NO_SPAN {
                    NO_SPAN
                } else {
                    s.parent + 7
                },
                ..s.clone()
            })
            .collect();
        assert_eq!(self_times(&shifted, 7), self_times(&spans, 0));
    }

    #[test]
    fn tracer_links_children_and_aggregates_self_time() {
        let mut t = Tracer::new(3, Instant::now());
        t.begin_op(false, Name::Txn);
        assert_eq!(t.start(Name::CoreRead), NO_SPAN);
        t.end_op();
        assert!(t.spans().is_empty());

        t.begin_op(true, Name::Txn);
        let a = t.start(Name::CoreBegin);
        t.end(a);
        let b = t.start(Name::CoreRead);
        t.end(b);
        t.end_op();
        assert_eq!(t.spans().len(), 3);
        assert_eq!(t.spans()[0].parent, NO_SPAN);
        assert_eq!(t.spans()[1].parent, 0);
        assert_eq!(t.spans()[2].parent, 0);
        let aggs = t.aggs();
        assert_eq!(aggs[Name::Txn as usize].count, 1);
        let children =
            aggs[Name::CoreBegin as usize].total_ns + aggs[Name::CoreRead as usize].total_ns;
        assert_eq!(
            aggs[Name::Txn as usize].self_ns,
            aggs[Name::Txn as usize].total_ns - children
        );
        assert_eq!(t.op_id(), (3, 1));
    }
}
