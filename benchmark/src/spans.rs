//! Spans recorded by the benchmark around its calls into the program.
//!
//! The load loops are generic over [`Probe`]: the end-to-end binary runs
//! them with [`NoProbe`], which compiles to nothing, and the traced binary
//! with [`Spans`], a preallocated in-memory buffer written out as JSON lines
//! only after all timing has ended.

use std::io::Write;
use std::time::Instant;

/// What a span timed. The names are the public calls the benchmark makes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Call {
    /// One whole pass of a waterfall row (the parent of the calls in it).
    Pass,
    /// `PipelineScanner::dispatch` (with the `Packet::new` copy).
    Dispatch,
    /// `PipelineScanner::close_flow`.
    CloseFlow,
    /// `PipelineScanner::poll` that returned alerts.
    Poll,
    /// `PipelineScanner::drain`.
    Drain,
    /// A per-flow or per-packet call of an in-thread waterfall row.
    Scan,
}

/// Receives the spans of a load loop.
pub trait Probe {
    /// A timestamp to hand back to [`Probe::record`], in ns.
    fn now(&self) -> u64;
    /// Records one finished call that began at `start`.
    fn record(&mut self, call: Call, start: u64, flow: u32, packet: u32);
}

/// Tracing off: no clock reads, no stores.
pub struct NoProbe;

impl Probe for NoProbe {
    #[inline(always)]
    fn now(&self) -> u64 {
        0
    }

    #[inline(always)]
    fn record(&mut self, _call: Call, _start: u64, _flow: u32, _packet: u32) {}
}

/// One recorded span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Index into [`Spans::rows`]: the waterfall row the span belongs to.
    pub row: u16,
    /// What was timed.
    pub call: Call,
    /// Index of the enclosing [`Call::Pass`] span, `u32::MAX` for a pass.
    pub parent: u32,
    /// Pass number within the row.
    pub pass: u32,
    /// Flow within the pass (`u32::MAX` when the call is not per flow).
    pub flow: u32,
    /// Packet within the flow (`u32::MAX` when the call is not per packet).
    pub packet: u32,
    /// Start, ns since the buffer was created.
    pub start: u64,
    /// End, ns since the buffer was created.
    pub end: u64,
}

/// Marks a span field as not applicable.
pub const NONE: u32 = u32::MAX;

/// The span buffer. Capacity is fixed up front; once full, further calls
/// are counted in [`Spans::dropped`] instead of growing the buffer inside a
/// timed region.
pub struct Spans {
    epoch: Instant,
    buffer: Vec<Span>,
    /// Waterfall row names, indexed by [`Span::row`].
    rows: Vec<&'static str>,
    /// The open pass: its index in the buffer and its pass number.
    open: Option<(u32, u32)>,
    /// False between passes and in passes recorded only as a whole.
    detail: bool,
    /// Calls of kept passes that did not fit.
    pub dropped: u64,
    /// `dropped` when the open pass began: a pass whose calls are discarded
    /// anyway does not count what it could not hold.
    dropped_before: u64,
}

impl Spans {
    /// A buffer for up to `capacity` spans.
    pub fn with_capacity(capacity: usize) -> Spans {
        Spans {
            epoch: Instant::now(),
            buffer: Vec::with_capacity(capacity),
            rows: Vec::new(),
            open: None,
            detail: false,
            dropped: 0,
            dropped_before: 0,
        }
    }

    fn clock(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens pass `pass` of row `row`. With `detail`, the calls made until
    /// [`Spans::end_pass`] are recorded as its children; without, only the
    /// pass itself is — that is how rows are timed, so that the clock reads
    /// around sub-microsecond calls do not end up in the row's own number.
    pub fn begin_pass(&mut self, row: &'static str, pass: u32, detail: bool) {
        let row_index = match self.rows.iter().position(|r| *r == row) {
            Some(index) => index,
            None => {
                self.rows.push(row);
                self.rows.len() - 1
            }
        };
        self.open = Some((self.buffer.len() as u32, pass));
        self.detail = detail;
        self.dropped_before = self.dropped;
        let start = self.clock();
        // Passes begin outside timed regions, so this push may grow the
        // buffer; only the calls inside a pass are held to the capacity.
        self.buffer.push(Span {
            row: row_index as u16,
            call: Call::Pass,
            parent: NONE,
            pass,
            flow: NONE,
            packet: NONE,
            start,
            end: start,
        });
    }

    /// Closes the open pass and returns its duration in ns. Without
    /// `keep_calls` the calls recorded inside it are discarded again: a row
    /// can then be traced on every pass, at the same cost, while the buffer
    /// holds the calls of one.
    pub fn end_pass(&mut self, keep_calls: bool) -> u64 {
        let end = self.clock();
        let (index, _) = self.open.take().expect("end_pass without begin_pass");
        self.detail = false;
        if !keep_calls {
            self.buffer.truncate(index as usize + 1);
            self.dropped = self.dropped_before;
        }
        let span = &mut self.buffer[index as usize];
        span.end = end;
        end - span.start
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.buffer.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.buffer.is_empty()
    }

    /// The recorded `call` spans of waterfall row `row`.
    pub fn calls<'a>(&'a self, row: &str, call: Call) -> impl Iterator<Item = &'a Span> {
        let row = self.rows.iter().position(|r| *r == row);
        self.buffer
            .iter()
            .filter(move |s| s.call == call && Some(s.row as usize) == row)
    }

    /// Writes the buffer as JSON lines: one object per span.
    pub fn write_jsonl(&self, workload: &str, out: &mut impl Write) -> std::io::Result<()> {
        for (index, span) in self.buffer.iter().enumerate() {
            write!(
                out,
                "{{\"id\": {index}, \"workload\": \"{workload}\", \"row\": \"{}\", \"call\": \"{:?}\", \"pass\": {}, \"start_ns\": {}, \"end_ns\": {}",
                self.rows[span.row as usize], span.call, span.pass, span.start, span.end
            )?;
            for (key, value) in [
                ("parent", span.parent),
                ("flow", span.flow),
                ("packet", span.packet),
            ] {
                if value != NONE {
                    write!(out, ", \"{key}\": {value}")?;
                }
            }
            writeln!(out, "}}")?;
        }
        Ok(())
    }
}

impl Probe for Spans {
    #[inline]
    fn now(&self) -> u64 {
        if self.detail {
            self.clock()
        } else {
            0
        }
    }

    #[inline]
    fn record(&mut self, call: Call, start: u64, flow: u32, packet: u32) {
        if !self.detail {
            return;
        }
        if self.buffer.len() == self.buffer.capacity() {
            self.dropped += 1;
            return;
        }
        let end = self.clock();
        let (parent, pass) = self.open.expect("detail implies an open pass");
        let row = self.buffer[parent as usize].row;
        self.buffer.push(Span {
            row,
            call,
            parent,
            pass,
            flow,
            packet,
            start,
            end,
        });
    }
}
