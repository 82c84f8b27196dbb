//! Tracing from outside the program: the span sink, the
//! [`TracedTransport`] decorator that yields `transport.call ⊃
//! agent.handle` on every lane of a real round, span self-time
//! arithmetic, and the counting allocator behind the `alloc.*` metrics.
//!
//! Everything here wraps public API only. With the tracer off the
//! decorator forwards `call` untouched, so end-to-end numbers are taken
//! with no clock reads on the hot path.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use cia_keylime::{Transport, TransportError};
use serde::de::DeserializeOwned;
use serde::Serialize;

/// One timed interval. `parent` indexes into the same span list.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Span {
    /// `layer.operation`, e.g. `transport.call`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the span that caused this one, if any.
    pub parent: Option<usize>,
    /// The harness round (day) the span belongs to.
    pub round: u64,
    /// The transport lane (the agent's slot in the round), when the span
    /// was recorded on one.
    pub lane: Option<u64>,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The shared span sink plus the exact call/byte counts every lane
/// reports when it is dropped.
///
/// Harness-side spans ([`Tracer::span`]) nest on the driving thread; spans
/// recorded on worker lanes attach to whichever harness span is open.
#[derive(Debug)]
pub struct Tracer {
    on: AtomicBool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    /// Index of the open harness span, or `usize::MAX` for none.
    current: AtomicUsize,
    round: AtomicU64,
    lane_calls: AtomicU64,
    lane_bytes: AtomicU64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            on: AtomicBool::new(false),
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            current: AtomicUsize::new(usize::MAX),
            round: AtomicU64::new(0),
            lane_calls: AtomicU64::new(0),
            lane_bytes: AtomicU64::new(0),
        }
    }
}

impl Tracer {
    /// A tracer that records nothing until [`Tracer::set_on`].
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Turns span recording on or off. Only call between rounds.
    pub fn set_on(&self, on: bool) {
        // Relaxed: the flag publishes no data, and it only changes while
        // no lane is running.
        self.on.store(on, Ordering::Relaxed);
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    /// Stamps later spans with the harness round number.
    pub fn set_round(&self, round: u64) {
        self.round.store(round, Ordering::Relaxed);
    }

    fn current(&self) -> Option<usize> {
        let current = self.current.load(Ordering::SeqCst);
        (current != usize::MAX).then_some(current)
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn push(&self, span: Span) -> usize {
        let mut spans = self.spans.lock().expect("no lane panics holding the sink");
        spans.push(span);
        spans.len() - 1
    }

    /// Opens a harness span and makes it the parent of what follows.
    /// Returns `None` (and records nothing) while the tracer is off.
    fn begin(&self, name: &'static str) -> Option<usize> {
        if !self.is_on() {
            return None;
        }
        let parent = self.current();
        let start_ns = self.now_ns();
        let id = self.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            round: self.round.load(Ordering::Relaxed),
            lane: None,
        });
        self.current.store(id, Ordering::SeqCst);
        Some(id)
    }

    /// Closes a span opened by `begin`.
    fn end(&self, id: Option<usize>) {
        let Some(id) = id else { return };
        let end_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("no lane panics holding the sink");
        spans[id].end_ns = end_ns;
        self.current
            .store(spans[id].parent.unwrap_or(usize::MAX), Ordering::SeqCst);
    }

    /// Runs `f` inside a harness span.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("no lane panics holding the sink")
            .clone()
    }

    /// RPCs attempted on lanes that have finished, over the tracer's life.
    pub fn lane_calls(&self) -> u64 {
        self.lane_calls.load(Ordering::Relaxed)
    }

    /// Bytes serialized on lanes that have finished, both directions.
    pub fn lane_bytes(&self) -> u64 {
        self.lane_bytes.load(Ordering::Relaxed)
    }
}

/// A [`Transport`] decorator in the shape of the in-tree
/// `ChaosTransport`: forwards `call`, forks per lane, wraps the `serve`
/// closure. Each lane adds its exact request and byte totals to the
/// shared [`Tracer`] when it is dropped, tracing on or off.
#[derive(Debug)]
pub struct TracedTransport<T: Transport> {
    inner: T,
    tracer: Arc<Tracer>,
    lane: Option<u64>,
}

impl<T: Transport> TracedTransport<T> {
    /// Wraps `inner`, reporting into `tracer`.
    pub fn new(inner: T, tracer: Arc<Tracer>) -> Self {
        TracedTransport {
            inner,
            tracer,
            lane: None,
        }
    }
}

impl<T: Transport> Drop for TracedTransport<T> {
    fn drop(&mut self) {
        // The base transport carries the direct (non-round) calls and is
        // read through `requests()`/`wire_bytes()` instead.
        if self.lane.is_some() {
            self.tracer
                .lane_calls
                .fetch_add(self.inner.requests(), Ordering::Relaxed);
            self.tracer
                .lane_bytes
                .fetch_add(self.inner.wire_bytes(), Ordering::Relaxed);
        }
    }
}

impl<T: Transport> Transport for TracedTransport<T> {
    fn call<Req, Resp>(
        &mut self,
        request: &Req,
        serve: impl FnOnce(Req) -> Resp,
    ) -> Result<Resp, TransportError>
    where
        Req: Serialize + DeserializeOwned,
        Resp: Serialize + DeserializeOwned,
    {
        let tracer = &self.tracer;
        if !tracer.is_on() {
            return self.inner.call(request, serve);
        }
        let parent = tracer.current();
        let round = tracer.round.load(Ordering::Relaxed);
        let start_ns = tracer.now_ns();
        let mut handle = (start_ns, start_ns);
        let result = self.inner.call(request, |req| {
            let served_from = tracer.now_ns();
            let resp = serve(req);
            handle = (served_from, tracer.now_ns());
            resp
        });
        let end_ns = tracer.now_ns();
        let mut spans = tracer
            .spans
            .lock()
            .expect("no lane panics holding the sink");
        let call = spans.len();
        spans.push(Span {
            name: "transport.call",
            start_ns,
            end_ns,
            parent,
            round,
            lane: self.lane,
        });
        spans.push(Span {
            name: "agent.handle",
            start_ns: handle.0,
            end_ns: handle.1,
            parent: Some(call),
            round,
            lane: self.lane,
        });
        result
    }

    fn requests(&self) -> u64 {
        self.inner.requests()
    }

    fn drops(&self) -> u64 {
        self.inner.drops()
    }

    fn wire_bytes(&self) -> u64 {
        self.inner.wire_bytes()
    }

    fn supports_structured_excerpt(&self) -> bool {
        self.inner.supports_structured_excerpt()
    }

    fn supports_delta_push(&self) -> bool {
        self.inner.supports_delta_push()
    }

    fn fork(&self, lane: u64) -> Self {
        TracedTransport {
            inner: self.inner.fork(lane),
            tracer: Arc::clone(&self.tracer),
            lane: Some(lane),
        }
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its direct children cover (overlapping children count once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.dur_ns() - covered
        })
        .collect()
}

/// A `System` allocator that counts allocations and requested bytes
/// while armed. Installed as the global allocator of whatever links this
/// crate and armed only around traced rounds.
pub struct CountingAlloc;

/// One thread's share of the counters, on a cache line of its own so
/// that lanes counting at once do not slow each other down.
#[repr(align(128))]
struct Stripe {
    count: AtomicU64,
    bytes: AtomicU64,
}

const STRIPE_COUNT: usize = 64;
static ALLOC_ARMED: AtomicBool = AtomicBool::new(false);
static STRIPES: [Stripe; STRIPE_COUNT] = [const {
    Stripe {
        count: AtomicU64::new(0),
        bytes: AtomicU64::new(0),
    }
}; STRIPE_COUNT];

thread_local! {
    // Const-initialized and without a destructor, so reading its address
    // inside the allocator neither allocates nor outlives the thread.
    static STRIPE_KEY: u8 = const { 0 };
}

fn record(bytes: usize) {
    if ALLOC_ARMED.load(Ordering::Relaxed) {
        let key = STRIPE_KEY.with(|k| k as *const u8 as usize);
        let stripe = &STRIPES[key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (usize::BITS - 6)];
        stripe.count.fetch_add(1, Ordering::Relaxed);
        stripe.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

fn recorded() -> (u64, u64) {
    STRIPES.iter().fold((0, 0), |(count, bytes), s| {
        (
            count + s.count.load(Ordering::Relaxed),
            bytes + s.bytes.load(Ordering::Relaxed),
        )
    })
}

// SAFETY: every method forwards to `System` with the caller's layout and
// pointer unchanged, so `System`'s guarantees carry over; the counters
// are plain atomics and never touch the allocation.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` for this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        // SAFETY: `ptr`/`layout` describe a live `System` block.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Runs `f` with the allocation counter armed; returns its result and
/// the `(allocations, bytes)` made meanwhile, by every thread.
pub fn count_allocs<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    let (count, bytes) = recorded();
    ALLOC_ARMED.store(true, Ordering::Relaxed);
    let out = f();
    ALLOC_ARMED.store(false, Ordering::Relaxed);
    let (count_after, bytes_after) = recorded();
    (out, count_after - count, bytes_after - bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "t",
            start_ns,
            end_ns,
            parent,
            round: 0,
            lane: None,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(0, 100, None),
            // Two lanes overlapping on [20, 40): covered once.
            span(10, 40, Some(0)),
            span(20, 60, Some(0)),
            // A grandchild shortens its parent, not the root.
            span(25, 35, Some(2)),
            // Clipped to the parent's interval.
            span(90, 130, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 30, 30, 10, 40]);
    }

    #[test]
    fn self_time_of_a_leaf_is_its_duration() {
        assert_eq!(self_times_ns(&[span(5, 9, None)]), vec![4]);
    }

    #[test]
    fn harness_spans_nest_and_restore_the_parent() {
        let tracer = Tracer::new();
        assert_eq!(tracer.begin("off"), None, "off records nothing");
        tracer.set_on(true);
        let outer = tracer.begin("outer");
        tracer.span("inner", || ());
        tracer.span("sibling", || ());
        tracer.end(outer);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans[0].end_ns >= spans[2].end_ns);
    }
}
