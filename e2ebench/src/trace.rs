//! Outside-in tracing: decorators around the runtime's public trait hooks.
//!
//! Nothing inside the runtime is instrumented. The traced run wraps the
//! behaviours the benchmark hands to the runtime — streamers
//! ([`TracedStreamer`]), capsules ([`TracedCapsule`]), ODE systems
//! ([`Counted`]) and the pacer's clock ([`RecordingClock`]) — and every
//! wrapper forwards every hook to the wrapped value, so the traced run
//! executes the same path as the untraced one.
//!
//! Each decorator owns its span buffer outright: recording a span is a
//! plain `Vec::push` with no lock, so buffers never contend across the
//! engine's solver threads. A decorator hands its buffer to the shared
//! [`Tracer`] sink only when it is dropped, i.e. when the run ends.

use std::cell::Cell;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;
use urt_core::pacer::{TimeSource, WallClock};
use urt_dataflow::streamer::{OdeLane, StreamerBehavior};
use urt_ode::system::InputSystem;
use urt_ode::SolveError;
use urt_umlrt::capsule::{Capsule, CapsuleContext};
use urt_umlrt::message::Message;

/// Nanoseconds since a process-wide origin: the one time base shared by
/// every span, whichever thread records it.
pub fn now_ns() -> u64 {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    let origin = ORIGIN.get_or_init(Instant::now);
    u64::try_from(origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// One closed interval of work, in [`now_ns`] time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Span {
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn len(self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Runs `f` and returns its result with the span it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Span) {
    let start = now_ns();
    let out = f();
    (out, Span { start, end: now_ns() })
}

/// Which runtime layer a streamer decorator's spans belong to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Solver-backed `OdeStreamer`s (`urt-ode` through `urt-dataflow`).
    Ode,
    /// Block diagrams compiled into streamers (`urt-blocks`).
    Blocks,
    /// Capsule handlers (`urt-umlrt`).
    Umlrt,
}

/// What one decorator recorded over its lifetime.
#[derive(Debug)]
pub struct Record {
    pub layer: Layer,
    /// Solver-thread group of the wrapped streamer (0 for capsules).
    pub group: usize,
    pub spans: Vec<Span>,
    /// Signals the wrapped streamer handed out through `take_emitted`.
    pub emitted: u64,
}

#[derive(Debug, Default)]
struct Sink {
    records: Vec<Record>,
    rhs_evals: u64,
}

/// The sink decorators flush into when they are dropped. One tracer per
/// traced engine: drop the engine, then [`Tracer::finish`].
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    sink: Arc<Mutex<Sink>>,
}

/// Everything one traced engine recorded.
#[derive(Debug, Default)]
pub struct Trace {
    pub records: Vec<Record>,
    /// Exact number of right-hand-side evaluations of counted systems.
    pub rhs_evals: u64,
}

impl Trace {
    /// All spans of one layer, optionally restricted to one group.
    pub fn spans(&self, layer: Layer, group: Option<usize>) -> Vec<Span> {
        self.records
            .iter()
            .filter(|r| r.layer == layer && group.is_none_or(|g| r.group == g))
            .flat_map(|r| r.spans.iter().copied())
            .collect()
    }

    /// Total signals emitted by traced streamers.
    pub fn emitted(&self) -> u64 {
        self.records.iter().map(|r| r.emitted).sum()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Self::default()
    }

    /// Wraps a streamer behaviour; its `advance` calls become `layer` spans.
    pub fn streamer(
        &self,
        layer: Layer,
        group: usize,
        inner: Box<dyn StreamerBehavior>,
    ) -> Box<dyn StreamerBehavior> {
        Box::new(TracedStreamer {
            inner,
            record: Record { layer, group, spans: Vec::new(), emitted: 0 },
            tracer: self.clone(),
        })
    }

    /// Wraps a capsule; its `on_start`/`on_message` calls become spans.
    pub fn capsule(&self, inner: Box<dyn Capsule>) -> Box<dyn Capsule> {
        Box::new(TracedCapsule { inner, spans: Vec::new(), tracer: self.clone() })
    }

    /// Wraps an ODE system so its right-hand-side evaluations are counted.
    pub fn counted<S>(&self, inner: S) -> Counted<S> {
        Counted { inner, evals: Cell::new(0), tracer: self.clone() }
    }

    /// Takes everything flushed so far. Call after the traced engine (and
    /// every behaviour it owned) has been dropped.
    pub fn finish(&self) -> Trace {
        let mut sink = self.sink.lock().expect("trace sink poisoned by a panicking decorator");
        Trace {
            records: std::mem::take(&mut sink.records),
            rhs_evals: std::mem::take(&mut sink.rhs_evals),
        }
    }

    fn flush(&self, record: Record) {
        if record.spans.is_empty() && record.emitted == 0 {
            return;
        }
        if let Ok(mut sink) = self.sink.lock() {
            sink.records.push(record);
        }
    }
}

/// A [`StreamerBehavior`] decorator timing every `advance` call.
pub struct TracedStreamer {
    inner: Box<dyn StreamerBehavior>,
    record: Record,
    tracer: Tracer,
}

impl StreamerBehavior for TracedStreamer {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn input_width(&self) -> usize {
        self.inner.input_width()
    }

    fn output_width(&self) -> usize {
        self.inner.output_width()
    }

    fn direct_feedthrough(&self) -> bool {
        self.inner.direct_feedthrough()
    }

    fn initialize(&mut self, t0: f64) -> Result<(), SolveError> {
        self.inner.initialize(t0)
    }

    fn advance(&mut self, t: f64, h: f64, u: &[f64], y: &mut [f64]) -> Result<(), SolveError> {
        let (out, span) = timed(|| self.inner.advance(t, h, u, y));
        self.record.spans.push(span);
        out
    }

    fn on_signal(&mut self, msg: &Message) {
        self.inner.on_signal(msg);
    }

    fn take_emitted(&mut self) -> Vec<(String, Message)> {
        let out = self.inner.take_emitted();
        self.record.emitted += out.len() as u64;
        out
    }

    fn clone_fresh(&self) -> Option<Box<dyn StreamerBehavior>> {
        let inner = self.inner.clone_fresh()?;
        Some(self.tracer.streamer(self.record.layer, self.record.group, inner))
    }

    fn set_param(&mut self, name: &str, value: f64) -> bool {
        self.inner.set_param(name, value)
    }

    fn as_ode_lane(&self) -> Option<&dyn OdeLane> {
        self.inner.as_ode_lane()
    }

    fn as_ode_lane_mut(&mut self) -> Option<&mut dyn OdeLane> {
        self.inner.as_ode_lane_mut()
    }
}

impl Drop for TracedStreamer {
    fn drop(&mut self) {
        let record = Record {
            layer: self.record.layer,
            group: self.record.group,
            spans: std::mem::take(&mut self.record.spans),
            emitted: self.record.emitted,
        };
        self.tracer.flush(record);
    }
}

/// A [`Capsule`] decorator timing every handler run.
pub struct TracedCapsule {
    inner: Box<dyn Capsule>,
    spans: Vec<Span>,
    tracer: Tracer,
}

impl Capsule for TracedCapsule {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_start(&mut self, ctx: &mut CapsuleContext) {
        let ((), span) = timed(|| self.inner.on_start(ctx));
        self.spans.push(span);
    }

    fn on_message(&mut self, msg: &Message, ctx: &mut CapsuleContext) {
        let ((), span) = timed(|| self.inner.on_message(msg, ctx));
        self.spans.push(span);
    }

    fn current_state(&self) -> &str {
        self.inner.current_state()
    }
}

impl Drop for TracedCapsule {
    fn drop(&mut self) {
        let spans = std::mem::take(&mut self.spans);
        self.tracer.flush(Record { layer: Layer::Umlrt, group: 0, spans, emitted: 0 });
    }
}

/// An [`InputSystem`] decorator counting right-hand-side evaluations.
///
/// The count lives in a `Cell` owned by this system alone; a clone starts
/// from zero and reports its own count when dropped.
pub struct Counted<S> {
    inner: S,
    evals: Cell<u64>,
    tracer: Tracer,
}

impl<S: Clone> Clone for Counted<S> {
    fn clone(&self) -> Self {
        self.tracer.counted(self.inner.clone())
    }
}

impl<S: InputSystem> InputSystem for Counted<S> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn input_dim(&self) -> usize {
        self.inner.input_dim()
    }

    fn derivatives(&self, t: f64, x: &[f64], u: &[f64], dx: &mut [f64]) {
        self.evals.set(self.evals.get() + 1);
        self.inner.derivatives(t, x, u, dx);
    }

    fn output(&self, t: f64, x: &[f64], u: &[f64], y: &mut [f64]) {
        self.inner.output(t, x, u, y);
    }

    fn output_dim(&self) -> usize {
        self.inner.output_dim()
    }
}

impl<S> Drop for Counted<S> {
    fn drop(&mut self) {
        if let Ok(mut sink) = self.tracer.sink.lock() {
            sink.rhs_evals += self.evals.get();
        }
    }
}

/// Access to the model-level system inside a (possibly counted) system,
/// so one signal handler or parameter hook serves both runs.
pub trait Plant<T>: InputSystem + Send + Clone + 'static {
    fn plant(&mut self) -> &mut T;
}

impl<T: InputSystem + Send + Clone + 'static> Plant<T> for T {
    fn plant(&mut self) -> &mut T {
        self
    }
}

impl<T: InputSystem + Send + Clone + 'static> Plant<T> for Counted<T> {
    fn plant(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// One call the pacer made on its clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClockCall {
    Now(u64),
    Sleep(u64),
}

/// The benchmark's [`TimeSource`]: the wall clock, with every call
/// logged into a preallocated buffer that is handed over when the pacer
/// drops the clock at the end of `run_paced`.
pub struct RecordingClock {
    wall: WallClock,
    calls: Vec<ClockCall>,
    out: Arc<Mutex<Vec<ClockCall>>>,
}

impl RecordingClock {
    /// A clock with room for `cycles` paced cycles without reallocating.
    pub fn new(cycles: usize, out: Arc<Mutex<Vec<ClockCall>>>) -> Self {
        RecordingClock { wall: WallClock::new(), calls: Vec::with_capacity(5 * cycles + 8), out }
    }
}

impl TimeSource for RecordingClock {
    fn now_ns(&mut self) -> u64 {
        let t = self.wall.now_ns();
        self.calls.push(ClockCall::Now(t));
        t
    }

    fn sleep_ns(&mut self, ns: u64) {
        self.calls.push(ClockCall::Sleep(ns));
        self.wall.sleep_ns(ns);
    }
}

impl Drop for RecordingClock {
    fn drop(&mut self) {
        if let Ok(mut out) = self.out.lock() {
            *out = std::mem::take(&mut self.calls);
        }
    }
}

/// Per-cycle figures recovered from a [`RecordingClock`] log.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Cycles {
    /// Compute time of each cycle: the pacer's end stamp minus its begin
    /// stamp, the same two readings the pacer's own histogram uses.
    pub compute_ns: Vec<u64>,
    /// For each cycle released after a pacing sleep: how far past the
    /// sleep's target the cycle began (OS wake-up lateness).
    pub release_late_ns: Vec<u64>,
}

/// Below this gap, two clock readings belong to the same pacer call
/// sequence rather than to a cycle's begin and end: every workload's
/// cycle computes for microseconds, the pacer's bookkeeping between two
/// readings takes tens of nanoseconds.
const SAME_CALL_GAP_NS: u64 = 1_000;

/// Recovers cycles from the pacer's clock calls.
///
/// The pacer reads the clock once at construction, then per cycle: once
/// at begin (`B`) and once at end (`E`); if `E` is before the release
/// target it reads again (`P1`) and, if still early, sleeps until the
/// target and re-reads (`P2`). A sleep therefore always closes
/// `… B E P1 Sleep P2`, and the target is `P1 + sleep`. Cycles that ended
/// late carry no sleep and come as `B E`, rarely `B E P1` when the target
/// passed between `E` and `P1`; a `P1` is told from the next `B` by the
/// short gap to the reading after it.
pub fn parse_cycles(calls: &[ClockCall]) -> Cycles {
    let mut out = Cycles::default();
    let mut nows: Vec<u64> = Vec::new();
    let mut target: Option<u64> = None;
    let mut skip_next_now = false;
    // Skip the construction-time origin reading.
    for call in calls.iter().skip(1) {
        match *call {
            ClockCall::Now(t) => {
                if skip_next_now {
                    skip_next_now = false;
                    continue;
                }
                if nows.is_empty() {
                    if let Some(due) = target.take() {
                        out.release_late_ns.push(t.saturating_sub(due));
                    }
                }
                nows.push(t);
            }
            ClockCall::Sleep(ns) => {
                // nows = [unslept cycles…, B, E, P1]
                if nows.len() >= 3 {
                    let p1 = nows[nows.len() - 1];
                    let split = nows.len() - 3;
                    parse_unslept(&nows[..split], &mut out.compute_ns);
                    out.compute_ns.push(nows[split + 1].saturating_sub(nows[split]));
                    target = Some(p1.saturating_add(ns));
                }
                nows.clear();
                skip_next_now = true;
            }
        }
    }
    parse_unslept(&nows, &mut out.compute_ns);
    out
}

fn parse_unslept(nows: &[u64], compute: &mut Vec<u64>) {
    let mut i = 0;
    while i + 1 < nows.len() {
        compute.push(nows[i + 1].saturating_sub(nows[i]));
        i += 2;
        // A `P1` reading follows `E` closely and is followed closely by
        // the next `B`.
        if i + 1 < nows.len() && nows[i + 1].saturating_sub(nows[i]) < SAME_CALL_GAP_NS {
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ClockCall::{Now, Sleep};

    #[test]
    fn parses_slept_late_and_straggling_cycles() {
        let calls = [
            Now(0),
            // slept cycle: B E P1 Sleep P2
            Now(100),
            Now(5_100),
            Now(5_130),
            Sleep(994_870),
            Now(1_000_200),
            // next cycle begins 50 ns after P2, 250 ns past its target
            Now(1_000_250),
            Now(2_500_250),
            // that cycle ended late, so the next B follows E directly
            Now(2_500_300),
            Now(2_510_300),
            // target passed between E and P1: B E P1 with no sleep
            Now(2_510_340),
            Now(2_520_000),
            Now(2_520_030),
            // a straggler P1 in mid-run, then a slept cycle
            Now(2_520_080),
            Now(2_530_000),
            Now(2_530_040),
            Now(2_530_090),
            Now(2_540_000),
            Now(2_540_500),
            Sleep(400_000),
            Now(2_940_600),
            Now(2_940_700),
        ];
        let c = parse_cycles(&calls);
        assert_eq!(c.compute_ns, vec![5_000, 1_500_000, 10_000, 9_660, 9_920, 9_910]);
        assert_eq!(c.release_late_ns, vec![250, 200]);
    }

    #[test]
    fn span_helpers() {
        let (v, s) = timed(|| 7);
        assert_eq!(v, 7);
        assert!(s.end >= s.start);
        assert_eq!(Span { start: 5, end: 3 }.len(), 0);
    }
}
