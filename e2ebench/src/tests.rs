//! The benchmark's own tests: decorators forward every hook, traced
//! counts repeat exactly, child spans stay within their parents, and the
//! benchmark clock agrees with the pacer's own histogram.

use crate::phases::{traced_pass, Paced, WARMUP_CYCLES};
use crate::stats::quantile;
use crate::trace::{ClockCall, Cycles, Layer, RecordingClock, Tracer};
use crate::workloads::Workload;
use std::sync::{Arc, Mutex};
use urt_core::pacer::TimeSource;
use urt_core::threading::ThreadPolicy;
use urt_dataflow::streamer::{FnStreamer, OdeLane, OdeStreamer, StreamerBehavior};
use urt_ode::solver::SolverKind;
use urt_ode::system::InputSystem;
use urt_ode::SolveError;
use urt_umlrt::capsule::{Capsule, CapsuleContext};
use urt_umlrt::message::Message;
use urt_umlrt::value::Value;

type Log = Arc<Mutex<Vec<&'static str>>>;

fn log(l: &Log, hook: &'static str) {
    l.lock().unwrap().push(hook);
}

/// A streamer answering every hook with a distinctive value and logging
/// which hooks reached it.
struct Probe {
    log: Log,
    param: f64,
}

impl StreamerBehavior for Probe {
    fn name(&self) -> &str {
        log(&self.log, "name");
        "probe"
    }
    fn input_width(&self) -> usize {
        log(&self.log, "input_width");
        3
    }
    fn output_width(&self) -> usize {
        log(&self.log, "output_width");
        2
    }
    fn direct_feedthrough(&self) -> bool {
        log(&self.log, "direct_feedthrough");
        false
    }
    fn initialize(&mut self, _t0: f64) -> Result<(), SolveError> {
        log(&self.log, "initialize");
        Err(SolveError::InvalidStep { step: -1.0 })
    }
    fn advance(&mut self, _t: f64, _h: f64, u: &[f64], y: &mut [f64]) -> Result<(), SolveError> {
        log(&self.log, "advance");
        y[0] = u[0] + self.param;
        Ok(())
    }
    fn on_signal(&mut self, _msg: &Message) {
        log(&self.log, "on_signal");
    }
    fn take_emitted(&mut self) -> Vec<(String, Message)> {
        log(&self.log, "take_emitted");
        vec![
            ("ev".into(), Message::new("a", Value::Empty)),
            ("ev".into(), Message::new("b", Value::Empty)),
        ]
    }
    fn clone_fresh(&self) -> Option<Box<dyn StreamerBehavior>> {
        log(&self.log, "clone_fresh");
        Some(Box::new(Probe { log: Arc::clone(&self.log), param: self.param }))
    }
    fn set_param(&mut self, name: &str, value: f64) -> bool {
        log(&self.log, "set_param");
        self.param = value;
        name == "p"
    }
    fn as_ode_lane(&self) -> Option<&dyn OdeLane> {
        log(&self.log, "as_ode_lane");
        None
    }
    fn as_ode_lane_mut(&mut self) -> Option<&mut dyn OdeLane> {
        log(&self.log, "as_ode_lane_mut");
        None
    }
}

#[test]
fn streamer_decorator_forwards_every_hook() {
    let l: Log = Arc::default();
    let tracer = Tracer::new();
    let mut s =
        tracer.streamer(Layer::Blocks, 1, Box::new(Probe { log: Arc::clone(&l), param: 0.0 }));
    assert_eq!(s.name(), "probe");
    assert_eq!(s.input_width(), 3);
    assert_eq!(s.output_width(), 2);
    assert!(!s.direct_feedthrough());
    assert!(s.initialize(0.0).is_err());
    assert!(s.set_param("p", 2.5));
    let mut y = [0.0, 0.0];
    s.advance(0.0, 0.1, &[1.0, 0.0, 0.0], &mut y).unwrap();
    assert_eq!(y[0], 3.5);
    s.on_signal(&Message::new("x", Value::Empty));
    assert_eq!(s.take_emitted().len(), 2);
    let mut copy = s.clone_fresh().expect("inner replicates");
    assert!(s.as_ode_lane().is_none());
    assert!(s.as_ode_lane_mut().is_none());
    copy.advance(0.0, 0.1, &[0.0, 0.0, 0.0], &mut y).unwrap();
    assert_eq!(y[0], 2.5, "the copy carries the inner configuration");
    drop((s, copy));
    let hooks = l.lock().unwrap().clone();
    for hook in [
        "name",
        "input_width",
        "output_width",
        "direct_feedthrough",
        "initialize",
        "advance",
        "on_signal",
        "take_emitted",
        "clone_fresh",
        "set_param",
        "as_ode_lane",
        "as_ode_lane_mut",
    ] {
        assert!(hooks.contains(&hook), "hook {hook} not forwarded");
    }
    let trace = tracer.finish();
    assert_eq!(trace.emitted(), 2);
    assert_eq!(trace.spans(Layer::Blocks, Some(1)).len(), 2, "original and copy each traced");
}

#[derive(Clone)]
struct Decay;

impl InputSystem for Decay {
    fn dim(&self) -> usize {
        1
    }
    fn input_dim(&self) -> usize {
        1
    }
    fn derivatives(&self, _t: f64, x: &[f64], u: &[f64], dx: &mut [f64]) {
        dx[0] = u[0] - x[0];
    }
    fn output(&self, _t: f64, x: &[f64], _u: &[f64], y: &mut [f64]) {
        y[0] = 2.0 * x[0];
        y[1] = -x[0];
    }
    fn output_dim(&self) -> usize {
        2
    }
}

#[test]
fn ode_lanes_and_counted_systems_forward() {
    let tracer = Tracer::new();
    let counted = tracer.counted(Decay);
    assert_eq!((counted.dim(), counted.input_dim(), counted.output_dim()), (1, 1, 2));
    let mut y = [0.0; 2];
    counted.output(0.0, &[1.5], &[0.0], &mut y);
    assert_eq!(y, [3.0, -1.5]);
    let mut dx = [0.0];
    counted.derivatives(0.0, &[1.0], &[3.0], &mut dx);
    assert_eq!(dx, [2.0]);
    drop(counted);
    assert_eq!(tracer.finish().rhs_evals, 1);

    let ode = OdeStreamer::new("d", tracer.counted(Decay), SolverKind::Rk4.create(), &[1.0], 0.01);
    let mut s = tracer.streamer(Layer::Ode, 0, Box::new(ode));
    assert!(s.as_ode_lane().is_some(), "solver-backed lanes stay visible to the ensemble");
    assert!(s.as_ode_lane_mut().is_some());
    assert!(s.set_param("x0[0]", 4.0));
    s.initialize(0.0).unwrap();
    assert_eq!(s.as_ode_lane().unwrap().lane_state(), Some(&[4.0][..]));
    s.advance(0.0, 0.01, &[0.0], &mut y).unwrap();
    drop(s);
    assert_eq!(tracer.finish().rhs_evals, 4, "one RK4 sub-step");

    let plain =
        tracer.streamer(Layer::Blocks, 0, Box::new(FnStreamer::new("f", 0, 1, |_, _, _, _| {})));
    assert!(plain.as_ode_lane().is_none());
}

struct ProbeCapsule {
    log: Log,
}

impl Capsule for ProbeCapsule {
    fn name(&self) -> &str {
        log(&self.log, "name");
        "cap"
    }
    fn on_start(&mut self, _ctx: &mut CapsuleContext) {
        log(&self.log, "on_start");
    }
    fn on_message(&mut self, _msg: &Message, _ctx: &mut CapsuleContext) {
        log(&self.log, "on_message");
    }
    fn current_state(&self) -> &str {
        log(&self.log, "current_state");
        "s1"
    }
}

#[test]
fn capsule_decorator_forwards_every_hook() {
    let l: Log = Arc::default();
    let tracer = Tracer::new();
    let mut c = tracer.capsule(Box::new(ProbeCapsule { log: Arc::clone(&l) }));
    let mut ctx = CapsuleContext::detached(0.0);
    assert_eq!(c.name(), "cap");
    c.on_start(&mut ctx);
    c.on_message(&Message::new("m", Value::Empty), &mut ctx);
    assert_eq!(c.current_state(), "s1");
    drop(c);
    assert_eq!(*l.lock().unwrap(), ["name", "on_start", "on_message", "current_state"]);
    assert_eq!(tracer.finish().spans(Layer::Umlrt, None).len(), 2);
}

#[test]
fn recording_clock_forwards_and_hands_over_its_log() {
    let out: Arc<Mutex<Vec<ClockCall>>> = Arc::default();
    let mut clock = RecordingClock::new(1, Arc::clone(&out));
    let a = clock.now_ns();
    clock.sleep_ns(1_000);
    let b = clock.now_ns();
    assert!(b >= a + 1_000, "sleeps on the wall clock");
    drop(clock);
    assert_eq!(
        *out.lock().unwrap(),
        [ClockCall::Now(a), ClockCall::Sleep(1_000), ClockCall::Now(b)]
    );
}

fn counts(w: &Workload) -> Vec<(&'static str, f64)> {
    let layers = traced_pass(w, 1).expect("traced pass runs");
    assert_eq!(layers.overfull_parents, 0, "child spans never exceed their parent");
    assert_eq!(layers.samples.0, layers.samples.1, "recorder.samples == steps x probes");
    let keep = [
        "ode.rhs_evals_per_step",
        "umlrt.delivered_per_step",
        "recorder.samples",
        "dataflow.emitted_per_step",
    ];
    let self_us = layers.metrics.iter().find(|m| m.0 == "engine.self_us").unwrap().1;
    assert!(self_us >= 0.0);
    layers.metrics.into_iter().filter(|m| keep.contains(&m.0)).map(|m| (m.0, m.1)).collect()
}

#[test]
fn traced_counts_repeat_for_one_seed() {
    for name in crate::workloads::NAMES {
        let w = Workload::generate(name, 7, 2).unwrap();
        let first = counts(&w);
        assert_eq!(first.len(), 4);
        assert_eq!(first, counts(&w), "{name}: counts differ between two traced runs");
        let rhs = first.iter().find(|m| m.0 == "ode.rhs_evals_per_step").unwrap().1;
        assert!(rhs > 0.0, "{name}: ODE systems are counted");
    }
}

#[test]
fn benchmark_clock_agrees_with_the_pacer_histogram() {
    for (name, policy) in [
        ("ctrl-loops", ThreadPolicy::CurrentThread),
        ("plant-pipeline", ThreadPolicy::DedicatedThreads),
    ] {
        let w = Workload::generate(name, 3, 2).unwrap();
        let mut paced = Paced::default();
        paced.run(&w, policy, 300).unwrap();
        let report = &paced.reports[0];
        let cycles = &paced.segments[0].compute_ns;
        assert_eq!(cycles.len() as u64, report.samples, "{name}: one parsed cycle per sample");
        for (q, hist) in [(0.5, report.p50_ns), (0.99, report.p99_ns)] {
            let ours = quantile(cycles, q).unwrap() as f64;
            // The histogram reports its bucket's upper bound: at most 1/16
            // above the exact sample.
            assert!(
                hist >= ours && hist <= ours * 17.0 / 16.0 + 1.0,
                "{name} q{q}: {ours} vs {hist}"
            );
        }
    }
}

#[test]
fn step_times_filter_a_cycle_hit_in_one_replay() {
    let mut paced = Paced::default();
    for hit in 0..4u64 {
        // Step i costs (i + 1) µs in every replay; one replay of step 1
        // also takes an interference hit.
        let mut compute_ns: Vec<u64> = (0..WARMUP_CYCLES as u64 + 3).map(|i| i * 1_000).collect();
        if hit == 2 {
            compute_ns[WARMUP_CYCLES + 1] += 500_000;
        }
        paced.segments.push(Cycles { compute_ns, release_late_ns: Vec::new() });
    }
    let base = WARMUP_CYCLES as f64;
    assert_eq!(paced.step_times_us(), vec![base, base + 1.0, base + 2.0]);
}
