//! The measured phases of one run — set-up, free-running windows, the
//! paced run — and the correctness checks, all driving the runtime
//! through its public pipeline:
//! `ModelBuilder` → `urt_analysis::compile` → `HybridEngine` /
//! `EnsembleEngine` → `run_until` / `run_paced`.

use crate::stats::{coverage, median, midmean, quantile};
use crate::trace::{
    now_ns, parse_cycles, timed, ClockCall, Cycles, Layer, RecordingClock, Span, Trace, Tracer,
};
use crate::workloads::{sweep_model, temp_series, Sim, Workload, STEP};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use urt_core::engine::{EngineConfig, HybridEngine};
use urt_core::ensemble::EnsembleEngine;
use urt_core::pacer::{PacedConfig, PacedReport};
use urt_core::recorder::Recorder;
use urt_core::threading::ThreadPolicy;
use urt_core::CoreError;
use urt_ode::rng::Pcg32;

/// Model → analyze + compile → engine, for a fresh model (no compile
/// cache): one cold set-up.
pub fn build(
    w: &Workload,
    tracer: Option<&Tracer>,
    policy: ThreadPolicy,
) -> Result<Sim, CoreError> {
    let (model, registry) = w.model(tracer);
    let compiled = urt_analysis::compile(&model, registry)?;
    w.engine(&compiled, policy)
}

/// Times cold set-ups until `budget` has passed (at least `min_reps`),
/// appending each one's seconds to `out`.
pub fn setup_seconds(
    w: &Workload,
    budget: Duration,
    min_reps: usize,
    out: &mut Vec<f64>,
) -> Result<(), CoreError> {
    let deadline = Instant::now() + budget;
    let mut reps = 0;
    while reps < min_reps || Instant::now() < deadline {
        let t = Instant::now();
        let sim = build(w, None, w.policy())?;
        out.push(t.elapsed().as_secs_f64());
        drop(sim);
        reps += 1;
    }
    Ok(())
}

/// Per-layer set-up times (ms, medians) and the analyzer's finding count.
#[derive(Debug, Default)]
pub struct SetupLayers {
    pub build_ms: f64,
    pub analyze_ms: f64,
    pub compile_ms: f64,
    pub instantiate_ms: f64,
    pub engine_ms: f64,
    pub diagnostics: usize,
    pub reps: usize,
}

/// Times each pipeline call of a cold set-up separately. `compile`
/// runs the analyzer as its gate, so the elaboration share is compile
/// time minus the analyze time of the same repetition.
pub fn setup_layers(w: &Workload, budget: Duration) -> Result<SetupLayers, CoreError> {
    let deadline = Instant::now() + budget;
    let mut cols: [Vec<f64>; 5] = Default::default();
    let mut diagnostics = 0;
    while cols[0].len() < 5 || Instant::now() < deadline {
        let ((model, registry), t_build) = timed(|| w.model(None));
        let (diags, t_analyze) = timed(|| urt_analysis::analyze(&model));
        let (compiled, t_compile) = timed(|| urt_analysis::compile(&model, registry));
        let compiled = compiled?;
        let (instance, t_inst) = timed(|| compiled.instantiate());
        drop(instance?);
        let (sim, t_engine) = timed(|| w.engine(&compiled, w.policy()));
        drop(sim?);
        diagnostics = diags.len();
        let ms = |s: Span| s.len() as f64 * 1e-6;
        cols[0].push(ms(t_build));
        cols[1].push(ms(t_analyze));
        cols[2].push(ms(t_compile) - ms(t_analyze));
        cols[3].push(ms(t_inst));
        cols[4].push(ms(t_engine));
    }
    Ok(SetupLayers {
        build_ms: median(&cols[0]),
        analyze_ms: median(&cols[1]),
        compile_ms: median(&cols[2]),
        instantiate_ms: median(&cols[3]),
        engine_ms: median(&cols[4]),
        diagnostics,
        reps: cols[0].len(),
    })
}

/// Free-running windows on one engine.
#[derive(Debug, Default)]
pub struct Windows {
    /// Instance-steps and nanoseconds over all windows.
    pub total: (u64, u64),
    /// Instance-steps per second of each window.
    pub rates: Vec<f64>,
    pub window_spans: Vec<Span>,
    /// Per-macro-step spans, when driven step by step.
    pub step_spans: Vec<Span>,
    pub steps: u64,
    /// Recorder samples taken, and the number expected from
    /// steps × probes × instances.
    pub samples: (u64, u64),
    /// Controller `(delivered, dropped)` at the end.
    pub controller: (u64, u64),
}

/// How many windows to run: until a deadline, or a fixed count.
#[derive(Debug, Clone, Copy)]
pub enum Until {
    Deadline(Instant),
    Count(usize),
}

/// Runs free-running (closed-loop: each step starts when the previous
/// one ends) windows of `w.window_steps()` macro steps, appending to
/// `out`. With `per_step`, the window is driven one `step_once` at a
/// time and each step's span is kept; otherwise one `run_until` covers
/// the window. A fresh recorder per window keeps memory flat.
pub fn windows(
    sim: &mut Sim,
    w: &Workload,
    until: Until,
    per_step: bool,
    out: &mut Windows,
) -> Result<(), CoreError> {
    let steps_per_window = w.window_steps();
    let mut done = 0;
    loop {
        let finished = match until {
            Until::Deadline(d) => done > 0 && Instant::now() >= d,
            Until::Count(n) => done >= n,
        };
        if finished {
            break;
        }
        let recorder = Recorder::new();
        sim.set_recorder(recorder.clone());
        let n0 = sim.step_count();
        let start = now_ns();
        if per_step {
            for _ in 0..steps_per_window {
                let (r, span) = timed(|| sim.step_once());
                r?;
                out.step_spans.push(span);
            }
        } else {
            sim.run_until(sim.time() + steps_per_window as f64 * STEP)?;
        }
        let span = Span { start, end: now_ns() };
        let steps = sim.step_count() - n0;
        let instance_steps = steps * w.instances() as u64;
        out.rates.push(instance_steps as f64 / (span.len() as f64 * 1e-9));
        out.total.0 += instance_steps;
        out.total.1 += span.len();
        out.window_spans.push(span);
        out.steps += steps;
        out.samples.0 += recorder.len() as u64;
        out.samples.1 += steps_per_window * w.samples_per_step() as u64;
        done += 1;
    }
    out.controller = sim.controller_counts();
    Ok(())
}

/// A free-running engine, warmed up by one window.
pub fn free_engine(w: &Workload, tracer: Option<&Tracer>) -> Result<Sim, CoreError> {
    let mut sim = build(w, tracer, w.policy())?;
    windows(&mut sim, w, Until::Count(1), false, &mut Windows::default())?;
    Ok(sim)
}

/// Cycles at the start of each paced segment left out of its statistics:
/// the first one runs the engine's one-time start (initialising every
/// streamer, starting the controller), and the next ones run on caches
/// the round's set-ups and free-running windows have just evicted.
pub const WARMUP_CYCLES: usize = 3;

/// Paced segments (open loop: each macro step is released on the 1 ms
/// schedule whether or not the previous one was late) and what they
/// measured so far.
///
/// Every segment runs a fresh engine from time zero: `run_paced` paces
/// against the engine's absolute simulation time, so resuming an engine
/// that has already simulated `t` seconds first sleeps `t` seconds.
#[derive(Default)]
pub struct Paced {
    /// The latest segment's recorder and macro steps.
    pub recorder: Recorder,
    pub steps: u64,
    pub reports: Vec<PacedReport>,
    /// What the recording clock saw, one entry per segment.
    pub segments: Vec<Cycles>,
    /// Messages the controllers dropped, over all segments.
    pub dropped: u64,
}

impl Paced {
    /// Runs one segment of `cycles` macro steps under `run_paced` at real
    /// time, with the benchmark's recording clock injected. On the
    /// threaded engine every macro step is released on its own (batch of
    /// one).
    pub fn run(
        &mut self,
        w: &Workload,
        policy: ThreadPolicy,
        cycles: u64,
    ) -> Result<(), CoreError> {
        let mut sim = build(w, None, policy)?;
        sim.set_max_batch(1);
        self.recorder = Recorder::new();
        sim.set_recorder(self.recorder.clone());
        let calls: Arc<Mutex<Vec<ClockCall>>> = Arc::default();
        let clock = RecordingClock::new(cycles as usize, Arc::clone(&calls));
        let config = PacedConfig::new().with_rate(1.0).with_clock(Box::new(clock));
        self.reports.push(sim.run_paced(cycles as f64 * STEP, config)?);
        self.steps = sim.step_count();
        self.dropped += sim.controller_counts().1;
        let calls = std::mem::take(&mut *calls.lock().expect("clock log poisoned"));
        self.segments.push(parse_cycles(&calls));
        Ok(())
    }

    /// The cycles of all segments, each without its first
    /// [`WARMUP_CYCLES`].
    pub fn pooled(&self) -> Cycles {
        let mut out = Cycles::default();
        for seg in &self.segments {
            out.compute_ns.extend(seg.compute_ns.iter().skip(WARMUP_CYCLES));
            out.release_late_ns.extend(seg.release_late_ns.iter().skip(WARMUP_CYCLES));
        }
        out
    }

    /// Each measured step's compute time in microseconds, as the
    /// interquartile mean over segments of that step's cycles (the first
    /// [`WARMUP_CYCLES`] of each segment left out).
    pub fn step_times_us(&self) -> Vec<f64> {
        let steps = self.segments.iter().map(|seg| seg.compute_ns.len()).max().unwrap_or(0);
        (WARMUP_CYCLES..steps)
            .map(|i| {
                let repeats: Vec<f64> = self
                    .segments
                    .iter()
                    .filter_map(|seg| seg.compute_ns.get(i))
                    .map(|&ns| ns as f64 * 1e-3)
                    .collect();
                midmean(&repeats)
            })
            .collect()
    }

    pub fn misses(&self) -> u64 {
        self.reports.iter().map(|r| r.misses).sum()
    }
}

/// A free run of `steps` macro steps from a fresh engine, recorded.
pub fn reference(
    w: &Workload,
    steps: u64,
    policy: ThreadPolicy,
    tracer: Option<&Tracer>,
) -> Result<(Recorder, (u64, u64)), CoreError> {
    let mut sim = build(w, tracer, policy)?;
    let recorder = Recorder::new();
    sim.set_recorder(recorder.clone());
    sim.run_until(steps as f64 * STEP)?;
    Ok((recorder, sim.controller_counts()))
}

/// Every series of `a` equals its namesake in `b` bit for bit (after
/// renaming through `rename`), and neither is empty.
pub fn same_series(a: &Recorder, b: &Recorder, rename: impl Fn(&str) -> String) -> bool {
    let names = a.names();
    !names.is_empty()
        && names.iter().all(|n| {
            let (x, y) = (a.series(n), b.series(&rename(n)));
            !x.is_empty()
                && x.len() == y.len()
                && x.iter()
                    .zip(&y)
                    .all(|(p, q)| p.0.to_bits() == q.0.to_bits() && p.1.to_bits() == q.1.to_bits())
        })
}

/// One named correctness check and its outcome.
#[derive(Debug)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

impl Check {
    fn outcome(name: &str, r: Result<(bool, String), CoreError>) -> Self {
        match r {
            Ok((ok, detail)) => Check { name: name.to_owned(), ok, detail },
            Err(e) => Check { name: name.to_owned(), ok: false, detail: format!("error: {e}") },
        }
    }
}

/// Macro steps of the prefix the equivalence checks compare.
const PREFIX_STEPS: u64 = 1_000;
/// `param-sweep` instances re-run standalone per check.
const SWEEP_SAMPLE: usize = 4;

/// The invariants every run checks. They hold for any correct engine;
/// none is a golden copy of today's output.
pub fn checks(w: &Workload, seed: u64, paced: Option<&Paced>) -> Vec<Check> {
    let mut out = Vec::new();
    if let Some(p) = paced {
        out.push(Check::outcome(
            "paced-equals-free-run",
            (|| {
                let (free, counts) = reference(w, p.steps, ThreadPolicy::CurrentThread, None)?;
                let expected = p.steps * w.samples_per_step() as u64;
                let ok = same_series(&p.recorder, &free, str::to_owned)
                    && p.recorder.len() as u64 == expected;
                let dropped = p.dropped + counts.1;
                Ok((ok && dropped == 0, format!("{} samples, {dropped} dropped", p.recorder.len())))
            })(),
        ));
        if let Workload::CtrlLoops(loops) = w {
            out.push(Check::outcome("thermostat-band", Ok(band_check(loops, &p.recorder))));
        }
    }
    out.push(Check::outcome(
        "traced-equals-untraced",
        (|| {
            let tracer = Tracer::new();
            let (traced, _) = reference(w, PREFIX_STEPS, w.policy(), Some(&tracer))?;
            let (plain, _) = reference(w, PREFIX_STEPS, w.policy(), None)?;
            Ok((same_series(&traced, &plain, str::to_owned), format!("{PREFIX_STEPS} steps")))
        })(),
    ));
    match w {
        Workload::PlantPipeline(_) => {
            out.push(Check::outcome(
                "dedicated-equals-current-thread",
                (|| {
                    let (threads, _) =
                        reference(w, PREFIX_STEPS, ThreadPolicy::DedicatedThreads, None)?;
                    let (local, _) = reference(w, PREFIX_STEPS, ThreadPolicy::CurrentThread, None)?;
                    Ok((
                        same_series(&threads, &local, str::to_owned),
                        format!("{PREFIX_STEPS} steps"),
                    ))
                })(),
            ));
        }
        Workload::ParamSweep(variants) => {
            out.push(Check::outcome(
                "ensemble-equals-standalone",
                (|| {
                    let (ensemble, _) =
                        reference(w, PREFIX_STEPS, ThreadPolicy::CurrentThread, None)?;
                    let mut rng = Pcg32::new(seed, 0x5eed);
                    let mut picked = Vec::new();
                    let mut ok = true;
                    for _ in 0..SWEEP_SAMPLE {
                        let i = rng.gen_range_usize(0, variants.len());
                        picked.push(i);
                        let (model, registry) = sweep_model(variants[i], None);
                        let compiled = urt_analysis::compile(&model, registry)?;
                        let config =
                            EngineConfig { step: STEP, policy: ThreadPolicy::CurrentThread };
                        let mut engine = HybridEngine::from_compiled(&compiled, config)?;
                        let alone = Recorder::new();
                        engine.set_recorder(alone.clone());
                        engine.run_until(PREFIX_STEPS as f64 * STEP)?;
                        ok &= same_series(&alone, &ensemble, |n| EnsembleEngine::series_name(n, i));
                    }
                    Ok((ok, format!("instances {picked:?}, {PREFIX_STEPS} steps")))
                })(),
            ));
        }
        Workload::CtrlLoops(_) => {}
    }
    out
}

/// Every recorded temperature stays inside its loop's hysteresis band,
/// widened by the loop's solver-tied tolerance.
fn band_check(loops: &[crate::workloads::LoopParams], recorder: &Recorder) -> (bool, String) {
    let mut worst = f64::NEG_INFINITY;
    for (i, p) in loops.iter().enumerate() {
        for (_, temp) in recorder.series(&temp_series(i)) {
            let outside = (temp - p.setpoint).abs() - p.band;
            worst = worst.max(outside / p.tolerance());
        }
    }
    (worst <= 1.0, format!("worst excursion {worst:.3} of tolerance"))
}

/// Per-layer figures of one traced pass.
pub struct Layers {
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Child spans that cover more than their parent (must be zero).
    pub overfull_parents: usize,
    pub samples: (u64, u64),
}

/// The traced pass: a fixed number of windows with every behaviour
/// decorated (fixed, so counts repeat exactly across runs of one seed),
/// compared against the same windows untraced.
pub fn traced_pass(w: &Workload, n_windows: usize) -> Result<Layers, CoreError> {
    let mut untraced = Windows::default();
    let mut plain = free_engine(w, None)?;
    windows(&mut plain, w, Until::Count(n_windows), false, &mut untraced)?;
    drop(plain);

    let per_step = w.policy() == ThreadPolicy::CurrentThread;
    let tracer = Tracer::new();
    let mut traced = Windows::default();
    let mut sim = build(w, Some(&tracer), w.policy())?;
    windows(&mut sim, w, Until::Count(n_windows), per_step, &mut traced)?;
    drop(sim);
    let trace = tracer.finish();
    Ok(layer_metrics(w, &trace, &traced, &untraced))
}

fn sum_ns(spans: &[Span]) -> f64 {
    spans.iter().map(|s| s.len() as f64).sum()
}

fn layer_metrics(w: &Workload, trace: &Trace, traced: &Windows, untraced: &Windows) -> Layers {
    let steps = traced.steps as f64;
    let per_step_us = |ns: f64| ns / steps * 1e-3;
    let ode = trace.spans(Layer::Ode, None);
    let blocks = trace.spans(Layer::Blocks, None);
    let umlrt = trace.spans(Layer::Umlrt, None);
    let ensemble = matches!(w, Workload::ParamSweep(_));
    let threaded = w.policy() == ThreadPolicy::DedicatedThreads;

    // Engine self time: the part of each step (or, threaded, each
    // window) that no streamer or capsule span covers.
    let parents = if threaded { &traced.window_spans } else { &traced.step_spans };
    let children: Vec<Span> = ode.iter().chain(&blocks).chain(&umlrt).copied().collect();
    let covered = coverage(parents, children);
    let overfull_parents = parents.iter().zip(&covered).filter(|(p, c)| **c > p.len()).count();
    let self_ns: f64 = parents.iter().zip(&covered).map(|(p, c)| (p.len() - c) as f64).sum();

    let step_us: Vec<f64> = traced.step_spans.iter().map(|s| s.len() as f64 * 1e-3).collect();
    let (mut busy_ratio, mut wait_us) = (0.0, 0.0);
    if threaded {
        let wall = sum_ns(&traced.window_spans);
        let groups = match w {
            Workload::PlantPipeline(g) => g.len(),
            _ => 1,
        };
        let busy: Vec<f64> = (0..groups)
            .map(|g| {
                let mut spans = trace.spans(Layer::Ode, Some(g));
                spans.extend(trace.spans(Layer::Blocks, Some(g)));
                coverage(&traced.window_spans, spans).iter().sum::<u64>() as f64
            })
            .collect();
        busy_ratio = busy.iter().sum::<f64>() / (groups as f64 * wall);
        wait_us = per_step_us(wall - busy.iter().copied().fold(0.0, f64::max));
    }
    let hybrid = |v: f64| if ensemble { 0.0 } else { v };
    let (traced_rate, plain_rate) = (median(&traced.rates), median(&untraced.rates));
    let metrics = vec![
        ("engine.step_us.p50", hybrid(quantile(&step_us, 0.5).unwrap_or(0.0)), "us"),
        ("engine.step_us.p99", hybrid(quantile(&step_us, 0.99).unwrap_or(0.0)), "us"),
        ("engine.self_us", hybrid(per_step_us(self_ns)), "us"),
        (
            "umlrt.handler_us",
            if umlrt.is_empty() { 0.0 } else { sum_ns(&umlrt) / umlrt.len() as f64 * 1e-3 },
            "us",
        ),
        ("umlrt.delivered_per_step", traced.controller.0 as f64 / steps, "count/step"),
        ("umlrt.dropped", traced.controller.1 as f64, "count"),
        ("dataflow.emitted_per_step", trace.emitted() as f64 / steps, "count/step"),
        ("ode.advance_us", per_step_us(sum_ns(&ode)), "us"),
        ("blocks.advance_us", per_step_us(sum_ns(&blocks)), "us"),
        ("ode.rhs_evals_per_step", trace.rhs_evals as f64 / steps, "count/step"),
        ("threading.busy_ratio", busy_ratio, "ratio"),
        ("threading.wait_us_per_step", wait_us, "us"),
        (
            "ensemble.step_us",
            if ensemble { median(&step_us) / w.instances() as f64 } else { 0.0 },
            "us",
        ),
        ("recorder.samples", traced.samples.0 as f64, "count"),
        ("trace.overhead_pct", (plain_rate - traced_rate) / plain_rate * 100.0, "%"),
    ];
    Layers { metrics, overfull_parents, samples: traced.samples }
}
