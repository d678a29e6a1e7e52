//! Ensemble equivalence: the determinism anchor of ensemble execution.
//!
//! A K-instance [`EnsembleEngine`] is a *layout* optimization, never a
//! change of semantics: instance `i` of an ensemble must be bit-identical
//! to a standalone [`HybridEngine`] run of the same compiled system with
//! the same variant parameters — same sample times, same values, to the
//! last bit, under both threading policies. Three workloads pin this:
//!
//! * **fig2** — the paper's Figure 2 fan-out (pure dataflow; checks the
//!   routing/bookkeeping amortization changes nothing observable);
//! * **Van der Pol** — an RK4-integrated oscillator with `mu` and `x0`
//!   variant overrides (checks the solver-heavy path and that parameter
//!   variants land on exactly one instance);
//! * **cross-group** — a two-thread pipeline lowered into a channel
//!   (checks the K-wide double-buffered channel keeps the one-step-delay
//!   protocol, and that the threaded ensemble agrees with the local one).

use unified_rt::analysis::compile;
use unified_rt::core::elaborate::BehaviorRegistry;
use unified_rt::core::engine::{EngineConfig, HybridEngine};
use unified_rt::core::ensemble::{EnsembleEngine, VariantSpec};
use unified_rt::core::model::{ModelBuilder, UnifiedModel};
use unified_rt::core::recorder::Recorder;
use unified_rt::core::threading::ThreadPolicy;
use unified_rt::dataflow::flowtype::FlowType;
use unified_rt::dataflow::streamer::{FnStreamer, OdeStreamer, StreamerBehavior};
use unified_rt::ode::solver::SolverKind;
use unified_rt::ode::system::InputSystem;

const STEP: f64 = 0.01;
const T_END: f64 = 2.0;

fn config(policy: ThreadPolicy) -> EngineConfig {
    EngineConfig { step: STEP, policy }
}

fn assert_series_bit_identical(a: &[(f64, f64)], b: &[(f64, f64)], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: series lengths");
    assert!(!a.is_empty(), "{what}: series carried samples");
    for (k, ((t1, v1), (t2, v2))) in a.iter().zip(b).enumerate() {
        assert_eq!(t1.to_bits(), t2.to_bits(), "{what}: sample {k} time");
        assert_eq!(v1.to_bits(), v2.to_bits(), "{what}: sample {k} value");
    }
}

// ---------------------------------------------------------------- fig2

fn fig2_model() -> (UnifiedModel, BehaviorRegistry) {
    let mut b = ModelBuilder::new("fig2");
    let sub1 = b.streamer("sub1", "euler");
    let sub2 = b.streamer("sub2", "euler");
    let sub3 = b.streamer("sub3", "euler");
    b.streamer_out(sub1, "y", FlowType::scalar());
    b.streamer_in(sub2, "u", FlowType::scalar());
    b.streamer_out(sub2, "y", FlowType::scalar());
    b.streamer_in(sub3, "u", FlowType::scalar());
    b.streamer_out(sub3, "y", FlowType::scalar());
    b.flow_between_streamers(sub1, "y", sub2, "u");
    b.flow_between_streamers(sub1, "y", sub3, "u");
    b.probe(sub2, "y", "sub2.y");
    b.probe(sub3, "y", "sub3.y");
    let registry = BehaviorRegistry::new()
        .streamer("sub1", || {
            Box::new(FnStreamer::new("sub1", 0, 1, |t: f64, _h, _u: &[f64], y: &mut [f64]| {
                y[0] = (2.0 * t).sin();
            }))
        })
        .streamer("sub2", || {
            Box::new(FnStreamer::new("sub2", 1, 1, |_t, _h, u: &[f64], y: &mut [f64]| {
                y[0] = 2.0 * u[0]
            }))
        })
        .streamer("sub3", || {
            Box::new(FnStreamer::new("sub3", 1, 1, |_t, _h, u: &[f64], y: &mut [f64]| {
                y[0] = u[0] * u[0]
            }))
        });
    (b.build(), registry)
}

#[test]
fn every_fig2_ensemble_instance_is_bit_identical_to_a_standalone_run() {
    for policy in [ThreadPolicy::CurrentThread, ThreadPolicy::DedicatedThreads] {
        let (model, registry) = fig2_model();
        let compiled = compile(&model, registry).expect("fig2 compiles");
        let mut ensemble =
            EnsembleEngine::from_variants(&compiled, &vec![VariantSpec::new(); 4], config(policy))
                .expect("ensemble");
        let erec = Recorder::new();
        ensemble.set_recorder(erec.clone());
        ensemble.run_until(T_END).expect("ensemble run");

        let mut engine = HybridEngine::from_compiled(&compiled, config(policy)).expect("engine");
        let hrec = Recorder::new();
        engine.set_recorder(hrec.clone());
        engine.run_until(T_END).expect("standalone run");

        assert_eq!(ensemble.step_count(), engine.step_count(), "fig2/{policy}: step counts");
        assert_eq!(ensemble.time().to_bits(), engine.time().to_bits(), "fig2/{policy}: times");
        for series in ["sub2.y", "sub3.y"] {
            let standalone = hrec.series(series);
            assert_eq!(standalone.len(), 200, "fig2/{policy}: 200 samples");
            // No variants: every instance replays the standalone run.
            for i in 0..4 {
                assert_series_bit_identical(
                    &erec.series(&EnsembleEngine::series_name(series, i)),
                    &standalone,
                    &format!("fig2/{policy}/{series}#{i}"),
                );
            }
        }
    }
}

// ----------------------------------------------------------- Van der Pol

#[derive(Clone)]
struct Vdp {
    mu: f64,
}

impl InputSystem for Vdp {
    fn dim(&self) -> usize {
        2
    }
    fn input_dim(&self) -> usize {
        0
    }
    fn derivatives(&self, _t: f64, x: &[f64], _u: &[f64], dx: &mut [f64]) {
        dx[0] = x[1];
        dx[1] = self.mu * (1.0 - x[0] * x[0]) * x[1] - x[0];
    }
}

fn vdp_streamer(mu: f64, x0: f64) -> OdeStreamer<Vdp> {
    OdeStreamer::new("vdp", Vdp { mu }, SolverKind::Rk4.create(), &[x0, 0.0], 1e-3).with_param_fn(
        |s, name, v| {
            if name == "mu" {
                s.mu = v;
                true
            } else {
                false
            }
        },
    )
}

fn vdp_model(mu: f64, x0: f64) -> (UnifiedModel, BehaviorRegistry) {
    let mut b = ModelBuilder::new("vdp");
    let s = b.streamer("vdp", "rk4");
    b.streamer_out(s, "y", FlowType::vector(2));
    b.streamer_feedthrough(s, false);
    b.probe(s, "y", "x");
    let registry = BehaviorRegistry::new().streamer("vdp", move || Box::new(vdp_streamer(mu, x0)));
    (b.build(), registry)
}

#[test]
fn vdp_variants_are_bit_identical_to_standalone_runs_with_those_parameters() {
    // (mu, x0) per instance; instance 0 keeps the compiled defaults.
    let params = [(1.0, 2.0), (1.0, 1.0), (3.0, 0.5)];
    let variants = [
        VariantSpec::new(),
        VariantSpec::new().set("vdp", "x0[0]", 1.0),
        VariantSpec::new().set("vdp", "mu", 3.0).set("vdp", "x0[0]", 0.5),
    ];
    for policy in [ThreadPolicy::CurrentThread, ThreadPolicy::DedicatedThreads] {
        let (model, registry) = vdp_model(1.0, 2.0);
        let compiled = compile(&model, registry).expect("vdp compiles");
        let mut ensemble =
            EnsembleEngine::from_variants(&compiled, &variants, config(policy)).expect("ensemble");
        let erec = Recorder::new();
        ensemble.set_recorder(erec.clone());
        ensemble.run_until(T_END).expect("ensemble run");

        for (i, (mu, x0)) in params.iter().enumerate() {
            let (model, registry) = vdp_model(*mu, *x0);
            let compiled = compile(&model, registry).expect("vdp variant compiles");
            let mut engine =
                HybridEngine::from_compiled(&compiled, config(policy)).expect("engine");
            let hrec = Recorder::new();
            engine.set_recorder(hrec.clone());
            engine.run_until(T_END).expect("standalone run");
            assert_series_bit_identical(
                &erec.series(&EnsembleEngine::series_name("x", i)),
                &hrec.series("x"),
                &format!("vdp/{policy}/instance {i} (mu={mu}, x0={x0})"),
            );
        }
        // The variants produced genuinely different trajectories.
        let tail = |i: usize| erec.series(&EnsembleEngine::series_name("x", i)).last().unwrap().1;
        assert!(tail(0) != tail(1) && tail(1) != tail(2), "variants diverged");
    }
}

// ----------------------------------------------------------- cross-group

/// Non-feedthrough source: y = slope * t at the step start.
#[derive(Clone)]
struct Wave;
impl StreamerBehavior for Wave {
    fn name(&self) -> &str {
        "wave"
    }
    fn input_width(&self) -> usize {
        0
    }
    fn output_width(&self) -> usize {
        1
    }
    fn direct_feedthrough(&self) -> bool {
        false
    }
    fn advance(
        &mut self,
        t: f64,
        _h: f64,
        _u: &[f64],
        y: &mut [f64],
    ) -> Result<(), unified_rt::ode::SolveError> {
        y[0] = (2.0 * t).sin();
        Ok(())
    }
    fn clone_fresh(&self) -> Option<Box<dyn StreamerBehavior>> {
        Some(Box::new(self.clone()))
    }
}

/// Non-feedthrough unit-delay: output is the input latched at step start.
#[derive(Clone)]
struct Hold;
impl StreamerBehavior for Hold {
    fn name(&self) -> &str {
        "hold"
    }
    fn input_width(&self) -> usize {
        1
    }
    fn output_width(&self) -> usize {
        1
    }
    fn direct_feedthrough(&self) -> bool {
        false
    }
    fn advance(
        &mut self,
        _t: f64,
        _h: f64,
        u: &[f64],
        y: &mut [f64],
    ) -> Result<(), unified_rt::ode::SolveError> {
        y[0] = u[0];
        Ok(())
    }
    fn clone_fresh(&self) -> Option<Box<dyn StreamerBehavior>> {
        Some(Box::new(self.clone()))
    }
}

fn cross_group_model() -> (UnifiedModel, BehaviorRegistry) {
    let mut b = ModelBuilder::new("xg");
    let wave = b.streamer("wave", "euler");
    let hold = b.streamer("hold", "euler");
    let scale = b.streamer("scale", "euler");
    b.streamer_out(wave, "y", FlowType::scalar());
    b.streamer_in(hold, "u", FlowType::scalar());
    b.streamer_out(hold, "y", FlowType::scalar());
    b.streamer_in(scale, "u", FlowType::scalar());
    b.streamer_out(scale, "y", FlowType::scalar());
    b.flow_between_streamers(wave, "y", hold, "u");
    b.flow_between_streamers(hold, "y", scale, "u");
    b.streamer_feedthrough(wave, false);
    b.streamer_feedthrough(hold, false);
    b.assign_thread(wave, 0);
    b.assign_thread(hold, 1);
    b.assign_thread(scale, 1);
    b.probe(wave, "y", "wave.y");
    b.probe(scale, "y", "scale.y");
    let registry = BehaviorRegistry::new()
        .streamer("wave", || Box::new(Wave))
        .streamer("hold", || Box::new(Hold))
        .streamer("scale", || {
            Box::new(FnStreamer::new("scale", 1, 1, |_t, _h, u: &[f64], y: &mut [f64]| {
                y[0] = 0.5 * u[0]
            }))
        });
    (b.build(), registry)
}

#[test]
fn k1_cross_group_ensemble_replays_the_hybrid_engine() {
    for policy in [ThreadPolicy::CurrentThread, ThreadPolicy::DedicatedThreads] {
        let (model, registry) = cross_group_model();
        let compiled = compile(&model, registry).expect("cross-group compiles");
        assert_eq!(compiled.cross_flow_count(), 1, "one lowered channel");
        let mut ensemble =
            EnsembleEngine::from_variants(&compiled, &vec![VariantSpec::new(); 1], config(policy))
                .expect("ensemble");
        let erec = Recorder::new();
        ensemble.set_recorder(erec.clone());
        ensemble.run_until(T_END).expect("ensemble run");

        let mut engine = HybridEngine::from_compiled(&compiled, config(policy)).expect("engine");
        let hrec = Recorder::new();
        engine.set_recorder(hrec.clone());
        engine.run_until(T_END).expect("standalone run");

        for series in ["wave.y", "scale.y"] {
            assert_series_bit_identical(
                &erec.series(&EnsembleEngine::series_name(series, 0)),
                &hrec.series(series),
                &format!("cross-group/{policy}/{series}"),
            );
        }
    }
}

#[test]
fn threaded_cross_group_ensemble_matches_local_and_keeps_the_channel_delay() {
    let run = |policy| {
        let (model, registry) = cross_group_model();
        let compiled = compile(&model, registry).expect("cross-group compiles");
        let mut ensemble =
            EnsembleEngine::from_variants(&compiled, &vec![VariantSpec::new(); 5], config(policy))
                .expect("ensemble");
        let rec = Recorder::new();
        ensemble.set_recorder(rec.clone());
        ensemble.run_until(T_END).expect("ensemble run");
        rec
    };
    let local = run(ThreadPolicy::CurrentThread);
    let threaded = run(ThreadPolicy::DedicatedThreads);
    for i in 0..5 {
        for series in ["wave.y", "scale.y"] {
            let name = EnsembleEngine::series_name(series, i);
            assert_series_bit_identical(
                &local.series(&name),
                &threaded.series(&name),
                &format!("local vs threaded/{name}"),
            );
        }
        // The channel's one-step delay survives the K-wide buffers:
        // scale(k) = 0.5 * wave(k-1), zero-initialised first read.
        let wave = local.series(&EnsembleEngine::series_name("wave.y", i));
        let scale = local.series(&EnsembleEngine::series_name("scale.y", i));
        assert_eq!(scale[0].1.to_bits(), 0.0f64.to_bits(), "instance {i}: initial read");
        for k in 1..scale.len() {
            assert_eq!(
                scale[k].1.to_bits(),
                (0.5 * wave[k - 1].1).to_bits(),
                "instance {i}: delayed sample {k}"
            );
        }
    }
}
