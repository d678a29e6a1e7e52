//! Integration: failure paths — diverging solvers, dead links and
//! lifecycle misuse must surface as errors, not hangs or silent
//! corruption.

use std::sync::mpsc;
use std::time::Duration;
use unified_rt::core::elaborate::{elaborate, validate_gate, BehaviorRegistry, CompiledSystem};
use unified_rt::core::engine::{EngineConfig, HybridEngine};
use unified_rt::core::ensemble::{EnsembleEngine, VariantSpec};
use unified_rt::core::model::ModelBuilder;
use unified_rt::core::pacer::PacedConfig;
use unified_rt::core::threading::ThreadPolicy;
use unified_rt::core::CoreError;
use unified_rt::dataflow::flowtype::FlowType;
use unified_rt::dataflow::graph::StreamerNetwork;
use unified_rt::dataflow::streamer::{OdeStreamer, StreamerBehavior};
use unified_rt::ode::solver::SolverKind;
use unified_rt::ode::system::FnInputSystem;
use unified_rt::ode::SolveError;
use unified_rt::umlrt::capsule::{CapsuleContext, SmCapsule};
use unified_rt::umlrt::controller::Controller;
use unified_rt::umlrt::message::Message;
use unified_rt::umlrt::statemachine::{SmSpec, StateMachineBuilder};

fn idle_controller() -> Controller {
    let sm = StateMachineBuilder::new("idle")
        .state("s")
        .initial("s", |_d: &mut (), _ctx: &mut CapsuleContext| {})
        .build()
        .expect("sm");
    let mut c = Controller::new("ev");
    c.add_capsule(Box::new(SmCapsule::new(sm, ())));
    c
}

/// An idle capsule next to one RK4 streamer integrating `x' = rhs(x)`
/// from `x0 = 1`.
fn scalar_ode_model(rhs: fn(f64) -> f64) -> CompiledSystem {
    let mut b = ModelBuilder::new("explosive");
    let idle = b.capsule("idle");
    b.capsule_machine(idle, SmSpec::new("idle").state("s").initial("s"));
    let s = b.streamer("bomb", "rk4");
    b.streamer_out(s, "y", FlowType::scalar());
    b.streamer_feedthrough(s, false);
    let registry = BehaviorRegistry::new().streamer("bomb", move || {
        let sys = FnInputSystem::new(1, 0, move |_t, x: &[f64], _u: &[f64], dx: &mut [f64]| {
            dx[0] = rhs(x[0]);
        });
        Box::new(OdeStreamer::new("bomb", sys, SolverKind::Rk4.create(), &[1.0], 1e-3))
    });
    elaborate(&b.build(), registry, &validate_gate).expect("model compiles")
}

/// `x' = x^2` with `x0 = 1` blows up at `t = 1` (finite escape time).
fn exploding_model() -> CompiledSystem {
    scalar_ode_model(|x| x * x)
}

fn engine(compiled: &CompiledSystem, policy: ThreadPolicy) -> HybridEngine {
    HybridEngine::from_compiled(compiled, EngineConfig { step: 0.01, policy }).expect("engine")
}

#[test]
fn diverging_solver_errors_locally() {
    let mut engine = engine(&exploding_model(), ThreadPolicy::CurrentThread);
    let err = engine.run_until(2.0).expect_err("finite escape must error");
    assert!(
        matches!(err, CoreError::Flow(_)),
        "solver failure surfaces as a dataflow error: {err}"
    );
    assert!(engine.time() < 1.5, "stopped near the blow-up, not at t_end");
}

#[test]
fn diverging_solver_errors_across_threads() {
    let mut engine = engine(&exploding_model(), ThreadPolicy::DedicatedThreads);
    let err = engine.run_until(2.0).expect_err("finite escape must error");
    assert!(matches!(err, CoreError::Flow(_) | CoreError::ThreadLost { .. }));
}

#[test]
fn failed_runs_stop_the_clock_at_the_same_step_under_both_policies() {
    // After a failure the clock stands at the last macro step every group
    // completed: the threaded schedule must not tick the rest of its
    // batch. One instance and a four-instance ensemble alike.
    let config = |policy| EngineConfig { step: 0.01, policy };
    let compiled = exploding_model();
    let single = |policy| {
        let mut engine = engine(&compiled, policy);
        engine.run_until(2.0).expect_err("finite escape must error");
        (engine.time(), engine.step_count())
    };
    let ensemble = |policy| {
        let variants = vec![VariantSpec::new(); 4];
        let mut engine =
            EnsembleEngine::from_variants(&compiled, &variants, config(policy)).expect("ensemble");
        engine.run_until(2.0).expect_err("finite escape must error");
        (engine.time(), engine.step_count())
    };
    for (k, stop) in [(1, &single as &dyn Fn(ThreadPolicy) -> (f64, u64)), (4, &ensemble)] {
        let (t_local, n_local) = stop(ThreadPolicy::CurrentThread);
        let (t_threaded, n_threaded) = stop(ThreadPolicy::DedicatedThreads);
        assert!(t_local < 1.5, "K={k}: stopped near the blow-up, not at t_end");
        assert_eq!(n_threaded, n_local, "K={k}: same step count after the failure");
        assert_eq!(t_threaded.to_bits(), t_local.to_bits(), "K={k}: same time after the failure");
    }
}

#[test]
fn behaviour_error_mid_run_is_recoverable_state() {
    // A behaviour that fails on the 5th step.
    struct FailsAtFive {
        count: u32,
    }
    impl StreamerBehavior for FailsAtFive {
        fn name(&self) -> &str {
            "flaky"
        }
        fn input_width(&self) -> usize {
            0
        }
        fn output_width(&self) -> usize {
            1
        }
        fn advance(
            &mut self,
            _t: f64,
            _h: f64,
            _u: &[f64],
            y: &mut [f64],
        ) -> Result<(), SolveError> {
            self.count += 1;
            if self.count >= 5 {
                return Err(SolveError::NonFiniteState { time: 0.0 });
            }
            y[0] = self.count as f64;
            Ok(())
        }
    }
    let mut net = StreamerNetwork::new("n");
    net.add_streamer(FailsAtFive { count: 0 }, &[], &[("y", FlowType::scalar())]).expect("add");
    net.initialize(0.0).expect("init");
    for _ in 0..4 {
        net.step(0.01).expect("healthy step");
    }
    assert!(net.step(0.01).is_err(), "fifth step fails");
    // The network reports its time consistently after the failure.
    assert!((net.time() - 0.04).abs() < 1e-12, "failed step did not advance time");
}

#[test]
fn unstarted_controller_rejects_stepping() {
    let mut c = idle_controller();
    assert!(c.step().is_err());
    assert!(c.run_until_quiescent().is_err());
    assert!(c.run_until(1.0).is_err());
    c.start().expect("start");
    assert!(c.run_until(1.0).is_ok());
}

#[test]
fn messages_to_dead_external_links_count_as_dropped() {
    let sm = StateMachineBuilder::new("talker")
        .state("s")
        .initial("s", |_d: &mut (), ctx: &mut CapsuleContext| {
            ctx.send("ext", "hello", unified_rt::umlrt::value::Value::Empty);
        })
        .build()
        .expect("sm");
    let mut c = Controller::new("ev");
    let idx = c.add_capsule(Box::new(SmCapsule::new(sm, ())));
    let (tx, rx) = std::sync::mpsc::channel::<Message>();
    c.connect_external(idx, "ext", tx).expect("wire");
    drop(rx); // receiver dies before start
    c.start().expect("start");
    assert_eq!(c.dropped_count(), 1, "send into a dead channel is a drop");
}

#[test]
fn nan_run_target_is_refused_before_any_step() {
    // `(NaN - t) / h` casts to zero steps: without the check, a NaN
    // target "succeeded" without running anything.
    for policy in [ThreadPolicy::CurrentThread, ThreadPolicy::DedicatedThreads] {
        let mut engine = engine(&scalar_ode_model(|x| -x), policy);
        let err = engine.run_until(f64::NAN).expect_err("NaN target must be refused");
        assert!(matches!(err, CoreError::Engine { .. }), "{policy}: {err}");
        assert!(err.to_string().starts_with("URT111: "), "{policy}: {err}");
        let err = engine
            .run_paced(f64::NAN, PacedConfig::new().with_rate(1e9))
            .expect_err("NaN paced target must be refused");
        assert!(err.to_string().starts_with("URT111: "), "{policy}: {err}");
        assert_eq!(engine.step_count(), 0, "{policy}: no step ran");
    }
}

#[test]
fn infinite_run_target_is_refused_instead_of_hanging() {
    // `(inf - t) / h` casts to u64::MAX steps. The run happens on its own
    // thread under a watchdog, so a regression fails here instead of
    // stalling the suite.
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        let mut engine = engine(&scalar_ode_model(|x| -x), ThreadPolicy::CurrentThread);
        let until = engine.run_until(f64::INFINITY).map_err(|e| e.to_string());
        let paced = engine
            .run_paced(f64::INFINITY, PacedConfig::new().with_rate(1e9))
            .map(|_| ())
            .map_err(|e| e.to_string());
        tx.send((until, paced, engine.step_count())).expect("watchdog listening");
    });
    let (until, paced, steps) =
        rx.recv_timeout(Duration::from_secs(30)).expect("an infinite target must not hang");
    worker.join().expect("worker thread");
    for (what, result) in [("run_until", until), ("run_paced", paced)] {
        let err = result.expect_err(what);
        assert!(err.starts_with("URT111: "), "{what}: {err}");
    }
    assert_eq!(steps, 0, "no step ran");
}
