//! Integration: failure paths — diverging solvers, dead links and
//! lifecycle misuse must surface as errors, not hangs or silent
//! corruption.

use unified_rt::core::engine::{EngineConfig, HybridEngine};
use unified_rt::core::ensemble::EnsembleEngine;
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
use unified_rt::umlrt::statemachine::StateMachineBuilder;

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

fn exploding_network() -> StreamerNetwork {
    // x' = x^2 with x0 = 1 blows up at t = 1 (finite escape time).
    let sys = FnInputSystem::new(1, 0, |_t, x: &[f64], _u: &[f64], dx: &mut [f64]| {
        dx[0] = x[0] * x[0];
    });
    let mut net = StreamerNetwork::new("explosive");
    net.add_streamer(
        OdeStreamer::new("bomb", sys, SolverKind::Rk4.create(), &[1.0], 1e-3),
        &[],
        &[("y", FlowType::scalar())],
    )
    .expect("add");
    net
}

#[test]
fn diverging_solver_errors_locally() {
    let mut engine = HybridEngine::new(
        idle_controller(),
        EngineConfig { step: 0.01, policy: ThreadPolicy::CurrentThread },
    );
    engine.add_group(exploding_network()).expect("group");
    let err = engine.run_until(2.0).expect_err("finite escape must error");
    assert!(
        matches!(err, CoreError::Flow(_)),
        "solver failure surfaces as a dataflow error: {err}"
    );
    assert!(engine.time() < 1.5, "stopped near the blow-up, not at t_end");
}

#[test]
fn diverging_solver_errors_across_threads() {
    let mut engine = HybridEngine::new(
        idle_controller(),
        EngineConfig { step: 0.01, policy: ThreadPolicy::DedicatedThreads },
    );
    engine.add_group(exploding_network()).expect("group");
    let err = engine.run_until(2.0).expect_err("finite escape must error");
    assert!(matches!(err, CoreError::Flow(_) | CoreError::ThreadLost { .. }));
}

#[test]
fn failed_runs_stop_the_clock_at_the_same_step_under_both_policies() {
    // After a failure the clock stands at the last macro step every group
    // completed: the threaded schedule must not tick the rest of its
    // batch. One instance and a four-instance ensemble alike.
    let config = |policy| EngineConfig { step: 0.01, policy };
    let single = |policy| {
        let mut engine = HybridEngine::new(idle_controller(), config(policy));
        engine.add_group(exploding_network()).expect("group");
        engine.run_until(2.0).expect_err("finite escape must error");
        (engine.time(), engine.step_count())
    };
    let ensemble = |policy| {
        let mut engine = EnsembleEngine::from_network(&exploding_network(), 4, &[], config(policy))
            .expect("ensemble");
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
