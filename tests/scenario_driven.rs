//! Integration: scripted scenarios driving a hybrid model, and the
//! model→code/diagram generation pipeline.

use unified_rt::codegen::dot_gen::to_dot;
use unified_rt::codegen::generate_model;
use unified_rt::core::elaborate::{elaborate, validate_gate, BehaviorRegistry};
use unified_rt::core::engine::{EngineConfig, HybridEngine};
use unified_rt::core::model::ModelBuilder;
use unified_rt::core::recorder::Recorder;
use unified_rt::core::scenario::Scenario;
use unified_rt::core::threading::ThreadPolicy;
use unified_rt::dataflow::flowtype::FlowType;
use unified_rt::dataflow::streamer::OdeStreamer;
use unified_rt::ode::solver::SolverKind;
use unified_rt::ode::system::InputSystem;
use unified_rt::umlrt::capsule::{CapsuleContext, SmCapsule};
use unified_rt::umlrt::statemachine::StateMachineBuilder;
use unified_rt::umlrt::value::Value;

/// First-order lag whose setpoint is changed by SPort signals.
#[derive(Clone)]
struct Servo {
    setpoint: f64,
}

impl InputSystem for Servo {
    fn dim(&self) -> usize {
        1
    }
    fn input_dim(&self) -> usize {
        0
    }
    fn derivatives(&self, _t: f64, x: &[f64], _u: &[f64], dx: &mut [f64]) {
        dx[0] = 2.0 * (self.setpoint - x[0]);
    }
}

#[test]
fn scripted_setpoint_profile_is_tracked() {
    let mut b = ModelBuilder::new("servo-loop");
    let operator = b.capsule("operator");
    let servo = b.streamer("servo", "rk4");
    b.streamer_out(servo, "pos", FlowType::scalar());
    b.streamer_feedthrough(servo, false);
    b.streamer_sport(servo, "ctl", "ServoCtl");
    b.capsule_sport(operator, "plant", "ServoCtl");
    b.sport_link(operator, "plant", servo, "ctl");
    b.probe(servo, "pos", "pos");
    let registry = BehaviorRegistry::new()
        .streamer("servo", || {
            let servo = OdeStreamer::new(
                "servo",
                Servo { setpoint: 0.0 },
                SolverKind::Rk4.create(),
                &[0.0],
                1e-3,
            )
            .with_signal_handler(|msg, s: &mut Servo, _| {
                if msg.signal() == "goto" {
                    if let Some(v) = msg.value().as_real() {
                        s.setpoint = v;
                    }
                }
            });
            Box::new(servo)
        })
        // Operator capsule forwards env commands to the plant.
        .capsule("operator", || {
            let machine = StateMachineBuilder::new("operator")
                .state("on")
                .initial("on", |_d: &mut (), _ctx: &mut CapsuleContext| {})
                .internal("on", ("env", "goto"), |_d, m, ctx| {
                    ctx.send("plant", "goto", m.value().clone());
                })
                .build()
                .unwrap();
            Box::new(SmCapsule::new(machine, ()))
        });
    let compiled = elaborate(&b.build(), registry, &validate_gate).unwrap();
    let op = compiled.capsule_index("operator").unwrap();

    let mut engine = HybridEngine::from_compiled(
        &compiled,
        EngineConfig { step: 0.01, policy: ThreadPolicy::CurrentThread },
    )
    .unwrap();
    let rec = Recorder::new();
    engine.set_recorder(rec.clone());

    Scenario::new()
        .at(1.0, op, "env", "goto", Value::Real(1.0))
        .at(5.0, op, "env", "goto", Value::Real(-0.5))
        .run(&mut engine, 10.0)
        .unwrap();

    let at = |t: f64| {
        rec.series("pos")
            .iter()
            .min_by(|a, b| (a.0 - t).abs().partial_cmp(&(b.0 - t).abs()).unwrap())
            .map(|(_, v)| *v)
            .unwrap()
    };
    assert!(at(0.9).abs() < 1e-6, "still at rest before the first command");
    assert!((at(4.5) - 1.0).abs() < 0.05, "tracked +1.0");
    assert!((at(9.9) + 0.5).abs() < 0.05, "tracked -0.5");
}

#[test]
fn model_pipeline_generates_code_and_diagram() {
    let mut b = ModelBuilder::new("pipeline");
    let sup = b.capsule("supervisor");
    let servo = b.streamer("servo", "rk4");
    let filter = b.streamer("filter", "dopri45");
    b.contain_streamer_in_capsule(servo, sup);
    b.streamer_out(servo, "pos", FlowType::scalar());
    b.streamer_in(filter, "raw", FlowType::scalar());
    b.flow_between_streamers(servo, "pos", filter, "raw");
    b.capsule_sport(sup, "cmd", "ServoCtl");
    b.streamer_sport(servo, "cmd", "ServoCtl");
    b.sport_link(sup, "cmd", servo, "cmd");
    let model = b.build();
    model.validate().unwrap();

    let code = generate_model(&model).unwrap();
    assert!(code.contains("SupervisorCapsule"));
    assert!(code.contains("ServoStreamer"));
    assert!(code.contains("FilterStreamer"));
    assert!(code.contains("mpsc::channel"));

    let dot = to_dot(&model);
    assert!(dot.contains("digraph"));
    assert!(dot.contains("«streamer»"));
    assert!(dot.contains("«capsule»"));
    assert!(dot.contains("solver: dopri45"));
}
