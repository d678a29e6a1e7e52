//! Elaboration equivalence: lowering a declarative `UnifiedModel` through
//! `compile` (analyze → elaborate) must produce an engine whose behaviour
//! is *bit-identical* to the same system wired by hand against the
//! runtime APIs — recorder series, final capsule states, delivered
//! counts, step counts, and final times, under both threading policies.
//! Elaboration is a change of notation, never a change of semantics.
//!
//! Two workloads are pinned:
//!
//! * **fig2** — the paper's Figure 2 streamer network (source, fan-out,
//!   two consumers). The hand-wired form routes the fan-out through an
//!   explicit relay node; the elaborated form duplicates the flow
//!   directly. Relays copy samples exactly, so the two topologies must
//!   agree to the last bit.
//! * **quickstart** — the bang-bang thermostat: an ODE streamer with
//!   zero-crossing guards SPort-linked to a thermostat capsule.
//!
//! A third check pins the engine's plan replay against
//! `StreamerNetwork::step` itself for a group that emits and receives
//! SPort signals (a bouncing ball feeding a relay).

use std::sync::{Arc, Mutex};
use unified_rt::analysis::compile;
use unified_rt::core::elaborate::BehaviorRegistry;
use unified_rt::core::engine::{EngineConfig, HybridEngine};
use unified_rt::core::model::ModelBuilder;
use unified_rt::core::recorder::Recorder;
use unified_rt::core::threading::ThreadPolicy;
use unified_rt::core::time::SimClock;
use unified_rt::dataflow::flowtype::{FlowType, Unit};
use unified_rt::dataflow::graph::StreamerNetwork;
use unified_rt::dataflow::streamer::{FnStreamer, OdeStreamer, StreamerBehavior};
use unified_rt::ode::events::{EventDirection, ZeroCrossing};
use unified_rt::ode::solver::SolverKind;
use unified_rt::ode::system::InputSystem;
use unified_rt::umlrt::capsule::{CapsuleContext, SmCapsule};
use unified_rt::umlrt::controller::Controller;
use unified_rt::umlrt::message::Message;
use unified_rt::umlrt::protocol::{PayloadKind, Protocol};
use unified_rt::umlrt::statemachine::{SmSpec, StateMachineBuilder};
use unified_rt::umlrt::value::Value;

/// Everything observable about a finished run, captured for bitwise
/// comparison.
struct Run {
    series: Vec<(String, Vec<(f64, f64)>)>,
    final_state: Option<String>,
    delivered: u64,
    step_count: u64,
    time: f64,
}

fn capture(engine: &HybridEngine, rec: &Recorder, capsule: Option<usize>) -> Run {
    Run {
        series: rec.names().into_iter().map(|n| (n.clone(), rec.series(&n))).collect(),
        final_state: capsule
            .map(|c| engine.controller().capsule_state(c).expect("capsule state").to_owned()),
        delivered: engine.controller().delivered_count(),
        step_count: engine.step_count(),
        time: engine.time(),
    }
}

fn assert_bit_identical(wired: &Run, compiled: &Run, what: &str) {
    assert_eq!(wired.step_count, compiled.step_count, "{what}: same number of macro steps");
    assert_eq!(wired.time.to_bits(), compiled.time.to_bits(), "{what}: bit-identical final time");
    assert_eq!(wired.final_state, compiled.final_state, "{what}: same capsule state");
    assert_eq!(wired.delivered, compiled.delivered, "{what}: same delivered event count");
    assert_eq!(wired.series.len(), compiled.series.len(), "{what}: same probe count");
    for ((name_a, a), (name_b, b)) in wired.series.iter().zip(&compiled.series) {
        assert_eq!(name_a, name_b, "{what}: same probe names");
        assert_eq!(a.len(), b.len(), "{what}: series `{name_a}` lengths");
        for (k, ((t1, v1), (t2, v2))) in a.iter().zip(b).enumerate() {
            assert_eq!(t1.to_bits(), t2.to_bits(), "{what}: series `{name_a}` sample {k} time");
            assert_eq!(v1.to_bits(), v2.to_bits(), "{what}: series `{name_a}` sample {k} value");
        }
    }
}

// ---------------------------------------------------------------- fig2

fn fig2_source() -> Box<dyn StreamerBehavior> {
    Box::new(FnStreamer::new("sub1", 0, 1, |t: f64, _h, _u: &[f64], y: &mut [f64]| {
        y[0] = (2.0 * t).sin();
    }))
}

fn fig2_doubler() -> Box<dyn StreamerBehavior> {
    Box::new(FnStreamer::new("sub2", 1, 1, |_t, _h, u: &[f64], y: &mut [f64]| y[0] = 2.0 * u[0]))
}

fn fig2_squarer() -> Box<dyn StreamerBehavior> {
    Box::new(FnStreamer::new("sub3", 1, 1, |_t, _h, u: &[f64], y: &mut [f64]| y[0] = u[0] * u[0]))
}

/// Hand-wired Figure 2, with the fan-out routed through an explicit
/// relay node (the pre-elaboration idiom).
fn fig2_wired(policy: ThreadPolicy, t_end: f64) -> Run {
    let mut net = StreamerNetwork::new("fig2");
    let sub1 =
        net.add_streamer_boxed(fig2_source(), &[], &[("y", FlowType::scalar())]).expect("sub1");
    let relay = net.add_relay("relay", FlowType::scalar(), 2).expect("relay");
    let sub2 = net
        .add_streamer_boxed(
            fig2_doubler(),
            &[("u", FlowType::scalar())],
            &[("y", FlowType::scalar())],
        )
        .expect("sub2");
    let sub3 = net
        .add_streamer_boxed(
            fig2_squarer(),
            &[("u", FlowType::scalar())],
            &[("y", FlowType::scalar())],
        )
        .expect("sub3");
    net.flow((sub1, "y"), (relay, "in")).expect("flow 1");
    net.flow((relay, "out0"), (sub2, "u")).expect("flow 2");
    net.flow((relay, "out1"), (sub3, "u")).expect("flow 3");

    let mut engine = HybridEngine::new(Controller::new("ev"), EngineConfig { step: 0.01, policy });
    let g = engine.add_group(net).expect("group");
    let rec = Recorder::new();
    engine.set_recorder(rec.clone());
    engine.add_probe(g, sub2, "y", "sub2.y").expect("probe sub2");
    engine.add_probe(g, sub3, "y", "sub3.y").expect("probe sub3");
    engine.run_until(t_end).expect("run");
    capture(&engine, &rec, None)
}

/// The same Figure 2 declared as a model (container streamer, fan-out as
/// two similar flows) and lowered through `compile`.
fn fig2_compiled(policy: ThreadPolicy, t_end: f64) -> Run {
    let mut b = ModelBuilder::new("fig2");
    let top = b.streamer("top", "rk4");
    let sub1 = b.streamer("sub1", "rk4");
    let sub2 = b.streamer("sub2", "euler");
    let sub3 = b.streamer("sub3", "euler");
    b.contain_streamer(sub1, top);
    b.contain_streamer(sub2, top);
    b.contain_streamer(sub3, top);
    b.streamer_out(sub1, "y", FlowType::scalar());
    b.streamer_in(sub2, "u", FlowType::scalar());
    b.streamer_out(sub2, "y", FlowType::scalar());
    b.streamer_in(sub3, "u", FlowType::scalar());
    b.streamer_out(sub3, "y", FlowType::scalar());
    b.flow_between_streamers(sub1, "y", sub2, "u");
    b.flow_between_streamers(sub1, "y", sub3, "u");
    b.probe(sub2, "y", "sub2.y");
    b.probe(sub3, "y", "sub3.y");
    let model = b.build();

    let registry = BehaviorRegistry::new()
        .streamer("sub1", fig2_source)
        .streamer("sub2", fig2_doubler)
        .streamer("sub3", fig2_squarer);
    let compiled = compile(&model, registry).expect("fig2 compiles");
    assert!(compiled.streamer_node("top").is_none(), "containers contribute no nodes");
    let mut engine = HybridEngine::from_compiled(&compiled, EngineConfig { step: 0.01, policy })
        .expect("engine");
    let rec = Recorder::new();
    engine.set_recorder(rec.clone());
    engine.run_until(t_end).expect("run");
    capture(&engine, &rec, None)
}

// ----------------------------------------------------------- quickstart

#[derive(Clone)]

struct ThermalPlant {
    heater_on: bool,
}

impl InputSystem for ThermalPlant {
    fn dim(&self) -> usize {
        1
    }

    fn input_dim(&self) -> usize {
        0
    }

    fn derivatives(&self, _t: f64, x: &[f64], _u: &[f64], dx: &mut [f64]) {
        let heating = if self.heater_on { 60.0 } else { 0.0 };
        dx[0] = (heating - (x[0] - 10.0)) / 20.0;
    }
}

const SETPOINT: f64 = 22.0;
const BAND: f64 = 0.5;

fn room_streamer() -> Box<OdeStreamer<ThermalPlant>> {
    let plant = ThermalPlant { heater_on: true };
    Box::new(
        OdeStreamer::new("room", plant, SolverKind::Rk4.create(), &[15.0], 1e-3)
            .with_guard(ZeroCrossing::new("too_hot", EventDirection::Rising, |_t, x| {
                x[0] - (SETPOINT + BAND)
            }))
            .with_guard(ZeroCrossing::new("too_cold", EventDirection::Falling, |_t, x| {
                x[0] - (SETPOINT - BAND)
            }))
            .with_event_sport("ctl")
            .with_signal_handler(|msg, plant: &mut ThermalPlant, _state| match msg.signal() {
                "heater_on" => plant.heater_on = true,
                "heater_off" => plant.heater_on = false,
                _ => {}
            }),
    )
}

fn thermostat_capsule() -> Box<SmCapsule<u32>> {
    let machine = StateMachineBuilder::new("thermostat")
        .state("heating")
        .state("cooling")
        .initial("heating", |_d: &mut u32, _ctx: &mut CapsuleContext| {})
        .on("heating", ("plant", "too_hot"), "cooling", |switches, _m, ctx| {
            *switches += 1;
            ctx.send("plant", "heater_off", Value::Empty);
        })
        .on("cooling", ("plant", "too_cold"), "heating", |switches, _m, ctx| {
            *switches += 1;
            ctx.send("plant", "heater_on", Value::Empty);
        })
        .build()
        .expect("well-formed machine");
    Box::new(SmCapsule::new(machine, 0u32))
}

/// The thermostat wired by hand: explicit network, controller, SPort
/// link, and probe (the pre-elaboration idiom).
fn quickstart_wired(policy: ThreadPolicy, t_end: f64) -> Run {
    let mut net = StreamerNetwork::new("thermal");
    let node = net
        .add_streamer(*room_streamer(), &[], &[("temp", FlowType::with_unit(Unit::Kelvin))])
        .expect("room");
    let mut controller = Controller::new("events");
    let thermostat = controller.add_capsule(thermostat_capsule());
    let mut engine = HybridEngine::new(controller, EngineConfig { step: 0.01, policy });
    let group = engine.add_group(net).expect("group");
    engine.link_sport(group, node, "ctl", thermostat, "plant").expect("link");
    let rec = Recorder::new();
    engine.set_recorder(rec.clone());
    engine.add_probe(group, node, "temp", "temperature").expect("probe");
    engine.run_until(t_end).expect("run");
    capture(&engine, &rec, Some(thermostat))
}

/// The same thermostat declared as a model and lowered through `compile`.
fn quickstart_compiled(policy: ThreadPolicy, t_end: f64) -> Run {
    let mut b = ModelBuilder::new("thermostat-quickstart");
    let room = b.streamer("room", "rk4");
    let thermostat = b.capsule("thermostat");
    b.streamer_out(room, "temp", FlowType::with_unit(Unit::Kelvin));
    b.streamer_feedthrough(room, false);
    b.declare_protocol(
        Protocol::new("RoomCtl")
            .with_in("too_hot", PayloadKind::Empty)
            .with_in("too_cold", PayloadKind::Empty)
            .with_out("heater_on", PayloadKind::Empty)
            .with_out("heater_off", PayloadKind::Empty),
    );
    b.streamer_sport(room, "ctl", "RoomCtl");
    b.capsule_sport(thermostat, "plant", "RoomCtl");
    b.sport_link(thermostat, "plant", room, "ctl");
    b.capsule_machine(
        thermostat,
        SmSpec::new("thermostat")
            .state("heating")
            .state("cooling")
            .initial("heating")
            .on("heating", ("plant", "too_hot"), "cooling")
            .on("cooling", ("plant", "too_cold"), "heating"),
    );
    b.probe(room, "temp", "temperature");
    let model = b.build();

    let registry = BehaviorRegistry::new()
        .streamer("room", || room_streamer())
        .capsule("thermostat", || thermostat_capsule());
    let compiled = compile(&model, registry).expect("quickstart compiles");
    let cap = compiled.capsule_index("thermostat").expect("capsule exists");
    let mut engine = HybridEngine::from_compiled(&compiled, EngineConfig { step: 0.01, policy })
        .expect("engine");
    let rec = Recorder::new();
    engine.set_recorder(rec.clone());
    engine.run_until(t_end).expect("run");
    capture(&engine, &rec, Some(cap))
}

// ----------------------------------------------------------- cross-group

/// Non-feedthrough source: y = sin(2 t) at the step start.
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
}

/// Non-feedthrough unit-delay: output is the input latched at step start.
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
}

fn scaler() -> Box<dyn StreamerBehavior> {
    Box::new(FnStreamer::new("scale", 1, 1, |_t, _h, u: &[f64], y: &mut [f64]| y[0] = 0.5 * u[0]))
}

/// Hand-wired cross-group pipeline: a wave source in one group feeding a
/// hold + feedthrough scaler in another, with the channel linked through
/// the engine API (export the consumer input, then `link_flow`).
fn cross_group_wired(policy: ThreadPolicy, t_end: f64) -> Run {
    let mut producer = StreamerNetwork::new("xg-t0");
    let wave = producer
        .add_streamer_boxed(Box::new(Wave), &[], &[("y", FlowType::scalar())])
        .expect("wave");
    let mut consumer = StreamerNetwork::new("xg-t1");
    let hold = consumer
        .add_streamer_boxed(
            Box::new(Hold),
            &[("u", FlowType::scalar())],
            &[("y", FlowType::scalar())],
        )
        .expect("hold");
    let scale = consumer
        .add_streamer_boxed(scaler(), &[("u", FlowType::scalar())], &[("y", FlowType::scalar())])
        .expect("scale");
    consumer.flow((hold, "y"), (scale, "u")).expect("intra flow");
    consumer.export_input(hold, "u").expect("export");

    let mut engine = HybridEngine::new(Controller::new("ev"), EngineConfig { step: 0.01, policy });
    let gp = engine.add_group(producer).expect("producer group");
    let gc = engine.add_group(consumer).expect("consumer group");
    engine.link_flow((gp, wave, "y"), (gc, hold, "u")).expect("channel");
    let rec = Recorder::new();
    engine.set_recorder(rec.clone());
    engine.add_probe(gp, wave, "y", "wave.y").expect("probe wave");
    engine.add_probe(gc, scale, "y", "scale.y").expect("probe scale");
    engine.run_until(t_end).expect("run");
    capture(&engine, &rec, None)
}

/// The same pipeline declared as a model: `assign_thread` splits the
/// streamers across two groups and elaboration lowers the wave -> hold
/// flow into a cross-group channel (exporting the consumer input
/// automatically).
fn cross_group_compiled(policy: ThreadPolicy, t_end: f64) -> Run {
    let mut b = ModelBuilder::new("xg");
    let wave = b.streamer("wave", "rk4");
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
    let model = b.build();

    let registry = BehaviorRegistry::new()
        .streamer("wave", || Box::new(Wave))
        .streamer("hold", || Box::new(Hold))
        .streamer("scale", scaler);
    let compiled = compile(&model, registry).expect("cross-group model compiles");
    assert_eq!(compiled.group_count(), 2, "assign_thread keeps two groups");
    assert_eq!(compiled.cross_flow_count(), 1, "one lowered channel");
    let mut engine = HybridEngine::from_compiled(&compiled, EngineConfig { step: 0.01, policy })
        .expect("engine");
    let rec = Recorder::new();
    engine.set_recorder(rec.clone());
    engine.run_until(t_end).expect("run");
    capture(&engine, &rec, None)
}

// ---------------------------------------------------------------- tests

#[test]
fn fig2_elaboration_is_bit_identical_to_hand_wiring() {
    for policy in [ThreadPolicy::CurrentThread, ThreadPolicy::DedicatedThreads] {
        let wired = fig2_wired(policy, 2.0);
        let lowered = fig2_compiled(policy, 2.0);
        assert_bit_identical(&wired, &lowered, &format!("fig2/{policy}"));
        // The run is not degenerate: both probes carried samples.
        assert_eq!(wired.series.len(), 2, "fig2/{policy}: both probes present");
        assert!(
            wired.series.iter().all(|(_, s)| s.len() == 200),
            "fig2/{policy}: 200 samples per probe"
        );
    }
}

#[test]
fn cross_group_elaboration_is_bit_identical_to_hand_wiring() {
    for policy in [ThreadPolicy::CurrentThread, ThreadPolicy::DedicatedThreads] {
        let wired = cross_group_wired(policy, 2.0);
        let lowered = cross_group_compiled(policy, 2.0);
        assert_bit_identical(&wired, &lowered, &format!("cross-group/{policy}"));
        assert!(
            wired.series.iter().all(|(_, s)| s.len() == 200),
            "cross-group/{policy}: 200 samples per probe"
        );
        // The channel's one-step delay is part of the pinned semantics:
        // scale(k) = 0.5 * wave(k-1), with a zero-initialised first read.
        let wave = &wired.series.iter().find(|(n, _)| n == "wave.y").expect("wave series").1;
        let scale = &wired.series.iter().find(|(n, _)| n == "scale.y").expect("scale series").1;
        assert_eq!(scale[0].1.to_bits(), 0.0f64.to_bits(), "cross-group/{policy}: initial read");
        for k in 1..scale.len() {
            assert_eq!(
                scale[k].1.to_bits(),
                (0.5 * wave[k - 1].1).to_bits(),
                "cross-group/{policy}: delayed sample {k}"
            );
        }
    }
}

#[test]
fn quickstart_elaboration_is_bit_identical_to_hand_wiring() {
    for policy in [ThreadPolicy::CurrentThread, ThreadPolicy::DedicatedThreads] {
        let wired = quickstart_wired(policy, 120.0);
        let lowered = quickstart_compiled(policy, 120.0);
        assert_bit_identical(&wired, &lowered, &format!("quickstart/{policy}"));
        // The closed loop actually switched — this is not an idle run.
        assert!(wired.delivered >= 2, "quickstart/{policy}: the thermostat saw crossings");
        assert_eq!(wired.final_state.as_deref(), lowered.final_state.as_deref());
    }
}

// ------------------------------------------- plan replay with signals

/// Falling ball whose height is the single output lane.
#[derive(Clone)]
struct Ball;

impl InputSystem for Ball {
    fn dim(&self) -> usize {
        2
    }
    fn input_dim(&self) -> usize {
        0
    }
    fn derivatives(&self, _t: f64, x: &[f64], _u: &[f64], dx: &mut [f64]) {
        dx[0] = x[1];
        dx[1] = -9.81;
    }
    fn output(&self, _t: f64, x: &[f64], _u: &[f64], y: &mut [f64]) {
        y[0] = x[0];
    }
    fn output_dim(&self) -> usize {
        1
    }
}

/// A guarded ball emitting `bounce` on its `game` SPort and turning a
/// received `kick` into the restitution reset, feeding a relay that fans
/// the height out to a doubler and a squarer.
fn bouncing_network() -> (StreamerNetwork, [unified_rt::dataflow::graph::NodeId; 3]) {
    let ball = OdeStreamer::new("ball", Ball, SolverKind::Rk4.create(), &[1.0, 0.0], 1e-4)
        .with_guard(ZeroCrossing::new("bounce", EventDirection::Falling, |_t, x| x[0]))
        .with_event_sport("game")
        .with_signal_handler(|msg, _ball: &mut Ball, state| {
            if msg.signal() == "kick" {
                state[0] = 0.0;
                state[1] *= -0.8;
            }
        });
    let mut net = StreamerNetwork::new("bouncing");
    let ball = net.add_streamer(ball, &[], &[("height", FlowType::scalar())]).expect("ball");
    let relay = net.add_relay("split", FlowType::scalar(), 2).expect("relay");
    let dbl = net
        .add_streamer_boxed(
            fig2_doubler(),
            &[("u", FlowType::scalar())],
            &[("y", FlowType::scalar())],
        )
        .expect("doubler");
    let sq = net
        .add_streamer_boxed(
            fig2_squarer(),
            &[("u", FlowType::scalar())],
            &[("y", FlowType::scalar())],
        )
        .expect("squarer");
    net.flow((ball, "height"), (relay, "in")).expect("flow 1");
    net.flow((relay, "out0"), (dbl, "u")).expect("flow 2");
    net.flow((relay, "out1"), (sq, "u")).expect("flow 3");
    (net, [ball, dbl, sq])
}

#[test]
fn plan_replay_matches_network_stepping_for_a_signal_emitting_group() {
    const STEP: f64 = 0.002;
    const STEPS: usize = 1500;
    type Emission = (unified_rt::dataflow::graph::NodeId, String, Message);

    // Reference: the network stepped directly, with the referee's reply
    // (a `kick` per `bounce`) delivered before the next step, as the
    // engine delivers capsule messages.
    let (mut net, [ball, dbl, sq]) = bouncing_network();
    net.initialize(0.0).expect("init");
    let mut clock = SimClock::new();
    let (mut expect_dbl, mut expect_sq) = (Vec::new(), Vec::new());
    let mut expect_emitted: Vec<Emission> = Vec::new();
    let mut kicks = 0;
    for _ in 0..STEPS {
        for _ in 0..std::mem::take(&mut kicks) {
            net.send_signal(ball, &Message::new("kick", Value::Empty)).expect("kick");
        }
        net.step(STEP).expect("step");
        clock.tick(STEP);
        let t = clock.seconds();
        expect_dbl.push((t, net.output(dbl, "y").expect("dbl")[0]));
        expect_sq.push((t, net.output(sq, "y").expect("sq")[0]));
        for (node, sport, msg) in net.drain_signals() {
            kicks += usize::from(msg.signal() == "bounce");
            expect_emitted.push((node, sport, msg.with_port("ball")));
        }
    }
    assert!(expect_emitted.len() >= 3, "the ball bounces several times");

    for policy in [ThreadPolicy::CurrentThread, ThreadPolicy::DedicatedThreads] {
        let received: Arc<Mutex<Vec<Message>>> = Arc::default();
        let referee = StateMachineBuilder::new("referee")
            .state("playing")
            .initial("playing", |_d: &mut Arc<Mutex<Vec<Message>>>, _ctx: &mut CapsuleContext| {})
            .internal("playing", ("ball", "bounce"), |log, m, ctx| {
                log.lock().expect("log").push(m.clone());
                ctx.send("ball", "kick", Value::Empty);
            })
            .build()
            .expect("referee");
        let mut controller = Controller::new("ev");
        let cap = controller.add_capsule(Box::new(SmCapsule::new(referee, received.clone())));
        let (net, [ball, dbl, sq]) = bouncing_network();
        let mut engine = HybridEngine::new(controller, EngineConfig { step: STEP, policy });
        let g = engine.add_group(net).expect("group");
        engine.link_sport(g, ball, "game", cap, "ball").expect("link");
        let rec = Recorder::new();
        engine.set_recorder(rec.clone());
        engine.add_probe(g, dbl, "y", "dbl").expect("probe dbl");
        engine.add_probe(g, sq, "y", "sq").expect("probe sq");
        engine.run_until(STEPS as f64 * STEP).expect("run");

        for (name, expect) in [("dbl", &expect_dbl), ("sq", &expect_sq)] {
            let got = rec.series(name);
            assert_eq!(got.len(), expect.len(), "{policy}: `{name}` length");
            for (k, ((t1, v1), (t2, v2))) in got.iter().zip(expect).enumerate() {
                assert_eq!(t1.to_bits(), t2.to_bits(), "{policy}: `{name}` sample {k} time");
                assert_eq!(v1.to_bits(), v2.to_bits(), "{policy}: `{name}` sample {k} value");
            }
        }
        let emitted: Vec<Emission> = received
            .lock()
            .expect("log")
            .iter()
            .map(|m| (ball, "game".to_owned(), m.clone()))
            .collect();
        assert_eq!(emitted, expect_emitted, "{policy}: the same emission sequence");
    }
}
