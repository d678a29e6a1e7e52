//! The three seeded workloads and the engine each one runs on.
//!
//! Each workload is generated from `--seed` with the runtime's own
//! `Pcg32`; the runtime only ever sees the generated model and registry.
//!
//! * `ctrl-loops` — reactive-heavy: thermostat loops (RK4 plant with
//!   zero-crossing guards, capsule state machine, block-diagram PI) on
//!   the current thread. Exercises `umlrt`, SPort routing, `recorder`
//!   and the engine's per-step overhead, and is the largest model, so it
//!   drives `analysis`/`elaborate` set-up cost.
//! * `plant-pipeline` — continuous-heavy and threaded: one Van der Pol
//!   plant (100 RK4 substeps per macro step) feeding block-diagram lag
//!   stages per solver thread, with cross-thread flows both ways.
//!   Exercises `ode` and `threading`; `umlrt` is idle.
//! * `param-sweep` — one ODE model replicated into K seeded variants on
//!   the ensemble engine, whose batched kernel steps lanes `LANE_WIDTH` at
//!   a time: the same solver as `plant-pipeline`, reached another way.

use crate::trace::{Layer, Plant, Tracer};
use urt_blocks::continuous::{Integrator, TransferFunction};
use urt_blocks::diagram::BlockDiagram;
use urt_blocks::math::{Gain, Saturation, Sum};
use urt_blocks::sources::Constant;
use urt_core::elaborate::{BehaviorRegistry, CompiledSystem};
use urt_core::engine::{EngineConfig, HybridEngine};
use urt_core::ensemble::{EnsembleEngine, VariantSpec};
use urt_core::model::{BudgetScope, ModelBuilder, UnifiedModel};
use urt_core::pacer::{PacedConfig, PacedReport};
use urt_core::recorder::Recorder;
use urt_core::threading::ThreadPolicy;
use urt_core::CoreError;
use urt_dataflow::flowtype::{FlowType, Unit};
use urt_dataflow::streamer::{OdeStreamer, StreamerBehavior};
use urt_ode::events::{EventDirection, ZeroCrossing};
use urt_ode::rng::Pcg32;
use urt_ode::solver::SolverKind;
use urt_ode::system::InputSystem;
use urt_umlrt::capsule::{Capsule, CapsuleContext, SmCapsule};
use urt_umlrt::protocol::{PayloadKind, Protocol};
use urt_umlrt::statemachine::{SmSpec, StateMachineBuilder};
use urt_umlrt::value::Value;

/// Macro step of every workload: 1 ms, so paced runs are 1 kHz control.
pub const STEP: f64 = 1e-3;
/// Declared per-macro-step deadline budget: one period.
pub const BUDGET_NS: f64 = 1e6;

pub const LOOPS: usize = 32;
pub const LAGS: usize = 3;
pub const VARIANTS: usize = 64;
/// Van der Pol sub-step in `plant-pipeline`: 100 RK4 steps per macro step.
const PIPE_SUBSTEP: f64 = 1e-5;
/// Oscillator sub-step in `param-sweep`: 5 RK4 steps per macro step.
/// A paced cycle then computes for a few tens of microseconds: the longer
/// a cycle, the larger the share of cycles a host preemption lands in,
/// and near 1 % that share moves the p99 by a third from run to run.
const SWEEP_SUBSTEP: f64 = 2e-4;

pub const NAMES: [&str; 3] = ["ctrl-loops", "plant-pipeline", "param-sweep"];

/// One generated workload.
#[derive(Debug, Clone)]
pub enum Workload {
    CtrlLoops(Vec<LoopParams>),
    PlantPipeline(Vec<GroupParams>),
    ParamSweep(Vec<OscParams>),
}

impl Workload {
    /// Generates workload `name` from `seed`; `None` for an unknown name.
    /// `plant-pipeline` uses one solver thread per core, at most two.
    pub fn generate(name: &str, seed: u64, nproc: usize) -> Option<Self> {
        let stream = NAMES.iter().position(|n| *n == name)? as u64;
        let mut rng = Pcg32::new(seed, stream);
        Some(match name {
            "ctrl-loops" => {
                Workload::CtrlLoops((0..LOOPS).map(|_| LoopParams::generate(&mut rng)).collect())
            }
            "plant-pipeline" => Workload::PlantPipeline(
                (0..nproc.clamp(1, 2)).map(|_| GroupParams::generate(&mut rng)).collect(),
            ),
            _ => {
                Workload::ParamSweep((0..VARIANTS).map(|_| OscParams::generate(&mut rng)).collect())
            }
        })
    }

    pub fn name(&self) -> &'static str {
        match self {
            Workload::CtrlLoops(_) => NAMES[0],
            Workload::PlantPipeline(_) => NAMES[1],
            Workload::ParamSweep(_) => NAMES[2],
        }
    }

    /// The thread policy the workload is measured under.
    pub fn policy(&self) -> ThreadPolicy {
        match self {
            Workload::PlantPipeline(_) => ThreadPolicy::DedicatedThreads,
            _ => ThreadPolicy::CurrentThread,
        }
    }

    /// Instances advanced per macro step (`K` for the ensemble).
    pub fn instances(&self) -> usize {
        match self {
            Workload::ParamSweep(v) => v.len(),
            _ => 1,
        }
    }

    /// Recorder samples one macro step produces (all probes, all instances).
    pub fn samples_per_step(&self) -> usize {
        match self {
            Workload::CtrlLoops(loops) => loops.len(),
            Workload::PlantPipeline(groups) => 2 * groups.len(),
            Workload::ParamSweep(v) => v.len(),
        }
    }

    /// Macro steps per free-running measurement window: tens of
    /// milliseconds on a 2-core x86-64 host, so one window amortises the
    /// threaded engine's per-call thread start-up.
    pub fn window_steps(&self) -> u64 {
        match self {
            Workload::CtrlLoops(_) => 2_000,
            Workload::PlantPipeline(_) => 4_000,
            Workload::ParamSweep(_) => 1_000,
        }
    }

    /// Builds the declarative model and its behaviour registry. With a
    /// tracer, every behaviour is wrapped in its decorator.
    pub fn model(&self, tracer: Option<&Tracer>) -> (UnifiedModel, BehaviorRegistry) {
        match self {
            Workload::CtrlLoops(loops) => ctrl_loops_model(loops, tracer),
            Workload::PlantPipeline(groups) => pipeline_model(groups, tracer),
            Workload::ParamSweep(_) => sweep_model(OscParams { mu: 1.0, x0: [2.0, 0.0] }, tracer),
        }
    }

    /// Constructs the engine for a compiled model of this workload.
    pub fn engine(
        &self,
        compiled: &CompiledSystem,
        policy: ThreadPolicy,
    ) -> Result<Sim, CoreError> {
        let config = EngineConfig { step: STEP, policy };
        Ok(match self {
            Workload::ParamSweep(variants) => {
                let specs: Vec<VariantSpec> = variants.iter().map(OscParams::variant).collect();
                Sim::Ensemble(EnsembleEngine::from_variants(compiled, &specs, config)?)
            }
            _ => Sim::Hybrid(Box::new(HybridEngine::from_compiled(compiled, config)?)),
        })
    }
}

/// The engine a workload runs on: one instance, or an ensemble of `K`.
pub enum Sim {
    Hybrid(Box<HybridEngine>),
    Ensemble(EnsembleEngine),
}

impl Sim {
    pub fn run_until(&mut self, t_end: f64) -> Result<(), CoreError> {
        match self {
            Sim::Hybrid(e) => e.run_until(t_end),
            Sim::Ensemble(e) => e.run_until(t_end),
        }
    }

    pub fn run_paced(&mut self, t_end: f64, config: PacedConfig) -> Result<PacedReport, CoreError> {
        match self {
            Sim::Hybrid(e) => e.run_paced(t_end, config),
            Sim::Ensemble(e) => e.run_paced(t_end, config),
        }
    }

    pub fn step_once(&mut self) -> Result<(), CoreError> {
        match self {
            Sim::Hybrid(e) => e.step_once(),
            Sim::Ensemble(e) => e.step_once(),
        }
    }

    pub fn time(&self) -> f64 {
        match self {
            Sim::Hybrid(e) => e.time(),
            Sim::Ensemble(e) => e.time(),
        }
    }

    pub fn step_count(&self) -> u64 {
        match self {
            Sim::Hybrid(e) => e.step_count(),
            Sim::Ensemble(e) => e.step_count(),
        }
    }

    pub fn set_recorder(&mut self, recorder: Recorder) {
        match self {
            Sim::Hybrid(e) => e.set_recorder(recorder),
            Sim::Ensemble(e) => e.set_recorder(recorder),
        }
    }

    pub fn set_max_batch(&mut self, max_batch: u64) {
        if let Sim::Hybrid(e) = self {
            e.set_max_batch(max_batch);
        }
    }

    /// Controller counters `(delivered, dropped)`; zero for ensembles,
    /// which run the continuous half only.
    pub fn controller_counts(&self) -> (u64, u64) {
        match self {
            Sim::Hybrid(e) => (e.controller().delivered_count(), e.controller().dropped_count()),
            Sim::Ensemble(_) => (0, 0),
        }
    }
}

/// Wraps `inner` in a streamer decorator when tracing.
fn traced(
    tracer: Option<&Tracer>,
    layer: Layer,
    group: usize,
    inner: Box<dyn StreamerBehavior>,
) -> Box<dyn StreamerBehavior> {
    match tracer {
        Some(t) => t.streamer(layer, group, inner),
        None => inner,
    }
}

/// Builds an ODE streamer over `system`, counting its right-hand-side
/// evaluations when tracing.
fn ode<T: InputSystem + Send + Clone + 'static>(
    tracer: Option<&Tracer>,
    group: usize,
    system: T,
    build: impl OdeBuild<T>,
) -> Box<dyn StreamerBehavior> {
    match tracer {
        Some(t) => t.streamer(Layer::Ode, group, build.build(t.counted(system))),
        None => build.build(system),
    }
}

/// Builds an `OdeStreamer` for either the plain or the counted system.
trait OdeBuild<T> {
    fn build<S: Plant<T>>(&self, system: S) -> Box<dyn StreamerBehavior>;
}

// ---------------------------------------------------------------- ctrl-loops

/// One thermostat loop's seeded parameters.
#[derive(Debug, Clone, Copy)]
pub struct LoopParams {
    pub setpoint: f64,
    pub band: f64,
    pub capacity: f64,
    pub loss: f64,
    pub power: f64,
    pub ambient: f64,
    pub t0: f64,
    pub kp: f64,
    pub ki: f64,
    pub umax: f64,
}

impl LoopParams {
    fn generate(rng: &mut Pcg32) -> Self {
        // Time constants of about half a second against a ~20 degree lift
        // give slopes of tens of degrees per second: each loop crosses its
        // band every few tens of milliseconds at its own rate, so across
        // the loops an SPort round trip happens on most 1 ms macro steps.
        // The ranges are narrow enough that the total crossing rate, and
        // with it the work per step, barely moves from seed to seed.
        let setpoint = rng.gen_range_f64(20.0, 24.0);
        let band = rng.gen_range_f64(0.4, 0.6);
        let ambient = rng.gen_range_f64(1.0, 4.0);
        let capacity = rng.gen_range_f64(0.8, 1.5);
        let loss = capacity / rng.gen_range_f64(0.45, 0.6);
        let power = loss * (setpoint - ambient) * rng.gen_range_f64(2.0, 2.4);
        let t0 = setpoint + band * rng.gen_range_f64(-0.8, 0.8);
        LoopParams {
            setpoint,
            band,
            capacity,
            loss,
            power,
            ambient,
            t0,
            kp: 0.1 * power,
            ki: 0.5 * power,
            umax: 0.3 * power,
        }
    }

    /// Steepest temperature slope the loop can reach inside or near its
    /// band, degrees per second.
    pub fn max_slope(&self) -> f64 {
        let heat = (self.power + self.umax) / self.capacity;
        let cool = self.loss * (self.setpoint + self.band + 1.0 - self.ambient) / self.capacity;
        heat.max(cool)
    }

    /// How far outside its hysteresis band a correct engine may let the
    /// temperature go: a crossing is detected at the end of the macro
    /// step it happens in and the capsule's reply acts from the next
    /// one, so the overshoot is bounded by two macro steps at the
    /// steepest slope.
    pub fn tolerance(&self) -> f64 {
        2.0 * STEP * self.max_slope()
    }
}

/// Thermal plant: `C T' = on·(P + u) − k (T − T_amb)`, with `u` the PI
/// controller's boost and `on` the capsule's heater command.
#[derive(Debug, Clone)]
pub struct Room {
    capacity: f64,
    loss: f64,
    power: f64,
    ambient: f64,
    heater_on: bool,
}

impl InputSystem for Room {
    fn dim(&self) -> usize {
        1
    }

    fn input_dim(&self) -> usize {
        1
    }

    fn derivatives(&self, _t: f64, x: &[f64], u: &[f64], dx: &mut [f64]) {
        let heating = if self.heater_on { self.power + u[0] } else { 0.0 };
        dx[0] = (heating - self.loss * (x[0] - self.ambient)) / self.capacity;
    }
}

struct RoomBuild(String, LoopParams);

impl OdeBuild<Room> for RoomBuild {
    fn build<S: Plant<Room>>(&self, system: S) -> Box<dyn StreamerBehavior> {
        let p = self.1;
        let (hi, lo) = (p.setpoint + p.band, p.setpoint - p.band);
        Box::new(
            OdeStreamer::new(&self.0, system, SolverKind::Rk4.create(), &[p.t0], STEP)
                .with_guard(ZeroCrossing::new("too_hot", EventDirection::Rising, move |_t, x| {
                    x[0] - hi
                }))
                .with_guard(ZeroCrossing::new("too_cold", EventDirection::Falling, move |_t, x| {
                    x[0] - lo
                }))
                .with_event_sport("ctl")
                .with_signal_handler(|msg, s: &mut S, _x| match msg.signal() {
                    "heater_on" => s.plant().heater_on = true,
                    "heater_off" => s.plant().heater_on = false,
                    _ => {}
                }),
        )
    }
}

/// The PI boost controller, compiled from a block diagram:
/// `u = sat(kp e + ki ∫e, 0, umax)` with `e = setpoint − T`.
fn pi_controller(name: &str, p: &LoopParams) -> Box<dyn StreamerBehavior> {
    let mut d = BlockDiagram::new(name);
    let sp = d.add_block(Constant::new(p.setpoint));
    let err = d.add_block(Sum::new(&[1.0, -1.0]));
    let kp = d.add_block(Gain::new(p.kp));
    let limit = p.umax / p.ki;
    let int = d.add_block(Integrator::new(0.0).with_limits(-limit, limit));
    let ki = d.add_block(Gain::new(p.ki));
    let sum = d.add_block(Sum::new(&[1.0, 1.0]));
    let sat = d.add_block(Saturation::new(0.0, p.umax));
    d.connect(sp, 0, err, 0).expect("wire setpoint");
    d.mark_input(err, 1).expect("temperature input");
    d.connect(err, 0, kp, 0).expect("wire kp");
    d.connect(err, 0, int, 0).expect("wire integrator");
    d.connect(int, 0, ki, 0).expect("wire ki");
    d.connect(kp, 0, sum, 0).expect("wire sum");
    d.connect(ki, 0, sum, 1).expect("wire sum");
    d.connect(sum, 0, sat, 0).expect("wire saturation");
    d.mark_output(sat, 0).expect("boost output");
    Box::new(d.into_streamer(name).expect("valid PI diagram"))
}

/// The thermostat capsule: heater off above the band, on below it.
fn thermostat() -> Box<dyn Capsule> {
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
        .expect("well-formed thermostat machine");
    Box::new(SmCapsule::new(machine, 0u32))
}

pub fn temp_series(i: usize) -> String {
    format!("temp{i:02}")
}

fn ctrl_loops_model(
    loops: &[LoopParams],
    tracer: Option<&Tracer>,
) -> (UnifiedModel, BehaviorRegistry) {
    let mut b = ModelBuilder::new("ctrl-loops");
    b.declare_protocol(
        Protocol::new("RoomCtl")
            .with_in("too_hot", PayloadKind::Empty)
            .with_in("too_cold", PayloadKind::Empty)
            .with_out("heater_on", PayloadKind::Empty)
            .with_out("heater_off", PayloadKind::Empty),
    );
    b.declare_budget(BudgetScope::Model, BUDGET_NS);
    let mut registry = BehaviorRegistry::new();
    for (i, p) in loops.iter().copied().enumerate() {
        let (room_name, pi_name, cap_name) =
            (format!("room{i:02}"), format!("pi{i:02}"), format!("thermo{i:02}"));
        let room = b.streamer(&room_name, "rk4");
        b.streamer_in(room, "boost", FlowType::with_unit(Unit::Watt));
        b.streamer_out(room, "temp", FlowType::with_unit(Unit::Kelvin));
        b.streamer_feedthrough(room, false);
        b.streamer_sport(room, "ctl", "RoomCtl");
        let pi = b.streamer(&pi_name, "euler");
        b.streamer_in(pi, "temp", FlowType::with_unit(Unit::Kelvin));
        b.streamer_out(pi, "boost", FlowType::with_unit(Unit::Watt));
        b.flow_between_streamers(room, "temp", pi, "temp");
        b.flow_between_streamers(pi, "boost", room, "boost");
        let cap = b.capsule(&cap_name);
        b.capsule_sport(cap, "plant", "RoomCtl");
        b.sport_link(cap, "plant", room, "ctl");
        b.capsule_machine(
            cap,
            SmSpec::new("thermostat")
                .state("heating")
                .state("cooling")
                .initial("heating")
                .on("heating", ("plant", "too_hot"), "cooling")
                .on("cooling", ("plant", "too_cold"), "heating"),
        );
        b.probe(room, "temp", temp_series(i));

        let t = tracer.cloned();
        registry = registry.streamer(room_name.clone(), move || {
            let room = Room {
                capacity: p.capacity,
                loss: p.loss,
                power: p.power,
                ambient: p.ambient,
                heater_on: true,
            };
            ode(t.as_ref(), 0, room, RoomBuild(room_name.clone(), p))
        });
        let t = tracer.cloned();
        registry = registry.streamer(pi_name.clone(), move || {
            traced(t.as_ref(), Layer::Blocks, 0, pi_controller(&pi_name, &p))
        });
        let t = tracer.cloned();
        registry = registry.capsule(cap_name, move || match &t {
            Some(t) => t.capsule(thermostat()),
            None => thermostat(),
        });
    }
    (b.build(), registry)
}

// ------------------------------------------------------------ plant-pipeline

/// One solver thread's seeded parameters.
#[derive(Debug, Clone, Copy)]
pub struct GroupParams {
    pub mu: f64,
    pub coupling: f64,
    pub x0: [f64; 2],
    pub taus: [f64; LAGS],
}

impl GroupParams {
    fn generate(rng: &mut Pcg32) -> Self {
        GroupParams {
            mu: rng.gen_range_f64(0.5, 2.0),
            coupling: rng.gen_range_f64(0.05, 0.2),
            x0: [rng.gen_range_f64(-2.0, 2.0), rng.gen_range_f64(-1.0, 1.0)],
            taus: [(); LAGS].map(|()| rng.gen_range_f64(0.01, 0.1)),
        }
    }
}

/// Van der Pol oscillator driven by the other thread's pipeline tail:
/// `x'' = mu (1 − x²) x' − x + c u`, output `x`.
#[derive(Debug, Clone)]
pub struct CoupledVdp {
    mu: f64,
    coupling: f64,
}

impl InputSystem for CoupledVdp {
    fn dim(&self) -> usize {
        2
    }

    fn input_dim(&self) -> usize {
        1
    }

    fn derivatives(&self, _t: f64, x: &[f64], u: &[f64], dx: &mut [f64]) {
        dx[0] = x[1];
        dx[1] = self.mu * (1.0 - x[0] * x[0]) * x[1] - x[0] + self.coupling * u[0];
    }

    fn output(&self, _t: f64, x: &[f64], _u: &[f64], y: &mut [f64]) {
        y[0] = x[0];
    }

    fn output_dim(&self) -> usize {
        1
    }
}

struct VdpBuild(String, [f64; 2]);

impl OdeBuild<CoupledVdp> for VdpBuild {
    fn build<S: Plant<CoupledVdp>>(&self, system: S) -> Box<dyn StreamerBehavior> {
        Box::new(OdeStreamer::new(&self.0, system, SolverKind::Rk4.create(), &self.1, PIPE_SUBSTEP))
    }
}

/// A first-order lag `1 / (tau s + 1)` compiled from a block diagram.
fn lag(name: &str, tau: f64) -> Box<dyn StreamerBehavior> {
    let mut d = BlockDiagram::new(name);
    let tf = d.add_block(TransferFunction::new(&[1.0], &[tau, 1.0]));
    d.mark_input(tf, 0).expect("lag input");
    d.mark_output(tf, 0).expect("lag output");
    Box::new(d.into_streamer(name).expect("valid lag diagram"))
}

fn pipeline_model(
    groups: &[GroupParams],
    tracer: Option<&Tracer>,
) -> (UnifiedModel, BehaviorRegistry) {
    let mut b = ModelBuilder::new("plant-pipeline");
    b.declare_budget(BudgetScope::Model, BUDGET_NS);
    let mut registry = BehaviorRegistry::new();
    let mut plants = Vec::new();
    let mut tails = Vec::new();
    for (g, p) in groups.iter().copied().enumerate() {
        let name = format!("vdp{g}");
        let plant = b.streamer(&name, "rk4");
        b.streamer_in(plant, "u", FlowType::scalar());
        b.streamer_out(plant, "y", FlowType::scalar());
        b.streamer_feedthrough(plant, false);
        b.assign_thread(plant, g);
        b.probe(plant, "y", format!("x{g}"));
        let t = tracer.cloned();
        registry = registry.streamer(name.clone(), move || {
            let system = CoupledVdp { mu: p.mu, coupling: p.coupling };
            ode(t.as_ref(), g, system, VdpBuild(name.clone(), p.x0))
        });
        let mut prev = plant;
        for (j, tau) in p.taus.iter().copied().enumerate() {
            let name = format!("lag{g}_{j}");
            let stage = b.streamer(&name, "euler");
            b.streamer_in(stage, "u", FlowType::scalar());
            b.streamer_out(stage, "y", FlowType::scalar());
            b.streamer_feedthrough(stage, false);
            b.assign_thread(stage, g);
            b.flow_between_streamers(prev, "y", stage, "u");
            let t = tracer.cloned();
            registry = registry.streamer(name.clone(), move || {
                traced(t.as_ref(), Layer::Blocks, g, lag(&name, tau))
            });
            prev = stage;
        }
        b.probe(prev, "y", format!("lag{g}"));
        plants.push(plant);
        tails.push(prev);
    }
    // Each thread's pipeline tail drives the next thread's plant, so with
    // two threads flows cross in both directions and both wait.
    for (g, tail) in tails.iter().enumerate() {
        b.flow_between_streamers(*tail, "y", plants[(g + 1) % plants.len()], "u");
    }
    (b.build(), registry)
}

// --------------------------------------------------------------- param-sweep

/// One ensemble variant: initial state and nonlinearity.
#[derive(Debug, Clone, Copy)]
pub struct OscParams {
    pub mu: f64,
    pub x0: [f64; 2],
}

impl OscParams {
    fn generate(rng: &mut Pcg32) -> Self {
        OscParams {
            mu: rng.gen_range_f64(0.2, 3.0),
            x0: [rng.gen_range_f64(-2.5, 2.5), rng.gen_range_f64(-2.5, 2.5)],
        }
    }

    pub fn variant(&self) -> VariantSpec {
        VariantSpec::new()
            .set("osc", "x0[0]", self.x0[0])
            .set("osc", "x0[1]", self.x0[1])
            .set("osc", "mu", self.mu)
    }
}

/// Free Van der Pol oscillator, output `x`.
#[derive(Debug, Clone)]
pub struct Osc {
    mu: f64,
}

impl InputSystem for Osc {
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

    fn output(&self, _t: f64, x: &[f64], _u: &[f64], y: &mut [f64]) {
        y[0] = x[0];
    }

    fn output_dim(&self) -> usize {
        1
    }
}

fn set_mu<S: Plant<Osc>>(system: &mut S, name: &str, value: f64) -> bool {
    if name == "mu" {
        system.plant().mu = value;
    }
    name == "mu"
}

struct OscBuild([f64; 2]);

impl OdeBuild<Osc> for OscBuild {
    fn build<S: Plant<Osc>>(&self, system: S) -> Box<dyn StreamerBehavior> {
        Box::new(
            OdeStreamer::new("osc", system, SolverKind::Rk4.create(), &self.0, SWEEP_SUBSTEP)
                .with_param_fn(set_mu::<S>),
        )
    }
}

/// The sweep's model with the given default parameters: the ensemble
/// overrides them per variant, a standalone check run bakes one in.
pub fn sweep_model(p: OscParams, tracer: Option<&Tracer>) -> (UnifiedModel, BehaviorRegistry) {
    let mut b = ModelBuilder::new("param-sweep");
    let osc = b.streamer("osc", "rk4");
    b.streamer_out(osc, "x", FlowType::scalar());
    b.streamer_feedthrough(osc, false);
    b.probe(osc, "x", "x");
    b.declare_budget(BudgetScope::Model, BUDGET_NS);
    let t = tracer.cloned();
    let registry = BehaviorRegistry::new()
        .streamer("osc", move || ode(t.as_ref(), 0, Osc { mu: p.mu }, OscBuild(p.x0)));
    (b.build(), registry)
}
