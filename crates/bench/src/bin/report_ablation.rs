//! Ablations over the reproduction's own design choices:
//!
//! * A1 — zero-crossing *bisection localisation* versus naive
//!   end-of-step detection (event-time accuracy).
//! * A2 — macro-step size versus thread-sync overhead in the engine.
//! * A3 — solver sub-stepping inside one macro step versus one step per
//!   macro step (accuracy at the streamer boundary).
//!
//! Run with: `cargo run --release -p urt-bench --bin report_ablation`

use std::time::Instant;
use urt_core::elaborate::BehaviorRegistry;
use urt_core::engine::{EngineConfig, HybridEngine};
use urt_core::model::ModelBuilder;
use urt_core::threading::ThreadPolicy;
use urt_dataflow::flowtype::FlowType;
use urt_dataflow::streamer::OdeStreamer;
use urt_ode::events::{locate_first_crossing, EventDirection, ZeroCrossing};
use urt_ode::solver::{Rk4, Solver, SolverKind};
use urt_ode::system::library::HarmonicOscillator;
use urt_ode::system::{FnInputSystem, InputSystem};
use urt_umlrt::statemachine::SmSpec;

fn idle_engine(policy: ThreadPolicy, step: f64, substep: f64) -> HybridEngine {
    #[derive(Clone)]
    struct Lag;
    impl InputSystem for Lag {
        fn dim(&self) -> usize {
            1
        }
        fn input_dim(&self) -> usize {
            0
        }
        fn derivatives(&self, _t: f64, x: &[f64], _u: &[f64], dx: &mut [f64]) {
            dx[0] = 1.0 - x[0];
        }
    }
    let mut b = ModelBuilder::new("p");
    let idle = b.capsule("i");
    b.capsule_machine(idle, SmSpec::new("i").state("s").initial("s"));
    let lag = b.streamer("lag", "rk4");
    b.streamer_out(lag, "y", FlowType::scalar());
    b.streamer_feedthrough(lag, false);
    let registry = BehaviorRegistry::new().streamer("lag", move || {
        Box::new(OdeStreamer::new("lag", Lag, SolverKind::Rk4.create(), &[0.0], substep))
    });
    let compiled = urt_analysis::compile(&b.build(), registry).expect("lag model compiles");
    HybridEngine::from_compiled(&compiled, EngineConfig { step, policy }).expect("engine")
}

fn main() {
    // --- A1: event-time accuracy with and without bisection.
    println!("A1. Zero-crossing localisation (cos(t) falling through 0; exact t = pi/2)");
    println!();
    println!("| macro step | end-of-step detection err | bisection err |");
    println!("|------------|---------------------------|----------------|");
    let sys = HarmonicOscillator { omega: 1.0 };
    let exact = std::f64::consts::FRAC_PI_2;
    for h in [0.1, 0.05, 0.01] {
        // Walk macro steps; on the step whose boundary shows the sign
        // flip, compare end-of-step detection against bisection inside
        // that same step (exactly what OdeStreamer does).
        let mut x = vec![1.0, 0.0];
        let mut t = 0.0;
        let mut solver = Rk4::new();
        let mut naive = f64::NAN;
        let mut localized = f64::NAN;
        while t < 3.0 {
            let x_before = x.clone();
            let before = x[0];
            solver.step(&sys, t, &mut x, h).expect("step");
            if before > 0.0 && x[0] <= 0.0 {
                naive = t + h;
                let guards =
                    [ZeroCrossing::new("zero", EventDirection::Falling, |_t, x: &[f64]| x[0])];
                let hit = locate_first_crossing(
                    &sys,
                    &mut Rk4::new(),
                    &guards,
                    t,
                    &x_before,
                    t + h,
                    1e-12,
                )
                .expect("locate")
                .expect("crossing exists");
                localized = hit.time;
                break;
            }
            t += h;
        }
        println!(
            "| {:<10} | {:<25.3e} | {:<14.3e} |",
            h,
            (naive - exact).abs(),
            (localized - exact).abs()
        );
    }
    println!();

    // --- A2: macro step vs sync overhead.
    println!("A2. Macro step vs thread-sync overhead (1 s simulated, fixed 0.1 ms substep)");
    println!();
    println!("| macro step | local (ms) | dedicated threads (ms) | sync penalty |");
    println!("|------------|------------|------------------------|--------------|");
    for step in [1e-1, 1e-2, 1e-3] {
        let mut local = idle_engine(ThreadPolicy::CurrentThread, step, 1e-4);
        let t0 = Instant::now();
        local.run_until(1.0).expect("run");
        let t_local = t0.elapsed().as_secs_f64() * 1e3;
        let mut threaded = idle_engine(ThreadPolicy::DedicatedThreads, step, 1e-4);
        let t0 = Instant::now();
        threaded.run_until(1.0).expect("run");
        let t_thread = t0.elapsed().as_secs_f64() * 1e3;
        println!(
            "| {:<10} | {:>10.1} | {:>22.1} | {:>11.2}x |",
            step,
            t_local,
            t_thread,
            t_thread / t_local.max(1e-9)
        );
    }
    println!();

    // --- A3: sub-stepping accuracy at the streamer boundary.
    println!("A3. Solver sub-steps per macro step (lag plant, t = 1 s, macro step 10 ms)");
    println!();
    println!("| substep    | x(1) error vs 1-e^-1 |");
    println!("|------------|----------------------|");
    for substep in [1e-2, 1e-3, 1e-4] {
        let sys = FnInputSystem::new(1, 0, |_t, x: &[f64], _u: &[f64], dx: &mut [f64]| {
            dx[0] = 1.0 - x[0];
        });
        let mut s =
            OdeStreamer::new("lag", sys, SolverKind::ForwardEuler.create(), &[0.0], substep);
        use urt_dataflow::streamer::StreamerBehavior;
        s.initialize(0.0).expect("init");
        let mut y = [0.0];
        let mut t = 0.0;
        while t < 1.0 - 1e-12 {
            s.advance(t, 0.01, &[], &mut y).expect("advance");
            t += 0.01;
        }
        let exact = 1.0 - (-1.0f64).exp();
        println!("| {:<10} | {:<20.3e} |", substep, (y[0] - exact).abs());
    }
    println!();
    println!("expected shapes: A1 bisection gains orders of magnitude; A2 sync");
    println!("penalty grows as the macro step shrinks; A3 error scales with the");
    println!("substep for a first-order solver.");
}
