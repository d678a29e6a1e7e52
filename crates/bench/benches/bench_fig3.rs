//! Figure 3 bench: hybrid model step throughput — a capsule supervising
//! streamers through the engine, the paper's end-to-end structure.
//!
//! Runs on the in-tree [`urt_bench::timer`] harness.

use urt_core::elaborate::{BehaviorRegistry, CompiledSystem};
use urt_core::engine::{EngineConfig, HybridEngine};
use urt_core::model::ModelBuilder;
use urt_core::threading::ThreadPolicy;
use urt_dataflow::flowtype::FlowType;
use urt_dataflow::streamer::OdeStreamer;
use urt_ode::solver::SolverKind;
use urt_ode::system::InputSystem;
use urt_umlrt::statemachine::SmSpec;

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

/// A supervisor capsule next to one RK4 lag plant.
fn model() -> CompiledSystem {
    let mut b = ModelBuilder::new("fig3");
    let sup = b.capsule("sup");
    b.capsule_machine(sup, SmSpec::new("sup").state("s").initial("s"));
    let lag = b.streamer("lag", "rk4");
    b.streamer_out(lag, "y", FlowType::scalar());
    b.streamer_feedthrough(lag, false);
    let registry = BehaviorRegistry::new().streamer("lag", || {
        Box::new(OdeStreamer::new("lag", Lag, SolverKind::Rk4.create(), &[0.0], 1e-4))
    });
    urt_analysis::compile(&b.build(), registry).expect("fig3 model compiles")
}

fn engine(compiled: &CompiledSystem) -> HybridEngine {
    let config = EngineConfig { step: 1e-3, policy: ThreadPolicy::CurrentThread };
    HybridEngine::from_compiled(compiled, config).expect("engine")
}

fn main() {
    use std::hint::black_box;
    use urt_bench::timer::{bench, bench_batched, report_header};

    println!("{}", report_header());

    let compiled = model();
    let mut e = engine(&compiled);
    let report = bench("fig3_hybrid/engine_macro_step", 5_000, || {
        black_box(&mut e).step_once().expect("step");
    });
    println!("{report}");

    let report = bench_batched(
        "fig3_hybrid/engine_run_10ms",
        100,
        || engine(&compiled),
        |mut e| {
            e.run_until(0.01).expect("run");
        },
    );
    println!("{report}");
}
