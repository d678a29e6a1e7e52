//! E4 bench: simulating 100 ms of k Van der Pol streamers under each
//! thread-assignment policy.
//!
//! Runs on the in-tree [`urt_bench::timer`] harness.

use urt_core::elaborate::{BehaviorRegistry, CompiledSystem};
use urt_core::engine::{EngineConfig, HybridEngine};
use urt_core::model::ModelBuilder;
use urt_core::threading::{GroupingPolicy, ThreadPolicy};
use urt_dataflow::flowtype::FlowType;
use urt_dataflow::streamer::OdeStreamer;
use urt_ode::solver::SolverKind;
use urt_ode::system::InputSystem;
use urt_umlrt::statemachine::SmSpec;

#[derive(Clone)]

struct Vdp;

impl InputSystem for Vdp {
    fn dim(&self) -> usize {
        2
    }
    fn input_dim(&self) -> usize {
        0
    }
    fn derivatives(&self, _t: f64, x: &[f64], _u: &[f64], dx: &mut [f64]) {
        dx[0] = x[1];
        dx[1] = 1.5 * (1.0 - x[0] * x[0]) * x[1] - x[0];
    }
}

const POLICIES: [(&str, GroupingPolicy, ThreadPolicy); 4] = [
    ("local", GroupingPolicy::Single, ThreadPolicy::CurrentThread),
    ("single-thread", GroupingPolicy::Single, ThreadPolicy::DedicatedThreads),
    ("grouped-4", GroupingPolicy::Grouped(4), ThreadPolicy::DedicatedThreads),
    ("per-streamer", GroupingPolicy::PerStreamer, ThreadPolicy::DedicatedThreads),
];

/// `n` Van der Pol streamers next to an idle capsule, each pinned to the
/// solver thread `grouping` assigns it.
fn make_model(n: usize, grouping: GroupingPolicy) -> CompiledSystem {
    let mut b = ModelBuilder::new("e4");
    let idle = b.capsule("idle");
    b.capsule_machine(idle, SmSpec::new("idle").state("s").initial("s"));
    let mut registry = BehaviorRegistry::new();
    for (i, &g) in grouping.assign(n).iter().enumerate() {
        let name = format!("vdp{i}");
        let s = b.streamer(&name, "rk4");
        b.streamer_out(s, "y", FlowType::vector(2));
        b.streamer_feedthrough(s, false);
        b.assign_thread(s, g);
        registry = registry.streamer(name.clone(), move || {
            Box::new(OdeStreamer::new(&name, Vdp, SolverKind::Rk4.create(), &[2.0, 0.0], 1e-4))
        });
    }
    urt_analysis::compile(&b.build(), registry).expect("e4 model compiles")
}

fn main() {
    use urt_bench::timer::{bench_batched, report_header};

    println!("{}", report_header());
    for n in [4usize, 16] {
        for (label, grouping, policy) in POLICIES {
            let compiled = make_model(n, grouping);
            let config = EngineConfig { step: 1e-3, policy };
            let report = bench_batched(
                &format!("e4_threading/{label}/{n}"),
                10,
                || HybridEngine::from_compiled(&compiled, config).expect("engine"),
                |mut e| e.run_until(0.1).expect("run"),
            );
            println!("{report}");
        }
    }
}
