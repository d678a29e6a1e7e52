//! Randomised tests over the hybrid engine: random topologies and
//! workloads must execute deterministically and identically under both
//! thread policies. Cases are drawn from the in-tree seeded PRNG with a
//! fixed case count, so every run exercises the same inputs.

use unified_rt::core::elaborate::{elaborate, validate_gate, BehaviorRegistry, CompiledSystem};
use unified_rt::core::engine::{EngineConfig, HybridEngine};
use unified_rt::core::model::ModelBuilder;
use unified_rt::core::recorder::Recorder;
use unified_rt::core::rng::Pcg32;
use unified_rt::core::threading::ThreadPolicy;
use unified_rt::dataflow::flowtype::FlowType;
use unified_rt::dataflow::streamer::FnStreamer;
use unified_rt::umlrt::statemachine::SmSpec;

const CASES: usize = 12;

/// Declares a random-ish chain: source -> gains with the given factors,
/// next to an idle capsule, with the last stage probed as `out`.
fn chain(factors: &[f64]) -> CompiledSystem {
    let mut b = ModelBuilder::new("chain");
    let idle = b.capsule("idle");
    b.capsule_machine(idle, SmSpec::new("idle").state("s").initial("s"));
    let mut prev = b.streamer("src", "none");
    b.streamer_out(prev, "y", FlowType::scalar());
    let mut registry = BehaviorRegistry::new().streamer("src", || {
        Box::new(FnStreamer::new("src", 0, 1, |t: f64, _h, _u: &[f64], y: &mut [f64]| {
            y[0] = (3.0 * t).sin() + 1.0
        }))
    });
    for (i, k) in factors.iter().enumerate() {
        let (k, name) = (*k, format!("g{i}"));
        let node = b.streamer(&name, "none");
        b.streamer_in(node, "u", FlowType::scalar());
        b.streamer_out(node, "y", FlowType::scalar());
        b.flow_between_streamers(prev, "y", node, "u");
        registry = registry.streamer(name.clone(), move || {
            Box::new(FnStreamer::new(
                name.clone(),
                1,
                1,
                move |_t, _h, u: &[f64], y: &mut [f64]| y[0] = k * u[0] + 0.1,
            ))
        });
        prev = node;
    }
    b.probe(prev, "y", "out");
    elaborate(&b.build(), registry, &validate_gate).expect("chain compiles")
}

fn run_chain(factors: &[f64], steps: usize, policy: ThreadPolicy) -> Vec<(f64, f64)> {
    let mut engine =
        HybridEngine::from_compiled(&chain(factors), EngineConfig { step: 0.01, policy })
            .expect("engine");
    let rec = Recorder::new();
    engine.set_recorder(rec.clone());
    engine.run_until(steps as f64 * 0.01).expect("run");
    rec.series("out")
}

/// Renders the samples where two traces disagree, so a lockstep
/// violation reports exactly which points diverged and by how much.
fn diff_traces(local: &[(f64, f64)], threaded: &[(f64, f64)]) -> String {
    let mut out = String::new();
    for (i, ((t1, v1), (t2, v2))) in local.iter().zip(threaded).enumerate() {
        if (t1 - t2).abs() >= 1e-12 || v1.to_bits() != v2.to_bits() {
            out.push_str(&format!(
                "  sample {i}: local (t={t1}, y={v1:?}) vs threaded (t={t2}, y={v2:?})\n"
            ));
        }
    }
    if local.len() != threaded.len() {
        out.push_str(&format!(
            "  length mismatch: local {} samples, threaded {}\n",
            local.len(),
            threaded.len()
        ));
    }
    out
}

/// Both thread policies produce bit-identical traces for any chain.
#[test]
fn policies_agree_on_random_chains() {
    let mut rng = Pcg32::seed_from_u64(0xC4A15);
    for case in 0..CASES {
        let factors = rng.gen_vec_f64_var(1, 6, -1.5, 1.5);
        let steps = rng.gen_range_usize(5, 40);
        let local = run_chain(&factors, steps, ThreadPolicy::CurrentThread);
        let threaded = run_chain(&factors, steps, ThreadPolicy::DedicatedThreads);
        let diff = diff_traces(&local, &threaded);
        assert!(
            diff.is_empty(),
            "case {case}: policies disagree for factors {factors:?}, {steps} steps:\n{diff}"
        );
    }
}

/// Re-running the same configuration twice yields bit-identical
/// results — the engine is deterministic given a fixed topology.
#[test]
fn engine_is_deterministic() {
    let mut rng = Pcg32::seed_from_u64(0xDE7E0);
    for case in 0..CASES {
        let factors = rng.gen_vec_f64_var(1, 5, -1.0, 1.0);
        let a = run_chain(&factors, 20, ThreadPolicy::CurrentThread);
        let b = run_chain(&factors, 20, ThreadPolicy::CurrentThread);
        assert_eq!(a.len(), b.len(), "case {case}");
        for (i, ((ta, va), (tb, vb))) in a.iter().zip(&b).enumerate() {
            assert!(
                ta.to_bits() == tb.to_bits() && va.to_bits() == vb.to_bits(),
                "case {case}: run 1 and run 2 differ at sample {i}: \
                 (t={ta}, y={va:?}) vs (t={tb}, y={vb:?})"
            );
        }
    }
}

/// Chains of bounded gains stay bounded (BIBO sanity).
#[test]
fn bounded_chains_stay_bounded() {
    let mut rng = Pcg32::seed_from_u64(0xB1B0);
    for _ in 0..CASES {
        let factors = rng.gen_vec_f64_var(1, 6, -0.9, 0.9);
        let out = run_chain(&factors, 50, ThreadPolicy::CurrentThread);
        for (_, v) in out {
            // |input| <= 2, each stage: |y| <= 0.9 |u| + 0.1 => bounded by 2.
            assert!(v.abs() <= 2.1, "diverged to {v}");
        }
    }
}
