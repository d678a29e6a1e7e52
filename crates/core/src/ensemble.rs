//! The `K`-instance parts of the engine: parameter variants and the
//! lane-batched ODE kernel.
//!
//! Parameter sweeps, Monte-Carlo robustness studies and scenario fans
//! all run the *same* lowered model many times with slightly different
//! parameters. [`HybridEngine::from_variants`] runs them as one engine
//! with `K` instance-major lane sets per group, so the plan walk, the
//! channel parity bookkeeping and the probe/clock overhead are paid once
//! per step instead of once per instance. This module holds what only
//! `K ≥ 2` needs:
//!
//! * [`VariantSpec`] — per-instance parameter overrides, applied through
//!   [`StreamerBehavior::set_param`] before initialisation;
//! * [`EnsembleKernel`] and the batched row kernel — homogeneous,
//!   guard-free ODE rows step all `K` lanes through one width-aware
//!   [`Solver::step_batch`] call per sub-step;
//! * [`EnsembleEngine`], the name the ensemble API has always had for
//!   the one engine.
//!
//! **Determinism is the correctness anchor**: instance `i` of a
//! `K`-instance engine is bit-identical to a standalone run with the same
//! variant parameters — same plan replay, same accumulated group time,
//! same cross-group channel parity slots, same drift-free probe
//! timestamps. The equivalence suites pin this for both thread policies.

use crate::error::CoreError;
use std::cell::RefCell;
use urt_dataflow::graph::PlanNode;
use urt_dataflow::streamer::StreamerBehavior;
use urt_ode::solver::Solver;
use urt_ode::system::BatchOdeSystem;
use urt_ode::OdeSystem;

#[cfg(doc)]
use crate::engine::HybridEngine;

/// The ensemble API's name for the one engine: a `K`-instance
/// [`HybridEngine`], built by [`HybridEngine::from_variants`].
///
/// # Examples
///
/// ```
/// use urt_core::ensemble::{EnsembleEngine, VariantSpec};
/// # use urt_core::elaborate::{elaborate, validate_gate, BehaviorRegistry};
/// # use urt_core::engine::EngineConfig;
/// # use urt_core::model::ModelBuilder;
/// # use urt_core::recorder::Recorder;
/// # use urt_dataflow::flowtype::FlowType;
/// # use urt_dataflow::streamer::FnStreamer;
/// # let mut b = ModelBuilder::new("m");
/// # let s = b.streamer("sine", "none");
/// # b.streamer_out(s, "y", FlowType::scalar());
/// # b.probe(s, "y", "y");
/// # let registry = BehaviorRegistry::new().streamer("sine", || {
/// #     Box::new(FnStreamer::new("sine", 0, 1, |t: f64, _h, _u: &[f64], y: &mut [f64]| {
/// #         y[0] = t.sin()
/// #     }))
/// # });
/// # let compiled = elaborate(&b.build(), registry, &validate_gate).unwrap();
/// let variants = vec![VariantSpec::new(); 8];
/// let mut ensemble = EnsembleEngine::from_variants(&compiled, &variants, EngineConfig::default())?;
/// let rec = Recorder::new();
/// ensemble.set_recorder(rec.clone());
/// ensemble.run_until(0.01)?;
/// assert_eq!(rec.series(&EnsembleEngine::series_name("y", 7)).len(), 10);
/// # Ok::<(), urt_core::error::CoreError>(())
/// ```
pub type EnsembleEngine = crate::engine::HybridEngine;

/// Per-instance parameter overrides for one ensemble member: a list of
/// `(streamer, parameter, value)` assignments applied through
/// [`StreamerBehavior::set_param`] after replication and before
/// initialisation.
///
/// An empty spec replicates the compiled system's parameters unchanged.
/// [`OdeStreamer`](urt_dataflow::streamer::OdeStreamer) understands the
/// built-in `x0[i]` names (initial-state lanes) plus whatever its
/// `with_param_fn` hook recognises.
///
/// # Examples
///
/// ```
/// use urt_core::ensemble::VariantSpec;
///
/// let v = VariantSpec::new().set("plant", "x0[0]", 2.5).set("plant", "mu", 1.2);
/// assert_eq!(v.len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct VariantSpec {
    pub(crate) overrides: Vec<(String, String, f64)>,
}

impl VariantSpec {
    /// An empty spec (the compiled system's own parameters).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one override (builder style).
    pub fn set(
        mut self,
        streamer: impl Into<String>,
        param: impl Into<String>,
        value: f64,
    ) -> Self {
        self.overrides.push((streamer.into(), param.into(), value));
        self
    }

    /// Number of overrides.
    pub fn len(&self) -> usize {
        self.overrides.len()
    }

    /// Whether the spec has no overrides.
    pub fn is_empty(&self) -> bool {
        self.overrides.is_empty()
    }
}

/// Which ODE stepping kernel `K`-instance groups use for solver-backed
/// lanes.
///
/// [`Batched`](EnsembleKernel::Batched) (the default) routes every
/// eligible streamer row — homogeneous, guard-free lanes whose solver has
/// a true batched kernel — through one width-aware
/// [`Solver::step_batch`] call per sub-step. Per-lane arithmetic is the
/// exact scalar sequence, so results stay bit-identical either way;
/// [`PerLane`](EnsembleKernel::PerLane) exists as the measurable baseline
/// (the `bench_engine` kernel axis). Single-instance engines always step
/// per lane: there is nothing to batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EnsembleKernel {
    /// Per-lane scalar stepping: K independent `advance` calls per row.
    PerLane,
    /// Width-aware batched stepping for eligible rows.
    #[default]
    Batched,
}

/// Batch-stepping state for one eligible streamer row: the row's lanes
/// share `dim`/`substep`, and the row owns one solver clone (explicit
/// fixed-step strategies carry no cross-step scratch, so a single solver
/// serves all K lanes) plus the instance-major state staging.
pub(crate) struct BatchRow {
    dim: usize,
    substep: f64,
    /// The row's solver clock, shared by all lanes (lockstep): the exact
    /// mirror of the lanes' `SolverDriver` time, persistent across macro
    /// steps. It is *not* recomputed from the group time — the driver's
    /// end-of-interval snap can leave it one rounding shy of `t_end`, and
    /// the next macro step's clamped final sub-step depends on that value
    /// bit-for-bit.
    time: f64,
    solver: Box<dyn Solver + Send>,
    /// Instance-major staging, `K * dim`: gathered from the lanes' drivers
    /// before the sub-step loop, scattered back through
    /// [`OdeLane::lane_sync`](urt_dataflow::streamer::OdeLane::lane_sync) after.
    states: Vec<f64>,
    /// Per-lane gather/scatter scratch for [`LaneBatchSystem`] (`dim`
    /// each), parked here between macro steps to stay allocation-free.
    scratch_x: Vec<f64>,
    scratch_d: Vec<f64>,
}

/// The K lanes of one streamer row viewed as a single batched ODE system.
///
/// Each lane keeps its own parameters and frozen inputs, so the
/// derivative evaluation dispatches per lane — but every lane computes
/// exactly what the scalar path's `FrozenInput` wrapper computes, and the
/// solver's stage algebra above this runs as fused sweeps across all
/// lanes. `OdeSystem::derivatives` is unreachable by construction: only
/// solvers with true batched kernels (which never fall back to the scalar
/// entry point) are routed here.
struct LaneBatchSystem<'a> {
    lanes: &'a [Box<dyn StreamerBehavior>],
    ins: &'a [f64],
    inw: usize,
    in_offset: usize,
    in_width: usize,
    dim: usize,
    scratch: RefCell<(Vec<f64>, Vec<f64>)>,
}

impl OdeSystem for LaneBatchSystem<'_> {
    fn dim(&self) -> usize {
        self.dim
    }

    fn derivatives(&self, _t: f64, _x: &[f64], _dx: &mut [f64]) {
        unreachable!("lane batch systems are only evaluated through derivatives_batch");
    }
}

impl BatchOdeSystem for LaneBatchSystem<'_> {
    fn derivatives_batch(&self, t: f64, states: &[f64], dim: usize, k: usize, dx: &mut [f64]) {
        let mut scratch = self.scratch.borrow_mut();
        let (x, d) = &mut *scratch;
        for (i, b) in self.lanes.iter().enumerate() {
            let lane = b.as_ode_lane().expect("batch rows contain only ODE lanes");
            for v in 0..dim {
                x[v] = states[v * k + i];
            }
            let ui = i * self.inw + self.in_offset;
            lane.lane_derivatives(t, x, &self.ins[ui..ui + self.in_width], d);
            for v in 0..dim {
                dx[v * k + i] = d[v];
            }
        }
    }
}

impl BatchRow {
    /// Decides whether all K lanes of a streamer row can step through the
    /// batched kernel: every lane must expose itself as a batchable
    /// [`OdeLane`](urt_dataflow::streamer::OdeLane) (initialized,
    /// guard-free, handler-free, batched-kernel solver) and the row must
    /// be homogeneous in `dim`, `substep` and solver clock — the lockstep
    /// schedule is shared. Called once after `initialize`.
    pub(crate) fn build(lanes: &[Box<dyn StreamerBehavior>]) -> Option<BatchRow> {
        let first = lanes.first()?.as_ode_lane()?;
        if !first.lane_batchable() {
            return None;
        }
        let dim = first.lane_dim();
        let substep = first.lane_substep();
        if dim == 0 || !(substep.is_finite() && substep > 0.0) {
            return None;
        }
        let time = first.lane_time()?;
        for b in lanes {
            let lane = b.as_ode_lane()?;
            if !lane.lane_batchable()
                || lane.lane_dim() != dim
                || lane.lane_substep().to_bits() != substep.to_bits()
                || lane.lane_state().is_none()
                || lane.lane_time().map(f64::to_bits) != Some(time.to_bits())
            {
                return None;
            }
        }
        Some(BatchRow {
            dim,
            substep,
            time,
            solver: first.lane_clone_solver()?,
            states: vec![0.0; lanes.len() * dim],
            scratch_x: vec![0.0; dim],
            scratch_d: vec![0.0; dim],
        })
    }

    /// Advances every lane of the row from `t` to `t + h`, reading inputs
    /// from and writing outputs to the group's instance-major dense
    /// arrays at the plan node's offsets.
    pub(crate) fn step(
        &mut self,
        lanes: &mut [Box<dyn StreamerBehavior>],
        pn: &PlanNode,
        ins: &[f64],
        outs: &mut [f64],
        t: f64,
        h: f64,
    ) -> Result<(), CoreError> {
        let (inw, outw) = (ins.len() / lanes.len(), outs.len() / lanes.len());
        let dim = self.dim;
        let t_end = t + h;
        let resolution = 4.0 * f64::EPSILON * t_end.abs().max(1.0);
        for (i, b) in lanes.iter().enumerate() {
            let lane = b.as_ode_lane().expect("batch rows contain only ODE lanes");
            let x = lane.lane_state().expect("batch rows are initialized");
            self.states[i * dim..(i + 1) * dim].copy_from_slice(x);
        }
        let sys = LaneBatchSystem {
            lanes,
            ins,
            inw,
            in_offset: pn.in_offset,
            in_width: pn.in_width,
            dim,
            scratch: RefCell::new((
                std::mem::take(&mut self.scratch_x),
                std::mem::take(&mut self.scratch_d),
            )),
        };
        // The scalar path's sub-step schedule verbatim
        // (`OdeStreamer::advance` + `SolverDriver::advance` for a
        // fixed-step solver), resuming from the persistent row clock, so
        // every lane sees the exact `(t, h)` sequence of a standalone run.
        let mut tl = self.time;
        let mut result = Ok(());
        while tl < t_end - resolution {
            let remaining = t_end - tl;
            if remaining <= resolution {
                // The driver's own entry check can disagree with the loop
                // test by one rounding: snap without stepping.
                tl = t_end;
                continue;
            }
            let h_sub = self.substep.min(remaining);
            result = self.solver.step_batch(&sys, tl, &mut self.states, dim, h_sub);
            if result.is_err() {
                break;
            }
            tl += h_sub;
            if t_end - tl <= resolution {
                tl = t_end;
            }
        }
        (self.scratch_x, self.scratch_d) = sys.scratch.into_inner();
        result.map_err(|e| CoreError::Flow(e.into()))?;
        self.time = tl;
        for (i, b) in lanes.iter_mut().enumerate() {
            let ui = i * inw + pn.in_offset;
            let yi = i * outw + pn.out_offset;
            let x = &self.states[i * dim..(i + 1) * dim];
            let lane = b.as_ode_lane_mut().expect("batch rows contain only ODE lanes");
            // Sync the driver to the row clock (which may sit one rounding
            // shy of `t_end`), exactly where the scalar driver would have
            // left it.
            lane.lane_sync(self.time, x).map_err(|e| CoreError::Flow(e.into()))?;
            lane.lane_output(
                t_end,
                x,
                &ins[ui..ui + pn.in_width],
                &mut outs[yi..yi + pn.out_width],
            );
            // Batchable lanes are guard-free, so nothing can be pending;
            // drain regardless, as the scalar branch does.
            let _ = b.take_emitted();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elaborate::{elaborate, validate_gate, BehaviorRegistry, CompiledSystem};
    use crate::engine::{EngineConfig, HybridEngine};
    use crate::model::{FlowEnd, ModelBuilder, UnifiedModel};
    use crate::recorder::Recorder;
    use crate::threading::ThreadPolicy;
    use crate::time::SimClock;
    use urt_dataflow::flowtype::FlowType;
    use urt_dataflow::graph::StreamerNetwork;
    use urt_dataflow::streamer::{FnStreamer, OdeStreamer};
    use urt_ode::solver::SolverKind;
    use urt_ode::system::InputSystem;

    /// x' = -rate * x, a one-lane system with a named `rate` parameter.
    #[derive(Clone)]
    struct Decay {
        rate: f64,
    }

    impl InputSystem for Decay {
        fn dim(&self) -> usize {
            1
        }
        fn input_dim(&self) -> usize {
            0
        }
        fn derivatives(&self, _t: f64, x: &[f64], _u: &[f64], dx: &mut [f64]) {
            dx[0] = -self.rate * x[0];
        }
    }

    fn decay_streamer(rate: f64, x0: f64) -> OdeStreamer<Decay> {
        OdeStreamer::new("plant", Decay { rate }, SolverKind::Rk4.create(), &[x0], 1e-3)
            .with_param_fn(|s, name, v| {
                if name == "rate" {
                    s.rate = v;
                    true
                } else {
                    false
                }
            })
    }

    /// Model: non-feedthrough decaying plant -> feedthrough doubler.
    fn decay_chain(rate: f64, x0: f64) -> (UnifiedModel, BehaviorRegistry) {
        let mut b = ModelBuilder::new("m");
        let p = b.streamer("plant", "none");
        let d = b.streamer("dbl", "none");
        b.streamer_out(p, "y", FlowType::scalar());
        b.streamer_in(d, "u", FlowType::scalar());
        b.streamer_out(d, "y", FlowType::scalar());
        b.streamer_feedthrough(p, false);
        b.flow_between_streamers(p, "y", d, "u");
        b.probe(d, "y", "out");
        let registry = BehaviorRegistry::new()
            .streamer("plant", move || Box::new(decay_streamer(rate, x0)))
            .streamer("dbl", || {
                Box::new(FnStreamer::new("dbl", 1, 1, |_t, _h, u: &[f64], y: &mut [f64]| {
                    y[0] = 2.0 * u[0]
                }))
            });
        (b.build(), registry)
    }

    fn compile(rate: f64, x0: f64) -> CompiledSystem {
        let (model, registry) = decay_chain(rate, x0);
        elaborate(&model, registry, &validate_gate).expect("elaborates")
    }

    /// `k` instances with the compiled system's own parameters.
    fn replicas(k: usize) -> Vec<VariantSpec> {
        vec![VariantSpec::new(); k]
    }

    fn bit_eq(a: &[(f64, f64)], b: &[(f64, f64)], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: length");
        for (i, ((t1, v1), (t2, v2))) in a.iter().zip(b.iter()).enumerate() {
            assert_eq!(t1.to_bits(), t2.to_bits(), "{what}: time at {i}");
            assert_eq!(v1.to_bits(), v2.to_bits(), "{what}: value at {i}");
        }
    }

    #[test]
    fn ensemble_refuses_zero_instances() {
        let compiled = compile(1.0, 1.0);
        let err =
            EnsembleEngine::from_variants(&compiled, &[], EngineConfig::default()).unwrap_err();
        assert!(err.to_string().contains("at least one instance"), "{err}");
    }

    #[test]
    fn ensemble_refuses_sport_links() {
        #[derive(Clone)]
        struct P;
        impl StreamerBehavior for P {
            fn name(&self) -> &str {
                "plant"
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
            ) -> Result<(), urt_ode::SolveError> {
                y[0] = t;
                Ok(())
            }
            fn clone_fresh(&self) -> Option<Box<dyn StreamerBehavior>> {
                Some(Box::new(self.clone()))
            }
        }
        let mut b = ModelBuilder::new("m");
        let cap = b.capsule("sup");
        let s = b.streamer("plant", "none");
        b.streamer_out(s, "y", FlowType::scalar());
        b.streamer_feedthrough(s, false);
        b.capsule_sport(cap, "p", "Ctl");
        b.streamer_sport(s, "ctl", "Ctl");
        b.sport_link(cap, "p", s, "ctl");
        let registry = BehaviorRegistry::new().streamer("plant", || Box::new(P));
        let compiled = elaborate(&b.build(), registry, &validate_gate).expect("elaborates");
        assert_eq!(compiled.sport_link_count(), 1);
        let err = EnsembleEngine::from_variants(&compiled, &replicas(4), EngineConfig::default())
            .unwrap_err();
        assert!(err.to_string().contains("SPort link"), "{err}");
    }

    #[test]
    fn factory_replication_outlives_clone_fresh() {
        // A behaviour without a clone_fresh override cannot be *cloned*
        // — but the compiled path replicates by re-invoking the registry
        // factory, so the ensemble builds and runs anyway.
        struct Opaque;
        impl StreamerBehavior for Opaque {
            fn name(&self) -> &str {
                "opaque"
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
            ) -> Result<(), urt_ode::SolveError> {
                y[0] = t;
                Ok(())
            }
        }
        let mut b = ModelBuilder::new("m");
        let s = b.streamer("opaque", "none");
        b.streamer_out(s, "y", FlowType::scalar());
        b.streamer_feedthrough(s, false);
        b.probe(s, "y", "out");
        let registry = BehaviorRegistry::new().streamer("opaque", || Box::new(Opaque));
        let compiled = elaborate(&b.build(), registry, &validate_gate).expect("elaborates");
        let mut ensemble =
            EnsembleEngine::from_variants(&compiled, &replicas(2), EngineConfig::default())
                .unwrap();
        let rec = Recorder::new();
        ensemble.set_recorder(rec.clone());
        ensemble.run_until(0.01).unwrap();
        for i in 0..2 {
            let series = rec.series(&EnsembleEngine::series_name("out", i));
            assert!(!series.is_empty(), "instance {i} produced no samples");
        }
    }

    #[test]
    fn ensemble_refuses_bad_step_with_structured_error() {
        let compiled = compile(1.0, 1.0);
        let bad = EngineConfig { step: 0.0, policy: ThreadPolicy::CurrentThread };
        let err = EnsembleEngine::from_variants(&compiled, &replicas(2), bad).unwrap_err();
        assert!(matches!(err, CoreError::InvalidStep { .. }), "{err}");
        assert!(err.to_string().starts_with("URT116: "), "{err}");

        let bad = EngineConfig { step: f64::NAN, policy: ThreadPolicy::CurrentThread };
        let err = EnsembleEngine::from_variants(&compiled, &replicas(1), bad).unwrap_err();
        assert!(matches!(err, CoreError::InvalidStep { .. }), "{err}");
    }

    #[test]
    fn variant_errors_name_the_offender() {
        let compiled = compile(1.0, 1.0);
        let bad_streamer = [VariantSpec::new().set("ghost", "rate", 1.0)];
        let err = EnsembleEngine::from_variants(&compiled, &bad_streamer, EngineConfig::default())
            .unwrap_err();
        assert!(err.to_string().contains("ghost"), "{err}");
        let bad_param = [VariantSpec::new().set("plant", "unknown", 1.0)];
        let err = EnsembleEngine::from_variants(&compiled, &bad_param, EngineConfig::default())
            .unwrap_err();
        assert!(err.to_string().contains("unknown"), "{err}");
    }

    #[test]
    fn k1_ensemble_matches_hybrid_engine_bitwise() {
        let compiled = compile(1.5, 2.0);
        let mut ensemble =
            EnsembleEngine::from_variants(&compiled, &replicas(1), EngineConfig::default())
                .unwrap();
        let erec = Recorder::new();
        ensemble.set_recorder(erec.clone());
        ensemble.run_until(0.05).unwrap();

        let mut engine = HybridEngine::from_compiled(&compiled, EngineConfig::default()).unwrap();
        let hrec = Recorder::new();
        engine.set_recorder(hrec.clone());
        engine.run_until(0.05).unwrap();

        assert_eq!(ensemble.step_count(), engine.step_count());
        assert_eq!(ensemble.time().to_bits(), engine.time().to_bits());
        bit_eq(
            &erec.series(&EnsembleEngine::series_name("out", 0)),
            &hrec.series("out"),
            "K=1 ensemble vs HybridEngine",
        );
    }

    #[test]
    fn variants_replay_a_relay_topology_bitwise() {
        // A capsule relay DPort fanning one source out to two sinks
        // (Figure 3): elaboration lowers the relay to two flows. Every
        // instance of the ensemble must stay bit-identical to stepping the
        // dataflow layer's relay network (source -> relay(2) -> two
        // sinks) directly.
        let src = || {
            FnStreamer::new("src", 0, 1, |t: f64, _h, _u: &[f64], y: &mut [f64]| {
                y[0] = (2.0 * t).sin()
            })
        };
        let dbl =
            || FnStreamer::new("dbl", 1, 1, |_t, _h, u: &[f64], y: &mut [f64]| y[0] = 2.0 * u[0]);
        let sq =
            || FnStreamer::new("sq", 1, 1, |_t, _h, u: &[f64], y: &mut [f64]| y[0] = u[0] * u[0]);
        let build = || {
            let mut net = StreamerNetwork::new("fig2ish");
            let s = net.add_streamer(src(), &[], &[("y", FlowType::scalar())]).unwrap();
            let relay = net.add_relay("relay", FlowType::scalar(), 2).unwrap();
            let scalar = || [("u", FlowType::scalar())];
            let d = net.add_streamer(dbl(), &scalar(), &[("y", FlowType::scalar())]).unwrap();
            let q = net.add_streamer(sq(), &scalar(), &[("y", FlowType::scalar())]).unwrap();
            net.flow((s, "y"), (relay, "in")).unwrap();
            net.flow((relay, "out0"), (d, "u")).unwrap();
            net.flow((relay, "out1"), (q, "u")).unwrap();
            (net, d, q)
        };
        let mut b = ModelBuilder::new("fig3ish");
        let relay = b.capsule("relay");
        b.capsule_dport(relay, "d", FlowType::scalar());
        let (s, d, q) =
            (b.streamer("src", "none"), b.streamer("dbl", "none"), b.streamer("sq", "none"));
        b.streamer_out(s, "y", FlowType::scalar());
        for sink in [d, q] {
            b.streamer_in(sink, "u", FlowType::scalar());
            b.streamer_out(sink, "y", FlowType::scalar());
            b.flow(FlowEnd::Capsule(relay, "d".into()), FlowEnd::Streamer(sink, "u".into()));
        }
        b.flow(FlowEnd::Streamer(s, "y".into()), FlowEnd::Capsule(relay, "d".into()));
        b.probe(d, "y", "dbl");
        b.probe(q, "y", "sq");
        let registry = BehaviorRegistry::new()
            .streamer("src", move || Box::new(src()))
            .streamer("dbl", move || Box::new(dbl()))
            .streamer("sq", move || Box::new(sq()));
        let compiled = elaborate(&b.build(), registry, &validate_gate).expect("elaborates");
        let mut ensemble = EnsembleEngine::from_variants(
            &compiled,
            &replicas(3),
            EngineConfig { step: 0.01, policy: ThreadPolicy::CurrentThread },
        )
        .unwrap();
        let rec = Recorder::new();
        ensemble.set_recorder(rec.clone());
        ensemble.run_until(0.2).unwrap();

        // Reference: the network stepped directly.
        let (mut reference, rdbl, rsq) = build();
        reference.initialize(0.0).unwrap();
        let mut expect_dbl = Vec::new();
        let mut expect_sq = Vec::new();
        let mut clock = SimClock::new();
        for _ in 0..20 {
            reference.step(0.01).unwrap();
            clock.tick(0.01);
            let t = clock.seconds();
            expect_dbl.push((t, reference.output(rdbl, "y").unwrap()[0]));
            expect_sq.push((t, reference.output(rsq, "y").unwrap()[0]));
        }
        for i in 0..3 {
            bit_eq(
                &rec.series(&EnsembleEngine::series_name("dbl", i)),
                &expect_dbl,
                &format!("relay instance {i} (dbl)"),
            );
            bit_eq(
                &rec.series(&EnsembleEngine::series_name("sq", i)),
                &expect_sq,
                &format!("relay instance {i} (sq)"),
            );
        }
    }

    #[test]
    fn variants_apply_parameter_overrides_bitwise() {
        // Instance i of a 3-variant ensemble must match a standalone
        // HybridEngine whose behaviours were *constructed* with the same
        // parameters, bit for bit.
        let compiled = compile(1.0, 1.0);
        let variants = [
            VariantSpec::new(),
            VariantSpec::new().set("plant", "x0[0]", 2.5),
            VariantSpec::new().set("plant", "rate", 4.0).set("plant", "x0[0]", 0.5),
        ];
        let mut ensemble =
            EnsembleEngine::from_variants(&compiled, &variants, EngineConfig::default()).unwrap();
        let rec = Recorder::new();
        ensemble.set_recorder(rec.clone());
        ensemble.run_until(0.02).unwrap();

        for (i, (rate, x0)) in [(1.0, 1.0), (1.0, 2.5), (4.0, 0.5)].iter().enumerate() {
            let mut engine =
                HybridEngine::from_compiled(&compile(*rate, *x0), EngineConfig::default()).unwrap();
            let hrec = Recorder::new();
            engine.set_recorder(hrec.clone());
            engine.run_until(0.02).unwrap();
            bit_eq(
                &rec.series(&EnsembleEngine::series_name("out", i)),
                &hrec.series("out"),
                &format!("variant {i}"),
            );
        }
        // The overrides actually changed the trajectories.
        let s0 = rec.series("out#0");
        let s1 = rec.series("out#1");
        let s2 = rec.series("out#2");
        assert!(s0.last().unwrap().1 != s1.last().unwrap().1);
        assert!(s1.last().unwrap().1 != s2.last().unwrap().1);
    }

    #[test]
    fn per_lane_and_batched_kernels_are_bit_identical() {
        let variants = [
            VariantSpec::new(),
            VariantSpec::new().set("plant", "x0[0]", 2.5),
            VariantSpec::new().set("plant", "rate", 4.0).set("plant", "x0[0]", 0.5),
        ];
        let run = |kernel: EnsembleKernel| {
            let compiled = compile(1.0, 1.0);
            let mut ensemble =
                EnsembleEngine::from_variants(&compiled, &variants, EngineConfig::default())
                    .unwrap();
            ensemble.set_kernel(kernel);
            let rec = Recorder::new();
            ensemble.set_recorder(rec.clone());
            ensemble.run_until(0.05).unwrap();
            // The plant row (Rk4 OdeStreamer) is batch-eligible; the
            // FnStreamer doubler row is not.
            let eligible: usize =
                ensemble.groups.iter().map(|g| g.batch_rows.iter().flatten().count()).sum();
            assert_eq!(eligible, 1, "exactly the ODE row is batch-eligible");
            rec
        };
        let scalar = run(EnsembleKernel::PerLane);
        let batched = run(EnsembleKernel::Batched);
        for i in 0..variants.len() {
            let name = EnsembleEngine::series_name("out", i);
            bit_eq(&scalar.series(&name), &batched.series(&name), &format!("kernel axis lane {i}"));
        }
    }

    #[test]
    fn solvers_without_batched_kernels_stay_on_the_per_lane_path() {
        let mut b = ModelBuilder::new("m");
        let p = b.streamer("plant", "none");
        b.streamer_out(p, "y", FlowType::scalar());
        b.streamer_feedthrough(p, false);
        b.probe(p, "y", "out");
        let registry = BehaviorRegistry::new().streamer("plant", || {
            Box::new(OdeStreamer::new(
                "plant",
                Decay { rate: 1.0 },
                SolverKind::Heun.create(),
                &[1.0],
                1e-3,
            ))
        });
        let compiled = elaborate(&b.build(), registry, &validate_gate).expect("elaborates");
        let mut ensemble =
            EnsembleEngine::from_variants(&compiled, &replicas(3), EngineConfig::default())
                .unwrap();
        let rec = Recorder::new();
        ensemble.set_recorder(rec.clone());
        ensemble.run_until(0.02).unwrap();
        let eligible: usize =
            ensemble.groups.iter().map(|g| g.batch_rows.iter().flatten().count()).sum();
        assert_eq!(eligible, 0, "Heun has no batched kernel: no row may batch");
        assert!(rec.series("out#0").last().unwrap().1 < 1.0);
    }

    /// Cross-thread model: a non-feedthrough ramp on thread 0 feeding a
    /// non-feedthrough witness on thread 1 (lowered to a channel).
    fn cross_thread_model() -> (UnifiedModel, BehaviorRegistry) {
        #[derive(Clone)]
        struct Ramp {
            slope: f64,
        }
        impl StreamerBehavior for Ramp {
            fn name(&self) -> &str {
                "ramp"
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
            ) -> Result<(), urt_ode::SolveError> {
                y[0] = self.slope * t;
                Ok(())
            }
            fn clone_fresh(&self) -> Option<Box<dyn StreamerBehavior>> {
                Some(Box::new(self.clone()))
            }
            fn set_param(&mut self, name: &str, value: f64) -> bool {
                if name == "slope" {
                    self.slope = value;
                    true
                } else {
                    false
                }
            }
        }
        #[derive(Clone)]
        struct Witness;
        impl StreamerBehavior for Witness {
            fn name(&self) -> &str {
                "witness"
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
            ) -> Result<(), urt_ode::SolveError> {
                y[0] = u[0];
                Ok(())
            }
            fn clone_fresh(&self) -> Option<Box<dyn StreamerBehavior>> {
                Some(Box::new(self.clone()))
            }
        }
        let mut b = ModelBuilder::new("xg");
        let r = b.streamer("ramp", "none");
        let w = b.streamer("witness", "none");
        b.streamer_out(r, "y", FlowType::scalar());
        b.streamer_in(w, "u", FlowType::scalar());
        b.streamer_out(w, "y", FlowType::scalar());
        b.streamer_feedthrough(r, false);
        b.streamer_feedthrough(w, false);
        b.assign_thread(r, 0);
        b.assign_thread(w, 1);
        b.flow_between_streamers(r, "y", w, "u");
        b.probe(r, "y", "src");
        b.probe(w, "y", "wit");
        let registry = BehaviorRegistry::new()
            .streamer("ramp", || Box::new(Ramp { slope: 100.0 }))
            .streamer("witness", || Box::new(Witness));
        (b.build(), registry)
    }

    #[test]
    fn threaded_ensemble_matches_local_with_channels() {
        let run = |policy| {
            let (model, registry) = cross_thread_model();
            let compiled = elaborate(&model, registry, &validate_gate).expect("elaborates");
            assert_eq!(compiled.group_count(), 2);
            assert_eq!(compiled.cross_flow_count(), 1);
            let variants = [
                VariantSpec::new(),
                VariantSpec::new().set("ramp", "slope", -3.0),
                VariantSpec::new().set("ramp", "slope", 7.0),
                VariantSpec::new().set("ramp", "slope", 0.0),
            ];
            let mut ensemble = EnsembleEngine::from_variants(
                &compiled,
                &variants,
                EngineConfig { step: 0.01, policy },
            )
            .unwrap();
            let rec = Recorder::new();
            ensemble.set_recorder(rec.clone());
            ensemble.run_until(0.25).unwrap();
            rec
        };
        let local = run(ThreadPolicy::CurrentThread);
        let threaded = run(ThreadPolicy::DedicatedThreads);
        for i in 0..4 {
            for series in ["src", "wit"] {
                let name = EnsembleEngine::series_name(series, i);
                bit_eq(&local.series(&name), &threaded.series(&name), &name);
            }
        }
        // One-step channel delay, per instance: wit[k] == src[k-1].
        for i in 0..4 {
            let src = local.series(&EnsembleEngine::series_name("src", i));
            let wit = local.series(&EnsembleEngine::series_name("wit", i));
            assert_eq!(wit[0].1.to_bits(), 0.0f64.to_bits(), "instance {i}: initial sample");
            for k in 1..wit.len() {
                assert_eq!(
                    wit[k].1.to_bits(),
                    src[k - 1].1.to_bits(),
                    "instance {i}: one-step delay at {k}"
                );
            }
        }
    }

    #[test]
    fn ensemble_run_paced_matches_run_until() {
        use crate::pacer::PacedConfig;
        let compiled = compile(2.0, 1.0);
        let free = {
            let mut e =
                EnsembleEngine::from_variants(&compiled, &replicas(3), EngineConfig::default())
                    .unwrap();
            let rec = Recorder::new();
            e.set_recorder(rec.clone());
            e.run_until(0.05).unwrap();
            rec
        };
        // The threaded schedule paces at its batch barriers, as a single
        // instance does; a batch cap of 1 makes every step its own cycle.
        for policy in [ThreadPolicy::CurrentThread, ThreadPolicy::DedicatedThreads] {
            let mut e = EnsembleEngine::from_variants(
                &compiled,
                &replicas(3),
                EngineConfig { step: 1e-3, policy },
            )
            .unwrap();
            e.set_max_batch(1);
            assert_eq!(e.step_budget_ns(), None, "decay chain declares no budget");
            let rec = Recorder::new();
            e.set_recorder(rec.clone());
            let report =
                e.run_paced(0.05, PacedConfig::new().with_rate(1e9).with_budget_ns(1e12)).unwrap();
            assert_eq!(report.steps, 50, "{policy}");
            assert_eq!(report.samples, 50, "{policy}: per-step cycles, never batched");
            assert_eq!(report.misses, 0, "{policy}");
            assert!(!report.batched, "{policy}");
            for i in 0..3 {
                let name = EnsembleEngine::series_name("out", i);
                bit_eq(&free.series(&name), &rec.series(&name), &name);
            }
        }
    }
}
