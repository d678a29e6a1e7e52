//! The unified execution engine: event-driven capsules and
//! time-continuous streamers on separate threads, bridged by channels —
//! one engine for one instance or `K` lockstep instances of a model.
//!
//! "During implementation, capsules and streamers are assigned to
//! different threads. Communication between capsules and streamers is
//! realized by communication mechanism of threads." Here the capsule side
//! is a [`Controller`]; each streamer *group* is a [`StreamerNetwork`]
//! lowered once to its dense [`StepPlan`] and replayed every macro step
//! over `K` instance-major lane sets: `K = 1` for [`HybridEngine::new`]
//! and [`HybridEngine::from_compiled`], `K = variants.len()` for
//! [`HybridEngine::from_variants`]. Under
//! [`ThreadPolicy::DedicatedThreads`] each group runs on its own solver
//! thread, synchronised once per batch of macro steps. SPort links carry
//! signal messages across the boundary in both directions over
//! `std::sync::mpsc` channels.
//!
//! Layout: instance `i` of a group owns lanes `[i*W .. (i+1)*W)` of the
//! group's flat input/output arrays, where `W` is the per-instance dense
//! width from the plan. The plan walk, the channel parity bookkeeping and
//! the probe/clock overhead are paid once per step for all `K` instances
//! (see [`crate::ensemble`] for the `K`-specific parts: parameter
//! variants and the lane-batched ODE kernel).

use crate::elaborate::{CompiledSystem, SystemInstance};
use crate::ensemble::{BatchRow, EnsembleKernel, VariantSpec};
use crate::error::CoreError;
use crate::pacer::{PacedConfig, PacedReport, PacedRunner};
use crate::recorder::{Recorder, SeriesHandle};
use crate::sync::{Mutex, SpinBarrier};
use crate::threading::ThreadPolicy;
use crate::time::SimClock;
use std::fmt;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use urt_dataflow::graph::{NodeId, OutputHandle, PlanNodeKind, StepPlan, StreamerNetwork};
use urt_dataflow::streamer::StreamerBehavior;
use urt_umlrt::controller::Controller;
use urt_umlrt::message::Message;

/// A signal emitted by a streamer: `(node, sport, message)`.
type DrainedSignal = (NodeId, String, Message);

/// The two sample buffers of one cross-group flow channel, shared between
/// the producer and the consumer group.
type ChannelBufs = Arc<[Mutex<Vec<f64>>; 2]>;

/// Supplies one more instance of a node's behaviour, given the group's
/// network.
type Replicate<'a> =
    dyn Fn(&StreamerNetwork, NodeId) -> Result<Box<dyn StreamerBehavior>, CoreError> + 'a;

/// Upper bound on the auto-computed macro-step batch size `K` in
/// [`ThreadPolicy::DedicatedThreads`] runs: bounds the per-batch probe
/// sample buffers (64 KiB per recorded lane at this value) while still
/// amortising the per-batch rendezvous to nothing.
const DEFAULT_MAX_BATCH: u64 = 4096;

/// One end of a double-buffered channel carrying one cross-group flow
/// for all `K` instances.
///
/// Buffers are indexed by macro-step parity: during step `s` the consumer
/// reads slot `s % 2` *before* its group steps, and the producer writes
/// slot `(s + 1) % 2` *after* stepping. One barrier between consecutive
/// macro steps is what separates every write of a slot from every read of
/// the same slot, so there is no swap, no torn sample, and the consumer
/// deterministically sees the producer's previous step's output — the
/// documented one-macro-step channel delay (zero for lane values at
/// step 0, where the consumer reads the initial all-zero buffer). Each
/// slot holds `K * width` samples, instance-major.
#[derive(Clone)]
struct ChannelEnd {
    bufs: ChannelBufs,
    /// Per-instance lane offset: into the producer's dense output array
    /// on the outgoing end, into the consumer's exported-input staging on
    /// the incoming end.
    offset: usize,
    width: usize,
}

/// Engine configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// Macro step in seconds: the synchronisation period between the
    /// capsule thread and the solver threads. Must be positive and
    /// finite: the compiled-path constructors
    /// ([`HybridEngine::from_compiled`], [`HybridEngine::from_variants`],
    /// [`HybridEngine::from_network`]) refuse anything else with
    /// [`CoreError::InvalidStep`] (URT116), while the hand-wired
    /// [`HybridEngine::new`] keeps its documented panic (API misuse at
    /// the lowest layer).
    pub step: f64,
    /// Thread assignment policy.
    pub policy: ThreadPolicy,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig { step: 1e-3, policy: ThreadPolicy::CurrentThread }
    }
}

/// An SPort bridge between a capsule port and lane 0 of a streamer row.
/// The sport name lives in the engine's `link_index` (it is only ever
/// consulted for routing lookups).
#[derive(Debug)]
struct SportLink {
    group: usize,
    /// The linked node's streamer row in its group's plan.
    row: usize,
    capsule: usize,
    capsule_port: String,
    /// Drains messages the capsule sent out of its port.
    from_capsule: Receiver<Message>,
}

/// A signal-series probe on the first lane of a streamer output DPort,
/// resolved to a dense per-instance output offset at registration.
#[derive(Debug)]
struct Probe {
    group: usize,
    base: usize,
    width: usize,
    series: String,
}

/// One streamer group: its dense routing plan plus `K` instance-major
/// copies of the per-instance state arrays.
///
/// Aligned to its own cache lines: each solver thread writes its group's
/// clock and buffer headers every sub-step, and two groups sharing a line
/// would bounce it between cores.
#[repr(align(128))]
pub(crate) struct GroupState {
    plan: StepPlan,
    k: usize,
    /// `behaviours[r][i]` is instance `i` of the `r`-th *streamer* plan
    /// node (relays carry no behaviour), in plan order.
    behaviours: Vec<Vec<Box<dyn StreamerBehavior>>>,
    /// `batch_rows[r]` is the lane-batched stepping state of the `r`-th
    /// streamer row, `None` for rows that are not batch-eligible. Built at
    /// start when `K ≥ 2`, empty otherwise.
    pub(crate) batch_rows: Vec<Option<BatchRow>>,
    kernel: EnsembleKernel,
    /// Dense input lanes, `K * plan.in_width()`.
    ins: Vec<f64>,
    /// Dense output lanes, `K * plan.out_width()`.
    outs: Vec<f64>,
    /// Exported-input (channel-fed) staging, `K * plan.ext_in_width()`.
    ext: Vec<f64>,
    /// Accumulated group time — `t += h` per step, exactly like
    /// `StreamerNetwork::step`, so behaviours see bit-identical instants.
    time: f64,
    incoming: Vec<ChannelEnd>,
    outgoing: Vec<ChannelEnd>,
    /// Recorded probe lanes: dense output offset plus one series handle
    /// per instance. Empty while no recorder is attached.
    taps: Vec<(usize, Vec<SeriesHandle>)>,
    /// Samples taken since the last flush, one `(t, value)` per tap lane
    /// per step, in tap-lane order within each step.
    samples: Vec<(f64, f64)>,
    /// Signals lane 0 emitted, in plan order, awaiting routing.
    signals: Vec<DrainedSignal>,
}

impl GroupState {
    fn new(plan: StepPlan, k: usize, behaviours: Vec<Vec<Box<dyn StreamerBehavior>>>) -> Self {
        GroupState {
            ins: vec![0.0; k * plan.in_width()],
            outs: vec![0.0; k * plan.out_width()],
            ext: vec![0.0; k * plan.ext_in_width()],
            plan,
            k,
            behaviours,
            batch_rows: Vec::new(),
            kernel: EnsembleKernel::default(),
            time: 0.0,
            incoming: Vec::new(),
            outgoing: Vec::new(),
            taps: Vec::new(),
            samples: Vec::new(),
            signals: Vec::new(),
        }
    }

    /// The streamer row of `node` (`None` for relays).
    fn row_of(&self, node: NodeId) -> Option<usize> {
        self.plan
            .nodes()
            .iter()
            .filter(|pn| matches!(pn.kind, PlanNodeKind::Streamer))
            .position(|pn| pn.node == node)
    }

    /// Per-instance dense offset of an output port's first lane.
    fn out_base(&self, handle: &OutputHandle) -> usize {
        self.plan.out_offset(handle.node()).expect("plan covers every node") + handle.offset()
    }

    fn initialize(&mut self, t0: f64) -> Result<(), CoreError> {
        self.time = t0;
        for b in self.behaviours.iter_mut().flatten() {
            b.initialize(t0).map_err(|e| CoreError::Flow(e.into()))?;
        }
        if self.k >= 2 {
            self.batch_rows = self.behaviours.iter().map(|lanes| BatchRow::build(lanes)).collect();
        }
        Ok(())
    }

    /// One macro step of all `K` instances: latch the channels' front
    /// slot (`step % 2`), replay the plan, publish to the back slot.
    fn tick(&mut self, h: f64, step: u64) -> Result<(), CoreError> {
        let front = (step % 2) as usize;
        let extw = self.plan.ext_in_width();
        for ch in &self.incoming {
            let src = ch.bufs[front].lock();
            for i in 0..self.k {
                let dst = i * extw + ch.offset;
                self.ext[dst..dst + ch.width]
                    .copy_from_slice(&src[i * ch.width..(i + 1) * ch.width]);
            }
        }
        self.step(h)?;
        let outw = self.plan.out_width();
        for ch in &self.outgoing {
            let mut dst = ch.bufs[1 - front].lock();
            for i in 0..self.k {
                let src = i * outw + ch.offset;
                dst[i * ch.width..(i + 1) * ch.width]
                    .copy_from_slice(&self.outs[src..src + ch.width]);
            }
        }
        Ok(())
    }

    /// Replays the plan once, advancing all `K` instances by `h` with the
    /// step semantics of `StreamerNetwork::step`: boundary inputs latch
    /// first, then each node gathers its flows (declaration order) and
    /// runs, in dependency order.
    fn step(&mut self, h: f64) -> Result<(), CoreError> {
        let t = self.time;
        let (k, inw, outw) = (self.k, self.plan.in_width(), self.plan.out_width());
        let extw = self.plan.ext_in_width();
        for c in self.plan.ext_loads() {
            for i in 0..k {
                let (src, dst) = (i * extw + c.src, i * inw + c.dst);
                self.ins[dst..dst + c.len].copy_from_slice(&self.ext[src..src + c.len]);
            }
        }
        let mut row = 0usize;
        for pn in self.plan.nodes() {
            for c in &pn.gathers {
                for i in 0..k {
                    let (src, dst) = (i * outw + c.src, i * inw + c.dst);
                    self.ins[dst..dst + c.len].copy_from_slice(&self.outs[src..src + c.len]);
                }
            }
            match pn.kind {
                PlanNodeKind::Streamer => {
                    let lanes = &mut self.behaviours[row];
                    let batch = self.batch_rows.get_mut(row).and_then(Option::as_mut);
                    row += 1;
                    match batch {
                        Some(br) if self.kernel == EnsembleKernel::Batched => {
                            br.step(lanes, pn, &self.ins, &mut self.outs, t, h)?;
                        }
                        _ => {
                            for (i, b) in lanes.iter_mut().enumerate() {
                                let ui = i * inw + pn.in_offset;
                                let yi = i * outw + pn.out_offset;
                                b.advance(
                                    t,
                                    h,
                                    &self.ins[ui..ui + pn.in_width],
                                    &mut self.outs[yi..yi + pn.out_width],
                                )
                                .map_err(|e| CoreError::Flow(e.into()))?;
                                // Lane 0 is the instance SPort links serve;
                                // the other lanes are never linked.
                                let emitted = b.take_emitted();
                                if i == 0 {
                                    self.signals
                                        .extend(emitted.into_iter().map(|(s, m)| (pn.node, s, m)));
                                }
                            }
                        }
                    }
                }
                PlanNodeKind::Relay { in_width, fanout } => {
                    for i in 0..k {
                        let src = i * inw + pn.in_offset;
                        let base = i * outw + pn.out_offset;
                        for f in 0..fanout {
                            let dst = base + f * in_width;
                            self.outs[dst..dst + in_width]
                                .copy_from_slice(&self.ins[src..src + in_width]);
                        }
                    }
                }
            }
        }
        self.time += h;
        Ok(())
    }

    /// Buffers every probe tap's lanes, stamped `t`.
    fn sample(&mut self, t: f64) {
        let outw = self.plan.out_width();
        for (base, series) in &self.taps {
            for i in 0..series.len() {
                self.samples.push((t, self.outs[i * outw + base]));
            }
        }
    }

    /// Pushes the buffered samples into their series. A solver-thread
    /// worker flushes once per batch: pushing per step would have the
    /// workers write the recorder's series buffers concurrently, and
    /// neighbouring buffers can share a cache line.
    fn flush(&mut self) {
        let lanes: usize = self.taps.iter().map(|(_, s)| s.len()).sum();
        for (j, handle) in self.taps.iter().flat_map(|(_, s)| s).enumerate() {
            for &(t, v) in self.samples.iter().skip(j).step_by(lanes) {
                handle.push(t, v);
            }
        }
        self.samples.clear();
    }
}

/// The unified execution engine (see module docs).
///
/// Typical lifecycle: build from a compiled model with
/// [`HybridEngine::from_compiled`] (one instance) or
/// [`HybridEngine::from_variants`] (`K` parameter variants), or wire one
/// by hand with [`HybridEngine::new`] + [`HybridEngine::add_group`] /
/// [`HybridEngine::link_sport`] / [`HybridEngine::add_probe`]; then
/// [`HybridEngine::run_until`] repeatedly.
pub struct HybridEngine {
    controller: Controller,
    config: EngineConfig,
    clock: SimClock,
    /// Instances per group, `K`.
    k: usize,
    /// Structural shells of the groups (behaviours moved into `groups`),
    /// answering the wiring-time lookups of the `link_*`/`add_probe`
    /// calls. Empty for engines built by [`HybridEngine::from_network`].
    nets: Vec<StreamerNetwork>,
    pub(crate) groups: Vec<GroupState>,
    links: Vec<SportLink>,
    /// Dense routing table for streamer-emitted signals, maintained by
    /// [`HybridEngine::link_sport`]: `link_index[group][node]` holds the
    /// node's `(sport, link index)` pairs — direct array indexing to the
    /// node, then a scan over its (almost always 0–2) linked sports. A
    /// second link for the same `(group, node, sport)` is refused with
    /// [`CoreError::DuplicateSportLink`].
    link_index: Vec<Vec<Vec<(String, usize)>>>,
    probes: Vec<Probe>,
    /// Whether probe series are recorded per instance as
    /// `{series}#{i}` (engines built by the ensemble constructors).
    per_instance_series: bool,
    recorder: Option<Recorder>,
    /// Upper bound on the auto-computed threaded batch size; 1 disables
    /// batching ([`HybridEngine::set_max_batch`]).
    max_batch: u64,
    /// Declared per-macro-step deadline budget in nanoseconds, carried
    /// over from the compiled system — the default budget of
    /// [`HybridEngine::run_paced`].
    step_budget_ns: Option<f64>,
    started: bool,
}

impl fmt::Debug for HybridEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HybridEngine")
            .field("time", &self.clock.seconds())
            .field("instances", &self.k)
            .field("groups", &self.groups.len())
            .field("links", &self.links.len())
            .field("policy", &self.config.policy)
            .finish_non_exhaustive()
    }
}

fn engine_err(detail: String) -> CoreError {
    CoreError::Engine { detail }
}

fn check_step(config: &EngineConfig) -> Result<(), CoreError> {
    if config.step.is_finite() && config.step > 0.0 {
        Ok(())
    } else {
        Err(CoreError::InvalidStep { step: config.step })
    }
}

/// A fresh copy of `node`'s behaviour through
/// [`StreamerBehavior::clone_fresh`], the replication source of the
/// network-first paths.
fn clone_lane(net: &StreamerNetwork, node: NodeId) -> Result<Box<dyn StreamerBehavior>, CoreError> {
    net.try_clone_behavior(node)?.ok_or_else(|| {
        engine_err(format!(
            "streamer `{}` cannot be replicated for ensemble execution (clone_fresh returned \
             None — boxed handlers, guards and non-cloneable systems are not replicable)",
            net.node_name(node).unwrap_or("?")
        ))
    })
}

impl HybridEngine {
    /// Creates a one-instance engine around a capsule controller.
    ///
    /// # Panics
    ///
    /// Panics if `config.step` is not positive and finite.
    pub fn new(controller: Controller, config: EngineConfig) -> Self {
        assert!(check_step(&config).is_ok(), "macro step must be positive");
        Self::with_instances(controller, config, 1)
    }

    fn with_instances(controller: Controller, config: EngineConfig, k: usize) -> Self {
        HybridEngine {
            controller,
            config,
            clock: SimClock::new(),
            k,
            nets: Vec::new(),
            groups: Vec::new(),
            links: Vec::new(),
            link_index: Vec::new(),
            probes: Vec::new(),
            per_instance_series: false,
            recorder: None,
            max_batch: DEFAULT_MAX_BATCH,
            step_budget_ns: None,
            started: false,
        }
    }

    /// Adds a streamer group (one candidate solver thread). Returns the
    /// group index. The engine takes the network's behaviours as
    /// instance 0; on a `K`-instance engine, instances `1..K` are
    /// replicated through [`StreamerBehavior::clone_fresh`].
    ///
    /// To receive cross-group flows ([`HybridEngine::link_flow`]), export
    /// the consumer inputs (`StreamerNetwork::export_input`) *before*
    /// adding the group — validation treats exported inputs as driven.
    ///
    /// # Errors
    ///
    /// Propagates network validation errors, and [`CoreError::Engine`]
    /// for a behaviour that cannot be replicated.
    pub fn add_group(&mut self, network: StreamerNetwork) -> Result<usize, CoreError> {
        self.push_group(network, &clone_lane)
    }

    /// Plans `net` and adds it as a group: instance 0 takes the network's
    /// own behaviours, `replicate` supplies instances `1..K`, and the
    /// network stays behind as the group's structural shell.
    fn push_group(
        &mut self,
        mut net: StreamerNetwork,
        replicate: &Replicate<'_>,
    ) -> Result<usize, CoreError> {
        let plan = net.step_plan()?;
        let mut behaviours = Vec::new();
        for pn in plan.nodes().iter().filter(|pn| matches!(pn.kind, PlanNodeKind::Streamer)) {
            let mut lanes =
                (1..self.k).map(|_| replicate(&net, pn.node)).collect::<Result<Vec<_>, _>>()?;
            lanes.insert(0, net.take_behavior(pn.node)?.expect("streamer rows carry behaviours"));
            behaviours.push(lanes);
        }
        self.link_index.push(vec![Vec::new(); net.node_count()]);
        self.groups.push(GroupState::new(plan, self.k, behaviours));
        self.nets.push(net);
        Ok(self.groups.len() - 1)
    }

    /// The structural shell of group `g`, for wiring-time lookups.
    fn net(&self, g: usize) -> Result<&StreamerNetwork, CoreError> {
        self.nets.get(g).ok_or_else(|| engine_err(format!("no streamer group {g}")))
    }

    /// Builds an engine from a compiled [`CompiledSystem`] artifact —
    /// the model-first path (`ModelBuilder` → `compile` → instantiate →
    /// run). The artifact is **borrowed**: this call stamps out a fresh
    /// [`SystemInstance`] (behaviour
    /// factories re-invoked, networks re-wired), so one compile serves
    /// any number of engines, each bit-identical to an independent
    /// elaboration. SPort links, probes and cross-group channels arrive
    /// fully resolved; attach a recorder with
    /// [`HybridEngine::set_recorder`] to capture the model's declared
    /// probe series.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidStep`] (URT116) if `config.step` is not
    /// positive and finite; otherwise propagates instantiation and
    /// wiring errors (none are expected from a system produced by
    /// `elaborate`, which validates one instantiation at compile time).
    pub fn from_compiled(
        compiled: &CompiledSystem,
        config: EngineConfig,
    ) -> Result<Self, CoreError> {
        check_step(&config)?;
        let SystemInstance { groups, controller } = compiled.instantiate()?;
        let mut engine = Self::with_instances(controller, config, 1);
        engine.assemble(compiled, groups)?;
        for l in &compiled.links {
            engine.link_sport(l.group, l.node, &l.sport, l.capsule, &l.capsule_port)?;
        }
        Ok(engine)
    }

    /// Builds one lockstep instance per [`VariantSpec`] of a compiled
    /// system: `K = variants.len()` instances of every group, each spec's
    /// overrides applied to its instance's behaviours before
    /// initialisation. One instantiation supplies instance 0 and the
    /// structure; the artifact's behaviour factories supply instances
    /// `1..K`, so every behaviour kind replicates, with no
    /// [`StreamerBehavior::clone_fresh`] requirement.
    ///
    /// Probe series are recorded per instance, as
    /// [`HybridEngine::series_name`]`(series, i)`. Ensembles run the
    /// time-continuous half only: they hold an empty controller, and a
    /// system with SPort links is refused (capsule signal routing is
    /// per-instance discrete state, which would serialise the ensemble).
    /// Instance `i` is bit-identical to a standalone
    /// [`HybridEngine::from_compiled`] run with the same parameters.
    ///
    /// # Errors
    ///
    /// * [`CoreError::InvalidStep`] (`URT116`) if `config.step` is not
    ///   positive and finite.
    /// * [`CoreError::Engine`] for an empty variant list, a system with
    ///   SPort links, an override naming an unknown streamer, or a
    ///   parameter the behaviour does not recognise.
    /// * [`CoreError::Flow`] for structural errors surfaced while
    ///   planning.
    pub fn from_variants(
        compiled: &CompiledSystem,
        variants: &[VariantSpec],
        config: EngineConfig,
    ) -> Result<Self, CoreError> {
        check_step(&config)?;
        if variants.is_empty() {
            return Err(engine_err("an ensemble needs at least one instance".into()));
        }
        if compiled.sport_link_count() > 0 {
            return Err(engine_err(format!(
                "ensemble execution runs the continuous half only: the compiled system has {} \
                 SPort link(s); run it on a HybridEngine::from_compiled instead",
                compiled.sport_link_count()
            )));
        }
        let SystemInstance { groups, .. } = compiled.instantiate()?;
        let mut engine = Self::with_instances(Controller::new("ensemble"), config, variants.len());
        engine.per_instance_series = true;
        engine.assemble(compiled, groups)?;
        for (i, v) in variants.iter().enumerate() {
            for (streamer, param, value) in &v.overrides {
                let Some((g, node)) = compiled.streamer_node(streamer) else {
                    return Err(engine_err(format!(
                        "variant {i}: no streamer `{streamer}` in the compiled system"
                    )));
                };
                let gs = &mut engine.groups[g];
                let row = gs.row_of(node).expect("compiled streamers are plan rows");
                if !gs.behaviours[row][i].set_param(param, *value) {
                    return Err(engine_err(format!(
                        "variant {i}: streamer `{streamer}` does not recognise parameter \
                         `{param}`"
                    )));
                }
            }
        }
        Ok(engine)
    }

    /// The part of the compiled-path construction shared by every `K`:
    /// groups (instances `1..K` from the artifact's factories), probes,
    /// cross-group channels and the declared budget.
    fn assemble(
        &mut self,
        compiled: &CompiledSystem,
        groups: Vec<StreamerNetwork>,
    ) -> Result<(), CoreError> {
        self.step_budget_ns = compiled.step_budget_ns;
        for (gi, net) in groups.into_iter().enumerate() {
            self.push_group(net, &|net, node| {
                compiled.behavior_for(gi, node).ok_or_else(|| {
                    engine_err(format!(
                        "streamer `{}` has no behaviour factory in the compiled system",
                        net.node_name(node).unwrap_or("?")
                    ))
                })
            })?;
        }
        for p in &compiled.probes {
            self.add_probe(p.group, p.node, &p.port, &p.series)?;
        }
        for cf in &compiled.cross_flows {
            self.link_flow(
                (cf.from_group, cf.from_node, &cf.from_port),
                (cf.to_group, cf.to_node, &cf.to_port),
            )?;
        }
        Ok(())
    }

    /// Builds a `k`-instance single-group engine over a raw
    /// [`StreamerNetwork`] (the network-first path, no elaboration).
    /// Every instance is replicated through
    /// [`StreamerBehavior::clone_fresh`] from the borrowed network.
    /// `probes` lists `(node, output port, series)` outputs to record
    /// per instance — raw networks carry no declared probes, and the
    /// engine built here takes no further wiring.
    ///
    /// # Errors
    ///
    /// * [`CoreError::InvalidStep`] (`URT116`) if `config.step` is not
    ///   positive and finite.
    /// * [`CoreError::Engine`] for `k == 0` or a behaviour that cannot
    ///   be replicated.
    /// * [`CoreError::Flow`] for structural errors surfaced while
    ///   planning and for unknown probe nodes/ports.
    pub fn from_network(
        net: &StreamerNetwork,
        k: usize,
        probes: &[(NodeId, &str, &str)],
        config: EngineConfig,
    ) -> Result<Self, CoreError> {
        check_step(&config)?;
        if k == 0 {
            return Err(engine_err("an ensemble needs at least one instance".into()));
        }
        let plan = net.step_plan()?;
        let mut behaviours = Vec::new();
        for pn in plan.nodes().iter().filter(|pn| matches!(pn.kind, PlanNodeKind::Streamer)) {
            behaviours.push((0..k).map(|_| clone_lane(net, pn.node)).collect::<Result<_, _>>()?);
        }
        let group = GroupState::new(plan, k, behaviours);
        let mut engine = Self::with_instances(Controller::new("ensemble"), config, k);
        engine.per_instance_series = true;
        for &(node, port, series) in probes {
            let handle = net.output_handle(node, port)?;
            let (base, width) = (group.out_base(&handle), handle.width());
            engine.probes.push(Probe { group: 0, base, width, series: series.to_owned() });
        }
        engine.groups.push(group);
        Ok(engine)
    }

    /// The recorder series name of probe series `series` for instance
    /// `instance` of an engine built by [`HybridEngine::from_variants`]
    /// or [`HybridEngine::from_network`]: `{series}#{instance}`.
    pub fn series_name(series: &str, instance: usize) -> String {
        format!("{series}#{instance}")
    }

    /// Number of lockstep instances `K`.
    pub fn instances(&self) -> usize {
        self.k
    }

    /// Connects a producer output DPort in one group to a consumer input
    /// DPort in *another* group through a double-buffered channel.
    ///
    /// Unlike an in-network flow (zero-delay, schedule-ordered), a
    /// cross-group channel carries a deterministic **one-macro-step
    /// delay**: during step `k` the consumer reads the sample the
    /// producer wrote at the end of step `k - 1` (all-zero lanes at step
    /// 0). The delay is what lets the two groups integrate concurrently —
    /// it is identical under both thread policies and independent of the
    /// threaded batch size.
    ///
    /// The consumer input must have been exported
    /// (`StreamerNetwork::export_input`) before its group was added; the
    /// elaboration pipeline does this automatically for model flows whose
    /// endpoints carry distinct `assign_thread` declarations.
    ///
    /// # Errors
    ///
    /// * [`CoreError::Engine`] for bad group indices, endpoints in the
    ///   same group, a direct-feedthrough consumer (the unit delay would
    ///   break its same-step input dependency — lint URT207 catches this
    ///   at model level), an unexported consumer input, or a consumer
    ///   input already fed by another channel.
    /// * [`CoreError::Flow`] for unknown nodes/ports and flow-type subset
    ///   violations (the paper's connection rule, same as in-network
    ///   flows).
    pub fn link_flow(
        &mut self,
        from: (usize, NodeId, &str),
        to: (usize, NodeId, &str),
    ) -> Result<(), CoreError> {
        let (fg, fnode, fport) = from;
        let (tg, tnode, tport) = to;
        let (src, dst) = (self.net(fg)?, self.net(tg)?);
        if fg == tg {
            return Err(engine_err(format!(
                "flow endpoints are both in group {fg}; use an in-network flow (zero-delay) \
                 instead of a channel"
            )));
        }
        let consumer = dst.node_name(tnode).unwrap_or("?").to_owned();
        if dst.node_feedthrough(tnode)? {
            return Err(engine_err(format!(
                "cross-group flow into `{consumer}`.`{tport}`: the consumer declares direct \
                 feedthrough, which a one-step-delay channel cannot honour (keep both \
                 streamers on one thread or make the consumer non-feedthrough)"
            )));
        }
        let from_handle = src.output_handle(fnode, fport)?;
        // The paper's connection rule, channel edition: the producer's
        // flow type must be a subset of the consumer's.
        let unknown = |net: &StreamerNetwork, node, port: &str| {
            CoreError::Flow(urt_dataflow::FlowError::UnknownPort {
                node: net.node_name(node).unwrap_or("?").to_owned(),
                port: port.to_owned(),
            })
        };
        let src_ty = src
            .out_ports(fnode)?
            .iter()
            .find(|p| p.name() == fport)
            .map(|p| p.flow_type().clone())
            .ok_or_else(|| unknown(src, fnode, fport))?;
        let dst_spec = dst
            .in_ports(tnode)?
            .iter()
            .find(|p| p.name() == tport)
            .cloned()
            .ok_or_else(|| unknown(dst, tnode, tport))?;
        if let Some(detail) = src_ty.subset_failure(dst_spec.flow_type()) {
            return Err(CoreError::Flow(urt_dataflow::FlowError::TypeMismatch {
                from: format!("{}.{fport}", src.node_name(fnode).unwrap_or("?")),
                to: format!("{consumer}.{tport}"),
                detail,
            }));
        }
        // The consumer's lane offset inside its group's exported-input
        // vector (exports accumulate in registration order).
        let mut cursor = 0usize;
        let mut to_offset = None;
        for (n, p) in dst.exported_inputs() {
            if n == tnode && p == tport {
                to_offset = Some(cursor);
                break;
            }
            cursor += dst.in_ports(n)?.iter().find(|s| s.name() == p).map_or(0, |s| s.width());
        }
        let Some(to_offset) = to_offset else {
            return Err(engine_err(format!(
                "cross-group flow into `{consumer}`.`{tport}`: the consumer input is not \
                 exported — call export_input before add_group"
            )));
        };
        if self.groups[tg].incoming.iter().any(|c| c.offset == to_offset) {
            return Err(engine_err(format!(
                "cross-group flow into `{consumer}`.`{tport}`: the consumer input is already fed \
                 by another channel"
            )));
        }
        let width = from_handle.width();
        let bufs: ChannelBufs = Arc::new([
            Mutex::new(vec![0.0; self.k * width]),
            Mutex::new(vec![0.0; self.k * width]),
        ]);
        let from_base = self.groups[fg].out_base(&from_handle);
        self.groups[fg].outgoing.push(ChannelEnd {
            bufs: Arc::clone(&bufs),
            offset: from_base,
            width,
        });
        self.groups[tg].incoming.push(ChannelEnd { bufs, offset: to_offset, width });
        Ok(())
    }

    /// Caps the batch size `K` the threaded scheduler may choose (1
    /// forces every macro step through the full `Step`/`Done`
    /// rendezvous). Values below 1 are clamped to 1. Batching never
    /// changes results — only how often the coordinator and the solver
    /// threads synchronise over mpsc.
    pub fn set_max_batch(&mut self, max_batch: u64) {
        self.max_batch = max_batch.max(1);
    }

    /// Selects the ODE stepping kernel for solver-backed rows (see
    /// [`EnsembleKernel`]). Only engines with `K ≥ 2` instances have
    /// lane-batched rows; results are bit-identical either way, so this
    /// is a pure performance knob (and the `bench_engine` kernel axis).
    pub fn set_kernel(&mut self, kernel: EnsembleKernel) {
        for gs in &mut self.groups {
            gs.kernel = kernel;
        }
    }

    /// Bridges a capsule SPort to a streamer SPort: messages the capsule
    /// sends on `capsule_port` are delivered to the streamer's signal
    /// handler, and signals the streamer emits on `sport` are injected
    /// into the capsule on the same port. Links serve instance 0.
    ///
    /// # Errors
    ///
    /// * [`CoreError::Engine`] for a bad group index or a relay node
    ///   (relays have no signal handler).
    /// * [`CoreError::DuplicateSportLink`] if `(group, node, sport)` is
    ///   already linked — a second link would silently shadow the first.
    /// * Runtime errors from the controller for bad capsule indices.
    pub fn link_sport(
        &mut self,
        group: usize,
        node: NodeId,
        sport: &str,
        capsule: usize,
        capsule_port: &str,
    ) -> Result<(), CoreError> {
        let net = self.net(group)?;
        let name = net.node_name(node)?.to_owned();
        // When the node declares its SPorts, the link must name one.
        let declared = net.sports(node)?;
        if !declared.is_empty() && !declared.iter().any(|s| s.name() == sport) {
            return Err(engine_err(format!("node `{name}` declares no SPort `{sport}`")));
        }
        let Some(row) = self.groups[group].row_of(node) else {
            return Err(engine_err(format!("node `{name}` is a relay and has no SPorts")));
        };
        if self.link_index[group][node.index()].iter().any(|(s, _)| s == sport) {
            return Err(CoreError::DuplicateSportLink {
                group,
                node: name,
                sport: sport.to_owned(),
            });
        }
        let (tx, rx): (Sender<Message>, Receiver<Message>) = channel();
        self.controller.connect_external(capsule, capsule_port, tx)?;
        let li = self.links.len();
        self.links.push(SportLink {
            group,
            row,
            capsule,
            capsule_port: capsule_port.to_owned(),
            from_capsule: rx,
        });
        self.link_index[group][node.index()].push((sport.to_owned(), li));
        Ok(())
    }

    /// Records the first lane of `(group, node, port)` into the recorder
    /// series `series` (per instance on `K`-instance engines, see
    /// [`HybridEngine::series_name`]) after every macro step. The port is
    /// resolved to a dense offset here, once — recording never looks
    /// names up again.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Engine`] for a bad group index and
    /// [`CoreError::Flow`] for an unknown node or output port.
    pub fn add_probe(
        &mut self,
        group: usize,
        node: NodeId,
        port: &str,
        series: &str,
    ) -> Result<(), CoreError> {
        let handle = self.net(group)?.output_handle(node, port)?;
        let base = self.groups[group].out_base(&handle);
        self.probes.push(Probe { group, base, width: handle.width(), series: series.to_owned() });
        self.bind_probes();
        Ok(())
    }

    /// Attaches a recorder for probes, interning every registered probe's
    /// series so the per-step record path is lookup-free.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = Some(recorder);
        self.bind_probes();
    }

    /// Rebuilds every group's probe taps from the probe registry and the
    /// attached recorder.
    fn bind_probes(&mut self) {
        for gs in &mut self.groups {
            gs.taps.clear();
        }
        let Some(rec) = &self.recorder else { return };
        for p in self.probes.iter().filter(|p| p.width > 0) {
            let handles = (0..self.k)
                .map(|i| {
                    if self.per_instance_series {
                        rec.handle(&Self::series_name(&p.series, i))
                    } else {
                        rec.handle(&p.series)
                    }
                })
                .collect();
            self.groups[p.group].taps.push((p.base, handles));
        }
    }

    /// Current simulation time in seconds.
    pub fn time(&self) -> f64 {
        self.clock.seconds()
    }

    /// Number of macro steps taken.
    pub fn step_count(&self) -> u64 {
        self.clock.step_count()
    }

    /// The capsule controller (for injecting environment events and
    /// asserting on capsule state).
    pub fn controller(&self) -> &Controller {
        &self.controller
    }

    /// Mutable access to the capsule controller.
    pub fn controller_mut(&mut self) -> &mut Controller {
        &mut self.controller
    }

    fn start_if_needed(&mut self) -> Result<(), CoreError> {
        if self.started {
            return Ok(());
        }
        let t0 = self.clock.seconds();
        for gs in &mut self.groups {
            gs.initialize(t0)?;
        }
        if !self.controller.is_started() {
            self.controller.start()?;
        }
        self.started = true;
        Ok(())
    }

    /// Runs until simulation time `t_end`, in macro steps of
    /// `config.step`.
    ///
    /// # Errors
    ///
    /// Propagates solver, runtime and thread failures. After a failure,
    /// [`HybridEngine::time`] and [`HybridEngine::step_count`] stand at
    /// the last macro step every group completed, under both policies.
    pub fn run_until(&mut self, t_end: f64) -> Result<(), CoreError> {
        self.start_if_needed()?;
        self.run(t_end, None)
    }

    /// The per-macro-step deadline budget the engine carries (from the
    /// compiled system's declared budget), nanoseconds per macro step —
    /// the default budget of [`HybridEngine::run_paced`]. The budget
    /// covers one macro step of all `K` instances.
    pub fn step_budget_ns(&self) -> Option<f64> {
        self.step_budget_ns
    }

    /// Hard real-time mode: runs until simulation time `t_end` with each
    /// macro step *paced* against the wall clock and *measured* against a
    /// deadline budget — the deployment discipline of the paper (a
    /// controller is only correct if every cycle both releases on time
    /// and finishes inside its budget). One cycle covers all `K`
    /// instances.
    ///
    /// Pacing couples simulation time to the wall clock at
    /// `config.rate` simulated seconds per wall second; the budget
    /// resolves [`PacedConfig::with_budget_ns`] > the compiled system's
    /// declared budget ([`HybridEngine::step_budget_ns`]) > the pacing
    /// period. Overruns follow the configured
    /// [`OverrunPolicy`](crate::pacer::OverrunPolicy). The loop itself is
    /// allocation-free in steady state: pacing, budget accounting and the
    /// latency histogram behind the returned [`PacedReport`] all run on
    /// inline fixed-size storage, on top of the engine's recycled-buffer
    /// step path.
    ///
    /// Under [`ThreadPolicy::DedicatedThreads`] pacing happens at the
    /// batch barrier — the only rendezvous the threaded schedule has —
    /// and a batch of `K` macro steps is measured as one cycle with the
    /// batch budget attributed as `K ×` the step budget (the recorded
    /// per-step sample is the batch time divided by `K`). Cap the batch
    /// with [`HybridEngine::set_max_batch`] to bound release jitter:
    /// `set_max_batch(1)` paces every macro step individually.
    ///
    /// Results are bit-identical to [`HybridEngine::run_until`] over the
    /// same span — pacing only inserts waits between steps, it never
    /// changes what a step computes.
    ///
    /// # Errors
    ///
    /// [`CoreError::DeadlineOverrun`] when an
    /// [`OverrunPolicy::SafetyStop`](crate::pacer::OverrunPolicy::SafetyStop)
    /// run exhausts its consecutive-miss tolerance, plus the usual
    /// solver, runtime and thread failures.
    pub fn run_paced(&mut self, t_end: f64, config: PacedConfig) -> Result<PacedReport, CoreError> {
        self.start_if_needed()?;
        let mut runner = PacedRunner::new(config, self.step_budget_ns, self.config.step);
        self.run(t_end, Some(&mut runner))?;
        Ok(runner.finish())
    }

    /// Runs the whole macro steps up to `t_end` under the configured
    /// policy, bracketing each cycle with `paced` when set.
    fn run(&mut self, t_end: f64, mut paced: Option<&mut PacedRunner>) -> Result<(), CoreError> {
        let n_steps = crate::time::steps_until(self.clock.seconds(), t_end, self.config.step);
        if matches!(self.config.policy, ThreadPolicy::DedicatedThreads) && !self.groups.is_empty() {
            // With no groups there are no solver threads to coordinate,
            // so the local loop *is* the threaded schedule.
            return self.run_threaded(n_steps, paced);
        }
        for _ in 0..n_steps {
            if let Some(runner) = paced.as_deref_mut() {
                runner.begin();
            }
            self.step_once()?;
            if let Some(runner) = paced.as_deref_mut() {
                runner.end(1, self.clock.seconds())?;
            }
        }
        Ok(())
    }

    /// One macro step on the calling thread (exposed for fine-grained
    /// drivers and benchmarks).
    ///
    /// # Errors
    ///
    /// Propagates solver and runtime failures.
    pub fn step_once(&mut self) -> Result<(), CoreError> {
        self.start_if_needed()?;
        let h = self.config.step;
        for link in &self.links {
            while let Ok(msg) = link.from_capsule.try_recv() {
                self.groups[link.group].behaviours[link.row][0].on_signal(&msg);
            }
        }
        let step = self.clock.step_count();
        for gs in &mut self.groups {
            gs.tick(h, step)?;
        }
        self.clock.tick(h);
        // Post-tick derived instant: the same drift-free product both
        // thread policies stamp on probes and hand to the controller.
        let t_next = self.clock.seconds();
        for gi in 0..self.groups.len() {
            let mut signals = std::mem::take(&mut self.groups[gi].signals);
            let routed = self.route_signals(gi, &mut signals);
            self.groups[gi].signals = signals;
            routed?;
        }
        for gs in &mut self.groups {
            gs.sample(t_next);
            gs.flush();
        }
        self.controller.run_until(t_next)?;
        Ok(())
    }

    /// Injects a group's drained streamer signals into the capsules their
    /// SPorts are linked to; unlinked signals are dropped. Leaves
    /// `signals` empty.
    fn route_signals(
        &mut self,
        group: usize,
        signals: &mut Vec<DrainedSignal>,
    ) -> Result<(), CoreError> {
        for (node, sport, msg) in signals.drain(..) {
            let link = self.link_index.get(group).and_then(|by_node| by_node.get(node.index()));
            if let Some(&(_, li)) = link.and_then(|s| s.iter().find(|(s, _)| *s == sport)) {
                let link = &self.links[li];
                self.controller.inject(link.capsule, &link.capsule_port, msg)?;
            }
        }
        Ok(())
    }

    /// Threaded execution: one worker per group, synchronised via
    /// channels once per *batch* of macro steps (the paper's deployment,
    /// with the rendezvous amortised).
    ///
    /// The coordinator picks the largest batch `K` such that nothing due
    /// within the next `K` macro steps needs the coordinator: with SPort
    /// links present a signal exchange may be due every step, so `K = 1`;
    /// without links `K` is only capped by the remaining step count and
    /// [`HybridEngine::set_max_batch`]. Inside a batch, workers run the
    /// same per-group tick as the local path; groups touching a
    /// cross-group flow channel synchronise between sub-steps over a
    /// [`SpinBarrier`] (one wait per sub-step), everyone else runs free.
    /// Each worker records its probes from a private clock copy, so the
    /// series carry exactly the local path's instants.
    ///
    /// Each `Done` reports the index of the sub-step that failed, if
    /// any: the coordinator's clock and the event world then catch up
    /// over only the sub-steps every group completed, so a failed run
    /// stops at the same instant as on the calling thread.
    ///
    /// When `paced` is set ([`HybridEngine::run_paced`]), each batch is
    /// bracketed by the runner at the batch barrier: the cycle starts
    /// before capsule signals are flushed and ends once the batch's
    /// results are merged.
    fn run_threaded(
        &mut self,
        n_steps: u64,
        mut paced: Option<&mut PacedRunner>,
    ) -> Result<(), CoreError> {
        enum Cmd {
            /// A batch of `k` macro steps from `clock`, carrying a
            /// recycled signal buffer.
            Step {
                k: u64,
                clock: SimClock,
                signals: Vec<DrainedSignal>,
            },
            Signal {
                row: usize,
                msg: Message,
            },
        }
        struct Done {
            signals: Vec<DrainedSignal>,
            /// The failing sub-step of the batch and its error.
            failed: Option<(u64, CoreError)>,
        }

        let h = self.config.step;
        let joins: Vec<bool> =
            self.groups.iter().map(|g| !g.incoming.is_empty() || !g.outgoing.is_empty()).collect();
        let n_joining = joins.iter().filter(|&&j| j).count();
        let barrier = (n_joining >= 2).then(|| SpinBarrier::new(n_joining));
        let mut groups = std::mem::take(&mut self.groups);

        let result = std::thread::scope(|scope| -> Result<(), CoreError> {
            let mut cmd_txs = Vec::with_capacity(groups.len());
            let mut done_rxs = Vec::with_capacity(groups.len());
            for (gs, &joins) in groups.iter_mut().zip(&joins) {
                let (cmd_tx, cmd_rx) = channel::<Cmd>();
                let (done_tx, done_rx) = channel::<Done>();
                cmd_txs.push(cmd_tx);
                done_rxs.push(done_rx);
                let barrier = barrier.as_ref().filter(|_| joins);
                scope.spawn(move || {
                    while let Ok(cmd) = cmd_rx.recv() {
                        let (k, mut clock, mut signals) = match cmd {
                            Cmd::Signal { row, msg } => {
                                gs.behaviours[row][0].on_signal(&msg);
                                continue;
                            }
                            Cmd::Step { k, clock, signals } => (k, clock, signals),
                        };
                        let mut failed = None;
                        for i in 0..k {
                            // Between consecutive sub-steps the
                            // channel-touching groups rendezvous: the wait
                            // separates last sub-step's slot writes from
                            // this sub-step's same-slot reads. A worker
                            // that already failed stops stepping but keeps
                            // waiting, so its peers never deadlock.
                            if i > 0 {
                                if let Some(b) = barrier {
                                    b.wait();
                                }
                            }
                            if failed.is_some() {
                                continue;
                            }
                            if let Err(e) = gs.tick(h, clock.step_count()) {
                                failed = Some((i, e));
                                continue;
                            }
                            clock.tick(h);
                            signals.append(&mut gs.signals);
                            gs.sample(clock.seconds());
                        }
                        gs.flush();
                        if done_tx.send(Done { signals, failed }).is_err() {
                            break;
                        }
                    }
                });
            }

            let mut recycled: Vec<Vec<DrainedSignal>> = vec![Vec::new(); cmd_txs.len()];
            let mut remaining = n_steps;
            while remaining > 0 {
                let k = if self.links.is_empty() { remaining.min(self.max_batch) } else { 1 };
                if let Some(runner) = paced.as_deref_mut() {
                    runner.begin();
                }
                // 1. Capsule -> streamer signals.
                for link in &self.links {
                    while let Ok(msg) = link.from_capsule.try_recv() {
                        cmd_txs[link.group]
                            .send(Cmd::Signal { row: link.row, msg })
                            .map_err(|_| CoreError::ThreadLost { group: link.group })?;
                    }
                }
                // 2. Parallel batch of macro steps.
                for (gi, tx) in cmd_txs.iter().enumerate() {
                    let signals = std::mem::take(&mut recycled[gi]);
                    tx.send(Cmd::Step { k, clock: self.clock.clone(), signals })
                        .map_err(|_| CoreError::ThreadLost { group: gi })?;
                }
                // 3. Batch barrier: the earliest failing sub-step bounds
                // the steps every group completed (ties go to the lowest
                // group, the one the local path would have reported).
                let mut completed = k;
                let mut failure = None;
                for (gi, rx) in done_rxs.iter().enumerate() {
                    let done = rx.recv().map_err(|_| CoreError::ThreadLost { group: gi })?;
                    if let Some((i, e)) = done.failed {
                        if i < completed {
                            completed = i;
                            failure = Some(e);
                        }
                    }
                    recycled[gi] = done.signals;
                }
                // 4. Streamer -> capsule signals (links force k = 1), then
                // the event-driven world catches up step by step, exactly
                // as the local path orders it.
                for _ in 0..completed {
                    self.clock.tick(h);
                    for (gi, signals) in recycled.iter_mut().enumerate() {
                        self.route_signals(gi, signals)?;
                    }
                    self.controller.run_until(self.clock.seconds())?;
                }
                if let Some(e) = failure {
                    return Err(e);
                }
                if let Some(runner) = paced.as_deref_mut() {
                    // Batch barrier pacing: K steps measured as one cycle,
                    // budget attributed as K x the step budget. An early
                    // return drops cmd_txs, so the workers exit.
                    runner.end(k, self.clock.seconds())?;
                }
                remaining -= k;
            }
            Ok(())
        });
        self.groups = groups;
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::threading::ThreadPolicy;
    use urt_dataflow::flowtype::FlowType;
    use urt_dataflow::streamer::FnStreamer;
    use urt_umlrt::capsule::{CapsuleContext, SmCapsule};
    use urt_umlrt::statemachine::StateMachineBuilder;
    use urt_umlrt::value::Value;

    fn empty_controller() -> Controller {
        let mut c = Controller::new("events");
        let sm = StateMachineBuilder::new("idle")
            .state("s")
            .initial("s", |_d: &mut (), _ctx: &mut CapsuleContext| {})
            .build()
            .unwrap();
        c.add_capsule(Box::new(SmCapsule::new(sm, ())));
        c
    }

    fn sine_net(name: &str) -> (StreamerNetwork, NodeId) {
        let mut net = StreamerNetwork::new(name);
        let n = net
            .add_streamer(
                FnStreamer::new("sine", 0, 1, |t: f64, _h, _u: &[f64], y: &mut [f64]| {
                    y[0] = t.sin()
                }),
                &[],
                &[("y", FlowType::scalar())],
            )
            .unwrap();
        (net, n)
    }

    #[test]
    fn local_engine_advances_time() {
        let (net, _) = sine_net("p");
        let mut e = HybridEngine::new(
            empty_controller(),
            EngineConfig { step: 0.01, policy: ThreadPolicy::CurrentThread },
        );
        e.add_group(net).unwrap();
        e.run_until(0.1).unwrap();
        assert!((e.time() - 0.1).abs() < 1e-9);
        assert_eq!(e.step_count(), 10);
    }

    #[test]
    fn probes_record_series() {
        let (net, n) = sine_net("p");
        let mut e = HybridEngine::new(
            empty_controller(),
            EngineConfig { step: 0.01, policy: ThreadPolicy::CurrentThread },
        );
        let g = e.add_group(net).unwrap();
        let rec = Recorder::new();
        e.set_recorder(rec.clone());
        e.add_probe(g, n, "y", "sine").unwrap();
        e.run_until(1.0).unwrap();
        let series = rec.series("sine");
        assert_eq!(series.len(), 100);
        // The sine source emits sin(t_start_of_step).
        let (t_last, v_last) = *series.last().unwrap();
        assert!((v_last - (t_last - 0.01).sin()).abs() < 1e-9);
    }

    #[test]
    fn threaded_engine_matches_local() {
        let run = |policy| {
            let (net, n) = sine_net("p");
            let mut e = HybridEngine::new(empty_controller(), EngineConfig { step: 0.01, policy });
            let g = e.add_group(net).unwrap();
            let rec = Recorder::new();
            e.set_recorder(rec.clone());
            e.add_probe(g, n, "y", "s").unwrap();
            e.run_until(0.5).unwrap();
            rec.series("s")
        };
        let local = run(ThreadPolicy::CurrentThread);
        let threaded = run(ThreadPolicy::DedicatedThreads);
        assert_eq!(local.len(), threaded.len());
        for ((t1, v1), (t2, v2)) in local.iter().zip(&threaded) {
            assert!((t1 - t2).abs() < 1e-12);
            assert!((v1 - v2).abs() < 1e-12, "lockstep equivalence");
        }
    }

    #[test]
    fn sport_round_trip_capsule_to_streamer_and_back() {
        use urt_dataflow::streamer::StreamerBehavior;
        use urt_ode::SolveError;

        // A streamer that echoes every received signal value +1 as an
        // emitted `echo` signal.
        struct Echo {
            pending: Vec<f64>,
            emitted: Vec<(String, Message)>,
        }
        impl StreamerBehavior for Echo {
            fn name(&self) -> &str {
                "echo"
            }
            fn input_width(&self) -> usize {
                0
            }
            fn output_width(&self) -> usize {
                0
            }
            fn advance(
                &mut self,
                t: f64,
                _h: f64,
                _u: &[f64],
                _y: &mut [f64],
            ) -> Result<(), SolveError> {
                for v in self.pending.drain(..) {
                    self.emitted.push((
                        "ctl".to_owned(),
                        Message::new("echo", Value::Real(v + 1.0)).with_sent_at(t),
                    ));
                }
                Ok(())
            }
            fn on_signal(&mut self, msg: &Message) {
                if let Some(v) = msg.value().as_real() {
                    self.pending.push(v);
                }
            }
            fn take_emitted(&mut self) -> Vec<(String, Message)> {
                std::mem::take(&mut self.emitted)
            }
        }

        for policy in [ThreadPolicy::CurrentThread, ThreadPolicy::DedicatedThreads] {
            let mut net = StreamerNetwork::new("p");
            let node = net
                .add_streamer(Echo { pending: Vec::new(), emitted: Vec::new() }, &[], &[])
                .unwrap();

            // Capsule: on start send `ping(41)`, count echo replies.
            let sm = StateMachineBuilder::new("driver")
                .state("s")
                .initial("s", |_d: &mut Vec<f64>, ctx: &mut CapsuleContext| {
                    ctx.send("plant", "ping", Value::Real(41.0));
                })
                .internal("s", ("plant", "echo"), |d, m, _| {
                    d.push(m.value().as_real().unwrap_or(f64::NAN));
                })
                .build()
                .unwrap();
            let mut controller = Controller::new("events");
            let cap = controller.add_capsule(Box::new(SmCapsule::new(sm, Vec::new())));

            let mut e = HybridEngine::new(controller, EngineConfig { step: 0.01, policy });
            let g = e.add_group(net).unwrap();
            e.link_sport(g, node, "ctl", cap, "plant").unwrap();
            e.run_until(0.05).unwrap();
            // The reply arrived back in the capsule: verify by state data
            // via the controller debug path (delivered count >= 1).
            assert!(e.controller().delivered_count() >= 1, "{policy}: echo reply delivered");
        }
    }

    #[test]
    fn capsule_replies_pending_at_segment_end_survive_into_the_next_segment() {
        use urt_dataflow::streamer::StreamerBehavior;
        use urt_ode::SolveError;

        // Emits `tick` every step and reports how many `ack` replies it
        // has received so far as its output.
        struct Pinger {
            acks: u32,
            emitted: Vec<(String, Message)>,
        }
        impl StreamerBehavior for Pinger {
            fn name(&self) -> &str {
                "pinger"
            }
            fn input_width(&self) -> usize {
                0
            }
            fn output_width(&self) -> usize {
                1
            }
            fn advance(
                &mut self,
                t: f64,
                _h: f64,
                _u: &[f64],
                y: &mut [f64],
            ) -> Result<(), SolveError> {
                y[0] = f64::from(self.acks);
                self.emitted
                    .push(("ctl".to_owned(), Message::new("tick", Value::Empty).with_sent_at(t)));
                Ok(())
            }
            fn on_signal(&mut self, _msg: &Message) {
                self.acks += 1;
            }
            fn take_emitted(&mut self) -> Vec<(String, Message)> {
                std::mem::take(&mut self.emitted)
            }
        }

        // Regression for the threaded shutdown drain: the capsule's reply
        // to the *final* macro step of a `run_until` segment is queued
        // after the last rendezvous; the old teardown drained and
        // discarded it, so a follow-up segment started one ack short on
        // the threaded path only. Every ack must now survive the segment
        // boundary under both policies.
        let run = |policy| {
            let sm = StateMachineBuilder::new("driver")
                .state("s")
                .initial("s", |_d: &mut (), _ctx: &mut CapsuleContext| {})
                .internal("s", ("plant", "tick"), |_d, _m, ctx| {
                    ctx.send("plant", "ack", Value::Empty);
                })
                .build()
                .unwrap();
            let mut controller = Controller::new("events");
            let cap = controller.add_capsule(Box::new(SmCapsule::new(sm, ())));
            let mut net = StreamerNetwork::new("p");
            let node = net
                .add_streamer(
                    Pinger { acks: 0, emitted: Vec::new() },
                    &[],
                    &[("y", FlowType::scalar())],
                )
                .unwrap();
            let mut e = HybridEngine::new(controller, EngineConfig { step: 0.01, policy });
            let g = e.add_group(net).unwrap();
            e.link_sport(g, node, "ctl", cap, "plant").unwrap();
            let rec = Recorder::new();
            e.set_recorder(rec.clone());
            e.add_probe(g, node, "y", "acks").unwrap();
            // Two segments: the segment boundary is where the old drain
            // lost the in-flight reply.
            e.run_until(0.05).unwrap();
            e.run_until(0.10).unwrap();
            rec.series("acks")
        };
        let local = run(ThreadPolicy::CurrentThread);
        let threaded = run(ThreadPolicy::DedicatedThreads);
        assert_eq!(local.len(), 10);
        assert_eq!(threaded.len(), 10);
        // Step k sees the acks for ticks 0..k (each reply arrives at the
        // start of the next step) — including tick 4's reply, which was
        // in flight across the segment boundary.
        for (name, series) in [("local", &local), ("threaded", &threaded)] {
            for (k, (_, v)) in series.iter().enumerate() {
                assert_eq!(*v, k as f64, "{name}: acks visible at step {k}");
            }
        }
        for ((t1, v1), (t2, v2)) in local.iter().zip(&threaded) {
            assert_eq!(t1.to_bits(), t2.to_bits());
            assert_eq!(v1.to_bits(), v2.to_bits());
        }
    }

    #[test]
    fn declared_sports_are_checked_at_link_time() {
        use urt_dataflow::port::SPortSpec;
        use urt_umlrt::protocol::Protocol;

        let (mut net, n) = sine_net("p");
        net.add_sport(n, SPortSpec::new("ctl", Protocol::new("Ctl"))).unwrap();
        let mut e = HybridEngine::new(empty_controller(), EngineConfig::default());
        let g = e.add_group(net).unwrap();
        // Wrong sport name: rejected because the node declares its sports.
        assert!(matches!(e.link_sport(g, n, "ghost", 0, "plant"), Err(CoreError::Engine { .. })));
        // Declared name: accepted.
        e.link_sport(g, n, "ctl", 0, "plant").unwrap();
    }

    #[test]
    fn duplicate_sport_link_is_refused() {
        // Regression: the old index kept the first link per key and
        // silently dropped the second — now it is a stable-coded error.
        let (net, n) = sine_net("p");
        let mut e = HybridEngine::new(empty_controller(), EngineConfig::default());
        let g = e.add_group(net).unwrap();
        e.link_sport(g, n, "ctl", 0, "plant").unwrap();
        let err = e.link_sport(g, n, "ctl", 0, "other").unwrap_err();
        assert!(matches!(err, CoreError::DuplicateSportLink { .. }));
        assert!(err.to_string().starts_with("URT113: "), "stable code: {err}");
        // A different sport on the same node is still fine.
        e.link_sport(g, n, "aux", 0, "plant").unwrap();
    }

    #[test]
    fn engine_errors_on_bad_indices() {
        let mut e = HybridEngine::new(empty_controller(), EngineConfig::default());
        assert!(matches!(
            e.add_probe(0, NodeId::from_index(0), "y", "s"),
            Err(CoreError::Engine { .. })
        ));
        assert!(matches!(
            e.link_sport(3, NodeId::from_index(0), "s", 0, "p"),
            Err(CoreError::Engine { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "macro step must be positive")]
    fn config_validates_step() {
        let _ = HybridEngine::new(
            empty_controller(),
            EngineConfig { step: 0.0, policy: ThreadPolicy::CurrentThread },
        );
    }

    #[test]
    fn from_compiled_refuses_bad_step_with_structured_error() {
        use crate::elaborate::{elaborate, validate_gate, BehaviorRegistry};
        use crate::model::ModelBuilder;
        let mut b = ModelBuilder::new("m");
        let s = b.streamer("wave", "none");
        b.streamer_out(s, "y", FlowType::scalar());
        let registry = BehaviorRegistry::new().streamer("wave", || {
            Box::new(FnStreamer::new("wave", 0, 1, |t: f64, _h, _u: &[f64], y: &mut [f64]| {
                y[0] = t
            }))
        });
        let compiled = elaborate(&b.build(), registry, &validate_gate).unwrap();
        for step in [0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = HybridEngine::from_compiled(
                &compiled,
                EngineConfig { step, policy: ThreadPolicy::CurrentThread },
            )
            .expect_err("non-positive/non-finite step must be refused");
            assert!(matches!(err, CoreError::InvalidStep { .. }), "step {step}: {err}");
            assert!(err.to_string().starts_with("URT116: "), "step {step}: {err}");
        }
        // A valid step still builds from the same (borrowed) artifact.
        assert!(HybridEngine::from_compiled(&compiled, EngineConfig::default()).is_ok());
    }

    /// A non-feedthrough unit-delay block: output is the input latched at
    /// the step start (for cross-group consumers, the channel's front
    /// sample — i.e. the producer's previous step's output).
    struct Witness;
    impl urt_dataflow::streamer::StreamerBehavior for Witness {
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
    }

    /// Non-feedthrough ramp source: y = 100 t at the step start.
    struct Ramp;
    impl urt_dataflow::streamer::StreamerBehavior for Ramp {
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
            y[0] = 100.0 * t;
            Ok(())
        }
    }

    fn cross_group_engine(policy: ThreadPolicy) -> (HybridEngine, Recorder) {
        let mut producer = StreamerNetwork::new("producer");
        let src = producer.add_streamer(Ramp, &[], &[("y", FlowType::scalar())]).unwrap();
        let mut consumer = StreamerNetwork::new("consumer");
        let wit = consumer
            .add_streamer(Witness, &[("u", FlowType::scalar())], &[("y", FlowType::scalar())])
            .unwrap();
        consumer.export_input(wit, "u").unwrap();
        let mut e = HybridEngine::new(empty_controller(), EngineConfig { step: 0.01, policy });
        let gp = e.add_group(producer).unwrap();
        let gc = e.add_group(consumer).unwrap();
        e.link_flow((gp, src, "y"), (gc, wit, "y")).unwrap_err(); // wrong port direction
        e.link_flow((gp, src, "y"), (gc, wit, "u")).unwrap();
        let rec = Recorder::new();
        e.set_recorder(rec.clone());
        e.add_probe(gp, src, "y", "src").unwrap();
        e.add_probe(gc, wit, "y", "wit").unwrap();
        (e, rec)
    }

    #[test]
    fn cross_group_channel_delays_exactly_one_step() {
        for policy in [ThreadPolicy::CurrentThread, ThreadPolicy::DedicatedThreads] {
            let (mut e, rec) = cross_group_engine(policy);
            e.run_until(0.1).unwrap();
            let src = rec.series("src");
            let wit = rec.series("wit");
            assert_eq!(src.len(), 10, "{policy}");
            assert_eq!(wit.len(), 10, "{policy}");
            // Step 0: the witness read the channel's initial zero buffer.
            assert_eq!(wit[0].1.to_bits(), 0.0f64.to_bits(), "{policy}: initial sample");
            // Step k: the witness carries the producer's step k-1 output.
            for k in 1..wit.len() {
                assert_eq!(
                    wit[k].1.to_bits(),
                    src[k - 1].1.to_bits(),
                    "{policy}: one-step delay at sample {k}"
                );
            }
        }
    }

    #[test]
    fn cross_group_channel_is_policy_and_batch_invariant() {
        let run = |policy, max_batch| {
            let (mut e, rec) = cross_group_engine(policy);
            e.set_max_batch(max_batch);
            e.run_until(0.25).unwrap();
            (rec.series("src"), rec.series("wit"))
        };
        let local = run(ThreadPolicy::CurrentThread, 1);
        for max_batch in [1, 7, 4096] {
            let threaded = run(ThreadPolicy::DedicatedThreads, max_batch);
            for (a, b) in [(&local.0, &threaded.0), (&local.1, &threaded.1)] {
                assert_eq!(a.len(), b.len(), "max_batch={max_batch}");
                for ((t1, v1), (t2, v2)) in a.iter().zip(b) {
                    assert_eq!(t1.to_bits(), t2.to_bits(), "max_batch={max_batch}: time");
                    assert_eq!(v1.to_bits(), v2.to_bits(), "max_batch={max_batch}: value");
                }
            }
        }
    }

    #[test]
    fn set_max_batch_zero_clamps_to_one() {
        // Regression: `set_max_batch(0)` must behave as batch size 1, not
        // hang the threaded scheduler in a zero-progress loop (`remaining`
        // would never decrease) — the cap is clamped to 1.
        let run = |policy, max_batch| {
            let (mut e, rec) = cross_group_engine(policy);
            e.set_max_batch(max_batch);
            e.run_until(0.1).unwrap();
            (rec.series("src"), rec.series("wit"))
        };
        let reference = run(ThreadPolicy::DedicatedThreads, 1);
        let clamped = run(ThreadPolicy::DedicatedThreads, 0);
        for (a, b) in [(&reference.0, &clamped.0), (&reference.1, &clamped.1)] {
            assert_eq!(a.len(), b.len());
            assert_eq!(a.len(), 10, "all ten macro steps ran");
            for ((t1, v1), (t2, v2)) in a.iter().zip(b.iter()) {
                assert_eq!(t1.to_bits(), t2.to_bits());
                assert_eq!(v1.to_bits(), v2.to_bits());
            }
        }
    }

    #[test]
    fn link_flow_validates_its_endpoints() {
        let mut producer = StreamerNetwork::new("producer");
        let src = producer.add_streamer(Ramp, &[], &[("y", FlowType::scalar())]).unwrap();
        let mut consumer = StreamerNetwork::new("consumer");
        let wit = consumer
            .add_streamer(Witness, &[("u", FlowType::scalar())], &[("y", FlowType::scalar())])
            .unwrap();
        consumer.export_input(wit, "u").unwrap();
        // A feedthrough consumer in a third group.
        let mut ft_net = StreamerNetwork::new("ft");
        let gain = ft_net
            .add_streamer(
                FnStreamer::new("gain", 1, 1, |_t, _h, u: &[f64], y: &mut [f64]| y[0] = u[0]),
                &[("u", FlowType::scalar())],
                &[("y", FlowType::scalar())],
            )
            .unwrap();
        ft_net.export_input(gain, "u").unwrap();
        // An unexported consumer in a fourth group (input driven in-network
        // so the group still validates).
        let mut closed = StreamerNetwork::new("closed");
        let csrc = closed.add_streamer(Ramp, &[], &[("y", FlowType::scalar())]).unwrap();
        let cwit = closed
            .add_streamer(Witness, &[("u", FlowType::scalar())], &[("y", FlowType::scalar())])
            .unwrap();
        closed.flow((csrc, "y"), (cwit, "u")).unwrap();

        let mut e = HybridEngine::new(empty_controller(), EngineConfig::default());
        let gp = e.add_group(producer).unwrap();
        let gc = e.add_group(consumer).unwrap();
        let gf = e.add_group(ft_net).unwrap();
        let gx = e.add_group(closed).unwrap();

        // Bad group index.
        assert!(matches!(
            e.link_flow((9, src, "y"), (gc, wit, "u")),
            Err(CoreError::Engine { .. })
        ));
        // Same group.
        let err = e.link_flow((gc, wit, "y"), (gc, wit, "u")).unwrap_err();
        assert!(err.to_string().contains("in-network"), "{err}");
        // Feedthrough consumer.
        let err = e.link_flow((gp, src, "y"), (gf, gain, "u")).unwrap_err();
        assert!(err.to_string().contains("feedthrough"), "{err}");
        // Unexported consumer input.
        let err = e.link_flow((gp, src, "y"), (gx, cwit, "u")).unwrap_err();
        assert!(err.to_string().contains("not exported"), "{err}");
        // Valid link, then a second channel into the same input.
        e.link_flow((gp, src, "y"), (gc, wit, "u")).unwrap();
        let err = e.link_flow((gx, csrc, "y"), (gc, wit, "u")).unwrap_err();
        assert!(err.to_string().contains("already fed"), "{err}");
    }

    #[test]
    fn link_flow_enforces_the_subset_rule() {
        use urt_dataflow::flowtype::Unit;
        let mut producer = StreamerNetwork::new("producer");
        let src =
            producer.add_streamer(Ramp, &[], &[("y", FlowType::with_unit(Unit::Kelvin))]).unwrap();
        let mut consumer = StreamerNetwork::new("consumer");
        let wit = consumer
            .add_streamer(
                Witness,
                &[("u", FlowType::with_unit(Unit::Meter))],
                &[("y", FlowType::scalar())],
            )
            .unwrap();
        consumer.export_input(wit, "u").unwrap();
        let mut e = HybridEngine::new(empty_controller(), EngineConfig::default());
        let gp = e.add_group(producer).unwrap();
        let gc = e.add_group(consumer).unwrap();
        let err = e.link_flow((gp, src, "y"), (gc, wit, "u")).unwrap_err();
        assert!(
            matches!(err, CoreError::Flow(urt_dataflow::FlowError::TypeMismatch { .. })),
            "{err}"
        );
    }

    #[test]
    fn threaded_engine_with_no_groups_is_pure_event_run() {
        let mut e = HybridEngine::new(
            empty_controller(),
            EngineConfig { step: 0.01, policy: ThreadPolicy::DedicatedThreads },
        );
        e.run_until(0.05).unwrap();
        assert!((e.time() - 0.05).abs() < 1e-9);
    }

    #[test]
    fn run_paced_matches_run_until_bit_identically() {
        use crate::pacer::PacedConfig;
        // Pacing only inserts waits; at an extreme rate the waits vanish
        // and the computed series must be bit-identical to a free run.
        let free = {
            let (mut e, rec) = cross_group_engine(ThreadPolicy::CurrentThread);
            e.run_until(0.1).unwrap();
            (rec.series("src"), rec.series("wit"))
        };
        for policy in [ThreadPolicy::CurrentThread, ThreadPolicy::DedicatedThreads] {
            let (mut e, rec) = cross_group_engine(policy);
            let report =
                e.run_paced(0.1, PacedConfig::new().with_rate(1e9).with_budget_ns(1e12)).unwrap();
            assert_eq!(report.steps, 10, "{policy}");
            assert_eq!(report.misses, 0, "{policy}: generous budget never misses");
            assert!(report.samples >= 1 && report.samples <= 10, "{policy}");
            assert!(report.p50_ns <= report.p99_ns && report.p99_ns <= report.worst_ns.max(1.0));
            for (name, a) in [("src", &free.0), ("wit", &free.1)] {
                let b = rec.series(name);
                assert_eq!(a.len(), b.len(), "{policy}/{name}");
                for ((t1, v1), (t2, v2)) in a.iter().zip(&b) {
                    assert_eq!(t1.to_bits(), t2.to_bits(), "{policy}/{name}: time");
                    assert_eq!(v1.to_bits(), v2.to_bits(), "{policy}/{name}: value");
                }
            }
        }
    }

    #[test]
    fn run_paced_threaded_paces_at_batch_barriers() {
        use crate::pacer::PacedConfig;
        // Without SPort links the threaded scheduler batches; pacing then
        // happens per batch and the report says so. With max_batch capped
        // to 1 every macro step becomes its own cycle again.
        let (net, _) = sine_net("p");
        let mut e = HybridEngine::new(
            empty_controller(),
            EngineConfig { step: 0.01, policy: ThreadPolicy::DedicatedThreads },
        );
        e.add_group(net).unwrap();
        let report = e.run_paced(0.1, PacedConfig::new().with_rate(1e9)).unwrap();
        assert_eq!(report.steps, 10);
        assert_eq!(report.samples, 1, "one 10-step batch");
        assert!(report.batched);

        let (net, _) = sine_net("p");
        let mut e = HybridEngine::new(
            empty_controller(),
            EngineConfig { step: 0.01, policy: ThreadPolicy::DedicatedThreads },
        );
        e.add_group(net).unwrap();
        e.set_max_batch(1);
        let report = e.run_paced(0.1, PacedConfig::new().with_rate(1e9)).unwrap();
        assert_eq!((report.steps, report.samples), (10, 10));
        assert!(!report.batched);
    }

    #[test]
    fn run_paced_with_no_groups_paces_the_event_loop() {
        use crate::pacer::PacedConfig;
        let mut e = HybridEngine::new(
            empty_controller(),
            EngineConfig { step: 0.01, policy: ThreadPolicy::DedicatedThreads },
        );
        let report = e.run_paced(0.05, PacedConfig::new().with_rate(1e9)).unwrap();
        assert_eq!(report.steps, 5);
        assert!((e.time() - 0.05).abs() < 1e-9);
    }

    #[cfg(feature = "timing-tests")]
    #[test]
    fn run_paced_actually_paces_against_the_wall_clock() {
        use crate::pacer::PacedConfig;
        // 10 steps of 10 ms sim at 10x real time = at least 10 ms of wall
        // time; a free run finishes in microseconds.
        let (net, _) = sine_net("p");
        let mut e = HybridEngine::new(
            empty_controller(),
            EngineConfig { step: 0.01, policy: ThreadPolicy::CurrentThread },
        );
        e.add_group(net).unwrap();
        let start = std::time::Instant::now();
        let report = e.run_paced(0.1, PacedConfig::new().with_rate(10.0)).unwrap();
        assert!(start.elapsed() >= std::time::Duration::from_millis(9), "paced to the clock");
        assert_eq!(report.steps, 10);
        assert_eq!(report.rate, 10.0);
    }
}
