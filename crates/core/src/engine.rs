//! The unified execution engine: event-driven capsules and
//! time-continuous streamers on separate threads, bridged by channels —
//! one engine for one instance or `K` lockstep instances of a model.
//!
//! "During implementation, capsules and streamers are assigned to
//! different threads. Communication between capsules and streamers is
//! realized by communication mechanism of threads." Here the capsule side
//! is a [`Controller`]; each streamer *group* is a [`StreamerNetwork`]
//! consumed at construction into its dense [`StepPlan`] and replayed
//! every macro step over `K` instance-major lane sets: `K = 1` for
//! [`HybridEngine::from_compiled`], `K = variants.len()` for
//! [`HybridEngine::from_variants`]. Both build from a [`CompiledSystem`]
//! — the model-first pipeline is the only way to an engine. Under
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

use crate::elaborate::{CompiledSystem, CrossGroupFlow, SystemInstance};
use crate::ensemble::{BatchRow, EnsembleKernel, VariantSpec};
use crate::error::CoreError;
use crate::pacer::{PacedConfig, PacedReport, PacedRunner};
use crate::recorder::{Recorder, SeriesHandle};
use crate::sync::{Mutex, SpinBarrier};
use crate::threading::ThreadPolicy;
use crate::time::SimClock;
use std::fmt;
use std::sync::mpsc::{channel, Receiver};
use std::sync::Arc;
use urt_dataflow::graph::{NodeId, OutputHandle, StepPlan, StreamerNetwork};
use urt_dataflow::streamer::StreamerBehavior;
use urt_umlrt::controller::Controller;
use urt_umlrt::message::Message;

/// A signal emitted by a streamer: `(node, sport, message)`.
type DrainedSignal = (NodeId, String, Message);

/// The two sample buffers of one cross-group flow channel, shared between
/// the producer and the consumer group.
type ChannelBufs = Arc<[Mutex<Vec<f64>>; 2]>;

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
    /// finite: [`HybridEngine::from_compiled`] and
    /// [`HybridEngine::from_variants`] refuse anything else with
    /// [`CoreError::InvalidStep`] (URT116).
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
    /// `behaviours[r][i]` is instance `i` of plan row `r`. Every plan
    /// node is a streamer row: elaboration lowers relays to flows.
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

    /// The plan row of `node`.
    fn row_of(&self, node: NodeId) -> usize {
        self.plan
            .nodes()
            .iter()
            .position(|pn| pn.node == node)
            .expect("compiled nodes are plan rows")
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
        for (row, pn) in self.plan.nodes().iter().enumerate() {
            for c in &pn.gathers {
                for i in 0..k {
                    let (src, dst) = (i * outw + c.src, i * inw + c.dst);
                    self.ins[dst..dst + c.len].copy_from_slice(&self.outs[src..src + c.len]);
                }
            }
            let lanes = &mut self.behaviours[row];
            match self.batch_rows.get_mut(row).and_then(Option::as_mut) {
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
                        // Lane 0 is the instance SPort links serve; the
                        // other lanes are never linked.
                        let emitted = b.take_emitted();
                        if i == 0 {
                            self.signals.extend(emitted.into_iter().map(|(s, m)| (pn.node, s, m)));
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
/// Typical lifecycle: declare a model with
/// [`ModelBuilder`](crate::model::ModelBuilder), compile it, build the
/// engine with [`HybridEngine::from_compiled`] (one instance) or
/// [`HybridEngine::from_variants`] (`K` parameter variants), then
/// [`HybridEngine::run_until`] repeatedly.
pub struct HybridEngine {
    controller: Controller,
    config: EngineConfig,
    clock: SimClock,
    /// Instances per group, `K`.
    k: usize,
    pub(crate) groups: Vec<GroupState>,
    links: Vec<SportLink>,
    /// Dense routing table for streamer-emitted signals:
    /// `link_index[group][node]` holds the node's `(sport, link index)`
    /// pairs — direct array indexing to the node, then a scan over its
    /// (almost always 0–2) linked sports. Elaboration refuses a second
    /// link for the same `(group, node, sport)` with
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

/// Resolves one cross-group flow against the freshly instantiated
/// networks: the producer's output handle and the position of the
/// consumer input among its group's exported inputs.
///
/// # Errors
///
/// [`CoreError::Engine`] for a direct-feedthrough consumer: the channel's
/// unit delay would break its same-step input dependency. Lint URT207
/// flags this at model level, but a model compiled under
/// [`validate_gate`](crate::elaborate::validate_gate) alone reaches it.
fn resolve_flow(
    nets: &[StreamerNetwork],
    cf: &CrossGroupFlow,
) -> Result<(OutputHandle, usize), CoreError> {
    let dst = &nets[cf.to_group];
    if dst.node_feedthrough(cf.to_node)? {
        return Err(engine_err(format!(
            "cross-group flow into `{}`.`{}`: the consumer declares direct feedthrough, which a \
             one-step-delay channel cannot honour (keep both streamers on one thread or make the \
             consumer non-feedthrough)",
            dst.node_name(cf.to_node)?,
            cf.to_port
        )));
    }
    let export = dst
        .exported_inputs()
        .iter()
        .position(|&(n, p)| n == cf.to_node && p == cf.to_port)
        .expect("elaboration exports every channel-fed input");
    Ok((nets[cf.from_group].output_handle(cf.from_node, &cf.from_port)?, export))
}

impl HybridEngine {
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
        Self::assemble(compiled, config, controller, groups, 1)
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
        let mut engine =
            Self::assemble(compiled, config, Controller::new("ensemble"), groups, variants.len())?;
        engine.per_instance_series = true;
        for (i, v) in variants.iter().enumerate() {
            for (streamer, param, value) in &v.overrides {
                let Some((g, node)) = compiled.streamer_node(streamer) else {
                    return Err(engine_err(format!(
                        "variant {i}: no streamer `{streamer}` in the compiled system"
                    )));
                };
                let gs = &mut engine.groups[g];
                let row = gs.row_of(node);
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

    /// The construction shared by every `K`. Resolves the compiled probe
    /// and cross-flow tables against the freshly instantiated networks,
    /// then consumes each network into its plan plus instance 0's
    /// behaviours (the artifact's factories supply instances `1..K`), and
    /// finally opens the cross-group channels and the SPort links. No
    /// network outlives this call.
    fn assemble(
        compiled: &CompiledSystem,
        config: EngineConfig,
        mut controller: Controller,
        nets: Vec<StreamerNetwork>,
        k: usize,
    ) -> Result<Self, CoreError> {
        let probe_ports = compiled
            .probes
            .iter()
            .map(|p| nets[p.group].output_handle(p.node, &p.port))
            .collect::<Result<Vec<_>, _>>()?;
        let flow_ports = compiled
            .cross_flows
            .iter()
            .map(|cf| resolve_flow(&nets, cf))
            .collect::<Result<Vec<_>, _>>()?;
        let mut groups = Vec::with_capacity(nets.len());
        for (gi, net) in nets.into_iter().enumerate() {
            let (plan, own) = net.into_plan()?;
            assert_eq!(own.len(), plan.nodes().len(), "compiled groups hold no relay nodes");
            let behaviours = plan
                .nodes()
                .iter()
                .zip(own)
                .map(|(pn, first)| {
                    let replicas = (1..k).map(|_| {
                        compiled.behavior_for(gi, pn.node).expect("compiled nodes have factories")
                    });
                    std::iter::once(first).chain(replicas).collect()
                })
                .collect();
            groups.push(GroupState::new(plan, k, behaviours));
        }
        let probes = compiled
            .probes
            .iter()
            .zip(probe_ports)
            .map(|(p, port)| Probe {
                group: p.group,
                base: groups[p.group].out_base(&port),
                width: port.width(),
                series: p.series.clone(),
            })
            .collect();
        for (cf, (from, export)) in compiled.cross_flows.iter().zip(flow_ports) {
            let width = from.width();
            let bufs: ChannelBufs =
                Arc::new([Mutex::new(vec![0.0; k * width]), Mutex::new(vec![0.0; k * width])]);
            let offset = groups[cf.from_group].out_base(&from);
            groups[cf.from_group].outgoing.push(ChannelEnd {
                bufs: Arc::clone(&bufs),
                offset,
                width,
            });
            // The consumer's lane offset inside its group's exported-input
            // vector: the source of the plan's latch for that export.
            let offset = groups[cf.to_group].plan.ext_loads()[export].src;
            groups[cf.to_group].incoming.push(ChannelEnd { bufs, offset, width });
        }
        let mut link_index: Vec<Vec<Vec<(String, usize)>>> =
            groups.iter().map(|g| vec![Vec::new(); g.plan.nodes().len()]).collect();
        let mut links = Vec::with_capacity(compiled.links.len());
        for l in &compiled.links {
            let (tx, rx) = channel();
            controller.connect_external(l.capsule, &l.capsule_port, tx)?;
            link_index[l.group][l.node.index()].push((l.sport.clone(), links.len()));
            links.push(SportLink {
                group: l.group,
                row: groups[l.group].row_of(l.node),
                capsule: l.capsule,
                capsule_port: l.capsule_port.clone(),
                from_capsule: rx,
            });
        }
        Ok(HybridEngine {
            controller,
            config,
            clock: SimClock::new(),
            k,
            groups,
            links,
            link_index,
            probes,
            per_instance_series: false,
            recorder: None,
            max_batch: DEFAULT_MAX_BATCH,
            step_budget_ns: compiled.step_budget_ns,
            started: false,
        })
    }

    /// The recorder series name of probe series `series` for instance
    /// `instance` of an engine built by [`HybridEngine::from_variants`]:
    /// `{series}#{instance}`.
    pub fn series_name(series: &str, instance: usize) -> String {
        format!("{series}#{instance}")
    }

    /// Number of lockstep instances `K`.
    pub fn instances(&self) -> usize {
        self.k
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

    /// Attaches a recorder for the model's declared probes, interning
    /// every probe's series (per instance on `K`-instance engines, see
    /// [`HybridEngine::series_name`]) so the per-step record path is
    /// lookup-free. Probes record the first lane of their output DPort
    /// after every macro step.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        for gs in &mut self.groups {
            gs.taps.clear();
        }
        for p in self.probes.iter().filter(|p| p.width > 0) {
            let handles = (0..self.k)
                .map(|i| {
                    if self.per_instance_series {
                        recorder.handle(&Self::series_name(&p.series, i))
                    } else {
                        recorder.handle(&p.series)
                    }
                })
                .collect();
            self.groups[p.group].taps.push((p.base, handles));
        }
        self.recorder = Some(recorder);
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

    /// Refuses a non-finite run target before any step, then starts the
    /// engine if it has not run yet.
    fn prepare(&mut self, t_end: f64) -> Result<(), CoreError> {
        if !t_end.is_finite() {
            return Err(engine_err(format!("run target must be a finite time, got {t_end}")));
        }
        self.start_if_needed()
    }

    /// Runs until simulation time `t_end`, in macro steps of
    /// `config.step`.
    ///
    /// # Errors
    ///
    /// [`CoreError::Engine`] (URT111) for a non-finite `t_end`, before any
    /// step. Propagates solver, runtime and thread failures. After a
    /// failure, [`HybridEngine::time`] and [`HybridEngine::step_count`]
    /// stand at the last macro step every group completed, under both
    /// policies.
    pub fn run_until(&mut self, t_end: f64) -> Result<(), CoreError> {
        self.prepare(t_end)?;
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
    /// `config.rate` simulated seconds per wall second, from the engine
    /// time at the call: a resumed engine releases its next step one
    /// period after the call, not after the time already simulated. The
    /// budget
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
    /// run exhausts its consecutive-miss tolerance, [`CoreError::Engine`]
    /// (URT111) for a non-finite `t_end`, plus the usual solver, runtime
    /// and thread failures.
    pub fn run_paced(&mut self, t_end: f64, config: PacedConfig) -> Result<PacedReport, CoreError> {
        self.prepare(t_end)?;
        let mut runner =
            PacedRunner::new(config, self.step_budget_ns, self.config.step, self.clock.seconds());
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
    use crate::elaborate::{elaborate, validate_gate, BehaviorRegistry};
    use crate::model::{ModelBuilder, StreamerRef};
    use crate::threading::ThreadPolicy;
    use urt_dataflow::flowtype::FlowType;
    use urt_dataflow::streamer::FnStreamer;
    use urt_umlrt::capsule::{CapsuleContext, SmCapsule};
    use urt_umlrt::statemachine::{SmSpec, StateMachineBuilder};
    use urt_umlrt::value::Value;

    fn compile(b: ModelBuilder, registry: BehaviorRegistry) -> CompiledSystem {
        elaborate(&b.build(), registry, &validate_gate).expect("model elaborates")
    }

    /// A model of one idle capsule and one `sine` streamer emitting
    /// sin(t) at the step start on `y`, probed as series `sine`.
    fn sine_engine(step: f64, policy: ThreadPolicy) -> HybridEngine {
        let mut b = ModelBuilder::new("m");
        let idle = b.capsule("idle");
        b.capsule_machine(idle, SmSpec::new("idle").state("s").initial("s"));
        let s = b.streamer("sine", "none");
        b.streamer_out(s, "y", FlowType::scalar());
        b.probe(s, "y", "sine");
        let registry = BehaviorRegistry::new().streamer("sine", || {
            Box::new(FnStreamer::new("sine", 0, 1, |t: f64, _h, _u: &[f64], y: &mut [f64]| {
                y[0] = t.sin()
            }))
        });
        HybridEngine::from_compiled(&compile(b, registry), EngineConfig { step, policy }).unwrap()
    }

    /// A model of one SPort-linked pair: streamer `name` (sport `ctl`)
    /// and capsule `driver` (port `plant`), built by `streamer` and
    /// `driver`. `configure` declares the streamer's DPorts and probes.
    fn linked_engine(
        name: &'static str,
        streamer: impl Fn() -> Box<dyn StreamerBehavior> + Send + Sync + 'static,
        driver: impl Fn() -> Box<dyn urt_umlrt::capsule::Capsule> + Send + Sync + 'static,
        configure: impl FnOnce(&mut ModelBuilder, StreamerRef),
        policy: ThreadPolicy,
    ) -> HybridEngine {
        let mut b = ModelBuilder::new("m");
        let cap = b.capsule("driver");
        let s = b.streamer(name, "none");
        b.streamer_sport(s, "ctl", "Ctl");
        b.capsule_sport(cap, "plant", "Ctl");
        b.sport_link(cap, "plant", s, "ctl");
        configure(&mut b, s);
        let registry = BehaviorRegistry::new().streamer(name, streamer).capsule("driver", driver);
        HybridEngine::from_compiled(&compile(b, registry), EngineConfig { step: 0.01, policy })
            .unwrap()
    }

    #[test]
    fn local_engine_advances_time() {
        let mut e = sine_engine(0.01, ThreadPolicy::CurrentThread);
        e.run_until(0.1).unwrap();
        assert!((e.time() - 0.1).abs() < 1e-9);
        assert_eq!(e.step_count(), 10);
    }

    #[test]
    fn probes_record_series() {
        let mut e = sine_engine(0.01, ThreadPolicy::CurrentThread);
        let rec = Recorder::new();
        e.set_recorder(rec.clone());
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
            let mut e = sine_engine(0.01, policy);
            let rec = Recorder::new();
            e.set_recorder(rec.clone());
            e.run_until(0.5).unwrap();
            rec.series("sine")
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
            // Capsule: on start send `ping(41)`, count echo replies.
            let driver = || {
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
                Box::new(SmCapsule::new(sm, Vec::new())) as Box<dyn urt_umlrt::capsule::Capsule>
            };
            let mut e = linked_engine(
                "echo",
                || Box::new(Echo { pending: Vec::new(), emitted: Vec::new() }),
                driver,
                |_, _| {},
                policy,
            );
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
            let driver = || {
                let sm = StateMachineBuilder::new("driver")
                    .state("s")
                    .initial("s", |_d: &mut (), _ctx: &mut CapsuleContext| {})
                    .internal("s", ("plant", "tick"), |_d, _m, ctx| {
                        ctx.send("plant", "ack", Value::Empty);
                    })
                    .build()
                    .unwrap();
                Box::new(SmCapsule::new(sm, ())) as Box<dyn urt_umlrt::capsule::Capsule>
            };
            let mut e = linked_engine(
                "pinger",
                || Box::new(Pinger { acks: 0, emitted: Vec::new() }),
                driver,
                |b, s| {
                    b.streamer_out(s, "y", FlowType::scalar());
                    b.probe(s, "y", "acks");
                },
                policy,
            );
            let rec = Recorder::new();
            e.set_recorder(rec.clone());
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
    fn from_compiled_refuses_bad_step_with_structured_error() {
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

    /// A ramp on thread 0 feeding `consumer` on thread 1: one flow,
    /// lowered to a cross-group channel. Probes: `src` and `wit`.
    fn cross_thread_model(
        consumer: impl Fn() -> Box<dyn StreamerBehavior> + Send + Sync + 'static,
        consumer_feedthrough: bool,
    ) -> Result<CompiledSystem, CoreError> {
        let mut b = ModelBuilder::new("xg");
        let src = b.streamer("ramp", "none");
        let wit = b.streamer("witness", "none");
        b.streamer_out(src, "y", FlowType::scalar());
        b.streamer_in(wit, "u", FlowType::scalar());
        b.streamer_out(wit, "y", FlowType::scalar());
        b.streamer_feedthrough(src, false);
        b.streamer_feedthrough(wit, consumer_feedthrough);
        b.assign_thread(src, 0);
        b.assign_thread(wit, 1);
        b.flow_between_streamers(src, "y", wit, "u");
        b.probe(src, "y", "src");
        b.probe(wit, "y", "wit");
        let registry = BehaviorRegistry::new()
            .streamer("ramp", || Box::new(Ramp))
            .streamer("witness", consumer);
        elaborate(&b.build(), registry, &validate_gate)
    }

    fn cross_group_engine(policy: ThreadPolicy) -> (HybridEngine, Recorder) {
        let compiled = cross_thread_model(|| Box::new(Witness), false).unwrap();
        assert_eq!(compiled.cross_flow_count(), 1);
        let mut e =
            HybridEngine::from_compiled(&compiled, EngineConfig { step: 0.01, policy }).unwrap();
        let rec = Recorder::new();
        e.set_recorder(rec.clone());
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
    fn cross_thread_flow_into_feedthrough_consumer_is_refused() {
        // The model rules accept a cross-thread flow into a feedthrough
        // consumer (lint URT207 is what flags it), so the engine must
        // refuse the channel: its one-step delay cannot honour the
        // consumer's same-step input dependency.
        let gain = || {
            Box::new(FnStreamer::new("gain", 1, 1, |_t, _h, u: &[f64], y: &mut [f64]| y[0] = u[0]))
                as Box<dyn StreamerBehavior>
        };
        let compiled = cross_thread_model(gain, true).expect("validate_gate accepts the model");
        let err = HybridEngine::from_compiled(&compiled, EngineConfig::default()).unwrap_err();
        assert!(matches!(err, CoreError::Engine { .. }), "{err}");
        assert!(err.to_string().contains("feedthrough"), "{err}");
    }

    /// A streamer-free model: one idle capsule, zero groups, on the
    /// dedicated-threads policy.
    fn event_only_engine() -> HybridEngine {
        let mut b = ModelBuilder::new("events");
        let idle = b.capsule("idle");
        b.capsule_machine(idle, SmSpec::new("idle").state("s").initial("s"));
        let compiled = compile(b, BehaviorRegistry::new());
        assert_eq!(compiled.group_count(), 0);
        let config = EngineConfig { step: 0.01, policy: ThreadPolicy::DedicatedThreads };
        HybridEngine::from_compiled(&compiled, config).unwrap()
    }

    #[test]
    fn threaded_engine_with_no_groups_is_pure_event_run() {
        let mut e = event_only_engine();
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
        let mut e = sine_engine(0.01, ThreadPolicy::DedicatedThreads);
        let report = e.run_paced(0.1, PacedConfig::new().with_rate(1e9)).unwrap();
        assert_eq!(report.steps, 10);
        assert_eq!(report.samples, 1, "one 10-step batch");
        assert!(report.batched);

        let mut e = sine_engine(0.01, ThreadPolicy::DedicatedThreads);
        e.set_max_batch(1);
        let report = e.run_paced(0.1, PacedConfig::new().with_rate(1e9)).unwrap();
        assert_eq!((report.steps, report.samples), (10, 10));
        assert!(!report.batched);
    }

    #[test]
    fn run_paced_with_no_groups_paces_the_event_loop() {
        use crate::pacer::PacedConfig;
        let mut e = event_only_engine();
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
        let mut e = sine_engine(0.01, ThreadPolicy::CurrentThread);
        let start = std::time::Instant::now();
        let report = e.run_paced(0.1, PacedConfig::new().with_rate(10.0)).unwrap();
        assert!(start.elapsed() >= std::time::Duration::from_millis(9), "paced to the clock");
        assert_eq!(report.steps, 10);
        assert_eq!(report.rate, 10.0);
    }
}
