//! Streamer networks: flows, relays, hierarchy, validation and lock-step
//! execution (the realisation of the paper's Figure 2 abstract syntax).

use crate::error::FlowError;
use crate::flowtype::FlowType;
use crate::port::{DPortSpec, Direction, SPortSpec};
use crate::streamer::StreamerBehavior;
use std::collections::VecDeque;
use std::fmt;
use urt_umlrt::message::Message;

/// Identifier of a node (streamer or relay) within a network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(usize);

impl NodeId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0
    }

    /// Reconstructs an id from a raw index (e.g. deserialised configs).
    /// Validity is only checked when the id is used against a network.
    pub fn from_index(index: usize) -> Self {
        NodeId(index)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A pre-resolved reference to one node's output DPort lanes: node index,
/// lane offset and lane width, computed once by
/// [`StreamerNetwork::output_handle`] so per-step reads
/// ([`StreamerNetwork::output_by_handle`]) are pure array indexing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutputHandle {
    node: usize,
    offset: usize,
    width: usize,
}

impl OutputHandle {
    /// Lane count of the referenced port.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Index of the node the handle points into.
    pub fn node(&self) -> usize {
        self.node
    }

    /// Lane offset inside the node's output buffer.
    pub fn offset(&self) -> usize {
        self.offset
    }
}

/// One lane copy of a [`StepPlan`], in *dense per-instance* coordinates:
/// `len` lanes from offset `src` of one dense array to offset `dst` of
/// another (which arrays depends on where the copy appears in the plan).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanCopy {
    /// Source lane offset.
    pub src: usize,
    /// Destination lane offset.
    pub dst: usize,
    /// Number of lanes copied.
    pub len: usize,
}

/// What a [`PlanNode`] executes once its inputs are gathered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanNodeKind {
    /// A streamer behaviour: `advance(t, h, ins, outs)`.
    Streamer,
    /// A relay point: the `in_width` input lanes are copied to each of
    /// the `fanout` output ports.
    Relay {
        /// Input lane count (= width of each duplicated output port).
        in_width: usize,
        /// Number of output ports receiving the copy.
        fanout: usize,
    },
}

/// One node of a [`StepPlan`], in execution order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanNode {
    /// The network node this entry executes.
    pub node: NodeId,
    /// Offset of the node's input lanes in the dense input array.
    pub in_offset: usize,
    /// Input lane count.
    pub in_width: usize,
    /// Offset of the node's output lanes in the dense output array.
    pub out_offset: usize,
    /// Output lane count.
    pub out_width: usize,
    /// Flow copies feeding this node, in flow declaration order:
    /// `src` indexes the dense *output* array, `dst` the dense *input*
    /// array. Executed right before the node, exactly like
    /// [`StreamerNetwork::step`] gathers from upstream out-buffers.
    pub gathers: Vec<PlanCopy>,
    /// Streamer or relay execution.
    pub kind: PlanNodeKind,
}

/// A validated, immutable execution schedule over *dense per-instance
/// state arrays*: every node's input lanes are assigned a contiguous span
/// of one flat input array (and likewise for outputs), flows become
/// offset/length copies between the two arrays, and nodes are listed in
/// the same dependency order [`StreamerNetwork::step`] uses.
///
/// This is the layout metadata ensemble execution runs on: K instances
/// concatenate K copies of these arrays (instance-major) and replay the
/// plan once per instance per macro step, paying the routing bookkeeping
/// once instead of once per instance.
///
/// Produced by [`StreamerNetwork::step_plan`]; a plan is only meaningful
/// against the topology it was computed from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepPlan {
    nodes: Vec<PlanNode>,
    ext_loads: Vec<PlanCopy>,
    in_width: usize,
    out_width: usize,
    ext_in_width: usize,
    out_offsets: Vec<usize>,
}

impl StepPlan {
    /// Plan nodes in execution order.
    pub fn nodes(&self) -> &[PlanNode] {
        &self.nodes
    }

    /// Copies latching exported boundary inputs before the node loop:
    /// `src` indexes the external input vector, `dst` the dense input
    /// array.
    pub fn ext_loads(&self) -> &[PlanCopy] {
        &self.ext_loads
    }

    /// Total dense input lanes per instance.
    pub fn in_width(&self) -> usize {
        self.in_width
    }

    /// Total dense output lanes per instance.
    pub fn out_width(&self) -> usize {
        self.out_width
    }

    /// Width of the external input vector the plan latches from.
    pub fn ext_in_width(&self) -> usize {
        self.ext_in_width
    }

    /// Offset of a node's output lanes in the dense output array, by raw
    /// node index (`None` for an out-of-range index). Combined with
    /// [`OutputHandle::offset`] this locates any output port's lanes.
    pub fn out_offset(&self, node: usize) -> Option<usize> {
        self.out_offsets.get(node).copied()
    }
}

enum NodeKind {
    Streamer(Box<dyn StreamerBehavior>),
    /// "Relay is used as a relay point which generates two similar flows
    /// from a flow" — one input copied to every output port.
    Relay,
}

struct Node {
    name: String,
    kind: NodeKind,
    in_ports: Vec<DPortSpec>,
    out_ports: Vec<DPortSpec>,
    sports: Vec<SPortSpec>,
    parent: Option<usize>,
    in_buf: Vec<f64>,
    out_buf: Vec<f64>,
}

impl Node {
    fn in_port_offset(&self, port_idx: usize) -> usize {
        self.in_ports[..port_idx].iter().map(DPortSpec::width).sum()
    }

    fn out_port_offset(&self, port_idx: usize) -> usize {
        self.out_ports[..port_idx].iter().map(DPortSpec::width).sum()
    }

    fn direct_feedthrough(&self) -> bool {
        match &self.kind {
            NodeKind::Streamer(b) => b.direct_feedthrough(),
            NodeKind::Relay => true,
        }
    }
}

/// A dataflow connection: `(node, output port index)` to
/// `(node, input port index)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Flow {
    from_node: usize,
    from_port: usize,
    to_node: usize,
    to_port: usize,
}

/// A network of streamers and relays connected by typed flows.
///
/// See the crate-level example. The network validates the paper's
/// connection rules and executes all nodes in lock step:
///
/// 1. flows go from output DPorts to input DPorts;
/// 2. the output flow type must be a *subset* of the input flow type;
/// 3. each input DPort has exactly one writer;
/// 4. direct-feedthrough cycles are rejected as algebraic loops.
pub struct StreamerNetwork {
    name: String,
    nodes: Vec<Node>,
    flows: Vec<Flow>,
    order: Vec<usize>,
    time: f64,
    initialized: bool,
    pending_signals: Vec<(NodeId, String, Message)>,
    /// Boundary inputs exported to a parent context: `(node, port index)`.
    ext_inputs: Vec<(usize, usize)>,
    /// Boundary outputs exported to a parent context: `(node, port index)`.
    ext_outputs: Vec<(usize, usize)>,
    ext_in_buf: Vec<f64>,
    /// Scratch lanes reused by [`StreamerNetwork::step`] when moving data
    /// along flows, so the hot loop never allocates.
    flow_scratch: Vec<f64>,
}

impl fmt::Debug for StreamerNetwork {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StreamerNetwork")
            .field("name", &self.name)
            .field("nodes", &self.nodes.len())
            .field("flows", &self.flows.len())
            .field("time", &self.time)
            .finish_non_exhaustive()
    }
}

impl StreamerNetwork {
    /// Creates an empty network.
    pub fn new(name: impl Into<String>) -> Self {
        StreamerNetwork {
            name: name.into(),
            nodes: Vec::new(),
            flows: Vec::new(),
            order: Vec::new(),
            time: 0.0,
            initialized: false,
            pending_signals: Vec::new(),
            ext_inputs: Vec::new(),
            ext_outputs: Vec::new(),
            ext_in_buf: Vec::new(),
            flow_scratch: Vec::new(),
        }
    }

    /// Network name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of nodes (streamers + relays).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of flows.
    pub fn flow_count(&self) -> usize {
        self.flows.len()
    }

    /// Current simulation time.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Adds a streamer with the given input and output DPorts.
    ///
    /// # Errors
    ///
    /// * [`FlowError::DuplicateName`] if the behaviour name is taken.
    /// * [`FlowError::WidthMismatch`] if the DPort lanes do not match the
    ///   behaviour's declared widths.
    pub fn add_streamer(
        &mut self,
        behavior: impl StreamerBehavior + 'static,
        in_ports: &[(&str, FlowType)],
        out_ports: &[(&str, FlowType)],
    ) -> Result<NodeId, FlowError> {
        self.add_streamer_boxed(Box::new(behavior), in_ports, out_ports)
    }

    /// Type-erased variant of [`StreamerNetwork::add_streamer`].
    ///
    /// # Errors
    ///
    /// Same as [`StreamerNetwork::add_streamer`].
    pub fn add_streamer_boxed(
        &mut self,
        behavior: Box<dyn StreamerBehavior>,
        in_ports: &[(&str, FlowType)],
        out_ports: &[(&str, FlowType)],
    ) -> Result<NodeId, FlowError> {
        let name = behavior.name().to_owned();
        if self.nodes.iter().any(|n| n.name == name) {
            return Err(FlowError::DuplicateName { name });
        }
        let ins: Vec<DPortSpec> =
            in_ports.iter().map(|(n, t)| DPortSpec::new(*n, Direction::In, t.clone())).collect();
        let outs: Vec<DPortSpec> =
            out_ports.iter().map(|(n, t)| DPortSpec::new(*n, Direction::Out, t.clone())).collect();
        let in_width: usize = ins.iter().map(DPortSpec::width).sum();
        let out_width: usize = outs.iter().map(DPortSpec::width).sum();
        if in_width != behavior.input_width() {
            return Err(FlowError::WidthMismatch {
                node: name,
                expected: in_width,
                found: behavior.input_width(),
            });
        }
        if out_width != behavior.output_width() {
            return Err(FlowError::WidthMismatch {
                node: name,
                expected: out_width,
                found: behavior.output_width(),
            });
        }
        self.nodes.push(Node {
            name,
            kind: NodeKind::Streamer(behavior),
            in_ports: ins,
            out_ports: outs,
            sports: Vec::new(),
            parent: None,
            in_buf: vec![0.0; in_width],
            out_buf: vec![0.0; out_width],
        });
        self.initialized = false;
        Ok(NodeId(self.nodes.len() - 1))
    }

    /// Adds a relay point that duplicates one flow into `fanout` similar
    /// flows (paper: "generates two similar flows from a flow").
    ///
    /// The relay has one input DPort `in` and outputs `out0..out{n-1}`, all
    /// carrying `flow_type`.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::DuplicateName`] if the name is taken.
    pub fn add_relay(
        &mut self,
        name: impl Into<String>,
        flow_type: FlowType,
        fanout: usize,
    ) -> Result<NodeId, FlowError> {
        let name = name.into();
        if self.nodes.iter().any(|n| n.name == name) {
            return Err(FlowError::DuplicateName { name });
        }
        let width = flow_type.width();
        let ins = vec![DPortSpec::new("in", Direction::In, flow_type.clone())];
        let outs: Vec<DPortSpec> = (0..fanout)
            .map(|i| DPortSpec::new(format!("out{i}"), Direction::Out, flow_type.clone()))
            .collect();
        self.nodes.push(Node {
            name,
            kind: NodeKind::Relay,
            in_ports: ins,
            out_ports: outs,
            sports: Vec::new(),
            parent: None,
            in_buf: vec![0.0; width],
            out_buf: vec![0.0; width * fanout],
        });
        self.initialized = false;
        Ok(NodeId(self.nodes.len() - 1))
    }

    /// Declares an SPort on a node.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::UnknownNode`] for a bad id.
    pub fn add_sport(&mut self, node: NodeId, sport: SPortSpec) -> Result<(), FlowError> {
        let n = self.nodes.get_mut(node.0).ok_or(FlowError::UnknownNode { index: node.0 })?;
        n.sports.push(sport);
        Ok(())
    }

    /// Declares `child` a sub-streamer of `parent` (paper Figure 2).
    ///
    /// # Errors
    ///
    /// * [`FlowError::UnknownNode`] for bad ids.
    /// * [`FlowError::BadHierarchy`] on self-parenting or cycles.
    pub fn set_parent(&mut self, child: NodeId, parent: NodeId) -> Result<(), FlowError> {
        if child.0 >= self.nodes.len() {
            return Err(FlowError::UnknownNode { index: child.0 });
        }
        if parent.0 >= self.nodes.len() {
            return Err(FlowError::UnknownNode { index: parent.0 });
        }
        if child == parent {
            return Err(FlowError::BadHierarchy { detail: "self-parenting".into() });
        }
        // Walk up from `parent`; hitting `child` would close a cycle.
        let mut cur = Some(parent.0);
        while let Some(i) = cur {
            if i == child.0 {
                return Err(FlowError::BadHierarchy {
                    detail: format!("cycle through `{}`", self.nodes[child.0].name),
                });
            }
            cur = self.nodes[i].parent;
        }
        self.nodes[child.0].parent = Some(parent.0);
        Ok(())
    }

    /// Children of a node in the sub-streamer hierarchy.
    pub fn children(&self, parent: NodeId) -> Vec<NodeId> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.parent == Some(parent.0))
            .map(|(i, _)| NodeId(i))
            .collect()
    }

    /// Node name lookup.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::UnknownNode`] for a bad id.
    pub fn node_name(&self, node: NodeId) -> Result<&str, FlowError> {
        self.nodes
            .get(node.0)
            .map(|n| n.name.as_str())
            .ok_or(FlowError::UnknownNode { index: node.0 })
    }

    fn find_port(
        &self,
        node: NodeId,
        port: &str,
        direction: Direction,
    ) -> Result<usize, FlowError> {
        let n = self.nodes.get(node.0).ok_or(FlowError::UnknownNode { index: node.0 })?;
        let ports = match direction {
            Direction::In => &n.in_ports,
            Direction::Out => &n.out_ports,
        };
        ports
            .iter()
            .position(|p| p.name() == port)
            .ok_or_else(|| FlowError::UnknownPort { node: n.name.clone(), port: port.to_owned() })
    }

    /// Connects an output DPort to an input DPort, enforcing the paper's
    /// subset rule and single-writer discipline.
    ///
    /// # Errors
    ///
    /// * [`FlowError::UnknownNode`] / [`FlowError::UnknownPort`].
    /// * [`FlowError::TypeMismatch`] if the output flow type is not a
    ///   subset of the input flow type.
    /// * [`FlowError::MultipleWriters`] if the input is already driven.
    pub fn flow(&mut self, from: (NodeId, &str), to: (NodeId, &str)) -> Result<(), FlowError> {
        let from_port = self.find_port(from.0, from.1, Direction::Out)?;
        let to_port = self.find_port(to.0, to.1, Direction::In)?;
        let src = &self.nodes[from.0 .0].out_ports[from_port];
        let dst = &self.nodes[to.0 .0].in_ports[to_port];
        if let Some(detail) = src.flow_type().subset_failure(dst.flow_type()) {
            return Err(FlowError::TypeMismatch {
                from: format!("{}.{}", self.nodes[from.0 .0].name, from.1),
                to: format!("{}.{}", self.nodes[to.0 .0].name, to.1),
                detail,
            });
        }
        if self.flows.iter().any(|f| f.to_node == to.0 .0 && f.to_port == to_port) {
            return Err(FlowError::MultipleWriters {
                node: self.nodes[to.0 .0].name.clone(),
                port: to.1.to_owned(),
            });
        }
        self.flows.push(Flow { from_node: from.0 .0, from_port, to_node: to.0 .0, to_port });
        self.initialized = false;
        Ok(())
    }

    /// Exports a node's input DPort to the parent context: the port is
    /// driven from outside via [`StreamerNetwork::set_external_inputs`],
    /// making this network usable as a composite sub-streamer (Figure 2).
    /// Returns the lane offset inside the external input vector.
    ///
    /// # Errors
    ///
    /// * Unknown node/port errors.
    /// * [`FlowError::MultipleWriters`] if the port is already driven.
    pub fn export_input(&mut self, node: NodeId, port: &str) -> Result<usize, FlowError> {
        let pi = self.find_port(node, port, Direction::In)?;
        if self.flows.iter().any(|f| f.to_node == node.0 && f.to_port == pi)
            || self.ext_inputs.contains(&(node.0, pi))
        {
            return Err(FlowError::MultipleWriters {
                node: self.nodes[node.0].name.clone(),
                port: port.to_owned(),
            });
        }
        let offset = self.ext_in_buf.len();
        let width = self.nodes[node.0].in_ports[pi].width();
        self.ext_inputs.push((node.0, pi));
        self.ext_in_buf.extend(std::iter::repeat_n(0.0, width));
        self.initialized = false;
        Ok(offset)
    }

    /// Exports a node's output DPort to the parent context (read back with
    /// [`StreamerNetwork::external_outputs`]). Returns the lane offset.
    ///
    /// # Errors
    ///
    /// Unknown node/port errors.
    pub fn export_output(&mut self, node: NodeId, port: &str) -> Result<usize, FlowError> {
        let pi = self.find_port(node, port, Direction::Out)?;
        let offset: usize =
            self.ext_outputs.iter().map(|&(n, p)| self.nodes[n].out_ports[p].width()).sum();
        self.ext_outputs.push((node.0, pi));
        Ok(offset)
    }

    /// Total lane width of exported inputs.
    pub fn external_input_width(&self) -> usize {
        self.ext_in_buf.len()
    }

    /// Total lane width of exported outputs.
    pub fn external_output_width(&self) -> usize {
        self.ext_outputs.iter().map(|&(n, p)| self.nodes[n].out_ports[p].width()).sum()
    }

    /// Latches the external input lanes for the next step.
    ///
    /// # Panics
    ///
    /// Panics if `u.len()` differs from the exported input width.
    pub fn set_external_inputs(&mut self, u: &[f64]) {
        assert_eq!(u.len(), self.ext_in_buf.len(), "external input width mismatch");
        self.ext_in_buf.copy_from_slice(u);
    }

    /// Reads the exported output lanes after a step.
    pub fn external_outputs(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.external_output_width());
        for &(n, p) in &self.ext_outputs {
            let node = &self.nodes[n];
            let off = node.out_port_offset(p);
            let w = node.out_ports[p].width();
            out.extend_from_slice(&node.out_buf[off..off + w]);
        }
        out
    }

    /// Whether a same-step path leads from an exported input to an
    /// exported output through direct-feedthrough nodes only (used when
    /// this network is packaged as a composite sub-streamer).
    pub fn has_external_feedthrough(&self) -> bool {
        let n = self.nodes.len();
        let mut tainted = vec![false; n];
        let mut queue: VecDeque<usize> = VecDeque::new();
        for &(i, _) in &self.ext_inputs {
            if self.nodes[i].direct_feedthrough() && !tainted[i] {
                tainted[i] = true;
                queue.push_back(i);
            }
        }
        while let Some(u) = queue.pop_front() {
            for f in &self.flows {
                if f.from_node == u
                    && self.nodes[f.to_node].direct_feedthrough()
                    && !tainted[f.to_node]
                {
                    tainted[f.to_node] = true;
                    queue.push_back(f.to_node);
                }
            }
        }
        self.ext_outputs.iter().any(|&(i, _)| tainted[i])
    }

    /// Collects **all** structural violations instead of failing fast:
    /// every undriven input DPort plus any direct-feedthrough cycle. This
    /// is the network half of the `urt_analysis` analyzer;
    /// [`StreamerNetwork::validate`] is a thin wrapper that fails on the
    /// first entry.
    pub fn lint(&self) -> Vec<FlowError> {
        let mut found = Vec::new();
        for (i, node) in self.nodes.iter().enumerate() {
            for (pi, port) in node.in_ports.iter().enumerate() {
                let driven = self.flows.iter().any(|f| f.to_node == i && f.to_port == pi)
                    || self.ext_inputs.contains(&(i, pi));
                if !driven {
                    found.push(FlowError::UnconnectedInput {
                        node: node.name.clone(),
                        port: port.name().to_owned(),
                    });
                }
            }
        }
        if let Some(nodes) = self.feedthrough_cycle() {
            found.push(FlowError::AlgebraicLoop { nodes });
        }
        found
    }

    /// Validates the whole network: every input driven (by a flow or an
    /// export), no algebraic loops. Computes the execution order as a side
    /// effect. Runs the collecting analyzer ([`StreamerNetwork::lint`])
    /// and fails on its first finding.
    ///
    /// # Errors
    ///
    /// * [`FlowError::UnconnectedInput`] for an undriven input DPort.
    /// * [`FlowError::AlgebraicLoop`] for a direct-feedthrough cycle.
    pub fn validate(&mut self) -> Result<(), FlowError> {
        if let Some(first) = self.lint().into_iter().next() {
            return Err(first);
        }
        self.order = self.compute_order()?;
        Ok(())
    }

    /// Runs Kahn's algorithm over *feedthrough-relevant* edges: an edge
    /// constrains order only if the downstream node has direct
    /// feedthrough; integrator-like nodes may consume last-step values.
    /// Returns `(order, leftover-indegrees)`; nodes with a positive
    /// leftover indegree sit on a direct-feedthrough cycle.
    fn kahn(&self) -> (Vec<usize>, Vec<usize>) {
        let n = self.nodes.len();
        let mut indeg = vec![0usize; n];
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        for f in &self.flows {
            if self.nodes[f.to_node].direct_feedthrough() && f.from_node != f.to_node {
                adj[f.from_node].push(f.to_node);
                indeg[f.to_node] += 1;
            }
        }
        let mut queue: VecDeque<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(u) = queue.pop_front() {
            order.push(u);
            for &v in &adj[u] {
                indeg[v] -= 1;
                if indeg[v] == 0 {
                    queue.push_back(v);
                }
            }
        }
        (order, indeg)
    }

    /// Names of the nodes on a direct-feedthrough cycle, if any — the
    /// cycle finder shared by [`StreamerNetwork::lint`] and the execution
    /// order computation.
    pub fn feedthrough_cycle(&self) -> Option<Vec<String>> {
        let (order, indeg) = self.kahn();
        if order.len() == self.nodes.len() {
            return None;
        }
        Some(
            (0..self.nodes.len())
                .filter(|&i| indeg[i] > 0)
                .map(|i| self.nodes[i].name.clone())
                .collect(),
        )
    }

    fn compute_order(&self) -> Result<Vec<usize>, FlowError> {
        let (order, indeg) = self.kahn();
        if order.len() != self.nodes.len() {
            let cycle: Vec<String> = (0..self.nodes.len())
                .filter(|&i| indeg[i] > 0)
                .map(|i| self.nodes[i].name.clone())
                .collect();
            return Err(FlowError::AlgebraicLoop { nodes: cycle });
        }
        Ok(order)
    }

    /// Initialises all behaviours at `t0`.
    ///
    /// # Errors
    ///
    /// Propagates validation and solver-initialisation failures.
    pub fn initialize(&mut self, t0: f64) -> Result<(), FlowError> {
        if self.order.len() != self.nodes.len() {
            self.validate()?;
        }
        self.time = t0;
        for node in &mut self.nodes {
            if let NodeKind::Streamer(b) = &mut node.kind {
                b.initialize(t0)?;
            }
        }
        self.initialized = true;
        Ok(())
    }

    /// Advances every node by `h` seconds in dependency order, moving data
    /// along flows, and collects emitted SPort signals.
    ///
    /// # Errors
    ///
    /// * [`FlowError::Solve`] on solver failure.
    /// * Validation errors if the topology changed since `initialize`.
    pub fn step(&mut self, h: f64) -> Result<(), FlowError> {
        if !self.initialized {
            self.initialize(self.time)?;
        }
        // Latch exported boundary inputs into their nodes.
        let mut cursor = 0;
        for &(n, p) in &self.ext_inputs {
            let node = &mut self.nodes[n];
            let off = node.in_port_offset(p);
            let w = node.in_ports[p].width();
            node.in_buf[off..off + w].copy_from_slice(&self.ext_in_buf[cursor..cursor + w]);
            cursor += w;
        }
        let order = std::mem::take(&mut self.order);
        let mut scratch = std::mem::take(&mut self.flow_scratch);
        for &i in &order {
            // Gather inputs from upstream out-buffers (via the reusable
            // scratch, since source and destination may be the same node).
            for f in &self.flows {
                if f.to_node != i {
                    continue;
                }
                let src = &self.nodes[f.from_node];
                let off_src = src.out_port_offset(f.from_port);
                let w = src.out_ports[f.from_port].width();
                scratch.clear();
                scratch.extend_from_slice(&src.out_buf[off_src..off_src + w]);
                let dst = &mut self.nodes[f.to_node];
                let off_dst = dst.in_port_offset(f.to_port);
                dst.in_buf[off_dst..off_dst + w].copy_from_slice(&scratch);
            }
            let t = self.time;
            let node = &mut self.nodes[i];
            match &mut node.kind {
                NodeKind::Streamer(b) => {
                    // Split borrows of in/out buffers.
                    let in_buf = std::mem::take(&mut node.in_buf);
                    let result = b.advance(t, h, &in_buf, &mut node.out_buf);
                    node.in_buf = in_buf;
                    if let Err(e) = result {
                        self.order = order;
                        self.flow_scratch = scratch;
                        return Err(e.into());
                    }
                    for (sport, msg) in b.take_emitted() {
                        self.pending_signals.push((NodeId(i), sport, msg));
                    }
                }
                NodeKind::Relay => {
                    // in_buf and out_buf are disjoint fields, so the lanes
                    // copy straight across without a temporary.
                    let w = node.in_buf.len();
                    for k in 0..node.out_ports.len() {
                        node.out_buf[k * w..(k + 1) * w].copy_from_slice(&node.in_buf);
                    }
                }
            }
        }
        self.order = order;
        self.flow_scratch = scratch;
        self.time += h;
        Ok(())
    }

    /// Reads the current lanes of an output DPort.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::UnknownNode`] / [`FlowError::UnknownPort`].
    pub fn output(&self, node: NodeId, port: &str) -> Result<&[f64], FlowError> {
        let pi = self.find_port(node, port, Direction::Out)?;
        let n = &self.nodes[node.0];
        let off = n.out_port_offset(pi);
        let w = n.out_ports[pi].width();
        Ok(&n.out_buf[off..off + w])
    }

    /// Resolves `(node, port)` to a reusable [`OutputHandle`] — the
    /// string lookup happens once here, so per-step readers
    /// ([`StreamerNetwork::output_by_handle`]) index straight into the
    /// node's output buffer with no name comparison.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::UnknownNode`] / [`FlowError::UnknownPort`].
    pub fn output_handle(&self, node: NodeId, port: &str) -> Result<OutputHandle, FlowError> {
        let pi = self.find_port(node, port, Direction::Out)?;
        let n = &self.nodes[node.0];
        let off = n.out_port_offset(pi);
        Ok(OutputHandle { node: node.0, offset: off, width: n.out_ports[pi].width() })
    }

    /// Reads the current lanes of an output DPort through a handle
    /// resolved by [`StreamerNetwork::output_handle`] — pure array
    /// indexing, the hot-path form of [`StreamerNetwork::output`].
    ///
    /// # Panics
    ///
    /// Panics if the handle was resolved against a different network.
    pub fn output_by_handle(&self, h: &OutputHandle) -> &[f64] {
        &self.nodes[h.node].out_buf[h.offset..h.offset + h.width]
    }

    /// Computes the dense-layout execution schedule of this network (see
    /// [`StepPlan`]). Unlike [`StreamerNetwork::validate`] this takes
    /// `&self`: lint and order run without caching, so a plan can be
    /// taken from a network owned elsewhere (e.g. a compiled system
    /// borrowed by an ensemble).
    ///
    /// # Errors
    ///
    /// The same structural errors as [`StreamerNetwork::validate`]:
    /// undriven inputs and direct-feedthrough cycles.
    pub fn step_plan(&self) -> Result<StepPlan, FlowError> {
        if let Some(first) = self.lint().into_iter().next() {
            return Err(first);
        }
        let order = self.compute_order()?;

        // Dense per-instance layout: node i's buffers occupy contiguous
        // spans at prefix-sum offsets, in node-index (not execution)
        // order, so offsets are stable under re-planning.
        let mut in_offsets = Vec::with_capacity(self.nodes.len());
        let mut out_offsets = Vec::with_capacity(self.nodes.len());
        let mut in_width = 0;
        let mut out_width = 0;
        for node in &self.nodes {
            in_offsets.push(in_width);
            out_offsets.push(out_width);
            in_width += node.in_buf.len();
            out_width += node.out_buf.len();
        }

        let mut ext_loads = Vec::with_capacity(self.ext_inputs.len());
        let mut cursor = 0;
        for &(n, p) in &self.ext_inputs {
            let node = &self.nodes[n];
            let w = node.in_ports[p].width();
            ext_loads.push(PlanCopy {
                src: cursor,
                dst: in_offsets[n] + node.in_port_offset(p),
                len: w,
            });
            cursor += w;
        }

        let nodes = order
            .iter()
            .map(|&i| {
                let node = &self.nodes[i];
                let gathers = self
                    .flows
                    .iter()
                    .filter(|f| f.to_node == i)
                    .map(|f| {
                        let src_node = &self.nodes[f.from_node];
                        PlanCopy {
                            src: out_offsets[f.from_node] + src_node.out_port_offset(f.from_port),
                            dst: in_offsets[i] + node.in_port_offset(f.to_port),
                            len: src_node.out_ports[f.from_port].width(),
                        }
                    })
                    .collect();
                PlanNode {
                    node: NodeId(i),
                    in_offset: in_offsets[i],
                    in_width: node.in_buf.len(),
                    out_offset: out_offsets[i],
                    out_width: node.out_buf.len(),
                    gathers,
                    kind: match &node.kind {
                        NodeKind::Streamer(_) => PlanNodeKind::Streamer,
                        NodeKind::Relay => PlanNodeKind::Relay {
                            in_width: node.in_buf.len(),
                            fanout: node.out_ports.len(),
                        },
                    },
                }
            })
            .collect();

        Ok(StepPlan {
            nodes,
            ext_loads,
            in_width,
            out_width,
            ext_in_width: self.ext_in_buf.len(),
            out_offsets,
        })
    }

    /// Consumes the network into its [`StepPlan`] plus the behaviours of
    /// its streamer nodes in plan order, one per
    /// [`PlanNodeKind::Streamer`] entry (relays carry none) — for an
    /// executor that replays the plan over its own state arrays.
    ///
    /// # Errors
    ///
    /// The same structural errors as [`StreamerNetwork::step_plan`].
    pub fn into_plan(self) -> Result<(StepPlan, Vec<Box<dyn StreamerBehavior>>), FlowError> {
        let plan = self.step_plan()?;
        let mut nodes = self.nodes;
        let behaviours = plan
            .nodes()
            .iter()
            .filter_map(|pn| match std::mem::replace(&mut nodes[pn.node.0].kind, NodeKind::Relay) {
                NodeKind::Streamer(b) => Some(b),
                NodeKind::Relay => None,
            })
            .collect();
        Ok((plan, behaviours))
    }

    /// Delivers a signal message to a node's behaviour (as if it arrived on
    /// one of its SPorts).
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::UnknownNode`] for a bad id.
    pub fn send_signal(&mut self, node: NodeId, msg: &Message) -> Result<(), FlowError> {
        let n = self.nodes.get_mut(node.0).ok_or(FlowError::UnknownNode { index: node.0 })?;
        if let NodeKind::Streamer(b) = &mut n.kind {
            b.on_signal(msg);
        }
        Ok(())
    }

    /// Drains signals emitted by behaviours since the last drain, as
    /// `(node, sport, message)` triples.
    ///
    /// Allocates a fresh vector per call; hot paths should prefer
    /// [`StreamerNetwork::drain_signals_into`].
    pub fn drain_signals(&mut self) -> Vec<(NodeId, String, Message)> {
        std::mem::take(&mut self.pending_signals)
    }

    /// Appends all pending signals to `out`, reusing both the caller's
    /// buffer and the internal queue's capacity — the allocation-free form
    /// of [`StreamerNetwork::drain_signals`] used by the engine hot path.
    pub fn drain_signals_into(&mut self, out: &mut Vec<(NodeId, String, Message)>) {
        out.append(&mut self.pending_signals);
    }

    /// Iterates over `(id, name)` of all nodes.
    pub fn iter_nodes(&self) -> impl Iterator<Item = (NodeId, &str)> {
        self.nodes.iter().enumerate().map(|(i, n)| (NodeId(i), n.name.as_str()))
    }

    /// SPorts declared on a node.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::UnknownNode`] for a bad id.
    pub fn sports(&self, node: NodeId) -> Result<&[SPortSpec], FlowError> {
        self.nodes
            .get(node.0)
            .map(|n| n.sports.as_slice())
            .ok_or(FlowError::UnknownNode { index: node.0 })
    }

    /// Iterates over all flows as `((from node, out port), (to node, in
    /// port))` — read-only topology access for static analysis.
    pub fn iter_flows(&self) -> impl Iterator<Item = ((NodeId, &str), (NodeId, &str))> {
        self.flows.iter().map(|f| {
            (
                (NodeId(f.from_node), self.nodes[f.from_node].out_ports[f.from_port].name()),
                (NodeId(f.to_node), self.nodes[f.to_node].in_ports[f.to_port].name()),
            )
        })
    }

    /// Input DPorts of a node.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::UnknownNode`] for a bad id.
    pub fn in_ports(&self, node: NodeId) -> Result<&[DPortSpec], FlowError> {
        self.nodes
            .get(node.0)
            .map(|n| n.in_ports.as_slice())
            .ok_or(FlowError::UnknownNode { index: node.0 })
    }

    /// Output DPorts of a node.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::UnknownNode`] for a bad id.
    pub fn out_ports(&self, node: NodeId) -> Result<&[DPortSpec], FlowError> {
        self.nodes
            .get(node.0)
            .map(|n| n.out_ports.as_slice())
            .ok_or(FlowError::UnknownNode { index: node.0 })
    }

    /// Whether a node is a relay point (as opposed to a streamer).
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::UnknownNode`] for a bad id.
    pub fn is_relay(&self, node: NodeId) -> Result<bool, FlowError> {
        self.nodes
            .get(node.0)
            .map(|n| matches!(n.kind, NodeKind::Relay))
            .ok_or(FlowError::UnknownNode { index: node.0 })
    }

    /// Whether a node has direct feedthrough (relays always do).
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::UnknownNode`] for a bad id.
    pub fn node_feedthrough(&self, node: NodeId) -> Result<bool, FlowError> {
        self.nodes
            .get(node.0)
            .map(Node::direct_feedthrough)
            .ok_or(FlowError::UnknownNode { index: node.0 })
    }

    /// Input DPorts exported to the parent context, as `(node, port)`.
    pub fn exported_inputs(&self) -> Vec<(NodeId, &str)> {
        self.ext_inputs
            .iter()
            .map(|&(n, p)| (NodeId(n), self.nodes[n].in_ports[p].name()))
            .collect()
    }

    /// Output DPorts exported to the parent context, as `(node, port)`.
    pub fn exported_outputs(&self) -> Vec<(NodeId, &str)> {
        self.ext_outputs
            .iter()
            .map(|&(n, p)| (NodeId(n), self.nodes[n].out_ports[p].name()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flowtype::Unit;
    use crate::streamer::FnStreamer;
    use urt_umlrt::protocol::Protocol;

    fn source(name: &str) -> impl StreamerBehavior {
        FnStreamer::new(name, 0, 1, |t: f64, _h, _u: &[f64], y: &mut [f64]| y[0] = t)
    }

    fn gain(name: &str, k: f64) -> impl StreamerBehavior {
        FnStreamer::new(name, 1, 1, move |_t, _h, u: &[f64], y: &mut [f64]| y[0] = k * u[0])
    }

    #[test]
    fn build_and_step_chain() {
        let mut net = StreamerNetwork::new("chain");
        let s = net.add_streamer(source("src"), &[], &[("o", FlowType::scalar())]).unwrap();
        let g = net
            .add_streamer(
                gain("g", 3.0),
                &[("i", FlowType::scalar())],
                &[("o", FlowType::scalar())],
            )
            .unwrap();
        net.flow((s, "o"), (g, "i")).unwrap();
        net.validate().unwrap();
        net.initialize(0.0).unwrap();
        net.step(1.0).unwrap();
        net.step(1.0).unwrap();
        // Second step: src emitted t=1.0 (start-of-step time), gain saw it.
        assert_eq!(net.output(g, "o").unwrap()[0], 3.0);
        assert_eq!(net.time(), 2.0);
        assert_eq!(net.node_count(), 2);
        assert_eq!(net.flow_count(), 1);
    }

    #[test]
    fn subset_rule_enforced_on_flow() {
        let mut net = StreamerNetwork::new("t");
        let a = net
            .add_streamer(
                FnStreamer::new("a", 0, 1, |_t, _h, _u: &[f64], y: &mut [f64]| y[0] = 1.0),
                &[],
                &[("o", FlowType::with_unit(Unit::Meter))],
            )
            .unwrap();
        let b = net
            .add_streamer(
                gain("b", 1.0),
                &[("i", FlowType::with_unit(Unit::Kelvin))],
                &[("o", FlowType::scalar())],
            )
            .unwrap();
        let err = net.flow((a, "o"), (b, "i")).unwrap_err();
        assert!(matches!(err, FlowError::TypeMismatch { .. }));
        // Any on the input side accepts.
        let c = net
            .add_streamer(
                gain("c", 1.0),
                &[("i", FlowType::with_unit(Unit::Any))],
                &[("o", FlowType::scalar())],
            )
            .unwrap();
        assert!(net.flow((a, "o"), (c, "i")).is_ok());
    }

    #[test]
    fn single_writer_enforced() {
        let mut net = StreamerNetwork::new("t");
        let a = net.add_streamer(source("a"), &[], &[("o", FlowType::scalar())]).unwrap();
        let b = net.add_streamer(source("b"), &[], &[("o", FlowType::scalar())]).unwrap();
        let g = net
            .add_streamer(
                gain("g", 1.0),
                &[("i", FlowType::scalar())],
                &[("o", FlowType::scalar())],
            )
            .unwrap();
        net.flow((a, "o"), (g, "i")).unwrap();
        let err = net.flow((b, "o"), (g, "i")).unwrap_err();
        assert!(matches!(err, FlowError::MultipleWriters { .. }));
    }

    #[test]
    fn unconnected_input_rejected() {
        let mut net = StreamerNetwork::new("t");
        net.add_streamer(
            gain("g", 1.0),
            &[("i", FlowType::scalar())],
            &[("o", FlowType::scalar())],
        )
        .unwrap();
        assert!(matches!(net.validate(), Err(FlowError::UnconnectedInput { .. })));
    }

    #[test]
    fn lint_collects_every_unconnected_input() {
        // Regression: validate used to stop at the first undriven input,
        // so a user fixed one port per run. lint() surfaces all of them.
        let mut net = StreamerNetwork::new("t");
        net.add_streamer(
            FnStreamer::new("g2", 2, 1, |_t, _h, _u: &[f64], y: &mut [f64]| y[0] = 0.0),
            &[("i1", FlowType::scalar()), ("i2", FlowType::scalar())],
            &[("o", FlowType::scalar())],
        )
        .unwrap();
        let found = net.lint();
        let undriven: Vec<&str> = found
            .iter()
            .filter_map(|e| match e {
                FlowError::UnconnectedInput { port, .. } => Some(port.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(undriven, vec!["i1", "i2"], "both undriven inputs are reported");
        // validate still fails on the first one.
        assert!(
            matches!(net.validate(), Err(FlowError::UnconnectedInput { port, .. }) if port == "i1")
        );
    }

    #[test]
    fn introspection_reflects_topology() {
        let mut net = StreamerNetwork::new("t");
        let s = net.add_streamer(source("s"), &[], &[("o", FlowType::scalar())]).unwrap();
        let r = net.add_relay("r", FlowType::scalar(), 1).unwrap();
        net.flow((s, "o"), (r, "in")).unwrap();
        net.export_output(r, "out0").unwrap();
        let flows: Vec<_> = net.iter_flows().collect();
        assert_eq!(flows, vec![((s, "o"), (r, "in"))]);
        assert!(net.is_relay(r).unwrap());
        assert!(!net.is_relay(s).unwrap());
        assert!(net.node_feedthrough(r).unwrap());
        assert_eq!(net.in_ports(r).unwrap().len(), 1);
        assert_eq!(net.out_ports(s).unwrap().len(), 1);
        assert_eq!(net.exported_outputs(), vec![(r, "out0")]);
        assert!(net.exported_inputs().is_empty());
        assert!(net.feedthrough_cycle().is_none());
    }

    #[test]
    fn width_mismatch_rejected() {
        let mut net = StreamerNetwork::new("t");
        let err = net
            .add_streamer(
                gain("g", 1.0),
                &[("i", FlowType::vector(2))],
                &[("o", FlowType::scalar())],
            )
            .unwrap_err();
        assert!(matches!(err, FlowError::WidthMismatch { expected: 2, found: 1, .. }));
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut net = StreamerNetwork::new("t");
        net.add_streamer(source("x"), &[], &[("o", FlowType::scalar())]).unwrap();
        let err = net.add_streamer(source("x"), &[], &[("o", FlowType::scalar())]).unwrap_err();
        assert!(matches!(err, FlowError::DuplicateName { .. }));
        net.add_relay("r", FlowType::scalar(), 2).unwrap();
        assert!(matches!(
            net.add_relay("r", FlowType::scalar(), 2),
            Err(FlowError::DuplicateName { .. })
        ));
    }

    #[test]
    fn relay_duplicates_flow() {
        let mut net = StreamerNetwork::new("t");
        let s = net.add_streamer(source("s"), &[], &[("o", FlowType::scalar())]).unwrap();
        let r = net.add_relay("r", FlowType::scalar(), 2).unwrap();
        let g1 = net
            .add_streamer(
                gain("g1", 2.0),
                &[("i", FlowType::scalar())],
                &[("o", FlowType::scalar())],
            )
            .unwrap();
        let g2 = net
            .add_streamer(
                gain("g2", 5.0),
                &[("i", FlowType::scalar())],
                &[("o", FlowType::scalar())],
            )
            .unwrap();
        net.flow((s, "o"), (r, "in")).unwrap();
        net.flow((r, "out0"), (g1, "i")).unwrap();
        net.flow((r, "out1"), (g2, "i")).unwrap();
        net.initialize(0.0).unwrap();
        net.step(1.0).unwrap();
        net.step(1.0).unwrap();
        let v1 = net.output(g1, "o").unwrap()[0];
        let v2 = net.output(g2, "o").unwrap()[0];
        assert_eq!(v1, 2.0);
        assert_eq!(v2, 5.0);
    }

    #[test]
    fn algebraic_loop_detected() {
        let mut net = StreamerNetwork::new("t");
        let a = net
            .add_streamer(
                gain("a", 1.0),
                &[("i", FlowType::scalar())],
                &[("o", FlowType::scalar())],
            )
            .unwrap();
        let b = net
            .add_streamer(
                gain("b", 1.0),
                &[("i", FlowType::scalar())],
                &[("o", FlowType::scalar())],
            )
            .unwrap();
        net.flow((a, "o"), (b, "i")).unwrap();
        net.flow((b, "o"), (a, "i")).unwrap();
        let err = net.validate().unwrap_err();
        match err {
            FlowError::AlgebraicLoop { nodes } => {
                assert_eq!(nodes.len(), 2);
            }
            other => panic!("expected algebraic loop, got {other}"),
        }
    }

    #[test]
    fn non_feedthrough_breaks_loop() {
        // a -> lag -> a is fine because the lag is not direct feedthrough.
        struct Lag {
            state: f64,
        }
        impl StreamerBehavior for Lag {
            fn name(&self) -> &str {
                "lag"
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
                h: f64,
                u: &[f64],
                y: &mut [f64],
            ) -> Result<(), urt_ode::SolveError> {
                y[0] = self.state;
                self.state += h * (u[0] - self.state);
                Ok(())
            }
        }
        let mut net = StreamerNetwork::new("t");
        let a = net
            .add_streamer(
                gain("a", 0.5),
                &[("i", FlowType::scalar())],
                &[("o", FlowType::scalar())],
            )
            .unwrap();
        let l = net
            .add_streamer(
                Lag { state: 1.0 },
                &[("i", FlowType::scalar())],
                &[("o", FlowType::scalar())],
            )
            .unwrap();
        net.flow((a, "o"), (l, "i")).unwrap();
        net.flow((l, "o"), (a, "i")).unwrap();
        net.validate().unwrap();
        net.initialize(0.0).unwrap();
        for _ in 0..10 {
            net.step(0.1).unwrap();
        }
        assert!(net.output(l, "o").unwrap()[0].is_finite());
    }

    #[test]
    fn hierarchy_rules() {
        let mut net = StreamerNetwork::new("t");
        let top = net.add_streamer(source("top"), &[], &[("o", FlowType::scalar())]).unwrap();
        let sub = net.add_streamer(source("sub"), &[], &[("o", FlowType::scalar())]).unwrap();
        let subsub = net.add_streamer(source("subsub"), &[], &[("o", FlowType::scalar())]).unwrap();
        net.set_parent(sub, top).unwrap();
        net.set_parent(subsub, sub).unwrap();
        assert_eq!(net.children(top), vec![sub]);
        assert_eq!(net.children(sub), vec![subsub]);
        assert!(matches!(net.set_parent(top, top), Err(FlowError::BadHierarchy { .. })));
        assert!(matches!(net.set_parent(top, subsub), Err(FlowError::BadHierarchy { .. })));
    }

    #[test]
    fn sports_and_signals() {
        let mut net = StreamerNetwork::new("t");
        let s = net.add_streamer(source("s"), &[], &[("o", FlowType::scalar())]).unwrap();
        net.add_sport(s, SPortSpec::new("ctl", Protocol::new("Ctl"))).unwrap();
        assert_eq!(net.sports(s).unwrap().len(), 1);
        // Signals to FnStreamer are accepted and ignored.
        net.send_signal(s, &Message::new("x", urt_umlrt::value::Value::Empty)).unwrap();
        assert!(net.drain_signals().is_empty());
    }

    #[test]
    fn drain_signals_into_reuses_buffers() {
        // A behaviour that emits one signal per step.
        struct Beeper {
            n: u64,
            emitted: Vec<(String, Message)>,
        }
        impl StreamerBehavior for Beeper {
            fn name(&self) -> &str {
                "beeper"
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
            ) -> Result<(), urt_ode::SolveError> {
                self.n += 1;
                self.emitted.push((
                    "ctl".to_owned(),
                    Message::new("beep", urt_umlrt::value::Value::Real(self.n as f64))
                        .with_sent_at(t),
                ));
                Ok(())
            }
            fn take_emitted(&mut self) -> Vec<(String, Message)> {
                std::mem::take(&mut self.emitted)
            }
        }
        let mut net = StreamerNetwork::new("t");
        let b = net.add_streamer(Beeper { n: 0, emitted: Vec::new() }, &[], &[]).unwrap();
        net.initialize(0.0).unwrap();
        let mut buf = Vec::new();
        for step in 1..=3u64 {
            net.step(0.1).unwrap();
            buf.clear();
            net.drain_signals_into(&mut buf);
            assert_eq!(buf.len(), 1);
            let (node, sport, msg) = &buf[0];
            assert_eq!(*node, b);
            assert_eq!(sport, "ctl");
            assert_eq!(msg.value().as_real(), Some(step as f64));
        }
        // Nothing pending after a drain.
        net.drain_signals_into(&mut buf);
        assert_eq!(buf.len(), 1, "appends, does not clear the caller's buffer");
        assert!(net.drain_signals().is_empty());
    }

    #[test]
    fn unknown_ids_error() {
        let mut net = StreamerNetwork::new("t");
        let bogus = NodeId(5);
        assert!(matches!(net.node_name(bogus), Err(FlowError::UnknownNode { .. })));
        assert!(net.output(bogus, "o").is_err());
        assert!(net
            .send_signal(bogus, &Message::new("x", urt_umlrt::value::Value::Empty))
            .is_err());
        assert!(net.add_sport(bogus, SPortSpec::new("p", Protocol::new("P"))).is_err());
    }

    /// Builds source -> relay -> {gain x2, gain x(-3)} with one external
    /// input driving a third gain: every plan feature (gathers, relay
    /// duplication, ext loads) in one topology.
    fn plan_fixture() -> (StreamerNetwork, NodeId, NodeId, NodeId) {
        let mut net = StreamerNetwork::new("plan");
        let s = net.add_streamer(source("s"), &[], &[("o", FlowType::scalar())]).unwrap();
        let r = net.add_relay("r", FlowType::scalar(), 2).unwrap();
        let g1 = net
            .add_streamer(
                gain("g1", 2.0),
                &[("i", FlowType::scalar())],
                &[("o", FlowType::scalar())],
            )
            .unwrap();
        let g2 = net
            .add_streamer(
                gain("g2", -3.0),
                &[("i", FlowType::scalar())],
                &[("o", FlowType::scalar())],
            )
            .unwrap();
        let ext = net
            .add_streamer(
                gain("ext", 10.0),
                &[("i", FlowType::scalar())],
                &[("o", FlowType::scalar())],
            )
            .unwrap();
        net.flow((s, "o"), (r, "in")).unwrap();
        net.flow((r, "out0"), (g1, "i")).unwrap();
        net.flow((r, "out1"), (g2, "i")).unwrap();
        net.export_input(ext, "i").unwrap();
        (net, g1, g2, ext)
    }

    #[test]
    fn into_plan_yields_streamer_behaviours_in_plan_order() {
        let (net, _, _, _) = plan_fixture();
        let plan = net.step_plan().unwrap();
        let streamers: Vec<String> = plan
            .nodes()
            .iter()
            .filter(|pn| pn.kind == PlanNodeKind::Streamer)
            .map(|pn| net.node_name(pn.node).unwrap().to_owned())
            .collect();
        let (consumed, behaviours) = net.into_plan().unwrap();
        assert_eq!(consumed, plan, "consuming the network plans it unchanged");
        let names: Vec<&str> = behaviours.iter().map(|b| b.name()).collect();
        assert_eq!(names, streamers, "one behaviour per streamer row; the relay carries none");
    }

    #[test]
    fn step_plan_replays_step_bit_identically() {
        let (mut net, g1, g2, ext) = plan_fixture();
        let plan = net.step_plan().expect("plan computes without &mut");

        // Execute the plan over dense arrays with the behaviours of a
        // second copy of the network, consumed into its plan.
        let (replayed, mut behaviors) = plan_fixture().0.into_plan().unwrap();
        assert_eq!(replayed, plan);
        for b in &mut behaviors {
            b.initialize(0.0).unwrap();
        }
        let mut ins = vec![0.0; plan.in_width()];
        let mut outs = vec![0.0; plan.out_width()];
        let h = 0.25;
        let ext_u = [0.5];
        let mut time = 0.0;
        for _ in 0..4 {
            for c in plan.ext_loads() {
                ins[c.dst..c.dst + c.len].copy_from_slice(&ext_u[c.src..c.src + c.len]);
            }
            let mut row = 0;
            for pn in plan.nodes() {
                for gth in &pn.gathers {
                    let (src, dst) = (gth.src, gth.dst);
                    ins[dst..dst + gth.len].copy_from_slice(&outs[src..src + gth.len]);
                }
                match pn.kind {
                    PlanNodeKind::Streamer => {
                        let b = &mut behaviors[row];
                        row += 1;
                        let (i0, i1) = (pn.in_offset, pn.in_offset + pn.in_width);
                        let (o0, o1) = (pn.out_offset, pn.out_offset + pn.out_width);
                        // Split the borrow: inputs and outputs live in
                        // different arrays.
                        let in_lane = ins[i0..i1].to_vec();
                        b.advance(time, h, &in_lane, &mut outs[o0..o1]).unwrap();
                    }
                    PlanNodeKind::Relay { in_width, fanout } => {
                        for k in 0..fanout {
                            let dst = pn.out_offset + k * in_width;
                            for j in 0..in_width {
                                outs[dst + j] = ins[pn.in_offset + j];
                            }
                        }
                    }
                }
            }
            time += h;
        }

        // Reference: the network's own step loop.
        net.initialize(0.0).unwrap();
        for _ in 0..4 {
            net.set_external_inputs(&ext_u);
            net.step(h).unwrap();
        }
        for (node, port) in [(g1, "o"), (g2, "o"), (ext, "o")] {
            let handle = net.output_handle(node, port).unwrap();
            let reference = net.output_by_handle(&handle);
            let dense = plan.out_offset(handle.node()).unwrap() + handle.offset();
            for (k, r) in reference.iter().enumerate() {
                assert_eq!(
                    outs[dense + k].to_bits(),
                    r.to_bits(),
                    "{}(lane {k}) diverged",
                    net.node_name(node).unwrap()
                );
            }
        }
    }

    #[test]
    fn step_plan_rejects_invalid_topologies() {
        let mut net = StreamerNetwork::new("bad");
        net.add_streamer(
            gain("g", 1.0),
            &[("i", FlowType::scalar())],
            &[("o", FlowType::scalar())],
        )
        .unwrap();
        assert!(matches!(net.step_plan(), Err(FlowError::UnconnectedInput { .. })));
    }

    #[test]
    fn plan_layout_is_dense_and_stable() {
        let (net, _, _, _) = plan_fixture();
        let plan = net.step_plan().unwrap();
        assert_eq!(plan.nodes().len(), net.node_count());
        assert_eq!(plan.ext_in_width(), 1);
        assert_eq!(plan.ext_loads().len(), 1);
        // Spans tile the dense arrays without overlap: total width equals
        // the sum of node widths.
        let in_sum: usize = plan.nodes().iter().map(|n| n.in_width).sum();
        let out_sum: usize = plan.nodes().iter().map(|n| n.out_width).sum();
        assert_eq!(plan.in_width(), in_sum);
        assert_eq!(plan.out_width(), out_sum);
        // Replanning yields the identical plan.
        assert_eq!(net.step_plan().unwrap(), plan);
    }
}
