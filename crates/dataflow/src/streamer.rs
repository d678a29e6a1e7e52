//! Streamer behaviours: the solver-driven counterpart of capsule state
//! machines.
//!
//! "In a streamer, there is a solver responsible for receiving signal from
//! SPorts and data from DPorts and operating system services, modifying
//! parameters, computing equations, and sending out the results."

use crate::error::FlowError;
use crate::graph::StreamerNetwork;
use std::fmt;
use urt_ode::events::{locate_first_crossing, ZeroCrossing};
use urt_ode::solver::{Rk4, Solver, SolverDriver};
use urt_ode::system::{FrozenInput, InputSystem};
use urt_ode::SolveError;
use urt_umlrt::message::Message;
use urt_umlrt::value::Value;

/// The behaviour a streamer node executes each macro step.
///
/// Inputs `u` are the concatenated lanes of the streamer's input DPorts,
/// frozen for the step; outputs `y` are the concatenated lanes of its
/// output DPorts. Signals arriving on SPorts are delivered through
/// [`StreamerBehavior::on_signal`]; signals the behaviour wants to emit
/// (e.g. threshold crossings) are collected by
/// [`StreamerBehavior::take_emitted`].
pub trait StreamerBehavior: Send {
    /// Behaviour name (diagnostics).
    fn name(&self) -> &str;

    /// Total input lane count.
    fn input_width(&self) -> usize;

    /// Total output lane count.
    fn output_width(&self) -> usize;

    /// Whether outputs depend *directly* on the current step's inputs
    /// (true for algebraic blocks, false for integrator-like behaviours).
    /// Governs algebraic-loop detection.
    fn direct_feedthrough(&self) -> bool {
        true
    }

    /// Called once before the first step.
    ///
    /// # Errors
    ///
    /// Implementations may reject inconsistent configuration.
    fn initialize(&mut self, _t0: f64) -> Result<(), SolveError> {
        Ok(())
    }

    /// Advances the behaviour from `t` to `t + h` and writes outputs.
    ///
    /// # Errors
    ///
    /// Solver failures propagate as [`SolveError`].
    fn advance(&mut self, t: f64, h: f64, u: &[f64], y: &mut [f64]) -> Result<(), SolveError>;

    /// Handles a signal message arriving on one of the streamer's SPorts
    /// (parameter changes, mode switches, resets).
    fn on_signal(&mut self, _msg: &Message) {}

    /// Drains signal messages the behaviour wants to emit through its
    /// SPorts, as `(sport, message)` pairs.
    fn take_emitted(&mut self) -> Vec<(String, Message)> {
        Vec::new()
    }

    /// Creates a fresh copy of this behaviour with the same configuration,
    /// or `None` when the behaviour cannot be replicated (stateful signal
    /// handlers, zero-crossing guards, non-cloneable solvers). Ensemble
    /// execution stamps per-instance behaviours out of one compiled
    /// prototype through this hook, so implementations may assume the
    /// prototype has not been stepped: "fresh" means a copy of the
    /// behaviour *as configured*, before any `initialize`/`advance`.
    fn clone_fresh(&self) -> Option<Box<dyn StreamerBehavior>> {
        None
    }

    /// Applies a named parameter override (an ensemble `VariantSpec`
    /// entry). Returns `true` when the parameter was recognised and
    /// applied; the default recognises nothing.
    fn set_param(&mut self, _name: &str, _value: f64) -> bool {
        false
    }

    /// Exposes this behaviour as a batchable ODE lane, or `None` for
    /// behaviours that are not solver-backed. Ensemble execution uses
    /// this hook to route homogeneous lanes through the width-aware
    /// [`Solver::step_batch`] kernels.
    fn as_ode_lane(&self) -> Option<&dyn OdeLane> {
        None
    }

    /// Mutable counterpart of [`StreamerBehavior::as_ode_lane`] (state
    /// write-back after a batched macro step).
    fn as_ode_lane_mut(&mut self) -> Option<&mut dyn OdeLane> {
        None
    }
}

/// A solver-backed behaviour viewed as one lane of a batched ODE step.
///
/// The batched ensemble path gathers K lanes' states into one
/// instance-major buffer, advances them through a single width-aware
/// [`Solver::step_batch`] call per sub-step (each lane's derivatives
/// evaluated against its *own* system parameters and frozen inputs), and
/// scatters the result back through [`OdeLane::lane_sync`]. The per-lane
/// arithmetic is exactly the scalar [`StreamerBehavior::advance`] path,
/// so lanes stay bit-identical to standalone runs.
pub trait OdeLane {
    /// Continuous state dimension.
    fn lane_dim(&self) -> usize;

    /// Nominal internal sub-step (the `substep` configuration).
    fn lane_substep(&self) -> f64;

    /// Whether this lane is eligible for batched stepping: initialized,
    /// guard-free, handler-free, and holding a solver with a true batched
    /// kernel.
    fn lane_batchable(&self) -> bool;

    /// Current continuous state, or `None` before `initialize`.
    fn lane_state(&self) -> Option<&[f64]>;

    /// The lane's internal solver clock, or `None` before `initialize`.
    ///
    /// This is *not* always the macro-step boundary: the driver's
    /// end-of-interval snap (`t_end - t <= resolution`) and the advance
    /// loop's exit test (`t < t_end - resolution`) can disagree by one
    /// rounding, leaving the clock a hair before `t_end`. The batched
    /// path must resume from this exact value — the clamped final
    /// sub-step of the next macro step depends on it bit-for-bit.
    fn lane_time(&self) -> Option<f64>;

    /// Clones the lane's solver strategy for batch ownership (fixed-step
    /// explicit strategies carry no cross-step scratch, so one clone can
    /// serve all lanes).
    fn lane_clone_solver(&self) -> Option<Box<dyn Solver + Send>>;

    /// Evaluates this lane's derivatives at `(t, x)` under frozen inputs
    /// `u` — the same computation the scalar path performs through
    /// [`FrozenInput`].
    fn lane_derivatives(&self, t: f64, x: &[f64], u: &[f64], dx: &mut [f64]);

    /// Writes the batched result back: state becomes `x`, clock becomes
    /// `t` (end of the macro step).
    fn lane_sync(&mut self, t: f64, x: &[f64]) -> Result<(), SolveError>;

    /// Evaluates the lane's output map `y = g(t, x, u)`.
    fn lane_output(&self, t: f64, x: &[f64], u: &[f64], y: &mut [f64]);
}

/// A stateless (or self-contained) behaviour defined by a closure
/// `f(t, h, u, y)`.
///
/// # Examples
///
/// ```
/// use urt_dataflow::streamer::{FnStreamer, StreamerBehavior};
///
/// let mut gain = FnStreamer::new("gain2", 1, 1, |_t, _h, u, y| y[0] = 2.0 * u[0]);
/// let mut y = [0.0];
/// gain.advance(0.0, 0.01, &[21.0], &mut y)?;
/// assert_eq!(y[0], 42.0);
/// # Ok::<(), urt_ode::SolveError>(())
/// ```
pub struct FnStreamer<F> {
    name: String,
    input_width: usize,
    output_width: usize,
    f: F,
}

impl<F> fmt::Debug for FnStreamer<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FnStreamer")
            .field("name", &self.name)
            .field("input_width", &self.input_width)
            .field("output_width", &self.output_width)
            .finish_non_exhaustive()
    }
}

impl<F: FnMut(f64, f64, &[f64], &mut [f64]) + Send> FnStreamer<F> {
    /// Wraps a closure as a streamer behaviour.
    pub fn new(name: impl Into<String>, input_width: usize, output_width: usize, f: F) -> Self {
        FnStreamer { name: name.into(), input_width, output_width, f }
    }
}

impl<F: FnMut(f64, f64, &[f64], &mut [f64]) + Send + Clone + 'static> StreamerBehavior
    for FnStreamer<F>
{
    fn name(&self) -> &str {
        &self.name
    }

    fn input_width(&self) -> usize {
        self.input_width
    }

    fn output_width(&self) -> usize {
        self.output_width
    }

    fn advance(&mut self, t: f64, h: f64, u: &[f64], y: &mut [f64]) -> Result<(), SolveError> {
        (self.f)(t, h, u, y);
        Ok(())
    }

    fn clone_fresh(&self) -> Option<Box<dyn StreamerBehavior>> {
        // The closure is cloned as-is: captured mutable state is copied at
        // its current value, which equals the initial value as long as the
        // prototype has not been stepped (the clone_fresh contract).
        Some(Box::new(FnStreamer {
            name: self.name.clone(),
            input_width: self.input_width,
            output_width: self.output_width,
            f: self.f.clone(),
        }))
    }
}

/// Signal handler invoked when a message reaches an [`OdeStreamer`] SPort:
/// receives the message, the system (for parameter changes) and the state
/// (for resets).
pub type SignalHandler<S> = Box<dyn FnMut(&Message, &mut S, &mut [f64]) + Send>;

/// The standard solver-backed streamer: continuous state advanced by an
/// integration strategy, with zero-crossing guards that emit signals.
///
/// This is the paper's architecture verbatim — the *solver* (a swappable
/// [`Solver`] strategy, Figure 1) computes the *equations* (an
/// [`InputSystem`]), reading DPort data and SPort signals.
pub struct OdeStreamer<S: InputSystem + Send> {
    name: String,
    system: S,
    solver: Box<dyn Solver + Send>,
    driver: Option<SolverDriver>,
    x0: Vec<f64>,
    guards: Vec<ZeroCrossing>,
    guard_values: Vec<f64>,
    handler: Option<SignalHandler<S>>,
    emitted: Vec<(String, Message)>,
    /// SPort through which guard crossings are announced.
    event_sport: String,
    substep: f64,
    /// Optional named-parameter hook for [`StreamerBehavior::set_param`];
    /// a plain `fn` pointer so clones share it trivially.
    param_fn: Option<fn(&mut S, &str, f64) -> bool>,
}

impl<S: InputSystem + Send> fmt::Debug for OdeStreamer<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OdeStreamer")
            .field("name", &self.name)
            .field("dim", &self.system.dim())
            .field("solver", &self.solver.name())
            .finish_non_exhaustive()
    }
}

impl<S: InputSystem + Send> OdeStreamer<S> {
    /// Creates a streamer for `system`, integrated by `solver`, starting at
    /// state `x0`, with internal sub-steps of at most `substep` seconds.
    ///
    /// # Panics
    ///
    /// Panics if `x0` does not match the system dimension or `substep` is
    /// not positive.
    pub fn new(
        name: impl Into<String>,
        system: S,
        solver: Box<dyn Solver + Send>,
        x0: &[f64],
        substep: f64,
    ) -> Self {
        assert_eq!(x0.len(), system.dim(), "initial state dimension mismatch");
        assert!(substep > 0.0, "substep must be positive");
        OdeStreamer {
            name: name.into(),
            system,
            solver,
            driver: None,
            x0: x0.to_vec(),
            guards: Vec::new(),
            guard_values: Vec::new(),
            handler: None,
            emitted: Vec::new(),
            event_sport: "events".to_owned(),
            substep,
            param_fn: None,
        }
    }

    /// Adds a zero-crossing guard; crossings are emitted as signals named
    /// after the guard label on the `events` SPort (builder style).
    pub fn with_guard(mut self, guard: ZeroCrossing) -> Self {
        self.guards.push(guard);
        self
    }

    /// Sets the SPort name used for guard-crossing signals (builder style).
    pub fn with_event_sport(mut self, sport: impl Into<String>) -> Self {
        self.event_sport = sport.into();
        self
    }

    /// Installs the SPort signal handler (builder style).
    pub fn with_signal_handler<F>(mut self, handler: F) -> Self
    where
        F: FnMut(&Message, &mut S, &mut [f64]) + Send + 'static,
    {
        self.handler = Some(Box::new(handler));
        self
    }

    /// Installs a named-parameter hook used by
    /// [`StreamerBehavior::set_param`] to reach into the system (builder
    /// style). The hook returns whether it recognised the name.
    pub fn with_param_fn(mut self, f: fn(&mut S, &str, f64) -> bool) -> Self {
        self.param_fn = Some(f);
        self
    }

    /// Current continuous state (initial state before `initialize`).
    pub fn state(&self) -> &[f64] {
        self.driver.as_ref().map_or(&self.x0, |d| d.state().as_slice())
    }

    /// Name of the installed solver strategy.
    pub fn solver_name(&self) -> &str {
        self.solver.name()
    }

    /// Replaces the solver strategy at run time (paper Figure 1: strategies
    /// are swappable without touching the equations).
    pub fn set_solver(&mut self, solver: Box<dyn Solver + Send>) {
        self.solver = solver;
    }
}

impl<S: InputSystem + Send + Clone + 'static> StreamerBehavior for OdeStreamer<S> {
    fn name(&self) -> &str {
        &self.name
    }

    fn input_width(&self) -> usize {
        self.system.input_dim()
    }

    fn output_width(&self) -> usize {
        self.system.output_dim()
    }

    fn direct_feedthrough(&self) -> bool {
        // Outputs come from the state via the output map; inputs only act
        // through derivatives, one step delayed.
        false
    }

    fn initialize(&mut self, t0: f64) -> Result<(), SolveError> {
        self.driver = Some(SolverDriver::new(t0, &self.x0, self.substep)?);
        self.guard_values = self.guards.iter().map(|g| g.eval(t0, &self.x0)).collect();
        Ok(())
    }

    fn advance(&mut self, t: f64, h: f64, u: &[f64], y: &mut [f64]) -> Result<(), SolveError> {
        let driver = self.driver.as_mut().ok_or(SolveError::InvalidStep { step: h })?;
        let frozen = FrozenInput::new(&self.system, u);
        let x_before: Vec<f64> = driver.state().as_slice().to_vec();
        let t_end = t + h;
        let resolution = 4.0 * f64::EPSILON * t_end.abs().max(1.0);
        while driver.time() < t_end - resolution {
            driver.advance(&frozen, self.solver.as_mut(), t_end)?;
        }
        // Zero-crossing check over the macro step.
        let x_after = driver.state().as_slice().to_vec();
        for (i, guard) in self.guards.iter().enumerate() {
            let before = self.guard_values[i];
            let after = guard.eval(t_end, &x_after);
            if guard.direction().matches(before, after) {
                // Localise with a scratch RK4 over the frozen system.
                let mut scratch = Rk4::new();
                let hit = locate_first_crossing(
                    &frozen,
                    &mut scratch,
                    std::slice::from_ref(guard),
                    t,
                    &x_before,
                    t_end,
                    1e-9,
                )?;
                let event_time = hit.map_or(t_end, |e| e.time);
                self.emitted.push((
                    self.event_sport.clone(),
                    Message::new(guard.label(), Value::Real(event_time)).with_sent_at(event_time),
                ));
            }
            self.guard_values[i] = after;
        }
        self.system.output(t_end, &x_after, u, y);
        Ok(())
    }

    fn on_signal(&mut self, msg: &Message) {
        if let (Some(handler), Some(driver)) = (self.handler.as_mut(), self.driver.as_mut()) {
            handler(msg, &mut self.system, driver.state_mut().as_mut_slice());
        }
    }

    fn take_emitted(&mut self) -> Vec<(String, Message)> {
        std::mem::take(&mut self.emitted)
    }

    fn clone_fresh(&self) -> Option<Box<dyn StreamerBehavior>> {
        // Boxed signal handlers and zero-crossing guards are not
        // cloneable; a streamer carrying either cannot be replicated.
        if self.handler.is_some() || !self.guards.is_empty() {
            return None;
        }
        let solver = self.solver.clone_boxed()?;
        Some(Box::new(OdeStreamer {
            name: self.name.clone(),
            system: self.system.clone(),
            solver,
            driver: None,
            x0: self.x0.clone(),
            guards: Vec::new(),
            guard_values: Vec::new(),
            handler: None,
            emitted: Vec::new(),
            event_sport: self.event_sport.clone(),
            substep: self.substep,
            param_fn: self.param_fn,
        }))
    }

    fn set_param(&mut self, name: &str, value: f64) -> bool {
        // Built-in override: `x0[i]` retargets one initial-state lane.
        // Effective only before `initialize`, which is when ensemble
        // variant specs are applied.
        if let Some(idx) = name
            .strip_prefix("x0[")
            .and_then(|rest| rest.strip_suffix(']'))
            .and_then(|idx| idx.parse::<usize>().ok())
        {
            if idx < self.x0.len() {
                self.x0[idx] = value;
                return true;
            }
            return false;
        }
        self.param_fn.is_some_and(|f| f(&mut self.system, name, value))
    }

    fn as_ode_lane(&self) -> Option<&dyn OdeLane> {
        Some(self)
    }

    fn as_ode_lane_mut(&mut self) -> Option<&mut dyn OdeLane> {
        Some(self)
    }
}

impl<S: InputSystem + Send + Clone + 'static> OdeLane for OdeStreamer<S> {
    fn lane_dim(&self) -> usize {
        self.system.dim()
    }

    fn lane_substep(&self) -> f64 {
        self.substep
    }

    fn lane_batchable(&self) -> bool {
        // Guards would need per-sub-step crossing checks and handlers can
        // mutate state mid-run; both force the scalar path. The solver
        // must expose a true batched kernel — the per-lane default would
        // route through `OdeSystem::derivatives`, which a lane-dispatching
        // batch system cannot provide.
        self.driver.is_some()
            && self.guards.is_empty()
            && self.handler.is_none()
            && self.solver.has_batched_kernel()
    }

    fn lane_state(&self) -> Option<&[f64]> {
        self.driver.as_ref().map(|d| d.state().as_slice())
    }

    fn lane_time(&self) -> Option<f64> {
        self.driver.as_ref().map(|d| d.time())
    }

    fn lane_clone_solver(&self) -> Option<Box<dyn Solver + Send>> {
        self.solver.clone_boxed()
    }

    fn lane_derivatives(&self, t: f64, x: &[f64], u: &[f64], dx: &mut [f64]) {
        self.system.derivatives(t, x, u, dx);
    }

    fn lane_sync(&mut self, t: f64, x: &[f64]) -> Result<(), SolveError> {
        let driver = self.driver.as_mut().ok_or(SolveError::InvalidStep { step: t })?;
        driver.state_mut().as_mut_slice().copy_from_slice(x);
        driver.set_time(t);
        Ok(())
    }

    fn lane_output(&self, t: f64, x: &[f64], u: &[f64], y: &mut [f64]) {
        self.system.output(t, x, u, y);
    }
}

/// A whole [`StreamerNetwork`] packaged as one streamer behaviour — the
/// executable form of the paper's sub-streamer containment (Figure 2: "they
/// can contain any number of sub-streamers").
///
/// Boundary DPorts come from the network's
/// [`export_input`](StreamerNetwork::export_input) /
/// [`export_output`](StreamerNetwork::export_output) declarations. SPort
/// signals delivered to the composite are broadcast to every inner
/// streamer (each behaviour filters by signal name); signals emitted by
/// inner streamers bubble up unchanged.
///
/// # Examples
///
/// ```
/// use urt_dataflow::flowtype::FlowType;
/// use urt_dataflow::graph::StreamerNetwork;
/// use urt_dataflow::streamer::{CompositeStreamer, FnStreamer, StreamerBehavior};
///
/// # fn main() -> Result<(), urt_dataflow::FlowError> {
/// let mut inner = StreamerNetwork::new("inner");
/// let gain = inner.add_streamer(
///     FnStreamer::new("gain", 1, 1, |_t, _h, u, y| y[0] = 3.0 * u[0]),
///     &[("u", FlowType::scalar())],
///     &[("y", FlowType::scalar())],
/// )?;
/// inner.export_input(gain, "u")?;
/// inner.export_output(gain, "y")?;
/// let mut composite = CompositeStreamer::new("triple", inner)?;
/// composite.initialize(0.0)?;
/// let mut y = [0.0];
/// composite.advance(0.0, 0.01, &[2.0], &mut y)?;
/// assert_eq!(y[0], 6.0);
/// # Ok(())
/// # }
/// ```
pub struct CompositeStreamer {
    name: String,
    network: StreamerNetwork,
    feedthrough: bool,
    emitted: Vec<(String, Message)>,
    /// Scratch for draining the inner network's signals without a
    /// per-step allocation.
    sig_scratch: Vec<(crate::graph::NodeId, String, Message)>,
}

impl fmt::Debug for CompositeStreamer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompositeStreamer")
            .field("name", &self.name)
            .field("network", &self.network)
            .finish_non_exhaustive()
    }
}

impl CompositeStreamer {
    /// Packages `network` (with its exported boundary ports) as one
    /// streamer.
    ///
    /// # Errors
    ///
    /// Propagates network validation errors.
    pub fn new(name: impl Into<String>, mut network: StreamerNetwork) -> Result<Self, FlowError> {
        network.validate()?;
        let feedthrough = network.has_external_feedthrough();
        Ok(CompositeStreamer {
            name: name.into(),
            network,
            feedthrough,
            emitted: Vec::new(),
            sig_scratch: Vec::new(),
        })
    }

    /// Read access to the inner network.
    pub fn network(&self) -> &StreamerNetwork {
        &self.network
    }
}

impl StreamerBehavior for CompositeStreamer {
    fn name(&self) -> &str {
        &self.name
    }

    fn input_width(&self) -> usize {
        self.network.external_input_width()
    }

    fn output_width(&self) -> usize {
        self.network.external_output_width()
    }

    fn direct_feedthrough(&self) -> bool {
        self.feedthrough
    }

    fn initialize(&mut self, t0: f64) -> Result<(), SolveError> {
        self.network.initialize(t0).map_err(|_| SolveError::InvalidStep { step: t0 })
    }

    fn advance(&mut self, _t: f64, h: f64, u: &[f64], y: &mut [f64]) -> Result<(), SolveError> {
        self.network.set_external_inputs(u);
        self.network.step(h).map_err(|e| match e {
            FlowError::Solve(s) => s,
            _ => SolveError::InvalidStep { step: h },
        })?;
        y.copy_from_slice(&self.network.external_outputs());
        self.network.drain_signals_into(&mut self.sig_scratch);
        for (_node, sport, msg) in self.sig_scratch.drain(..) {
            self.emitted.push((sport, msg));
        }
        Ok(())
    }

    fn on_signal(&mut self, msg: &Message) {
        let ids: Vec<_> = self.network.iter_nodes().map(|(id, _)| id).collect();
        for id in ids {
            let _ = self.network.send_signal(id, msg);
        }
    }

    fn take_emitted(&mut self) -> Vec<(String, Message)> {
        std::mem::take(&mut self.emitted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use urt_ode::events::EventDirection;
    use urt_ode::solver::SolverKind;
    use urt_ode::system::FnInputSystem;

    fn first_order_plant() -> impl InputSystem + Clone {
        // x' = u - x : first-order lag.
        FnInputSystem::new(1, 1, |_t, x: &[f64], u: &[f64], dx: &mut [f64]| {
            dx[0] = u[0] - x[0];
        })
    }

    #[test]
    fn fn_streamer_runs_closure() {
        let mut s = FnStreamer::new("sum", 2, 1, |_t, _h, u: &[f64], y: &mut [f64]| {
            y[0] = u[0] + u[1];
        });
        assert_eq!(s.name(), "sum");
        assert_eq!(s.input_width(), 2);
        assert_eq!(s.output_width(), 1);
        assert!(s.direct_feedthrough());
        let mut y = [0.0];
        s.advance(0.0, 0.1, &[1.0, 2.0], &mut y).unwrap();
        assert_eq!(y[0], 3.0);
    }

    #[test]
    fn ode_streamer_tracks_step_input() {
        let mut s =
            OdeStreamer::new("lag", first_order_plant(), SolverKind::Rk4.create(), &[0.0], 0.001);
        assert!(!s.direct_feedthrough());
        s.initialize(0.0).unwrap();
        let mut y = [0.0];
        let mut t = 0.0;
        for _ in 0..5000 {
            s.advance(t, 0.001, &[1.0], &mut y).unwrap();
            t += 0.001;
        }
        // After 5 time constants the lag has settled to ~1.
        assert!((y[0] - 1.0).abs() < 0.01, "settled at {}", y[0]);
    }

    #[test]
    fn ode_streamer_requires_initialize() {
        let mut s = OdeStreamer::new(
            "lag",
            first_order_plant(),
            SolverKind::ForwardEuler.create(),
            &[0.0],
            0.01,
        );
        let mut y = [0.0];
        assert!(s.advance(0.0, 0.1, &[0.0], &mut y).is_err());
    }

    #[test]
    #[should_panic(expected = "initial state dimension mismatch")]
    fn ode_streamer_checks_x0() {
        let _ = OdeStreamer::new(
            "bad",
            first_order_plant(),
            SolverKind::Rk4.create(),
            &[0.0, 0.0],
            0.01,
        );
    }

    #[test]
    fn guard_crossing_emits_signal() {
        let mut s =
            OdeStreamer::new("lag", first_order_plant(), SolverKind::Rk4.create(), &[0.0], 0.001)
                .with_guard(ZeroCrossing::new("half_reached", EventDirection::Rising, |_t, x| {
                    x[0] - 0.5
                }))
                .with_event_sport("alarm");
        s.initialize(0.0).unwrap();
        let mut y = [0.0];
        let mut t = 0.0;
        let mut events = Vec::new();
        for _ in 0..2000 {
            s.advance(t, 0.001, &[1.0], &mut y).unwrap();
            t += 0.001;
            events.extend(s.take_emitted());
        }
        assert_eq!(events.len(), 1, "exactly one crossing");
        let (sport, msg) = &events[0];
        assert_eq!(sport, "alarm");
        assert_eq!(msg.signal(), "half_reached");
        // x(t) = 1 - e^-t crosses 0.5 at ln 2 ≈ 0.6931.
        let t_event = msg.value().as_real().unwrap();
        assert!((t_event - std::f64::consts::LN_2).abs() < 2e-3, "event at {t_event}");
    }

    #[test]
    fn signal_handler_mutates_system_and_state() {
        // System with a mutable gain parameter.
        #[derive(Clone)]
        struct Plant {
            gain: f64,
        }
        impl InputSystem for Plant {
            fn dim(&self) -> usize {
                1
            }
            fn input_dim(&self) -> usize {
                1
            }
            fn derivatives(&self, _t: f64, x: &[f64], u: &[f64], dx: &mut [f64]) {
                dx[0] = self.gain * (u[0] - x[0]);
            }
        }
        let mut s =
            OdeStreamer::new("p", Plant { gain: 1.0 }, SolverKind::Rk4.create(), &[0.0], 0.001)
                .with_signal_handler(|msg, plant: &mut Plant, state: &mut [f64]| {
                    match msg.signal() {
                        "set_gain" => plant.gain = msg.value().as_real().unwrap_or(plant.gain),
                        "reset" => state.fill(0.0),
                        _ => {}
                    }
                });
        s.initialize(0.0).unwrap();
        s.on_signal(&Message::new("set_gain", Value::Real(10.0)));
        let mut y = [0.0];
        let mut t = 0.0;
        for _ in 0..1000 {
            s.advance(t, 0.001, &[1.0], &mut y).unwrap();
            t += 0.001;
        }
        // gain=10 settles 10x faster: well above the gain=1 response.
        assert!(y[0] > 0.9, "fast settle, got {}", y[0]);
        s.on_signal(&Message::new("reset", Value::Empty));
        assert_eq!(s.state()[0], 0.0);
    }

    #[test]
    fn composite_streamer_nests_inside_a_parent_network() {
        use crate::flowtype::FlowType;

        // Inner network: lag behind an exported boundary.
        let mut inner = StreamerNetwork::new("inner");
        let lag = inner
            .add_streamer(
                OdeStreamer::new(
                    "lag",
                    first_order_plant(),
                    SolverKind::Rk4.create(),
                    &[0.0],
                    1e-3,
                ),
                &[("u", FlowType::scalar())],
                &[("y", FlowType::scalar())],
            )
            .unwrap();
        inner.export_input(lag, "u").unwrap();
        inner.export_output(lag, "y").unwrap();
        let composite = CompositeStreamer::new("subsystem", inner).unwrap();
        assert!(!composite.direct_feedthrough(), "lag is not feedthrough");
        assert_eq!(composite.input_width(), 1);
        assert_eq!(composite.output_width(), 1);

        // Parent network: source -> composite.
        let mut outer = StreamerNetwork::new("outer");
        let src = outer
            .add_streamer(
                FnStreamer::new("one", 0, 1, |_t, _h, _u: &[f64], y: &mut [f64]| y[0] = 1.0),
                &[],
                &[("y", FlowType::scalar())],
            )
            .unwrap();
        let sub = outer
            .add_streamer(composite, &[("u", FlowType::scalar())], &[("y", FlowType::scalar())])
            .unwrap();
        outer.flow((src, "y"), (sub, "u")).unwrap();
        outer.initialize(0.0).unwrap();
        for _ in 0..5000 {
            outer.step(1e-3).unwrap();
        }
        let y = outer.output(sub, "y").unwrap()[0];
        assert!((y - 1.0).abs() < 0.02, "nested lag settled at {y}");
    }

    #[test]
    fn export_rules_are_enforced() {
        use crate::flowtype::FlowType;
        let mut net = StreamerNetwork::new("n");
        let g = net
            .add_streamer(
                FnStreamer::new("g", 1, 1, |_t, _h, u: &[f64], y: &mut [f64]| y[0] = u[0]),
                &[("u", FlowType::scalar())],
                &[("y", FlowType::scalar())],
            )
            .unwrap();
        net.export_input(g, "u").unwrap();
        // Double export = double driver.
        assert!(matches!(net.export_input(g, "u"), Err(FlowError::MultipleWriters { .. })));
        assert!(net.export_input(g, "ghost").is_err());
        assert!(net.export_output(g, "ghost").is_err());
        net.export_output(g, "y").unwrap();
        // Feedthrough path: gain from exported input to exported output.
        assert!(net.has_external_feedthrough());
    }

    #[test]
    fn fn_streamer_clone_fresh_replicates_configuration() {
        let s =
            FnStreamer::new("gain2", 1, 1, |_t, _h, u: &[f64], y: &mut [f64]| y[0] = 2.0 * u[0]);
        let mut copy = s.clone_fresh().expect("closures without state clone");
        assert_eq!(copy.name(), "gain2");
        assert_eq!(copy.input_width(), 1);
        assert_eq!(copy.output_width(), 1);
        let mut y = [0.0];
        copy.advance(0.0, 0.1, &[21.0], &mut y).unwrap();
        assert_eq!(y[0], 42.0);
    }

    #[test]
    fn ode_streamer_clone_fresh_starts_from_x0() {
        let proto =
            OdeStreamer::new("lag", first_order_plant(), SolverKind::Rk4.create(), &[0.5], 1e-3);
        let mut copy = proto.clone_fresh().expect("plain ODE streamers clone");
        copy.initialize(0.0).unwrap();
        let mut y_copy = [0.0];
        copy.advance(0.0, 1e-3, &[1.0], &mut y_copy).unwrap();

        let mut standalone =
            OdeStreamer::new("lag", first_order_plant(), SolverKind::Rk4.create(), &[0.5], 1e-3);
        standalone.initialize(0.0).unwrap();
        let mut y_ref = [0.0];
        standalone.advance(0.0, 1e-3, &[1.0], &mut y_ref).unwrap();
        assert_eq!(y_copy[0].to_bits(), y_ref[0].to_bits(), "clone is bit-identical");
    }

    #[test]
    fn clone_fresh_refuses_guards_and_handlers() {
        let guarded =
            OdeStreamer::new("g", first_order_plant(), SolverKind::Rk4.create(), &[0.0], 1e-3)
                .with_guard(ZeroCrossing::new("up", EventDirection::Rising, |_t, x| x[0]));
        assert!(guarded.clone_fresh().is_none(), "guards are not cloneable");
        let handled =
            OdeStreamer::new("h", first_order_plant(), SolverKind::Rk4.create(), &[0.0], 1e-3)
                .with_signal_handler(|_msg, _sys, _state| {});
        assert!(handled.clone_fresh().is_none(), "handlers are not cloneable");
    }

    #[test]
    fn set_param_overrides_x0_and_system_parameters() {
        #[derive(Clone)]
        struct Plant {
            gain: f64,
        }
        impl InputSystem for Plant {
            fn dim(&self) -> usize {
                1
            }
            fn input_dim(&self) -> usize {
                1
            }
            fn derivatives(&self, _t: f64, x: &[f64], u: &[f64], dx: &mut [f64]) {
                dx[0] = self.gain * (u[0] - x[0]);
            }
        }
        let mut s =
            OdeStreamer::new("p", Plant { gain: 1.0 }, SolverKind::Rk4.create(), &[0.0], 1e-3)
                .with_param_fn(|plant, name, value| {
                    if name == "gain" {
                        plant.gain = value;
                        true
                    } else {
                        false
                    }
                });
        assert!(s.set_param("x0[0]", 0.25), "x0 override is built in");
        assert!(!s.set_param("x0[7]", 1.0), "out-of-range lane is rejected");
        assert!(s.set_param("gain", 4.0), "param_fn reaches the system");
        assert!(!s.set_param("ghost", 1.0));
        s.initialize(0.0).unwrap();
        assert_eq!(s.state()[0], 0.25, "override took effect at initialize");
        // Default behaviours recognise nothing.
        let mut plain = FnStreamer::new("id", 1, 1, |_t, _h, u: &[f64], y: &mut [f64]| y[0] = u[0]);
        assert!(!plain.set_param("anything", 0.0));
    }

    #[test]
    fn solver_strategy_is_swappable() {
        let mut s = OdeStreamer::new(
            "p",
            first_order_plant(),
            SolverKind::ForwardEuler.create(),
            &[0.0],
            0.01,
        );
        assert_eq!(s.solver_name(), "euler");
        s.set_solver(SolverKind::Dopri45.create());
        assert_eq!(s.solver_name(), "dopri45");
        s.initialize(0.0).unwrap();
        let mut y = [0.0];
        s.advance(0.0, 0.1, &[1.0], &mut y).unwrap();
        assert!(y[0] > 0.0);
    }
}
