//! Integration strategies — the paper's Figure 1 `Strategy` hierarchy.
//!
//! Each solver is a strategy object a streamer can hold behind
//! `Box<dyn Solver>` and swap without touching the equations, exactly the
//! State/Strategy separation the paper presents as its architectural
//! pattern.

// The kernels update several state vectors in lockstep; indexed loops
// read closer to the Butcher-tableau math than zipped iterator chains.
#![allow(clippy::needless_range_loop)]

use crate::error::SolveError;
use crate::state::{lanes_axpy, lanes_rk4_combine, lanes_stage, StateVec};
use crate::system::{BatchOdeSystem, OdeSystem};
use std::fmt;

/// Outcome of a single attempted integration step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepOutcome {
    /// Whether the step was accepted (fixed-step methods always accept).
    pub accepted: bool,
    /// Step size actually taken (equals the request for fixed-step methods).
    pub h_taken: f64,
    /// Suggested size for the next step.
    pub h_next: f64,
    /// Local error estimate, when the method produces one.
    pub error_estimate: Option<f64>,
}

impl StepOutcome {
    fn fixed(h: f64) -> Self {
        StepOutcome { accepted: true, h_taken: h, h_next: h, error_estimate: None }
    }
}

/// An ODE integration strategy.
///
/// Object-safe by design: streamers store solvers as trait objects so the
/// strategy can be replaced at run time (paper Figure 1).
///
/// # Examples
///
/// ```
/// use urt_ode::solver::{Rk4, Solver};
/// use urt_ode::system::FnSystem;
///
/// # fn main() -> Result<(), urt_ode::SolveError> {
/// let sys = FnSystem::new(1, |_t, x, dx| dx[0] = -x[0]);
/// let mut solver = Rk4::new();
/// let mut x = vec![1.0];
/// let outcome = solver.step(&sys, 0.0, &mut x, 0.1)?;
/// assert!(outcome.accepted);
/// assert!(x[0] < 1.0);
/// # Ok(())
/// # }
/// ```
pub trait Solver {
    /// Human-readable strategy name ("rk4", "dopri45", ...).
    fn name(&self) -> &str;

    /// Classical order of accuracy.
    fn order(&self) -> u32;

    /// Whether the method adapts its own step size.
    fn is_adaptive(&self) -> bool {
        false
    }

    /// Attempts one step of size `h` from `(t, x)`, updating `x` in place
    /// when the step is accepted.
    ///
    /// # Errors
    ///
    /// * [`SolveError::InvalidStep`] if `h` is not positive and finite.
    /// * [`SolveError::DimensionMismatch`] if `x` does not match the system.
    /// * [`SolveError::NonFiniteState`] if the step produces NaN/inf.
    /// * [`SolveError::NoConvergence`] for implicit methods that stall.
    fn step(
        &mut self,
        sys: &dyn OdeSystem,
        t: f64,
        x: &mut [f64],
        h: f64,
    ) -> Result<StepOutcome, SolveError>;

    /// Clones this strategy (configuration and scratch state) into a
    /// fresh boxed solver, or `None` when the concrete strategy is not
    /// cloneable. Ensemble execution uses this to stamp per-instance
    /// solver state out of one prototype.
    fn clone_boxed(&self) -> Option<Box<dyn Solver + Send>> {
        None
    }

    /// Whether this strategy overrides [`Solver::step_batch`] with a
    /// truly batched kernel (every stage evaluated across all lanes at
    /// once) rather than the per-lane default. Ensemble execution only
    /// routes lanes through the batched path for such solvers.
    fn has_batched_kernel(&self) -> bool {
        false
    }

    /// Advances `states.len() / dim` independent state lanes of the same
    /// system from `t` to exactly `t + h`, where lane `i` occupies
    /// `states[i * dim..(i + 1) * dim]` (instance-major layout).
    ///
    /// Fixed-step methods take one step of `h` per lane, so each lane is
    /// bit-identical to a standalone [`Solver::step`] call. Adaptive
    /// rejections are retried per lane with the suggested smaller step
    /// until the lane reaches `t + h`.
    ///
    /// Termination is pinned: a lane never *attempts* a step smaller than
    /// the interval's floating-point resolution — when a controller's
    /// `h_next` underflows that far (including to zero) near `t_end`, the
    /// call fails with [`SolveError::StepSizeUnderflow`] instead of
    /// spinning on steps too small to advance the clock. Every accepted
    /// step therefore moves a lane by at least the resolution, bounding
    /// the loop at `h / resolution` iterations per lane.
    ///
    /// # Errors
    ///
    /// * [`SolveError::DimensionMismatch`] if `dim` is zero or does not
    ///   divide `states.len()`.
    /// * [`SolveError::StepSizeUnderflow`] if a lane's suggested step
    ///   falls below the time resolution before reaching `t + h`.
    /// * Any error the per-lane [`Solver::step`] calls produce.
    fn step_batch(
        &mut self,
        sys: &dyn BatchOdeSystem,
        t: f64,
        states: &mut [f64],
        dim: usize,
        h: f64,
    ) -> Result<(), SolveError> {
        if dim == 0 || !states.len().is_multiple_of(dim) {
            return Err(SolveError::DimensionMismatch { expected: dim, found: states.len() });
        }
        let t_end = t + h;
        let resolution = f64::EPSILON * t_end.abs().max(1.0);
        for lane in states.chunks_mut(dim) {
            let mut tl = t;
            let mut hl = h;
            loop {
                let remaining = t_end - tl;
                if remaining <= resolution {
                    break;
                }
                let h_try = hl.min(remaining);
                if h_try < resolution {
                    return Err(SolveError::StepSizeUnderflow { time: tl, step: h_try });
                }
                let out = self.step(sys, tl, lane, h_try)?;
                if out.accepted {
                    tl += out.h_taken;
                }
                hl = out.h_next;
            }
        }
        Ok(())
    }
}

fn validate(sys: &dyn OdeSystem, x: &[f64], h: f64) -> Result<(), SolveError> {
    sys.check_dim(x)?;
    if !(h.is_finite() && h > 0.0) {
        return Err(SolveError::InvalidStep { step: h });
    }
    Ok(())
}

fn ensure_finite(t: f64, x: &[f64]) -> Result<(), SolveError> {
    if x.iter().all(|v| v.is_finite()) {
        Ok(())
    } else {
        Err(SolveError::NonFiniteState { time: t })
    }
}

/// Validates the instance-major batch layout the batched kernels consume
/// and returns the lane count `k`.
fn batch_layout(
    sys: &dyn BatchOdeSystem,
    states: &[f64],
    dim: usize,
    h: f64,
) -> Result<usize, SolveError> {
    if dim == 0 || !states.len().is_multiple_of(dim) {
        return Err(SolveError::DimensionMismatch { expected: dim, found: states.len() });
    }
    if dim != sys.dim() {
        return Err(SolveError::DimensionMismatch { expected: sys.dim(), found: dim });
    }
    if !(h.is_finite() && h > 0.0) {
        return Err(SolveError::InvalidStep { step: h });
    }
    Ok(states.len() / dim)
}

fn resize_buf(v: &mut Vec<f64>, n: usize) {
    if v.len() != n {
        v.clear();
        v.resize(n, 0.0);
    }
}

/// Instance-major (`[i * dim + v]`) → variable-major (`[v * k + i]`)
/// transpose into the kernel scratch. Pure data movement: the per-lane
/// values are untouched, so bit-identity survives the relayout.
fn gather_variable_major(states: &[f64], dim: usize, k: usize, xs: &mut [f64]) {
    for (i, lane) in states.chunks_exact(dim).enumerate() {
        for (v, value) in lane.iter().enumerate() {
            xs[v * k + i] = *value;
        }
    }
}

/// Variable-major → instance-major transpose back out of the scratch.
fn scatter_variable_major(xs: &[f64], dim: usize, k: usize, states: &mut [f64]) {
    for (i, lane) in states.chunks_exact_mut(dim).enumerate() {
        for (v, value) in lane.iter_mut().enumerate() {
            *value = xs[v * k + i];
        }
    }
}

/// Which solver strategy to instantiate; the configuration-level mirror of
/// the concrete strategy types.
///
/// # Examples
///
/// ```
/// use urt_ode::solver::SolverKind;
///
/// let solver = SolverKind::Rk4.create();
/// assert_eq!(solver.name(), "rk4");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub enum SolverKind {
    /// Explicit forward Euler (order 1).
    ForwardEuler,
    /// Heun's method / explicit trapezoidal (order 2).
    Heun,
    /// Classic fourth-order Runge–Kutta.
    #[default]
    Rk4,
    /// Adaptive Dormand–Prince 4(5).
    Dopri45,
    /// Backward Euler via fixed-point iteration (order 1, damped).
    BackwardEuler,
}

impl SolverKind {
    /// All kinds, in ascending order of accuracy cost.
    pub const ALL: [SolverKind; 5] = [
        SolverKind::ForwardEuler,
        SolverKind::Heun,
        SolverKind::Rk4,
        SolverKind::Dopri45,
        SolverKind::BackwardEuler,
    ];

    /// Instantiates the strategy with default settings.
    pub fn create(self) -> Box<dyn Solver + Send> {
        match self {
            SolverKind::ForwardEuler => Box::new(ForwardEuler::new()),
            SolverKind::Heun => Box::new(Heun::new()),
            SolverKind::Rk4 => Box::new(Rk4::new()),
            SolverKind::Dopri45 => Box::new(Dopri45::new()),
            SolverKind::BackwardEuler => Box::new(BackwardEuler::new()),
        }
    }
}

impl fmt::Display for SolverKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            SolverKind::ForwardEuler => "euler",
            SolverKind::Heun => "heun",
            SolverKind::Rk4 => "rk4",
            SolverKind::Dopri45 => "dopri45",
            SolverKind::BackwardEuler => "backward-euler",
        };
        f.write_str(name)
    }
}

/// Explicit forward Euler: `x += h f(t, x)`.
#[derive(Debug, Clone, Default)]
pub struct ForwardEuler {
    k: StateVec,
    bxs: Vec<f64>,
    bk: Vec<f64>,
}

impl ForwardEuler {
    /// Creates the strategy.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Solver for ForwardEuler {
    fn name(&self) -> &str {
        "euler"
    }

    fn order(&self) -> u32 {
        1
    }

    fn clone_boxed(&self) -> Option<Box<dyn Solver + Send>> {
        Some(Box::new(self.clone()))
    }

    fn step(
        &mut self,
        sys: &dyn OdeSystem,
        t: f64,
        x: &mut [f64],
        h: f64,
    ) -> Result<StepOutcome, SolveError> {
        validate(sys, x, h)?;
        resize(&mut self.k, x.len());
        sys.derivatives(t, x, self.k.as_mut_slice());
        for (xi, ki) in x.iter_mut().zip(self.k.iter()) {
            *xi += h * ki;
        }
        ensure_finite(t + h, x)?;
        Ok(StepOutcome::fixed(h))
    }

    fn has_batched_kernel(&self) -> bool {
        true
    }

    /// Width-aware batch step: one `derivatives_batch` evaluation across
    /// all K lanes, then a single fused axpy sweep. Per-lane arithmetic is
    /// the exact `x[i] += h * k[i]` of the scalar kernel, so every lane is
    /// bit-identical to a standalone [`Solver::step`].
    fn step_batch(
        &mut self,
        sys: &dyn BatchOdeSystem,
        t: f64,
        states: &mut [f64],
        dim: usize,
        h: f64,
    ) -> Result<(), SolveError> {
        let k = batch_layout(sys, states, dim, h)?;
        let n = states.len();
        resize_buf(&mut self.bxs, n);
        resize_buf(&mut self.bk, n);
        gather_variable_major(states, dim, k, &mut self.bxs);
        sys.derivatives_batch(t, &self.bxs, dim, k, &mut self.bk);
        lanes_axpy(&mut self.bxs, h, &self.bk);
        ensure_finite(t + h, &self.bxs)?;
        scatter_variable_major(&self.bxs, dim, k, states);
        Ok(())
    }
}

/// Heun's method (explicit trapezoidal), order 2.
#[derive(Debug, Clone, Default)]
pub struct Heun {
    k1: StateVec,
    k2: StateVec,
    tmp: StateVec,
}

impl Heun {
    /// Creates the strategy.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Solver for Heun {
    fn name(&self) -> &str {
        "heun"
    }

    fn order(&self) -> u32 {
        2
    }

    fn clone_boxed(&self) -> Option<Box<dyn Solver + Send>> {
        Some(Box::new(self.clone()))
    }

    fn step(
        &mut self,
        sys: &dyn OdeSystem,
        t: f64,
        x: &mut [f64],
        h: f64,
    ) -> Result<StepOutcome, SolveError> {
        validate(sys, x, h)?;
        let n = x.len();
        resize(&mut self.k1, n);
        resize(&mut self.k2, n);
        resize(&mut self.tmp, n);
        sys.derivatives(t, x, self.k1.as_mut_slice());
        for i in 0..n {
            self.tmp[i] = x[i] + h * self.k1[i];
        }
        sys.derivatives(t + h, self.tmp.as_slice(), self.k2.as_mut_slice());
        for i in 0..n {
            x[i] += 0.5 * h * (self.k1[i] + self.k2[i]);
        }
        ensure_finite(t + h, x)?;
        Ok(StepOutcome::fixed(h))
    }
}

/// Classic fourth-order Runge–Kutta.
#[derive(Debug, Clone, Default)]
pub struct Rk4 {
    k1: StateVec,
    k2: StateVec,
    k3: StateVec,
    k4: StateVec,
    tmp: StateVec,
    bxs: Vec<f64>,
    bk1: Vec<f64>,
    bk2: Vec<f64>,
    bk3: Vec<f64>,
    bk4: Vec<f64>,
    bstage: Vec<f64>,
}

impl Rk4 {
    /// Creates the strategy.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Solver for Rk4 {
    fn name(&self) -> &str {
        "rk4"
    }

    fn order(&self) -> u32 {
        4
    }

    fn clone_boxed(&self) -> Option<Box<dyn Solver + Send>> {
        Some(Box::new(self.clone()))
    }

    fn step(
        &mut self,
        sys: &dyn OdeSystem,
        t: f64,
        x: &mut [f64],
        h: f64,
    ) -> Result<StepOutcome, SolveError> {
        validate(sys, x, h)?;
        let n = x.len();
        for k in [&mut self.k1, &mut self.k2, &mut self.k3, &mut self.k4, &mut self.tmp] {
            resize(k, n);
        }
        sys.derivatives(t, x, self.k1.as_mut_slice());
        for i in 0..n {
            self.tmp[i] = x[i] + 0.5 * h * self.k1[i];
        }
        sys.derivatives(t + 0.5 * h, self.tmp.as_slice(), self.k2.as_mut_slice());
        for i in 0..n {
            self.tmp[i] = x[i] + 0.5 * h * self.k2[i];
        }
        sys.derivatives(t + 0.5 * h, self.tmp.as_slice(), self.k3.as_mut_slice());
        for i in 0..n {
            self.tmp[i] = x[i] + h * self.k3[i];
        }
        sys.derivatives(t + h, self.tmp.as_slice(), self.k4.as_mut_slice());
        for i in 0..n {
            x[i] += h / 6.0 * (self.k1[i] + 2.0 * self.k2[i] + 2.0 * self.k3[i] + self.k4[i]);
        }
        ensure_finite(t + h, x)?;
        Ok(StepOutcome::fixed(h))
    }

    fn has_batched_kernel(&self) -> bool {
        true
    }

    /// Width-aware batch step: each RK stage is evaluated across all K
    /// lanes before the next stage begins, with the stage-combine loops
    /// fused into [`LANE_WIDTH`]-chunked sweeps over the variable-major
    /// scratch. Per-lane arithmetic keeps the scalar kernel's expression
    /// order (`x[i] + 0.5 * h * k[i]`, final `h / 6` weighted sum), so
    /// every lane is bit-identical to a standalone [`Solver::step`].
    fn step_batch(
        &mut self,
        sys: &dyn BatchOdeSystem,
        t: f64,
        states: &mut [f64],
        dim: usize,
        h: f64,
    ) -> Result<(), SolveError> {
        let k = batch_layout(sys, states, dim, h)?;
        let n = states.len();
        for buf in [
            &mut self.bxs,
            &mut self.bk1,
            &mut self.bk2,
            &mut self.bk3,
            &mut self.bk4,
            &mut self.bstage,
        ] {
            resize_buf(buf, n);
        }
        gather_variable_major(states, dim, k, &mut self.bxs);
        sys.derivatives_batch(t, &self.bxs, dim, k, &mut self.bk1);
        lanes_stage(&mut self.bstage, &self.bxs, 0.5 * h, &self.bk1);
        sys.derivatives_batch(t + 0.5 * h, &self.bstage, dim, k, &mut self.bk2);
        lanes_stage(&mut self.bstage, &self.bxs, 0.5 * h, &self.bk2);
        sys.derivatives_batch(t + 0.5 * h, &self.bstage, dim, k, &mut self.bk3);
        lanes_stage(&mut self.bstage, &self.bxs, h, &self.bk3);
        sys.derivatives_batch(t + h, &self.bstage, dim, k, &mut self.bk4);
        lanes_rk4_combine(&mut self.bxs, h / 6.0, &self.bk1, &self.bk2, &self.bk3, &self.bk4);
        ensure_finite(t + h, &self.bxs)?;
        scatter_variable_major(&self.bxs, dim, k, states);
        Ok(())
    }
}

/// Adaptive Dormand–Prince 4(5) with PI-free elementary step control.
///
/// Rejected steps leave `x` untouched and suggest a smaller `h_next`.
#[derive(Debug, Clone)]
pub struct Dopri45 {
    /// Absolute error tolerance.
    pub abs_tol: f64,
    /// Relative error tolerance.
    pub rel_tol: f64,
    /// Smallest step the controller may propose before erroring out.
    pub min_step: f64,
    k: [StateVec; 7],
    tmp: StateVec,
    x5: StateVec,
}

impl Default for Dopri45 {
    fn default() -> Self {
        Dopri45 {
            abs_tol: 1e-8,
            rel_tol: 1e-8,
            min_step: 1e-14,
            k: Default::default(),
            tmp: StateVec::default(),
            x5: StateVec::default(),
        }
    }
}

impl Dopri45 {
    /// Creates the strategy with `abs_tol = rel_tol = 1e-8`.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates the strategy with explicit tolerances.
    ///
    /// # Panics
    ///
    /// Panics if either tolerance is not positive.
    pub fn with_tolerances(abs_tol: f64, rel_tol: f64) -> Self {
        assert!(abs_tol > 0.0 && rel_tol > 0.0, "tolerances must be positive");
        Dopri45 { abs_tol, rel_tol, ..Self::default() }
    }
}

// Dormand–Prince Butcher tableau.
const A: [[f64; 6]; 6] = [
    [1.0 / 5.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [3.0 / 40.0, 9.0 / 40.0, 0.0, 0.0, 0.0, 0.0],
    [44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0, 0.0, 0.0, 0.0],
    [19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0, 0.0, 0.0],
    [9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0, -5103.0 / 18656.0, 0.0],
    [35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0],
];
const C: [f64; 6] = [1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0, 1.0, 1.0];
const B5: [f64; 7] =
    [35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0, 0.0];
const B4: [f64; 7] = [
    5179.0 / 57600.0,
    0.0,
    7571.0 / 16695.0,
    393.0 / 640.0,
    -92097.0 / 339200.0,
    187.0 / 2100.0,
    1.0 / 40.0,
];

impl Solver for Dopri45 {
    fn name(&self) -> &str {
        "dopri45"
    }

    fn order(&self) -> u32 {
        5
    }

    fn is_adaptive(&self) -> bool {
        true
    }

    fn clone_boxed(&self) -> Option<Box<dyn Solver + Send>> {
        Some(Box::new(self.clone()))
    }

    fn step(
        &mut self,
        sys: &dyn OdeSystem,
        t: f64,
        x: &mut [f64],
        h: f64,
    ) -> Result<StepOutcome, SolveError> {
        validate(sys, x, h)?;
        let n = x.len();
        for k in &mut self.k {
            resize(k, n);
        }
        resize(&mut self.tmp, n);
        resize(&mut self.x5, n);

        sys.derivatives(t, x, self.k[0].as_mut_slice());
        for stage in 0..6 {
            for i in 0..n {
                let mut acc = 0.0;
                for (j, a) in A[stage].iter().enumerate().take(stage + 1) {
                    acc += a * self.k[j][i];
                }
                self.tmp[i] = x[i] + h * acc;
            }
            sys.derivatives(
                t + C[stage] * h,
                self.tmp.as_slice(),
                self.k[stage + 1].as_mut_slice(),
            );
        }

        // 5th-order solution and embedded 4th-order error estimate.
        let mut err_norm: f64 = 0.0;
        for i in 0..n {
            let mut s5 = 0.0;
            let mut s4 = 0.0;
            for j in 0..7 {
                s5 += B5[j] * self.k[j][i];
                s4 += B4[j] * self.k[j][i];
            }
            let x5i = x[i] + h * s5;
            let x4i = x[i] + h * s4;
            self.x5[i] = x5i;
            let scale = self.abs_tol + self.rel_tol * x[i].abs().max(x5i.abs());
            let e = (x5i - x4i) / scale;
            err_norm += e * e;
        }
        let err_norm = (err_norm / n.max(1) as f64).sqrt();

        let safety = 0.9;
        let exponent = 1.0 / 5.0;
        let factor =
            if err_norm == 0.0 { 5.0 } else { (safety * err_norm.powf(-exponent)).clamp(0.2, 5.0) };
        let h_next = h * factor;

        if err_norm <= 1.0 {
            x.copy_from_slice(self.x5.as_slice());
            ensure_finite(t + h, x)?;
            Ok(StepOutcome { accepted: true, h_taken: h, h_next, error_estimate: Some(err_norm) })
        } else {
            if h_next < self.min_step {
                return Err(SolveError::StepSizeUnderflow { time: t, step: h_next });
            }
            Ok(StepOutcome {
                accepted: false,
                h_taken: 0.0,
                h_next,
                error_estimate: Some(err_norm),
            })
        }
    }
}

/// Backward Euler solved by damped fixed-point iteration.
///
/// A-stable for the fixed-point-contractive regime (`h * L < 1` on the
/// system's Lipschitz constant); useful for the stiff decay experiments.
#[derive(Debug, Clone)]
pub struct BackwardEuler {
    /// Convergence tolerance on the state increment (infinity norm).
    pub tol: f64,
    /// Maximum fixed-point iterations per step.
    pub max_iters: usize,
    k: StateVec,
    guess: StateVec,
}

impl Default for BackwardEuler {
    fn default() -> Self {
        BackwardEuler {
            tol: 1e-12,
            max_iters: 100,
            k: StateVec::default(),
            guess: StateVec::default(),
        }
    }
}

impl BackwardEuler {
    /// Creates the strategy with default tolerance `1e-12`.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Solver for BackwardEuler {
    fn name(&self) -> &str {
        "backward-euler"
    }

    fn order(&self) -> u32 {
        1
    }

    fn clone_boxed(&self) -> Option<Box<dyn Solver + Send>> {
        Some(Box::new(self.clone()))
    }

    fn step(
        &mut self,
        sys: &dyn OdeSystem,
        t: f64,
        x: &mut [f64],
        h: f64,
    ) -> Result<StepOutcome, SolveError> {
        validate(sys, x, h)?;
        let n = x.len();
        resize(&mut self.k, n);
        resize(&mut self.guess, n);
        // Initial guess: forward Euler predictor.
        sys.derivatives(t, x, self.k.as_mut_slice());
        for i in 0..n {
            self.guess[i] = x[i] + h * self.k[i];
        }
        let mut converged = false;
        for _ in 0..self.max_iters {
            sys.derivatives(t + h, self.guess.as_slice(), self.k.as_mut_slice());
            let mut delta: f64 = 0.0;
            for i in 0..n {
                let next = x[i] + h * self.k[i];
                delta = delta.max((next - self.guess[i]).abs());
                self.guess[i] = next;
            }
            if delta <= self.tol {
                converged = true;
                break;
            }
        }
        if !converged {
            return Err(SolveError::NoConvergence { iterations: self.max_iters });
        }
        x.copy_from_slice(self.guess.as_slice());
        ensure_finite(t + h, x)?;
        Ok(StepOutcome::fixed(h))
    }
}

fn resize(v: &mut StateVec, n: usize) {
    if v.dim() != n {
        *v = StateVec::zeros(n);
    }
}

/// Drives a solver across many steps, handling adaptive rejection and
/// end-of-interval clamping. Used by [`crate::integrate`] and by the
/// streamer executor in `urt-dataflow`.
#[derive(Debug, Clone)]
pub struct SolverDriver {
    t: f64,
    x: StateVec,
    h: f64,
    h_nominal: f64,
}

impl SolverDriver {
    /// Creates a driver at `(t0, x0)` with nominal step `h`.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::InvalidStep`] if `h` is not positive and finite.
    pub fn new(t0: f64, x0: &[f64], h: f64) -> Result<Self, SolveError> {
        if !(h.is_finite() && h > 0.0) {
            return Err(SolveError::InvalidStep { step: h });
        }
        // Solver threads advance their drivers concurrently, and a state
        // of a few lanes is a tiny allocation: padded to a whole 128-byte
        // cache-line pair, two drivers' states never share a line.
        let mut x = Vec::with_capacity(x0.len().next_multiple_of(16));
        x.extend_from_slice(x0);
        Ok(SolverDriver { t: t0, x: StateVec::from(x), h, h_nominal: h })
    }

    /// Current time.
    pub fn time(&self) -> f64 {
        self.t
    }

    /// Current state.
    pub fn state(&self) -> &StateVec {
        &self.x
    }

    /// Mutable access to the state (for discrete resets at events).
    pub fn state_mut(&mut self) -> &mut StateVec {
        &mut self.x
    }

    /// Overwrites the current time (for executors that integrate the
    /// state out-of-band — e.g. a batched kernel — and re-synchronize
    /// the driver afterwards).
    pub fn set_time(&mut self, t: f64) {
        self.t = t;
    }

    /// Advances by one *accepted* step, never past `t_end`.
    ///
    /// When the remaining interval is below floating-point resolution the
    /// time is snapped to `t_end` with a zero-length accepted step, so
    /// `while driver.time() < t_end` loops always terminate.
    ///
    /// # Errors
    ///
    /// Propagates any [`SolveError`] from the solver; also errors if an
    /// adaptive solver rejects steps until underflow.
    pub fn advance<S: Solver + ?Sized>(
        &mut self,
        sys: &dyn OdeSystem,
        solver: &mut S,
        t_end: f64,
    ) -> Result<StepOutcome, SolveError> {
        loop {
            let remaining = t_end - self.t;
            let resolution = 4.0 * f64::EPSILON * t_end.abs().max(1.0);
            if remaining <= resolution {
                self.t = t_end;
                return Ok(StepOutcome {
                    accepted: true,
                    h_taken: remaining.max(0.0),
                    h_next: self.h,
                    error_estimate: None,
                });
            }
            // Fixed-step solvers always restart from the nominal step —
            // only adaptive solvers carry their own step suggestion, and a
            // clamped end-of-interval step must never poison it.
            let h = if solver.is_adaptive() {
                self.h.min(remaining)
            } else {
                self.h_nominal.min(remaining)
            };
            let h = if h <= 0.0 { remaining } else { h };
            let outcome = solver.step(sys, self.t, self.x.as_mut_slice(), h)?;
            if outcome.accepted {
                self.t += outcome.h_taken;
                // Snap when accumulation lands within resolution of t_end.
                if t_end - self.t <= resolution {
                    self.t = t_end;
                }
                if solver.is_adaptive() && outcome.h_taken >= remaining.min(self.h) * 0.99 {
                    self.h = outcome.h_next.min(self.h_nominal * 10.0).max(1e-300);
                }
                return Ok(outcome);
            }
            self.h = outcome.h_next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::library::{decay, HarmonicOscillator};
    use crate::system::FnSystem;

    fn solve_decay(kind: SolverKind, h: f64) -> f64 {
        let sys = decay(1.0);
        let mut solver = kind.create();
        let mut x = vec![1.0];
        let mut t = 0.0;
        while t < 1.0 - 1e-12 {
            let step = h.min(1.0 - t);
            let out = solver.step(&sys, t, &mut x, step).expect("step ok");
            if out.accepted {
                t += out.h_taken;
            }
        }
        x[0]
    }

    #[test]
    fn all_kinds_create_and_name() {
        for kind in SolverKind::ALL {
            let s = kind.create();
            assert_eq!(s.name(), kind.to_string());
            assert!(s.order() >= 1);
        }
    }

    #[test]
    fn convergence_orders_rank_correctly() {
        let exact = (-1.0f64).exp();
        let e1 = (solve_decay(SolverKind::ForwardEuler, 0.01) - exact).abs();
        let e2 = (solve_decay(SolverKind::Heun, 0.01) - exact).abs();
        let e4 = (solve_decay(SolverKind::Rk4, 0.01) - exact).abs();
        assert!(e2 < e1, "heun {e2} should beat euler {e1}");
        assert!(e4 < e2, "rk4 {e4} should beat heun {e2}");
    }

    #[test]
    fn euler_halving_h_halves_error() {
        let exact = (-1.0f64).exp();
        let e_h = (solve_decay(SolverKind::ForwardEuler, 0.02) - exact).abs();
        let e_h2 = (solve_decay(SolverKind::ForwardEuler, 0.01) - exact).abs();
        let ratio = e_h / e_h2;
        assert!((ratio - 2.0).abs() < 0.2, "order-1 ratio was {ratio}");
    }

    #[test]
    fn rk4_sixteenths_error_when_halving() {
        let exact = (-1.0f64).exp();
        let e_h = (solve_decay(SolverKind::Rk4, 0.2) - exact).abs();
        let e_h2 = (solve_decay(SolverKind::Rk4, 0.1) - exact).abs();
        let ratio = e_h / e_h2;
        assert!(ratio > 12.0 && ratio < 20.0, "order-4 ratio was {ratio}");
    }

    #[test]
    fn dopri_rejects_then_accepts() {
        let sys = decay(50.0);
        let mut solver = Dopri45::with_tolerances(1e-10, 1e-10);
        let mut x = vec![1.0];
        // Enormous first step must be rejected.
        let out = solver.step(&sys, 0.0, &mut x, 1.0).unwrap();
        assert!(!out.accepted);
        assert_eq!(x[0], 1.0, "rejected step must not modify state");
        assert!(out.h_next < 1.0);
        let out2 = solver.step(&sys, 0.0, &mut x, out.h_next).unwrap();
        // Eventually accepted (maybe after another rejection).
        let mut h = out2.h_next;
        let mut accepted = out2.accepted;
        for _ in 0..20 {
            if accepted {
                break;
            }
            let o = solver.step(&sys, 0.0, &mut x, h).unwrap();
            accepted = o.accepted;
            h = o.h_next;
        }
        assert!(accepted);
    }

    #[test]
    fn dopri_energy_preserved_on_oscillator() {
        let sys = HarmonicOscillator { omega: 1.0 };
        let traj = crate::integrate(&sys, &mut Dopri45::new(), 0.0, 20.0, &[1.0, 0.0], 0.1)
            .expect("integrates");
        let x = traj.last_state();
        let energy = x[0] * x[0] + x[1] * x[1];
        assert!((energy - 1.0).abs() < 1e-5, "energy drifted to {energy}");
    }

    #[test]
    fn backward_euler_is_stable_on_stiff_decay() {
        // Forward Euler with h=0.5 on x' = -10x diverges (|1 - 10*0.5| = 4 > 1);
        // backward Euler stays bounded.
        let sys = decay(10.0);
        let mut fe = ForwardEuler::new();
        let mut be = BackwardEuler::new();
        let mut xf = vec![1.0];
        let mut xb = vec![1.0];
        let mut t = 0.0;
        for _ in 0..20 {
            // h*L = 5 > 1 breaks the fixed point, use h where it contracts: 0.05.
            fe.step(&sys, t, &mut xf, 0.5).unwrap();
            be.step(&sys, t, &mut xb, 0.05).unwrap();
            t += 0.5;
        }
        assert!(xf[0].abs() > 1.0, "forward euler should diverge, got {}", xf[0]);
        assert!(xb[0].abs() < 1.0, "backward euler should contract, got {}", xb[0]);
    }

    #[test]
    fn backward_euler_reports_no_convergence() {
        // h*L >> 1 makes the fixed-point iteration diverge.
        let sys = decay(100.0);
        let mut be = BackwardEuler { max_iters: 5, ..BackwardEuler::new() };
        let mut x = vec![1.0];
        let err = be.step(&sys, 0.0, &mut x, 1.0).unwrap_err();
        assert!(matches!(err, SolveError::NoConvergence { .. }));
    }

    #[test]
    fn step_validates_inputs() {
        let sys = decay(1.0);
        let mut s = Rk4::new();
        let mut x = vec![1.0, 2.0];
        assert!(matches!(
            s.step(&sys, 0.0, &mut x, 0.1),
            Err(SolveError::DimensionMismatch { .. })
        ));
        let mut x = vec![1.0];
        assert!(matches!(s.step(&sys, 0.0, &mut x, 0.0), Err(SolveError::InvalidStep { .. })));
        assert!(matches!(s.step(&sys, 0.0, &mut x, f64::NAN), Err(SolveError::InvalidStep { .. })));
    }

    #[test]
    fn non_finite_state_detected() {
        let sys = FnSystem::new(1, |_t, _x, dx: &mut [f64]| dx[0] = f64::NAN);
        let mut s = ForwardEuler::new();
        let mut x = vec![1.0];
        assert!(matches!(s.step(&sys, 0.0, &mut x, 0.1), Err(SolveError::NonFiniteState { .. })));
    }

    #[test]
    fn driver_clamps_to_t_end() {
        let sys = decay(1.0);
        let mut driver = SolverDriver::new(0.0, &[1.0], 0.4).unwrap();
        let mut solver = Rk4::new();
        while driver.time() < 1.0 {
            driver.advance(&sys, &mut solver, 1.0).unwrap();
        }
        assert!((driver.time() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn clone_boxed_replicates_every_kind() {
        for kind in SolverKind::ALL {
            let proto = kind.create();
            let clone = proto.clone_boxed().expect("library solvers are cloneable");
            assert_eq!(clone.name(), proto.name());
            assert_eq!(clone.order(), proto.order());
            assert_eq!(clone.is_adaptive(), proto.is_adaptive());
        }
    }

    #[test]
    fn step_batch_lanes_match_standalone_steps() {
        let sys = HarmonicOscillator { omega: 1.0 };
        // Four instance-major lanes with different initial conditions.
        let mut batch = vec![1.0, 0.0, 0.5, 0.0, 0.0, 1.0, -1.0, 0.5];
        let mut solver = Rk4::new();
        solver.step_batch(&sys, 0.0, &mut batch, 2, 0.1).unwrap();
        for (i, x0) in [[1.0, 0.0], [0.5, 0.0], [0.0, 1.0], [-1.0, 0.5]].iter().enumerate() {
            let mut lane = x0.to_vec();
            Rk4::new().step(&sys, 0.0, &mut lane, 0.1).unwrap();
            for d in 0..2 {
                assert_eq!(
                    batch[i * 2 + d].to_bits(),
                    lane[d].to_bits(),
                    "lane {i} bit-identical to a standalone step"
                );
            }
        }
    }

    #[test]
    fn step_batch_supports_adaptive_solvers() {
        let sys = decay(5.0);
        let mut batch = vec![1.0, 2.0];
        Dopri45::new().step_batch(&sys, 0.0, &mut batch, 1, 0.5).unwrap();
        let exact = (-5.0f64 * 0.5).exp();
        assert!((batch[0] - exact).abs() < 1e-6, "lane 0 got {}", batch[0]);
        assert!((batch[1] - 2.0 * exact).abs() < 1e-6, "lane 1 got {}", batch[1]);
    }

    #[test]
    fn step_batch_validates_layout() {
        let sys = decay(1.0);
        let mut batch = vec![1.0, 2.0, 3.0];
        assert!(matches!(
            Rk4::new().step_batch(&sys, 0.0, &mut batch, 2, 0.1),
            Err(SolveError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            Rk4::new().step_batch(&sys, 0.0, &mut batch, 0, 0.1),
            Err(SolveError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn driver_rejects_bad_step() {
        assert!(SolverDriver::new(0.0, &[1.0], 0.0).is_err());
        assert!(SolverDriver::new(0.0, &[1.0], -1.0).is_err());
        assert!(SolverDriver::new(0.0, &[1.0], f64::INFINITY).is_err());
    }

    #[test]
    fn driver_set_time_overwrites_the_clock() {
        let mut driver = SolverDriver::new(0.0, &[1.0], 0.1).unwrap();
        driver.set_time(2.5);
        assert_eq!(driver.time(), 2.5);
    }

    #[test]
    fn only_explicit_fixed_step_solvers_report_batched_kernels() {
        for kind in SolverKind::ALL {
            let expect = matches!(kind, SolverKind::ForwardEuler | SolverKind::Rk4);
            assert_eq!(kind.create().has_batched_kernel(), expect, "{kind} batched-kernel flag");
        }
    }

    #[test]
    fn euler_batched_kernel_is_bit_identical_to_scalar_steps() {
        let sys = HarmonicOscillator { omega: 3.0 };
        let lanes = [[1.0, 0.0], [0.25, -0.5], [-2.0, 1.5], [0.1, 0.2], [7.0, -3.0]];
        let mut batch: Vec<f64> = lanes.iter().flatten().copied().collect();
        let mut solver = ForwardEuler::new();
        assert!(solver.has_batched_kernel());
        solver.step_batch(&sys, 0.5, &mut batch, 2, 0.01).unwrap();
        for (i, x0) in lanes.iter().enumerate() {
            let mut lane = x0.to_vec();
            ForwardEuler::new().step(&sys, 0.5, &mut lane, 0.01).unwrap();
            for d in 0..2 {
                assert_eq!(batch[i * 2 + d].to_bits(), lane[d].to_bits(), "lane {i} var {d}");
            }
        }
    }

    #[test]
    fn rk4_batched_kernel_handles_lane_width_remainders() {
        // 13 lanes of a 1-d system: neither 13 nor the flattened buffer is
        // a multiple of LANE_WIDTH, exercising the chunked-sweep tails.
        let sys = decay(2.0);
        let k = 13;
        let mut batch: Vec<f64> = (0..k).map(|i| 0.5 + i as f64).collect();
        let mut solver = Rk4::new();
        solver.step_batch(&sys, 0.0, &mut batch, 1, 0.05).unwrap();
        for i in 0..k {
            let mut lane = vec![0.5 + i as f64];
            Rk4::new().step(&sys, 0.0, &mut lane, 0.05).unwrap();
            assert_eq!(batch[i].to_bits(), lane[0].to_bits(), "lane {i}");
        }
    }

    #[test]
    fn batched_kernel_reports_non_finite_states() {
        // Derivative explodes to inf immediately.
        let sys = FnSystem::new(1, |_t, _x, dx| dx[0] = f64::INFINITY);
        let mut batch = vec![1.0, 2.0];
        assert!(matches!(
            ForwardEuler::new().step_batch(&sys, 0.0, &mut batch, 1, 0.1),
            Err(SolveError::NonFiniteState { .. })
        ));
    }

    #[test]
    fn batched_kernel_rejects_dim_mismatch_with_system() {
        let sys = HarmonicOscillator { omega: 1.0 };
        let mut batch = vec![1.0, 2.0, 3.0];
        assert!(matches!(
            Rk4::new().step_batch(&sys, 0.0, &mut batch, 1, 0.1),
            Err(SolveError::DimensionMismatch { .. })
        ));
    }

    /// An adaptive-looking strategy whose controller underflows: every
    /// step is rejected with a suggested `h_next` of zero. The pinned
    /// `step_batch` termination must surface this as
    /// [`SolveError::StepSizeUnderflow`] instead of spinning.
    struct UnderflowingSolver {
        attempts: Vec<f64>,
    }

    impl Solver for UnderflowingSolver {
        fn name(&self) -> &str {
            "underflowing"
        }

        fn order(&self) -> u32 {
            1
        }

        fn is_adaptive(&self) -> bool {
            true
        }

        fn step(
            &mut self,
            _sys: &dyn OdeSystem,
            _t: f64,
            _x: &mut [f64],
            h: f64,
        ) -> Result<StepOutcome, SolveError> {
            self.attempts.push(h);
            Ok(StepOutcome { accepted: false, h_taken: 0.0, h_next: 0.0, error_estimate: None })
        }
    }

    #[test]
    fn default_step_batch_errors_instead_of_spinning_on_h_next_underflow() {
        let sys = decay(1.0);
        let mut batch = vec![1.0];
        let mut solver = UnderflowingSolver { attempts: Vec::new() };
        let err = solver.step_batch(&sys, 0.0, &mut batch, 1, 1.0).unwrap_err();
        assert!(
            matches!(err, SolveError::StepSizeUnderflow { .. }),
            "expected StepSizeUnderflow, got {err:?}"
        );
        // Exactly one attempt: the first rejection suggests h_next = 0,
        // which is below resolution, so the loop must stop immediately.
        assert_eq!(solver.attempts.len(), 1);
    }

    /// Accepts every step but halves the suggestion each time, driving
    /// `h_next` towards zero as the lane closes in on `t_end`.
    struct HalvingSolver {
        attempts: Vec<f64>,
    }

    impl Solver for HalvingSolver {
        fn name(&self) -> &str {
            "halving"
        }

        fn order(&self) -> u32 {
            1
        }

        fn is_adaptive(&self) -> bool {
            true
        }

        fn step(
            &mut self,
            _sys: &dyn OdeSystem,
            _t: f64,
            _x: &mut [f64],
            h: f64,
        ) -> Result<StepOutcome, SolveError> {
            self.attempts.push(h);
            Ok(StepOutcome { accepted: true, h_taken: h, h_next: h / 2.0, error_estimate: None })
        }
    }

    #[test]
    fn default_step_batch_never_attempts_a_step_below_resolution() {
        let sys = decay(1.0);
        let mut batch = vec![1.0];
        let mut solver = HalvingSolver { attempts: Vec::new() };
        let t_end: f64 = 1.0;
        let resolution = f64::EPSILON * t_end.abs().max(1.0);
        // Halving converges on t_end geometrically; the loop must either
        // finish or error out, but every *attempted* step stays at or
        // above the interval resolution.
        let result = solver.step_batch(&sys, 0.0, &mut batch, 1, t_end);
        assert!(!solver.attempts.is_empty());
        for h in &solver.attempts {
            assert!(*h >= resolution, "attempted step {h} below resolution {resolution}");
        }
        if let Err(e) = result {
            assert!(matches!(e, SolveError::StepSizeUnderflow { .. }), "unexpected error {e:?}");
        }
    }
}
