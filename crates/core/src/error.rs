//! Unified error type for the core crate.

use std::error::Error;
use std::fmt;
use urt_dataflow::FlowError;
use urt_umlrt::RtError;

/// Errors raised by the unified model and the hybrid engine.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CoreError {
    /// The event-driven runtime failed.
    Rt(RtError),
    /// The dataflow extension failed.
    Flow(FlowError),
    /// A model well-formedness rule from the paper was violated.
    Validation {
        /// Which rule (short identifier, e.g. "fig3-containment").
        rule: &'static str,
        /// Human-readable description of the violation.
        detail: String,
    },
    /// An engine lifecycle or configuration problem.
    Engine {
        /// What went wrong.
        detail: String,
    },
    /// A solver thread disappeared (panicked or disconnected).
    ThreadLost {
        /// Index of the streamer group whose thread died.
        group: usize,
    },
    /// A second SPort link was registered for the same
    /// `(group, node, sport)` key — each streamer SPort routes to exactly
    /// one capsule port, so the duplicate would silently shadow the first.
    DuplicateSportLink {
        /// Streamer group index.
        group: usize,
        /// Node name (or index rendering) within the group.
        node: String,
        /// The SPort that was linked twice.
        sport: String,
    },
    /// Elaboration of a `UnifiedModel` into a `CompiledSystem` failed:
    /// the model was rejected by the analysis gate, referenced a behavior
    /// the registry does not provide, or declared structure the executable
    /// form cannot realise.
    Elaborate {
        /// What went wrong.
        detail: String,
    },
    /// An engine configuration declared a macro step that is not a
    /// positive, finite number — refused before any engine state is
    /// built. Raised by `HybridEngine::from_compiled` and
    /// `HybridEngine::from_variants`, the only engine constructors.
    InvalidStep {
        /// The offending step value.
        step: f64,
    },
    /// A paced run under `OverrunPolicy::SafetyStop` exhausted its
    /// tolerance for consecutive deadline misses — the runtime half of
    /// the URT301 budget contract. Carries the miss report at the point
    /// of abort.
    DeadlineOverrun {
        /// Macro step count when the run aborted.
        step: u64,
        /// Consecutive misses at the point of abort.
        consecutive: u64,
        /// The enforced budget, nanoseconds per macro step.
        budget_ns: f64,
        /// Worst observed per-step cycle time, nanoseconds.
        worst_ns: f64,
        /// Total deadline misses over the whole run.
        misses: u64,
    },
}

impl CoreError {
    /// Stable diagnostic code for a model well-formedness rule, shared
    /// with the `urt_analysis` lint registry.
    pub fn validation_code(rule: &str) -> &'static str {
        match rule {
            "unique-names" => "URT101",
            "fig3-containment" => "URT102",
            "containment-acyclic" => "URT103",
            "flow-endpoint" => "URT104",
            "flow-subset" => "URT105",
            "fig3-dport-relay" => "URT106",
            "sport-protocol" => "URT107",
            "probe-port" => "URT108",
            _ => "URT199",
        }
    }

    /// Stable diagnostic code (`URTxxx`) for this error, included in the
    /// display string so log greps and tests can match on the code
    /// instead of prose. [`CoreError::Flow`] delegates to the inner
    /// [`FlowError::code`].
    pub fn code(&self) -> &'static str {
        match self {
            CoreError::Rt(_) => "URT110",
            CoreError::Flow(e) => e.code(),
            CoreError::Validation { rule, .. } => Self::validation_code(rule),
            CoreError::Engine { .. } => "URT111",
            CoreError::ThreadLost { .. } => "URT112",
            CoreError::DuplicateSportLink { .. } => "URT113",
            CoreError::Elaborate { .. } => "URT114",
            CoreError::DeadlineOverrun { .. } => "URT115",
            CoreError::InvalidStep { .. } => "URT116",
        }
    }
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Rt(e) => write!(f, "{}: runtime error: {e}", self.code()),
            // The inner FlowError display already carries its code.
            CoreError::Flow(e) => write!(f, "dataflow error: {e}"),
            CoreError::Validation { rule, detail } => {
                write!(f, "{}: model rule `{rule}` violated: {detail}", self.code())
            }
            CoreError::Engine { detail } => write!(f, "{}: engine error: {detail}", self.code()),
            CoreError::ThreadLost { group } => {
                write!(f, "{}: solver thread for group {group} was lost", self.code())
            }
            CoreError::DuplicateSportLink { group, node, sport } => {
                write!(
                    f,
                    "{}: duplicate SPort link: group {group} node `{node}` sport `{sport}` \
                     is already linked to a capsule port",
                    self.code()
                )
            }
            CoreError::Elaborate { detail } => {
                write!(f, "{}: elaboration error: {detail}", self.code())
            }
            CoreError::InvalidStep { step } => {
                write!(
                    f,
                    "{}: macro step must be a positive, finite number, got {step}",
                    self.code()
                )
            }
            CoreError::DeadlineOverrun { step, consecutive, budget_ns, worst_ns, misses } => {
                write!(
                    f,
                    "{}: deadline overrun at step {step}: {consecutive} consecutive misses \
                     (budget {budget_ns} ns, worst {worst_ns} ns, {misses} total misses)",
                    self.code()
                )
            }
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Rt(e) => Some(e),
            CoreError::Flow(e) => Some(e),
            _ => None,
        }
    }
}

impl From<RtError> for CoreError {
    fn from(e: RtError) -> Self {
        CoreError::Rt(e)
    }
}

impl From<FlowError> for CoreError {
    fn from(e: FlowError) -> Self {
        CoreError::Flow(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_sources() {
        let e: CoreError = RtError::MissingInitial.into();
        assert!(e.source().is_some());
        let e: CoreError = FlowError::UnknownNode { index: 1 }.into();
        assert!(e.to_string().contains("dataflow"));
        let e = CoreError::Validation { rule: "fig3-containment", detail: "x".into() };
        assert!(e.to_string().contains("fig3-containment"));
        assert!(e.source().is_none());
    }

    #[test]
    fn display_carries_stable_codes() {
        let e = CoreError::Validation { rule: "flow-subset", detail: "x".into() };
        assert_eq!(e.code(), "URT105");
        assert!(e.to_string().starts_with("URT105: "));
        let e: CoreError =
            FlowError::UnconnectedInput { node: "n".into(), port: "p".into() }.into();
        assert_eq!(e.code(), "URT006", "Flow delegates to the inner code");
        assert!(e.to_string().contains("URT006"));
        let e = CoreError::Engine { detail: "x".into() };
        assert!(e.to_string().starts_with("URT111: "));
        let e = CoreError::ThreadLost { group: 3 };
        assert!(e.to_string().starts_with("URT112: "));
        let e =
            CoreError::DuplicateSportLink { group: 0, node: "tank".into(), sport: "ctl".into() };
        assert_eq!(e.code(), "URT113");
        assert!(e.to_string().starts_with("URT113: "));
        let e = CoreError::Elaborate { detail: "x".into() };
        assert_eq!(e.code(), "URT114");
        assert!(e.to_string().starts_with("URT114: "));
        let e = CoreError::DeadlineOverrun {
            step: 42,
            consecutive: 3,
            budget_ns: 1e6,
            worst_ns: 2.5e6,
            misses: 7,
        };
        assert_eq!(e.code(), "URT115");
        assert!(e.to_string().starts_with("URT115: "));
        assert!(e.to_string().contains("step 42"));
        assert!(e.to_string().contains("3 consecutive"));
        let e = CoreError::InvalidStep { step: -1.0 };
        assert_eq!(e.code(), "URT116");
        assert!(e.to_string().starts_with("URT116: "));
        assert!(e.to_string().contains("-1"));
    }

    #[test]
    fn send_sync() {
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<CoreError>();
    }
}
