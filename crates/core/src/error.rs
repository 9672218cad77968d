//! The crate-wide error type.

use std::error::Error;
use std::fmt;

use crate::RoleId;

/// Error returned by script construction, enrollment, and inter-role
/// communication.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ScriptError {
    /// The addressed role has terminated, or the cast froze without it
    /// ever being filled.
    ///
    /// This is the paper's "distinguished value" returned by attempts to
    /// communicate with an unfilled role.
    RoleUnavailable(RoleId),
    /// Every possible communication partner of the operation has
    /// terminated.
    AllPartnersTerminated,
    /// The performance was aborted (usually because a role body
    /// panicked); all participants are released with this error.
    PerformanceAborted,
    /// This role's own body panicked; returned to the enroller of the
    /// panicking role (its partners see [`ScriptError::PerformanceAborted`]).
    RolePanicked(RoleId),
    /// A deadline expired before the operation completed.
    Timeout,
    /// The instance watchdog aborted the performance because it made no
    /// communication progress within the configured quiescence window
    /// (see `Instance::set_watchdog_policy`).
    Stalled,
    /// A non-blocking enrollment could not be admitted immediately
    /// (see `Enrollment::non_blocking` — "script enrollment as a
    /// guard").
    WouldBlock,
    /// The named role does not exist in the script.
    UnknownRole(RoleId),
    /// A role attempted to communicate with itself.
    SelfCommunication,
    /// A selection was attempted with no (enabled) guards.
    NoEnabledGuards,
    /// The instance was closed; no further enrollments are accepted.
    InstanceClosed,
    /// The script declaration is invalid (builder-time validation).
    InvalidSpec(String),
    /// Enrollment parameters did not match the role's declared parameter
    /// type. Cannot happen when using the typed handles produced by the
    /// builder.
    ParamType {
        /// The role whose body was invoked.
        role: RoleId,
        /// The declared Rust type of the role's parameters.
        expected: &'static str,
    },
    /// An application-level error raised by a role body.
    App(String),
}

impl ScriptError {
    /// Convenience constructor for application-level role-body errors.
    pub fn app(msg: impl Into<String>) -> Self {
        ScriptError::App(msg.into())
    }

    /// Is this a transient failure worth retrying (timeouts, aborted or
    /// stalled performances)? Structural errors — unknown roles, bad
    /// parameters, a closed instance — are permanent and are not.
    ///
    /// This is the default predicate used by `RetryPolicy`-driven
    /// runners.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            ScriptError::Timeout
                | ScriptError::Stalled
                | ScriptError::PerformanceAborted
                | ScriptError::WouldBlock
        )
    }
}

impl fmt::Display for ScriptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScriptError::RoleUnavailable(r) => {
                write!(f, "role {r} terminated or will never be filled")
            }
            ScriptError::AllPartnersTerminated => {
                write!(f, "all possible partner roles terminated")
            }
            ScriptError::PerformanceAborted => write!(f, "performance aborted"),
            ScriptError::RolePanicked(r) => write!(f, "role {r} panicked"),
            ScriptError::Timeout => write!(f, "operation timed out"),
            ScriptError::Stalled => {
                write!(f, "performance stalled (watchdog quiescence deadline)")
            }
            ScriptError::WouldBlock => {
                write!(f, "enrollment would block (no immediate admission)")
            }
            ScriptError::UnknownRole(r) => write!(f, "role {r} is not declared in the script"),
            ScriptError::SelfCommunication => write!(f, "a role cannot communicate with itself"),
            ScriptError::NoEnabledGuards => write!(f, "selection has no enabled guards"),
            ScriptError::InstanceClosed => write!(f, "script instance closed"),
            ScriptError::InvalidSpec(msg) => write!(f, "invalid script: {msg}"),
            ScriptError::ParamType { role, expected } => {
                write!(f, "parameters for role {role} must have type {expected}")
            }
            ScriptError::App(msg) => write!(f, "role error: {msg}"),
        }
    }
}

impl Error for ScriptError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_role() {
        let e = ScriptError::RoleUnavailable(RoleId::indexed("recipient", 2));
        assert!(e.to_string().contains("recipient[2]"));
    }

    #[test]
    fn app_constructor() {
        assert_eq!(
            ScriptError::app("lock denied"),
            ScriptError::App("lock denied".into())
        );
    }

    #[test]
    fn transient_classification() {
        assert!(ScriptError::Timeout.is_transient());
        assert!(ScriptError::Stalled.is_transient());
        assert!(ScriptError::PerformanceAborted.is_transient());
        assert!(!ScriptError::InstanceClosed.is_transient());
        assert!(!ScriptError::UnknownRole(RoleId::new("r")).is_transient());
        assert!(!ScriptError::App("x".into()).is_transient());
    }

    #[test]
    fn implements_std_error() {
        fn is_error<E: Error + Send + Sync + 'static>(_: &E) {}
        is_error(&ScriptError::Timeout);
    }

    #[test]
    fn all_variants_display_nonempty() {
        let variants = [
            ScriptError::RoleUnavailable(RoleId::new("r")),
            ScriptError::AllPartnersTerminated,
            ScriptError::PerformanceAborted,
            ScriptError::RolePanicked(RoleId::new("r")),
            ScriptError::Timeout,
            ScriptError::Stalled,
            ScriptError::WouldBlock,
            ScriptError::UnknownRole(RoleId::new("r")),
            ScriptError::SelfCommunication,
            ScriptError::NoEnabledGuards,
            ScriptError::InstanceClosed,
            ScriptError::InvalidSpec("x".into()),
            ScriptError::ParamType {
                role: RoleId::new("r"),
                expected: "u32",
            },
            ScriptError::App("x".into()),
        ];
        for v in variants {
            assert!(!v.to_string().is_empty());
        }
    }
}
