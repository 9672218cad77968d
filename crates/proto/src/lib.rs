//! Protocol conformance for scripts: global types, projection, and
//! runtime-monitored sessions.
//!
//! The paper closes with: "we believe scripts will simplify the
//! specification of communication subsystems and make the verification
//! of such systems more practical" (§V). Scripts are widely regarded as
//! a precursor of *multiparty session types*; this crate builds that
//! bridge over `script-core`:
//!
//! * [`GlobalType`] — a global protocol ("Seller sends Buyer a quote,
//!   then Buyer selects `ok` or `quit` …") with sequencing, directed
//!   choice, and recursion;
//! * [`GlobalType::project`] — the standard projection onto one role's
//!   [`LocalType`] (send/receive/select/branch), with plain merging for
//!   non-participants of a choice;
//! * [`Session`] — a wrapper around a role's
//!   [`RoleCtx`](script_core::RoleCtx) that checks every communication
//!   against the local type at run time, failing fast with
//!   [`ProtoError::Violation`] on the first out-of-protocol action;
//! * [`ConformanceMonitor`] (see [`monitor`]) — the same check from the
//!   *outside*: an engine [`Observer`](script_core::Observer) that maps
//!   live [`TelemetryPayload::Rendezvous`](script_core::TelemetryPayload::Rendezvous)
//!   telemetry — the transport's own rendezvous records — onto per-role actions and reports each performance's first
//!   divergence as a structured [`Verdict`] — no cooperation from role
//!   bodies required, and identical verdicts whether the performance
//!   runs in process or on a socket hub.
//!
//! # Example
//!
//! ```
//! use script_proto::{GlobalType, RoleId};
//!
//! // A one-shot request/response protocol.
//! let g = GlobalType::msg(
//!     "client", "server", "request",
//!     GlobalType::msg("server", "client", "response", GlobalType::End),
//! );
//! let client = g.project(&RoleId::new("client"))?;
//! let server = g.project(&RoleId::new("server"))?;
//! assert_ne!(client, server);
//! # Ok::<(), script_proto::ProtoError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod error;
mod global;
mod local;
pub mod monitor;
mod session;

pub use error::ProtoError;
pub use global::GlobalType;
pub use local::{Action, LocalMonitor, LocalType};
pub use monitor::{AbortHook, ConformanceMonitor, ReactPolicy, Verdict};
pub use session::{Labeled, Session};

pub use script_core::RoleId;

/// Bridges [`Labeled`] to the engine's message-labeler seam: pass
/// `labeler::<M>` to
/// [`Instance::set_message_labeler`](script_core::Instance::set_message_labeler)
/// (or a hub's `set_message_labeler`) and every
/// [`TelemetryPayload::Rendezvous`](script_core::TelemetryPayload::Rendezvous)
/// telemetry event carries the message's protocol label for a
/// [`ConformanceMonitor`] to check.
pub fn labeler<M: Labeled>(message: &M) -> Option<String> {
    Some(message.label().to_string())
}
