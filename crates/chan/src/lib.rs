//! Rendezvous channel networks with CSP-style guarded selection.
//!
//! This crate is the communication kernel shared by the script engine
//! (`script-core`) and the CSP substrate (`script-csp`) of the PODC 1983
//! *Script* reproduction. It provides a [`Network`] of named participants
//! exchanging messages by **synchronous rendezvous** (the semantics of
//! CSP's `!` and `?`), together with:
//!
//! * guarded selection over receive *and* send arms ([`Port::select`]),
//!   with the usual CSP restriction resolved correctly: a send arm only
//!   fires by *claiming* a peer that is already committed to a matching
//!   receive, so no deposited message is ever stranded;
//! * per-participant lifecycle (`Expected → Active → Done`) so that
//!   communication with a not-yet-enrolled role blocks, and communication
//!   with a terminated or never-filled role fails with a distinguished
//!   error — exactly the semantics the paper prescribes for critical role
//!   sets;
//! * termination watching ([`Arm::watch`]) so server-like roles can drain
//!   requests and stop when all their clients are done;
//! * whole-network abort for panic containment;
//! * deterministic fault injection ([`FaultPlan`]) — seeded message drop,
//!   delay, duplication, and peer crash for chaos testing, a strict no-op
//!   when no plan is attached (or when the attached plan enables no fault
//!   class — the short-circuit is hoisted to attach time);
//! * a pluggable [`Transport`] seam: [`Network`] derefs to an
//!   `Arc<dyn Transport>` and shares its methods; the default in-process
//!   implementation, [`ShardedTransport`], keeps one lock + condvar
//!   **per endpoint** so unrelated participants never contend.
//!
//! # Example
//!
//! ```
//! use script_chan::{Network, ChanError};
//!
//! let net: Network<&'static str, u32> = Network::new();
//! net.activate("alice");
//! net.activate("bob");
//! let alice = net.port("alice")?;
//! let bob = net.port("bob")?;
//!
//! let t = std::thread::spawn(move || bob.recv_from(&"alice"));
//! alice.send(&"bob", 7)?;
//! assert_eq!(t.join().unwrap()?, 7);
//! # Ok::<(), ChanError<&'static str>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod conformance;
mod error;
mod fault;
mod network;
mod select;
pub mod transport;

pub use error::ChanError;
pub use fault::{per_edge_fingerprints, per_edge_log, EdgeLog, FaultKind, FaultPlan, FaultRecord};
pub use fault::{splitmix64, SeededFnv};
pub use network::{Network, PeerState, Port};
pub use select::{Arm, Outcome, Source};
pub use transport::{
    CastStep, Complete, Completion, FaultObserver, LabelFn, LatencyObserver, LatencyOp,
    LatencySample, ObserverSlots, Observers, RendezvousObserver, RendezvousRecord, SendDone,
    SessionEvent, SessionObserver, ShardedTransport, Transport,
};
