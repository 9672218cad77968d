//! `script-net` — a socket-backed [`Transport`](script_chan::Transport)
//! so one performance can span OS processes.
//!
//! # Architecture: hub and spokes
//!
//! One process hosts the **hub**: a [`TransportServer`] wrapping an
//! ordinary in-process transport (a seeded
//! [`ShardedTransport`](script_chan::ShardedTransport)). Every other
//! process holds a [`SocketTransport`] **spoke** that forwards each
//! [`Transport`](script_chan::Transport) operation to the hub as a
//! framed RPC. All rendezvous, selection, termination, and
//! fault-injection *semantics* therefore live in exactly one place —
//! the hub's inner transport — which is what makes a chaos seed replay
//! identically whether the participants share an address space or not:
//! the [`FaultPlan`](script_chan::FaultPlan) decisions are pure
//! functions of `(seed, edge, sequence)` evaluated at the hub's sending
//! edge, and the schedule of operations is all that reaches it.
//!
//! # Wire format
//!
//! Frames are a 4-byte big-endian length prefix plus payload, capped at
//! [`MAX_FRAME`]. Payloads are encoded by the [`Wire`] codec — a small
//! hand-rolled, total decoder: malformed input yields
//! [`WireError`], never a panic, and length fields are validated before
//! any allocation proportional to them. Requests carry an id
//! (`(req_id, Req)`); responses echo it (`(req_id, Resp)`); id 0
//! ([`EVENT_REQ_ID`]) marks unsolicited telemetry
//! frames pushed to subscribed clients, each carrying a tagged
//! [`Event`](proto::Event) envelope whose unknown tags are skipped (so
//! newer hubs can stream richer events to older clients). Deadlines
//! cross the wire as *remaining milliseconds*, so processes need no
//! shared clock.
//!
//! # Peer loss
//!
//! Every connection opens a hub *session*
//! ([`Req::HelloNew`](proto::Req::HelloNew)), and the ids a spoke
//! activates are bound to that session, not to the TCP connection. A
//! dropped connection parks the session for its lease and a redial
//! resumes it; only when the lease lapses un-resumed — crash, kill,
//! lasting partition — does the hub finish those ids, and every other
//! participant then observes the exact error a crashed in-process peer
//! produces: pending messages drain first, then
//! [`ChanError::Terminated`](script_chan::ChanError::Terminated).
//! Spokes dial lazily and redial under a
//! [`RetryPolicy`](script_core::RetryPolicy); a spoke whose retry
//! budget is exhausted degrades the same way (sends report the target
//! terminated, `activity()` freezes so watchdogs fire).
//!
//! # Federation: control plane and data plane
//!
//! A single hub caps total throughput, so the transport also federates
//! into two planes. The **control plane** is a [`HubFleet`]: a
//! placement service — one table behind a set of listening addresses,
//! any of which serves every request — that registers data nodes,
//! places each performance on a *home node*, and mints a signed
//! [`PerfDescriptor`] (performance id, epoch, chaos seed, home-node
//! address, per-role peer table). It places; enrollment and matching
//! stay in the engine. The **data plane** is the ordinary hub/spoke
//! machinery above, hosted on the home node: participants dial the
//! descriptor's address directly — peer-to-peer with respect to the
//! fleet — under a [`client::DialPlan`] that falls back to a
//! byte-splicing relay through any fleet address
//! ([`fleet::relay_connect`]) when the direct dial fails. Because each
//! performance's semantics still live in exactly one inner transport,
//! every conformance invariant and chaos-replay guarantee carries over
//! unchanged.

// `deny`, not `forbid`: the `reactor` module's `sys` carries the one
// scoped `#[allow(unsafe_code)]` in the crate — the hand-written FFI
// prototype of poll(2).
#![deny(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod client;
pub mod descriptor;
pub mod fleet;
pub mod frame;
pub mod proto;
pub mod reactor;
pub mod server;
pub mod wire;

pub use client::{DialPlan, SocketTransport};
pub use descriptor::PerfDescriptor;
pub use fleet::{FleetClient, HubFleet};
pub use frame::{read_frame, write_frame, FrameDecoder, WriteBuf};
pub use proto::EVENT_REQ_ID;
pub use reactor::{io_stats, IoStats};
pub use server::{HubStats, TransportServer};
pub use wire::{Reader, Wire, WireError, MAX_FRAME};
