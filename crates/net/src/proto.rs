//! The RPC protocol spoken between [`SocketTransport`] and
//! [`TransportServer`]: [`Wire`] encodings for the channel-layer types
//! and the request/response envelope.
//!
//! Client → server frames carry `(req_id, Req)`; server → client frames
//! carry `(req_id, Resp)`. Request ids start at 1; the reserved id
//! [`EVENT_REQ_ID`] marks an unsolicited server push carrying a tagged
//! [`Event`] envelope, streamed to sessions that sent
//! [`Req::SubscribeFrom`]. Clients skip event frames they cannot decode,
//! so the envelope can grow new event kinds without breaking older
//! spokes.
//!
//! Telemetry crosses the wire one way only: fault and rendezvous
//! records are pushed as sequenced [`Event`]s to subscribed sessions;
//! no request reads a hub-side log back.
//!
//! Tag numbers are never reused. The retired forms — nothing emits or
//! accepts them, and their numbers stay reserved — are `Event` tags 0
//! (unsequenced fault push), 1 / 4 (single sequenced fault / rendezvous
//! push: a one-item [`Event::SeqStream`] now) and 3 (fault-only replay
//! batch), `Req` tags 0 (bind an id without activating it), 1 – 4 (one
//! lifecycle step per frame: [`Req::Cast`] carries the run), 8 (peer
//! list), 12 (an inbox probe only tests called), 16 / 17 (fault-log
//! read / drain) and 18 (sessionless subscribe), and `Resp` tags 3
//! (peer list) and 8 (fault log).
//!
//! [`SocketTransport`]: crate::SocketTransport
//! [`TransportServer`]: crate::TransportServer

use std::time::{Duration, Instant};

use script_chan::{
    Arm, CastStep, ChanError, FaultKind, FaultPlan, FaultRecord, Outcome, PeerState,
    RendezvousRecord, Source,
};
use script_core::RoleId;

use crate::wire::{decode_into, decode_str, encode_str, Reader, Wire, WireError};

/// Request id reserved for unsolicited server → client event frames.
pub const EVENT_REQ_ID: u64 = 0;

/// One RPC request: a [`Transport`](script_chan::Transport) *required*
/// method per tag — the provided methods are runs of those and have no
/// tag of their own — plus the session-scoped handshake and
/// subscription operations.
#[derive(Debug, Clone, PartialEq)]
pub enum Req<I, M> {
    /// `Transport::abort`.
    Abort,
    /// `Transport::is_aborted`.
    IsAborted,
    /// `Transport::peer_state`.
    PeerStateOf(I),
    /// `Transport::activity`.
    Activity,
    /// `Transport::reseed`.
    Reseed(u64),
    /// `Transport::ensure_peer`.
    EnsurePeer(I),
    /// `Transport::set_fault_plan` (duplication uses the hub's clone).
    SetFaultPlan(FaultPlan),
    /// `Transport::clear_fault_plan`.
    ClearFaultPlan,
    /// `Transport::fault_plan`.
    GetFaultPlan,
    /// `Transport::send`. Deadlines cross the wire as remaining
    /// milliseconds (clocks are not shared between processes).
    Send {
        /// Sender.
        from: I,
        /// Receiver.
        to: I,
        /// Payload.
        msg: M,
        /// Remaining budget, `None` for no deadline.
        timeout_ms: Option<u64>,
    },
    /// `Transport::try_recv`.
    TryRecv {
        /// Receiving endpoint.
        me: I,
        /// Sending endpoint.
        from: I,
    },
    /// `Transport::select`.
    Select {
        /// Selecting endpoint.
        me: I,
        /// The guarded arms.
        arms: Vec<Arm<I, M>>,
        /// Remaining budget, `None` for no deadline.
        timeout_ms: Option<u64>,
    },
    /// Opens a new session: the hub replies [`Resp::Session`] with a
    /// fresh session id and lease. Sent exactly once, as the first
    /// frame on a brand-new spoke's first connection.
    HelloNew,
    /// Resumes an existing session after a severed connection: the hub
    /// replies [`Resp::Session`] (lease renewed, same id) if the lease
    /// is still live, [`Resp::SessionExpired`] if it lapsed, or
    /// [`Resp::Partitioned`] while a chaos-injected partition has the
    /// edge embargoed.
    HelloResume(u64),
    /// Spoke → hub keepalive. `acked` is the lowest request id the
    /// spoke may still replay; the hub prunes its replay-answer cache
    /// below it and renews the lease, answering [`Resp::Session`]
    /// (the hub → spoke half of the heartbeat).
    Heartbeat {
        /// Lowest un-acked request id; everything below is pruneable.
        acked: u64,
    },
    /// Starts (or resumes) streaming sequenced event pushes to this
    /// connection from the first event with sequence number strictly
    /// greater than `seq` — `0` for a fresh subscription, the last
    /// delivered sequence number on resume, making the merged stream
    /// gapless across severs.
    SubscribeFrom {
        /// Last event sequence number already delivered to this spoke.
        seq: u64,
    },
    /// `Transport::cast`: the run in one frame, applied in order by one
    /// run of the hub's transport, answered by one [`Resp::Unit`]. An
    /// `Activate` step also binds its id to this session and a `Finish`
    /// step unbinds it: if the session's lease lapses, the server
    /// finishes the bound ids, so remote process death surfaces to
    /// other participants exactly like a crashed peer.
    Cast(Vec<CastStep<I>>),
}

/// One RPC response.
#[derive(Debug, Clone, PartialEq)]
pub enum Resp<I, M> {
    /// `Ok(())`.
    Unit,
    /// A boolean answer.
    Bool(bool),
    /// A peer's lifecycle state.
    State(Option<PeerState>),
    /// The activity counter.
    Counter(u64),
    /// `try_recv`'s optional message.
    Msg(Option<M>),
    /// A fired selection arm.
    Selected(Outcome<I, M>),
    /// The attached fault plan, if any.
    Plan(Option<FaultPlan>),
    /// The operation failed with a channel error.
    ChanErr(ChanError<I>),
    /// Session granted or renewed: the spoke's session id plus the
    /// lease duration in milliseconds. Answers [`Req::HelloNew`],
    /// [`Req::HelloResume`] and [`Req::Heartbeat`].
    Session {
        /// The session id to present on future resumes.
        session: u64,
        /// Lease duration in milliseconds; the hub keeps the session's
        /// state alive this long after the connection drops.
        lease_ms: u64,
    },
    /// The presented session's lease lapsed; its bound ids were
    /// finished hub-side and its state discarded. The spoke must
    /// degrade to crashed-peer semantics.
    SessionExpired,
    /// A chaos-injected partition currently embargoes this spoke's
    /// edge; retry the resume after roughly `remaining_ms`.
    Partitioned {
        /// Milliseconds until the partition heals.
        remaining_ms: u64,
    },
}

/// An unsolicited hub → client push, carried on [`EVENT_REQ_ID`]
/// frames to sessions that subscribed with [`Req::SubscribeFrom`].
///
/// The envelope is tagged so new event kinds append without
/// renumbering; a client that does not know a tag — or meets one of the
/// retired tags 0, 1, 3 and 4 — skips the frame (forward
/// compatibility). The hub forwards these for performances placed
/// remotely, letting the owning engine keep one merged, causally
/// consistent telemetry stream.
#[derive(Debug, Clone, PartialEq)]
pub enum Event<I> {
    /// The hub is shutting down for good (tag 2). A spoke receiving
    /// this fails fast — its session cannot be resumed, so redialing
    /// would only burn the retry budget against a dead address.
    Closing,
    /// A run of consecutive sequenced stream items (tag 5), faults and
    /// rendezvous alike: item `i` carries sequence `first_seq + i` of
    /// the session's event stream, which counts up from 1, so one
    /// high-water mark lets a resumed spoke detect gaps and discard
    /// replayed duplicates. A live push is a run of one; the
    /// resume-replay tail is a run of everything missed.
    SeqStream {
        /// Stream sequence of `items[0]`.
        first_seq: u64,
        /// The consecutive stream items.
        items: Vec<StreamItem<I>>,
    },
}

/// One item of a session's sequenced event stream: the tagged union
/// buffered hub-side for gapless resume replay. Append-only tag space,
/// like [`Event`] itself.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamItem<I> {
    /// An injected fault (tag 0).
    Fault(FaultRecord<I>),
    /// A completed rendezvous (tag 1).
    Rendezvous(RendezvousRecord<I>),
}

/// Remaining-millisecond budget for a deadline, measured now. Saturates
/// at zero: an already-expired deadline still crosses the wire and
/// expires server-side.
pub fn timeout_ms_of(deadline: Option<Instant>) -> Option<u64> {
    deadline.map(|d| {
        d.saturating_duration_since(Instant::now())
            .as_millis()
            .min(u64::MAX as u128) as u64
    })
}

/// Re-derives a local deadline from a remaining-millisecond budget.
pub fn deadline_of(timeout_ms: Option<u64>) -> Option<Instant> {
    timeout_ms.map(|ms| Instant::now() + Duration::from_millis(ms))
}

impl Wire for PeerState {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(match self {
            PeerState::Expected => 0,
            PeerState::Active => 1,
            PeerState::Done => 2,
        });
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match u8::decode(r)? {
            0 => Ok(PeerState::Expected),
            1 => Ok(PeerState::Active),
            2 => Ok(PeerState::Done),
            _ => Err(WireError::Invalid("peer-state tag")),
        }
    }
}

impl<I: Wire> Wire for Source<I> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Source::Of(p) => {
                out.push(0);
                p.encode(out);
            }
            Source::Any => out.push(1),
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match u8::decode(r)? {
            0 => Ok(Source::Of(I::decode(r)?)),
            1 => Ok(Source::Any),
            _ => Err(WireError::Invalid("source tag")),
        }
    }
}

impl<I: Wire, M: Wire> Wire for Arm<I, M> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Arm::Recv(src) => {
                out.push(0);
                src.encode(out);
            }
            Arm::Send { to, msg } => {
                out.push(1);
                to.encode(out);
                msg.encode(out);
            }
            Arm::Watch(p) => {
                out.push(2);
                p.encode(out);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match u8::decode(r)? {
            0 => Ok(Arm::Recv(Source::decode(r)?)),
            1 => Ok(Arm::Send {
                to: I::decode(r)?,
                msg: M::decode(r)?,
            }),
            2 => Ok(Arm::Watch(I::decode(r)?)),
            _ => Err(WireError::Invalid("arm tag")),
        }
    }
}

impl<I: Wire, M: Wire> Wire for Outcome<I, M> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Outcome::Received { arm, from, msg } => {
                out.push(0);
                arm.encode(out);
                from.encode(out);
                msg.encode(out);
            }
            Outcome::Sent { arm, to } => {
                out.push(1);
                arm.encode(out);
                to.encode(out);
            }
            Outcome::Terminated { arm, peer } => {
                out.push(2);
                arm.encode(out);
                peer.encode(out);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match u8::decode(r)? {
            0 => Ok(Outcome::Received {
                arm: usize::decode(r)?,
                from: I::decode(r)?,
                msg: M::decode(r)?,
            }),
            1 => Ok(Outcome::Sent {
                arm: usize::decode(r)?,
                to: I::decode(r)?,
            }),
            2 => Ok(Outcome::Terminated {
                arm: usize::decode(r)?,
                peer: I::decode(r)?,
            }),
            _ => Err(WireError::Invalid("outcome tag")),
        }
    }
}

impl<I: Wire> Wire for ChanError<I> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            ChanError::Terminated(p) => {
                out.push(0);
                p.encode(out);
            }
            ChanError::AllTerminated => out.push(1),
            ChanError::Aborted => out.push(2),
            ChanError::Timeout => out.push(3),
            ChanError::Unknown(p) => {
                out.push(4);
                p.encode(out);
            }
            ChanError::Myself => out.push(5),
            ChanError::EmptySelect => out.push(6),
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match u8::decode(r)? {
            0 => Ok(ChanError::Terminated(I::decode(r)?)),
            1 => Ok(ChanError::AllTerminated),
            2 => Ok(ChanError::Aborted),
            3 => Ok(ChanError::Timeout),
            4 => Ok(ChanError::Unknown(I::decode(r)?)),
            5 => Ok(ChanError::Myself),
            6 => Ok(ChanError::EmptySelect),
            _ => Err(WireError::Invalid("chan-error tag")),
        }
    }
}

impl Wire for FaultKind {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(match self {
            FaultKind::Drop => 0,
            FaultKind::Delay => 1,
            FaultKind::Duplicate => 2,
            FaultKind::Crash => 3,
            FaultKind::Sever => 4,
            FaultKind::Partition => 5,
        });
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match u8::decode(r)? {
            0 => Ok(FaultKind::Drop),
            1 => Ok(FaultKind::Delay),
            2 => Ok(FaultKind::Duplicate),
            3 => Ok(FaultKind::Crash),
            4 => Ok(FaultKind::Sever),
            5 => Ok(FaultKind::Partition),
            _ => Err(WireError::Invalid("fault-kind tag")),
        }
    }
}

impl<I: Wire> Wire for FaultRecord<I> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.kind.encode(out);
        self.from.encode(out);
        self.to.encode(out);
        self.seq.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(FaultRecord {
            kind: FaultKind::decode(r)?,
            from: I::decode(r)?,
            to: I::decode(r)?,
            seq: u64::decode(r)?,
        })
    }
}

impl<I: Wire> Wire for RendezvousRecord<I> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.from.encode(out);
        self.to.encode(out);
        self.label.encode(out);
        self.seq.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(RendezvousRecord {
            from: I::decode(r)?,
            to: I::decode(r)?,
            label: Option::<String>::decode(r)?,
            seq: u64::decode(r)?,
        })
    }
}

impl<I: Wire> Wire for CastStep<I> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            CastStep::Declare(id) => {
                out.push(0);
                id.encode(out);
            }
            CastStep::Activate(id) => {
                out.push(1);
                id.encode(out);
            }
            CastStep::Finish(id) => {
                out.push(2);
                id.encode(out);
            }
            CastStep::Seal => out.push(3),
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match u8::decode(r)? {
            0 => Ok(CastStep::Declare(I::decode(r)?)),
            1 => Ok(CastStep::Activate(I::decode(r)?)),
            2 => Ok(CastStep::Finish(I::decode(r)?)),
            3 => Ok(CastStep::Seal),
            _ => Err(WireError::Invalid("cast-step tag")),
        }
    }
}

impl<I: Wire> Wire for StreamItem<I> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            StreamItem::Fault(record) => {
                out.push(0);
                record.encode(out);
            }
            StreamItem::Rendezvous(record) => {
                out.push(1);
                record.encode(out);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match u8::decode(r)? {
            0 => Ok(StreamItem::Fault(FaultRecord::decode(r)?)),
            1 => Ok(StreamItem::Rendezvous(RendezvousRecord::decode(r)?)),
            _ => Err(WireError::Invalid("stream-item tag")),
        }
    }
}

impl<I: Wire> Event<I> {
    /// Encodes [`Event::SeqStream`] from borrowed items, so the hub
    /// pushes straight out of a session's replay buffer.
    pub(crate) fn encode_stream<'a>(
        first_seq: u64,
        items: impl ExactSizeIterator<Item = &'a StreamItem<I>>,
        out: &mut Vec<u8>,
    ) where
        I: 'a,
    {
        out.push(5);
        first_seq.encode(out);
        (items.len() as u64).encode(out);
        for item in items {
            item.encode(out);
        }
    }
}

impl<I: Wire> Wire for Event<I> {
    fn encode(&self, out: &mut Vec<u8>) {
        // Append-only tag space: never renumber (0, 1, 3, 4 retired).
        match self {
            Event::Closing => out.push(2),
            Event::SeqStream { first_seq, items } => {
                Self::encode_stream(*first_seq, items.iter(), out);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match u8::decode(r)? {
            2 => Ok(Event::Closing),
            5 => Ok(Event::SeqStream {
                first_seq: u64::decode(r)?,
                items: Vec::<StreamItem<I>>::decode(r)?,
            }),
            _ => Err(WireError::Invalid("event tag")),
        }
    }
}

impl Wire for FaultPlan {
    fn encode(&self, out: &mut Vec<u8>) {
        self.seed().encode(out);
        self.drop_probability().encode(out);
        self.delay_probability().encode(out);
        self.delay().encode(out);
        self.duplicate_probability().encode(out);
        self.crash_probability().encode(out);
        self.crash_step().encode(out);
        // Connection-fault fields append after every message-fault
        // field so offsets of the original layout never move.
        self.sever_probability().encode(out);
        self.partition_probability().encode(out);
        self.partition_duration().encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let seed = u64::decode(r)?;
        let drop_p = f64::decode(r)?;
        let delay_p = f64::decode(r)?;
        let delay = Duration::decode(r)?;
        let dup_p = f64::decode(r)?;
        let crash_p = f64::decode(r)?;
        let crash_step = u64::decode(r)?;
        let sever_p = f64::decode(r)?;
        let partition_p = f64::decode(r)?;
        let partition = Duration::decode(r)?;
        for p in [drop_p, delay_p, dup_p, crash_p, sever_p, partition_p] {
            if !(0.0..=1.0).contains(&p) {
                return Err(WireError::Invalid("fault probability out of range"));
            }
        }
        let mut plan = FaultPlan::new(seed)
            .with_drop(drop_p)
            .with_delay(delay_p, delay)
            .with_duplicate(dup_p)
            .with_sever(sever_p)
            .with_partition(partition_p, partition);
        if crash_step > 0 {
            plan = plan.with_crash(crash_p, crash_step);
        } else if crash_p != 0.0 {
            return Err(WireError::Invalid("crash probability without a step"));
        }
        Ok(plan)
    }
}

impl Wire for RoleId {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_str(self.name(), out);
        self.index().encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let name = decode_str(r)?;
        // A name the decoding thread met lately is shared, not copied.
        Ok(match Option::<usize>::decode(r)? {
            Some(index) => RoleId::indexed(name, index),
            None => RoleId::new(name),
        })
    }
}

impl<I: Wire, M> Req<I, M> {
    /// Encodes [`Req::Cast`] from a borrowed run, so a spoke posts its
    /// caller's steps without cloning them into a request first.
    pub(crate) fn encode_cast(steps: &[CastStep<I>], out: &mut Vec<u8>) {
        out.push(26);
        (steps.len() as u64).encode(out);
        for step in steps {
            step.encode(out);
        }
    }

    /// [`Wire::decode`], with a [`Req::Cast`] run decoded into `room`
    /// and a [`Req::Select`]'s arms into `arms_room`.
    pub(crate) fn decode_with(
        r: &mut Reader<'_>,
        room: &mut Vec<CastStep<I>>,
        arms_room: &mut Vec<Arm<I, M>>,
    ) -> Result<Self, WireError>
    where
        M: Wire,
    {
        Ok(match u8::decode(r)? {
            5 => Req::Abort,
            6 => Req::IsAborted,
            7 => Req::PeerStateOf(I::decode(r)?),
            9 => Req::Activity,
            10 => Req::Reseed(u64::decode(r)?),
            11 => Req::EnsurePeer(I::decode(r)?),
            13 => Req::SetFaultPlan(FaultPlan::decode(r)?),
            14 => Req::ClearFaultPlan,
            15 => Req::GetFaultPlan,
            19 => Req::Send {
                from: I::decode(r)?,
                to: I::decode(r)?,
                msg: M::decode(r)?,
                timeout_ms: Option::<u64>::decode(r)?,
            },
            20 => Req::TryRecv {
                me: I::decode(r)?,
                from: I::decode(r)?,
            },
            21 => Req::Select {
                me: I::decode(r)?,
                arms: decode_into(r, arms_room).map(|()| std::mem::take(arms_room))?,
                timeout_ms: Option::<u64>::decode(r)?,
            },
            22 => Req::HelloNew,
            23 => Req::HelloResume(u64::decode(r)?),
            24 => Req::Heartbeat {
                acked: u64::decode(r)?,
            },
            25 => Req::SubscribeFrom {
                seq: u64::decode(r)?,
            },
            26 => Req::Cast(decode_into(r, room).map(|()| std::mem::take(room))?),
            _ => return Err(WireError::Invalid("request tag")),
        })
    }
}

impl<I: Wire, M: Wire> Wire for Req<I, M> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            // 0 to 4 are retired.
            Req::Abort => out.push(5),
            Req::IsAborted => out.push(6),
            Req::PeerStateOf(id) => {
                out.push(7);
                id.encode(out);
            }
            // 8 is retired.
            Req::Activity => out.push(9),
            Req::Reseed(seed) => {
                out.push(10);
                seed.encode(out);
            }
            Req::EnsurePeer(id) => {
                out.push(11);
                id.encode(out);
            }
            // 12 is retired.
            Req::SetFaultPlan(plan) => {
                out.push(13);
                plan.encode(out);
            }
            Req::ClearFaultPlan => out.push(14),
            Req::GetFaultPlan => out.push(15),
            // 16, 17 and 18 are retired.
            Req::Send {
                from,
                to,
                msg,
                timeout_ms,
            } => {
                out.push(19);
                from.encode(out);
                to.encode(out);
                msg.encode(out);
                timeout_ms.encode(out);
            }
            Req::TryRecv { me, from } => {
                out.push(20);
                me.encode(out);
                from.encode(out);
            }
            Req::Select {
                me,
                arms,
                timeout_ms,
            } => {
                out.push(21);
                me.encode(out);
                arms.encode(out);
                timeout_ms.encode(out);
            }
            Req::HelloNew => out.push(22),
            Req::HelloResume(session) => {
                out.push(23);
                session.encode(out);
            }
            Req::Heartbeat { acked } => {
                out.push(24);
                acked.encode(out);
            }
            Req::SubscribeFrom { seq } => {
                out.push(25);
                seq.encode(out);
            }
            Req::Cast(steps) => Self::encode_cast(steps, out),
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Self::decode_with(r, &mut Vec::new(), &mut Vec::new())
    }
}

impl<I: Wire, M: Wire> Wire for Resp<I, M> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Resp::Unit => out.push(0),
            Resp::Bool(b) => {
                out.push(1);
                b.encode(out);
            }
            Resp::State(s) => {
                out.push(2);
                s.encode(out);
            }
            // 3 is retired.
            Resp::Counter(c) => {
                out.push(4);
                c.encode(out);
            }
            Resp::Msg(m) => {
                out.push(5);
                m.encode(out);
            }
            Resp::Selected(o) => {
                out.push(6);
                o.encode(out);
            }
            Resp::Plan(p) => {
                out.push(7);
                p.encode(out);
            }
            // 8 is retired.
            Resp::ChanErr(e) => {
                out.push(9);
                e.encode(out);
            }
            Resp::Session { session, lease_ms } => {
                out.push(10);
                session.encode(out);
                lease_ms.encode(out);
            }
            Resp::SessionExpired => out.push(11),
            Resp::Partitioned { remaining_ms } => {
                out.push(12);
                remaining_ms.encode(out);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match u8::decode(r)? {
            0 => Resp::Unit,
            1 => Resp::Bool(bool::decode(r)?),
            2 => Resp::State(Option::<PeerState>::decode(r)?),
            4 => Resp::Counter(u64::decode(r)?),
            5 => Resp::Msg(Option::<M>::decode(r)?),
            6 => Resp::Selected(Outcome::decode(r)?),
            7 => Resp::Plan(Option::<FaultPlan>::decode(r)?),
            9 => Resp::ChanErr(ChanError::decode(r)?),
            10 => Resp::Session {
                session: u64::decode(r)?,
                lease_ms: u64::decode(r)?,
            },
            11 => Resp::SessionExpired,
            12 => Resp::Partitioned {
                remaining_ms: u64::decode(r)?,
            },
            _ => return Err(WireError::Invalid("response tag")),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        assert_eq!(T::from_bytes(&v.to_bytes()).unwrap(), v);
    }

    #[test]
    fn chan_types_roundtrip() {
        roundtrip(PeerState::Expected);
        roundtrip(PeerState::Done);
        roundtrip(Source::Of(String::from("a")));
        roundtrip(Source::<String>::Any);
        roundtrip(Outcome::<String, u64>::Received {
            arm: 2,
            from: String::from("a"),
            msg: 7,
        });
        roundtrip(ChanError::Terminated(String::from("x")));
        roundtrip(ChanError::<String>::AllTerminated);
        roundtrip(FaultRecord {
            kind: FaultKind::Duplicate,
            from: String::from("a"),
            to: String::from("b"),
            seq: 11,
        });
        roundtrip(FaultRecord {
            kind: FaultKind::Sever,
            from: String::from("a"),
            to: String::from("b"),
            seq: 4,
        });
        roundtrip(FaultRecord {
            kind: FaultKind::Partition,
            from: String::from("b"),
            to: String::from("a"),
            seq: 5,
        });
        roundtrip(RoleId::new("sender"));
        roundtrip(RoleId::indexed("recipient", 3));
    }

    #[test]
    fn event_envelope_roundtrips_and_rejects_unknown_tags() {
        roundtrip(Event::<String>::Closing);
        roundtrip(Event::SeqStream {
            first_seq: 11,
            items: vec![
                StreamItem::Fault(FaultRecord {
                    kind: FaultKind::Delay,
                    from: String::from("a"),
                    to: String::from("b"),
                    seq: 0,
                }),
                StreamItem::Rendezvous(RendezvousRecord {
                    from: String::from("b"),
                    to: String::from("a"),
                    label: Some(String::from("ping")),
                    seq: 1,
                }),
            ],
        });
        // A tag this build does not know must decode to an error (the
        // client skips the frame), never panic.
        assert!(Event::<String>::from_bytes(&[9]).is_err());
        assert!(StreamItem::<String>::from_bytes(&[7]).is_err());
    }

    #[test]
    fn retired_tags_stay_reserved() {
        // The frames are written out by hand against the layouts the
        // retired forms had, so re-adding a decode arm — or reusing a
        // number for something new — fails here.
        let record = FaultRecord {
            kind: FaultKind::Drop,
            from: String::from("a"),
            to: String::from("b"),
            seq: 7,
        };
        // Event tag 0: a bare fault record.
        let mut unsequenced = vec![0u8];
        record.encode(&mut unsequenced);
        // Event tag 3: first_seq, then a vector of fault records.
        let mut batch = vec![3u8];
        41u64.encode(&mut batch);
        vec![record.clone(), record.clone()].encode(&mut batch);
        // Event tags 1 and 4: a sequence number, then one fault /
        // rendezvous record.
        let mut seq_fault = vec![1u8];
        42u64.encode(&mut seq_fault);
        record.encode(&mut seq_fault);
        let mut seq_rendezvous = vec![4u8];
        7u64.encode(&mut seq_rendezvous);
        RendezvousRecord {
            from: String::from("a"),
            to: String::from("b"),
            label: None,
            seq: 2,
        }
        .encode(&mut seq_rendezvous);
        // All read as unknown tags, which a spoke skips.
        for frame in [&unsequenced, &batch, &seq_fault, &seq_rendezvous] {
            assert!(matches!(
                Event::<String>::from_bytes(frame),
                Err(WireError::Invalid("event tag"))
            ));
        }
        // Req tags 0 to 3 (`Bind`, `Declare`, `Activate`, `Finish`)
        // carried an id, tag 12 (the inbox probe) two; tags 4
        // (`Seal`), 8, 16, 17 and 18 took no payload. A hub severs on
        // them.
        let with_id = (0u8..=3).map(|tag| {
            let mut frame = vec![tag];
            String::from("a").encode(&mut frame);
            frame
        });
        let mut probe = vec![12u8];
        String::from("b").encode(&mut probe);
        String::from("a").encode(&mut probe);
        let bare = [4u8, 8, 16, 17, 18].map(|tag| vec![tag]);
        for frame in with_id.chain([probe]).chain(bare) {
            assert!(matches!(
                Req::<String, u64>::from_bytes(&frame),
                Err(WireError::Invalid("request tag"))
            ));
        }
        // Resp tag 3: a vector of (id, state) pairs. Resp tag 8: a
        // vector of fault records.
        let mut peer_list = vec![3u8];
        1u64.encode(&mut peer_list);
        String::from("a").encode(&mut peer_list);
        PeerState::Active.encode(&mut peer_list);
        let mut log = vec![8u8];
        vec![record].encode(&mut log);
        for frame in [&peer_list, &log] {
            assert!(matches!(
                Resp::<String, u64>::from_bytes(frame),
                Err(WireError::Invalid("response tag"))
            ));
        }
    }

    #[test]
    fn fault_plans_roundtrip_exactly() {
        roundtrip(FaultPlan::new(7));
        roundtrip(
            FaultPlan::new(9)
                .with_drop(0.25)
                .with_delay(0.5, Duration::from_micros(300))
                .with_duplicate(0.1)
                .with_crash(0.75, 4),
        );
        roundtrip(
            FaultPlan::new(12)
                .with_sever(0.2)
                .with_partition(0.1, Duration::from_millis(40)),
        );
    }

    #[test]
    fn corrupt_fault_plans_are_rejected() {
        let mut bytes = FaultPlan::new(1).with_drop(0.5).to_bytes();
        // Overwrite the drop probability with 2.0 (bytes 8..16).
        bytes[8..16].copy_from_slice(&2.0f64.to_bits().to_be_bytes());
        assert!(matches!(
            FaultPlan::from_bytes(&bytes),
            Err(WireError::Invalid(_))
        ));
    }

    #[test]
    fn corrupt_sever_probability_is_rejected() {
        let plan = FaultPlan::new(2).with_sever(0.5);
        let mut bytes = plan.to_bytes();
        // The sever probability sits right after the crash step: seed
        // (8) + drop (8) + delay_p (8) + delay Duration + dup_p (8) +
        // crash_p (8) + crash_step (8). Locate it from the end instead:
        // sever_p then partition_p then partition Duration.
        let dur_len = Duration::from_millis(0).to_bytes().len();
        let off = bytes.len() - dur_len - 16;
        bytes[off..off + 8].copy_from_slice(&2.0f64.to_bits().to_be_bytes());
        assert!(matches!(
            FaultPlan::from_bytes(&bytes),
            Err(WireError::Invalid(_))
        ));
    }

    #[test]
    fn session_frames_roundtrip() {
        roundtrip(Req::<String, u64>::HelloNew);
        roundtrip(Req::<String, u64>::HelloResume(17));
        roundtrip(Req::<String, u64>::Heartbeat { acked: 23 });
        roundtrip(Req::<String, u64>::SubscribeFrom { seq: 9 });
        roundtrip(Resp::<String, u64>::Session {
            session: 17,
            lease_ms: 1000,
        });
        roundtrip(Resp::<String, u64>::SessionExpired);
        roundtrip(Resp::<String, u64>::Partitioned { remaining_ms: 35 });
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip(Req::<String, u64>::Cast(Vec::new()));
        roundtrip(Req::<String, u64>::Cast(vec![
            CastStep::Declare(String::from("a")),
            CastStep::Activate(String::from("a")),
            CastStep::Seal,
            CastStep::Finish(String::from("a")),
        ]));
        assert!(CastStep::<String>::from_bytes(&[4]).is_err());
        roundtrip(Req::<String, u64>::Send {
            from: String::from("a"),
            to: String::from("b"),
            msg: 9,
            timeout_ms: Some(250),
        });
        roundtrip(Req::<String, u64>::Select {
            me: String::from("a"),
            arms: vec![
                Arm::recv_any(),
                Arm::send(String::from("b"), 3),
                Arm::watch(String::from("c")),
            ],
            timeout_ms: None,
        });
    }

    #[test]
    fn responses_roundtrip() {
        roundtrip(Resp::<String, u64>::Unit);
        roundtrip(Resp::<String, u64>::State(Some(PeerState::Active)));
        roundtrip(Resp::<String, u64>::Selected(Outcome::Sent {
            arm: 1,
            to: String::from("b"),
        }));
        roundtrip(Resp::<String, u64>::ChanErr(ChanError::Timeout));
    }
}
