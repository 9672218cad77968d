//! Property tests for the wire codec and frame layer.
//!
//! The invariants under test:
//!
//! 1. encode → decode is the identity for every value (round-trip);
//! 2. every *strict prefix* of an encoding is rejected — decoding
//!    consumption is prefix-determined, so truncation can never
//!    silently succeed;
//! 3. adversarial length fields (beyond [`MAX_FRAME`]) are rejected
//!    before any proportional allocation;
//! 4. arbitrary byte soup never panics the decoder or the frame
//!    reader — errors only;
//! 5. a [`FrameDecoder`] fed a frame stream in arbitrary fragments lends
//!    exactly its frames, and hands back exactly the bytes past them.

use std::io::Cursor;
use std::time::Duration;

use proptest::collection::vec;
use proptest::prelude::*;

use script_chan::{
    Arm, CastStep, ChanError, FaultKind, FaultPlan, FaultRecord, Outcome, RendezvousRecord,
};
use script_net::fleet::{FleetReq, FleetResp};
use script_net::proto::{Event, Req, Resp, StreamItem};
use script_net::{write_frame, FrameDecoder, PerfDescriptor, Wire, WireError, MAX_FRAME};

/// A printable-ish string strategy (arbitrary bytes, lossily UTF-8).
fn any_string() -> impl Strategy<Value = String> {
    vec(any::<u8>(), 0..48).prop_map(|b| String::from_utf8_lossy(&b).into_owned())
}

/// A valid probability in `0.0..=1.0`.
fn any_prob() -> impl Strategy<Value = f64> {
    any::<u32>().prop_map(|n| f64::from(n) / f64::from(u32::MAX))
}

fn any_plan() -> impl Strategy<Value = FaultPlan> {
    (
        (any::<u64>(), any_prob(), any_prob(), 0u64..5_000),
        (any_prob(), any_prob(), 1u64..1_000),
        (any_prob(), any_prob(), 0u64..5_000),
    )
        .prop_map(
            |((seed, drop, delay_p, delay_us), (dup, crash, step), (sever, part, part_ms))| {
                FaultPlan::new(seed)
                    .with_drop(drop)
                    .with_delay(delay_p, Duration::from_micros(delay_us))
                    .with_duplicate(dup)
                    .with_crash(crash, step)
                    .with_sever(sever)
                    .with_partition(part, Duration::from_millis(part_ms))
            },
        )
}

fn any_record() -> impl Strategy<Value = FaultRecord<String>> {
    (0u8..6, any_string(), any_string(), any::<u64>()).prop_map(|(k, from, to, seq)| {
        let kind = match k {
            0 => FaultKind::Drop,
            1 => FaultKind::Delay,
            2 => FaultKind::Duplicate,
            3 => FaultKind::Sever,
            4 => FaultKind::Partition,
            _ => FaultKind::Crash,
        };
        FaultRecord {
            kind,
            from,
            to,
            seq,
        }
    })
}

fn any_cast_step() -> impl Strategy<Value = CastStep<String>> {
    (0u8..4, any_string()).prop_map(|(pick, id)| match pick {
        0 => CastStep::Declare(id),
        1 => CastStep::Activate(id),
        2 => CastStep::Finish(id),
        _ => CastStep::Seal,
    })
}

/// A request covering every payload-bearing shape of the protocol.
fn any_req() -> impl Strategy<Value = Req<String, u64>> {
    (
        0u8..12,
        (any_string(), any_string()),
        any::<u64>(),
        proptest::option::of(0u64..100_000),
        any_plan(),
        vec(any_cast_step(), 0..6),
    )
        .prop_map(|(pick, (a, b), n, timeout_ms, plan, steps)| match pick {
            0 => Req::Cast(steps),
            1 => Req::Cast(Vec::new()),
            11 => Req::Cast(vec![
                CastStep::Declare(a),
                CastStep::Seal,
                CastStep::Activate(b),
            ]),
            2 => Req::Send {
                from: a,
                to: b,
                msg: n,
                timeout_ms,
            },
            3 => Req::TryRecv { me: a, from: b },
            4 => Req::Select {
                me: a,
                arms: vec![
                    Arm::recv_from(b.clone()),
                    Arm::recv_any(),
                    Arm::send(b.clone(), n),
                    Arm::watch(b),
                ],
                timeout_ms,
            },
            5 => Req::SetFaultPlan(plan),
            6 => Req::EnsurePeer(a),
            7 => Req::HelloResume(n),
            8 => Req::Heartbeat { acked: n },
            9 => Req::SubscribeFrom { seq: n },
            _ => Req::Reseed(n),
        })
}

fn any_rendezvous() -> impl Strategy<Value = RendezvousRecord<String>> {
    (
        any_string(),
        any_string(),
        proptest::option::of(any_string()),
        any::<u64>(),
    )
        .prop_map(|(from, to, label, seq)| RendezvousRecord {
            from,
            to,
            label,
            seq,
        })
}

fn any_stream_item() -> impl Strategy<Value = StreamItem<String>> {
    prop_oneof![
        any_record().prop_map(StreamItem::Fault),
        any_rendezvous().prop_map(StreamItem::Rendezvous),
    ]
}

/// An event push covering both live tags: the hub-shutdown notice and
/// a run of stream items — empty, a live push of one, a replay batch.
fn any_event() -> impl Strategy<Value = Event<String>> {
    (0u8..4, any::<u64>(), vec(any_stream_item(), 0..5)).prop_map(|(pick, n, items)| match pick {
        0 => Event::Closing,
        _ => Event::SeqStream {
            first_seq: n,
            items,
        },
    })
}

/// A signed placement descriptor with arbitrary contents (including
/// arbitrary — usually wrong — signatures, which the codec must carry
/// faithfully; verification is a layer above).
fn any_descriptor() -> impl Strategy<Value = PerfDescriptor> {
    (
        any::<u64>(),
        any::<u64>(),
        proptest::option::of(any::<u64>()),
        any_string(),
        vec((any_string(), any_string()), 0..5),
        any::<u64>(),
    )
        .prop_map(|(perf, epoch, chaos_seed, home, peers, secret)| {
            let mut d = PerfDescriptor::new(perf, epoch, chaos_seed, home);
            d.peers = peers;
            d.sign(secret)
        })
}

/// A control-plane request covering every fleet tag.
fn any_fleet_req() -> impl Strategy<Value = FleetReq> {
    (
        0u8..3,
        any_string(),
        any::<u64>(),
        vec((any_string(), any_string()), 0..5),
        proptest::option::of(any::<u64>()),
    )
        .prop_map(|(pick, s, n, roles, chaos_seed)| match pick {
            0 => FleetReq::RegisterNode { addr: s },
            1 => FleetReq::Place {
                family: s,
                perf: n,
                roles,
                chaos_seed,
            },
            _ => FleetReq::RelayConnect { addr: s },
        })
}

/// A control-plane response covering every fleet tag.
fn any_fleet_resp() -> impl Strategy<Value = FleetResp> {
    (0u8..4, any_descriptor()).prop_map(|(pick, desc)| match pick {
        0 => FleetResp::Unit,
        1 => FleetResp::Descriptor(desc),
        2 => FleetResp::NotFound,
        _ => FleetResp::RelayOk,
    })
}

/// A response covering every variant, including error payloads.
fn any_resp() -> impl Strategy<Value = Resp<String, u64>> {
    (0u8..10, any_string(), any::<u64>()).prop_map(|(pick, s, n)| match pick {
        0 => Resp::Unit,
        1 => Resp::Bool(n % 2 == 0),
        2 => Resp::Counter(n),
        3 => Resp::Msg(Some(n)),
        4 => Resp::Selected(Outcome::Received {
            arm: (n % 7) as usize,
            from: s,
            msg: n,
        }),
        5 => Resp::ChanErr(ChanError::Terminated(s)),
        6 => Resp::Session {
            session: n,
            lease_ms: n.rotate_left(17),
        },
        7 => Resp::SessionExpired,
        8 => Resp::Partitioned { remaining_ms: n },
        _ => Resp::ChanErr(ChanError::AllTerminated),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn primitives_roundtrip(
        a in any::<u64>(),
        b in any_string(),
        c in vec(any::<u32>(), 0..32),
        d in proptest::option::of(any::<u64>()),
        e in any::<bool>(),
    ) {
        let v = (a, (b, (c, (d, e))));
        let bytes = v.to_bytes();
        prop_assert_eq!(Wire::from_bytes(&bytes), Ok(v));
    }

    #[test]
    fn requests_roundtrip(req in any_req()) {
        let bytes = req.to_bytes();
        prop_assert_eq!(Wire::from_bytes(&bytes), Ok(req));
    }

    /// A spoke encodes a cast from the caller's borrowed run
    /// (`Req::encode_cast`, which `Wire for Req` goes through): the
    /// bytes are the tag and then exactly what the owned `Vec` of the
    /// same steps encodes to.
    #[test]
    fn a_cast_encodes_as_its_tag_and_its_run(run in vec(any_cast_step(), 0..6)) {
        let mut want = vec![26u8];
        run.encode(&mut want);
        prop_assert_eq!(Req::<String, u64>::Cast(run).to_bytes(), want);
    }

    #[test]
    fn responses_roundtrip(resp in any_resp()) {
        let bytes = resp.to_bytes();
        prop_assert_eq!(Wire::from_bytes(&bytes), Ok(resp));
    }

    #[test]
    fn events_roundtrip(ev in any_event()) {
        let bytes = ev.to_bytes();
        prop_assert_eq!(Wire::from_bytes(&bytes), Ok(ev));
    }

    #[test]
    fn event_truncations_are_rejected(ev in any_event(), frac in 0u32..1_000) {
        let bytes = ev.to_bytes();
        prop_assume!(!bytes.is_empty());
        let cut = (frac as usize * bytes.len()) / 1_000;
        let res: Result<Event<String>, _> = Wire::from_bytes(&bytes[..cut]);
        prop_assert!(res.is_err(), "strict prefix of {} bytes decoded", cut);
    }

    #[test]
    fn descriptors_roundtrip(desc in any_descriptor()) {
        let bytes = desc.to_bytes();
        let back: PerfDescriptor = Wire::from_bytes(&bytes).expect("descriptor decodes");
        // The codec must carry the signature verbatim: a round-tripped
        // descriptor verifies under a secret iff the original does.
        prop_assert_eq!(back.verify(7), desc.verify(7));
        prop_assert_eq!(back, desc);
    }

    #[test]
    fn fleet_requests_roundtrip(req in any_fleet_req()) {
        let bytes = req.to_bytes();
        prop_assert_eq!(Wire::from_bytes(&bytes), Ok(req));
    }

    #[test]
    fn fleet_responses_roundtrip(resp in any_fleet_resp()) {
        let bytes = resp.to_bytes();
        prop_assert_eq!(Wire::from_bytes(&bytes), Ok(resp));
    }

    #[test]
    fn descriptor_truncations_are_rejected(desc in any_descriptor(), frac in 0u32..1_000) {
        let bytes = desc.to_bytes();
        prop_assume!(!bytes.is_empty());
        let cut = (frac as usize * bytes.len()) / 1_000;
        let res: Result<PerfDescriptor, _> = Wire::from_bytes(&bytes[..cut]);
        prop_assert!(res.is_err(), "strict prefix of {} bytes decoded", cut);
    }

    #[test]
    fn fleet_request_truncations_are_rejected(req in any_fleet_req(), frac in 0u32..1_000) {
        let bytes = req.to_bytes();
        prop_assume!(!bytes.is_empty());
        let cut = (frac as usize * bytes.len()) / 1_000;
        let res: Result<FleetReq, _> = Wire::from_bytes(&bytes[..cut]);
        prop_assert!(res.is_err(), "strict prefix of {} bytes decoded", cut);
    }

    #[test]
    fn fleet_response_truncations_are_rejected(resp in any_fleet_resp(), frac in 0u32..1_000) {
        let bytes = resp.to_bytes();
        prop_assume!(!bytes.is_empty());
        let cut = (frac as usize * bytes.len()) / 1_000;
        let res: Result<FleetResp, _> = Wire::from_bytes(&bytes[..cut]);
        prop_assert!(res.is_err(), "strict prefix of {} bytes decoded", cut);
    }

    #[test]
    fn fault_plans_roundtrip_exactly(plan in any_plan()) {
        let bytes = plan.to_bytes();
        prop_assert_eq!(Wire::from_bytes(&bytes), Ok(plan));
    }

    /// Tag 12 carried two ids (an inbox probe that only tests called);
    /// it is retired, so its frame is refused like any unknown tag —
    /// an error, never a panic — whatever the ids.
    #[test]
    fn the_retired_tag_12_is_refused(to in any_string(), from in any_string()) {
        let mut frame = vec![12u8];
        to.encode(&mut frame);
        from.encode(&mut frame);
        prop_assert!(matches!(
            Req::<String, u64>::from_bytes(&frame),
            Err(WireError::Invalid("request tag"))
        ));
    }

    #[test]
    fn every_truncation_is_rejected(req in any_req(), frac in 0u32..1_000) {
        let bytes = req.to_bytes();
        prop_assume!(!bytes.is_empty());
        let cut = (frac as usize * bytes.len()) / 1_000;
        let res: Result<Req<String, u64>, _> = Wire::from_bytes(&bytes[..cut]);
        prop_assert!(res.is_err(), "strict prefix of {} bytes decoded", cut);
    }

    #[test]
    fn oversized_string_length_is_rejected(len in (MAX_FRAME as u64 + 1)..u64::MAX) {
        // A String encoding whose length field promises more than any
        // frame can carry: must error, must not allocate `len` bytes.
        let bytes = len.to_bytes();
        let res: Result<String, _> = Wire::from_bytes(&bytes);
        prop_assert!(res.is_err());
    }

    #[test]
    fn oversized_vec_count_is_rejected(count in (MAX_FRAME as u64 + 1)..u64::MAX) {
        let bytes = count.to_bytes();
        let res: Result<Vec<u64>, _> = Wire::from_bytes(&bytes);
        prop_assert!(res.is_err());
    }

    #[test]
    fn byte_soup_never_panics(soup in vec(any::<u8>(), 0..96)) {
        // Totality: garbage in, error (or an accidental value) out —
        // never a panic, for every decoder the protocol uses.
        let _ = <Req<String, u64> as Wire>::from_bytes(&soup);
        let _ = <Resp<String, u64> as Wire>::from_bytes(&soup);
        let _ = <Event<String> as Wire>::from_bytes(&soup);
        let _ = <FleetReq as Wire>::from_bytes(&soup);
        let _ = <FleetResp as Wire>::from_bytes(&soup);
        let _ = <PerfDescriptor as Wire>::from_bytes(&soup);
        let _ = <FaultPlan as Wire>::from_bytes(&soup);
        let _ = <(u64, String) as Wire>::from_bytes(&soup);
        let (mut c, mut dec) = (Cursor::new(&soup), FrameDecoder::new());
        while let Ok(Some(_)) = dec.read_frame_from(&mut c) {}
    }

    #[test]
    fn frames_roundtrip_payloads(payload in vec(any::<u8>(), 0..256)) {
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).expect("write");
        let (mut c, mut dec) = (Cursor::new(buf), FrameDecoder::new());
        prop_assert_eq!(dec.read_frame_from(&mut c).expect("read"), Some(&payload[..]));
        prop_assert_eq!(dec.read_frame_from(&mut c).expect("eof"), None);
    }

    #[test]
    fn frame_streams_survive_interleaving(payloads in vec(vec(any::<u8>(), 0..64), 0..8)) {
        let mut buf = Vec::new();
        for p in &payloads {
            write_frame(&mut buf, p).expect("write");
        }
        let (mut c, mut dec) = (Cursor::new(buf), FrameDecoder::new());
        for p in &payloads {
            let got = dec.read_frame_from(&mut c).expect("read");
            prop_assert_eq!(got, Some(&p[..]));
        }
        prop_assert_eq!(dec.read_frame_from(&mut c).expect("eof"), None);
    }

    /// Any fragmentation — split length prefixes, frames larger than the
    /// decoder's first buffer, bytes fed by `extend` and by `read_from`
    /// in turn — yields every frame whose bytes arrived, in order; a
    /// decoder dropped mid-stream hands back exactly the bytes past the
    /// last frame it lent.
    #[test]
    fn a_decoder_survives_any_fragmentation(
        payloads in vec(vec(any::<u8>(), 0..1_500), 0..6),
        cuts in vec(1usize..700, 1..40),
        stop_at in any::<usize>(),
    ) {
        let mut stream = Vec::new();
        let mut ends = Vec::new();
        for p in &payloads {
            write_frame(&mut stream, p).expect("write");
            ends.push(stream.len());
        }
        let stop = stop_at % (stream.len() + 1);
        let mut dec = FrameDecoder::new();
        let mut got: Vec<Vec<u8>> = Vec::new();
        let mut fed = 0;
        for (i, cut) in cuts.iter().cycle().enumerate() {
            if fed >= stop {
                break;
            }
            let piece = &stream[fed..(fed + cut).min(stop)];
            if i % 2 == 0 {
                dec.extend(piece);
            } else {
                dec.read_from(&mut Cursor::new(piece)).expect("a cursor reads");
            }
            fed += piece.len();
            while let Some(frame) = dec.next_frame().expect("well-formed") {
                got.push(frame.to_vec());
            }
        }
        let whole = ends.iter().filter(|&&end| end <= stop).count();
        prop_assert_eq!(&got[..], &payloads[..whole]);
        let taken = if whole == 0 { 0 } else { ends[whole - 1] };
        prop_assert_eq!(dec.mid_frame(), taken < stop);
        prop_assert_eq!(dec.into_remainder(), stream[taken..stop].to_vec());
    }
}
