//! Benchmark-local scripts and the seeded inputs of every workload.
//!
//! Two scripts live here instead of in `script_lib`:
//!
//! * two-phase commit over `u64`, with the message pattern of
//!   `script_lib::commit` (prepare ×n, vote ×n, decision ×n) — the
//!   library's `CommitMsg` has no `Wire` impl and the orphan rule stops
//!   the benchmark adding one, so the library script cannot cross a
//!   socket. The same local script runs in-process too, so the two mix
//!   workloads stay comparable;
//! * the stream: `SOURCES` sources pushing small strings at one sink
//!   for as many rounds as the sink's enroller asks for, all inside one
//!   long performance (round sizes and the final stop travel in-band,
//!   sink to sources).

use std::time::Instant;

use crate::trace;
use script_core::{
    FamilyHandle, Initiation, RoleCtx, RoleHandle, RoleId, Script, ScriptError, Termination,
};

/// One SplitMix64 step: every input below is `mix(seed ^ lane, k)`, a
/// pure function of the run seed and the operation's index.
pub fn mix(seed: u64, k: u64) -> u64 {
    let mut z = seed
        .wrapping_add(k.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The value the `k`-th star broadcast carries.
pub fn star_value(seed: u64, k: u64) -> u64 {
    mix(seed ^ 0x57A2, k)
}

/// The rumor the `k`-th gossip performance spreads.
pub fn rumor(seed: u64, k: u64) -> u64 {
    mix(seed ^ 0x6055, k)
}

/// Participant `i`'s vote in the `k`-th commit round: yes seven times
/// in eight, so about two rounds in three commit.
pub fn vote(seed: u64, k: u64, i: usize) -> bool {
    (mix(seed ^ 0xC0, k) >> (3 * i)) & 7 != 0
}

/// The decision the `k`-th commit round must reach.
pub fn decision(seed: u64, k: u64, participants: usize) -> bool {
    (0..participants).all(|i| vote(seed, k, i))
}

const PREPARE: u64 = 2;
const COMMIT: u64 = 11;
const ABORT: u64 = 10;

/// The packaged local two-phase commit.
pub struct Commit {
    pub script: Script<u64>,
    /// Returns the decision.
    pub coordinator: RoleHandle<u64, (), bool>,
    /// Takes the vote, returns the decision it was told.
    pub participant: FamilyHandle<u64, bool, bool>,
}

fn unexpected(what: &str, got: u64) -> ScriptError {
    ScriptError::app(format!("commit: expected {what}, got {got}"))
}

pub fn commit(n: usize) -> Commit {
    let mut b = Script::<u64>::builder("bench_two_phase_commit");
    let coordinator = b.role("coordinator", move |ctx, ()| {
        for i in 0..n {
            ctx.send(&RoleId::indexed("participant", i), PREPARE)?;
        }
        let mut all_yes = true;
        for _ in 0..n {
            match ctx.recv_any()?.1 {
                v @ (0 | 1) => all_yes &= v == 1,
                other => return Err(unexpected("a vote", other)),
            }
        }
        for i in 0..n {
            let verdict = if all_yes { COMMIT } else { ABORT };
            ctx.send(&RoleId::indexed("participant", i), verdict)?;
        }
        Ok(all_yes)
    });
    let participant = b.family("participant", n, |ctx, vote: bool| {
        let coordinator = RoleId::new("coordinator");
        match ctx.recv_from(&coordinator)? {
            PREPARE => {}
            other => return Err(unexpected("prepare", other)),
        }
        ctx.send(&coordinator, u64::from(vote))?;
        match ctx.recv_from(&coordinator)? {
            COMMIT => Ok(true),
            ABORT => Ok(false),
            other => Err(unexpected("a decision", other)),
        }
    });
    b.initiation(Initiation::Delayed)
        .termination(Termination::Delayed);
    Commit {
        script: b.build().expect("commit spec is valid"),
        coordinator,
        participant,
    }
}

/// Sources in the stream script.
pub const SOURCES: usize = 2;
/// Bytes in every stream message.
pub const MSG_BYTES: usize = 64;

const GO: &str = "go";
const STOP: &str = "stop";

/// The message source `i` streams: 64 seeded lowercase letters.
pub fn payload(seed: u64, i: usize) -> String {
    (0..MSG_BYTES as u64)
        .map(|j| char::from(b'a' + (mix(seed ^ 0x5EED ^ i as u64, j) % 26) as u8))
        .collect()
}

/// What the sink saw in one round.
#[derive(Debug, Clone, Copy, Default)]
pub struct SinkRound {
    pub messages: u64,
    pub bytes: u64,
    /// Messages that were not the sender's seeded payload.
    pub wrong: u64,
    pub seconds: f64,
}

/// The sink's conversation with its enroller: called with `None` once
/// the performance is under way, then after every round with what
/// arrived; returns the message count per source of the next round,
/// or `None` to end the performance.
pub type RoundFn = Box<dyn FnMut(Option<SinkRound>) -> Option<u64> + Send>;

/// A source's per-round report: the round's send latencies in
/// nanoseconds.
pub type SamplesFn = Box<dyn FnMut(Vec<u32>) + Send>;

/// What a source is enrolled with.
pub struct SourceParams {
    pub payload: String,
    pub report: SamplesFn,
}

/// What the sink is enrolled with.
pub struct SinkParams {
    /// Every source's payload, by source index.
    pub payloads: Vec<String>,
    pub on_round: RoundFn,
}

pub struct Stream {
    pub script: Script<String>,
    /// Returns how many messages it sent.
    pub source: FamilyHandle<String, SourceParams, u64>,
    /// Returns how many messages it received.
    pub sink: RoleHandle<String, SinkParams, u64>,
}

fn source_body(ctx: &mut RoleCtx<String>, mut p: SourceParams) -> Result<u64, ScriptError> {
    let sink = RoleId::new("sink");
    let mut sent = 0;
    loop {
        let verdict = ctx.recv_from(&sink)?;
        if verdict == STOP {
            return Ok(sent);
        }
        let round: u64 = verdict
            .strip_prefix(GO)
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| ScriptError::app(format!("stream: bad verdict {verdict:?}")))?;
        let mut samples = Vec::with_capacity(round as usize);
        for k in 0..round {
            let msg = p.payload.clone();
            let _span = trace::span("scripts.stream.send", sent + k);
            let t0 = Instant::now();
            // One rendezvous: `send` returns when the sink picked up.
            ctx.send(&sink, msg)?;
            samples.push(t0.elapsed().as_nanos().min(u128::from(u32::MAX)) as u32);
        }
        sent += round;
        (p.report)(samples);
    }
}

fn sink_body(ctx: &mut RoleCtx<String>, mut p: SinkParams) -> Result<u64, ScriptError> {
    let (mut total, mut last) = (0, None);
    loop {
        let next = (p.on_round)(last);
        let verdict = next.map_or_else(|| STOP.to_string(), |n| format!("{GO}{n}"));
        for i in 0..SOURCES {
            ctx.send(&RoleId::indexed("source", i), verdict.clone())?;
        }
        let Some(round) = next else {
            return Ok(total);
        };
        let mut seen = SinkRound::default();
        let t0 = Instant::now();
        for _ in 0..round * SOURCES as u64 {
            let (from, msg) = ctx.recv_any()?;
            seen.messages += 1;
            seen.bytes += msg.len() as u64;
            let expected = from.index().and_then(|i| p.payloads.get(i));
            seen.wrong += u64::from(expected != Some(&msg));
        }
        seen.seconds = t0.elapsed().as_secs_f64();
        total += seen.messages;
        last = Some(seen);
    }
}

pub fn stream() -> Stream {
    let mut b = Script::<String>::builder("bench_stream");
    let source = b.family("source", SOURCES, source_body);
    let sink = b.role("sink", sink_body);
    b.initiation(Initiation::Delayed)
        .termination(Termination::Delayed);
    Stream {
        script: b.build().expect("stream spec is valid"),
        source,
        sink,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_pure_functions_of_the_seed() {
        assert_eq!(star_value(7, 3), star_value(7, 3));
        assert_ne!(star_value(7, 3), star_value(8, 3));
        assert_ne!(star_value(7, 3), rumor(7, 3));
        assert_eq!(payload(1, 0).len(), MSG_BYTES);
        assert_ne!(payload(1, 0), payload(1, 1));
        let commits = (0..1000).filter(|&k| decision(5, k, 3)).count();
        assert!((550..800).contains(&commits), "{commits} of 1000 commit");
    }
}
