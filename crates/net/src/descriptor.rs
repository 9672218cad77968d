//! Signed performance descriptors: the hand-off from control plane to
//! data plane.
//!
//! When the fleet places a performance it issues every participant one
//! [`PerfDescriptor`]: the performance id, the epoch of the placement,
//! the chaos seed the data plane must replay, the address of the
//! performance's *home node* (the data hub that hosts its rendezvous
//! state), and the per-role peer address table. Spokes then dial the
//! home node directly — the fleet is out of the data path — falling
//! back to a relay through the fleet when the direct dial fails (see
//! [`crate::fleet`]).
//!
//! Descriptors are authenticated with a keyed MAC over their canonical
//! wire encoding so a spoke can reject a descriptor that was not minted
//! by its fleet (or was corrupted in transit). The MAC is a keyed
//! FNV-1a/SplitMix construction — the workspace vendors no
//! cryptography, and the threat model here is a *testbed* (misrouted or
//! bit-flipped frames, not an adversary); a production deployment would
//! swap in an HMAC without changing the wire layout, which reserves a
//! full 8-byte tag field.

use std::hash::Hasher;

use script_chan::SeededFnv;

use crate::wire::{Reader, Wire, WireError};

/// One signed data-plane placement, minted by the fleet at initiation
/// time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PerfDescriptor {
    /// The performance this descriptor places.
    pub perf: u64,
    /// Placement epoch: higher for every placement the fleet mints, so
    /// when it re-places a performance whose placement it had evicted,
    /// the descriptor a participant still holds is detectably stale.
    pub epoch: u64,
    /// The chaos seed the home node's fault plan must replay, `None`
    /// for a fault-free performance. Carrying the seed in the
    /// descriptor is what keeps federated replay bit-identical: every
    /// participant learns the same seed from the same signed artifact.
    pub chaos_seed: Option<u64>,
    /// Address of the home node hosting this performance's rendezvous
    /// state (`host:port`, dialable by every participant).
    pub home: String,
    /// Per-role peer addresses: `(role name, address)` for each
    /// enrolled participant, in placement order.
    pub peers: Vec<(String, String)>,
    /// Keyed MAC over every field above; zero until
    /// [`PerfDescriptor::sign`] runs.
    pub sig: u64,
}

impl PerfDescriptor {
    /// An unsigned descriptor (signature zero).
    pub fn new(perf: u64, epoch: u64, chaos_seed: Option<u64>, home: String) -> Self {
        Self {
            perf,
            epoch,
            chaos_seed,
            home,
            peers: Vec::new(),
            sig: 0,
        }
    }

    /// The canonical bytes the MAC covers: every field except the
    /// signature itself, in wire order.
    fn mac_input(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.perf.encode(&mut out);
        self.epoch.encode(&mut out);
        self.chaos_seed.encode(&mut out);
        self.home.encode(&mut out);
        self.peers.encode(&mut out);
        out
    }

    /// Computes and stores the MAC under `secret`, returning `self`.
    pub fn sign(mut self, secret: u64) -> Self {
        self.sig = mac(secret, &self.mac_input());
        self
    }

    /// Whether the stored MAC matches a recomputation under `secret`.
    pub fn verify(&self, secret: u64) -> bool {
        self.sig == mac(secret, &self.mac_input())
    }
}

/// [`SeededFnv`] over `bytes`, keyed by `secret`: the hash the chaos
/// layer draws its fault decisions from.
fn mac(secret: u64, bytes: &[u8]) -> u64 {
    let mut h = SeededFnv::new(secret);
    h.write(bytes);
    h.finish()
}

impl Wire for PerfDescriptor {
    fn encode(&self, out: &mut Vec<u8>) {
        self.perf.encode(out);
        self.epoch.encode(out);
        self.chaos_seed.encode(out);
        self.home.encode(out);
        self.peers.encode(out);
        self.sig.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(PerfDescriptor {
            perf: u64::decode(r)?,
            epoch: u64::decode(r)?,
            chaos_seed: Option::<u64>::decode(r)?,
            home: String::decode(r)?,
            peers: Vec::<(String, String)>::decode(r)?,
            sig: u64::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PerfDescriptor {
        let mut d = PerfDescriptor::new(7, 2, Some(0xC0FFEE), String::from("127.0.0.1:9000"));
        d.peers = vec![
            (String::from("caster"), String::from("127.0.0.1:9001")),
            (String::from("recipient"), String::from("127.0.0.1:9002")),
        ];
        d
    }

    #[test]
    fn descriptors_roundtrip() {
        let d = sample().sign(0x5EC7);
        assert_eq!(PerfDescriptor::from_bytes(&d.to_bytes()).unwrap(), d);
    }

    #[test]
    fn signature_verifies_under_the_minting_secret_only() {
        let d = sample().sign(11);
        assert!(d.verify(11));
        assert!(!d.verify(12));
        assert!(!sample().verify(11), "unsigned descriptor never verifies");
    }

    #[test]
    fn any_field_tamper_breaks_the_signature() {
        let d = sample().sign(11);
        let mut t = d.clone();
        t.perf += 1;
        assert!(!t.verify(11));
        let mut t = d.clone();
        t.epoch += 1;
        assert!(!t.verify(11));
        let mut t = d.clone();
        t.chaos_seed = None;
        assert!(!t.verify(11));
        let mut t = d.clone();
        t.home = String::from("127.0.0.1:9999");
        assert!(!t.verify(11));
        let mut t = d.clone();
        t.peers.pop();
        assert!(!t.verify(11));
    }

    #[test]
    fn truncated_descriptors_are_rejected() {
        let bytes = sample().sign(3).to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                PerfDescriptor::from_bytes(&bytes[..cut]).is_err(),
                "cut at {cut}"
            );
        }
    }
}
