//! Broadcast strategies under simulated per-hop transmission latency.
//!
//! The paper cites the broadcast literature for "a discussion of various
//! broadcast patterns and their relative merits" — merits that only
//! appear once links have real latency. On bare OS threads a rendezvous
//! costs microseconds and scheduling noise swamps the topology; adding a
//! fixed delay before each send models a network link and exposes the
//! textbook shapes: the star's transmitter pays n·d sequentially, the
//! spanning tree's critical path is O(log n)·d.

use std::thread::sleep;
use std::time::Duration;

use script_core::{Initiation, Instance, RoleId, Script, ScriptError, Termination};

/// A broadcast script whose every send is preceded by `hop_delay`
/// (simulated transmission time), in the given topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// Transmitter sends to each recipient in turn (Figure 3).
    Star,
    /// Binary tree wave (§II "spanning tree").
    Tree,
}

/// A delayed-broadcast script plus its handles.
#[derive(Debug)]
pub struct DelayedBroadcast {
    /// The underlying script.
    pub script: Script<u64>,
    /// Sender handle.
    pub sender: script_core::RoleHandle<u64, u64, ()>,
    /// Recipient family handle.
    pub recipient: script_core::FamilyHandle<u64, (), u64>,
    n: usize,
}

/// Builds an `n`-recipient broadcast in `topology` with `hop_delay`
/// before every send.
pub fn delayed_broadcast(n: usize, topology: Topology, hop_delay: Duration) -> DelayedBroadcast {
    let mut b = Script::<u64>::builder("delayed_broadcast");
    let sender_id = RoleId::new("sender");
    let (sender, recipient) = match topology {
        Topology::Star => {
            let sender = b.role("sender", move |ctx, data: u64| {
                for i in 0..n {
                    sleep(hop_delay);
                    ctx.send(&RoleId::indexed("recipient", i), data)?;
                }
                Ok(())
            });
            let sid = sender_id.clone();
            let recipient = b.family("recipient", n, move |ctx, ()| ctx.recv_from(&sid));
            (sender, recipient)
        }
        Topology::Tree => {
            let sender = b.role("sender", move |ctx, data: u64| {
                sleep(hop_delay);
                ctx.send(&RoleId::indexed("recipient", 0), data)?;
                Ok(())
            });
            let sid = sender_id.clone();
            let recipient = b.family("recipient", n, move |ctx, ()| {
                let me = ctx.role().index().expect("indexed");
                let value = if me == 0 {
                    ctx.recv_from(&sid)?
                } else {
                    ctx.recv_from(&RoleId::indexed("recipient", (me - 1) / 2))?
                };
                for child in [2 * me + 1, 2 * me + 2] {
                    if child < n {
                        sleep(hop_delay);
                        ctx.send(&RoleId::indexed("recipient", child), value)?;
                    }
                }
                Ok(value)
            });
            (sender, recipient)
        }
    };
    b.initiation(Initiation::Delayed)
        .termination(Termination::Delayed);
    DelayedBroadcast {
        script: b.build().expect("delayed broadcast spec is valid"),
        sender,
        recipient,
        n,
    }
}

/// Runs one performance; returns the received values.
///
/// # Errors
///
/// The first error any participant reported.
pub fn run(
    instance: &Instance<u64>,
    b: &DelayedBroadcast,
    value: u64,
) -> Result<Vec<u64>, ScriptError> {
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..b.n)
            .map(|i| {
                let recipient = &b.recipient;
                s.spawn(move || instance.enroll_member(recipient, i, ()))
            })
            .collect();
        instance.enroll(&b.sender, value)?;
        let mut out = Vec::with_capacity(b.n);
        for h in handles {
            out.push(h.join().expect("no panics")?);
        }
        Ok(out)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_topologies_deliver_with_delay() {
        for topo in [Topology::Star, Topology::Tree] {
            let b = delayed_broadcast(5, topo, Duration::from_micros(50));
            let inst = b.script.instance();
            let got = run(&inst, &b, 9).unwrap();
            assert_eq!(got, vec![9; 5], "{topo:?}");
        }
    }

    #[test]
    fn tree_beats_star_under_latency() {
        // With 1 ms per hop and 16 recipients: star ≈ 16 ms serial,
        // tree ≈ 2·log2(16) = 8 ms critical path.
        let d = Duration::from_millis(1);
        let star = delayed_broadcast(16, Topology::Star, d);
        let tree = delayed_broadcast(16, Topology::Tree, d);
        let t_star = {
            let inst = star.script.instance();
            let t0 = std::time::Instant::now();
            run(&inst, &star, 1).unwrap();
            t0.elapsed()
        };
        let t_tree = {
            let inst = tree.script.instance();
            let t0 = std::time::Instant::now();
            run(&inst, &tree, 1).unwrap();
            t0.elapsed()
        };
        assert!(
            t_tree < t_star,
            "tree ({t_tree:?}) should beat star ({t_star:?}) under per-hop latency"
        );
    }
}
