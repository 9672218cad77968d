//! Guarded-selection arm and outcome types.

/// The source specification of a receive arm.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Source<I> {
    /// Receive only from the named peer (CSP `p?x`).
    Of(I),
    /// Receive from any peer (Ada `accept`, or the extended naming of
    /// Francez's CSP proposal).
    Any,
}

/// One alternative of a guarded selection (CSP alternative command).
///
/// Arms with a false boolean guard should simply not be passed to
/// [`Port::select`](crate::Port::select); the higher layers provide the
/// `when`-style sugar.
#[derive(Debug, Clone, PartialEq)]
pub enum Arm<I, M> {
    /// Fire when a message from `source` can be received.
    Recv(Source<I>),
    /// Fire when `msg` can be synchronously delivered to `to`.
    ///
    /// A send arm only fires against a peer that is already committed to a
    /// matching receive, so firing implies delivery.
    Send {
        /// Destination peer.
        to: I,
        /// Message delivered if the arm fires.
        msg: M,
    },
    /// Fire when the peer has terminated and no message from it remains
    /// undelivered.
    ///
    /// This lets server roles drain all requests before reacting to a
    /// partner's termination (the `r.terminated` device of the paper's
    /// lock-manager example).
    Watch(I),
}

impl<I, M> Arm<I, M> {
    /// A receive arm restricted to one peer.
    pub fn recv_from(peer: I) -> Self {
        Arm::Recv(Source::Of(peer))
    }

    /// A receive arm accepting any peer.
    pub fn recv_any() -> Self {
        Arm::Recv(Source::Any)
    }

    /// A synchronous send arm.
    pub fn send(to: I, msg: M) -> Self {
        Arm::Send { to, msg }
    }

    /// A termination-watch arm.
    pub fn watch(peer: I) -> Self {
        Arm::Watch(peer)
    }
}

impl<I: Clone> crate::ChanError<I> {
    /// The paper's distinguished value for a selection whose every arm is
    /// permanently unfireable, on every transport: [`Self::Terminated`]
    /// naming a lone receive-from or send arm's peer, else
    /// [`Self::AllTerminated`].
    pub fn all_arms_dead<M>(arms: &[Arm<I, M>]) -> Self {
        match arms {
            [Arm::Recv(Source::Of(p)) | Arm::Send { to: p, .. }] => Self::Terminated(p.clone()),
            _ => Self::AllTerminated,
        }
    }
}

/// The result of a successful [`Port::select`](crate::Port::select).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome<I, M> {
    /// A receive arm fired.
    Received {
        /// Index of the arm that fired, in the order arms were passed.
        arm: usize,
        /// The peer the message came from.
        from: I,
        /// The received message.
        msg: M,
    },
    /// A send arm fired; the message was delivered.
    Sent {
        /// Index of the arm that fired.
        arm: usize,
        /// The peer the message went to.
        to: I,
    },
    /// A watch arm fired: the peer terminated and left no pending message.
    Terminated {
        /// Index of the arm that fired.
        arm: usize,
        /// The terminated peer.
        peer: I,
    },
}

impl<I, M> Outcome<I, M> {
    /// Index of the arm that fired.
    pub fn arm(&self) -> usize {
        match self {
            Outcome::Received { arm, .. }
            | Outcome::Sent { arm, .. }
            | Outcome::Terminated { arm, .. } => *arm,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ChanError;

    #[test]
    fn constructors_build_expected_variants() {
        let a: Arm<u8, ()> = Arm::recv_from(1);
        assert!(matches!(a, Arm::Recv(Source::Of(1))));
        let b: Arm<u8, ()> = Arm::recv_any();
        assert!(matches!(b, Arm::Recv(Source::Any)));
        let c: Arm<u8, u8> = Arm::send(2, 9);
        assert!(matches!(c, Arm::Send { to: 2, msg: 9 }));
        let d: Arm<u8, ()> = Arm::watch(3);
        assert!(matches!(d, Arm::Watch(3)));
    }

    #[test]
    fn all_dead_arms_name_a_lone_peer_only() {
        let named: [Arm<u8, u8>; 2] = [Arm::recv_from(1), Arm::send(2, 0)];
        assert_eq!(
            ChanError::all_arms_dead(&named[..1]),
            ChanError::Terminated(1)
        );
        assert_eq!(
            ChanError::all_arms_dead(&named[1..]),
            ChanError::Terminated(2)
        );
        assert_eq!(ChanError::all_arms_dead(&named), ChanError::AllTerminated);
        let unnamed: [Arm<u8, u8>; 2] = [Arm::recv_any(), Arm::watch(3)];
        assert_eq!(
            ChanError::all_arms_dead(&unnamed[..1]),
            ChanError::AllTerminated
        );
        assert_eq!(
            ChanError::all_arms_dead(&unnamed[1..]),
            ChanError::AllTerminated
        );
    }

    #[test]
    fn outcome_arm_index() {
        let o: Outcome<u8, u8> = Outcome::Received {
            arm: 2,
            from: 1,
            msg: 0,
        };
        assert_eq!(o.arm(), 2);
        let o: Outcome<u8, u8> = Outcome::Sent { arm: 1, to: 4 };
        assert_eq!(o.arm(), 1);
        let o: Outcome<u8, u8> = Outcome::Terminated { arm: 0, peer: 4 };
        assert_eq!(o.arm(), 0);
    }
}
