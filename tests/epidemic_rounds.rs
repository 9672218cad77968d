//! E21's structural claim (EXPERIMENTS.md): over the seeded partial-view
//! overlay, a rumor reaches every member of a gossip cast in a number of
//! push rounds that grows as log₂ n, not as n.

use script::lib::gossip::PeerView;

#[test]
fn oracle_rounds_grow_as_log2_n() {
    let view = PeerView::new(0x21, 3);
    for (n, expected) in [(16usize, 4u64), (64, 7), (256, 9)] {
        let members: Vec<usize> = (0..n).collect();
        let rounds = view.dissemination_rounds(0, &members);
        let ceil_log2 = u64::from(n.next_power_of_two().ilog2());
        assert!(
            rounds <= 2 * ceil_log2,
            "n = {n}: {rounds} rounds, more than 2·⌈log₂ n⌉ = {}",
            2 * ceil_log2
        );
        assert_eq!(rounds, expected, "n = {n}: the seeded overlay moved");
    }
}
