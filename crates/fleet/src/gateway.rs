//! The simulated gateway: deterministic merge of every device's radio log
//! over the shared medium, with exactly-once delivery accounting.
//!
//! The gateway is a *pure post-pass*: device runs never observe it, so it
//! can be computed after the fleet finishes, from the per-device radio
//! logs alone. That is what keeps the fleet deterministic at any `--jobs`
//! width — the merge sorts transmissions by `(air-window start, device,
//! per-device index)`, a total order independent of which worker ran which
//! device, and the channel-loss draw hashes `(medium seed, device, index)`
//! rather than anything positional.
//!
//! Collisions are unslotted-ALOHA: transmissions whose air windows overlap
//! in virtual time destroy each other, transitively along an overlap chain.
//! Surviving packets then face the seeded per-link loss. Every packet ends
//! in exactly one bucket — delivered, lost to collision, or lost to the
//! channel — and the report validator rejects any ledger where that does
//! not hold.

use easeio_trace::FleetDeliveryDoc;
use periph::{MediumSpec, Packet};
use std::collections::BTreeMap;

/// One transmission after the merge, in canonical order.
struct AirEvent {
    /// Air-window start (µs).
    start: u64,
    /// Air-window end, exclusive (µs).
    end: u64,
    /// Transmitting device.
    device: u32,
    /// Per-device packet index (the loss-draw key).
    index: u32,
    /// Packet identity, (device, first payload word), packed into one
    /// word: the device in the high half, the word's bits in the low.
    identity: u64,
}

/// The packed identity of packet `index` of `device`: its sequence is the
/// first payload word, or the index for an empty payload.
fn identity(device: u32, index: usize, pkt: &Packet) -> u64 {
    let seq = pkt.payload.first().copied().unwrap_or(index as i32);
    (u64::from(device) << 32) | u64::from(seq as u32)
}

/// Merges every device's `(device, radio log)` pair over the medium and
/// accounts for each packet, returning the fleet report's `delivery` block.
/// Pure in `(logs, medium)`: the result does not depend on the order of
/// `logs`, and nothing here depends on host timing.
///
/// A packet's *identity* is its (device, sequence) pair, where the
/// sequence is the packet's first payload word (the round counter in the
/// `flaky-radio` relay; the per-device send index for apps that do not
/// number their packets). `air_duplicates` — transmissions beyond the
/// first of an identity — are `Single`-semantics violations on the air:
/// zero under EaseIO, pinned positive by the Naive baseline.
///
/// The radio logs are the one per-device datum a fleet run retains: the
/// gateway cannot reduce them incrementally, because collisions couple
/// packets *across* devices through the global air-window order.
pub fn reconcile_logs<'a>(
    logs: impl IntoIterator<Item = (u32, &'a [Packet])>,
    medium: &MediumSpec,
) -> FleetDeliveryDoc {
    let mut events: Vec<AirEvent> = Vec::new();
    for (device, packets) in logs {
        for (k, pkt) in packets.iter().enumerate() {
            let (start, end) = medium.window(pkt);
            events.push(AirEvent {
                start,
                end,
                device,
                index: k as u32,
                identity: identity(device, k, pkt),
            });
        }
    }
    // The canonical merge order: window start, then device, then index.
    // Total and input-order-independent, so any shard layout sorts the
    // same way; the key is unique, so an unstable sort yields that order.
    events.sort_unstable_by_key(|e| (e.start, e.device, e.index));

    // Overlap chains destroy every member (unslotted ALOHA). Windows are
    // half-open, so a transmission starting exactly when another ends is
    // clean.
    let mut collided = vec![false; events.len()];
    let mut i = 0;
    while i < events.len() {
        let mut j = i + 1;
        let mut chain_end = events[i].end;
        while j < events.len() && events[j].start < chain_end {
            chain_end = chain_end.max(events[j].end);
            j += 1;
        }
        if j - i > 1 {
            for c in collided.iter_mut().take(j).skip(i) {
                *c = true;
            }
        }
        i = j;
    }

    // Every transmission's identity with whether it arrived; sorted, each
    // identity is one run, and it was delivered if any of its run was.
    let mut stats = FleetDeliveryDoc::default();
    let mut arrivals: Vec<(u64, bool)> = Vec::with_capacity(events.len());
    for (e, &lost) in events.iter().zip(&collided) {
        stats.transmissions += 1;
        let delivered = if lost {
            stats.lost_collision += 1;
            false
        } else if medium.drops(e.device, e.index) {
            stats.lost_channel += 1;
            false
        } else {
            stats.delivered += 1;
            true
        };
        arrivals.push((e.identity, delivered));
    }
    arrivals.sort_unstable();
    for run in arrivals.chunk_by(|a, b| a.0 == b.0) {
        stats.unique_sent += 1;
        // `true` sorts last within a run.
        stats.delivered_unique += u64::from(run[run.len() - 1].1);
    }
    stats.air_duplicates = stats.transmissions - stats.unique_sent;
    stats.gateway_duplicates = stats.delivered - stats.delivered_unique;
    stats.delivery_rate_milli = (stats.delivered_unique * 1000)
        .checked_div(stats.unique_sent)
        .unwrap_or(0);
    stats
}

/// The first `Single`-semantics violation on the air, for the forensics
/// bundle: which device retransmitted which sequence, and at which
/// per-device packet indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AirDuplicate {
    /// The retransmitting device.
    pub device: u32,
    /// The duplicated packet sequence (first payload word).
    pub seq: i64,
    /// Per-device index of the identity's first transmission.
    pub first_index: u32,
    /// Per-device index of the duplicate.
    pub dup_index: u32,
}

/// Scans the radio logs in device order for the first air duplicate.
/// A duplicate's identity is per-device, so the scan needs only one
/// device's log at a time — usable from either execution path.
pub fn find_air_duplicate<'a>(
    logs: impl IntoIterator<Item = (u32, &'a [Packet])>,
) -> Option<AirDuplicate> {
    for (device, packets) in logs {
        let mut first_of: BTreeMap<i64, u32> = BTreeMap::new();
        for (k, pkt) in packets.iter().enumerate() {
            let seq = pkt.payload.first().copied().unwrap_or(k as i32) as i64;
            if let Some(&first) = first_of.get(&seq) {
                return Some(AirDuplicate {
                    device,
                    seq,
                    first_index: first,
                    dup_index: k as u32,
                });
            }
            first_of.insert(seq, k as u32);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use periph::Packet;
    use proptest::prelude::*;

    /// The map-based reconcile the packed-key sort replaced, kept as the
    /// reference the proptest below holds `reconcile_logs` to.
    fn reconcile_with_maps(devices: &[Log], medium: &MediumSpec) -> FleetDeliveryDoc {
        let mut events = Vec::new();
        for (device, packets) in devices {
            for (k, pkt) in packets.iter().enumerate() {
                let (start, end) = medium.window(pkt);
                let seq = pkt.payload.first().copied().unwrap_or(k as i32) as i64;
                events.push((start, end, *device, k as u32, (*device, seq)));
            }
        }
        events.sort_by_key(|e| (e.0, e.2, e.3));
        let mut collided = vec![false; events.len()];
        let mut i = 0;
        while i < events.len() {
            let mut j = i + 1;
            let mut chain_end = events[i].1;
            while j < events.len() && events[j].0 < chain_end {
                chain_end = chain_end.max(events[j].1);
                j += 1;
            }
            if j - i > 1 {
                for c in collided.iter_mut().take(j).skip(i) {
                    *c = true;
                }
            }
            i = j;
        }
        let mut sent_by_identity: BTreeMap<(u32, i64), u64> = BTreeMap::new();
        let mut received_by_identity: BTreeMap<(u32, i64), u64> = BTreeMap::new();
        let mut stats = FleetDeliveryDoc::default();
        for (e, &lost) in events.iter().zip(&collided) {
            stats.transmissions += 1;
            *sent_by_identity.entry(e.4).or_insert(0) += 1;
            if lost {
                stats.lost_collision += 1;
            } else if medium.drops(e.2, e.3) {
                stats.lost_channel += 1;
            } else {
                stats.delivered += 1;
                *received_by_identity.entry(e.4).or_insert(0) += 1;
            }
        }
        stats.unique_sent = sent_by_identity.len() as u64;
        stats.air_duplicates = stats.transmissions - stats.unique_sent;
        stats.delivered_unique = received_by_identity.len() as u64;
        stats.gateway_duplicates = stats.delivered - stats.delivered_unique;
        stats.delivery_rate_milli = (stats.delivered_unique * 1000)
            .checked_div(stats.unique_sent)
            .unwrap_or(0);
        stats
    }

    /// Radio logs of up to 12 devices with up to 8 packets each: send
    /// times within 3 ms so 40 µs windows overlap often, sequences from a
    /// small range (negative ones included) so identities repeat, and
    /// some empty payloads, whose identity is the packet index.
    fn logs() -> impl Strategy<Value = Vec<Log>> {
        let packet = (0u64..3_000, -2i32..4, 0usize..4).prop_map(|(t, seq, words)| Packet {
            time_us: t,
            payload: (0..words).map(|w| if w == 0 { seq } else { 99 }).collect(),
        });
        proptest::collection::vec(proptest::collection::vec(packet, 0..8), 1..12).prop_map(
            |devices| {
                devices
                    .into_iter()
                    .enumerate()
                    .map(|(d, p)| (d as u32, p))
                    .collect()
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn packed_key_reconcile_equals_the_map_based_one(
            devices in logs(),
            seed in 0u64..1_000,
            loss in 0u32..1_001,
        ) {
            let medium = MediumSpec::lossy(seed, loss);
            prop_assert_eq!(reconcile(&devices, &medium), reconcile_with_maps(&devices, &medium));
        }
    }

    /// One device's radio log.
    type Log = (u32, Vec<Packet>);

    fn reconcile(devices: &[Log], medium: &MediumSpec) -> FleetDeliveryDoc {
        reconcile_logs(devices.iter().map(|(d, p)| (*d, p.as_slice())), medium)
    }

    fn pkt(time_us: u64, seq: i32) -> Packet {
        Packet {
            time_us,
            payload: [seq, 99].into(),
        }
    }

    /// Medium with 40 µs windows for the 2-word test packets and no loss.
    fn medium() -> MediumSpec {
        MediumSpec::ideal()
    }

    #[test]
    fn disjoint_windows_all_deliver() {
        let devices = [(0, vec![pkt(100, 0), pkt(300, 1)]), (1, vec![pkt(200, 0)])];
        let g = reconcile(&devices, &medium());
        assert_eq!(g.transmissions, 3);
        assert_eq!(g.delivered, 3);
        assert_eq!(g.delivered_unique, 3);
        assert_eq!(g.air_duplicates, 0);
        assert_eq!(g.lost_collision, 0);
        assert_eq!(g.delivery_rate_milli, 1000);
    }

    #[test]
    fn overlapping_windows_destroy_both() {
        // Completion times 20 µs apart; the 40 µs windows overlap.
        let devices = [(0, vec![pkt(100, 0)]), (1, vec![pkt(120, 0)])];
        let g = reconcile(&devices, &medium());
        assert_eq!(g.lost_collision, 2);
        assert_eq!(g.delivered, 0);
        // Both identities were sent exactly once; nothing arrived.
        assert_eq!(g.unique_sent, 2);
        assert_eq!(g.delivery_rate_milli, 0);
    }

    #[test]
    fn collision_chains_are_transitive_and_half_open() {
        // a: [60, 100), b: [90, 130), c: [125, 165) — a-b overlap, b-c
        // overlap, a-c don't: one chain, all three destroyed. d starts
        // exactly at the chain's end (165) and is clean.
        let devices = [
            (0, vec![pkt(100, 0)]),
            (1, vec![pkt(130, 0)]),
            (2, vec![pkt(165, 0)]),
            (3, vec![pkt(205, 0)]),
        ];
        let g = reconcile(&devices, &medium());
        assert_eq!(g.lost_collision, 3);
        assert_eq!(g.delivered, 1);
    }

    #[test]
    fn retransmissions_of_one_identity_are_air_duplicates() {
        // Device re-sends round 0 (a Single violation), well separated.
        let devices = [(0, vec![pkt(100, 0), pkt(300, 0), pkt(500, 1)])];
        let g = reconcile(&devices, &medium());
        assert_eq!(g.transmissions, 3);
        assert_eq!(g.unique_sent, 2);
        assert_eq!(g.air_duplicates, 1);
        assert_eq!(g.delivered, 3);
        assert_eq!(g.delivered_unique, 2);
        assert_eq!(g.gateway_duplicates, 1);
    }

    #[test]
    fn same_sequence_on_different_devices_is_not_a_duplicate() {
        let devices = [(0, vec![pkt(100, 0)]), (1, vec![pkt(300, 0)])];
        let g = reconcile(&devices, &medium());
        assert_eq!(g.unique_sent, 2);
        assert_eq!(g.air_duplicates, 0);
    }

    #[test]
    fn channel_loss_applies_only_to_collision_free_packets() {
        let lossy = MediumSpec::lossy(3, 1000); // every survivor is dropped
        let devices = [(0, vec![pkt(100, 0)]), (1, vec![pkt(120, 0)])];
        let g = reconcile(&devices, &lossy);
        // The two collide first; channel loss never sees them.
        assert_eq!(g.lost_collision, 2);
        assert_eq!(g.lost_channel, 0);
        let clean = [(0, vec![pkt(100, 0)])];
        let g = reconcile(&clean, &lossy);
        assert_eq!(g.lost_channel, 1);
        assert_eq!(g.delivered, 0);
    }

    #[test]
    fn accounting_always_balances() {
        let lossy = MediumSpec::lossy(9, 300);
        let devices: Vec<Log> = (0..16)
            .map(|d| {
                (
                    d,
                    (0..8)
                        .map(|k| pkt(80 * d as u64 + 61 * k, k as i32))
                        .collect(),
                )
            })
            .collect();
        let g = reconcile(&devices, &lossy);
        assert_eq!(g.transmissions, 128);
        assert_eq!(
            g.delivered + g.lost_collision + g.lost_channel,
            g.transmissions
        );
        assert_eq!(g.unique_sent + g.air_duplicates, g.transmissions);
        assert_eq!(g.delivered_unique + g.gateway_duplicates, g.delivered);
    }

    #[test]
    fn first_air_duplicate_is_found_with_its_indices() {
        let devices = [
            (0, vec![pkt(100, 0), pkt(300, 1)]),
            (1, vec![pkt(100, 0), pkt(300, 1), pkt(500, 0)]),
        ];
        let logs = devices.iter().map(|(d, p)| (*d, p.as_slice()));
        let dup = find_air_duplicate(logs).unwrap();
        assert_eq!(
            dup,
            AirDuplicate {
                device: 1,
                seq: 0,
                first_index: 0,
                dup_index: 2
            }
        );
        let clean = [(0, vec![pkt(100, 0), pkt(300, 1)])];
        assert!(find_air_duplicate(clean.iter().map(|(d, p)| (*d, p.as_slice()))).is_none());
    }

    #[test]
    fn reconcile_is_independent_of_result_order() {
        let lossy = MediumSpec::lossy(5, 200);
        let mut devices: Vec<Log> = (0..8)
            .map(|d| {
                (
                    d,
                    (0..4)
                        .map(|k| pkt(97 * d as u64 + 53 * k, k as i32))
                        .collect(),
                )
            })
            .collect();
        let forward = reconcile(&devices, &lossy);
        devices.reverse();
        assert_eq!(reconcile(&devices, &lossy), forward);
    }
}
