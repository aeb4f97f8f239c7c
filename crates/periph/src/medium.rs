//! Shared lossy radio medium for fleet-scale simulation.
//!
//! A fleet of devices transmits over one channel. Each device's
//! [`RadioLog`](crate::radio::RadioLog) records *completion* times of its
//! transmissions; the medium model turns each packet into an on-air window
//! `[time_us - air_us(words), time_us)` and decides, deterministically,
//! which transmissions the gateway actually receives:
//!
//! * **Collision** — two windows overlap in virtual time ⇒ both packets are
//!   destroyed (unslotted-ALOHA style). Devices never coordinate, so
//!   contention falls out of the per-device supply schedules alone.
//! * **Channel loss** — every surviving packet is dropped with probability
//!   `loss_permille / 1000`, drawn from a hash of
//!   `(medium seed, device id, per-device packet index)`. The draw depends
//!   only on those three values — never on merge order or `--jobs` width —
//!   which is what makes fleet reports byte-identical at any parallelism.
//!
//! The medium never mutates device state; it is applied *after* all device
//! runs as a pure function of their radio logs (DESIGN.md §15).

use crate::radio::Packet;

/// Deterministic description of the shared radio channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MediumSpec {
    /// Seed for the per-packet loss draws.
    pub seed: u64,
    /// Probability (per mille) that a collision-free packet is lost.
    pub loss_permille: u32,
    /// Fixed per-transmission airtime (preamble + header), µs.
    pub airtime_base_us: u64,
    /// Additional airtime per payload word, µs.
    pub airtime_us_per_word: u64,
}

impl MediumSpec {
    /// A perfect channel: no loss; collisions still apply when windows
    /// overlap (they are a property of timing, not of the spec).
    pub fn ideal() -> Self {
        Self {
            seed: 0,
            loss_permille: 0,
            airtime_base_us: 32,
            airtime_us_per_word: 4,
        }
    }

    /// A seeded lossy channel with default airtimes.
    pub fn lossy(seed: u64, loss_permille: u32) -> Self {
        Self {
            seed,
            loss_permille,
            ..Self::ideal()
        }
    }

    /// On-air duration of a packet of `words` payload words (µs).
    pub fn air_us(&self, words: usize) -> u64 {
        self.airtime_base_us + self.airtime_us_per_word * words as u64
    }

    /// The half-open on-air window `[start, end)` of a packet whose
    /// transmission *completed* at `pkt.time_us`.
    pub fn window(&self, pkt: &Packet) -> (u64, u64) {
        let end = pkt.time_us;
        (end.saturating_sub(self.air_us(pkt.payload.len())), end)
    }

    /// Whether the channel drops packet number `index` of `device`
    /// (collision-free packets only). Pure in `(seed, device, index)`.
    pub fn drops(&self, device: u32, index: u32) -> bool {
        if self.loss_permille == 0 {
            return false;
        }
        let key = ((device as u64) << 32) | index as u64;
        let draw = splitmix64(self.seed ^ splitmix64(key));
        ((draw % 1000) as u32) < self.loss_permille
    }

    /// Whether the gateway's downlink of update `chunk` to `device` is
    /// lost on delivery `attempt` (0-based; retries re-draw). Pure in
    /// `(seed, device, chunk, attempt)` and drawn from a distinct stream
    /// than the uplink [`drops`](Self::drops), so rollout loss never
    /// correlates with telemetry loss at the same seed.
    pub fn downlink_drops(&self, device: u32, chunk: u32, attempt: u32) -> bool {
        if self.loss_permille == 0 {
            return false;
        }
        // Stream tag keeps downlink draws disjoint from uplink draws.
        const DOWNLINK_STREAM: u64 = 0xD04E_E75A_11C3_8F2D;
        let key = ((device as u64) << 40) | ((chunk as u64) << 8) | attempt as u64;
        let draw = splitmix64(self.seed ^ DOWNLINK_STREAM ^ splitmix64(key));
        ((draw % 1000) as u32) < self.loss_permille
    }

    /// Stable human-readable label for tables and reports.
    pub fn label(&self) -> String {
        format!(
            "loss={}permille seed={} air={}+{}/word us",
            self.loss_permille, self.seed, self.airtime_base_us, self.airtime_us_per_word
        )
    }
}

impl Default for MediumSpec {
    fn default() -> Self {
        Self::ideal()
    }
}

/// Stateless 64-bit mixer (splitmix64 finalizer) — the same construction
/// the environment and fault models use for order-independent draws.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_are_anchored_at_completion_time() {
        let m = MediumSpec::ideal();
        let pkt = Packet {
            time_us: 1000,
            payload: [1, 2].into(),
        };
        let (start, end) = m.window(&pkt);
        assert_eq!(end, 1000);
        assert_eq!(end - start, m.air_us(2));
        assert!(start < end);
    }

    #[test]
    fn early_packets_clamp_to_time_zero() {
        let m = MediumSpec::ideal();
        let pkt = Packet {
            time_us: 1,
            payload: vec![0; 100].into(),
        };
        assert_eq!(m.window(&pkt).0, 0);
    }

    #[test]
    fn loss_draws_are_pure_and_roughly_calibrated() {
        let m = MediumSpec::lossy(7, 250);
        // Pure: same (device, index) always draws the same.
        for d in 0..8u32 {
            for i in 0..8u32 {
                assert_eq!(m.drops(d, i), m.drops(d, i));
            }
        }
        // Calibrated: over many draws the rate approaches 25%.
        let lost = (0..4000u32).filter(|&i| m.drops(i / 100, i % 100)).count();
        assert!((800..1200).contains(&lost), "lost {lost} of 4000");
    }

    #[test]
    fn zero_loss_never_drops() {
        let m = MediumSpec::ideal();
        assert!((0..1000u32).all(|i| !m.drops(i, i)));
    }

    #[test]
    fn downlink_draws_are_pure_calibrated_and_decorrelated_from_uplink() {
        let m = MediumSpec::lossy(7, 250);
        for d in 0..4u32 {
            for c in 0..4u32 {
                for a in 0..4u32 {
                    assert_eq!(m.downlink_drops(d, c, a), m.downlink_drops(d, c, a));
                }
            }
        }
        let lost = (0..4000u32)
            .filter(|&i| m.downlink_drops(i / 100, (i / 10) % 10, i % 10))
            .count();
        assert!((800..1200).contains(&lost), "lost {lost} of 4000");
        // Distinct stream: the downlink draw at (device, index, 0) must not
        // mirror the uplink draw at (device, index).
        let mirrored = (0..256u32).all(|i| m.downlink_drops(0, i, 0) == m.drops(0, i));
        assert!(!mirrored);
        assert!((0..1000u32).all(|i| !MediumSpec::ideal().downlink_drops(i, 0, 0)));
    }

    #[test]
    fn different_seeds_give_different_channels() {
        let a = MediumSpec::lossy(1, 500);
        let b = MediumSpec::lossy(2, 500);
        let differs = (0..256u32).any(|i| a.drops(0, i) != b.drops(0, i));
        assert!(differs);
    }
}
