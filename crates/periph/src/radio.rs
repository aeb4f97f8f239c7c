//! Radio transmitter model.
//!
//! The paper emulates transmission with a priced delay loop (§5.4.1); what
//! matters to the evaluation is (a) the cost of a send and (b) whether the
//! same payload is redundantly re-sent after a power failure. We therefore
//! model the radio as a cost plus an append-only log of transmitted packets
//! so tests and experiments can count duplicates and detect stale payloads
//! (the §3.3.2 data-dependence scenario: `Single` send + re-executed
//! `Timely` sense ⇒ the value in memory differs from the value on the air).

use mcu_emu::{Cost, CostTable};
use std::sync::Arc;

/// A transmitted packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Wall-clock time the transmission completed (µs).
    pub time_us: u64,
    /// The payload words, shared with the send operation that carried
    /// them: a packet is allocated once, when its payload is framed.
    pub payload: Arc<[i32]>,
}

/// Append-only log of everything the radio sent.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct RadioLog {
    sent: Vec<Packet>,
}

impl Clone for RadioLog {
    fn clone(&self) -> Self {
        Self {
            sent: self.sent.clone(),
        }
    }

    /// Copies `source`'s packets into this log's buffer.
    fn clone_from(&mut self, source: &Self) {
        self.sent.clone_from(&source.sent);
    }
}

impl RadioLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a completed transmission.
    pub fn transmit(&mut self, time_us: u64, payload: Arc<[i32]>) {
        self.sent.push(Packet { time_us, payload });
    }

    /// All transmitted packets, in order.
    pub fn packets(&self) -> &[Packet] {
        &self.sent
    }

    /// Number of transmissions.
    pub fn count(&self) -> usize {
        self.sent.len()
    }

    /// Number of packets whose payload is identical to the immediately
    /// preceding packet — the signature of redundant re-transmission.
    pub fn duplicate_count(&self) -> usize {
        self.sent
            .windows(2)
            .filter(|w| w[0].payload == w[1].payload)
            .count()
    }
}

/// Cost of transmitting `payload_bytes` bytes.
pub fn send_cost(table: &CostTable, payload_bytes: u64) -> Cost {
    table.radio_setup + table.radio_byte.times(payload_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_records_in_order() {
        let mut r = RadioLog::new();
        r.transmit(10, Arc::from([1, 2]));
        r.transmit(20, Arc::from([3]));
        assert_eq!(r.count(), 2);
        assert_eq!(*r.packets()[0].payload, [1, 2]);
        assert_eq!(r.packets()[1].time_us, 20);
    }

    #[test]
    fn duplicate_detection() {
        let mut r = RadioLog::new();
        let (a, b): (Arc<[i32]>, Arc<[i32]>) = (Arc::from([7, 7]), Arc::from([8, 8]));
        r.transmit(1, a.clone());
        r.transmit(2, a); // redundant re-send
        r.transmit(3, b.clone());
        r.transmit(4, b.clone()); // redundant re-send
        r.transmit(5, b); // and again
        assert_eq!(r.duplicate_count(), 3);
    }

    #[test]
    fn send_cost_scales_with_payload() {
        let t = CostTable::default();
        let small = send_cost(&t, 4);
        let big = send_cost(&t, 64);
        assert!(big.time_us > small.time_us);
        assert_eq!(big.energy_nj - small.energy_nj, t.radio_byte.energy_nj * 60);
    }
}
