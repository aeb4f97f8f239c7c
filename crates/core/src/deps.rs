//! Data-dependence tracking between I/O operations (paper §3.3.2, §4.3.1).
//!
//! If operation B consumes the output of operation A and A re-executed after
//! a reboot, B must re-execute too — otherwise memory holds A's fresh value
//! while the world saw B act on the stale one (e.g. a `Single` send that
//! never re-sends updated `Timely` sensor readings). The compiler front-end
//! wires A's `constraint_check` flag to B's `RelatedConstFlag`; here we keep
//! the equivalent: the set of call sites that physically executed during the
//! current attempt.

use mcu_emu::{clone_set_from, IntSet};

/// Execution record of the current attempt.
#[derive(Debug, Default, PartialEq)]
pub struct DepTracker {
    executed: IntSet<u16>,
}

impl Clone for DepTracker {
    fn clone(&self) -> Self {
        Self {
            executed: self.executed.clone(),
        }
    }

    /// Copies `source` into this tracker's set.
    fn clone_from(&mut self, source: &Self) {
        clone_set_from(&mut self.executed, &source.executed);
    }
}

impl DepTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that call site `site` physically executed in this attempt.
    pub fn mark_executed(&mut self, site: u16) {
        self.executed.insert(site);
    }

    /// Whether any of `deps` executed in this attempt — if so, the dependent
    /// operation must re-execute regardless of its own lock.
    pub fn any_executed(&self, deps: &[u16]) -> bool {
        deps.iter().any(|d| self.executed.contains(d))
    }

    /// Whether a specific site executed this attempt (used by DMA's
    /// `RelatedConstFlag`).
    pub fn executed(&self, site: u16) -> bool {
        self.executed.contains(&site)
    }

    /// Clears the record at attempt (re-)entry.
    pub fn reset(&mut self) {
        self.executed.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracks_executions_within_attempt() {
        let mut d = DepTracker::new();
        assert!(!d.any_executed(&[0, 1]));
        d.mark_executed(1);
        assert!(d.any_executed(&[0, 1]));
        assert!(!d.any_executed(&[0]));
        assert!(d.executed(1));
        assert!(!d.executed(0));
    }

    #[test]
    fn reset_clears_everything() {
        let mut d = DepTracker::new();
        d.mark_executed(3);
        d.reset();
        assert!(!d.executed(3));
        assert!(!d.any_executed(&[3]));
    }

    #[test]
    fn empty_dep_list_never_forces() {
        let mut d = DepTracker::new();
        d.mark_executed(0);
        assert!(!d.any_executed(&[]));
    }
}
