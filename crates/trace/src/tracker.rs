//! Cross-attempt activation tracking: which call sites already completed.
//!
//! The paper's Table 4 counts *redundant* re-executions: a site physically
//! executing again after it already completed in an earlier attempt of the
//! same task activation. That is an observer-side judgement (the logic
//! analyzer's view), not anything the MCU stores, so it lives here with the
//! rest of the observability machinery rather than in the kernel.

use crate::hash::{clone_map_from, FlatSet, IntMap};

/// Tracks first completions of I/O and DMA sites per task activation.
#[derive(Debug, Default, PartialEq)]
pub struct ActivationTracker {
    /// I/O sites completed in the current activations. Commit clears a
    /// task's entries, so only the in-flight task has any.
    io_done: FlatSet<(u16, u16)>,
    /// DMA sites completed in the current activations.
    dma_done: FlatSet<(u16, u16)>,
    /// Last successfully executed value per I/O site: `(value, ts_us)`.
    /// Persistent across commits — it feeds the degraded fallback path,
    /// which by definition reaches back past the current activation.
    last_io: IntMap<(u16, u16), (i32, u64)>,
}

impl Clone for ActivationTracker {
    fn clone(&self) -> Self {
        Self {
            io_done: self.io_done.clone(),
            dma_done: self.dma_done.clone(),
            last_io: self.last_io.clone(),
        }
    }

    /// Copies `source` into this tracker's buffers.
    fn clone_from(&mut self, source: &Self) {
        let Self {
            io_done,
            dma_done,
            last_io,
        } = self;
        io_done.clone_from(&source.io_done);
        dma_done.clone_from(&source.dma_done);
        clone_map_from(last_io, &source.last_io);
    }
}

impl ActivationTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that I/O site `(task, site)` executed; returns `true` on the
    /// first completion of this activation, `false` if it is redundant.
    pub fn first_io(&mut self, task: u16, site: u16) -> bool {
        self.io_done.insert((task, site))
    }

    /// Records that DMA site `(task, site)` executed; returns `true` on the
    /// first completion of this activation, `false` if it is redundant.
    pub fn first_dma(&mut self, task: u16, site: u16) -> bool {
        self.dma_done.insert((task, site))
    }

    /// Records the value and time of a successful execution of I/O site
    /// `(task, site)` — the candidate a later degraded fallback may serve.
    pub fn record_io_value(&mut self, task: u16, site: u16, value: i32, ts_us: u64) {
        self.last_io.insert((task, site), (value, ts_us));
    }

    /// The last successfully executed `(value, ts_us)` of I/O site
    /// `(task, site)`, if any. Survives commits.
    pub fn last_io_value(&self, task: u16, site: u16) -> Option<(i32, u64)> {
        self.last_io.get(&(task, site)).copied()
    }

    /// Whether `other` holds the same completions and the same last values,
    /// ignoring *when* each value was produced. The timestamps feed only
    /// the degraded `Timely` path, which marks its run as time-observing,
    /// so a run that never observes time never reads them: crash sweeps
    /// compare trackers this way to find two runs whose clocks differ but
    /// whose continuations are identical.
    pub fn same_untimed(&self, other: &Self) -> bool {
        self.io_done == other.io_done
            && self.dma_done == other.dma_done
            && self.last_io.len() == other.last_io.len()
            && self
                .last_io
                .iter()
                .all(|(k, (v, _))| other.last_io.get(k).is_some_and(|(w, _)| v == w))
    }

    /// Clears `task`'s per-activation state after it commits.
    pub fn commit(&mut self, task: u16) {
        self.io_done.retain(|(t, _)| *t != task);
        self.dma_done.retain(|(t, _)| *t != task);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn second_execution_same_activation_is_redundant() {
        let mut t = ActivationTracker::new();
        assert!(t.first_io(0, 0));
        assert!(!t.first_io(0, 0), "repeat within the activation");
        assert!(t.first_io(0, 1), "different site is fresh");
        assert!(t.first_dma(0, 0), "DMA sites are tracked separately");
    }

    #[test]
    fn commit_resets_only_that_task() {
        let mut t = ActivationTracker::new();
        t.first_io(0, 0);
        t.first_io(1, 0);
        t.commit(0);
        assert!(t.first_io(0, 0), "fresh activation after commit");
        assert!(!t.first_io(1, 0), "other task untouched");
    }

    #[test]
    fn last_values_survive_commit() {
        let mut t = ActivationTracker::new();
        assert_eq!(t.last_io_value(0, 0), None);
        t.record_io_value(0, 0, 21, 400);
        t.record_io_value(0, 0, 22, 900);
        t.commit(0);
        assert_eq!(t.last_io_value(0, 0), Some((22, 900)));
        assert_eq!(t.last_io_value(0, 1), None);
    }

    #[test]
    fn completions_compare_as_sets() {
        let mut a = ActivationTracker::new();
        a.first_io(0, 0);
        a.first_io(0, 1);
        a.first_dma(0, 2);
        a.first_dma(0, 3);
        let mut b = ActivationTracker::new();
        b.first_dma(0, 3);
        b.first_io(0, 1);
        b.first_dma(0, 2);
        b.first_io(0, 0);
        assert!(a.same_untimed(&b), "completion order must not matter");
        b.first_io(0, 4);
        assert!(!a.same_untimed(&b));
    }
}
