//! I/O blocks and semantic precedence (paper §3.3, §4.2.1).
//!
//! An I/O block groups peripheral operations that must execute atomically
//! under one block-level re-execution semantic. The rules this module
//! implements:
//!
//! * a block has its own done-flag and timestamp in FRAM, set at
//!   `_IO_block_end` (after all inner operations completed);
//! * **scope precedence** — within nesting, the *outermost* block whose
//!   state is decisive wins: a satisfied outer block skips everything
//!   inside; a violated outer block forces everything inside to re-execute,
//!   overriding inner `Single` locks (the paper's `depend_flg` mechanism);
//! * a `Timely` block whose window has expired becomes *violated* and its
//!   done-flag is cleared so the whole block repeats.

use kernel::{ReexecSemantics, TaskId};
use mcu_emu::{
    clone_map_from, AllocTag, Counter, EnergyCause, IntMap, Mcu, PowerFailure, RawVar, Region,
    WorkKind,
};

/// State a block contributes to the precedence decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockState {
    /// The block neither skips nor forces: inner ops use their own
    /// semantics.
    Neutral,
    /// The block's semantics hold (e.g. `Single` and completed): skip every
    /// inner operation, restoring recorded outputs.
    Satisfied,
    /// The block's semantics are violated (e.g. `Timely` expired) or the
    /// block is `Always`: force every inner operation to re-execute.
    Violated,
}

/// FRAM control block of one `_IO_block`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockSlot {
    /// Block completion flag (`flag_block`).
    pub done: RawVar,
    /// Timestamp written at block end (`time_blck`).
    pub ts: RawVar,
}

/// One open block on the nesting stack (host-side mirror of the program
/// counter position; carries no charged state of its own).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpenBlock {
    /// The block's index within the task body.
    pub block: u16,
    /// Annotated semantics.
    pub sem: ReexecSemantics,
    /// Decision computed at `_IO_block_begin`.
    pub state: BlockState,
}

/// Table of block control slots plus the live nesting stack.
#[derive(Debug, Default, PartialEq)]
pub struct BlockTable {
    slots: IntMap<(TaskId, u16), BlockSlot>,
    stack: Vec<OpenBlock>,
    dirty: Vec<(TaskId, u16)>,
    /// Without a persistent timekeeper, `Timely` freshness cannot be
    /// verified across reboots and must be treated as expired.
    no_persistent_timer: bool,
}

impl Clone for BlockTable {
    fn clone(&self) -> Self {
        Self {
            slots: self.slots.clone(),
            stack: self.stack.clone(),
            dirty: self.dirty.clone(),
            no_persistent_timer: self.no_persistent_timer,
        }
    }

    /// Copies `source` into this table's buffers.
    fn clone_from(&mut self, source: &Self) {
        let Self {
            slots,
            stack,
            dirty,
            no_persistent_timer,
        } = self;
        clone_map_from(slots, &source.slots);
        stack.clone_from(&source.stack);
        dirty.clone_from(&source.dirty);
        *no_persistent_timer = source.no_persistent_timer;
    }
}

impl BlockTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Degrades `Timely` checks to always-expired (no timekeeping circuit).
    pub fn without_persistent_timer(mut self) -> Self {
        self.no_persistent_timer = true;
        self
    }

    fn ensure(&mut self, mcu: &mut Mcu, task: TaskId, block: u16) -> BlockSlot {
        *self.slots.entry((task, block)).or_insert_with(|| {
            let alloc = |mcu: &mut Mcu, width: u32| RawVar {
                addr: mcu.mem.alloc(Region::Fram, width, AllocTag::Runtime),
                width,
            };
            BlockSlot {
                done: alloc(mcu, 1),
                ts: alloc(mcu, 8),
            }
        })
    }

    /// The decision currently in force: the outermost non-neutral open
    /// block's state (scope precedence, paper §3.3.1).
    pub fn enclosing_decision(&self) -> BlockState {
        for b in &self.stack {
            if b.state != BlockState::Neutral {
                return b.state;
            }
        }
        BlockState::Neutral
    }

    /// Whether any block is open (inner ops always privatize outputs).
    pub fn in_block(&self) -> bool {
        !self.stack.is_empty()
    }

    /// `_IO_block_begin`: evaluates the block's flag/timestamp and pushes it
    /// on the nesting stack.
    pub fn begin(
        &mut self,
        mcu: &mut Mcu,
        task: TaskId,
        block: u16,
        sem: ReexecSemantics,
    ) -> Result<(), PowerFailure> {
        // Inside an already-satisfied outer block the generated code skips
        // the whole body, flag checks included.
        if self.enclosing_decision() == BlockState::Satisfied {
            self.stack.push(OpenBlock {
                block,
                sem,
                state: BlockState::Neutral,
            });
            return Ok(());
        }
        let slot = self.ensure(mcu, task, block);
        let state = match sem {
            ReexecSemantics::Always => BlockState::Violated,
            ReexecSemantics::Single => {
                let c = mcu.cost.flag_check;
                mcu.with_cause(EnergyCause::Commit, |m| m.spend(WorkKind::Overhead, c))?;
                if slot.done.load(&mcu.mem) != 0 {
                    BlockState::Satisfied
                } else {
                    BlockState::Neutral
                }
            }
            ReexecSemantics::Timely { window_us } => {
                let c = mcu.cost.flag_check;
                mcu.with_cause(EnergyCause::Commit, |m| m.spend(WorkKind::Overhead, c))?;
                if slot.done.load(&mcu.mem) != 0 {
                    let ts = mcu.with_cause(EnergyCause::Commit, |m| {
                        m.load_var(WorkKind::Overhead, slot.ts)
                    })?;
                    let now = mcu.with_cause(EnergyCause::Commit, |m| {
                        m.read_timestamp(WorkKind::Overhead)
                    })?;
                    // Without reliable elapsed time across reboots, the
                    // block is conservatively treated as expired.
                    if !self.no_persistent_timer && now.saturating_sub(ts) <= window_us {
                        BlockState::Satisfied
                    } else {
                        // Expired: the whole block must repeat. Clear the
                        // done flag so a failure mid-repeat re-enters the
                        // repeat, not a stale skip.
                        let c = mcu.cost.flag_write;
                        mcu.with_cause(EnergyCause::Commit, |m| m.spend(WorkKind::Overhead, c))?;
                        slot.done.store(&mut mcu.mem, 0);
                        mcu.stats.bump(Counter::EaseioBlockViolations);
                        BlockState::Violated
                    }
                } else {
                    BlockState::Neutral
                }
            }
        };
        self.stack.push(OpenBlock { block, sem, state });
        Ok(())
    }

    /// `_IO_block_end`: pops the innermost block; if it ran (not skipped),
    /// sets its done flag and timestamp.
    pub fn end(&mut self, mcu: &mut Mcu, task: TaskId) -> Result<(), PowerFailure> {
        let open = self
            .stack
            .pop()
            .expect("_IO_block_end without matching _IO_block_begin");
        // A block under a satisfied outer block (or itself satisfied) was
        // skipped: its flags are already in their completed state.
        if open.state == BlockState::Satisfied || self.enclosing_decision() == BlockState::Satisfied
        {
            return Ok(());
        }
        let slot = self.ensure(mcu, task, open.block);
        if let ReexecSemantics::Timely { .. } = open.sem {
            let now = mcu.with_cause(EnergyCause::Commit, |m| {
                m.read_timestamp(WorkKind::Overhead)
            })?;
            mcu.with_cause(EnergyCause::Commit, |m| {
                m.store_var(WorkKind::Overhead, slot.ts, now)
            })?;
        }
        let c = mcu.cost.flag_write;
        mcu.with_cause(EnergyCause::Commit, |m| m.spend(WorkKind::Overhead, c))?;
        slot.done.store(&mut mcu.mem, 1);
        self.dirty.push((task, open.block));
        Ok(())
    }

    /// Clears the nesting stack (power failure unwound the task body).
    pub fn reset_stack(&mut self) {
        self.stack.clear();
    }

    /// Dirty blocks belonging to `task` (commit pricing).
    pub fn dirty_for(&self, task: TaskId) -> u64 {
        self.dirty.iter().filter(|(t, _)| *t == task).count() as u64
    }

    /// Clears the done flags of `task`'s completed blocks at commit; the
    /// caller has already priced this.
    pub fn clear_task(&mut self, mcu: &mut Mcu, task: TaskId) -> u64 {
        let mut cleared = 0;
        self.dirty.retain(|(t, b)| {
            if *t == task {
                if let Some(slot) = self.slots.get(&(*t, *b)) {
                    slot.done.store(&mut mcu.mem, 0);
                }
                cleared += 1;
                false
            } else {
                true
            }
        });
        cleared
    }

    /// Number of block slots allocated (footprint reporting).
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcu_emu::Supply;

    fn mcu() -> Mcu {
        Mcu::new(Supply::continuous())
    }

    #[test]
    fn single_block_satisfied_after_completion() {
        let mut m = mcu();
        let mut t = BlockTable::new();
        let task = TaskId(0);
        t.begin(&mut m, task, 0, ReexecSemantics::Single).unwrap();
        assert_eq!(t.enclosing_decision(), BlockState::Neutral);
        t.end(&mut m, task).unwrap();
        // Re-entry (same activation, after a failure): now satisfied.
        t.begin(&mut m, task, 0, ReexecSemantics::Single).unwrap();
        assert_eq!(t.enclosing_decision(), BlockState::Satisfied);
        t.end(&mut m, task).unwrap();
    }

    #[test]
    fn timely_block_expires_into_violation() {
        let mut m = mcu();
        let mut t = BlockTable::new();
        let task = TaskId(0);
        let sem = ReexecSemantics::Timely { window_us: 100 };
        t.begin(&mut m, task, 0, sem).unwrap();
        t.end(&mut m, task).unwrap();
        // Within the window: satisfied.
        t.begin(&mut m, task, 0, sem).unwrap();
        assert_eq!(t.enclosing_decision(), BlockState::Satisfied);
        t.end(&mut m, task).unwrap();
        // Let far more than the window elapse.
        m.spend(WorkKind::App, mcu_emu::Cost::new(10_000, 0))
            .unwrap();
        t.begin(&mut m, task, 0, sem).unwrap();
        assert_eq!(t.enclosing_decision(), BlockState::Violated);
        t.end(&mut m, task).unwrap();
        // Completing the violated block re-arms it.
        t.begin(&mut m, task, 0, sem).unwrap();
        assert_eq!(t.enclosing_decision(), BlockState::Satisfied);
    }

    #[test]
    fn outermost_decision_wins() {
        // Fig. 4: a satisfied Single outer block must override a violated
        // inner block.
        let mut m = mcu();
        let mut t = BlockTable::new();
        let task = TaskId(0);
        // First pass completes both blocks.
        t.begin(&mut m, task, 0, ReexecSemantics::Single).unwrap();
        t.begin(&mut m, task, 1, ReexecSemantics::Timely { window_us: 1 })
            .unwrap();
        t.end(&mut m, task).unwrap();
        t.end(&mut m, task).unwrap();
        // Much later, re-enter: outer Single is satisfied, so the expired
        // inner Timely is never even evaluated.
        m.spend(WorkKind::App, mcu_emu::Cost::new(10_000, 0))
            .unwrap();
        t.begin(&mut m, task, 0, ReexecSemantics::Single).unwrap();
        assert_eq!(t.enclosing_decision(), BlockState::Satisfied);
        t.begin(&mut m, task, 1, ReexecSemantics::Timely { window_us: 1 })
            .unwrap();
        assert_eq!(t.enclosing_decision(), BlockState::Satisfied);
        // The inner flag state was not disturbed (no violation counted).
        assert_eq!(m.stats.counter(Counter::EaseioBlockViolations), 0);
        t.end(&mut m, task).unwrap();
        t.end(&mut m, task).unwrap();
    }

    #[test]
    fn always_block_forces_inner_ops() {
        let mut m = mcu();
        let mut t = BlockTable::new();
        t.begin(&mut m, TaskId(0), 0, ReexecSemantics::Always)
            .unwrap();
        assert_eq!(t.enclosing_decision(), BlockState::Violated);
        t.end(&mut m, TaskId(0)).unwrap();
    }

    #[test]
    fn commit_clears_block_flags() {
        let mut m = mcu();
        let mut t = BlockTable::new();
        let task = TaskId(0);
        t.begin(&mut m, task, 0, ReexecSemantics::Single).unwrap();
        t.end(&mut m, task).unwrap();
        assert_eq!(t.dirty_for(task), 1);
        t.clear_task(&mut m, task);
        // A new activation sees a fresh block.
        t.begin(&mut m, task, 0, ReexecSemantics::Single).unwrap();
        assert_eq!(t.enclosing_decision(), BlockState::Neutral);
    }

    #[test]
    fn reset_stack_on_power_failure() {
        let mut m = mcu();
        let mut t = BlockTable::new();
        t.begin(&mut m, TaskId(0), 0, ReexecSemantics::Single)
            .unwrap();
        assert!(t.in_block());
        t.reset_stack();
        assert!(!t.in_block());
        assert_eq!(t.enclosing_decision(), BlockState::Neutral);
    }
}
