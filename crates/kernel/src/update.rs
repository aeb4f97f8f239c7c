//! Crash-safe over-the-air task-graph image store.
//!
//! A deployed device holds its task-graph image in FRAM as a *versioned*
//! record: a [`TaskGraphVersion`] (sequence number + content hash) over a
//! payload of graph words. An OTA update must replace that image so that a
//! power failure at **any** energy-spend boundary leaves the device on
//! exactly the old or the new version — never a torn mix (Surbatovich et
//! al.'s old-or-new correctness frame).
//!
//! [`UpdateStore`] implements the safe protocol in two phases over two FRAM
//! slots plus a single commit word:
//!
//! 1. **Stage** — write the new payload into the *shadow* slot (the one the
//!    commit word does not select), then seal its header: hash first, the
//!    sequence number last. Nothing in the active slot is touched, so a
//!    crash anywhere in this phase is invisible to recovery.
//! 2. **Flip** — a single [`Mcu::store_var`] of the commit word. The
//!    emulator pays the access cost *before* applying the store, so the
//!    word — and therefore the active version — is old-or-new atomically
//!    with respect to power failures.
//!
//! The store also provides the unsafe baseline ([`UpdateStore::
//! write_in_place`]): header first, then payload words over the live image,
//! which is how a protocol-free device would apply an update. A crash
//! mid-payload strands a header that claims the new version over a mixed
//! payload; [`UpdateStore::recover_check`] detects exactly that state by
//! re-hashing the active payload against its header and bumps the
//! `probe_version_torn` counter the crash sweep's `version_torn` invariant
//! watches.
//!
//! Every charged access runs inside a [`mcu_emu::EnergyCause::UpdateStage`]
//! attribution scope, so the energy cost of evolving the firmware shows up
//! as its own ledger entry rather than polluting runtime overhead.

use mcu_emu::{
    AllocTag, Counter, EnergyCause, Mcu, Memory, NvBuf, NvVar, PowerFailure, Region, WorkKind,
};

/// Counter bumped when recovery finds the active image incoherent (header
/// hash does not match the payload). The crash sweep's `version_torn`
/// invariant requires it to stay zero.
pub const PROBE_VERSION_TORN: Counter = Counter::ProbeVersionTorn;

/// Counter bumped when the same sequence number is activation-notified
/// twice — the observable a fleet rollout counts as a duplicate activation.
pub const PROBE_DUPLICATE_ACTIVATION: Counter = Counter::ProbeUpdateDuplicateActivation;

/// Marker counter apps bump on entering the stage→flip→activate window.
/// The update-aware sweep mode reads it from the boundary trace to select
/// injection points inside the window.
pub const UPDATE_WINDOW_ENTER: Counter = Counter::UpdateWindowEnter;

/// Marker counter apps bump after the activation step completes.
pub const UPDATE_WINDOW_EXIT: Counter = Counter::UpdateWindowExit;

/// Identity of one task-graph image: monotone sequence number plus a hash
/// binding the sequence number to the payload contents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskGraphVersion {
    /// Monotone update sequence number (higher wins).
    pub seq: u32,
    /// [`graph_hash`] of `(seq, payload)`.
    pub hash: u32,
}

/// FNV-1a over the sequence number and the payload words. Binding `seq`
/// into the hash is what catches the header-first torn state: after a
/// crash between the in-place header write and the payload words, the
/// stored hash commits to a `(seq, payload)` pair that no longer exists.
pub fn graph_hash(seq: u32, words: impl IntoIterator<Item = u32>) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    let mut mix = |w: u32| {
        for b in w.to_le_bytes() {
            h = (h ^ b as u32).wrapping_mul(0x0100_0193);
        }
    };
    mix(seq);
    for w in words {
        mix(w);
    }
    h
}

/// One image slot: header (sequence, hash, length) plus payload capacity.
#[derive(Debug, Clone, Copy)]
struct Slot {
    seq: NvVar<u32>,
    hash: NvVar<u32>,
    len: NvVar<u32>,
    payload: NvBuf<u32>,
}

impl Slot {
    fn alloc(mem: &mut Memory, capacity: u32) -> Self {
        Self {
            seq: NvVar::alloc_tagged(mem, Region::Fram, AllocTag::Runtime),
            hash: NvVar::alloc_tagged(mem, Region::Fram, AllocTag::Runtime),
            len: NvVar::alloc_tagged(mem, Region::Fram, AllocTag::Runtime),
            payload: NvBuf::alloc_tagged(mem, Region::Fram, capacity, AllocTag::Runtime),
        }
    }
}

/// The versioned task-graph image in FRAM: two slots, one commit word
/// selecting the active slot, and the activation bookkeeping word. All
/// allocations carry [`AllocTag::Runtime`], so the strict-memory sweep
/// compare (which diffs app-tagged FRAM) is not disturbed by in-flight
/// staging state.
#[derive(Debug, Clone, Copy)]
pub struct UpdateStore {
    slots: [Slot; 2],
    /// The commit word: index (0 or 1) of the active slot. Flipping this
    /// single word is the whole of phase two.
    commit: NvVar<u32>,
    /// Sequence number most recently activation-notified, for the
    /// duplicate-activation probe.
    last_activated: NvVar<u32>,
    capacity: u32,
}

impl UpdateStore {
    /// Allocates both slots with `capacity` payload words each.
    pub fn alloc(mem: &mut Memory, capacity: u32) -> Self {
        Self {
            slots: [Slot::alloc(mem, capacity), Slot::alloc(mem, capacity)],
            commit: NvVar::alloc_tagged(mem, Region::Fram, AllocTag::Runtime),
            last_activated: NvVar::alloc_tagged(mem, Region::Fram, AllocTag::Runtime),
            capacity,
        }
    }

    /// Payload capacity of each slot, in words.
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Build-time installation of the factory image into slot 0 (uncharged:
    /// this models the image the device shipped with, not a runtime write).
    pub fn install_initial(&self, mem: &mut Memory, seq: u32, payload: &[u32]) {
        assert!(
            payload.len() as u32 <= self.capacity,
            "payload exceeds slot"
        );
        let s = &self.slots[0];
        s.seq.set(mem, seq);
        s.hash.set(mem, graph_hash(seq, payload.iter().copied()));
        s.len.set(mem, payload.len() as u32);
        s.payload.fill_from(mem, payload);
        self.commit.set(mem, 0);
        self.last_activated.set(mem, seq);
    }

    /// Active version straight from memory, uncharged — for verify closures
    /// and report plumbing, not for task bodies.
    pub fn version_unchecked(&self, mem: &Memory) -> TaskGraphVersion {
        let s = &self.slots[(self.commit.get(mem) as usize) & 1];
        TaskGraphVersion {
            seq: s.seq.get(mem),
            hash: s.hash.get(mem),
        }
    }

    /// Whether the active image is coherent (header hash matches the
    /// payload), uncharged — the verify-closure twin of [`recover_check`].
    ///
    /// [`recover_check`]: UpdateStore::recover_check
    pub fn coherent_unchecked(&self, mem: &Memory) -> bool {
        let s = &self.slots[(self.commit.get(mem) as usize) & 1];
        let len = s.len.get(mem).min(self.capacity);
        let words = (0..len).map(|i| s.payload.get(mem, i));
        graph_hash(s.seq.get(mem), words) == s.hash.get(mem)
    }

    /// Charged load of the commit word: index of the active slot.
    pub fn active_slot(&self, mcu: &mut Mcu) -> Result<u32, PowerFailure> {
        let raw = mcu.with_cause(EnergyCause::UpdateStage, |m| {
            m.load_var(WorkKind::Overhead, self.commit.raw())
        })?;
        Ok((raw as u32) & 1)
    }

    /// Recovery entry point: re-hashes the active payload against its
    /// header. Any mismatch means the device rebooted into a torn image —
    /// the state the two-phase protocol makes unreachable — and bumps
    /// [`PROBE_VERSION_TORN`]. Returns the active version either way.
    ///
    /// Tasks that touch the update store call this at their top: the
    /// executor resumes the *current* task after a power failure, so the
    /// check runs on every reboot path through the update window.
    pub fn recover_check(&self, mcu: &mut Mcu) -> Result<TaskGraphVersion, PowerFailure> {
        let s = self.slots[self.active_slot(mcu)? as usize];
        mcu.with_cause(EnergyCause::UpdateStage, |m| {
            let seq = m.load_var(WorkKind::Overhead, s.seq.raw())? as u32;
            let hash = m.load_var(WorkKind::Overhead, s.hash.raw())? as u32;
            let len = (m.load_var(WorkKind::Overhead, s.len.raw())? as u32).min(self.capacity);
            let mut words = Vec::with_capacity(len as usize);
            for i in 0..len {
                words.push(m.load_var(WorkKind::Overhead, s.payload.slot(i))? as u32);
            }
            if graph_hash(seq, words) != hash {
                m.stats.bump(PROBE_VERSION_TORN);
            }
            Ok(TaskGraphVersion { seq, hash })
        })
    }

    /// Phase one, step one: open the shadow slot for staging. Invalidates
    /// the shadow header (sequence 0 never activates) and records the
    /// incoming length. Idempotent — a re-executed staging task simply
    /// starts over.
    pub fn begin_stage(&self, mcu: &mut Mcu, len: u32) -> Result<(), PowerFailure> {
        assert!(len <= self.capacity, "staged payload exceeds slot capacity");
        let s = self.slots[(self.active_slot(mcu)? as usize) ^ 1];
        mcu.with_cause(EnergyCause::UpdateStage, |m| {
            m.store_var(WorkKind::Overhead, s.seq.raw(), 0)?;
            m.store_var(WorkKind::Overhead, s.len.raw(), len as u64)
        })
    }

    /// Phase one, step two: write one chunk of payload words at `offset`
    /// into the shadow slot.
    pub fn stage_chunk(
        &self,
        mcu: &mut Mcu,
        offset: u32,
        words: &[u32],
    ) -> Result<(), PowerFailure> {
        let s = self.slots[(self.active_slot(mcu)? as usize) ^ 1];
        mcu.with_cause(EnergyCause::UpdateStage, |m| {
            for (i, &w) in words.iter().enumerate() {
                m.store_var(
                    WorkKind::Overhead,
                    s.payload.slot(offset + i as u32),
                    w as u64,
                )?;
            }
            Ok(())
        })
    }

    /// Phase one, step three: seal the shadow image. Re-reads the staged
    /// payload (charged), stores the binding hash, and stores the sequence
    /// number **last** — until that final word lands, the shadow can never
    /// win the activation comparison, so a crash anywhere inside sealing
    /// leaves the update simply "not yet staged".
    pub fn seal_stage(&self, mcu: &mut Mcu, seq: u32) -> Result<(), PowerFailure> {
        let s = self.slots[(self.active_slot(mcu)? as usize) ^ 1];
        mcu.with_cause(EnergyCause::UpdateStage, |m| {
            let len = (m.load_var(WorkKind::Overhead, s.len.raw())? as u32).min(self.capacity);
            let mut words = Vec::with_capacity(len as usize);
            for i in 0..len {
                words.push(m.load_var(WorkKind::Overhead, s.payload.slot(i))? as u32);
            }
            let hash = graph_hash(seq, words);
            m.store_var(WorkKind::Overhead, s.hash.raw(), hash as u64)?;
            m.store_var(WorkKind::Overhead, s.seq.raw(), seq as u64)
        })
    }

    /// Phase two: flip the commit word to the shadow slot iff the shadow
    /// holds a strictly newer sealed image. The flip is one word store —
    /// crash-atomic — and the guard makes re-execution after the flip a
    /// no-op, so the whole activation is idempotent. Returns whether this
    /// call performed the flip.
    pub fn activate(&self, mcu: &mut Mcu) -> Result<bool, PowerFailure> {
        let active = self.active_slot(mcu)?;
        let shadow = self.slots[(active as usize) ^ 1];
        let cur = self.slots[active as usize];
        mcu.with_cause(EnergyCause::UpdateStage, |m| {
            let staged = m.load_var(WorkKind::Overhead, shadow.seq.raw())? as u32;
            let current = m.load_var(WorkKind::Overhead, cur.seq.raw())? as u32;
            if staged <= current {
                return Ok(false);
            }
            m.store_var(WorkKind::Overhead, self.commit.raw(), (active ^ 1) as u64)?;
            Ok(true)
        })
    }

    /// Records that `seq` went live. Calling it twice for one sequence
    /// number bumps [`PROBE_DUPLICATE_ACTIVATION`] — under the two-phase
    /// protocol the [`activate`](UpdateStore::activate) guard means only
    /// the flipping execution notifies, so the counter stays zero; a
    /// protocol-free baseline re-notifies on every re-execution. Returns
    /// whether this call was the first notification.
    pub fn note_activation(&self, mcu: &mut Mcu, seq: u32) -> Result<bool, PowerFailure> {
        mcu.with_cause(EnergyCause::UpdateStage, |m| {
            let last = m.load_var(WorkKind::Overhead, self.last_activated.raw())? as u32;
            if last == seq {
                m.stats.bump(PROBE_DUPLICATE_ACTIVATION);
                return Ok(false);
            }
            m.store_var(WorkKind::Overhead, self.last_activated.raw(), seq as u64)?;
            Ok(true)
        })
    }

    /// The unsafe baseline: apply the update over the **live** image,
    /// header first, then the payload words — no shadow, no commit flip.
    /// A crash after the header but before the last payload word leaves
    /// the active image claiming the new version over mixed contents,
    /// which the next [`recover_check`](UpdateStore::recover_check)
    /// reports as torn.
    pub fn write_in_place(
        &self,
        mcu: &mut Mcu,
        seq: u32,
        payload: &[u32],
    ) -> Result<(), PowerFailure> {
        assert!(
            payload.len() as u32 <= self.capacity,
            "payload exceeds slot"
        );
        let s = self.slots[self.active_slot(mcu)? as usize];
        mcu.with_cause(EnergyCause::UpdateStage, |m| {
            let hash = graph_hash(seq, payload.iter().copied());
            m.store_var(WorkKind::Overhead, s.seq.raw(), seq as u64)?;
            m.store_var(WorkKind::Overhead, s.hash.raw(), hash as u64)?;
            m.store_var(WorkKind::Overhead, s.len.raw(), payload.len() as u64)?;
            for (i, &w) in payload.iter().enumerate() {
                m.store_var(WorkKind::Overhead, s.payload.slot(i as u32), w as u64)?;
            }
            Ok(())
        })
    }

    /// Number of FRAM variables the store allocates (for app inventories).
    pub fn nv_vars(&self) -> u32 {
        // Per slot: seq + hash + len + payload buffer; plus commit word and
        // the activation bookkeeping word.
        2 * 4 + 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcu_emu::Supply;

    fn store() -> (Mcu, UpdateStore) {
        let mut mcu = Mcu::new(Supply::continuous());
        let store = UpdateStore::alloc(&mut mcu.mem, 8);
        store.install_initial(&mut mcu.mem, 1, &[11, 22, 33, 44]);
        (mcu, store)
    }

    #[test]
    fn factory_image_is_coherent_and_versioned() {
        let (mut mcu, store) = store();
        assert!(store.coherent_unchecked(&mcu.mem));
        let v = store.recover_check(&mut mcu).unwrap();
        assert_eq!(v.seq, 1);
        assert_eq!(mcu.stats.counter(PROBE_VERSION_TORN), 0);
    }

    #[test]
    fn two_phase_update_flips_exactly_once() {
        let (mut mcu, store) = store();
        let img = [7u32, 8, 9];
        store.begin_stage(&mut mcu, img.len() as u32).unwrap();
        store.stage_chunk(&mut mcu, 0, &img).unwrap();
        store.seal_stage(&mut mcu, 2).unwrap();
        // Staging never disturbs the active image.
        assert_eq!(store.version_unchecked(&mcu.mem).seq, 1);
        assert!(store.coherent_unchecked(&mcu.mem));
        assert!(store.activate(&mut mcu).unwrap());
        assert_eq!(store.version_unchecked(&mcu.mem).seq, 2);
        assert!(store.coherent_unchecked(&mcu.mem));
        // Re-execution of the activation is a guarded no-op.
        assert!(!store.activate(&mut mcu).unwrap());
        assert!(store.note_activation(&mut mcu, 2).unwrap());
        assert!(!store.note_activation(&mut mcu, 2).unwrap());
        assert_eq!(mcu.stats.counter(PROBE_DUPLICATE_ACTIVATION), 1);
    }

    #[test]
    fn interrupted_in_place_write_is_torn_and_detected() {
        let (mut mcu, store) = store();
        // Model the crash by hand: header written, payload not.
        let s = store.slots[0];
        let img = [7u32, 8, 9];
        s.seq.set(&mut mcu.mem, 2);
        s.hash.set(&mut mcu.mem, graph_hash(2, img.iter().copied()));
        s.len.set(&mut mcu.mem, img.len() as u32);
        assert!(!store.coherent_unchecked(&mcu.mem));
        store.recover_check(&mut mcu).unwrap();
        assert_eq!(mcu.stats.counter(PROBE_VERSION_TORN), 1);
        // The completed in-place write converges back to coherence.
        store.write_in_place(&mut mcu, 2, &img).unwrap();
        assert!(store.coherent_unchecked(&mcu.mem));
    }

    #[test]
    fn staging_energy_lands_in_the_update_stage_ledger() {
        let (mut mcu, store) = store();
        let before = mcu.stats.cause_energy_nj[EnergyCause::UpdateStage.index()];
        store.begin_stage(&mut mcu, 2).unwrap();
        store.stage_chunk(&mut mcu, 0, &[5, 6]).unwrap();
        store.seal_stage(&mut mcu, 2).unwrap();
        let after = mcu.stats.cause_energy_nj[EnergyCause::UpdateStage.index()];
        assert!(after > before, "staging must charge the UpdateStage cause");
        assert!(mcu.stats.attribution_balanced());
    }

    #[test]
    fn hash_binds_the_sequence_number() {
        let img = [1u32, 2, 3];
        assert_ne!(
            graph_hash(1, img.iter().copied()),
            graph_hash(2, img.iter().copied())
        );
    }
}
