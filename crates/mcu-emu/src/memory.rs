//! Simulated memory map: FRAM, SRAM, and LEA-RAM.
//!
//! The MSP430FR5994 has 256 KB of non-volatile FRAM, 4 KB of volatile SRAM,
//! and a 4 KB volatile RAM dedicated to the Low Energy Accelerator (LEA).
//! The distinction that drives the entire paper is volatility: a power
//! failure clears SRAM and LEA-RAM but leaves FRAM intact, so any runtime
//! that wants forward progress must keep state in FRAM — and any peripheral
//! (DMA) that writes FRAM directly can corrupt that state if its operation
//! is blindly re-executed.

/// Memory regions of the simulated MCU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Region {
    /// 256 KB non-volatile ferroelectric RAM. Survives power failures.
    Fram,
    /// 4 KB volatile SRAM. Cleared on every reboot.
    Sram,
    /// 4 KB volatile RAM private to the LEA vector accelerator.
    LeaRam,
}

impl Region {
    /// Whether the region's contents survive a power failure.
    pub fn is_nonvolatile(self) -> bool {
        matches!(self, Region::Fram)
    }

    /// Size of the region in bytes.
    pub const fn size(self) -> usize {
        match self {
            Region::Fram => 256 * 1024,
            Region::Sram => 4 * 1024,
            Region::LeaRam => 4 * 1024,
        }
    }
}

/// An address in the simulated memory map: a region plus a byte offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Addr {
    /// Region the address points into.
    pub region: Region,
    /// Byte offset within the region.
    pub offset: u32,
}

impl Addr {
    /// Creates an address.
    pub fn new(region: Region, offset: u32) -> Self {
        Self { region, offset }
    }

    /// Returns the address advanced by `bytes`.
    #[allow(clippy::should_implement_trait)] // offset helper, not arithmetic
    pub fn add(self, bytes: u32) -> Self {
        Self {
            region: self.region,
            offset: self.offset + bytes,
        }
    }

    /// Whether the address is in non-volatile memory.
    pub fn is_nonvolatile(self) -> bool {
        self.region.is_nonvolatile()
    }
}

/// Who an allocation belongs to, for the memory-footprint report (Table 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AllocTag {
    /// Application data (buffers, non-volatile variables).
    App,
    /// Runtime metadata (lock flags, timestamps, private copies, snapshots).
    Runtime,
    /// DMA privatization buffers (reported separately in the paper).
    DmaPrivBuf,
}

/// One recorded allocation, for footprint accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocRecord {
    /// Region allocated from.
    pub region: Region,
    /// Base address of the allocation.
    pub addr: Addr,
    /// Size in bytes.
    pub bytes: u32,
    /// Owner tag.
    pub tag: AllocTag,
}

/// Granularity of copy-on-write dirty tracking: one bit per 4 KB page.
/// FRAM (256 KB) is 64 pages — exactly one `u64` of dirty bits per region.
pub const PAGE_BYTES: u32 = 4 * 1024;

/// Globally unique snapshot identities, so [`Memory::restore`] can tell
/// whether its dirty map is relative to the snapshot being restored (cheap
/// page-wise copy) or to some other baseline (full copy required).
static SNAPSHOT_IDS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);

/// An immutable byte-level image of the memory map, shared by every run
/// restored from the same snapshot. Plain owned data: `Send + Sync`, so a
/// parallel sweep can hand one image to every worker behind an `Arc`
/// instead of deep-copying 264 KB per boundary.
#[derive(Debug, Clone)]
pub struct MemSnapshot {
    id: u64,
    fram: Vec<u8>,
    sram: Vec<u8>,
    lea_ram: Vec<u8>,
    next: [u32; 3],
    allocs: Vec<AllocRecord>,
}

/// The memory map expressed against a root [`MemSnapshot`]: only the pages
/// whose bytes differ from the root, plus the allocator state. A crash
/// sweep keeps one per task-attempt start of its reference run, so a
/// checkpoint costs the pages the run has changed, not a 264 KB image.
#[derive(Debug, Clone)]
pub struct MemDelta {
    /// Identity of the root snapshot the pages are relative to.
    root: u64,
    /// `(region index, page, bytes)` of every page differing from the
    /// root, in region-then-page order.
    pages: Vec<(usize, u32, Box<[u8]>)>,
    next: [u32; 3],
    allocs: Vec<AllocRecord>,
}

impl MemDelta {
    /// Number of pages that differ from the root.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }
}

const REGIONS: [Region; 3] = [Region::Fram, Region::Sram, Region::LeaRam];

/// The simulated memory: three byte arrays plus bump allocators.
///
/// Writes additionally mark 4 KB pages dirty relative to the last snapshot
/// taken from this instance, which is what makes snapshot restore
/// copy-on-write: restoring copies back only the pages written since.
#[derive(Debug, Clone)]
pub struct Memory {
    fram: Vec<u8>,
    sram: Vec<u8>,
    lea_ram: Vec<u8>,
    next: [u32; 3],
    allocs: Vec<AllocRecord>,
    /// Identity of the snapshot the dirty map is relative to, if any.
    base: Option<u64>,
    /// One dirty bit per [`PAGE_BYTES`] page, per region.
    dirty: [u64; 3],
    /// Program writes to FRAM so far (see [`Memory::fram_writes`]).
    fram_writes: u64,
}

impl Default for Memory {
    fn default() -> Self {
        Self::new()
    }
}

impl Memory {
    /// Creates zeroed memory.
    pub fn new() -> Self {
        Self {
            fram: vec![0; Region::Fram.size()],
            sram: vec![0; Region::Sram.size()],
            lea_ram: vec![0; Region::LeaRam.size()],
            next: [0; 3],
            allocs: Vec::new(),
            base: None,
            dirty: [0; 3],
            fram_writes: 0,
        }
    }

    #[inline]
    fn idx(region: Region) -> usize {
        match region {
            Region::Fram => 0,
            Region::Sram => 1,
            Region::LeaRam => 2,
        }
    }

    #[inline]
    fn slab(&self, region: Region) -> &[u8] {
        match region {
            Region::Fram => &self.fram,
            Region::Sram => &self.sram,
            Region::LeaRam => &self.lea_ram,
        }
    }

    #[inline]
    fn slab_mut(&mut self, region: Region) -> &mut [u8] {
        match region {
            Region::Fram => &mut self.fram,
            Region::Sram => &mut self.sram,
            Region::LeaRam => &mut self.lea_ram,
        }
    }

    /// Marks the pages covering `[offset, offset + len)` dirty.
    ///
    /// The dirty map is one `u64` per region — 64 pages covers exactly the
    /// largest region (256 KB FRAM). A span past the region end would shift
    /// past bit 63: in release builds `1u64 << page` wraps silently and
    /// dirties the *wrong* page, so a later copy-on-write [`Memory::restore`]
    /// could hand back stale bytes for the page that was actually written.
    /// Debug builds assert on the bad span; release builds conservatively
    /// mark every page dirty, which degrades that restore to a full copy but
    /// can never restore stale data.
    #[inline]
    fn mark_dirty(&mut self, region: Region, offset: u32, len: u32) {
        if len == 0 {
            return;
        }
        debug_assert!(
            offset as u64 + len as u64 <= region.size() as u64,
            "mark_dirty out of range in {region:?}: offset {offset} + len {len} > {}",
            region.size()
        );
        let first = (offset / PAGE_BYTES) as u64;
        let last = (offset as u64 + len as u64 - 1) / PAGE_BYTES as u64;
        let i = Self::idx(region);
        if region == Region::Fram {
            self.fram_writes += 1;
        }
        if last >= u64::BITS as u64 {
            self.dirty[i] = !0;
            return;
        }
        for page in first..=last {
            self.dirty[i] |= 1u64 << page;
        }
    }

    /// Number of program writes to FRAM so far: every `write_bytes` or
    /// `copy` into FRAM counts one, whatever layer issued it. A monotone
    /// host-side counter, not machine state — snapshot and restore leave it
    /// alone — so only differences between two readings mean anything: the
    /// boundary recorder uses them to tell whether non-volatile state may
    /// have changed between two spend calls.
    pub fn fram_writes(&self) -> u64 {
        self.fram_writes
    }

    /// Pages of `region` written since the last snapshot (one bit per
    /// [`PAGE_BYTES`] page). Exposed for the copy-on-write property tests.
    pub fn dirty_pages(&self, region: Region) -> u64 {
        self.dirty[Self::idx(region)]
    }

    /// Bump-allocates `bytes` bytes in `region`, 2-byte aligned (the MSP430
    /// word size), recording the allocation under `tag` for the footprint
    /// report. Panics if the region is exhausted — the simulated part has
    /// hard limits, exactly like the real one.
    pub fn alloc(&mut self, region: Region, bytes: u32, tag: AllocTag) -> Addr {
        let i = Self::idx(region);
        let aligned = (self.next[i] + 1) & !1;
        let end = aligned
            .checked_add(bytes)
            .expect("allocation size overflow");
        assert!(
            end as usize <= region.size(),
            "out of memory in {region:?}: requested {bytes} B at offset {aligned}"
        );
        self.next[i] = end;
        let addr = Addr::new(region, aligned);
        self.allocs.push(AllocRecord {
            region,
            addr,
            bytes,
            tag,
        });
        addr
    }

    /// Bytes currently allocated in `region`.
    pub fn allocated(&self, region: Region) -> u32 {
        self.next[Self::idx(region)]
    }

    /// Bytes allocated in `region` under `tag`.
    pub fn allocated_tagged(&self, region: Region, tag: AllocTag) -> u32 {
        self.allocs
            .iter()
            .filter(|a| a.region == region && a.tag == tag)
            .map(|a| a.bytes)
            .sum()
    }

    /// All allocation records (for footprint reporting).
    pub fn allocations(&self) -> &[AllocRecord] {
        &self.allocs
    }

    /// Byte ranges allocated in `region` under `tag`, as `(addr, len)`
    /// pairs. A crash sweep uses this to compare the application-visible
    /// non-volatile state of two runs without touching runtime metadata.
    pub fn tagged_ranges(
        &self,
        region: Region,
        tag: AllocTag,
    ) -> impl Iterator<Item = (Addr, u32)> + '_ {
        self.allocs
            .iter()
            .filter(move |a| a.region == region && a.tag == tag)
            .map(|a| (a.addr, a.bytes))
    }

    /// Reads `len` bytes starting at `addr`.
    #[inline]
    pub fn read_bytes(&self, addr: Addr, len: u32) -> &[u8] {
        let s = self.slab(addr.region);
        &s[addr.offset as usize..(addr.offset + len) as usize]
    }

    /// Writes `data` starting at `addr`.
    #[inline]
    pub fn write_bytes(&mut self, addr: Addr, data: &[u8]) {
        self.mark_dirty(addr.region, addr.offset, data.len() as u32);
        let off = addr.offset as usize;
        let s = self.slab_mut(addr.region);
        s[off..off + data.len()].copy_from_slice(data);
    }

    /// Copies `len` bytes from `src` to `dst`, possibly across regions.
    ///
    /// This is the raw memory effect of a DMA transfer: it does *not* pass
    /// through any runtime privatization layer.
    ///
    /// Overlapping spans within one region behave like `memmove`: the
    /// destination receives the source bytes as they were before the copy.
    pub fn copy(&mut self, src: Addr, dst: Addr, len: u32) {
        let (s, d, n) = (src.offset as usize, dst.offset as usize, len as usize);
        if src.region == dst.region {
            self.slab_mut(src.region).copy_within(s..s + n, d);
        } else {
            let (from, to) = self.slab_pair(src.region, dst.region);
            to[d..d + n].copy_from_slice(&from[s..s + n]);
        }
        self.mark_dirty(dst.region, dst.offset, len);
    }

    /// Borrows the slab of `src` shared and the slab of `dst` mutably; the
    /// two regions must differ.
    fn slab_pair(&mut self, src: Region, dst: Region) -> (&[u8], &mut [u8]) {
        let Self {
            fram,
            sram,
            lea_ram,
            ..
        } = self;
        match (src, dst) {
            (Region::Fram, Region::Sram) => (fram, sram),
            (Region::Fram, Region::LeaRam) => (fram, lea_ram),
            (Region::Sram, Region::Fram) => (sram, fram),
            (Region::Sram, Region::LeaRam) => (sram, lea_ram),
            (Region::LeaRam, Region::Fram) => (lea_ram, fram),
            (Region::LeaRam, Region::Sram) => (lea_ram, sram),
            _ => unreachable!("same-region copies go through copy_within"),
        }
    }

    /// Returns to the blank memory [`Memory::new`] makes — every region
    /// zero, no allocations, no snapshot base — keeping the buffers. With
    /// no base the dirty map is relative to that blank image, so only the
    /// pages written since are zeroed; after a snapshot or restore, all of
    /// them are. The FRAM write counter keeps counting (it is host-side
    /// and only its differences mean anything).
    pub fn reset(&mut self) {
        if self.base.is_some() {
            self.fram.fill(0);
            self.sram.fill(0);
            self.lea_ram.fill(0);
        } else {
            for (i, &region) in REGIONS.iter().enumerate() {
                let mut bits = self.dirty[i];
                while bits != 0 {
                    let page = bits.trailing_zeros();
                    bits &= bits - 1;
                    self.slab_mut(region)[page_span(region, page)].fill(0);
                }
            }
        }
        self.next = [0; 3];
        self.allocs.clear();
        self.base = None;
        self.dirty = [0; 3];
    }

    /// Clears all volatile regions; called on reboot. FRAM persists.
    pub fn power_failure(&mut self) {
        self.mark_dirty(Region::Sram, 0, Region::Sram.size() as u32);
        self.mark_dirty(Region::LeaRam, 0, Region::LeaRam.size() as u32);
        self.sram.fill(0);
        self.lea_ram.fill(0);
    }

    /// Captures a full image of the memory map and re-bases the dirty map on
    /// it, so a later [`Memory::restore`] of this snapshot copies back only
    /// the pages written in between.
    pub fn snapshot(&mut self) -> MemSnapshot {
        let id = SNAPSHOT_IDS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.base = Some(id);
        self.dirty = [0; 3];
        MemSnapshot {
            id,
            fram: self.fram.clone(),
            sram: self.sram.clone(),
            lea_ram: self.lea_ram.clone(),
            next: self.next,
            allocs: self.allocs.clone(),
        }
    }

    /// Restores a snapshot. When the dirty map is relative to `snap` (the
    /// common sweep pattern: snapshot once, restore per boundary) only the
    /// dirty pages are copied — the cost of a restore is proportional to the
    /// bytes the run actually wrote, not to the 264 KB memory map. Restoring
    /// a snapshot this instance is not based on falls back to a full copy
    /// and re-bases on it.
    pub fn restore(&mut self, snap: &MemSnapshot) {
        if self.base == Some(snap.id) {
            for (region, src) in [
                (Region::Fram, &snap.fram),
                (Region::Sram, &snap.sram),
                (Region::LeaRam, &snap.lea_ram),
            ] {
                let i = Self::idx(region);
                let mut bits = self.dirty[i];
                while bits != 0 {
                    let page = bits.trailing_zeros();
                    bits &= bits - 1;
                    let span = page_span(region, page);
                    self.slab_mut(region)[span.clone()].copy_from_slice(&src[span]);
                }
            }
        } else {
            self.fram.copy_from_slice(&snap.fram);
            self.sram.copy_from_slice(&snap.sram);
            self.lea_ram.copy_from_slice(&snap.lea_ram);
            self.base = Some(snap.id);
        }
        self.dirty = [0; 3];
        self.next = snap.next;
        self.allocs.clone_from(&snap.allocs);
    }

    /// Captures this memory as a delta against `root`, which must be the
    /// snapshot the dirty map is relative to: a page not written since
    /// cannot differ from it. Dirty pages whose bytes equal the root's are
    /// left out, so equal memories give equal deltas.
    pub fn delta(&self, root: &MemSnapshot) -> MemDelta {
        assert_eq!(self.base, Some(root.id), "delta against a foreign root");
        let mut pages = Vec::new();
        for (i, &region) in REGIONS.iter().enumerate() {
            let (now, was) = (self.slab(region), root.slab(i));
            let mut bits = self.dirty[i];
            while bits != 0 {
                let page = bits.trailing_zeros();
                bits &= bits - 1;
                let span = page_span(region, page);
                if now[span.clone()] != was[span.clone()] {
                    pages.push((i, page, now[span].into()));
                }
            }
        }
        MemDelta {
            root: root.id,
            pages,
            next: self.next,
            allocs: self.allocs.clone(),
        }
    }

    /// Restores `root` with `delta` applied on top. The delta's pages stay
    /// marked dirty relative to `root`, so the next restore of `root`, or
    /// of any delta against it, is still page-wise copy-on-write.
    pub fn restore_delta(&mut self, root: &MemSnapshot, delta: &MemDelta) {
        assert_eq!(delta.root, root.id, "delta restored over a foreign root");
        self.restore(root);
        for (i, page, bytes) in &delta.pages {
            let span = page_span(REGIONS[*i], *page);
            self.slab_mut(REGIONS[*i])[span].copy_from_slice(bytes);
            self.dirty[*i] |= 1u64 << page;
        }
        self.next = delta.next;
        self.allocs.clone_from(&delta.allocs);
    }

    /// Whether this memory equals `root` with `delta` applied: every byte
    /// of all three regions, the allocator cursors and the allocation
    /// records. Only pages dirty on either side are compared; every other
    /// page equals the root on both.
    pub fn matches_delta(&self, root: &MemSnapshot, delta: &MemDelta) -> bool {
        assert_eq!(self.base, Some(root.id), "compare against a foreign root");
        assert_eq!(delta.root, root.id, "delta of a foreign root");
        if self.next != delta.next || self.allocs != delta.allocs {
            return false;
        }
        for (i, &region) in REGIONS.iter().enumerate() {
            let lo = delta.pages.partition_point(|p| p.0 < i);
            let hi = delta.pages.partition_point(|p| p.0 <= i);
            let theirs = &delta.pages[lo..hi];
            let mut bits = theirs
                .iter()
                .fold(self.dirty[i], |bits, p| bits | 1u64 << p.1);
            while bits != 0 {
                let page = bits.trailing_zeros();
                bits &= bits - 1;
                let span = page_span(region, page);
                let expected = match theirs.binary_search_by_key(&page, |p| p.1) {
                    Ok(k) => &theirs[k].2[..],
                    Err(_) => &root.slab(i)[span.clone()],
                };
                if self.slab(region)[span] != *expected {
                    return false;
                }
            }
        }
        true
    }
}

/// Byte range of `page` within `region`.
fn page_span(region: Region, page: u32) -> std::ops::Range<usize> {
    let lo = (page * PAGE_BYTES) as usize;
    lo..(lo + PAGE_BYTES as usize).min(region.size())
}

impl MemSnapshot {
    /// The image of region number `i` (in [`REGIONS`] order).
    fn slab(&self, i: usize) -> &[u8] {
        match REGIONS[i] {
            Region::Fram => &self.fram,
            Region::Sram => &self.sram,
            Region::LeaRam => &self.lea_ram,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn volatility_matches_hardware() {
        assert!(Region::Fram.is_nonvolatile());
        assert!(!Region::Sram.is_nonvolatile());
        assert!(!Region::LeaRam.is_nonvolatile());
    }

    #[test]
    fn alloc_is_word_aligned_and_tracked() {
        let mut m = Memory::new();
        let a = m.alloc(Region::Fram, 3, AllocTag::App);
        let b = m.alloc(Region::Fram, 4, AllocTag::Runtime);
        assert_eq!(a.offset % 2, 0);
        assert_eq!(b.offset % 2, 0);
        assert!(b.offset >= a.offset + 3);
        assert_eq!(m.allocated_tagged(Region::Fram, AllocTag::App), 3);
        assert_eq!(m.allocated_tagged(Region::Fram, AllocTag::Runtime), 4);
    }

    #[test]
    #[should_panic(expected = "out of memory")]
    fn alloc_panics_when_region_exhausted() {
        let mut m = Memory::new();
        m.alloc(Region::Sram, 4 * 1024 + 2, AllocTag::App);
    }

    /// Reset zeroes every written byte whether or not the memory has a
    /// snapshot base (without one it walks only the dirty pages).
    #[test]
    fn reset_returns_to_blank_memory_with_or_without_a_base() {
        for based in [false, true] {
            let mut m = Memory::new();
            let a = m.alloc(Region::Fram, 8, AllocTag::App);
            m.write_bytes(a, &[7; 8]);
            if based {
                m.snapshot();
            }
            m.write_bytes(Addr::new(Region::Fram, 200_000), &[9; 4]);
            m.write_bytes(Addr::new(Region::LeaRam, 100), &[3; 2]);
            m.reset();
            for region in REGIONS {
                let all = m.read_bytes(Addr::new(region, 0), region.size() as u32);
                assert!(all.iter().all(|&b| b == 0), "{region:?} (based: {based})");
            }
            assert!(m.allocations().is_empty());
            assert_eq!(m.allocated(Region::Fram), 0);
            assert_eq!(m.dirty_pages(Region::Fram), 0);
            assert_eq!(m.alloc(Region::Fram, 8, AllocTag::App), a);
        }
    }

    #[test]
    fn read_write_roundtrip() {
        let mut m = Memory::new();
        let a = m.alloc(Region::Fram, 8, AllocTag::App);
        m.write_bytes(a, &[1, 2, 3, 4]);
        assert_eq!(m.read_bytes(a, 4), &[1, 2, 3, 4]);
    }

    #[test]
    fn copy_across_regions() {
        let mut m = Memory::new();
        let src = m.alloc(Region::Fram, 4, AllocTag::App);
        let dst = m.alloc(Region::Sram, 4, AllocTag::App);
        m.write_bytes(src, &[9, 8, 7, 6]);
        m.copy(src, dst, 4);
        assert_eq!(m.read_bytes(dst, 4), &[9, 8, 7, 6]);
    }

    #[test]
    fn power_failure_clears_only_volatile_memory() {
        let mut m = Memory::new();
        let f = m.alloc(Region::Fram, 2, AllocTag::App);
        let s = m.alloc(Region::Sram, 2, AllocTag::App);
        let l = m.alloc(Region::LeaRam, 2, AllocTag::App);
        m.write_bytes(f, &[0xAA, 0xBB]);
        m.write_bytes(s, &[0xCC, 0xDD]);
        m.write_bytes(l, &[0xEE, 0xFF]);
        m.power_failure();
        assert_eq!(m.read_bytes(f, 2), &[0xAA, 0xBB]);
        assert_eq!(m.read_bytes(s, 2), &[0, 0]);
        assert_eq!(m.read_bytes(l, 2), &[0, 0]);
    }

    #[test]
    fn restore_after_snapshot_copies_only_dirty_pages_back() {
        let mut m = Memory::new();
        let a = m.alloc(Region::Fram, 8, AllocTag::App);
        m.write_bytes(a, &[1; 8]);
        let snap = m.snapshot();
        assert_eq!(m.dirty_pages(Region::Fram), 0, "snapshot re-bases tracking");
        // Write into two far-apart FRAM pages plus SRAM.
        let far = Addr::new(Region::Fram, 40 * PAGE_BYTES + 12);
        m.write_bytes(a, &[9; 8]);
        m.write_bytes(far, &[7; 3]);
        let s = m.alloc(Region::Sram, 2, AllocTag::App);
        m.write_bytes(s, &[5, 5]);
        assert_eq!(m.dirty_pages(Region::Fram), 1 | (1 << 40));
        assert_eq!(m.dirty_pages(Region::Sram), 1);
        m.restore(&snap);
        assert_eq!(m.read_bytes(a, 8), &[1; 8]);
        assert_eq!(m.read_bytes(far, 3), &[0; 3]);
        assert_eq!(m.dirty_pages(Region::Fram), 0);
        assert_eq!(m.allocated(Region::Sram), 0, "allocator cursor restored");
    }

    #[test]
    fn restoring_a_foreign_snapshot_falls_back_to_full_copy() {
        // Snapshot taken on one Memory, restored into another instance that
        // never saw it — the pattern of a parallel sweep worker adopting the
        // main thread's shared image.
        let mut a = Memory::new();
        let va = a.alloc(Region::Fram, 4, AllocTag::App);
        a.write_bytes(va, &[3, 1, 4, 1]);
        let snap = a.snapshot();

        let mut b = Memory::new();
        let vb = b.alloc(Region::Fram, 4, AllocTag::App);
        b.write_bytes(vb, &[9, 9, 9, 9]);
        b.restore(&snap);
        assert_eq!(b.read_bytes(va, 4), &[3, 1, 4, 1]);
        // And from then on the worker's restores are page-wise.
        b.write_bytes(va, &[8; 4]);
        b.restore(&snap);
        assert_eq!(b.read_bytes(va, 4), &[3, 1, 4, 1]);
    }

    #[test]
    fn write_spanning_a_page_boundary_dirties_both_pages() {
        let mut m = Memory::new();
        m.snapshot();
        let edge = Addr::new(Region::Fram, PAGE_BYTES - 2);
        m.write_bytes(edge, &[1, 2, 3, 4]);
        assert_eq!(m.dirty_pages(Region::Fram), 0b11);
    }

    /// Regression: the last FRAM page is bit 63 — the edge where an
    /// off-by-one in the span arithmetic would wrap the shift in release
    /// builds and dirty page 0 instead, breaking copy-on-write restore.
    #[test]
    fn dirtying_the_final_page_sets_the_top_bit_without_wrapping() {
        let mut m = Memory::new();
        let snap = m.snapshot();
        let edge = Addr::new(Region::Fram, Region::Fram.size() as u32 - 2);
        m.write_bytes(edge, &[0xA5, 0x5A]);
        assert_eq!(m.dirty_pages(Region::Fram), 1 << 63);
        m.restore(&snap);
        assert_eq!(m.read_bytes(edge, 2), &[0, 0], "edge write must roll back");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "mark_dirty out of range")]
    fn out_of_range_dirty_span_is_caught_in_debug() {
        let mut m = Memory::new();
        m.mark_dirty(Region::Fram, Region::Fram.size() as u32 - 2, 4);
    }

    #[test]
    fn power_failure_dirties_volatile_regions() {
        let mut m = Memory::new();
        let snap = m.snapshot();
        let s = m.alloc(Region::Sram, 2, AllocTag::App);
        m.write_bytes(s, &[1, 2]);
        m.power_failure();
        assert_eq!(m.dirty_pages(Region::Sram), 1);
        assert_eq!(m.dirty_pages(Region::LeaRam), 1);
        m.restore(&snap);
        assert_eq!(m.read_bytes(Addr::new(Region::Sram, 0), 2), &[0, 0]);
    }

    /// `copy` against the allocating memmove it replaced: read the source
    /// into a buffer, then write it out. Bytes and dirty pages must match for
    /// overlapping copies in both directions, page-crossing spans and every
    /// cross-region pair.
    #[test]
    fn copy_matches_buffered_memmove() {
        let fram = |o| Addr::new(Region::Fram, o);
        let sram = |o| Addr::new(Region::Sram, o);
        let lea = |o| Addr::new(Region::LeaRam, o);
        let cases = [
            (fram(100), fram(103), 64),
            (fram(103), fram(100), 64),
            (fram(PAGE_BYTES - 10), fram(PAGE_BYTES - 4), 40),
            (fram(3 * PAGE_BYTES + 8), fram(3 * PAGE_BYTES - 8), 30),
            (fram(7), fram(7), 12),
            (fram(PAGE_BYTES - 6), sram(5), 20),
            (sram(9), fram(PAGE_BYTES - 2), 8),
            (sram(1), lea(2), 33),
            (lea(40), sram(0), 16),
            (lea(0), fram(2 * PAGE_BYTES - 1), 4),
            (fram(0), lea(100), 0),
        ];
        let mut got = Memory::new();
        for region in [Region::Fram, Region::Sram, Region::LeaRam] {
            let pattern: Vec<u8> = (0..region.size()).map(|i| (i * 7 % 251) as u8).collect();
            got.write_bytes(Addr::new(region, 0), &pattern);
        }
        let snap = got.snapshot();
        let mut want = got.clone();
        for (src, dst, len) in cases {
            got.restore(&snap);
            want.restore(&snap);
            got.copy(src, dst, len);
            let buffered = want.read_bytes(src, len).to_vec();
            want.write_bytes(dst, &buffered);
            for region in [Region::Fram, Region::Sram, Region::LeaRam] {
                let whole = Addr::new(region, 0);
                let size = region.size() as u32;
                assert_eq!(got.read_bytes(whole, size), want.read_bytes(whole, size));
                assert_eq!(got.dirty_pages(region), want.dirty_pages(region));
            }
        }
    }

    /// A delta holds only the pages that differ from its root, restores
    /// over any state of a machine based on that root, and compares equal
    /// exactly when every byte, cursor and allocation record does.
    #[test]
    fn delta_round_trips_against_its_root() {
        let mut m = Memory::new();
        let f = m.alloc(Region::Fram, 8, AllocTag::App);
        let root = m.snapshot();
        // Written back to the root's bytes: dirty, but no difference.
        m.write_bytes(f, &[0; 8]);
        let far = Addr::new(Region::Fram, 20 * PAGE_BYTES);
        m.write_bytes(far, &[3; 4]);
        let s = m.alloc(Region::Sram, 2, AllocTag::Runtime);
        m.write_bytes(s, &[9, 9]);
        let delta = m.delta(&root);
        assert_eq!(delta.page_count(), 2, "FRAM page 20 and SRAM page 0");
        assert!(m.matches_delta(&root, &delta));

        // Diverge in every way the compare must see, one at a time.
        let diverge: [&dyn Fn(&mut Memory); 4] = [
            &|m| m.write_bytes(far, &[4]),
            &|m| m.write_bytes(Addr::new(Region::LeaRam, 100), &[1]),
            &|m| m.power_failure(),
            &|m| {
                m.alloc(Region::Fram, 2, AllocTag::Runtime);
            },
        ];
        for d in diverge {
            m.restore_delta(&root, &delta);
            assert!(m.matches_delta(&root, &delta));
            d(&mut m);
            assert!(!m.matches_delta(&root, &delta));
        }
        m.restore_delta(&root, &delta);
        assert_eq!(m.read_bytes(far, 4), &[3; 4]);
        assert_eq!(m.read_bytes(s, 2), &[9, 9]);
        assert_eq!(m.allocated(Region::Sram), 2);
        // The delta's pages stay dirty, so restoring the root copies them
        // back page-wise.
        assert_eq!(m.dirty_pages(Region::Fram), 1 << 20);
        m.restore(&root);
        assert_eq!(m.read_bytes(far, 4), &[0; 4]);
        assert_eq!(m.delta(&root).page_count(), 0);
    }

    #[test]
    fn overlapping_copy_within_region_uses_snapshot() {
        let mut m = Memory::new();
        let a = m.alloc(Region::Fram, 8, AllocTag::App);
        m.write_bytes(a, &[1, 2, 3, 4, 5, 6, 7, 8]);
        // Copy the first four bytes over bytes 2..6; a memmove-like result.
        m.copy(a, a.add(2), 4);
        assert_eq!(m.read_bytes(a, 8), &[1, 2, 1, 2, 3, 4, 7, 8]);
    }
}
