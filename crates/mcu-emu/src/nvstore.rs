//! Typed variable handles over simulated memory.
//!
//! Task code manipulates named scalar variables and buffers. A handle is a
//! `Copy` value (region + offset + width) so application closures can capture
//! it cheaply; the actual bytes live in the simulated [`Memory`]. Runtimes
//! intercept accesses through these handles to implement privatization, so
//! the handle layer is deliberately thin and carries no policy.

use crate::memory::{Addr, AllocTag, Memory, Region};
use std::marker::PhantomData;

/// Scalar types storable in a variable slot (at most 8 bytes, little-endian).
pub trait Scalar: Copy + PartialEq + std::fmt::Debug {
    /// Width in bytes.
    const WIDTH: u32;
    /// Encodes the value into up to 8 little-endian bytes.
    fn to_raw(self) -> u64;
    /// Decodes the value from its raw little-endian representation.
    fn from_raw(raw: u64) -> Self;
}

macro_rules! impl_scalar {
    ($($t:ty => $w:expr),* $(,)?) => {$(
        impl Scalar for $t {
            const WIDTH: u32 = $w;
            fn to_raw(self) -> u64 {
                // Sign bits beyond WIDTH are masked off so the raw form is
                // exactly what the little-endian memory bytes would hold.
                (self as u64) & (u64::MAX >> (64 - 8 * $w))
            }
            fn from_raw(raw: u64) -> Self {
                raw as $t
            }
        }
    )*};
}

impl_scalar! {
    u8 => 1, i8 => 1,
    u16 => 2, i16 => 2,
    u32 => 4, i32 => 4,
}

impl Scalar for u64 {
    const WIDTH: u32 = 8;
    fn to_raw(self) -> u64 {
        self
    }
    fn from_raw(raw: u64) -> Self {
        raw
    }
}

impl Scalar for i64 {
    const WIDTH: u32 = 8;
    fn to_raw(self) -> u64 {
        self as u64
    }
    fn from_raw(raw: u64) -> Self {
        raw as i64
    }
}

/// An untyped view of a variable slot: address plus width.
///
/// Runtimes operate on raw variables so a single privatization mechanism
/// covers every scalar type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RawVar {
    /// Location of the slot.
    pub addr: Addr,
    /// Width in bytes (1, 2, 4, or 8).
    pub width: u32,
}

impl RawVar {
    /// Loads the raw value from memory (no cost accounting; callers charge).
    #[inline]
    pub fn load(&self, mem: &Memory) -> u64 {
        let bytes = mem.read_bytes(self.addr, self.width);
        let mut raw = 0u64;
        for (i, b) in bytes.iter().enumerate() {
            raw |= (*b as u64) << (8 * i);
        }
        raw
    }

    /// Stores the raw value to memory (no cost accounting; callers charge).
    /// Each slot width gets a fixed-length copy, so a store is a few moves
    /// rather than a call to `memcpy`.
    #[inline]
    pub fn store(&self, mem: &mut Memory, raw: u64) {
        let bytes = raw.to_le_bytes();
        match self.width {
            1 => mem.write_bytes(self.addr, &bytes[..1]),
            2 => mem.write_bytes(self.addr, &bytes[..2]),
            4 => mem.write_bytes(self.addr, &bytes[..4]),
            8 => mem.write_bytes(self.addr, &bytes),
            w => mem.write_bytes(self.addr, &bytes[..w as usize]),
        }
    }

    /// Number of 16-bit words the slot occupies (for cost accounting).
    pub fn words(&self) -> u64 {
        (self.width as u64).div_ceil(2)
    }
}

/// A typed handle to a single scalar variable.
#[derive(Debug, PartialEq, Eq, Hash)]
pub struct NvVar<T: Scalar> {
    raw: RawVar,
    _t: PhantomData<T>,
}

// Manual impls: `derive` would bound them on `T: Clone/Copy`, which is
// unnecessary for a handle.
impl<T: Scalar> Clone for NvVar<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T: Scalar> Copy for NvVar<T> {}

impl<T: Scalar> NvVar<T> {
    /// Allocates a variable in `region` tagged as application data.
    pub fn alloc(mem: &mut Memory, region: Region) -> Self {
        Self::alloc_tagged(mem, region, AllocTag::App)
    }

    /// Allocates a variable with an explicit footprint tag.
    pub fn alloc_tagged(mem: &mut Memory, region: Region, tag: AllocTag) -> Self {
        let addr = mem.alloc(region, T::WIDTH, tag);
        Self {
            raw: RawVar {
                addr,
                width: T::WIDTH,
            },
            _t: PhantomData,
        }
    }

    /// The untyped view used by runtimes.
    pub fn raw(&self) -> RawVar {
        self.raw
    }

    /// The variable's address.
    pub fn addr(&self) -> Addr {
        self.raw.addr
    }

    /// Direct load bypassing any runtime (setup / verification only).
    pub fn get(&self, mem: &Memory) -> T {
        T::from_raw(self.raw.load(mem))
    }

    /// Direct store bypassing any runtime (setup / verification only).
    pub fn set(&self, mem: &mut Memory, v: T) {
        self.raw.store(mem, v.to_raw());
    }
}

/// A typed handle to a contiguous array of scalars.
#[derive(Debug, PartialEq, Eq, Hash)]
pub struct NvBuf<T: Scalar> {
    base: Addr,
    len: u32,
    _t: PhantomData<T>,
}

impl<T: Scalar> Clone for NvBuf<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T: Scalar> Copy for NvBuf<T> {}

impl<T: Scalar> NvBuf<T> {
    /// Allocates a buffer of `len` elements tagged as application data.
    pub fn alloc(mem: &mut Memory, region: Region, len: u32) -> Self {
        Self::alloc_tagged(mem, region, len, AllocTag::App)
    }

    /// Allocates a buffer with an explicit footprint tag.
    pub fn alloc_tagged(mem: &mut Memory, region: Region, len: u32, tag: AllocTag) -> Self {
        let base = mem.alloc(region, len * T::WIDTH, tag);
        Self {
            base,
            len,
            _t: PhantomData,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> u32 {
        self.len
    }

    /// Whether the buffer has zero elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Base address of the buffer.
    pub fn addr(&self) -> Addr {
        self.base
    }

    /// Size of the buffer in bytes.
    pub fn bytes(&self) -> u32 {
        self.len * T::WIDTH
    }

    /// The `i`-th element as an untyped variable slot.
    pub fn slot(&self, i: u32) -> RawVar {
        assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        RawVar {
            addr: self.base.add(i * T::WIDTH),
            width: T::WIDTH,
        }
    }

    /// Direct element load bypassing any runtime (setup / verification only).
    pub fn get(&self, mem: &Memory, i: u32) -> T {
        T::from_raw(self.slot(i).load(mem))
    }

    /// Direct element store bypassing any runtime (setup / verification only).
    pub fn set(&self, mem: &mut Memory, i: u32, v: T) {
        self.slot(i).store(mem, v.to_raw());
    }

    /// Reads the whole buffer (verification only).
    pub fn to_vec(&self, mem: &Memory) -> Vec<T> {
        read_scalars(mem, self.base, self.len)
    }

    /// Writes the whole buffer (setup only).
    pub fn fill_from(&self, mem: &mut Memory, data: &[T]) {
        assert!(data.len() as u32 <= self.len, "data longer than buffer");
        write_scalars(mem, self.base, data);
    }
}

/// Decodes `n` consecutive little-endian scalars starting at `addr` with one
/// block read (no cost accounting; callers charge).
pub fn read_scalars<T: Scalar>(mem: &Memory, addr: Addr, n: u32) -> Vec<T> {
    mem.read_bytes(addr, n * T::WIDTH)
        .chunks_exact(T::WIDTH as usize)
        .map(|b| T::from_raw(b.iter().rev().fold(0, |raw, byte| raw << 8 | *byte as u64)))
        .collect()
}

/// Encodes `data` little-endian and stores it at `addr` with one block write,
/// dirtying exactly the pages element-wise stores would (no cost accounting;
/// callers charge).
pub fn write_scalars<T: Scalar>(mem: &mut Memory, addr: Addr, data: &[T]) {
    let width = T::WIDTH as usize;
    let mut bytes = Vec::with_capacity(data.len() * width);
    for v in data {
        bytes.extend_from_slice(&v.to_raw().to_le_bytes()[..width]);
    }
    mem.write_bytes(addr, &bytes);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrip_all_widths() {
        assert_eq!(i16::from_raw((-5i16).to_raw()), -5i16);
        assert_eq!(u16::from_raw(65535u16.to_raw()), 65535u16);
        assert_eq!(i32::from_raw((-123456i32).to_raw()), -123456);
        assert_eq!(u64::from_raw(u64::MAX.to_raw()), u64::MAX);
        assert_eq!(i64::from_raw((-1i64).to_raw()), -1i64);
        assert_eq!(i8::from_raw((-8i8).to_raw()), -8i8);
    }

    #[test]
    fn negative_raw_is_masked_to_width() {
        // The raw form of an i16 must fit in 16 bits so it round-trips
        // through two bytes of memory.
        assert_eq!((-1i16).to_raw(), 0xFFFF);
        assert_eq!((-1i32).to_raw(), 0xFFFF_FFFF);
    }

    #[test]
    fn var_store_load_via_memory() {
        let mut mem = Memory::new();
        let v: NvVar<i32> = NvVar::alloc(&mut mem, Region::Fram);
        v.set(&mut mem, -42);
        assert_eq!(v.get(&mem), -42);
        // The raw path must agree with the typed path.
        assert_eq!(v.raw().load(&mem), (-42i32).to_raw());
    }

    #[test]
    fn buffer_elements_are_independent() {
        let mut mem = Memory::new();
        let b: NvBuf<i16> = NvBuf::alloc(&mut mem, Region::Fram, 4);
        b.fill_from(&mut mem, &[1, -2, 3, -4]);
        assert_eq!(b.to_vec(&mem), vec![1, -2, 3, -4]);
        b.set(&mut mem, 2, 99);
        assert_eq!(b.to_vec(&mem), vec![1, -2, 99, -4]);
    }

    /// The block `fill_from`/`to_vec` agree with element-wise `set`/`get`
    /// for every width, and a fill across a page edge dirties both pages.
    #[test]
    fn block_fill_and_read_match_element_access() {
        fn check<T: Scalar>(data: &[T]) {
            let mut block = Memory::new();
            block.alloc(Region::Fram, crate::PAGE_BYTES - 2, AllocTag::App);
            let b: NvBuf<T> = NvBuf::alloc(&mut block, Region::Fram, data.len() as u32);
            block.snapshot();
            let mut elementwise = block.clone();
            b.fill_from(&mut block, data);
            for (i, v) in data.iter().enumerate() {
                b.set(&mut elementwise, i as u32, *v);
            }
            assert_eq!(b.to_vec(&block), data);
            assert_eq!(
                b.to_vec(&block),
                (0..b.len())
                    .map(|i| b.get(&elementwise, i))
                    .collect::<Vec<T>>()
            );
            assert_eq!(block.dirty_pages(Region::Fram), 0b11);
            assert_eq!(elementwise.dirty_pages(Region::Fram), 0b11);
        }
        check::<i8>(&[-128, 127, -1]);
        check::<u16>(&[0, 65535, 258]);
        check::<i32>(&[i32::MIN, -1, 7]);
        check::<u64>(&[u64::MAX, 1 << 40]);
        check::<i64>(&[i64::MIN, -2]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn buffer_bounds_checked() {
        let mut mem = Memory::new();
        let b: NvBuf<i16> = NvBuf::alloc(&mut mem, Region::Fram, 4);
        b.slot(4);
    }

    #[test]
    fn volatile_var_lost_on_failure() {
        let mut mem = Memory::new();
        let v: NvVar<u32> = NvVar::alloc(&mut mem, Region::Sram);
        let nv: NvVar<u32> = NvVar::alloc(&mut mem, Region::Fram);
        v.set(&mut mem, 7);
        nv.set(&mut mem, 7);
        mem.power_failure();
        assert_eq!(v.get(&mem), 0);
        assert_eq!(nv.get(&mem), 7);
    }

    #[test]
    fn words_accounting() {
        let r = RawVar {
            addr: Addr::new(Region::Fram, 0),
            width: 1,
        };
        assert_eq!(r.words(), 1);
        let r = RawVar {
            addr: Addr::new(Region::Fram, 0),
            width: 8,
        };
        assert_eq!(r.words(), 4);
    }
}
