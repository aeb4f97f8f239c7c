//! A small deterministic hasher for the simulator's integer-keyed maps.
//!
//! Runtime and tracker bookkeeping keys are short tuples of integers (task
//! ids, site indices, addresses), looked up on every non-volatile access
//! and every I/O call. `mcu-emu` re-exports these types for the runtimes. SipHash's
//! DoS resistance buys nothing for keys a simulated program chooses, and
//! its per-lookup cost shows in every injected run. [`IntHasher`] folds each
//! integer into the state with one rotate, xor and multiply (the FxHash
//! step), and has no random seed, so iteration order is a pure function of
//! the insertion history.
//!
//! Per-activation bookkeeping (which sites completed, which variables were
//! written this attempt) holds only the in-flight task's entries and stays
//! a few entries long, so it lives in a [`FlatSet`] instead: a scan over a
//! short `Vec` costs less than hashing the key.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};

/// Multiplier of the FxHash step: an odd constant with well-spread bits.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Hasher folding integer writes with one multiply each.
#[derive(Debug, Clone, Copy, Default)]
pub struct IntHasher {
    hash: u64,
}

impl IntHasher {
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for IntHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `HashMap` keyed through [`IntHasher`].
pub type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

/// `HashSet` keyed through [`IntHasher`].
pub type IntSet<K> = HashSet<K, BuildHasherDefault<IntHasher>>;

/// Makes `dst` equal to `src`, keeping `dst`'s table: the in-place
/// [`Clone::clone_from`] of a hash map. std's own `clone_from` frees the
/// table when `src` is empty and reallocates it whenever the bucket counts
/// differ. The copy's iteration order may differ from `src`'s, which is
/// why no run-path code iterates a hash map in an order that reaches an
/// output.
pub fn clone_map_from<K: Clone + Eq + Hash, V: Clone, S: BuildHasher>(
    dst: &mut HashMap<K, V, S>,
    src: &HashMap<K, V, S>,
) {
    dst.clear();
    dst.extend(src.iter().map(|(k, v)| (k.clone(), v.clone())));
}

/// [`clone_map_from`] for hash sets.
pub fn clone_set_from<T: Clone + Eq + Hash, S: BuildHasher>(
    dst: &mut HashSet<T, S>,
    src: &HashSet<T, S>,
) {
    dst.clear();
    dst.extend(src.iter().cloned());
}

/// A set kept as a deduplicated `Vec` in insertion order, for sets that
/// stay a few entries long. Membership is a linear scan; equality is set
/// equality, so two sets built in different orders compare equal.
#[derive(Debug)]
pub struct FlatSet<T> {
    items: Vec<T>,
}

impl<T: Clone> Clone for FlatSet<T> {
    fn clone(&self) -> Self {
        Self {
            items: self.items.clone(),
        }
    }

    /// Copies `source`'s items into this set's buffer.
    fn clone_from(&mut self, source: &Self) {
        self.items.clone_from(&source.items);
    }
}

impl<T> Default for FlatSet<T> {
    fn default() -> Self {
        Self { items: Vec::new() }
    }
}

impl<T: PartialEq> FlatSet<T> {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `item`; returns `true` if it was not present.
    pub fn insert(&mut self, item: T) -> bool {
        if self.contains(&item) {
            return false;
        }
        self.items.push(item);
        true
    }

    /// Whether `item` is present.
    pub fn contains(&self, item: &T) -> bool {
        self.items.contains(item)
    }

    /// Keeps only the items `keep` accepts, in their order.
    pub fn retain(&mut self, keep: impl FnMut(&T) -> bool) {
        self.items.retain(keep);
    }

    /// Removes every item, keeping the buffer.
    pub fn clear(&mut self) {
        self.items.clear();
    }

    /// The items in insertion order.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.items.iter()
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

impl<T: PartialEq> PartialEq for FlatSet<T> {
    fn eq(&self, other: &Self) -> bool {
        // Both sides are deduplicated, so equal lengths plus inclusion one
        // way is set equality.
        self.len() == other.len() && self.iter().all(|item| other.contains(item))
    }
}

impl<T: Eq> Eq for FlatSet<T> {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: &T) -> u64 {
        BuildHasherDefault::<IntHasher>::default().hash_one(v)
    }

    #[test]
    fn equal_keys_hash_equal_and_order_matters() {
        assert_eq!(hash_of(&(1u16, 2u16)), hash_of(&(1u16, 2u16)));
        assert_ne!(hash_of(&(1u16, 2u16)), hash_of(&(2u16, 1u16)));
        assert_ne!(hash_of(&0u32), hash_of(&1u32));
    }

    #[test]
    fn maps_behave_like_std_maps() {
        let mut m: IntMap<(u16, u32), u64> = IntMap::default();
        for i in 0..1_000u32 {
            m.insert((i as u16 % 7, i), u64::from(i) * 3);
        }
        assert_eq!(m.len(), 1_000);
        assert_eq!(m.get(&(5, 12)), Some(&36));
        let s: IntSet<u16> = (0..100).collect();
        assert!(s.contains(&42) && !s.contains(&100));
    }

    #[test]
    fn flat_sets_deduplicate_and_compare_as_sets() {
        let mut a = FlatSet::new();
        assert!(a.insert((1u16, 2u16)));
        assert!(a.insert((0, 5)));
        assert!(!a.insert((1, 2)), "a repeat is not added");
        assert_eq!(a.len(), 2);
        let mut b = FlatSet::new();
        b.insert((0u16, 5u16));
        b.insert((1, 2));
        assert_eq!(a, b, "insertion order must not matter");
        b.insert((3, 3));
        assert_ne!(a, b);
        b.retain(|&(t, _)| t != 3);
        assert_eq!(a, b);
        a.clear();
        assert!(a.is_empty() && !a.contains(&(1, 2)));
    }
}
