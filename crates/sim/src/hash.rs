//! Fast hashing for the simulator's internal maps.
//!
//! Every key the simulator hashes is a small integer id or a tuple of them
//! (`(WorkflowId, InvocationId)`, instance tokens, data keys, pool keys),
//! chosen by the simulation itself rather than by an adversary. Flooding
//! resistance — the reason std's SipHash exists — buys nothing here, while
//! its cost showed up as the largest share of per-event work. [`FastMap`]
//! and [`FastSet`] use a multiply-rotate hasher in the style of rustc's
//! `FxHasher` instead: one add and one multiply per written word.
//!
//! # Iteration order stays unobservable
//!
//! Simulated behaviour must never depend on map iteration order. std's
//! `RandomState` enforces that by accident: every map gets fresh keys, so
//! an order dependence shows up as a same-seed run that does not
//! reproduce. To keep that safety net, debug builds (and so the test
//! suite) start each map's hasher from a per-instance random state, which
//! reshuffles iteration order map by map and run by run. Release builds
//! use one fixed state and pay nothing for it.
//!
//! ```
//! use faasflow_sim::{FastMap, FastSet};
//!
//! let mut m: FastMap<u32, &str> = FastMap::default();
//! m.insert(7, "seven");
//! assert_eq!(m.get(&7), Some(&"seven"));
//! let s: FastSet<(u32, u32)> = [(1, 2), (3, 4)].into_iter().collect();
//! assert!(s.contains(&(3, 4)));
//! ```

use std::hash::{BuildHasher, Hasher};

/// A hash map keyed through [`FastState`].
pub type FastMap<K, V> = std::collections::HashMap<K, V, FastState>;

/// A hash set keyed through [`FastState`].
pub type FastSet<T> = std::collections::HashSet<T, FastState>;

/// Odd multiplier with well-mixed high bits (as used by rustc's hasher).
const K: u64 = 0xf135_7aea_2e62_a9c5;

/// Builds [`FastHasher`]s. Fixed in release builds; one random initial
/// state per instance in debug builds (see the module docs).
#[derive(Debug, Clone, Copy)]
pub struct FastState {
    seed: u64,
}

impl Default for FastState {
    fn default() -> Self {
        #[cfg(debug_assertions)]
        let seed = std::hash::RandomState::new().hash_one(0u8);
        #[cfg(not(debug_assertions))]
        let seed = 0;
        FastState { seed }
    }
}

impl BuildHasher for FastState {
    type Hasher = FastHasher;

    #[inline]
    fn build_hasher(&self) -> FastHasher {
        FastHasher { hash: self.seed }
    }
}

/// The add-multiply word hasher behind [`FastMap`] and [`FastSet`].
#[derive(Debug, Clone, Copy)]
pub struct FastHasher {
    hash: u64,
}

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = self.hash.wrapping_add(word).wrapping_mul(K);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(tail));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    /// The multiply leaves its best-mixed bits at the top; the table
    /// indexes buckets by the low bits, so rotate them down.
    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hash_of<T: std::hash::Hash>(state: &FastState, value: T) -> u64 {
        state.hash_one(value)
    }

    #[test]
    fn equal_keys_hash_equal_within_one_state() {
        let s = FastState::default();
        assert_eq!(hash_of(&s, (3u32, 9u32)), hash_of(&s, (3u32, 9u32)));
        assert_eq!(hash_of(&s, "abc"), hash_of(&s, String::from("abc")));
    }

    #[test]
    fn field_order_and_tails_matter() {
        let s = FastState { seed: 0 };
        assert_ne!(hash_of(&s, (1u32, 2u32)), hash_of(&s, (2u32, 1u32)));
        assert_ne!(hash_of(&s, "abcdefgh1"), hash_of(&s, "abcdefgh2"));
    }

    #[test]
    fn sequential_ids_spread_over_low_bits() {
        // Dense ids are the common key; they must not pile into a few
        // buckets of a small table.
        let s = FastState { seed: 0 };
        let buckets: FastSet<u64> = (0u32..256).map(|i| hash_of(&s, i) & 0xff).collect();
        assert!(buckets.len() > 128, "only {} of 256 buckets", buckets.len());
    }

    #[test]
    fn debug_builds_vary_the_state_per_map() {
        let states: FastSet<u64> = (0..8).map(|_| FastState::default().seed).collect();
        if cfg!(debug_assertions) {
            assert!(states.len() > 1, "per-instance states must differ");
        } else {
            assert_eq!(states.len(), 1, "release builds use one fixed state");
        }
    }
}
