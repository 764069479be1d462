//! Small on-accelerator cache for ADT entries and headers.
//!
//! Both units load ADT state for every field they touch; messages with many
//! instances of the same type reuse the same handful of entries, so a small
//! fully-associative cache keeps the typeInfo state from blocking on the L2
//! for every field.

use protoacc_mem::{AccessKind, AddrMap, Cycles, MemSystem};

/// End-of-list marker for the recency links.
const NIL: usize = usize::MAX;

/// One resident address, linked into the recency list.
#[derive(Debug, Clone, Copy)]
struct Slot {
    addr: u64,
    /// Next-older slot, or `NIL` at the LRU end.
    older: usize,
    /// Next-newer slot, or `NIL` at the MRU end.
    newer: usize,
}

/// Fully-associative LRU cache over ADT line addresses.
///
/// Exact LRU in O(1) per load: an address index finds the slot, and an
/// intrusive doubly linked list over the slots keeps recency order, so a
/// hit relinks one slot and a miss recycles the LRU one.
#[derive(Debug, Clone)]
pub(crate) struct AdtCache {
    capacity: usize,
    /// Resident address -> its index in `slots`.
    index: AddrMap<usize>,
    slots: Vec<Slot>,
    /// Least- and most-recently-used slots, `NIL` when empty.
    lru: usize,
    mru: usize,
    misses: u64,
}

impl AdtCache {
    pub(crate) fn new(capacity: usize) -> Self {
        AdtCache {
            capacity: capacity.max(1),
            index: AddrMap::default(),
            slots: Vec::new(),
            lru: NIL,
            mru: NIL,
            misses: 0,
        }
    }

    /// Loads `len` bytes of ADT state at `addr`: 1 cycle on hit, a blocking
    /// memory access on miss. Returns `(cycles, hit)` so callers can trace
    /// hit/miss without re-deriving it from the cost.
    pub(crate) fn load(&mut self, system: &mut MemSystem, addr: u64, len: usize) -> (Cycles, bool) {
        if let Some(&slot) = self.index.get(&addr) {
            if slot != self.mru {
                self.unlink(slot);
                self.push_mru(slot);
            }
            return (1, true);
        }
        let slot = if self.slots.len() == self.capacity {
            let victim = self.lru;
            self.unlink(victim);
            self.index.remove(&self.slots[victim].addr);
            self.slots[victim].addr = addr;
            victim
        } else {
            self.slots.push(Slot {
                addr,
                older: NIL,
                newer: NIL,
            });
            self.slots.len() - 1
        };
        self.index.insert(addr, slot);
        self.push_mru(slot);
        self.misses += 1;
        // The FSM blocks in the typeInfo state for this response.
        (1 + system.access(addr, len, AccessKind::Read), false)
    }

    /// Detaches `slot` from the recency list.
    fn unlink(&mut self, slot: usize) {
        let Slot { older, newer, .. } = self.slots[slot];
        match older {
            NIL => self.lru = newer,
            o => self.slots[o].newer = newer,
        }
        match newer {
            NIL => self.mru = older,
            n => self.slots[n].older = older,
        }
    }

    /// Links a detached `slot` in as most recently used.
    fn push_mru(&mut self, slot: usize) {
        self.slots[slot].older = self.mru;
        self.slots[slot].newer = NIL;
        match self.mru {
            NIL => self.lru = slot,
            m => self.slots[m].newer = slot,
        }
        self.mru = slot;
    }

    pub(crate) fn misses(&self) -> u64 {
        self.misses
    }

    pub(crate) fn clear(&mut self) {
        self.index.clear();
        self.slots.clear();
        self.lru = NIL;
        self.mru = NIL;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use protoacc_mem::MemConfig;

    #[test]
    fn hit_costs_one_cycle() {
        let mut sys = MemSystem::new(MemConfig::default());
        let mut cache = AdtCache::new(4);
        let (cold, hit) = cache.load(&mut sys, 0x100, 16);
        assert!(cold > 1);
        assert!(!hit);
        assert_eq!(cache.load(&mut sys, 0x100, 16), (1, true));
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn lru_eviction() {
        let mut sys = MemSystem::new(MemConfig::default());
        let mut cache = AdtCache::new(2);
        cache.load(&mut sys, 0x100, 16);
        cache.load(&mut sys, 0x200, 16);
        cache.load(&mut sys, 0x100, 16); // refresh 0x100
        cache.load(&mut sys, 0x300, 16); // evict 0x200
        assert_eq!(cache.load(&mut sys, 0x100, 16), (1, true));
        assert!(cache.load(&mut sys, 0x200, 16).0 > 1);
    }

    /// The obvious LRU the linked list replaces: addresses in recency
    /// order, least recent first.
    struct NaiveAdtCache {
        capacity: usize,
        entries: Vec<u64>,
    }

    impl NaiveAdtCache {
        fn load(&mut self, system: &mut MemSystem, addr: u64, len: usize) -> (Cycles, bool) {
            if let Some(pos) = self.entries.iter().position(|&a| a == addr) {
                self.entries.remove(pos);
                self.entries.push(addr);
                return (1, true);
            }
            if self.entries.len() == self.capacity {
                self.entries.remove(0);
            }
            self.entries.push(addr);
            (1 + system.access(addr, len, AccessKind::Read), false)
        }
    }

    /// Every load returns the same `(cycles, hit)` as the naive LRU, over
    /// seeded streams that re-hit residents, evict past capacity and clear
    /// mid-stream.
    #[test]
    fn matches_naive_lru_load_for_load() {
        use xrand::{Rng, StdRng};
        let rounds = if cfg!(feature = "slow-tests") {
            512
        } else {
            32
        };
        let mut rng = StdRng::seed_from_u64(0xAD7_0001);
        for _ in 0..rounds {
            let capacity = rng.gen_range(1usize..40);
            let mut cache = AdtCache::new(capacity);
            let mut reference = NaiveAdtCache {
                capacity,
                entries: Vec::new(),
            };
            let mut sys = MemSystem::new(MemConfig::default());
            let mut reference_sys = MemSystem::new(MemConfig::default());
            // A pool a little larger than the cache, plus fresh lines.
            let pool = capacity as u64 * 3 / 2 + 1;
            for step in 0..600 {
                if rng.gen_range(0u32..150) == 0 {
                    cache.clear();
                    reference.entries.clear();
                }
                let addr = if rng.gen_bool(0.9) {
                    0x4000 + rng.gen_range(0..pool) * 64
                } else {
                    rng.gen_range(0u64..1 << 32) * 64
                };
                let len = rng.gen_range(1usize..128);
                assert_eq!(
                    cache.load(&mut sys, addr, len),
                    reference.load(&mut reference_sys, addr, len),
                    "step {step}: addr {addr:#x}, capacity {capacity}"
                );
            }
            assert_eq!(cache.index.len(), cache.slots.len());
        }
    }

    #[test]
    fn clear_empties_cache() {
        let mut sys = MemSystem::new(MemConfig::default());
        let mut cache = AdtCache::new(2);
        cache.load(&mut sys, 0x100, 16);
        cache.clear();
        assert!(cache.load(&mut sys, 0x100, 16).0 > 1);
    }
}
