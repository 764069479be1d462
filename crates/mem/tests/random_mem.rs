//! Randomized tests for the memory substrate: storage correctness under
//! arbitrary access patterns, and cache/TLB behavioral invariants. Driven
//! by the workspace's deterministic PRNG (`xrand`); enable the
//! `slow-tests` feature to multiply the iteration counts.

use protoacc_mem::{
    AccessKind, CacheConfig, CacheModel, GuestMemory, MemConfig, MemSystem, Tlb, TlbConfig,
    PAGE_SIZE,
};
use xrand::{Rng, StdRng};

/// Iteration count, scaled up under `--features slow-tests`.
fn cases(default: usize) -> usize {
    if cfg!(feature = "slow-tests") {
        default * 16
    } else {
        default
    }
}

/// Guest memory behaves like a flat byte array: the last write to each
/// byte wins, unwritten bytes read zero. The array straddles the top of the
/// address space, and half the operations land on a page edge, so the
/// page-crossing and wrapping paths of every read, write, scalar and fill
/// are compared too.
#[test]
fn guest_memory_matches_flat_model() {
    const WINDOW: usize = 1 << 16;
    // The window's second half lies past the wrap, at addresses 0 and up.
    let base = 0u64.wrapping_sub(WINDOW as u64 / 2);
    let mut rng = StdRng::seed_from_u64(0x3E_0001);
    for _ in 0..cases(64) {
        let mut mem = GuestMemory::new();
        let mut model = vec![0u8; WINDOW];
        let offset = |rng: &mut StdRng| {
            if rng.gen_bool(0.5) {
                rng.gen_range(1..WINDOW / PAGE_SIZE) * PAGE_SIZE - rng.gen_range(0usize..8)
            } else {
                rng.gen_range(0..WINDOW - 64)
            }
        };
        for _ in 0..rng.gen_range(0usize..48) {
            let off = offset(&mut rng);
            let addr = base.wrapping_add(off as u64);
            let bytes = match rng.gen_range(0u32..6) {
                0 => {
                    let mut bytes = vec![0u8; rng.gen_range(1usize..64)];
                    rng.fill(&mut bytes);
                    mem.write_bytes(addr, &bytes);
                    bytes
                }
                1 => {
                    let v = rng.gen_range(0u8..=255);
                    mem.write_u8(addr, v);
                    vec![v]
                }
                2 => {
                    let v = rng.gen_range(0u16..=u16::MAX);
                    mem.write_u16(addr, v);
                    v.to_le_bytes().to_vec()
                }
                3 => {
                    let v = rng.gen_range(0u32..=u32::MAX);
                    mem.write_u32(addr, v);
                    v.to_le_bytes().to_vec()
                }
                4 => {
                    let v = rng.gen_range(0u64..=u64::MAX);
                    mem.write_u64(addr, v);
                    v.to_le_bytes().to_vec()
                }
                _ => {
                    let (len, byte) = (rng.gen_range(0usize..64), rng.gen_range(0u8..=255));
                    mem.fill(addr, len, byte);
                    vec![byte; len]
                }
            };
            model[off..off + bytes.len()].copy_from_slice(&bytes);
        }
        for _ in 0..8 {
            let off = offset(&mut rng);
            let addr = base.wrapping_add(off as u64);
            let at = |n: usize| &model[off..off + n];
            let mut buf = [0u8; 32];
            mem.read_bytes(addr, &mut buf);
            assert_eq!(&buf[..], at(32), "read_bytes at {addr:#x}");
            assert_eq!(mem.read_u8(addr), at(1)[0], "read_u8 at {addr:#x}");
            assert_eq!(
                mem.read_u16(addr).to_le_bytes(),
                at(2),
                "read_u16 at {addr:#x}"
            );
            assert_eq!(
                mem.read_u32(addr).to_le_bytes(),
                at(4),
                "read_u32 at {addr:#x}"
            );
            assert_eq!(
                mem.read_u64(addr).to_le_bytes(),
                at(8),
                "read_u64 at {addr:#x}"
            );
        }
    }
}

/// Immediately repeating any access costs no more than the first time
/// (caches only get warmer).
#[test]
fn repeat_access_is_never_slower() {
    let mut rng = StdRng::seed_from_u64(0x3E_0002);
    for _ in 0..cases(64) {
        let mut sys = MemSystem::new(MemConfig::default());
        for _ in 0..rng.gen_range(1usize..32) {
            let addr = rng.gen_range(0u64..1 << 20);
            let len = rng.gen_range(1usize..64);
            let first = sys.access(addr, len, AccessKind::Read);
            let second = sys.access(addr, len, AccessKind::Read);
            assert!(second <= first, "addr {addr} len {len}: {second} > {first}");
        }
    }
}

/// A cache with N ways never evicts among <= N distinct lines of one set.
#[test]
fn no_eviction_within_associativity() {
    let mut rng = StdRng::seed_from_u64(0x3E_0003);
    for _ in 0..cases(256) {
        // Direct set mapping: 1 set, 8 ways -> any 8 distinct lines co-reside.
        let mut cache = CacheModel::new(CacheConfig::new(8 * 64, 8, 64));
        let mut seen = Vec::new();
        for _ in 0..rng.gen_range(1usize..16) {
            let line = rng.gen_range(0u64..8);
            let hit = cache.access_line(line);
            assert_eq!(hit, seen.contains(&line), "line {line}");
            if !seen.contains(&line) {
                seen.push(line);
            }
        }
    }
}

/// Streaming any buffer costs at least the bus-occupancy bound and at
/// most the fully-serialized bound.
#[test]
fn stream_cost_is_bounded() {
    let mut rng = StdRng::seed_from_u64(0x3E_0004);
    for _ in 0..cases(256) {
        let addr = rng.gen_range(0u64..1 << 24);
        let len = rng.gen_range(1usize..1 << 16);
        let mut sys = MemSystem::new(MemConfig::default());
        let cost = sys.stream(addr, len, AccessKind::Read);
        let bus_floor = (len as u64).div_ceil(16);
        assert!(cost >= bus_floor, "cost {cost} < bus floor {bus_floor}");
        let lines = (addr + len as u64 - 1) / 64 - addr / 64 + 1;
        let ceiling = bus_floor + lines * 500 + 1000; // DRAM latency per line + walks
        assert!(cost <= ceiling, "cost {cost} > ceiling {ceiling}");
    }
}

/// 64-bit FNV-1a over a stream of little-endian words.
fn fnv1a64(words: &[u64]) -> u64 {
    words
        .iter()
        .flat_map(|w| w.to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// A hierarchy small enough that a short stream evicts at every level and
/// from the TLB.
fn small_config() -> MemConfig {
    MemConfig {
        l1: CacheConfig::new(2 * 1024, 2, 64),
        l2: CacheConfig::new(8 * 1024, 4, 64),
        llc: CacheConfig::new(32 * 1024, 8, 64),
        tlb: TlbConfig {
            entries: 8,
            walk_cycles: 90,
        },
        ..MemConfig::default()
    }
}

/// Replays a seeded mix of `access`/`stream`/`pipelined`/`warm` calls from
/// two requesters, with mixed lengths, page crossings and sharer changes,
/// and folds every per-call cost plus the final counters into one digest.
fn cost_digest(config: MemConfig, seed: u64, calls: usize) -> u64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sys = MemSystem::new(config);
    let mut words = Vec::with_capacity(calls + 64);
    for _ in 0..calls {
        if rng.gen_range(0u32..64) == 0 {
            sys.set_requester(rng.gen_range(0usize..2));
        }
        if rng.gen_range(0u32..128) == 0 {
            sys.set_sharers(rng.gen_range(1usize..5));
        }
        // A hot 64 KiB region, a wider 16 MiB one, and page-edge addresses.
        let addr = match rng.gen_range(0u32..4) {
            0 | 1 => rng.gen_range(0u64..1 << 16),
            2 => rng.gen_range(0u64..1 << 24),
            _ => rng.gen_range(1u64..4096) * 4096 - rng.gen_range(1u64..64),
        };
        let len = match rng.gen_range(0u32..8) {
            0 => rng.gen_range(1usize..4096),
            1 => rng.gen_range(4096usize..20_000),
            _ => rng.gen_range(0usize..128),
        };
        let kind = if rng.gen_bool(0.3) {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        let cost = match rng.gen_range(0u32..16) {
            0..=6 => sys.access(addr, len, kind),
            7..=10 => sys.stream(addr, len, kind),
            11..=14 => sys.pipelined(addr, len, kind),
            _ => {
                sys.warm(addr, len);
                0
            }
        };
        words.push(cost);
    }
    for id in 0..2 {
        let r = sys.requester_stats(id);
        words.extend([
            r.accesses,
            r.bytes,
            r.cycles,
            r.l1_hits,
            r.l2_hits,
            r.llc_hits,
            r.dram_accesses,
        ]);
    }
    let s = sys.stats();
    words.extend([s.accesses, s.bytes, s.cycles]);
    for level in [s.l1, s.l2, s.llc] {
        words.extend([level.hits, level.misses]);
    }
    fnv1a64(&words)
}

/// Pins the cost of every call across commits: host-side changes to the
/// cache, TLB and geometry bookkeeping must leave every charge and counter
/// byte-identical.
#[test]
fn per_call_costs_match_pinned_digest() {
    assert_eq!(
        cost_digest(small_config(), 0x3E_0005, 4000),
        0x74a4_90c9_0366_1ab6
    );
    assert_eq!(
        cost_digest(MemConfig::default(), 0x3E_0006, 4000),
        0x96c8_7aba_9e73_21dc
    );
}

/// The obvious LRU: keys in recency order, least recent first.
struct NaiveLru {
    capacity: usize,
    keys: Vec<u64>,
}

impl NaiveLru {
    fn new(capacity: usize) -> Self {
        NaiveLru {
            capacity,
            keys: Vec::new(),
        }
    }

    /// Touches `key`; returns whether it was resident.
    fn touch(&mut self, key: u64) -> bool {
        let hit = match self.keys.iter().position(|&k| k == key) {
            Some(pos) => {
                self.keys.remove(pos);
                true
            }
            None => {
                if self.keys.len() == self.capacity {
                    self.keys.remove(0);
                }
                false
            }
        };
        self.keys.push(key);
        hit
    }
}

/// A key drawn to force conflicts: mostly from a pool a little larger than
/// `capacity` (so residents are both re-hit and evicted), sometimes fresh.
fn conflicting_key(rng: &mut StdRng, capacity: usize, stride: u64) -> u64 {
    let pool = capacity as u64 + capacity as u64 / 2 + 1;
    if rng.gen_bool(0.9) {
        rng.gen_range(0..pool) * stride
    } else {
        rng.gen_range(0u64..1 << 40) * stride
    }
}

/// `CacheModel` hits and misses exactly like a per-set naive LRU, across
/// same-set conflicts, evictions past associativity and flushes. Geometries
/// reach 512 sets, past one lazily allocated 64-set tag block, and 16 ways,
/// the LLC's associativity.
#[test]
fn cache_model_matches_naive_lru() {
    let mut rng = StdRng::seed_from_u64(0x3E_0007);
    for _ in 0..cases(32) {
        let sets = 1usize << rng.gen_range(0u32..10);
        let ways = rng.gen_range(1usize..17);
        let mut cache = CacheModel::new(CacheConfig::new(sets * ways * 64, ways, 64));
        let mut reference: Vec<NaiveLru> = (0..sets).map(|_| NaiveLru::new(ways)).collect();
        // A few conflict-heavy sets, likely in different tag blocks.
        let homes: Vec<u64> = (0..4).map(|_| rng.gen_range(0..sets as u64)).collect();
        for step in 0..2000 {
            if rng.gen_range(0u32..400) == 0 {
                cache.flush();
                reference.iter_mut().for_each(|set| set.keys.clear());
            }
            // Lines `home + k * sets` all map to one set.
            let line = if rng.gen_bool(0.7) {
                homes[rng.gen_range(0..homes.len())]
                    + conflicting_key(&mut rng, ways, 1) * sets as u64
            } else {
                rng.gen_range(0u64..(sets * ways * 4) as u64)
            };
            let expect = reference[(line % sets as u64) as usize].touch(line);
            assert_eq!(
                cache.access_line(line),
                expect,
                "step {step}: line {line} in {sets}x{ways}"
            );
        }
    }
}

/// `Tlb` charges exactly what a naive LRU over page numbers predicts,
/// across evictions past capacity and flushes.
#[test]
fn tlb_matches_naive_lru() {
    let mut rng = StdRng::seed_from_u64(0x3E_0008);
    for _ in 0..cases(32) {
        let config = TlbConfig {
            entries: rng.gen_range(1usize..40),
            walk_cycles: 90,
        };
        let mut tlb = Tlb::new(config);
        let mut reference = NaiveLru::new(config.entries);
        for step in 0..500 {
            if rng.gen_range(0u32..200) == 0 {
                tlb.flush();
                reference.keys.clear();
            }
            let addr = conflicting_key(&mut rng, config.entries, PAGE_SIZE as u64)
                + rng.gen_range(0..PAGE_SIZE as u64);
            let expect = if reference.touch(addr / PAGE_SIZE as u64) {
                0
            } else {
                config.walk_cycles
            };
            assert_eq!(tlb.translate(addr), expect, "step {step}: addr {addr:#x}");
        }
    }
}
