//! Host-speed reference: fixed kernels of the benchmark's own, timed just
//! before every trial, that scale the trial's host times to one reference
//! speed.
//!
//! On a host shared with other tenants, the speed of the same code moves by
//! up to 2x over seconds to minutes, with the neighbours' load. Fastest
//! repeats do not remove a slowdown that lasts a whole run. A kernel timed
//! beside each trial slows with it, so the ratio of the trial's time to the
//! kernel's follows the code rather than the neighbours.
//!
//! The kernels use only `std`, never the repository's crates, so a change
//! to the program cannot move them. There are two:
//!
//! - `cpu`: hash-map inserts and lookups resident in L2, then eight
//!   independent integer chains that keep the core's ports busy. It stands
//!   for code that runs from cache at a high instruction rate: the
//!   simulators, and the codec's small messages.
//! - `mem`: a copy of 4 MiB, larger than L2. It stands for bytes streamed
//!   through memory: the codec's large messages.
//!
//! The host's slowdowns hit code that runs many instructions per cycle and
//! spare code that waits on one dependency chain, as if another tenant
//! shared the core. In time series of trials beside candidate kernels, the
//! hash map plus the independent chains followed the simulators' slowdowns
//! and the codec's median best; a sort and binary searches followed them
//! less closely, and one dependent arithmetic chain or a random walk in L2
//! hardly slowed at all. The copy followed the codec's tail.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Keys looked up per run; the first [`MAP_KEYS`] go into the map, so half
/// of the lookups hit.
const KEYS: usize = 16 * 1024;
const MAP_KEYS: usize = 8 * 1024;
/// Rounds of the eight independent integer chains per run.
const CHAIN_ROUNDS: usize = 150_000;
/// Bytes copied per run of the `mem` kernel.
const COPY_BYTES: usize = 4 << 20;

/// About each kernel's median time on the host the benchmark was written
/// on: a 2-core KVM guest of a 2.1 GHz Xeon with AVX-512 and 2 MiB of L2
/// per core. Scaled host times read as times on that host.
const CPU_REFERENCE_NS: f64 = 1_000_000.0;
const MEM_REFERENCE_NS: f64 = 750_000.0;

/// Host ns of one run of each kernel.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub cpu_ns: f64,
    /// 0 where the `mem` kernel does not run.
    pub mem_ns: f64,
}

impl Sample {
    /// Factors that turn a host time measured beside this sample into a
    /// time at the reference speed: reference time over time now, of the
    /// `cpu` kernel, the `mem` kernel, and both together.
    pub fn cpu_scale(self) -> f64 {
        CPU_REFERENCE_NS / self.cpu_ns
    }

    pub fn mem_scale(self) -> f64 {
        MEM_REFERENCE_NS / self.mem_ns
    }

    pub fn both_scale(self) -> f64 {
        (CPU_REFERENCE_NS + MEM_REFERENCE_NS) / (self.cpu_ns + self.mem_ns)
    }
}

pub struct Reference {
    keys: Vec<u64>,
    map: HashMap<u64, u64>,
    src: Vec<u8>,
    dst: Vec<u8>,
}

impl Reference {
    /// The `cpu` kernel, and with `mem` the copy too.
    pub fn new(mem: bool) -> Self {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let keys = (0..KEYS)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect();
        let copy_bytes = if mem { COPY_BYTES } else { 0 };
        Reference {
            keys,
            map: HashMap::with_capacity(MAP_KEYS),
            src: (0..copy_bytes).map(|i| i as u8).collect(),
            dst: vec![0; copy_bytes],
        }
    }

    /// Runs the kernels once.
    pub fn sample(&mut self) -> Sample {
        let t = Instant::now();
        self.map.clear();
        for &k in &self.keys[..MAP_KEYS] {
            *self.map.entry(k).or_insert(0) += 1;
        }
        let hits: u64 = self
            .keys
            .iter()
            .map(|k| self.map.get(k).copied().unwrap_or(0))
            .sum();
        black_box(hits);
        let mut chains = black_box([1u64, 2, 3, 4, 5, 6, 7, 8]);
        for _ in 0..CHAIN_ROUNDS {
            for (i, v) in chains.iter_mut().enumerate() {
                *v = (v.rotate_left(13) ^ i as u64).wrapping_add(*v >> 3);
            }
        }
        black_box(chains);
        let cpu_ns = t.elapsed().as_nanos() as f64;
        if self.src.is_empty() {
            return Sample {
                cpu_ns,
                mem_ns: 0.0,
            };
        }
        let t = Instant::now();
        self.dst.copy_from_slice(black_box(&self.src));
        black_box(&mut self.dst);
        Sample {
            cpu_ns,
            mem_ns: t.elapsed().as_nanos() as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernels_do_their_work() {
        let mut r = Reference::new(true);
        let s = r.sample();
        assert!(s.cpu_ns > 0.0 && s.mem_ns > 0.0);
        assert_eq!(r.map.len(), MAP_KEYS);
        assert_eq!(r.dst, r.src);
        assert_eq!(Reference::new(false).sample().mem_ns, 0.0);
    }
}
