//! TLB model for the accelerator's memory interface wrappers.
//!
//! The paper's memory interface wrappers "maintain TLBs and interact with the
//! page-table walker (PTW) to perform translation and thus allow the
//! accelerator to use virtual addresses" (Section 4.1). This model tracks a
//! small fully-associative set of page translations; misses charge a
//! page-table-walk penalty.

use crate::{Cycles, PAGE_SIZE};

/// TLB geometry and walk cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbConfig {
    /// Number of page entries.
    pub entries: usize,
    /// Cycles charged for a page-table walk on miss (three radix levels
    /// hitting the L2 on a typical Sv39 walk).
    pub walk_cycles: Cycles,
}

impl Default for TlbConfig {
    fn default() -> Self {
        // 32-entry accelerator TLB, ~90-cycle walk.
        TlbConfig {
            entries: 32,
            walk_cycles: 90,
        }
    }
}

/// Fully-associative TLB with LRU replacement.
#[derive(Debug, Clone)]
pub struct Tlb {
    config: TlbConfig,
    /// Resident page numbers, most-recently-used last.
    pages: Vec<u64>,
    hits: u64,
    misses: u64,
}

impl Tlb {
    /// Creates an empty TLB.
    pub fn new(config: TlbConfig) -> Self {
        Tlb {
            config,
            pages: Vec::with_capacity(config.entries),
            hits: 0,
            misses: 0,
        }
    }

    /// Translates the page containing `addr`, returning the cycle cost
    /// (0 on hit, the walk penalty on miss).
    pub fn translate(&mut self, addr: u64) -> Cycles {
        let page = addr / PAGE_SIZE as u64;
        // Pages are unique and most hits are recent: scan from the MRU end.
        if let Some(pos) = self.pages.iter().rposition(|&p| p == page) {
            if pos + 1 != self.pages.len() {
                self.pages.remove(pos);
                self.pages.push(page);
            }
            self.hits += 1;
            0
        } else {
            if self.pages.len() == self.config.entries {
                self.pages.remove(0);
            }
            self.pages.push(page);
            self.misses += 1;
            self.config.walk_cycles
        }
    }

    /// (hits, misses) counters.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Drops every cached translation (e.g. after a context switch).
    pub fn flush(&mut self) {
        self.pages.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_hit_within_page() {
        let mut tlb = Tlb::new(TlbConfig::default());
        assert_eq!(tlb.translate(0x1000), 90);
        assert_eq!(tlb.translate(0x1008), 0);
        assert_eq!(tlb.translate(0x1fff), 0);
        assert_eq!(tlb.translate(0x2000), 90); // next page
        assert_eq!(tlb.stats(), (2, 2));
    }

    #[test]
    fn capacity_eviction_is_lru() {
        let mut tlb = Tlb::new(TlbConfig {
            entries: 2,
            walk_cycles: 50,
        });
        tlb.translate(0x0000); // page 0
        tlb.translate(0x1000); // page 1
        tlb.translate(0x0000); // page 0 hit -> MRU
        tlb.translate(0x2000); // evicts page 1
        assert_eq!(tlb.translate(0x0000), 0);
        assert_eq!(tlb.translate(0x1000), 50);
    }

    #[test]
    fn flush_forgets_translations() {
        let mut tlb = Tlb::new(TlbConfig::default());
        tlb.translate(0);
        tlb.flush();
        assert_eq!(tlb.translate(0), 90);
    }
}
