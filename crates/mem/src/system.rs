//! The memory system: storage + hierarchy timing bundled behind one port.

use crate::{
    CacheConfig, CacheModel, CacheStats, Cycles, GuestMemory, Tlb, TlbConfig, BUS_WIDTH_BYTES,
};

/// Whether an access is a read or a write (writes are modeled write-allocate,
/// write-back, so the timing treatment is identical; the split is kept for
/// statistics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Load from memory.
    Read,
    /// Store to memory.
    Write,
}

/// Latencies and geometry of the modeled hierarchy.
///
/// Defaults approximate the paper's SoC: 2 GHz core/accelerator clock,
/// 32 KiB L1, 512 KiB L2, 32 MiB LLC (the artifact's runtime config names a
/// 32 MB LLC), and DRAM ~110 ns away.
#[derive(Debug, Clone, Copy)]
pub struct MemConfig {
    /// L1 geometry.
    pub l1: CacheConfig,
    /// L2 geometry.
    pub l2: CacheConfig,
    /// LLC geometry.
    pub llc: CacheConfig,
    /// Cycles for an L1 hit.
    pub l1_latency: Cycles,
    /// Cycles for an L2 hit (L1 miss).
    pub l2_latency: Cycles,
    /// Cycles for an LLC hit (L2 miss).
    pub llc_latency: Cycles,
    /// Cycles for a DRAM access (LLC miss).
    pub dram_latency: Cycles,
    /// TLB configuration.
    pub tlb: TlbConfig,
    /// Maximum in-flight requests the memory interface wrapper tracks
    /// (Section 4.1: "a configurable number of outstanding requests").
    /// Streaming transfers overlap up to this many line fetches.
    pub max_outstanding: usize,
}

impl Default for MemConfig {
    fn default() -> Self {
        MemConfig {
            l1: CacheConfig::new(32 * 1024, 8, 64),
            l2: CacheConfig::new(512 * 1024, 8, 64),
            llc: CacheConfig::new(32 * 1024 * 1024, 16, 64),
            l1_latency: 2,
            l2_latency: 14,
            llc_latency: 40,
            dram_latency: 220,
            tlb: TlbConfig::default(),
            max_outstanding: 12,
        }
    }
}

impl MemConfig {
    /// Memory configuration for one of `groups` independent shard groups
    /// splitting the shared last-level resources.
    ///
    /// Way-partitioning an LLC across instance groups (the standard CAT-style
    /// slicing) gives each group a private slice: within a shard the paper's
    /// contention model is unchanged — instances still fight over the slice
    /// and the outstanding-miss budget — while *across* shards there is no
    /// coupling at all, which is what makes sharded simulation exact rather
    /// than approximate. The slice keeps the parent's associativity and line
    /// size (capacity shrinks by dropping sets, rounded to the power-of-two
    /// geometry the cache model requires) and divides the outstanding-miss
    /// budget, clamping both so even extreme `groups` stay constructible.
    ///
    /// # Panics
    ///
    /// Panics if `groups` is zero.
    #[must_use]
    pub fn llc_slice(&self, groups: usize) -> MemConfig {
        assert!(groups > 0, "shard group count must be nonzero");
        let g = groups.next_power_of_two();
        // Smallest legal slice: one set of `ways` lines.
        let min = self.llc.ways * self.llc.line_bytes;
        let sliced = (self.llc.size_bytes / g).max(min);
        MemConfig {
            llc: CacheConfig::new(sliced, self.llc.ways, self.llc.line_bytes),
            max_outstanding: (self.max_outstanding / g).max(1),
            ..*self
        }
    }
}

/// One requester's share of a shared hierarchy's traffic.
///
/// When several accelerator instances (or an instance and a core) share an
/// LLC/DRAM, attributing hits and misses per requester is what lets the
/// serving model report *who* is suffering the contention. Requesters are
/// dense small integers assigned by the caller via
/// [`MemSystem::set_requester`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RequesterStats {
    /// Accesses issued while this requester was current.
    pub accesses: u64,
    /// Bytes moved.
    pub bytes: u64,
    /// Cycles charged.
    pub cycles: Cycles,
    /// Line probes served by the L1.
    pub l1_hits: u64,
    /// Line probes served by the L2.
    pub l2_hits: u64,
    /// Line probes served by the LLC.
    pub llc_hits: u64,
    /// Line probes that went all the way to DRAM.
    pub dram_accesses: u64,
}

impl RequesterStats {
    /// Fraction of this requester's line probes that missed the LLC,
    /// `0.0` if it issued none.
    pub fn dram_fraction(&self) -> f64 {
        let probes = self.l1_hits + self.l2_hits + self.llc_hits + self.dram_accesses;
        if probes == 0 {
            return 0.0;
        }
        self.dram_accesses as f64 / probes as f64
    }
}

/// One access captured while tracing is enabled: who touched which byte
/// range, and whether it was a load or a store. The sanitizer layer
/// (`protoacc-absint`) consumes these to build per-command memory
/// footprints; recording is off by default so the hot path stays a branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessRecord {
    /// Requester current when the access was issued.
    pub requester: usize,
    /// First byte touched.
    pub addr: u64,
    /// Bytes touched (never 0; zero-length accesses are not recorded).
    pub len: u64,
    /// Load or store.
    pub kind: AccessKind,
}

impl AccessRecord {
    /// Exclusive end of the touched range.
    pub fn end(&self) -> u64 {
        self.addr + self.len
    }
}

/// A hardware fault raised by the simulated memory system.
///
/// Faults are injected (armed) by a test harness or the fault-injection
/// layer (`protoacc-faults`); the hierarchy itself never produces them
/// spontaneously, so untouched configurations behave exactly as before.
/// A raised fault is latched and must be drained with
/// [`MemSystem::take_fault`] — the accelerator model polls after each
/// transfer and converts a latched fault into a typed error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum MemFault {
    /// An uncorrectable (detected, not silently corrupting) DRAM ECC error
    /// on an access overlapping `addr`.
    Ecc {
        /// Address the armed fault was registered for.
        addr: u64,
    },
    /// An access overlapping `addr` stalled: the interface charged `extra`
    /// additional cycles and reported the hang. `extra` is chosen large
    /// enough that any watchdog ceiling fires first.
    Stall {
        /// Address the armed fault was registered for.
        addr: u64,
        /// Extra cycles the stalled access cost.
        extra: Cycles,
    },
}

impl std::fmt::Display for MemFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemFault::Ecc { addr } => write!(f, "uncorrectable ECC error at {addr:#x}"),
            MemFault::Stall { addr, extra } => {
                write!(f, "memory stall at {addr:#x} (+{extra} cycles)")
            }
        }
    }
}

/// One armed (not yet triggered) fault: fires on the first access whose
/// byte range covers `addr`, then disarms.
#[derive(Debug, Clone, Copy)]
struct ArmedFault {
    addr: u64,
    kind: ArmedFaultKind,
}

#[derive(Debug, Clone, Copy)]
enum ArmedFaultKind {
    Ecc,
    Stall { extra: Cycles },
}

/// Aggregate statistics for a [`MemSystem`].
#[derive(Debug, Clone, Copy, Default)]
pub struct MemStats {
    /// Total accesses issued.
    pub accesses: u64,
    /// Total bytes moved.
    pub bytes: u64,
    /// Total cycles charged.
    pub cycles: Cycles,
    /// Per-level hit/miss counters (L1, L2, LLC).
    pub l1: CacheStats,
    /// L2 counters.
    pub l2: CacheStats,
    /// LLC counters.
    pub llc: CacheStats,
}

/// The timing side of the memory system: cache hierarchy plus TLB.
///
/// Both the CPU models and the accelerator route their accesses through one
/// of these; sharing an instance models the paper's shared L2/LLC.
#[derive(Debug, Clone)]
pub struct MemSystem {
    config: MemConfig,
    /// `log2` of the L1 line size, which numbers lines at every level.
    line_shift: u32,
    l1: CacheModel,
    l2: CacheModel,
    llc: CacheModel,
    tlb: Tlb,
    accesses: u64,
    bytes: u64,
    cycles: Cycles,
    requester: usize,
    requesters: Vec<RequesterStats>,
    sharers: u64,
    /// The latency-overlap factor streams see under the current sharing:
    /// the outstanding-request budget split across `sharers`, at least 1.
    overlap: u64,
    tracing: bool,
    trace: Vec<AccessRecord>,
    armed: Vec<ArmedFault>,
    fault: Option<MemFault>,
    /// Structured event sink (`protoacc-trace`); `None` (the default) is
    /// the zero-cost path — instrumentation never feeds back into cycle
    /// arithmetic, it only observes.
    event_tracer: Option<protoacc_trace::SharedTracer>,
    /// `(timeline base, self.cycles when the base was set)`: event
    /// timestamps are `base + (cycles_at_issue - cycles_at_base)`, letting
    /// the serve layer pin memory events onto its queue clock.
    trace_origin: (Cycles, Cycles),
}

impl MemSystem {
    /// Creates a cold hierarchy.
    pub fn new(config: MemConfig) -> Self {
        MemSystem {
            config,
            line_shift: config.l1.line_bytes.trailing_zeros(),
            l1: CacheModel::new(config.l1),
            l2: CacheModel::new(config.l2),
            llc: CacheModel::new(config.llc),
            tlb: Tlb::new(config.tlb),
            accesses: 0,
            bytes: 0,
            cycles: 0,
            requester: 0,
            requesters: vec![RequesterStats::default()],
            sharers: 1,
            overlap: overlap(&config, 1),
            tracing: false,
            trace: Vec::new(),
            armed: Vec::new(),
            fault: None,
            event_tracer: None,
            trace_origin: (0, 0),
        }
    }

    /// Attaches (or detaches, with `None`) a structured event tracer.
    /// While attached, every non-empty `access`/`stream`/`pipelined` call
    /// emits a [`protoacc_trace::TraceEvent::MemAccess`] with its cache-
    /// level breakdown. Purely observational: cycle accounting is
    /// identical with and without a tracer.
    pub fn set_event_tracer(&mut self, tracer: Option<protoacc_trace::SharedTracer>) {
        self.event_tracer = tracer;
    }

    /// Whether a structured event tracer is attached.
    pub fn event_tracing(&self) -> bool {
        self.event_tracer.is_some()
    }

    /// Pins the event timeline: subsequent events are stamped
    /// `at + (cycles_since_this_call)`. The serve layer calls this with
    /// each attempt's dispatch time so memory events line up with the
    /// cluster's queue clock.
    pub fn set_trace_origin(&mut self, at: Cycles) {
        self.trace_origin = (at, self.cycles);
    }

    /// Arms a one-shot uncorrectable ECC fault: the first subsequent access
    /// whose byte range covers `addr` raises [`MemFault::Ecc`] (latched
    /// until [`MemSystem::take_fault`]) and charges one extra DRAM latency
    /// for the detection/re-read.
    pub fn arm_ecc(&mut self, addr: u64) {
        self.armed.push(ArmedFault {
            addr,
            kind: ArmedFaultKind::Ecc,
        });
    }

    /// Arms a one-shot stall fault: the first subsequent access covering
    /// `addr` costs `extra` additional cycles and latches
    /// [`MemFault::Stall`]. Callers pick `extra` far above any command's
    /// static cycle ceiling so a watchdog observes the hang.
    pub fn arm_stall(&mut self, addr: u64, extra: Cycles) {
        self.armed.push(ArmedFault {
            addr,
            kind: ArmedFaultKind::Stall { extra },
        });
    }

    /// Drains the latched fault, if any. At most one fault is latched at a
    /// time; later triggers while one is pending are dropped (the first
    /// error aborts the command anyway).
    pub fn take_fault(&mut self) -> Option<MemFault> {
        self.fault.take()
    }

    /// Whether a fault is latched and not yet drained.
    pub fn fault_pending(&self) -> bool {
        self.fault.is_some()
    }

    /// Triggers any armed fault covered by `[addr, addr + len)` (wrapping
    /// past `u64::MAX` like the access does); returns the extra cycle
    /// charge. The empty-`armed` fast path keeps untouched configurations
    /// branch-cheap.
    fn check_faults(&mut self, addr: u64, len: usize) -> Cycles {
        if self.armed.is_empty() {
            return 0;
        }
        let mut extra_cycles: Cycles = 0;
        let mut i = 0;
        while i < self.armed.len() {
            let f = self.armed[i];
            if f.addr.wrapping_sub(addr) < len as u64 {
                let (fault, charge) = match f.kind {
                    ArmedFaultKind::Ecc => {
                        (MemFault::Ecc { addr: f.addr }, self.config.dram_latency)
                    }
                    ArmedFaultKind::Stall { extra } => (
                        MemFault::Stall {
                            addr: f.addr,
                            extra,
                        },
                        extra,
                    ),
                };
                if self.fault.is_none() {
                    self.fault = Some(fault);
                }
                extra_cycles = extra_cycles.saturating_add(charge);
                self.armed.swap_remove(i);
            } else {
                i += 1;
            }
        }
        extra_cycles
    }

    /// Turns access tracing on or off. While on, every non-empty
    /// `access`/`stream`/`pipelined` call appends an [`AccessRecord`];
    /// turning it off leaves any already-captured records in place.
    pub fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
    }

    /// Whether access tracing is currently enabled.
    pub fn tracing(&self) -> bool {
        self.tracing
    }

    /// Drains and returns the captured access records.
    pub fn take_trace(&mut self) -> Vec<AccessRecord> {
        std::mem::take(&mut self.trace)
    }

    /// Appends one trace record if tracing is on.
    fn trace_access(&mut self, addr: u64, len: usize, kind: AccessKind) {
        if self.tracing {
            self.trace.push(AccessRecord {
                requester: self.requester,
                addr,
                len: len as u64,
                kind,
            });
        }
    }

    /// The configuration this system was built with.
    pub fn config(&self) -> &MemConfig {
        &self.config
    }

    /// Attributes subsequent traffic to requester `id` (a dense small
    /// integer, e.g. an accelerator instance index). Requester 0 is current
    /// by default, so single-requester callers never need to call this.
    pub fn set_requester(&mut self, id: usize) {
        if id >= self.requesters.len() {
            self.requesters.resize(id + 1, RequesterStats::default());
        }
        self.requester = id;
    }

    /// Statistics for requester `id` (zeroes if it never issued traffic).
    pub fn requester_stats(&self, id: usize) -> RequesterStats {
        self.requesters.get(id).copied().unwrap_or_default()
    }

    /// Sets how many requesters are actively sharing the memory interface.
    ///
    /// The outstanding-request budget (and hence the latency-overlap factor
    /// of [`MemSystem::stream`] / [`MemSystem::pipelined`]) is split evenly
    /// across active sharers: with `max_outstanding = 12` and 4 sharers each
    /// stream overlaps only 3 line fetches. `1` (the default) restores the
    /// uncontended behavior.
    pub fn set_sharers(&mut self, sharers: usize) {
        self.sharers = sharers.max(1) as u64;
        self.overlap = overlap(&self.config, self.sharers);
    }

    /// The currently configured sharer count.
    pub fn sharers(&self) -> usize {
        self.sharers as usize
    }

    /// Charges one access of `len` bytes at `addr` and returns its cycle
    /// cost. Accesses spanning multiple cache lines probe each line.
    pub fn access(&mut self, addr: u64, len: usize, kind: AccessKind) -> Cycles {
        if len == 0 {
            return 0;
        }
        self.trace_access(addr, len, kind);
        let snap = self.snap_for_event();
        let tlb_cost = self.translate(addr, len);
        let mut cost = tlb_cost;
        for line in blocks(addr, len, self.line_shift) {
            cost += self.probe(line);
        }
        let cost = cost.saturating_add(self.check_faults(addr, len));
        self.note(len, cost);
        self.emit_mem_event(
            snap,
            protoacc_trace::MemAccessMode::Blocking,
            addr,
            len,
            kind,
            cost,
            tlb_cost,
        );
        cost
    }

    /// Charges a streaming transfer of `len` bytes starting at `addr`, as the
    /// memloader/memwriter units perform: line fetches overlap up to the
    /// configured outstanding-request limit, so cost is dominated by bus
    /// bandwidth (16 B/cycle) plus one exposed leading latency.
    pub fn stream(&mut self, addr: u64, len: usize, kind: AccessKind) -> Cycles {
        if len == 0 {
            return 0;
        }
        self.trace_access(addr, len, kind);
        let snap = self.snap_for_event();
        let mut worst: Cycles = 0;
        let mut sum: Cycles = 0;
        let tlb_cost = self.translate(addr, len);
        for line in blocks(addr, len, self.line_shift) {
            let c = self.probe(line);
            worst = worst.max(c);
            sum += c;
        }
        // With `max_outstanding` requests in flight, per-line latencies
        // overlap: charge the worst single latency once, plus the serialized
        // remainder divided by the overlap factor, plus bus occupancy. The
        // overlap budget shrinks when other requesters share the interface.
        let hidden = sum.saturating_sub(worst) / self.overlap;
        let bus = len.div_ceil(BUS_WIDTH_BYTES) as u64 * self.sharers;
        let cost = (tlb_cost + worst + hidden + bus).saturating_add(self.check_faults(addr, len));
        self.note(len, cost);
        self.emit_mem_event(
            snap,
            protoacc_trace::MemAccessMode::Stream,
            addr,
            len,
            kind,
            cost,
            tlb_cost,
        );
        cost
    }

    /// Charges an access issued through a decoupled memory interface wrapper
    /// that tracks many outstanding requests (Section 4.1): the caller does
    /// not block for the full hierarchy latency, so the charge is bus
    /// occupancy (16 B/cycle) plus the miss latency amortized over the
    /// outstanding-request window, plus any TLB walk (which does block).
    pub fn pipelined(&mut self, addr: u64, len: usize, kind: AccessKind) -> Cycles {
        if len == 0 {
            return 0;
        }
        self.trace_access(addr, len, kind);
        let snap = self.snap_for_event();
        let tlb_cost = self.translate(addr, len);
        let mut cost = tlb_cost;
        let mut probe_sum = 0;
        for line in blocks(addr, len, self.line_shift) {
            probe_sum += self.probe(line);
        }
        cost += len.div_ceil(BUS_WIDTH_BYTES) as u64 * self.sharers + probe_sum / self.overlap;
        let cost = cost.saturating_add(self.check_faults(addr, len));
        self.note(len, cost);
        self.emit_mem_event(
            snap,
            protoacc_trace::MemAccessMode::Pipelined,
            addr,
            len,
            kind,
            cost,
            tlb_cost,
        );
        cost
    }

    /// Captures the pre-access requester counters and memory clock when an
    /// event tracer is attached; `None` otherwise (the zero-cost path).
    fn snap_for_event(&self) -> Option<(RequesterStats, Cycles)> {
        if self.event_tracer.is_some() {
            Some((self.requesters[self.requester], self.cycles))
        } else {
            None
        }
    }

    /// Emits one [`protoacc_trace::TraceEvent::MemAccess`] with the
    /// cache-level deltas accumulated since `snap`. A no-op when no tracer
    /// is attached (`snap` is `None`).
    #[allow(clippy::too_many_arguments)]
    fn emit_mem_event(
        &self,
        snap: Option<(RequesterStats, Cycles)>,
        mode: protoacc_trace::MemAccessMode,
        addr: u64,
        len: usize,
        kind: AccessKind,
        cost: Cycles,
        tlb_cost: Cycles,
    ) {
        let (Some((before, start_cycles)), Some(tracer)) = (snap, self.event_tracer.as_ref())
        else {
            return;
        };
        let now = self.requesters[self.requester];
        let at = self.trace_origin.0 + start_cycles.saturating_sub(self.trace_origin.1);
        tracer
            .borrow_mut()
            .record(protoacc_trace::TraceEvent::MemAccess {
                requester: self.requester,
                at,
                cycles: cost,
                addr,
                len: len as u64,
                write: matches!(kind, AccessKind::Write),
                mode,
                tlb_walk_cycles: tlb_cost,
                l1_hits: now.l1_hits - before.l1_hits,
                l2_hits: now.l2_hits - before.l2_hits,
                llc_hits: now.llc_hits - before.llc_hits,
                dram_accesses: now.dram_accesses - before.dram_accesses,
            });
    }

    /// Translates every page `[addr, addr + len)` touches, in address
    /// order; a page-boundary crossing needs a second translation.
    fn translate(&mut self, addr: u64, len: usize) -> Cycles {
        blocks(addr, len, PAGE_SHIFT)
            .map(|page| self.tlb.translate(page << PAGE_SHIFT))
            .sum()
    }

    fn probe(&mut self, line: u64) -> Cycles {
        let who = &mut self.requesters[self.requester];
        if self.l1.access_line(line) {
            who.l1_hits += 1;
            self.config.l1_latency
        } else if self.l2.access_line(line) {
            who.l2_hits += 1;
            self.config.l2_latency
        } else if self.llc.access_line(line) {
            who.llc_hits += 1;
            self.config.llc_latency
        } else {
            who.dram_accesses += 1;
            self.config.dram_latency
        }
    }

    /// Books one completed access into the global and per-requester tallies.
    fn note(&mut self, len: usize, cost: Cycles) {
        self.accesses += 1;
        self.bytes += len as u64;
        self.cycles += cost;
        let who = &mut self.requesters[self.requester];
        who.accesses += 1;
        who.bytes += len as u64;
        who.cycles += cost;
    }

    /// Snapshot of accumulated statistics.
    pub fn stats(&self) -> MemStats {
        MemStats {
            accesses: self.accesses,
            bytes: self.bytes,
            cycles: self.cycles,
            l1: self.l1.stats(),
            l2: self.l2.stats(),
            llc: self.llc.stats(),
        }
    }

    /// Invalidates all cache and TLB state and zeroes counters.
    pub fn reset(&mut self) {
        self.l1.flush();
        self.l2.flush();
        self.llc.flush();
        self.tlb.flush();
        self.l1.reset_stats();
        self.l2.reset_stats();
        self.llc.reset_stats();
        self.accesses = 0;
        self.bytes = 0;
        self.cycles = 0;
        for r in &mut self.requesters {
            *r = RequesterStats::default();
        }
        self.trace.clear();
        self.armed.clear();
        self.fault = None;
        self.trace_origin = (0, 0);
    }

    /// Pre-touches an address range so it is LLC-resident (used to model
    /// warmed-up benchmark state without charging cycles to the workload).
    pub fn warm(&mut self, addr: u64, len: usize) {
        if len == 0 {
            return;
        }
        for line in blocks(addr, len, self.line_shift) {
            self.llc.access_line(line);
        }
        self.llc.reset_stats();
    }
}

/// The latency-overlap factor of `config`'s outstanding-request budget
/// split across `sharers` requesters.
fn overlap(config: &MemConfig, sharers: u64) -> u64 {
    (config.max_outstanding.max(1) as u64 / sharers).max(1)
}

/// `log2(PAGE_SIZE)`.
const PAGE_SHIFT: u32 = crate::PAGE_SIZE.trailing_zeros();

/// The `1 << shift`-byte blocks (lines or pages) that the nonempty range
/// `[addr, addr + len)` touches, in address order. Like guest storage, the
/// range wraps past `u64::MAX` to address 0, so every block it touches is
/// yielded whatever the build's overflow checks.
fn blocks(addr: u64, len: usize, shift: u32) -> impl Iterator<Item = u64> {
    let space = u64::MAX >> shift;
    let first = addr >> shift;
    let last = addr.wrapping_add(len as u64 - 1) >> shift;
    let extra = last.wrapping_sub(first) & space;
    (0..=extra).map(move |i| first.wrapping_add(i) & space)
}

/// Storage plus timing: the object every simulated component threads through
/// its memory operations.
#[derive(Debug, Clone)]
pub struct Memory {
    /// Byte storage.
    pub data: GuestMemory,
    /// Timing model.
    pub system: MemSystem,
}

impl Memory {
    /// Creates zeroed storage with a cold hierarchy.
    pub fn new(config: MemConfig) -> Self {
        Memory {
            data: GuestMemory::new(),
            system: MemSystem::new(config),
        }
    }

    /// Untimed write (used by test/benchmark setup, not charged to anyone).
    pub fn write_u64(&mut self, addr: u64, value: u64) {
        self.data.write_u64(addr, value);
    }

    /// Untimed read.
    pub fn read_u64(&self, addr: u64) -> u64 {
        self.data.read_u64(addr)
    }

    /// Timed u64 read: returns the value and its cycle cost.
    pub fn read_u64_timed(&mut self, addr: u64) -> (u64, Cycles) {
        let cycles = self.system.access(addr, 8, AccessKind::Read);
        (self.data.read_u64(addr), cycles)
    }

    /// Timed u64 write.
    pub fn write_u64_timed(&mut self, addr: u64, value: u64) -> Cycles {
        self.data.write_u64(addr, value);
        self.system.access(addr, 8, AccessKind::Write)
    }

    /// Timed byte-block read into `buf`.
    pub fn read_bytes_timed(&mut self, addr: u64, buf: &mut [u8]) -> Cycles {
        let cycles = self.system.access(addr, buf.len(), AccessKind::Read);
        self.data.read_bytes(addr, buf);
        cycles
    }

    /// Timed byte-block write.
    pub fn write_bytes_timed(&mut self, addr: u64, bytes: &[u8]) -> Cycles {
        self.data.write_bytes(addr, bytes);
        self.system.access(addr, bytes.len(), AccessKind::Write)
    }

    /// Timed streaming read (memloader-style).
    pub fn stream_read(&mut self, addr: u64, buf: &mut [u8]) -> Cycles {
        let cycles = self.system.stream(addr, buf.len(), AccessKind::Read);
        self.data.read_bytes(addr, buf);
        cycles
    }

    /// Timed streaming write (memwriter-style).
    pub fn stream_write(&mut self, addr: u64, bytes: &[u8]) -> Cycles {
        self.data.write_bytes(addr, bytes);
        self.system.stream(addr, bytes.len(), AccessKind::Write)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_access_costs_fall_to_l1_latency() {
        let mut sys = MemSystem::new(MemConfig::default());
        let cold = sys.access(0x1000, 8, AccessKind::Read);
        let warm = sys.access(0x1000, 8, AccessKind::Read);
        assert!(cold > warm, "cold {cold} should exceed warm {warm}");
        // Second touch hits L1 with a resident TLB entry.
        assert_eq!(warm, MemConfig::default().l1_latency);
    }

    #[test]
    fn multi_line_access_charges_each_line() {
        let mut sys = MemSystem::new(MemConfig::default());
        // Warm everything first.
        sys.access(0x1000, 128, AccessKind::Read);
        let one = sys.access(0x1000, 8, AccessKind::Read);
        let two = sys.access(0x1000, 128, AccessKind::Read); // 2 lines
        assert_eq!(two, one * 2);
    }

    #[test]
    fn stream_is_cheaper_than_random_for_long_transfers() {
        let config = MemConfig::default();
        let mut random = MemSystem::new(config);
        let mut streaming = MemSystem::new(config);
        let len = 64 * 1024;
        let mut random_cost = 0;
        for off in (0..len).step_by(64) {
            random_cost += random.access(0x10_0000 + off as u64, 64, AccessKind::Read);
        }
        let stream_cost = streaming.stream(0x10_0000, len, AccessKind::Read);
        assert!(
            stream_cost < random_cost / 2,
            "stream {stream_cost} vs random {random_cost}"
        );
    }

    #[test]
    fn stream_cost_scales_with_bandwidth() {
        let mut sys = MemSystem::new(MemConfig::default());
        // Make an 8 KiB region L1- and TLB-resident, then check the cost of
        // re-streaming it is dominated by the 16 B/cycle bus term.
        sys.stream(0, 8 * 1024, AccessKind::Read);
        sys.stream(0, 8 * 1024, AccessKind::Read);
        let c1 = sys.stream(0, 4 * 1024, AccessKind::Read);
        let c2 = sys.stream(0, 8 * 1024, AccessKind::Read);
        let delta = c2 as i64 - 2 * c1 as i64;
        assert!(delta.abs() < c1 as i64 / 4, "c1={c1} c2={c2}");
    }

    #[test]
    fn warm_promotes_to_llc_not_l1() {
        let mut sys = MemSystem::new(MemConfig::default());
        sys.warm(0x2000, 64);
        let first = sys.access(0x2000, 8, AccessKind::Read);
        // TLB still cold (+walk), line in LLC.
        let expect = MemConfig::default().llc_latency + TlbConfig::default().walk_cycles;
        assert_eq!(first, expect);
    }

    #[test]
    fn stats_accumulate_and_reset() {
        let mut sys = MemSystem::new(MemConfig::default());
        sys.access(0, 8, AccessKind::Read);
        sys.access(0, 8, AccessKind::Write);
        let stats = sys.stats();
        assert_eq!(stats.accesses, 2);
        assert_eq!(stats.bytes, 16);
        assert!(stats.cycles > 0);
        sys.reset();
        assert_eq!(sys.stats().accesses, 0);
    }

    #[test]
    fn memory_bundle_round_trips_data_with_timing() {
        let mut mem = Memory::new(MemConfig::default());
        let c1 = mem.write_u64_timed(0x40, 99);
        let (v, c2) = mem.read_u64_timed(0x40);
        assert_eq!(v, 99);
        assert!(c1 > 0 && c2 > 0);
        let payload = vec![7u8; 300];
        mem.write_bytes_timed(0x1000, &payload);
        let mut buf = vec![0u8; 300];
        mem.stream_read(0x1000, &mut buf);
        assert_eq!(buf, payload);
    }

    #[test]
    fn pipelined_access_is_cheaper_than_blocking() {
        let config = MemConfig::default();
        let mut blocking = MemSystem::new(config);
        let mut pipelined = MemSystem::new(config);
        let mut blocking_cost = 0;
        let mut pipelined_cost = 0;
        for i in 0..64u64 {
            blocking_cost += blocking.access(0x9000 + i * 8, 8, AccessKind::Write);
            pipelined_cost += pipelined.pipelined(0x9000 + i * 8, 8, AccessKind::Write);
        }
        assert!(
            pipelined_cost < blocking_cost,
            "pipelined {pipelined_cost} vs blocking {blocking_cost}"
        );
        assert_eq!(pipelined.pipelined(0x9000, 0, AccessKind::Read), 0);
    }

    #[test]
    fn zero_length_accesses_are_free() {
        let mut sys = MemSystem::new(MemConfig::default());
        assert_eq!(sys.access(0x123, 0, AccessKind::Read), 0);
        assert_eq!(sys.stream(0x123, 0, AccessKind::Read), 0);
    }

    #[test]
    fn requester_stats_attribute_traffic_per_requester() {
        let mut sys = MemSystem::new(MemConfig::default());
        // Requester 0 (default) touches a cold line: DRAM access.
        sys.access(0x1000, 8, AccessKind::Read);
        sys.set_requester(1);
        // Requester 1 re-touches it: L1 hit.
        sys.access(0x1000, 8, AccessKind::Read);
        let r0 = sys.requester_stats(0);
        let r1 = sys.requester_stats(1);
        assert_eq!(r0.accesses, 1);
        assert_eq!(r0.dram_accesses, 1);
        assert_eq!(r0.l1_hits, 0);
        assert_eq!(r1.accesses, 1);
        assert_eq!(r1.l1_hits, 1);
        assert_eq!(r1.dram_accesses, 0);
        assert!((r0.dram_fraction() - 1.0).abs() < 1e-12);
        assert_eq!(r1.dram_fraction(), 0.0);
        // Global stats still see both.
        assert_eq!(sys.stats().accesses, 2);
        // Unknown requesters report zeroes.
        assert_eq!(sys.requester_stats(99), RequesterStats::default());
        sys.reset();
        assert_eq!(sys.requester_stats(1), RequesterStats::default());
    }

    #[test]
    fn tracing_captures_nonempty_accesses_with_attribution() {
        let mut sys = MemSystem::new(MemConfig::default());
        sys.access(0x1000, 8, AccessKind::Read);
        assert!(sys.take_trace().is_empty(), "off by default");
        sys.set_tracing(true);
        assert!(sys.tracing());
        sys.access(0x2000, 16, AccessKind::Write);
        sys.access(0x3000, 0, AccessKind::Read); // zero-length: not recorded
        sys.set_requester(3);
        sys.stream(0x4000, 100, AccessKind::Read);
        sys.pipelined(0x5000, 4, AccessKind::Write);
        let trace = sys.take_trace();
        assert_eq!(
            trace,
            vec![
                AccessRecord {
                    requester: 0,
                    addr: 0x2000,
                    len: 16,
                    kind: AccessKind::Write
                },
                AccessRecord {
                    requester: 3,
                    addr: 0x4000,
                    len: 100,
                    kind: AccessKind::Read
                },
                AccessRecord {
                    requester: 3,
                    addr: 0x5000,
                    len: 4,
                    kind: AccessKind::Write
                },
            ]
        );
        assert_eq!(trace[1].end(), 0x4000 + 100);
        // take_trace drains; reset clears any residue.
        assert!(sys.take_trace().is_empty());
        sys.access(0x6000, 8, AccessKind::Read);
        sys.reset();
        assert!(sys.take_trace().is_empty());
    }

    #[test]
    fn armed_ecc_fault_fires_once_and_latches() {
        let mut sys = MemSystem::new(MemConfig::default());
        sys.arm_ecc(0x1004);
        assert!(sys.take_fault().is_none(), "arming alone raises nothing");
        // Access that misses the armed address: no fault.
        sys.access(0x2000, 8, AccessKind::Read);
        assert!(!sys.fault_pending());
        // Covering access trips it and pays the detection re-read.
        let mut clean = MemSystem::new(MemConfig::default());
        clean.access(0x2000, 8, AccessKind::Read);
        let clean_cost = clean.access(0x1000, 8, AccessKind::Read);
        let faulted_cost = sys.access(0x1000, 8, AccessKind::Read);
        assert_eq!(faulted_cost, clean_cost + MemConfig::default().dram_latency);
        assert_eq!(sys.take_fault(), Some(MemFault::Ecc { addr: 0x1004 }));
        // One-shot: the same access is clean afterwards, and drained stays
        // drained.
        assert!(sys.take_fault().is_none());
        sys.access(0x1000, 8, AccessKind::Read);
        assert!(!sys.fault_pending());
    }

    #[test]
    fn armed_stall_inflates_cycles_and_reset_disarms() {
        let mut sys = MemSystem::new(MemConfig::default());
        let base = sys.stream(0x4000, 256, AccessKind::Read);
        sys.reset();
        sys.arm_stall(0x4010, 1 << 40);
        let stalled = sys.stream(0x4000, 256, AccessKind::Read);
        assert!(
            stalled >= base + (1 << 40),
            "stall must dominate: {stalled}"
        );
        assert_eq!(
            sys.take_fault(),
            Some(MemFault::Stall {
                addr: 0x4010,
                extra: 1 << 40
            })
        );
        // reset() clears both armed and latched faults.
        sys.arm_stall(0x4010, 100);
        sys.arm_ecc(0x4010);
        sys.reset();
        sys.stream(0x4000, 256, AccessKind::Read);
        assert!(sys.take_fault().is_none());
    }

    #[test]
    fn sharers_inflate_streaming_cost() {
        let config = MemConfig::default();
        let mut alone = MemSystem::new(config);
        let mut contended = MemSystem::new(config);
        contended.set_sharers(4);
        let len = 64 * 1024;
        let solo = alone.stream(0x10_0000, len, AccessKind::Read);
        let shared = contended.stream(0x10_0000, len, AccessKind::Read);
        assert!(
            shared > solo * 2,
            "4-way sharing should at least double a cold stream: {shared} vs {solo}"
        );
        // Restoring sharers=1 restores the uncontended cost model.
        contended.set_sharers(1);
        contended.reset();
        alone.reset();
        assert_eq!(
            contended.stream(0x10_0000, len, AccessKind::Read),
            alone.stream(0x10_0000, len, AccessKind::Read)
        );
    }

    #[test]
    fn llc_slice_partitions_capacity_and_outstanding_budget() {
        let base = MemConfig::default();
        let quarter = base.llc_slice(4);
        assert_eq!(quarter.llc.size_bytes, base.llc.size_bytes / 4);
        assert_eq!(quarter.llc.ways, base.llc.ways);
        assert_eq!(quarter.llc.line_bytes, base.llc.line_bytes);
        assert_eq!(quarter.max_outstanding, base.max_outstanding / 4);
        // L1/L2 are per-instance hardware, never sliced.
        assert_eq!(quarter.l1.size_bytes, base.l1.size_bytes);
        assert_eq!(quarter.l2.size_bytes, base.l2.size_bytes);

        // Non-power-of-two groups round up to the po2 geometry the cache
        // model requires; one group is the identity slice.
        assert_eq!(base.llc_slice(3).llc.size_bytes, base.llc.size_bytes / 4);
        assert_eq!(base.llc_slice(1).llc.size_bytes, base.llc.size_bytes);

        // Extreme slicing clamps to one set and one outstanding miss but
        // must stay constructible.
        let tiny = base.llc_slice(1 << 30);
        assert_eq!(tiny.llc.size_bytes, base.llc.ways * base.llc.line_bytes);
        assert_eq!(tiny.max_outstanding, 1);
        let _ = MemSystem::new(tiny);
    }

    #[test]
    fn access_across_the_top_of_the_address_space_probes_both_ends() {
        let config = MemConfig::default();
        let mut sys = MemSystem::new(config);
        // The last line of the top page and line 0 of page 0: two walks and
        // two cold line fetches.
        let cold = sys.access(u64::MAX - 3, 8, AccessKind::Read);
        assert_eq!(cold, 2 * config.tlb.walk_cycles + 2 * config.dram_latency);
        let s = sys.stats();
        assert_eq!((s.l1.hits, s.l1.misses), (0, 2));
        // Both halves are now resident.
        assert_eq!(sys.access(0, 4, AccessKind::Read), config.l1_latency);
        assert_eq!(sys.access(u64::MAX, 1, AccessKind::Read), config.l1_latency);
        // A range ending exactly at u64::MAX does not wrap.
        assert_eq!(
            sys.access(u64::MAX - 7, 8, AccessKind::Read),
            config.l1_latency
        );
    }

    #[test]
    fn stream_and_pipelined_wrap_like_access() {
        for mode in 0..3 {
            let mut sys = MemSystem::new(MemConfig::default());
            let len = 256;
            let addr = 0u64.wrapping_sub(128);
            match mode {
                0 => sys.access(addr, len, AccessKind::Write),
                1 => sys.stream(addr, len, AccessKind::Write),
                _ => sys.pipelined(addr, len, AccessKind::Write),
            };
            let s = sys.stats();
            assert_eq!(s.l1.misses, 4, "mode {mode}: two lines at each end");
            assert_eq!(sys.requester_stats(0).dram_accesses, 4, "mode {mode}");
        }
    }

    #[test]
    fn warm_wraps_like_access() {
        let mut sys = MemSystem::new(MemConfig::default());
        sys.warm(u64::MAX - 3, 8);
        sys.access(0, 8, AccessKind::Read);
        sys.access(u64::MAX - 3, 4, AccessKind::Read);
        assert_eq!(sys.stats().llc.hits, 2);
    }

    #[test]
    fn armed_fault_in_the_wrapped_part_of_a_range_fires() {
        let mut sys = MemSystem::new(MemConfig::default());
        sys.arm_ecc(2);
        sys.arm_ecc(u64::MAX);
        sys.access(u64::MAX - 3, 8, AccessKind::Read);
        assert_eq!(sys.take_fault(), Some(MemFault::Ecc { addr: 2 }));
        // Both armed faults were covered, so both were consumed.
        sys.access(u64::MAX - 3, 8, AccessKind::Read);
        assert_eq!(sys.take_fault(), None);
    }
}
