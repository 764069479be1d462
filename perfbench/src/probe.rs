//! The benchmark's own observer of the simulator: a [`Tracer`] sink that
//! tallies per-layer counts and stamps host time at op-span boundaries,
//! plus replays that time one layer's public functions in isolation on the
//! call stream a traced run recorded.

use std::time::Instant;

use protoacc_mem::{AccessKind, GuestMemory, MemConfig, MemSystem};
use protoacc_trace::{AdtUnit, CmdOutcome, MemAccessMode, TraceEvent, Tracer};

/// Work done by one accelerator unit (deserializer or serializer).
#[derive(Debug, Default, Clone, Copy)]
pub struct UnitTally {
    pub ops: u64,
    pub fields: u64,
    pub cycles: u64,
    pub adt_misses: u64,
    /// Host ns from each op's `CmdDispatch` to its `DeserOp`/`SerOp`.
    pub host_ns: f64,
}

/// Memory-system traffic seen through `MemAccess` events.
#[derive(Debug, Default, Clone, Copy)]
pub struct MemTally {
    pub accesses: u64,
    pub l1_hits: u64,
    pub l2_hits: u64,
    pub llc_hits: u64,
    pub dram: u64,
    pub tlb_walk_cycles: u64,
}

/// One memory-system call, as much of it as a replay needs.
#[derive(Debug, Clone, Copy)]
pub struct MemCall {
    pub requester: usize,
    pub addr: u64,
    pub len: usize,
    pub write: bool,
    pub mode: MemAccessMode,
}

/// Tracer sink owned by the benchmark. It stamps `Instant` only at the two
/// events that bracket an op (`CmdDispatch`, then `DeserOp`/`SerOp`), so
/// the host time it attributes to the units excludes the sink's own
/// per-event bookkeeping elsewhere.
#[derive(Debug, Default)]
pub struct LayerTracer {
    pub events: u64,
    pub deser: UnitTally,
    pub ser: UnitTally,
    pub mem: MemTally,
    /// Memory calls in issue order, for the mem replays.
    pub mem_calls: Vec<MemCall>,
    /// `dispatch - enqueue` of every served command, in cycles.
    pub queue_waits: Vec<u64>,
    dispatched: Option<Instant>,
}

impl LayerTracer {
    /// Host ns spent inside op spans (dispatch to op completion).
    pub fn op_host_ns(&self) -> f64 {
        self.deser.host_ns + self.ser.host_ns
    }
}

impl Tracer for LayerTracer {
    fn record(&mut self, event: TraceEvent) {
        self.events += 1;
        match event {
            TraceEvent::CmdDispatch { .. } => self.dispatched = Some(Instant::now()),
            TraceEvent::DeserOp { cycles, fields, .. } => {
                let host = self
                    .dispatched
                    .take()
                    .map_or(0.0, |t| t.elapsed().as_nanos() as f64);
                self.deser.ops += 1;
                self.deser.fields += fields;
                self.deser.cycles += cycles;
                self.deser.host_ns += host;
            }
            TraceEvent::SerOp { cycles, fields, .. } => {
                let host = self
                    .dispatched
                    .take()
                    .map_or(0.0, |t| t.elapsed().as_nanos() as f64);
                self.ser.ops += 1;
                self.ser.fields += fields;
                self.ser.cycles += cycles;
                self.ser.host_ns += host;
            }
            TraceEvent::AdtAccess {
                unit, hit: false, ..
            } => match unit {
                AdtUnit::Deser => self.deser.adt_misses += 1,
                AdtUnit::Ser => self.ser.adt_misses += 1,
            },
            TraceEvent::CmdComplete {
                enqueue,
                dispatch,
                outcome: CmdOutcome::Ok | CmdOutcome::Fallback,
                ..
            } => self.queue_waits.push(dispatch - enqueue),
            TraceEvent::MemAccess {
                requester,
                addr,
                len,
                write,
                mode,
                tlb_walk_cycles,
                l1_hits,
                l2_hits,
                llc_hits,
                dram_accesses,
                ..
            } => {
                let m = &mut self.mem;
                m.accesses += 1;
                m.l1_hits += l1_hits;
                m.l2_hits += l2_hits;
                m.llc_hits += llc_hits;
                m.dram += dram_accesses;
                m.tlb_walk_cycles += tlb_walk_cycles;
                self.mem_calls.push(MemCall {
                    requester,
                    addr,
                    len: len as usize,
                    write,
                    mode,
                });
            }
            _ => {}
        }
    }
}

/// What replaying a recorded call stream through a fresh `MemSystem`
/// counted, and how long each call took on the host.
#[derive(Debug, Clone, Copy)]
pub struct SystemReplay {
    pub accesses: u64,
    pub l1_hits: u64,
    pub l2_hits: u64,
    pub llc_hits: u64,
    pub dram: u64,
    pub ns_per_call: f64,
}

/// Replays `calls` through `MemSystem::access`/`stream`/`pipelined` on a
/// fresh hierarchy built from `config`.
pub fn replay_system(config: MemConfig, calls: &[MemCall]) -> SystemReplay {
    let mut sys = MemSystem::new(config);
    let mut requester = 0;
    let mut cycles = 0u64;
    let start = Instant::now();
    for c in calls {
        if c.requester != requester {
            requester = c.requester;
            sys.set_requester(requester);
        }
        let kind = if c.write {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        cycles = cycles.wrapping_add(match c.mode {
            MemAccessMode::Blocking => sys.access(c.addr, c.len, kind),
            MemAccessMode::Stream => sys.stream(c.addr, c.len, kind),
            MemAccessMode::Pipelined => sys.pipelined(c.addr, c.len, kind),
        });
    }
    let ns = start.elapsed().as_nanos() as f64;
    std::hint::black_box(cycles);
    let top = calls.iter().map(|c| c.requester).max().unwrap_or(0);
    let (mut l1, mut l2, mut llc, mut dram) = (0, 0, 0, 0);
    for r in 0..=top {
        let s = sys.requester_stats(r);
        l1 += s.l1_hits;
        l2 += s.l2_hits;
        llc += s.llc_hits;
        dram += s.dram_accesses;
    }
    SystemReplay {
        accesses: sys.stats().accesses,
        l1_hits: l1,
        l2_hits: l2,
        llc_hits: llc,
        dram,
        ns_per_call: ns / calls.len().max(1) as f64,
    }
}

/// Replays `calls` as byte moves through `GuestMemory::read_bytes` /
/// `write_bytes` on a fresh guest image; returns host ns per call.
pub fn replay_guest(calls: &[MemCall]) -> f64 {
    let mut guest = GuestMemory::new();
    let widest = calls.iter().map(|c| c.len).max().unwrap_or(0);
    let mut buf = vec![0u8; widest];
    let start = Instant::now();
    for c in calls {
        if c.write {
            guest.write_bytes(c.addr, &buf[..c.len]);
        } else {
            guest.read_bytes(c.addr, &mut buf[..c.len]);
        }
    }
    let ns = start.elapsed().as_nanos() as f64;
    std::hint::black_box(&buf);
    ns / calls.len().max(1) as f64
}
