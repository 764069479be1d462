//! The two simulator workloads: `sim_fleet` (the fixed 8-cell x 2-instance
//! sharded decomposition at rho ~0.7) and `rpc_overload` (framed requests
//! through `RpcServer` at twice the cell's capacity).
//!
//! Inputs (the traffic mix, arrival schedules, frames) are generated once
//! from the seed. Every trial then stages a fresh memory image, builds
//! fresh clusters and replays the same inputs, so every trial must produce
//! the same simulated fingerprint.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Mutex;
use std::time::Instant;

use protoacc::serve::{CommandRecord, CommandStatus};
use protoacc::{
    AccelConfig, DispatchPolicy, Request, RequestOp, ServeCluster, ServeConfig, ShardOutcome,
    ShardedCluster,
};
use protoacc_absint::Envelope;
use protoacc_fleet::traffic::{split_seed, TrafficEvent, TrafficMix};
use protoacc_mem::{Cycles, MemConfig, Memory};
use protoacc_rpc::{
    encode_frame, IncomingFrame, Method, RpcConfig, RpcHeader, RpcServer, RpcStats,
};
use protoacc_runtime::{object, reference, write_adts, BumpArena, MessageLayouts};
use protoacc_trace::SharedTracer;
use xrand::StdRng;

use crate::probe::LayerTracer;

/// The fleet mix both simulator workloads draw from: 64 prototypes
/// synthesized from a fixed seed (the population `serve_tail_latency` and
/// `serve_rpc` use). The run's seed draws the traffic over it; a mix drawn
/// from the run's seed too would move commands/s by +-25% between seeds.
const PROTOTYPES: usize = 64;
const MIX_SEED: u64 = 0xF1EE7;
/// Per-instance slice of guest memory for accelerator arenas (64 MiB).
const ARENA_STRIDE: u64 = 1 << 26;
const ARENA_BASE: u64 = 0x1_0000_0000;
/// Fresh destination objects for `sim_fleet` deserializations.
const DEST_BASE: u64 = 0xC000_0000;
const DEST_LEN: u64 = 1 << 28;

/// `sim_fleet`: cells in the fixed decomposition, instances per cell,
/// commands per cell per trial, and offered load as a share of the
/// calibrated cell capacity.
const FLEET_CELLS: usize = 8;
const FLEET_INSTANCES: usize = 2;
const FLEET_PER_CELL: usize = 512;
const FLEET_QUEUE_DEPTH: usize = 256;
const FLEET_RHO: f64 = 0.7;

/// `rpc_overload`: the settings of `serve_rpc`'s open-loop 2x cell.
const RPC_INSTANCES: usize = 4;
const RPC_CONNS: usize = 8;
const RPC_WINDOW: usize = 16;
const RPC_DEADLINE_SLACK: u64 = 4;
const RPC_QUEUE_DEPTH: usize = 256;
const RPC_RHO: f64 = 2.0;
const RPC_REQUESTS: usize = 2048;

/// Which simulator workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimKind {
    Fleet,
    Rpc,
}

/// One shard's inputs.
enum CellInput {
    Fleet(Vec<Request>),
    Rpc(Vec<IncomingFrame>),
}

/// Everything a trial replays, generated once from the seed.
pub struct SimInputs {
    mix: TrafficMix,
    mem_config: MemConfig,
    cells: Vec<CellInput>,
}

/// Guest addresses of one staged prototype.
#[derive(Debug, Clone, Copy)]
struct Staged {
    type_id: protoacc_schema::MessageId,
    adt_ptr: u64,
    input_addr: u64,
    input_len: u64,
    dest_obj: u64,
    obj_ptr: u64,
    object_size: u64,
    hasbits_offset: u64,
    min_field: u32,
    max_field: u32,
}

impl Staged {
    fn deser(&self, dest_obj: u64) -> RequestOp {
        RequestOp::Deserialize {
            adt_ptr: self.adt_ptr,
            input_addr: self.input_addr,
            input_len: self.input_len,
            dest_obj,
            min_field: self.min_field,
        }
    }

    fn ser(&self) -> RequestOp {
        RequestOp::Serialize {
            adt_ptr: self.adt_ptr,
            obj_ptr: self.obj_ptr,
            hasbits_offset: self.hasbits_offset,
            min_field: self.min_field,
            max_field: self.max_field,
        }
    }
}

/// Writes ADTs, wire inputs, object graphs and one destination slot per
/// prototype into `mem`. Addresses depend only on the mix.
fn stage(mix: &TrafficMix, layouts: &MessageLayouts, mem: &mut Memory) -> Vec<Staged> {
    let mut setup = BumpArena::new(0x1_0000, 1 << 26);
    let adts = write_adts(&mix.schema, layouts, &mut mem.data, &mut setup).expect("ADTs fit");
    let mut input_cursor = 0x2000_0000u64;
    let mut objects = BumpArena::new(0x8000_0000, 1 << 30);
    mix.prototypes
        .iter()
        .map(|p| {
            let wire = reference::encode(&p.message, &mix.schema).expect("prototype encodes");
            let input_addr = input_cursor;
            mem.data.write_bytes(input_addr, &wire);
            input_cursor += wire.len() as u64 + 64;
            let obj_ptr = object::write_message(
                &mut mem.data,
                &mix.schema,
                layouts,
                &mut objects,
                &p.message,
            )
            .expect("prototype materializes");
            let layout = layouts.layout(p.type_id);
            let dest_obj = objects
                .alloc(layout.object_size(), 8)
                .expect("destination fits");
            Staged {
                type_id: p.type_id,
                adt_ptr: adts.addr(p.type_id),
                input_addr,
                input_len: wire.len() as u64,
                dest_obj,
                obj_ptr,
                object_size: layout.object_size(),
                hasbits_offset: layout.hasbits_offset(),
                min_field: layout.min_field(),
                max_field: layout.max_field(),
            }
        })
        .collect()
}

/// The RPC method table: one method per prototype over its single staged
/// destination slot, admission costs from the absint envelopes.
fn methods(mix: &TrafficMix, layouts: &MessageLayouts, staged: &[Staged]) -> Vec<Method> {
    let accel = AccelConfig::default();
    let mem_cfg = MemConfig::default();
    staged
        .iter()
        .map(|s| {
            let deser_env = Envelope::deser(&mix.schema, layouts, s.type_id, &accel, &mem_cfg);
            let ser_env = Envelope::ser(&mix.schema, layouts, s.type_id, &accel, &mem_cfg);
            Method::from_envelopes(
                s.deser(s.dest_obj),
                s.ser(),
                &deser_env,
                &ser_env,
                s.input_len,
                s.input_len,
            )
        })
        .collect()
}

/// Requests for `events`, each deserialization into a fresh destination
/// object so no two in-flight commands alias (no PA009 hazard).
fn isolated_requests(events: &[TrafficEvent], staged: &[Staged]) -> Vec<Request> {
    let mut dests = BumpArena::new(DEST_BASE, DEST_LEN);
    events
        .iter()
        .map(|e| {
            let s = &staged[e.prototype];
            Request {
                arrival: e.arrival,
                watchdog: None,
                deadline: None,
                cost: None,
                op: if e.deser {
                    s.deser(dests.alloc(s.object_size, 8).expect("destination arena"))
                } else {
                    s.ser()
                },
            }
        })
        .collect()
}

fn fleet_config() -> ServeConfig {
    ServeConfig {
        instances: FLEET_INSTANCES,
        queue_depth: FLEET_QUEUE_DEPTH,
        policy: DispatchPolicy::Fifo,
        ..ServeConfig::default()
    }
}

fn rpc_server(methods: Vec<Method>) -> RpcServer {
    RpcServer::new(
        ServeConfig {
            instances: RPC_INSTANCES,
            queue_depth: RPC_QUEUE_DEPTH,
            policy: DispatchPolicy::Fifo,
            ..ServeConfig::default()
        },
        RpcConfig {
            window: RPC_WINDOW,
            ..RpcConfig::default()
        },
        methods,
        ARENA_BASE,
        ARENA_STRIDE,
    )
}

/// One request frame for `method`; with `deadline`, the header carries
/// `RPC_DEADLINE_SLACK` x the direction's admission cost.
fn request_frame(methods: &[Method], method: usize, deser: bool, deadline: bool) -> Vec<u8> {
    let m = methods[method];
    let cost = if deser { m.deser_cost } else { m.ser_cost };
    let header = RpcHeader {
        method: method as u32,
        deser,
        deadline: deadline.then(|| cost.saturating_mul(RPC_DEADLINE_SLACK)),
    };
    encode_frame(false, &header.to_payload()).expect("request header fits the frame ceiling")
}

fn frames(methods: &[Method], events: &[TrafficEvent], deadline: bool) -> Vec<IncomingFrame> {
    events
        .iter()
        .enumerate()
        .map(|(i, e)| IncomingFrame {
            conn: i % RPC_CONNS,
            arrival: e.arrival,
            bytes: request_frame(methods, e.prototype, e.deser, deadline),
        })
        .collect()
}

fn mean_service(records: &[CommandRecord]) -> f64 {
    records.iter().map(|r| r.service).sum::<u64>() as f64 / records.len().max(1) as f64
}

/// Generates a workload's inputs from `seed`. The arrival rate is set from
/// the uncontended mean service time of a sparse calibration stream, so
/// offered load is a fixed share of the cell's capacity for every seed.
pub fn generate(kind: SimKind, seed: u64) -> SimInputs {
    let mix = TrafficMix::build(&mut StdRng::seed_from_u64(MIX_SEED), PROTOTYPES);
    let layouts = MessageLayouts::compute(&mix.schema);
    let stream_seed = split_seed(seed, 1);
    let calibration = {
        let mut rng = StdRng::seed_from_u64(split_seed(seed, 2));
        mix.stream(&mut rng, 64, 10_000_000.0)
    };
    match kind {
        SimKind::Fleet => {
            let mem_config = MemConfig::default().llc_slice(FLEET_CELLS);
            let mut mem = Memory::new(mem_config);
            let staged = stage(&mix, &layouts, &mut mem);
            let service = {
                let mut cluster = ServeCluster::new(fleet_config(), ARENA_BASE, ARENA_STRIDE);
                cluster
                    .run(&mut mem, &isolated_requests(&calibration, &staged))
                    .expect("calibration run succeeds");
                mean_service(cluster.records())
            };
            let gap = service / (FLEET_INSTANCES as f64 * FLEET_RHO);
            let cells = mix
                .shard_streams(stream_seed, FLEET_CELLS, FLEET_PER_CELL, gap)
                .iter()
                .map(|events| CellInput::Fleet(isolated_requests(events, &staged)))
                .collect();
            SimInputs {
                mix,
                mem_config,
                cells,
            }
        }
        SimKind::Rpc => {
            let mem_config = MemConfig::default();
            let mut mem = Memory::new(mem_config);
            let staged = stage(&mix, &layouts, &mut mem);
            let table = methods(&mix, &layouts, &staged);
            let service = {
                let mut srv = rpc_server(table.clone());
                srv.serve(&mut mem, &frames(&table, &calibration, false))
                    .expect("calibration run succeeds");
                mean_service(srv.cluster().records())
            };
            let gap = service / (RPC_INSTANCES as f64 * RPC_RHO);
            let mut rng = StdRng::seed_from_u64(stream_seed);
            let events = mix.stream(&mut rng, RPC_REQUESTS, gap);
            SimInputs {
                mix,
                mem_config,
                cells: vec![CellInput::Rpc(frames(&table, &events, true))],
            }
        }
    }
}

/// Host-side record of one shard of one trial.
pub struct CellRun {
    pub shard: usize,
    /// Staging: layouts, ADTs, wire inputs, objects, and for RPC the
    /// envelopes and method table.
    pub setup_ns: f64,
    /// Simulation of the shard, from the first request to its capture.
    pub run_ns: f64,
    pub offered: u64,
    /// Host ns per `RpcServer::serve` call, one per frame (RPC only).
    pub frame_ns: Vec<f64>,
    pub probe: Option<LayerTracer>,
    pub rpc: Option<RpcStats>,
    pub guest_pages: usize,
}

/// One trial: every shard, then the merge.
pub struct Trial {
    pub cells: Vec<CellRun>,
    pub merge_ns: f64,
    pub fingerprint: String,
    pub invariants: Result<(), String>,
    pub offered: u64,
    pub dropped: u64,
    pub retries: u64,
    /// `(ok, fallback, rejected, failed, shed)`.
    pub status: (u64, u64, u64, u64, u64),
    pub served_p50: Cycles,
    pub served_p99: Cycles,
    pub goodput_gbits: f64,
}

impl Trial {
    pub fn setup_s(&self) -> f64 {
        self.cells.iter().map(|c| c.setup_ns).sum::<f64>() / 1e9
    }

    /// offered = ok + fallback + rejected + failed + shed + dropped.
    pub fn accounting_holds(&self) -> bool {
        let (ok, fb, rej, failed, shed) = self.status;
        ok + fb + rej + failed + shed + self.dropped == self.offered
    }

    /// The tracer of every shard (empty for an untraced trial).
    pub fn probes(&self) -> Vec<&LayerTracer> {
        self.cells.iter().filter_map(|c| c.probe.as_ref()).collect()
    }

    /// Commands that did not end served or deliberately shed.
    pub fn failed(&self) -> u64 {
        let (ok, fb, _, _, shed) = self.status;
        self.offered.saturating_sub(ok + fb + shed)
    }
}

impl SimInputs {
    /// Every frame of the workload (empty for `sim_fleet`).
    pub fn frame_bytes(&self) -> Vec<&[u8]> {
        self.cells
            .iter()
            .flat_map(|c| match c {
                CellInput::Fleet(_) => Vec::new(),
                CellInput::Rpc(frames) => frames.iter().map(|f| f.bytes.as_slice()).collect(),
            })
            .collect()
    }

    pub fn mem_config(&self) -> MemConfig {
        self.mem_config
    }

    /// Runs one trial on one worker; with `traced`, every shard carries a
    /// [`LayerTracer`].
    pub fn trial(&self, traced: bool) -> Trial {
        let side: Mutex<Vec<CellRun>> = Mutex::new(Vec::new());
        let sharded = ShardedCluster::run(&self.cells, 1, |shard, cell| {
            let (outcome, run) = self.run_cell(shard, cell, traced);
            side.lock().expect("cell log poisoned").push(run);
            outcome
        });
        let merge = Instant::now();
        let fingerprint = sharded.fingerprint();
        let invariants = sharded.check_invariants();
        let merge_ns = merge.elapsed().as_nanos() as f64;

        let mut cells = side.into_inner().expect("cell log poisoned");
        cells.sort_by_key(|c| c.shard);
        let served: Vec<f64> = sharded
            .outcomes()
            .iter()
            .flat_map(|o| &o.records)
            .filter(|r| matches!(r.status, CommandStatus::Ok | CommandStatus::Fallback))
            .map(|r| r.latency() as f64)
            .collect();
        let rpc_tail: String = cells
            .iter()
            .filter_map(|c| c.rpc)
            .map(|s| format!(" rpc[{s:?}]"))
            .collect();
        Trial {
            merge_ns,
            fingerprint: fingerprint + &rpc_tail,
            invariants,
            offered: sharded.offered(),
            dropped: sharded.dropped(),
            retries: sharded.retries(),
            status: sharded.status_counts(),
            served_p50: crate::stats::percentile(&served, 50.0) as Cycles,
            served_p99: crate::stats::percentile(&served, 99.0) as Cycles,
            goodput_gbits: sharded.aggregate_gbits(),
            cells,
        }
    }

    fn run_cell(&self, shard: usize, cell: &CellInput, traced: bool) -> (ShardOutcome, CellRun) {
        let t0 = Instant::now();
        let layouts = MessageLayouts::compute(&self.mix.schema);
        let mut mem = Memory::new(self.mem_config);
        let staged = stage(&self.mix, &layouts, &mut mem);
        let table =
            matches!(cell, CellInput::Rpc(_)).then(|| methods(&self.mix, &layouts, &staged));
        let setup_ns = t0.elapsed().as_nanos() as f64;

        let probe = traced.then(|| Rc::new(RefCell::new(LayerTracer::default())));
        let tracer = probe.clone().map(|p| p as SharedTracer);
        let mut frame_ns = Vec::new();
        let t1 = Instant::now();
        let (outcome, rpc) = match cell {
            CellInput::Fleet(requests) => {
                let mut cluster = ServeCluster::new(fleet_config(), ARENA_BASE, ARENA_STRIDE);
                cluster.set_tracer(tracer);
                cluster.run(&mut mem, requests).expect("serve run succeeds");
                cluster.set_tracer(None);
                (
                    ShardOutcome::capture(shard, &cluster, &mem, Vec::new()),
                    None,
                )
            }
            CellInput::Rpc(frames) => {
                let mut srv = rpc_server(table.expect("RPC cells stage a method table"));
                srv.set_tracer(tracer);
                frame_ns.reserve(frames.len());
                // One serve call per frame is the same schedule as one call
                // over all frames: every frame is whole, so closing the
                // connections between calls flags nothing.
                for f in frames {
                    let t = Instant::now();
                    srv.serve(&mut mem, std::slice::from_ref(f))
                        .expect("rpc serve succeeds");
                    frame_ns.push(t.elapsed().as_nanos() as f64);
                }
                srv.set_tracer(None);
                let stats = srv.stats();
                (
                    ShardOutcome::capture(shard, srv.cluster(), &mem, Vec::new()),
                    Some(stats),
                )
            }
        };
        let run_ns = t1.elapsed().as_nanos() as f64;
        let run = CellRun {
            shard,
            setup_ns,
            run_ns,
            offered: outcome.offered,
            frame_ns,
            probe: probe.map(|p| {
                Rc::try_unwrap(p)
                    .expect("tracer detached after the run")
                    .into_inner()
            }),
            rpc,
            guest_pages: mem.data.resident_pages(),
        };
        (outcome, run)
    }

    /// The fingerprint of one call to `RpcServer::serve` over all frames,
    /// the schedule the per-frame timing loop must reproduce.
    pub fn one_shot_rpc_fingerprint(&self) -> Option<String> {
        let CellInput::Rpc(frames) = self.cells.first()? else {
            return None;
        };
        let layouts = MessageLayouts::compute(&self.mix.schema);
        let mut mem = Memory::new(self.mem_config);
        let staged = stage(&self.mix, &layouts, &mut mem);
        let mut srv = rpc_server(methods(&self.mix, &layouts, &staged));
        srv.serve(&mut mem, frames).expect("rpc serve succeeds");
        let stats = srv.stats();
        let outcome = ShardOutcome::capture(0, srv.cluster(), &mem, Vec::new());
        let sharded = ShardedCluster::run(&[outcome], 1, |_, o| o.clone());
        Some(format!("{} rpc[{stats:?}]", sharded.fingerprint()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::replay_system;

    #[test]
    fn tracer_sink_leaves_the_fleet_fingerprint_unchanged() {
        let inputs = generate(SimKind::Fleet, 1);
        let untraced = inputs.trial(false);
        let traced = inputs.trial(true);
        assert!(untraced.invariants.is_ok() && untraced.accounting_holds());
        assert_eq!(traced.fingerprint, untraced.fingerprint);
        assert_eq!(traced.probes().len(), FLEET_CELLS);
    }

    #[test]
    fn mem_replay_reproduces_the_traced_access_count() {
        let inputs = generate(SimKind::Fleet, 1);
        let traced = inputs.trial(true);
        for p in traced.probes() {
            let r = replay_system(inputs.mem_config(), &p.mem_calls);
            assert_eq!(r.accesses, p.mem.accesses);
            assert_eq!(r.accesses, p.mem_calls.len() as u64);
            assert_eq!(
                (r.l1_hits, r.l2_hits, r.llc_hits, r.dram),
                (p.mem.l1_hits, p.mem.l2_hits, p.mem.llc_hits, p.mem.dram)
            );
        }
    }

    #[test]
    fn per_frame_serving_matches_one_serve_call() {
        let inputs = generate(SimKind::Rpc, 1);
        let trial = inputs.trial(false);
        assert_eq!(
            inputs.one_shot_rpc_fingerprint(),
            Some(trial.fingerprint.clone())
        );
        assert_eq!(trial.failed(), 0);
        assert!(trial.status.4 > 0, "2x overload sheds");
    }
}
