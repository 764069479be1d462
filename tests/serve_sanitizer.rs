//! End-to-end tests of the serve-model race/hazard sanitizer: an
//! instrumented [`ServeCluster`] run replayed through
//! [`protoacc_suite::absint::sanitize`] and the lint severity machinery.
//!
//! * a clean concurrent run (per-request destination objects) produces no
//!   findings;
//! * deliberately sharing one destination object across simultaneous
//!   deserializations trips PA009 (arena aliasing);
//! * tampered command records trip PA008 (lifecycle ordering);
//! * artificially tightened envelopes trip PA007 — proving the envelope
//!   check actually compares against the measured service times;
//! * the footprints the sanitizer reads, rebuilt from the run's trace, hold
//!   one entry per record with the ranges each command really touched.

use protoacc_suite::absint::from_trace::footprints_from_trace;
use protoacc_suite::absint::{self, CommandFootprint, Envelope, FindingKind, ServiceBounds};
use protoacc_suite::accel::{
    CommandRecord, Dest, DispatchPolicy, Request, Scenario, ServeCluster, ServeConfig,
};
use protoacc_suite::lint::{findings_to_diagnostics, DiagCode, LintConfig, Severity};
use protoacc_suite::mem::{MemConfig, Memory};
use protoacc_suite::runtime::{BumpArena, MessageValue, Value};
use protoacc_suite::schema::parse_proto;
use protoacc_suite::trace::TraceLog;

const ARENA_BASE: u64 = 0x1_0000_0000;
const ARENA_STRIDE: u64 = 1 << 24;

struct Fixture {
    mem: Memory,
    /// One staged `Req` prototype.
    scenario: Scenario,
    /// Its `(deser, ser)` envelopes.
    envs: (Envelope, Envelope),
    /// Per-request destination objects ([`Dest::Fresh`]).
    dests: BumpArena,
}

/// A finished cluster plus the per-command footprints its trace yielded.
struct TracedRun {
    cluster: ServeCluster,
    footprints: Vec<CommandFootprint>,
}

impl TracedRun {
    fn footprints(&self) -> &[CommandFootprint] {
        &self.footprints
    }
}

impl std::ops::Deref for TracedRun {
    type Target = ServeCluster;

    fn deref(&self) -> &ServeCluster {
        &self.cluster
    }
}

fn fixture() -> Fixture {
    let schema = parse_proto(
        "message Req { optional uint64 id = 1; optional string body = 2; \
         optional bytes blob = 3; }",
    )
    .unwrap();
    let mut msg = MessageValue::new(schema.id_by_name("Req").unwrap());
    msg.set(1, Value::UInt64(42)).unwrap();
    msg.set(2, Value::Str("sanitize this serving run".into()))
        .unwrap();
    msg.set(3, Value::Bytes(vec![0xAB; 400])).unwrap();
    let mut mem = Memory::new(MemConfig::default());
    let scenario = Scenario::new(&schema, [&msg], &mut mem).unwrap();
    let envs = Envelope::per_prototype(&schema, &scenario).remove(0);
    Fixture {
        mem,
        scenario,
        envs,
        dests: BumpArena::new(0xC000_0000, 1 << 24),
    }
}

impl Fixture {
    /// Simultaneous requests at cycle 0, one per entry of `deser` (true
    /// deserializes, false serializes). Deserializations write to the
    /// prototype's one shared slot when `shared`, else to fresh objects.
    fn burst(&mut self, deser: impl IntoIterator<Item = bool>, shared: bool) -> Vec<Request> {
        let dest = if shared {
            Dest::Shared
        } else {
            Dest::Fresh(&mut self.dests)
        };
        self.scenario
            .requests(deser.into_iter().map(|d| (0, d, 0)), dest)
            .unwrap()
    }

    /// Runs `requests` on a cluster with an event tracer attached and
    /// returns it with the footprints rebuilt from the trace.
    fn run(&mut self, instances: usize, requests: &[Request]) -> TracedRun {
        let mut cluster = ServeCluster::new(
            ServeConfig {
                instances,
                queue_depth: 64,
                policy: DispatchPolicy::Fifo,
                ..ServeConfig::default()
            },
            ARENA_BASE,
            ARENA_STRIDE,
        );
        let log = TraceLog::shared();
        cluster.set_tracer(Some(log.clone()));
        cluster.run(&mut self.mem, requests).unwrap();
        let footprints = footprints_from_trace(&log.borrow().events, instances);
        TracedRun {
            cluster,
            footprints,
        }
    }

    /// Static per-record service bounds from the absint envelopes.
    fn bounds(&self, records: &[CommandRecord]) -> Vec<ServiceBounds> {
        let (denv, senv) = &self.envs;
        records
            .iter()
            .map(|r| {
                let env = if r.deser { denv } else { senv };
                let b = env.service_bounds(r.wire_bytes, r.sharers);
                ServiceBounds {
                    seq: r.seq,
                    lower: b.lower,
                    upper: b.upper,
                }
            })
            .collect()
    }
}

#[test]
fn clean_concurrent_run_produces_no_findings() {
    let mut f = fixture();
    // Simultaneous arrivals across 2 instances: genuine time overlap, but
    // every deserialization gets its own destination object.
    let requests = f.burst((0..12).map(|i| i % 3 != 2), false);
    let cluster = f.run(2, &requests);
    assert!(
        cluster.records().iter().any(|r| r.sharers > 1),
        "fixture must actually exercise concurrency"
    );
    let bounds = f.bounds(cluster.records());
    let findings = absint::sanitize(
        cluster.records(),
        cluster.footprints(),
        2,
        requests.len() as u64,
        cluster.dropped(),
        &bounds,
    );
    assert!(findings.is_empty(), "clean run flagged: {findings:?}");
}

#[test]
fn trace_footprints_capture_per_command_ranges() {
    let mut f = fixture();
    // 8 requests 50 cycles apart, alternating deserialize/serialize.
    let requests = f
        .scenario
        .requests((0..8).map(|i| (0, i % 2 == 0, i * 50)), Dest::Shared)
        .unwrap();
    let run = f.run(2, &requests);
    assert_eq!(run.footprints().len(), run.records().len());
    let staged = &f.scenario.staged[0];
    let (start, end) = (staged.input_addr, staged.input_addr + staged.input_len);
    for (fp, r) in run.footprints().iter().zip(run.records()) {
        assert_eq!(fp.seq, r.seq);
        assert!(!fp.reads.is_empty(), "cmd {} read nothing", r.seq);
        assert!(!fp.writes.is_empty(), "cmd {} wrote nothing", r.seq);
        for w in fp.reads.iter().chain(&fp.writes) {
            assert!(w.0 < w.1, "empty range");
        }
        // Every deser command reads the whole staged wire input.
        if r.deser {
            assert!(
                fp.reads.iter().any(|&(lo, hi)| lo <= start && hi >= end),
                "cmd {} missing wire read",
                r.seq
            );
        }
    }
}

#[test]
fn shared_destination_across_instances_trips_pa009() {
    let mut f = fixture();
    // Two simultaneous deserializations into the SAME destination object
    // (`Dest::Shared`): with 2 instances both run at cycle 0 and their write
    // ranges collide.
    let requests = f.burst([true, true], true);
    let cluster = f.run(2, &requests);
    let bounds = f.bounds(cluster.records());
    let findings = absint::sanitize(
        cluster.records(),
        cluster.footprints(),
        2,
        requests.len() as u64,
        cluster.dropped(),
        &bounds,
    );
    let aliasing: Vec<_> = findings
        .iter()
        .filter(|x| x.kind == FindingKind::Aliasing)
        .collect();
    assert!(!aliasing.is_empty(), "shared dest must alias: {findings:?}");
    // And nothing else fired: the hazard is isolated to PA009.
    assert_eq!(aliasing.len(), findings.len(), "{findings:?}");

    // Through the lint mapping it denies as PA009.
    let diags = findings_to_diagnostics(&findings, &LintConfig::default());
    assert!(diags
        .iter()
        .all(|d| d.code == DiagCode::ArenaAliasing && d.severity == Severity::Deny));

    // Serializing the shared object concurrently only *reads* it: no hazard.
    let requests = f.burst([false, false], true);
    let cluster = f.run(2, &requests);
    let bounds = f.bounds(cluster.records());
    let findings = absint::sanitize(
        cluster.records(),
        cluster.footprints(),
        2,
        2,
        cluster.dropped(),
        &bounds,
    );
    assert!(
        findings.is_empty(),
        "read-read sharing flagged: {findings:?}"
    );
}

#[test]
fn tampered_records_trip_pa008() {
    let mut f = fixture();
    let requests = f.burst([true; 6], false);
    let cluster = f.run(2, &requests);
    let mut records = cluster.records().to_vec();

    // Rewind one dispatch before its enqueue: a causality violation no
    // legal scheduler can produce.
    records[3].dispatch = records[3].enqueue.saturating_sub(1);
    let findings = absint::check_lifecycle(&records, 2, requests.len() as u64, 0);
    assert!(
        findings
            .iter()
            .any(|x| x.kind == FindingKind::Lifecycle && x.seq == Some(records[3].seq)),
        "{findings:?}"
    );

    // Duplicate sequence numbers are double-retirement.
    let mut records = cluster.records().to_vec();
    records[1].seq = records[0].seq;
    let findings = absint::check_lifecycle(&records, 2, requests.len() as u64, 1);
    assert!(
        findings.iter().any(|x| x.kind == FindingKind::Lifecycle),
        "{findings:?}"
    );

    // Accounting: completed + dropped must equal offered.
    let findings = absint::check_lifecycle(cluster.records(), 2, requests.len() as u64 + 5, 0);
    assert!(
        findings
            .iter()
            .any(|x| x.kind == FindingKind::Lifecycle && x.seq.is_none()),
        "{findings:?}"
    );

    // The untampered records are clean.
    let findings = absint::check_lifecycle(cluster.records(), 2, requests.len() as u64, 0);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn tightened_envelopes_trip_pa007() {
    let mut f = fixture();
    let requests = f.burst([true; 4], false);
    let cluster = f.run(1, &requests);
    let honest = f.bounds(cluster.records());
    assert!(
        absint::check_envelopes(cluster.records(), &honest).is_empty(),
        "honest envelopes must pass"
    );

    // Claim every command finishes in at most 1 cycle: every record is now
    // out of envelope, proving the check reads the measured service times.
    let impossible: Vec<ServiceBounds> = honest
        .iter()
        .map(|b| ServiceBounds {
            seq: b.seq,
            lower: 0,
            upper: 1,
        })
        .collect();
    let findings = absint::check_envelopes(cluster.records(), &impossible);
    assert_eq!(findings.len(), cluster.records().len());
    assert!(findings.iter().all(|x| x.kind == FindingKind::Envelope));

    // A floor above the measured time also violates (two-sided check).
    let too_high: Vec<ServiceBounds> = cluster
        .records()
        .iter()
        .map(|r| ServiceBounds {
            seq: r.seq,
            lower: r.service + 1,
            upper: u64::MAX,
        })
        .collect();
    let findings = absint::check_envelopes(cluster.records(), &too_high);
    assert_eq!(findings.len(), cluster.records().len());
}
