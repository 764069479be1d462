//! Trace-accounting golden test: one HyperProtoBench service served
//! end-to-end with the structured tracer attached, proving the tracing
//! layer's accounting anchor — per-instance `DeserOp`/`SerOp` span sums
//! equal the cluster's `AccelStats` deser/ser op and cycle counters
//! *exactly*, not approximately — on a clean run and on a run with a
//! mid-stream instance crash (every command span reaches a terminal event;
//! a fault must not leak spans).

use protoacc_suite::accel::{
    CommandStatus, Dest, DispatchPolicy, InstanceFault, InstanceFaultKind, Scenario, ServeCluster,
    ServeConfig,
};
use protoacc_suite::hyperbench::{Generator, ServiceProfile};
use protoacc_suite::mem::{Cycles, MemConfig, Memory};
use protoacc_suite::runtime::BumpArena;
use protoacc_suite::trace::{audit, ExpectedStats, TraceEvent, TraceLog};

/// Guest-memory map around the staged scenario: per-request destination
/// objects, per-instance accelerator arenas.
const DEST_BASE: u64 = 0xC000_0000;
const ARENA_BASE: u64 = 0x1_0000_0000;
const ARENA_STRIDE: u64 = 1 << 24;

const MESSAGES: usize = 24;
/// Small enough to keep both instances saturated, so a scripted crash is
/// guaranteed to cut an in-flight attempt (the interesting accounting case)
/// rather than being noticed between commands.
const GAP: Cycles = 200;

struct TracedRun {
    events: Vec<TraceEvent>,
    expected: Vec<ExpectedStats>,
    cluster: ServeCluster,
}

/// Serves one hyperbench service (bench0, ads-serving) through a traced
/// cluster: two deserializations per serialization over the generated
/// population, every destination object isolated per request.
fn run_service(instances: usize, faults: &[InstanceFault]) -> TracedRun {
    let bench = Generator::new(ServiceProfile::bench(0), 0x7C1).generate(MESSAGES);
    let mut mem = Memory::new(MemConfig::default());
    let scenario = Scenario::new(&bench.schema, &bench.messages, &mut mem).unwrap();
    let mut dests = BumpArena::new(DEST_BASE, 1 << 28);
    let requests = scenario
        .requests(
            (0..MESSAGES).map(|i| (i, i % 3 != 2, i as Cycles * GAP)),
            Dest::Fresh(&mut dests),
        )
        .unwrap();

    let cfg = ServeConfig {
        instances,
        queue_depth: 256,
        policy: DispatchPolicy::Fifo,
        ..ServeConfig::default()
    };
    let mut cluster = ServeCluster::new(cfg, ARENA_BASE, ARENA_STRIDE);
    let log = TraceLog::shared();
    cluster.set_tracer(Some(log.clone()));
    cluster
        .run_with(&mut mem, &requests, faults, None)
        .expect("serve run succeeds");
    cluster.set_tracer(None);
    let expected = (0..instances)
        .map(|i| {
            let s = cluster.instance_stats(i);
            s.debug_assert_unsaturated();
            ExpectedStats {
                instance: i,
                deser_ops: s.deser_ops,
                deser_cycles: s.deser_cycles,
                ser_ops: s.ser_ops,
                ser_cycles: s.ser_cycles,
                saturated: s.saturated,
            }
        })
        .collect();
    let events = std::mem::take(&mut log.borrow_mut().events);
    TracedRun {
        events,
        expected,
        cluster,
    }
}

/// Independent re-derivation of the span sums (not via `audit`), so the
/// golden check does not trust the thing it is testing.
fn traced_sums(events: &[TraceEvent], instance: usize) -> (u64, Cycles, u64, Cycles) {
    let mut sums = (0u64, 0u64, 0u64, 0u64);
    for e in events {
        match *e {
            TraceEvent::DeserOp {
                instance: i,
                cycles,
                ..
            } if i == instance => {
                sums.0 += 1;
                sums.1 += cycles;
            }
            TraceEvent::SerOp {
                instance: i,
                cycles,
                ..
            } if i == instance => {
                sums.2 += 1;
                sums.3 += cycles;
            }
            _ => {}
        }
    }
    sums
}

#[test]
fn clean_hyperbench_service_traced_spans_sum_exactly_to_accel_stats() {
    let run = run_service(2, &[]);
    assert_eq!(run.cluster.served(), MESSAGES as u64);
    assert_eq!(run.cluster.dropped(), 0);

    for exp in &run.expected {
        let (dops, dcyc, sops, scyc) = traced_sums(&run.events, exp.instance);
        assert_eq!(
            (dops, dcyc, sops, scyc),
            (exp.deser_ops, exp.deser_cycles, exp.ser_ops, exp.ser_cycles),
            "instance {} traced span sums diverge from AccelStats",
            exp.instance
        );
    }
    let report = audit(&run.events, &run.expected);
    assert!(report.ok(), "audit problems: {:?}", report.problems);
    assert!(report.leaked.is_empty());
    assert!(report.duplicated.is_empty());
    assert!(run.events.len() > MESSAGES, "trace is suspiciously sparse");
}

#[test]
fn mid_stream_instance_crash_closes_every_span_and_keeps_the_accounting_exact() {
    // Mid-stream, well past the last arrival but inside the busy window the
    // saturated queue creates: instance 0 has a command in flight when the
    // crash fires, so the attempt is cut short and retried elsewhere.
    let crash = InstanceFault {
        instance: 0,
        at: 8_000,
        kind: InstanceFaultKind::Crash,
    };
    let run = run_service(2, &[crash]);

    // The fault must actually have fired and been absorbed by failover.
    assert_eq!(run.cluster.records().len(), MESSAGES);
    assert!(
        run.cluster
            .records()
            .iter()
            .any(|r| r.attempts > 1 || r.instance == 1),
        "the crash never perturbed the schedule"
    );
    assert!(
        run.cluster
            .records()
            .iter()
            .all(|r| matches!(r.status, CommandStatus::Ok)),
        "with a healthy second instance every command still completes: {:?}",
        run.cluster.status_counts()
    );

    // Accounting stays exact through the fault: killed attempts charge the
    // instance counters and the traced spans identically, and no command
    // span is left open.
    for exp in &run.expected {
        let (dops, dcyc, sops, scyc) = traced_sums(&run.events, exp.instance);
        assert_eq!(
            (dops, dcyc, sops, scyc),
            (exp.deser_ops, exp.deser_cycles, exp.ser_ops, exp.ser_cycles),
            "instance {} accounting diverged under the crash",
            exp.instance
        );
    }
    let report = audit(&run.events, &run.expected);
    assert!(report.ok(), "audit problems: {:?}", report.problems);
    assert!(
        report.leaked.is_empty(),
        "crash leaked command spans: {:?}",
        report.leaked
    );

    // The degradation is visible in the trace itself: the retry marker
    // rides the event stream, so an offline consumer can see the failover.
    assert!(
        run.events
            .iter()
            .any(|e| matches!(e, TraceEvent::CmdRetry { .. })),
        "no retry event traced for a mid-stream crash"
    );
}
