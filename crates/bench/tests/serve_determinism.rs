//! End-to-end determinism of the serving model: the full fleet-traffic →
//! staging → multi-instance cluster pipeline must produce byte-identical
//! reports when replayed with the same seeds. This is the property the
//! `serve_tail_latency --smoke` CI gate enforces; here it is pinned as a
//! cargo test over the library APIs.

use protoacc::{Dest, DispatchPolicy, Scenario, ServeCluster, ServeConfig};
use protoacc_fleet::traffic::TrafficMix;
use protoacc_mem::{MemConfig, Memory};
use xrand::StdRng;

/// Runs one seeded stream through a fresh memory image + cluster and
/// renders everything observable into one report string.
fn serve_report(instances: usize, policy: DispatchPolicy) -> String {
    let mut rng = StdRng::seed_from_u64(0xD0D0);
    let mix = TrafficMix::build(&mut rng, 8);
    let mut srng = StdRng::seed_from_u64(0x5EED);
    let events = mix.stream(&mut srng, 64, 2_000.0);

    let mut mem = Memory::new(MemConfig::default());
    let scenario = Scenario::new(&mix.schema, mix.messages(), &mut mem).unwrap();
    let requests = scenario.requests(&events, Dest::Shared).unwrap();

    let mut cluster = ServeCluster::new(
        ServeConfig {
            instances,
            queue_depth: 32,
            policy,
            ..ServeConfig::default()
        },
        0x1_0000_0000,
        1 << 25,
    );
    cluster.run(&mut mem, &requests).unwrap();
    cluster.check_invariants().unwrap();

    let mut report = String::new();
    for r in cluster.records() {
        report.push_str(&format!(
            "{} {} {} {} {} {} {} {} {}\n",
            r.seq,
            r.enqueue,
            r.dispatch,
            r.complete,
            r.service,
            r.instance,
            r.wire_bytes,
            r.deser,
            r.sharers
        ));
    }
    report.push_str(&format!(
        "dropped={} makespan={} bytes={} gbits={:.9} p50={} p95={} p99={}\n",
        cluster.dropped(),
        cluster.makespan(),
        cluster.completed_wire_bytes(),
        cluster.throughput_gbits(),
        cluster.latency_percentile(50.0),
        cluster.latency_percentile(95.0),
        cluster.latency_percentile(99.0),
    ));
    for i in 0..instances {
        let s = cluster.instance_mem_stats(&mem, i);
        report.push_str(&format!(
            "inst{i} accesses={} bytes={} l1={} l2={} llc={} dram={}\n",
            s.accesses, s.bytes, s.l1_hits, s.l2_hits, s.llc_hits, s.dram_accesses
        ));
    }
    report
}

/// 64-bit FNV-1a.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Pins the simulated numbers across commits, not only across replays:
/// the summary line verbatim, plus an FNV-1a digest of every per-record and
/// per-instance line. A refactor of staging, dispatch or the memory model
/// that moves any cycle count fails here.
#[test]
fn serve_reports_match_pinned_goldens() {
    // At this light load (mean gap 2000 cycles over 4 instances) both
    // policies produce the identical schedule.
    const SUMMARY: &str =
        "dropped=0 makespan=134556 bytes=7806 gbits=0.939590449 p50=95 p95=869 p99=1161";
    let goldens = [
        (DispatchPolicy::Fifo, SUMMARY, 0xea17_b547_2c1f_c50a),
        (DispatchPolicy::RoundRobin, SUMMARY, 0xea17_b547_2c1f_c50a),
    ];
    for (policy, summary, digest) in goldens {
        let report = serve_report(4, policy);
        let (lines, summary_line): (Vec<&str>, Vec<&str>) =
            report.lines().partition(|l| !l.starts_with("dropped="));
        assert_eq!(summary_line, [summary], "{} summary moved", policy.label());
        assert_eq!(
            fnv1a64(lines.join("\n").as_bytes()),
            digest,
            "{} per-record/per-instance lines moved",
            policy.label()
        );
    }
}

#[test]
fn multi_instance_serve_runs_are_byte_identical() {
    for policy in [DispatchPolicy::Fifo, DispatchPolicy::RoundRobin] {
        let a = serve_report(4, policy);
        let b = serve_report(4, policy);
        assert_eq!(a, b, "serving replay diverged under {}", policy.label());
        assert!(a.lines().count() > 10, "report covers the stream");
    }
}

#[test]
fn single_and_multi_instance_complete_the_same_offered_work() {
    // Same stream, different cluster widths: accounting must balance in
    // both (completed + dropped == offered == 64) and the wider cluster
    // must not lose requests the narrow one served.
    let narrow = serve_report(1, DispatchPolicy::Fifo);
    let wide = serve_report(8, DispatchPolicy::Fifo);
    let completed = |rep: &str| {
        rep.lines()
            .take_while(|l| !l.starts_with("dropped="))
            .count()
    };
    let dropped = |rep: &str| -> u64 {
        rep.lines()
            .find(|l| l.starts_with("dropped="))
            .and_then(|l| l.split(['=', ' ']).nth(1))
            .and_then(|v| v.parse().ok())
            .unwrap()
    };
    assert_eq!(completed(&narrow) as u64 + dropped(&narrow), 64);
    assert_eq!(completed(&wide) as u64 + dropped(&wide), 64);
    assert!(completed(&wide) >= completed(&narrow));
}
