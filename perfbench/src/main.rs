//! The repository's benchmark: one command, three workloads, single
//! threaded in one process.
//!
//! ```text
//! perfbench --workload <sim_fleet|rpc_overload|codec_hyperbench>
//!           --seed <n> --seconds <s> --trace <0|1> [--rev <git rev>] [--rustc <version>]
//! ```
//!
//! With `--trace 0` it times the workload untraced and prints the
//! end-to-end metrics; with `--trace 1` it also runs it under the
//! benchmark's own tracer and replays, and prints the per-layer metrics.
//! The last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; the line before it is a
//! report with host facts, per-metric spreads over trials and every
//! correctness problem found. Any correctness failure exits with code 1.

mod codec;
mod probe;
mod reference;
mod sim;
mod stats;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use protoacc_rpc::{decode_frame, RpcHeader, DEFAULT_MAX_FRAME_LEN};

use crate::probe::LayerTracer;
use crate::reference::{Reference, Sample};
use crate::sim::{SimInputs, SimKind, Trial};
use crate::stats::{fold_min, json_str, median, min, percentile, Metrics};

/// End-to-end metrics and their units, printed by `--trace 0` on every
/// workload.
const END_TO_END: [(&str, &str); 5] = [
    ("ops_per_s", "1/s"),
    ("op_ns.p50", "ns"),
    ("op_ns.p99", "ns"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics and their units, printed by `--trace 1` on every
/// workload. A layer the workload does not run reports zero work.
const PER_LAYER: [(&str, &str); 42] = [
    ("mem.accesses", "count"),
    ("mem.l1_hit_rate", "ratio"),
    ("mem.l2_hit_rate", "ratio"),
    ("mem.llc_hit_rate", "ratio"),
    ("mem.tlb_walk_cycles", "cycles"),
    ("mem.guest_pages", "count"),
    ("mem.system_ns", "ns"),
    ("mem.guest_ns", "ns"),
    ("deser.ops", "count"),
    ("deser.fields_per_op", "count"),
    ("deser.cycles_per_op", "cycles"),
    ("deser.adt_misses", "count"),
    ("deser.host_ns_per_op", "ns"),
    ("ser.ops", "count"),
    ("ser.cycles_per_op", "cycles"),
    ("ser.host_ns_per_op", "ns"),
    ("serve.queue_wait_cycles.p50", "cycles"),
    ("serve.queue_wait_cycles.p99", "cycles"),
    ("serve.shed", "count"),
    ("serve.dropped", "count"),
    ("serve.retries", "count"),
    ("serve.host_ns_per_cmd", "ns"),
    ("shard.cell_s.p50", "s"),
    ("shard.cell_s.max", "s"),
    ("shard.merge_s", "s"),
    ("rpc.frames", "count"),
    ("rpc.deferred", "count"),
    ("rpc.frame_errors", "count"),
    ("rpc.frame_ns", "ns"),
    ("trace.events_per_cmd", "count"),
    ("trace.overhead", "ratio"),
    ("fastpath.varint_ns", "ns"),
    ("fastpath.dispatch_ns", "ns"),
    ("fastpath.arena_ns", "ns"),
    ("fastpath.reverse_ns_per_kb", "ns"),
    ("fastpath.varints_per_msg", "count"),
    ("fastpath.fields_per_msg", "count"),
    ("fastpath.zero_copy_share", "ratio"),
    ("fastpath.compile_s", "s"),
    ("sim.p50_cycles", "cycles"),
    ("sim.p99_cycles", "cycles"),
    ("sim.goodput_gbits", "Gbit/s"),
];

/// Fewest timed trials a run makes, however short `--seconds` is.
const MIN_TRIALS: usize = 3;
/// Repetitions of each replay; the fastest is reported.
const REPLAYS: usize = 5;
/// Problems kept for the report; later ones are only counted.
const MAX_PROBLEMS: usize = 20;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    rev: String,
    rustc: String,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |name: &str| -> Option<String> {
        argv.iter()
            .position(|a| a == name)
            .and_then(|i| argv.get(i + 1).cloned())
    };
    let workload = value("--workload").ok_or("--workload is required")?;
    let seed = value("--seed")
        .unwrap_or_else(|| "1".into())
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")
        .unwrap_or_else(|| "30".into())
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match value("--trace").as_deref().unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        rev: value("--rev").unwrap_or_else(|| "unknown".into()),
        rustc: value("--rustc").unwrap_or_else(|| "unknown".into()),
    })
}

/// What a workload run produced.
#[derive(Default)]
struct Outcome {
    metrics: Metrics,
    attempted: u64,
    failed: u64,
    trials: usize,
    problems: Vec<String>,
    problem_count: usize,
    fingerprint: String,
}

impl Outcome {
    fn problem(&mut self, message: String) {
        self.problem_count += 1;
        if self.problems.len() < MAX_PROBLEMS {
            self.problems.push(message);
        }
    }

    /// Correctness of one simulator trial against the first trial.
    fn check_trial(&mut self, label: &str, t: &Trial) {
        if let Err(e) = &t.invariants {
            self.problem(format!("{label}: queue invariant violated: {e}"));
        }
        if !t.accounting_holds() {
            self.problem(format!(
                "{label}: accounting leak: status {:?} + dropped {} != offered {}",
                t.status, t.dropped, t.offered
            ));
        }
        if t.fingerprint != self.fingerprint {
            self.problem(format!(
                "{label}: simulated fingerprint diverged from the first trial"
            ));
        }
    }
}

/// Runs `trial` until `budget` has elapsed and at least [`MIN_TRIALS`]
/// have run, handing each result to `take` (so no run keeps its trials).
/// Returns the number of trials.
fn timed<T>(budget: Duration, mut trial: impl FnMut() -> T, mut take: impl FnMut(T)) -> usize {
    let start = Instant::now();
    let mut n = 0;
    while n < MIN_TRIALS || start.elapsed() < budget {
        take(trial());
        n += 1;
    }
    n
}

/// Host time of the simulator trials of one run.
///
/// The end-to-end figures are per trial, scaled to the reference speed by
/// the kernel timed just before the trial, and reported as medians over
/// the trials. The per-layer shard times keep each shard's (and frame's)
/// fastest trial: every trial replays identical work.
#[derive(Default)]
struct SimTimes {
    cell_ns: Vec<f64>,
    frame_ns: Vec<f64>,
    merge_ns: Option<f64>,
    /// Per trial, scaled: set-up, offered ops per second of simulation,
    /// and the p50 and p99 of the trial's op times.
    setup_s: Vec<f64>,
    ops_per_s: Vec<f64>,
    op_p50_ns: Vec<f64>,
    op_p99_ns: Vec<f64>,
    /// Per trial, as measured: ops per second and the reference kernel's ns.
    unscaled_ops_per_s: Vec<f64>,
    reference_ns: Vec<f64>,
}

impl SimTimes {
    /// Folds in one trial, scaled by the reference sample taken just
    /// before it (none for a traced trial, which is not scaled).
    fn add(&mut self, t: &Trial, reference: Option<Sample>) {
        let scale = reference.map_or(1.0, Sample::cpu_scale);
        let cell_ns: Vec<f64> = t.cells.iter().map(|c| c.run_ns).collect();
        fold_min(&mut self.cell_ns, &cell_ns);
        // sim_fleet: mean host ns per command of each shard (a cluster run
        // cannot be timed per command without a tracer), so p99 is the
        // slowest shard; rpc_overload: host ns of each frame's serve call.
        let (run_ns, op_ns) = if let [cell] = t.cells.as_slice() {
            fold_min(&mut self.frame_ns, &cell.frame_ns);
            (cell.frame_ns.iter().sum::<f64>(), cell.frame_ns.clone())
        } else {
            let per_cmd = t
                .cells
                .iter()
                .map(|c| c.run_ns / c.offered.max(1) as f64)
                .collect();
            (cell_ns.iter().sum(), per_cmd)
        };
        self.merge_ns = Some(self.merge_ns.map_or(t.merge_ns, |m| m.min(t.merge_ns)));
        let run_s = (run_ns + t.merge_ns) / 1e9;
        self.setup_s.push(t.setup_s() * scale);
        self.ops_per_s.push(t.offered as f64 / (run_s * scale));
        self.op_p50_ns.push(percentile(&op_ns, 50.0) * scale);
        self.op_p99_ns.push(percentile(&op_ns, 99.0) * scale);
        self.unscaled_ops_per_s.push(t.offered as f64 / run_s);
        self.reference_ns.push(reference.map_or(0.0, |r| r.cpu_ns));
    }

    /// The end-to-end metrics of the run, with their spreads over trials.
    fn put_end_to_end(&self, m: &mut Metrics) {
        m.put_trials("ops_per_s", &self.ops_per_s, "1/s");
        m.put_trials("op_ns.p50", &self.op_p50_ns, "ns");
        m.put_trials("op_ns.p99", &self.op_p99_ns, "ns");
        m.put_trials("setup_s", &self.setup_s, "s");
        m.put_trials("ops_per_s.unscaled", &self.unscaled_ops_per_s, "1/s");
        m.put_trials("reference_ns", &self.reference_ns, "ns");
    }

    /// Host seconds of one trial's simulation, from each unit's fastest
    /// trial: the shards (for RPC, the serve call of every frame, the
    /// smaller unit) plus the merge.
    fn run_s(&self) -> f64 {
        let units = if self.frame_ns.is_empty() {
            &self.cell_ns
        } else {
            &self.frame_ns
        };
        (units.iter().sum::<f64>() + self.merge_ns.unwrap_or(0.0)) / 1e9
    }
}

fn run_sim(kind: SimKind, args: &Args) -> Outcome {
    let inputs = sim::generate(kind, args.seed);
    let mut out = Outcome::default();
    let warm = inputs.trial(false);
    out.fingerprint = warm.fingerprint.clone();
    out.check_trial("warm-up", &warm);
    if let Some(one_shot) = inputs.one_shot_rpc_fingerprint() {
        if one_shot != out.fingerprint {
            out.problem("per-frame serving diverged from one serve call over all frames".into());
        }
    }

    let budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut times = SimTimes::default();
    let mut reference = Reference::new(false);
    out.trials = timed(
        Duration::from_secs_f64(budget),
        || (reference.sample(), inputs.trial(false)),
        |(sample, t)| {
            out.check_trial("trial", &t);
            out.attempted += t.offered;
            out.failed += t.failed();
            times.add(&t, Some(sample));
        },
    );

    let m = &mut out.metrics;
    times.put_end_to_end(m);
    let op_samples = match kind {
        SimKind::Fleet => warm.cells.len(),
        SimKind::Rpc => warm.cells.iter().map(|c| c.frame_ns.len()).sum(),
    };
    m.put("op_ns.samples", op_samples as f64, "count");
    m.put("shard.cell_s.p50", median(&times.cell_ns) / 1e9, "s");
    m.put(
        "shard.cell_s.max",
        times.cell_ns.iter().fold(0.0, |a: f64, &b| a.max(b)) / 1e9,
        "s",
    );
    m.put("shard.merge_s", times.merge_ns.unwrap_or(0.0) / 1e9, "s");
    // Simulated results: identical in every trial (the fingerprint gate).
    m.put("sim.p50_cycles", warm.served_p50 as f64, "cycles");
    m.put("sim.p99_cycles", warm.served_p99 as f64, "cycles");
    m.put("sim.goodput_gbits", warm.goodput_gbits, "Gbit/s");
    m.put("serve.shed", warm.status.4 as f64, "count");
    m.put("serve.dropped", warm.dropped as f64, "count");
    m.put("serve.retries", warm.retries as f64, "count");
    let rpc = warm
        .cells
        .iter()
        .filter_map(|c| c.rpc)
        .fold((0, 0, 0), |a, s| {
            (a.0 + s.frames, a.1 + s.deferred, a.2 + s.frame_errors)
        });
    m.put("rpc.frames", rpc.0 as f64, "count");
    m.put("rpc.deferred", rpc.1 as f64, "count");
    m.put("rpc.frame_errors", rpc.2 as f64, "count");
    m.put(
        "mem.guest_pages",
        warm.cells.iter().map(|c| c.guest_pages).sum::<usize>() as f64,
        "count",
    );

    if args.trace {
        traced_layers(&inputs, times.run_s(), args, &mut out);
    }
    out
}

/// Host ns per op; no ops counts as one.
fn per_op(ns: f64, ops: u64) -> f64 {
    ns / ops.max(1) as f64
}

/// The traced half of a `--trace 1` run: tracer tallies, host time inside
/// and outside op spans, and the mem and rpc replays.
fn traced_layers(inputs: &SimInputs, untraced_run_s: f64, args: &Args, out: &mut Outcome) {
    let mut times = SimTimes::default();
    let (mut deser_ns, mut ser_ns, mut outside_ns) = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    // Counts are the same in every traced trial; the first is kept.
    let mut first: Option<Trial> = None;
    timed(
        Duration::from_secs_f64(args.seconds / 2.0),
        || inputs.trial(true),
        |t| {
            out.check_trial("traced trial", &t);
            times.add(&t, None);
            let p = t.probes();
            let sum = |f: &dyn Fn(&LayerTracer) -> u64| -> u64 { p.iter().map(|x| f(x)).sum() };
            let ns = |f: &dyn Fn(&LayerTracer) -> f64| -> f64 { p.iter().map(|x| f(x)).sum() };
            deser_ns = deser_ns.min(per_op(ns(&|x| x.deser.host_ns), sum(&|x| x.deser.ops)));
            ser_ns = ser_ns.min(per_op(ns(&|x| x.ser.host_ns), sum(&|x| x.ser.ops)));
            let run_ns: f64 = t.cells.iter().map(|c| c.run_ns).sum();
            outside_ns = outside_ns.min(per_op(run_ns - ns(&|x| x.op_host_ns()), t.offered));
            if first.is_none() {
                first = Some(t);
            }
        },
    );
    let m = &mut out.metrics;
    m.put("trace.overhead", times.run_s() / untraced_run_s, "ratio");
    m.put("deser.host_ns_per_op", deser_ns, "ns");
    m.put("ser.host_ns_per_op", ser_ns, "ns");
    m.put("serve.host_ns_per_cmd", outside_ns, "ns");

    let first = first.expect("at least one traced trial");
    let p = first.probes();
    let sum = |f: &dyn Fn(&LayerTracer) -> u64| -> u64 { p.iter().map(|x| f(x)).sum() };
    let (dops, sops) = (sum(&|x| x.deser.ops), sum(&|x| x.ser.ops));
    m.put("deser.ops", dops as f64, "count");
    m.put(
        "deser.fields_per_op",
        sum(&|x| x.deser.fields) as f64 / dops.max(1) as f64,
        "count",
    );
    m.put(
        "deser.cycles_per_op",
        sum(&|x| x.deser.cycles) as f64 / dops.max(1) as f64,
        "cycles",
    );
    m.put(
        "deser.adt_misses",
        sum(&|x| x.deser.adt_misses) as f64,
        "count",
    );
    m.put("ser.ops", sops as f64, "count");
    m.put(
        "ser.cycles_per_op",
        sum(&|x| x.ser.cycles) as f64 / sops.max(1) as f64,
        "cycles",
    );
    let waits: Vec<f64> = p
        .iter()
        .flat_map(|x| &x.queue_waits)
        .map(|&w| w as f64)
        .collect();
    m.put(
        "serve.queue_wait_cycles.p50",
        percentile(&waits, 50.0),
        "cycles",
    );
    m.put(
        "serve.queue_wait_cycles.p99",
        percentile(&waits, 99.0),
        "cycles",
    );
    m.put(
        "trace.events_per_cmd",
        sum(&|x| x.events) as f64 / first.offered.max(1) as f64,
        "count",
    );
    let (l1, l2, llc, dram) = (
        sum(&|x| x.mem.l1_hits),
        sum(&|x| x.mem.l2_hits),
        sum(&|x| x.mem.llc_hits),
        sum(&|x| x.mem.dram),
    );
    let rate = |hits: u64, lookups: u64| hits as f64 / lookups.max(1) as f64;
    let lines = l1 + l2 + llc + dram;
    m.put("mem.accesses", sum(&|x| x.mem.accesses) as f64, "count");
    m.put("mem.l1_hit_rate", rate(l1, lines), "ratio");
    m.put("mem.l2_hit_rate", rate(l2, lines - l1), "ratio");
    m.put("mem.llc_hit_rate", rate(llc, lines - l1 - l2), "ratio");
    m.put(
        "mem.tlb_walk_cycles",
        sum(&|x| x.mem.tlb_walk_cycles) as f64,
        "cycles",
    );

    // Replays: each shard's recorded calls on a fresh hierarchy and guest
    // image. The replayed counts must equal the traced ones exactly.
    let calls = p.iter().map(|x| x.mem_calls.len()).sum::<usize>().max(1) as f64;
    let (mut system_ns, mut guest_ns) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..REPLAYS {
        let (mut system, mut guest) = (0.0, 0.0);
        for x in &p {
            let r = probe::replay_system(inputs.mem_config(), &x.mem_calls);
            let traced = (
                x.mem.accesses,
                x.mem.l1_hits,
                x.mem.l2_hits,
                x.mem.llc_hits,
                x.mem.dram,
            );
            if (r.accesses, r.l1_hits, r.l2_hits, r.llc_hits, r.dram) != traced {
                out.problem(format!(
                    "mem replay diverged from the traced run: replayed {} accesses, traced {}",
                    r.accesses, x.mem.accesses
                ));
            }
            system += r.ns_per_call * x.mem_calls.len() as f64;
            guest += probe::replay_guest(&x.mem_calls) * x.mem_calls.len() as f64;
        }
        system_ns = system_ns.min(system / calls);
        guest_ns = guest_ns.min(guest / calls);
    }
    let m = &mut out.metrics;
    m.put("mem.system_ns", system_ns, "ns");
    m.put("mem.guest_ns", guest_ns, "ns");

    let frames = inputs.frame_bytes();
    if !frames.is_empty() {
        let frame_ns = (0..REPLAYS)
            .map(|_| {
                let t = Instant::now();
                for bytes in &frames {
                    let (frame, _) =
                        decode_frame(bytes, DEFAULT_MAX_FRAME_LEN).expect("workload frame decodes");
                    std::hint::black_box(
                        RpcHeader::decode(&frame.payload).expect("workload header decodes"),
                    );
                }
                t.elapsed().as_nanos() as f64 / frames.len() as f64
            })
            .fold(f64::INFINITY, f64::min);
        m.put("rpc.frame_ns", frame_ns, "ns");
    }
}

fn run_codec(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let pops = match codec::generate(args.seed) {
        Ok(p) => p,
        Err(e) => {
            out.problem(format!("inputs: {e}"));
            return out;
        }
    };
    for p in codec::check(&pops) {
        out.failed += 1;
        out.problem(p);
    }
    let n = codec::message_count(&pops);
    codec::pass(&pops); // warm-up
    let budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    // Per pass, scaled to the reference speed by the kernel timed just
    // before it; each metric is the median over passes.
    let mut per_pass: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut compile = Vec::new();
    let mut reference = Reference::new(true);
    out.trials = timed(
        Duration::from_secs_f64(budget),
        || (reference.sample(), codec::pass(&pops)),
        |(r, p)| {
            // Small messages set the median and are scaled by the `cpu`
            // kernel; large ones set the tail and are scaled by the `mem`
            // kernel; totals by both.
            let (cpu, mem, both) = (r.cpu_scale(), r.mem_scale(), r.both_scale());
            let op: Vec<f64> = p
                .decode_ns
                .iter()
                .zip(&p.encode_ns)
                .map(|(d, e)| d + e)
                .collect();
            let pass_s = op.iter().sum::<f64>() / 1e9;
            let mut put = |name, v| per_pass.entry(name).or_default().push(v);
            put("ops_per_s", n as f64 / (pass_s * both));
            put("op_ns.p50", percentile(&op, 50.0) * cpu);
            put("op_ns.p99", percentile(&op, 99.0) * mem);
            put("decode_ns.p50", percentile(&p.decode_ns, 50.0) * cpu);
            put("decode_ns.p99", percentile(&p.decode_ns, 99.0) * mem);
            put("encode_ns.p50", percentile(&p.encode_ns, 50.0) * cpu);
            put("encode_ns.p99", percentile(&p.encode_ns, 99.0) * mem);
            put("setup_s", p.compile_ns / 1e9 * both);
            put("ops_per_s.unscaled", n as f64 / pass_s);
            put("reference_ns", r.cpu_ns);
            put("reference_mem_ns", r.mem_ns);
            compile.push(p.compile_ns / 1e9);
        },
    );
    out.attempted = (n * out.trials) as u64;

    let m = &mut out.metrics;
    for (name, values) in &per_pass {
        let unit = match *name {
            "ops_per_s" | "ops_per_s.unscaled" => "1/s",
            "setup_s" => "s",
            _ => "ns",
        };
        m.put_trials(name, values, unit);
    }
    m.put("op_ns.samples", n as f64, "count");

    if args.trace {
        // The fast path has no tracer hook: its per-layer numbers come from
        // replaying the population's own call stream, outside the timed
        // passes, so observing costs the timed passes nothing.
        m.put_trials("fastpath.compile_s", &compile, "s");
        m.put("trace.overhead", 1.0, "ratio");
        let streams = codec::call_streams(&pops);
        let replays: Vec<codec::Replay> = (0..REPLAYS)
            .map(|_| codec::replay(&pops, &streams))
            .collect();
        let fastest = |f: &dyn Fn(&codec::Replay) -> f64| -> f64 {
            min(&replays.iter().map(f).collect::<Vec<_>>())
        };
        m.put("fastpath.varint_ns", fastest(&|x| x.varint_ns), "ns");
        m.put("fastpath.dispatch_ns", fastest(&|x| x.dispatch_ns), "ns");
        m.put("fastpath.arena_ns", fastest(&|x| x.arena_ns), "ns");
        m.put(
            "fastpath.reverse_ns_per_kb",
            fastest(&|x| x.reverse_ns_per_kb),
            "ns",
        );
        let total = |f: &dyn Fn(&codec::CallStream) -> f64| -> f64 {
            streams.iter().map(|(_, s)| f(s)).sum()
        };
        let msgs = total(&|s| s.messages as f64).max(1.0);
        m.put(
            "fastpath.varints_per_msg",
            total(&|s| s.varints() as f64) / msgs,
            "count",
        );
        m.put(
            "fastpath.fields_per_msg",
            total(&|s| s.fields as f64) / msgs,
            "count",
        );
        m.put(
            "fastpath.zero_copy_share",
            total(&|s| s.zero_copy_bytes as f64) / total(&|s| s.wire_bytes as f64).max(1.0),
            "ratio",
        );
    }
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut out = match args.workload.as_str() {
        "sim_fleet" => run_sim(SimKind::Fleet, &args),
        "rpc_overload" => run_sim(SimKind::Rpc, &args),
        "codec_hyperbench" => run_codec(&args),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    let rss = stats::peak_rss_mb();
    if rss.is_none() {
        out.problem("peak RSS unavailable (/proc/self/status)".into());
    }
    out.metrics.put("peak_rss_mb", rss.unwrap_or(0.0), "MB");
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for &(name, unit) in table {
        match out.metrics.0.get(name) {
            // A layer this workload does not run did zero work.
            None => out.metrics.put(name, 0.0, unit),
            Some(m) if m.unit != unit => {
                let problem = format!("{name}: measured in {}, declared in {unit}", m.unit);
                out.problem(problem);
            }
            Some(_) => {}
        }
    }
    let names: Vec<&str> = table.iter().map(|&(name, _)| name).collect();
    let correct = out.problem_count == 0 && out.attempted > 0;

    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let problems: Vec<String> = out.problems.iter().map(|p| json_str(p)).collect();
    println!(
        "{{\"report\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"host\": {{\"nproc\": {nproc}, \"rev\": {}, \"rustc\": {}}}, \"trials\": {}, \
         \"attempted\": {}, \"failed\": {}, \"fingerprint\": {}, \"problem_count\": {}, \"problems\": [{}], \"metrics\": {}}}}}",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        json_str(&args.rev),
        json_str(&args.rustc),
        out.trials,
        out.attempted,
        out.failed,
        json_str(&out.fingerprint),
        out.problem_count,
        problems.join(", "),
        out.metrics.to_report_json(),
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted.max(1),
        out.failed,
        out.metrics.to_json(&names)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        for p in &out.problems {
            eprintln!("perfbench: FAIL {p}");
        }
        ExitCode::FAILURE
    }
}
