//! Fleet-distribution traffic generator for the serving model.
//!
//! Converts [`ShapeModel`](crate::protobufz::ShapeModel) message-shape
//! samples into *concrete* schemas and message values (so the accelerator
//! and software codecs can actually process them), then replays a request
//! stream over that population at a configurable offered load with seeded
//! exponential interarrivals. The deserialize/serialize mix comes from the
//! GWP cycle profile (§3.2: deserialization outweighs serialization
//! fleet-wide).
//!
//! Everything is seeded through `xrand`, so a `(seed, load, mix)` triple
//! always produces the same stream — the serving benchmark's determinism
//! guarantee rests on this.

use protoacc_runtime::{MessageValue, Value};
use protoacc_schema::{FieldType, MessageId, PerfClass, Schema, SchemaBuilder};
use xrand::{Rng, StdRng};

use crate::gwp::{FleetProfile, ProtoOp};
use crate::protobufz::{FieldSample, MessageSample, ShapeModel};

/// Cap on defined fields per synthesized message type: keeps object layouts
/// and ADTs bounded when a shape sample asks for thousands of tiny fields.
/// Bytes-like fields are retained preferentially since they carry the
/// fleet's data volume (Figure 4b).
pub const MAX_FIELDS_PER_TYPE: usize = 48;

/// One synthesized message prototype the stream samples from.
#[derive(Debug, Clone)]
pub struct Prototype {
    /// The message type in the shared traffic schema.
    pub type_id: MessageId,
    /// A populated value of that type.
    pub message: MessageValue,
    /// Encoded wire size of `message`.
    pub encoded_size: u64,
}

/// A population of prototypes under one schema.
#[derive(Debug, Clone)]
pub struct TrafficMix {
    /// The schema every prototype belongs to.
    pub schema: Schema,
    /// The prototype population.
    pub prototypes: Vec<Prototype>,
    /// Fraction of requests that are deserializations (from the GWP
    /// profile's Deserialize : Serialize cycle ratio).
    pub deser_fraction: f64,
}

/// One request in a generated stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrafficEvent {
    /// Arrival time in accelerator cycles.
    pub arrival: u64,
    /// Index into [`TrafficMix::prototypes`].
    pub prototype: usize,
    /// Deserialize (`true`) or serialize (`false`).
    pub deser: bool,
}

/// The `(prototype, deser, arrival)` triple `protoacc::Scenario::requests`
/// consumes.
impl From<&TrafficEvent> for (usize, bool, u64) {
    fn from(e: &TrafficEvent) -> Self {
        (e.prototype, e.deser, e.arrival)
    }
}

impl TrafficMix {
    /// Builds `n` prototypes by drawing shape samples from the 2021 fleet
    /// model and materializing each as a schema type plus message value.
    ///
    /// # Panics
    ///
    /// Never for `n > 0` population sizes; the synthesized schema always
    /// validates.
    pub fn build<R: Rng + ?Sized>(rng: &mut R, n: usize) -> Self {
        let shapes = ShapeModel::google_2021();
        let profile = FleetProfile::google_2021();
        let deser_share = profile.share(ProtoOp::Deserialize);
        let ser_share = profile.share(ProtoOp::Serialize);
        let deser_fraction = deser_share / (deser_share + ser_share);

        let mut builder = SchemaBuilder::new();
        let mut staged = Vec::with_capacity(n);
        for i in 0..n {
            let sample = shapes.sample_message(rng);
            let fields = retained_fields(&sample);
            let id = builder.declare(format!("Traffic{i}"));
            {
                let mut msg = builder.message(id);
                for (number, field) in fields.iter().enumerate() {
                    msg.optional(&format!("f{number}"), field.field_type, number as u32 + 1);
                }
            }
            staged.push((id, fields));
        }
        let schema = builder
            .build()
            .expect("synthesized traffic schema is valid");

        let prototypes = staged
            .into_iter()
            .map(|(type_id, fields)| {
                let mut message = MessageValue::new(type_id);
                for (number, field) in fields.iter().enumerate() {
                    message
                        .set(number as u32 + 1, value_for(field))
                        .expect("field value matches its declared type");
                }
                let encoded_size = protoacc_runtime::reference::encoded_len(&message, &schema)
                    .expect("prototype encodes") as u64;
                Prototype {
                    type_id,
                    message,
                    encoded_size,
                }
            })
            .collect();
        TrafficMix {
            schema,
            prototypes,
            deser_fraction,
        }
    }

    /// The prototype messages, in population order.
    pub fn messages(&self) -> impl Iterator<Item = &MessageValue> {
        self.prototypes.iter().map(|p| &p.message)
    }

    /// Mean encoded size over the population, in bytes.
    pub fn mean_encoded_size(&self) -> f64 {
        if self.prototypes.is_empty() {
            return 0.0;
        }
        let total: u64 = self.prototypes.iter().map(|p| p.encoded_size).sum();
        total as f64 / self.prototypes.len() as f64
    }

    /// Draws one request's `(prototype, deser)` pair: uniform over the
    /// population, direction from the GWP mix. The single sampling rule
    /// shared by the open-loop [`stream`](TrafficMix::stream) and the
    /// closed-loop [`ClosedLoop`] disciplines, so both replay the same
    /// workload distribution.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> (usize, bool) {
        (
            rng.gen_range(0..self.prototypes.len()),
            rng.gen_bool(self.deser_fraction),
        )
    }

    /// Generates `n` requests with exponential interarrivals of mean
    /// `mean_gap_cycles` (the offered load knob: smaller gap = higher load),
    /// each uniformly picking a prototype and drawing its direction from the
    /// GWP mix. Arrivals are non-decreasing.
    ///
    /// This is the *open-loop* discipline: arrivals ignore completions, so
    /// offered load keeps pouring in past saturation. Pair with
    /// [`ClosedLoop`] for the discipline where clients wait.
    pub fn stream<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        n: usize,
        mean_gap_cycles: f64,
    ) -> Vec<TrafficEvent> {
        let mut clock = 0.0f64;
        (0..n)
            .map(|_| {
                clock += exp_sample(rng, mean_gap_cycles);
                let (prototype, deser) = self.sample(rng);
                TrafficEvent {
                    arrival: clock as u64,
                    prototype,
                    deser,
                }
            })
            .collect()
    }

    /// Generates one independently seeded open-loop stream per shard:
    /// shard `s` draws from `StdRng::seed_from_u64(split_seed(base_seed,
    /// s))`, so any single shard's traffic is reproducible from `(base_seed,
    /// s)` alone — a sharded engine can regenerate or re-run one shard
    /// without replaying the others, and the full decomposition is a pure
    /// function of `base_seed` and `shards`, never of how many worker
    /// threads execute it.
    #[must_use]
    pub fn shard_streams(
        &self,
        base_seed: u64,
        shards: usize,
        per_shard: usize,
        mean_gap_cycles: f64,
    ) -> Vec<Vec<TrafficEvent>> {
        (0..shards)
            .map(|s| {
                let mut rng = StdRng::seed_from_u64(split_seed(base_seed, s as u64));
                self.stream(&mut rng, per_shard, mean_gap_cycles)
            })
            .collect()
    }
}

/// Derives the seed for shard `shard` from a base seed via the SplitMix64
/// finalizer over the golden-ratio-stepped stream index. Consecutive shard
/// indices land on statistically unrelated seeds (the property SplitMix64's
/// `split()` is built on), so per-shard streams do not share prefixes the
/// way `base_seed + shard` would under a weak generator.
#[must_use]
pub fn split_seed(base: u64, shard: u64) -> u64 {
    let mut z = base ^ shard.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One exponential draw of the given mean (inverse-CDF: `-ln(1-u) * mean`,
/// `u` in `[0, 1)`).
fn exp_sample<R: Rng + ?Sized>(rng: &mut R, mean: f64) -> f64 {
    let u: f64 = rng.gen_range(0.0..1.0);
    -(1.0 - u).ln() * mean
}

/// Closed-loop client population: each of `users` clients issues one
/// request, waits for its completion, thinks for an exponentially
/// distributed time, then issues the next. Offered load is *self-limiting*
/// — at most `users` requests are ever outstanding, and a slow server
/// automatically slows the arrival process — which is exactly the
/// discipline open-loop generators fail to model past saturation.
///
/// The generator is pull-based because arrivals depend on completions only
/// the server knows: the serving harness alternates
/// [`next_issue`](ClosedLoop::next_issue) (who sends next, and when) with
/// [`complete`](ClosedLoop::complete) (feeding the finished request's
/// completion time back). Determinism: for a fixed seed and a fixed
/// completion schedule, the issue sequence is identical.
#[derive(Debug, Clone)]
pub struct ClosedLoop {
    mean_think_cycles: f64,
    /// Per-user next-issue time; `None` while a request is in flight.
    ready_at: Vec<Option<u64>>,
}

impl ClosedLoop {
    /// Creates `users` clients, all ready to issue at cycle 0.
    ///
    /// # Panics
    ///
    /// If `users` is zero — an empty population issues nothing.
    #[must_use]
    pub fn new(users: usize, mean_think_cycles: f64) -> Self {
        assert!(users > 0, "a closed loop needs at least one user");
        ClosedLoop {
            mean_think_cycles,
            ready_at: vec![Some(0); users],
        }
    }

    /// Number of clients in the population.
    #[must_use]
    pub fn users(&self) -> usize {
        self.ready_at.len()
    }

    /// Clients currently waiting on a response.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.ready_at.iter().filter(|r| r.is_none()).count()
    }

    /// Picks the next client to issue: the ready one with the earliest
    /// issue time (ties to the lowest index, keeping replay deterministic).
    /// Returns `(user, issue_cycle)` and marks the client busy until its
    /// [`complete`](ClosedLoop::complete) call. `None` when every client is
    /// waiting on a response.
    pub fn next_issue(&mut self) -> Option<(usize, u64)> {
        let (user, at) = self
            .ready_at
            .iter()
            .enumerate()
            .filter_map(|(u, r)| r.map(|at| (u, at)))
            .min_by_key(|&(u, at)| (at, u))?;
        self.ready_at[user] = None;
        Some((user, at))
    }

    /// Feeds a completion back: `user`'s response arrived at `at`, the
    /// client thinks for an exponential time, then becomes ready again.
    ///
    /// # Panics
    ///
    /// If `user` was not in flight — a completion must match an issue.
    pub fn complete<R: Rng + ?Sized>(&mut self, user: usize, at: u64, rng: &mut R) {
        assert!(
            self.ready_at[user].is_none(),
            "completion for user {user} with no request in flight"
        );
        let think = exp_sample(rng, self.mean_think_cycles) as u64;
        self.ready_at[user] = Some(at.saturating_add(think));
    }
}

/// Picks which sampled fields to keep when a shape exceeds the cap:
/// all bytes-like fields first (they carry the volume), then the rest in
/// sampled order.
fn retained_fields(sample: &MessageSample) -> Vec<FieldSample> {
    if sample.fields.len() <= MAX_FIELDS_PER_TYPE {
        return sample.fields.clone();
    }
    let mut kept: Vec<FieldSample> = sample
        .fields
        .iter()
        .filter(|f| f.field_type.perf_class() == Some(PerfClass::BytesLike))
        .copied()
        .take(MAX_FIELDS_PER_TYPE)
        .collect();
    for f in &sample.fields {
        if kept.len() >= MAX_FIELDS_PER_TYPE {
            break;
        }
        if f.field_type.perf_class() != Some(PerfClass::BytesLike) {
            kept.push(*f);
        }
    }
    kept
}

/// A value whose wire encoding matches the sampled field's byte count.
fn value_for(field: &FieldSample) -> Value {
    let len = field.wire_bytes;
    match field.field_type {
        FieldType::String => Value::Str("s".repeat(len as usize)),
        FieldType::Bytes => Value::Bytes(vec![0xab; len as usize]),
        FieldType::Bool => Value::Bool(true),
        FieldType::Int32 => Value::Int32(varint_of_len(len.min(5)) as i32),
        FieldType::Enum => Value::Enum(varint_of_len(len.min(5)) as i32),
        FieldType::Int64 => Value::Int64(varint_of_len(len.min(9)) as i64),
        FieldType::UInt64 => Value::UInt64(varint_of_len(len)),
        FieldType::SInt64 => Value::SInt64(zigzag_of_len(len)),
        FieldType::Double => Value::Double(1.5),
        FieldType::Float => Value::Float(0.5),
        FieldType::Fixed64 => Value::Fixed64(0xfeed_f00d),
        FieldType::Fixed32 => Value::Fixed32(0xbeef),
        other => unreachable!("untracked traffic field type {other:?}"),
    }
}

/// Smallest unsigned value whose varint encoding takes `len` bytes.
fn varint_of_len(len: u64) -> u64 {
    let len = len.clamp(1, 10);
    if len == 1 {
        1
    } else {
        1u64 << (7 * (len - 1)).min(63)
    }
}

/// Smallest non-negative value whose *zigzagged* encoding takes `len` bytes.
fn zigzag_of_len(len: u64) -> i64 {
    let len = len.clamp(1, 10);
    if len == 1 {
        1
    } else {
        1i64 << (7 * (len - 1) - 1).min(62)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use protoacc_wire::varint;
    use xrand::StdRng;

    #[test]
    fn varint_length_targets_are_exact() {
        for len in 1..=10u64 {
            let v = varint_of_len(len);
            assert_eq!(varint::encoded_len(v) as u64, len, "value {v}");
        }
        for len in 1..=10u64 {
            let z = zigzag_of_len(len);
            let raw = protoacc_wire::zigzag::encode64(z);
            assert_eq!(varint::encoded_len(raw) as u64, len, "value {z}");
        }
    }

    #[test]
    fn mix_builds_valid_prototypes_with_fleet_like_sizes() {
        let mut rng = StdRng::seed_from_u64(7);
        let mix = TrafficMix::build(&mut rng, 64);
        assert_eq!(mix.prototypes.len(), 64);
        assert!(mix.deser_fraction > 0.5, "deser dominates fleet-wide");
        assert!(mix.deser_fraction < 0.75);
        // Sizes span small and large messages.
        let min = mix.prototypes.iter().map(|p| p.encoded_size).min().unwrap();
        let max = mix.prototypes.iter().map(|p| p.encoded_size).max().unwrap();
        assert!(min < 64, "small messages present (min {min})");
        assert!(max > 4096, "large messages present (max {max})");
        // Every prototype round-trips through the reference codec.
        for p in &mix.prototypes {
            let wire = protoacc_runtime::reference::encode(&p.message, &mix.schema).unwrap();
            assert_eq!(wire.len() as u64, p.encoded_size);
        }
    }

    #[test]
    fn shard_streams_are_independent_and_replayable() {
        let mut rng = StdRng::seed_from_u64(11);
        let mix = TrafficMix::build(&mut rng, 16);

        // The decomposition is a pure function of (base_seed, shards):
        // regenerating reproduces it exactly.
        let a = mix.shard_streams(0x5EED, 4, 32, 1_000.0);
        let b = mix.shard_streams(0x5EED, 4, 32, 1_000.0);
        assert_eq!(a.len(), 4);
        assert_eq!(a, b);

        // Each shard is reproducible alone from split_seed, without
        // generating its siblings.
        for (s, stream) in a.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(split_seed(0x5EED, s as u64));
            assert_eq!(*stream, mix.stream(&mut rng, 32, 1_000.0));
            // And stays a well-formed arrival process.
            assert!(stream.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        }

        // Distinct shards draw distinct traffic (seeds are decorrelated, not
        // offset copies of one stream).
        assert_ne!(a[0], a[1]);
        assert_ne!(split_seed(0x5EED, 0), split_seed(0x5EED, 1));
        assert_ne!(split_seed(0x5EED, 0), split_seed(0x5EEE, 0));
    }

    #[test]
    fn streams_are_deterministic_and_sorted() {
        let mut rng = StdRng::seed_from_u64(11);
        let mix = TrafficMix::build(&mut rng, 16);
        let mut r1 = StdRng::seed_from_u64(99);
        let mut r2 = StdRng::seed_from_u64(99);
        let s1 = mix.stream(&mut r1, 500, 2000.0);
        let s2 = mix.stream(&mut r2, 500, 2000.0);
        assert_eq!(s1, s2);
        assert!(s1.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        let desers = s1.iter().filter(|e| e.deser).count();
        // Mix roughly follows the GWP fraction.
        let frac = desers as f64 / s1.len() as f64;
        assert!((frac - mix.deser_fraction).abs() < 0.1, "observed {frac}");
        // Offered load knob: halving the gap roughly halves the span.
        let mut r3 = StdRng::seed_from_u64(99);
        let fast = mix.stream(&mut r3, 500, 1000.0);
        let slow_span = s1.last().unwrap().arrival;
        let fast_span = fast.last().unwrap().arrival;
        assert!(fast_span < slow_span);
    }

    #[test]
    fn closed_loop_bounds_in_flight_and_replays_deterministically() {
        // Simulate a fixed-service-time server: each issued request
        // completes a constant 500 cycles after it is issued.
        let drive = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut loop_ = ClosedLoop::new(3, 2_000.0);
            let mut issues = Vec::new();
            for _ in 0..48 {
                assert!(loop_.in_flight() <= loop_.users());
                let (user, at) = loop_.next_issue().expect("a client is always ready");
                issues.push((user, at));
                loop_.complete(user, at + 500, &mut rng);
            }
            issues
        };
        assert_eq!(drive(11), drive(11), "replay diverged");
        assert_ne!(drive(11), drive(12), "think times ignore the seed");

        // With every client in flight the loop has nothing to issue.
        let mut loop_ = ClosedLoop::new(2, 1_000.0);
        let (u0, _) = loop_.next_issue().unwrap();
        let (u1, _) = loop_.next_issue().unwrap();
        assert_eq!(loop_.next_issue(), None);
        assert_eq!(loop_.in_flight(), 2);
        assert_ne!(u0, u1);
        // A completion reopens exactly one slot, after the think time.
        let mut rng = StdRng::seed_from_u64(5);
        loop_.complete(u0, 10_000, &mut rng);
        let (again, at) = loop_.next_issue().unwrap();
        assert_eq!(again, u0);
        assert!(at >= 10_000, "issue precedes the completion it waits on");
    }

    #[test]
    fn closed_loop_think_time_throttles_the_issue_rate() {
        let span_of = |mean_think: f64| {
            let mut rng = StdRng::seed_from_u64(21);
            let mut loop_ = ClosedLoop::new(2, mean_think);
            let mut last = 0;
            for _ in 0..64 {
                let (user, at) = loop_.next_issue().unwrap();
                last = last.max(at);
                loop_.complete(user, at + 100, &mut rng);
            }
            last
        };
        assert!(
            span_of(10_000.0) > span_of(100.0) * 4,
            "longer think times must stretch the issue schedule"
        );
    }

    #[test]
    fn field_cap_prefers_bytes_like() {
        let mut rng = StdRng::seed_from_u64(3);
        let shapes = ShapeModel::google_2021();
        // Find a sample exceeding the cap.
        let big = (0..5000)
            .map(|_| shapes.sample_message(&mut rng))
            .find(|s| {
                s.fields.len() > MAX_FIELDS_PER_TYPE
                    && s.fields
                        .iter()
                        .any(|f| f.field_type.perf_class() == Some(PerfClass::BytesLike))
            })
            .expect("fleet model produces field-heavy samples");
        let kept = retained_fields(&big);
        assert_eq!(kept.len(), MAX_FIELDS_PER_TYPE);
        let sampled_bytes_like = big
            .fields
            .iter()
            .filter(|f| f.field_type.perf_class() == Some(PerfClass::BytesLike))
            .count();
        let kept_bytes_like = kept
            .iter()
            .filter(|f| f.field_type.perf_class() == Some(PerfClass::BytesLike))
            .count();
        assert_eq!(
            kept_bytes_like,
            sampled_bytes_like.min(MAX_FIELDS_PER_TYPE),
            "bytes-like fields survive the cap"
        );
    }
}
