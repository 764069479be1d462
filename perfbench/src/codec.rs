//! `codec_hyperbench`: the native fast-path codec (`FastCodec`) decoding
//! and re-encoding the six HyperProtoBench suites plus the four
//! `protos/chain/*.binpb` schemas. The simulator is never touched.

use std::time::Instant;

use hyperprotobench::{populate::populate_messages, Generator, ServiceProfile};
use protoacc_fastpath::{swar, CompiledSchema, DecodeArena, FastCodec, Op, ReverseWriter};
use protoacc_fleet::traffic::split_seed;
use protoacc_runtime::{reference, MessageValue};
use protoacc_schema::{parse_descriptor_set, MessageId, Schema};

/// Seed of the six synthesized HyperProtoBench schemas. The schemas are
/// part of the workload's definition, like the `protos/chain` corpus; the
/// run's seed draws the messages. Schemas drawn from the run's seed too
/// would move messages/s by up to 2x between seeds.
const SCHEMA_SEED: u64 = 0xC0DEC;
/// HyperProtoBench suites (`ServiceProfile::bench(0..6)`).
const SUITES: usize = 6;
/// Messages per schema: 10 schemas x 330 = 3300 messages, so the p99 of
/// the population has 33 messages above it. At 110 per schema the median
/// moved by 15% between seeds; at 330 by 3%.
const PER_SCHEMA: usize = 330;
/// The `protos/chain` descriptor sets, read from the checkout.
const CHAIN: [&str; 4] = ["consensus", "gossip", "state_sync", "transaction"];

/// One schema's population with its reference encodings.
pub struct Population {
    pub name: String,
    pub schema: Schema,
    pub type_id: MessageId,
    pub messages: Vec<MessageValue>,
    pub wires: Vec<Vec<u8>>,
}

/// Builds the populations from `seed`.
///
/// # Errors
///
/// A chain descriptor set that is missing or does not parse.
pub fn generate(seed: u64) -> Result<Vec<Population>, String> {
    let mut out: Vec<(String, Schema, MessageId, Vec<MessageValue>)> = (0..SUITES)
        .map(|i| {
            let profile = ServiceProfile::bench(i);
            let b = Generator::new(profile.clone(), SCHEMA_SEED + i as u64).generate(0);
            let messages = populate_messages(
                &b.schema,
                b.type_id,
                &profile.shape,
                split_seed(seed, i as u64),
                PER_SCHEMA,
            );
            (profile.name.to_string(), b.schema, b.type_id, messages)
        })
        .collect();
    for (i, stem) in CHAIN.iter().enumerate() {
        let path = format!("protos/chain/{stem}.binpb");
        let bytes = std::fs::read(&path).map_err(|e| format!("{path}: {e}"))?;
        let schema = parse_descriptor_set(&bytes).map_err(|e| format!("{path}: {e}"))?;
        // Root: the last top-level message, the corpus convention.
        let root = schema
            .iter()
            .filter(|(_, m)| !m.name().contains('.'))
            .map(|(id, _)| id)
            .last()
            .ok_or_else(|| format!("{path}: no top-level message"))?;
        let shape = ServiceProfile::bench(4).shape;
        let seed = split_seed(seed, (SUITES + i) as u64);
        let messages = populate_messages(&schema, root, &shape, seed, PER_SCHEMA);
        out.push((format!("chain/{stem}"), schema, root, messages));
    }
    out.into_iter()
        .map(|(name, schema, type_id, messages)| {
            let wires = messages
                .iter()
                .map(|m| reference::encode(m, &schema).map_err(|e| format!("{name}: {e}")))
                .collect::<Result<_, _>>()?;
            Ok(Population {
                name,
                schema,
                type_id,
                messages,
                wires,
            })
        })
        .collect()
}

/// The correctness gate, run before any timing: every message's
/// `FastCodec` encode is byte-identical to `reference::encode`, its decode
/// converts back to a value-identical tree, and re-encoding the decoded
/// object reproduces the wire bytes. Returns one line per divergence.
pub fn check(pops: &[Population]) -> Vec<String> {
    let mut failures = Vec::new();
    let mut arena = DecodeArena::new();
    for p in pops {
        let codec = FastCodec::new(&p.schema);
        for (i, (m, wire)) in p.messages.iter().zip(&p.wires).enumerate() {
            if codec.encode_value(m).as_ref() != Ok(wire) {
                failures.push(format!("{} #{i}: encode differs from reference", p.name));
            }
            match codec.decode(p.type_id, wire, &mut arena) {
                Ok(obj) => {
                    if !codec.to_value(p.type_id, wire, &arena, obj).bits_eq(m) {
                        failures.push(format!("{} #{i}: decode is not value-identical", p.name));
                    }
                    if codec.encode_decoded(p.type_id, wire, &arena, obj) != *wire {
                        failures.push(format!("{} #{i}: re-encode differs", p.name));
                    }
                }
                Err(e) => failures.push(format!("{} #{i}: decode failed: {e}", p.name)),
            }
        }
    }
    failures
}

pub fn message_count(pops: &[Population]) -> usize {
    pops.iter().map(|p| p.wires.len()).sum()
}

/// Repetitions per timed block: enough that a small message's block spans
/// well over the clock's resolution. A function of the message size only,
/// so both commits of a comparison run the same work.
fn reps(len: usize) -> usize {
    (4096 / (len + 64)).clamp(1, 32)
}

/// One pass over the population.
pub struct Pass {
    /// `FastCodec::new` over every schema.
    pub compile_ns: f64,
    /// Host ns of one decode, per message.
    pub decode_ns: Vec<f64>,
    /// Host ns of one encode of the decoded object, per message.
    pub encode_ns: Vec<f64>,
}

/// Compiles every schema, then decodes and re-encodes every message.
pub fn pass(pops: &[Population]) -> Pass {
    let t = Instant::now();
    let codecs: Vec<FastCodec> = pops.iter().map(|p| FastCodec::new(&p.schema)).collect();
    let compile_ns = t.elapsed().as_nanos() as f64;
    let n = message_count(pops);
    let mut decode_ns = Vec::with_capacity(n);
    let mut encode_ns = Vec::with_capacity(n);
    let mut arena = DecodeArena::new();
    for (p, codec) in pops.iter().zip(&codecs) {
        for wire in &p.wires {
            let r = reps(wire.len());
            let t0 = Instant::now();
            let mut obj = 0;
            for _ in 0..r {
                obj = codec
                    .decode(p.type_id, std::hint::black_box(wire), &mut arena)
                    .expect("checked message decodes");
            }
            let t1 = Instant::now();
            for _ in 0..r {
                std::hint::black_box(codec.encode_decoded(p.type_id, wire, &arena, obj).len());
            }
            let t2 = Instant::now();
            decode_ns.push((t1 - t0).as_nanos() as f64 / r as f64);
            encode_ns.push((t2 - t1).as_nanos() as f64 / r as f64);
        }
    }
    Pass {
        compile_ns,
        decode_ns,
        encode_ns,
    }
}

/// One write the reverse encoder makes, in forward wire order.
enum Prepend {
    Varint(u64),
    Fixed32(u32),
    Fixed64(u64),
    /// `(offset, len)` into the message's wire bytes.
    Slice(usize, usize),
}

/// The fast path's calls on a population, recovered by walking each
/// message's wire bytes with the compiled dispatch tables.
#[derive(Default)]
pub struct CallStream {
    /// `(message index, offset)` of every varint (keys, values, lengths,
    /// packed elements).
    varints: Vec<(usize, usize)>,
    /// `(type, field number)` of every field key.
    lookups: Vec<(MessageId, u32)>,
    /// Object sizes allocated per message (root and sub-messages).
    allocs: Vec<Vec<usize>>,
    /// Encoder writes per message.
    writes: Vec<Vec<Prepend>>,
    pub fields: u64,
    pub zero_copy_bytes: u64,
    pub wire_bytes: u64,
    pub messages: usize,
}

impl CallStream {
    pub fn varints(&self) -> usize {
        self.varints.len()
    }

    fn walk(
        &mut self,
        cs: &CompiledSchema,
        type_id: MessageId,
        wire: &[u8],
        base: usize,
        msg: usize,
    ) {
        let cm = cs.message(type_id);
        self.allocs[msg].push(cm.object_size as usize);
        let mut pos = 0;
        while pos < wire.len() {
            let Ok((key, n)) = swar::decode(&wire[pos..]) else {
                return;
            };
            self.varints.push((msg, base + pos));
            self.writes[msg].push(Prepend::Varint(key));
            pos += n;
            let number = (key >> 3) as u32;
            self.lookups.push((type_id, number));
            self.fields += 1;
            let entry = cm.entry(number);
            match key & 7 {
                0 => {
                    let Ok((v, n)) = swar::decode(&wire[pos..]) else {
                        return;
                    };
                    self.varints.push((msg, base + pos));
                    self.writes[msg].push(Prepend::Varint(v));
                    pos += n;
                }
                1 if pos + 8 <= wire.len() => {
                    let v = u64::from_le_bytes(wire[pos..pos + 8].try_into().expect("8 bytes"));
                    self.writes[msg].push(Prepend::Fixed64(v));
                    pos += 8;
                }
                5 if pos + 4 <= wire.len() => {
                    let v = u32::from_le_bytes(wire[pos..pos + 4].try_into().expect("4 bytes"));
                    self.writes[msg].push(Prepend::Fixed32(v));
                    pos += 4;
                }
                2 => {
                    let Ok((len, n)) = swar::decode(&wire[pos..]) else {
                        return;
                    };
                    self.varints.push((msg, base + pos));
                    self.writes[msg].push(Prepend::Varint(len));
                    pos += n;
                    let len = len as usize;
                    if pos + len > wire.len() {
                        return;
                    }
                    match entry.map(|e| (e.op, e.sub)) {
                        Some((Op::Msg, Some(sub))) => {
                            self.walk(cs, sub, &wire[pos..pos + len], base + pos, msg);
                        }
                        Some((Op::Bytes, _)) => {
                            self.zero_copy_bytes += len as u64;
                            self.writes[msg].push(Prepend::Slice(base + pos, len));
                        }
                        Some((Op::Fixed32 | Op::Fixed64, _)) | None => {
                            self.writes[msg].push(Prepend::Slice(base + pos, len));
                        }
                        Some(_) => {
                            // Packed varints: one decode per element.
                            let mut at = pos;
                            while at < pos + len {
                                let Ok((v, n)) = swar::decode(&wire[at..pos + len]) else {
                                    break;
                                };
                                self.varints.push((msg, base + at));
                                self.writes[msg].push(Prepend::Varint(v));
                                at += n;
                            }
                        }
                    }
                    pos += len;
                }
                _ => return,
            }
        }
    }
}

/// Walks every message of every population.
pub fn call_streams(pops: &[Population]) -> Vec<(CompiledSchema, CallStream)> {
    pops.iter()
        .map(|p| {
            let cs = CompiledSchema::compile(&p.schema);
            let mut s = CallStream {
                allocs: vec![Vec::new(); p.wires.len()],
                writes: p.wires.iter().map(|_| Vec::new()).collect(),
                messages: p.wires.len(),
                ..CallStream::default()
            };
            for (i, wire) in p.wires.iter().enumerate() {
                s.wire_bytes += wire.len() as u64;
                s.walk(&cs, p.type_id, wire, 0, i);
            }
            (cs, s)
        })
        .collect()
}

/// Host cost of each fast-path primitive, replayed on the call streams.
pub struct Replay {
    pub varint_ns: f64,
    pub dispatch_ns: f64,
    pub arena_ns: f64,
    pub reverse_ns_per_kb: f64,
}

/// Replays the streams through `swar::decode`, `CompiledMessage::entry`,
/// `DecodeArena::alloc_zeroed` and `ReverseWriter::prepend_*`.
pub fn replay(pops: &[Population], streams: &[(CompiledSchema, CallStream)]) -> Replay {
    let (mut varint, mut nvarint) = (0.0, 0usize);
    let (mut dispatch, mut nlookup) = (0.0, 0usize);
    let (mut arena_t, mut nalloc) = (0.0, 0usize);
    let (mut reverse, mut out_bytes) = (0.0, 0usize);
    let mut arena = DecodeArena::new();
    let mut writer = ReverseWriter::new();
    for (p, (cs, s)) in pops.iter().zip(streams) {
        let t = Instant::now();
        let mut acc = 0u64;
        for &(msg, off) in &s.varints {
            acc = acc.wrapping_add(swar::decode(&p.wires[msg][off..]).map_or(0, |(v, _)| v));
        }
        varint += t.elapsed().as_nanos() as f64;
        nvarint += s.varints.len();

        let t = Instant::now();
        for &(ty, number) in &s.lookups {
            acc = acc.wrapping_add(
                cs.message(ty)
                    .entry(number)
                    .map_or(0, |e| u64::from(e.slot_offset)),
            );
        }
        dispatch += t.elapsed().as_nanos() as f64;
        nlookup += s.lookups.len();

        let t = Instant::now();
        for sizes in &s.allocs {
            arena.reset();
            for &size in sizes {
                acc = acc.wrapping_add(u64::from(arena.alloc_zeroed(size).expect("arena fits")));
            }
            nalloc += sizes.len();
        }
        arena_t += t.elapsed().as_nanos() as f64;

        let t = Instant::now();
        for (wire, writes) in p.wires.iter().zip(&s.writes) {
            writer.clear();
            for w in writes.iter().rev() {
                match *w {
                    Prepend::Varint(v) => writer.prepend_varint(v),
                    Prepend::Fixed32(v) => writer.prepend_fixed32(v),
                    Prepend::Fixed64(v) => writer.prepend_fixed64(v),
                    Prepend::Slice(off, len) => writer.prepend_slice(&wire[off..off + len]),
                }
            }
            out_bytes += writer.len();
        }
        reverse += t.elapsed().as_nanos() as f64;
        std::hint::black_box(acc);
    }
    Replay {
        varint_ns: varint / nvarint.max(1) as f64,
        dispatch_ns: dispatch / nlookup.max(1) as f64,
        arena_ns: arena_t / nalloc.max(1) as f64,
        reverse_ns_per_kb: reverse / (out_bytes.max(1) as f64 / 1024.0),
    }
}
