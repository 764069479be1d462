//! Fast-path codec differential suite: `protoacc-fastpath` vs `crates/cpu`
//! (verdicts) and vs the reference encoder (bytes), over every HyperProtoBench
//! suite, every `protos/` schema through both ingestion paths (`.proto` text
//! and `.binpb` descriptor sets), truncation at every offset, and a ≥10k
//! seeded mutation sweep.
//!
//! The contract: the fast path is allowed to be *faster* than the existing
//! engines, never observably different. Encodes must be byte-identical to
//! the reference encoder; decodes must produce value-identical trees on
//! accepts and the same `DecodeFault` class as `crates/cpu` on rejects.

use protoacc_suite::fastpath::{swar, DecodeArena, FastCodec, TableKind, DENSE_SPAN_LIMIT};
use protoacc_suite::faults::{depth_bomb, mutate, DiffReport, FastpathHarness, Verdict};
use protoacc_suite::hyperbench::{
    generate_suite, populate::populate_messages, Generator, ServiceProfile,
};
use protoacc_suite::runtime::{reference, MessageValue, Value};
use protoacc_suite::schema::{parse_descriptor_set, parse_proto, MessageId, Schema};
use protoacc_suite::xrand::StdRng;

fn load_proto(name: &str) -> Schema {
    let path = format!("{}/protos/{name}", env!("CARGO_MANIFEST_DIR"));
    let source = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    parse_proto(&source).unwrap_or_else(|e| panic!("{name} must parse: {e}"))
}

fn load_binpb(stem: &str) -> Schema {
    let path = format!("{}/protos/chain/{stem}.binpb", env!("CARGO_MANIFEST_DIR"));
    let bytes = std::fs::read(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    parse_descriptor_set(&bytes).unwrap_or_else(|e| panic!("{stem}.binpb must parse: {e}"))
}

/// The corpus convention: the last top-level message is the aggregate root.
fn root_of(schema: &Schema) -> MessageId {
    schema
        .iter()
        .filter(|(_, m)| !m.name().contains('.'))
        .map(|(id, _)| id)
        .last()
        .expect("schema has at least one message")
}

/// Byte-identity + value-identity + verdict checks for one (schema, message).
#[track_caller]
fn check_message(label: &str, schema: &Schema, type_id: MessageId, message: &MessageValue) {
    let codec = FastCodec::new(schema);
    let wire = reference::encode(message, schema).expect("corpus message encodes");
    // Encode: byte-identical to the reference (and hence cpu) serializer.
    let fast_wire = codec.encode_value(message).expect("fastpath encodes");
    assert_eq!(fast_wire, wire, "{label}: encode bytes diverge");
    // Decode: value-identical tree, byte-identical arena re-serialization.
    let mut arena = DecodeArena::new();
    let obj = codec
        .decode(type_id, &wire, &mut arena)
        .expect("fastpath decodes its own encoding");
    let back = codec.to_value(type_id, &wire, &arena, obj);
    assert!(back.bits_eq(message), "{label}: decoded tree diverges");
    assert_eq!(
        codec.encode_decoded(type_id, &wire, &arena, obj),
        wire,
        "{label}: arena re-serialization diverges"
    );
}

/// Truncates `wire` at every offset (strided above `max_cuts` for very large
/// messages) and requires verdict agreement with the CPU oracle at each cut.
fn check_truncations(label: &str, h: &mut FastpathHarness, wire: &[u8], max_cuts: usize) {
    let stride = (wire.len() / max_cuts.max(1)).max(1);
    for cut in (0..wire.len()).step_by(stride) {
        let (fast, cpu) = h.verdicts(&wire[..cut]);
        assert_eq!(
            fast,
            cpu,
            "{label} truncated at byte {cut}/{}: fastpath {fast:?} vs cpu {cpu:?}",
            wire.len()
        );
    }
    let (fast, cpu) = h.verdicts(wire);
    assert!(
        fast.is_accept() && cpu.is_accept(),
        "{label}: untruncated wire must decode on both sides ({fast:?} / {cpu:?})"
    );
}

#[test]
fn hyperbench_suites_are_byte_and_value_identical() {
    for bench in generate_suite(8, 0xC0DE) {
        for (mi, message) in bench.messages.iter().enumerate() {
            check_message(
                &format!("{}/m{mi}", bench.profile.name),
                &bench.schema,
                bench.type_id,
                message,
            );
        }
    }
}

#[test]
fn hyperbench_truncation_verdicts_match_the_cpu_oracle() {
    for bench in generate_suite(2, 0xC0DE) {
        let mut h = FastpathHarness::new(&bench.schema, bench.type_id);
        for (mi, message) in bench.messages.iter().enumerate() {
            let wire = reference::encode(message, &bench.schema).unwrap();
            check_truncations(
                &format!("{}/m{mi}", bench.profile.name),
                &mut h,
                &wire,
                1024,
            );
        }
    }
}

/// Text-ingested `.proto` corpus: deterministic handcrafted messages through
/// encode/decode identity plus exhaustive (unstrided) truncation.
#[test]
fn proto_text_corpus_round_trips_and_truncates_cleanly() {
    for (file, message) in corpus_messages() {
        let schema = load_proto(file);
        let type_id = message.type_id();
        check_message(file, &schema, type_id, &message);
        let wire = reference::encode(&message, &schema).unwrap();
        let mut h = FastpathHarness::new(&schema, type_id);
        check_truncations(file, &mut h, &wire, usize::MAX);
    }
}

/// Binary-descriptor-ingested corpus (`protos/chain/*.binpb`): seeded
/// populations through the same identity and truncation gates.
#[test]
fn binpb_corpus_round_trips_and_truncates_cleanly() {
    for stem in ["consensus", "gossip", "state_sync", "transaction"] {
        let schema = load_binpb(stem);
        let root = root_of(&schema);
        let shape = ServiceProfile::bench(4).shape;
        let messages = populate_messages(&schema, root, &shape, 0xB1A9 + stem.len() as u64, 6);
        assert!(!messages.is_empty(), "{stem}: population is empty");
        let mut h = FastpathHarness::new(&schema, root);
        for (mi, message) in messages.iter().enumerate() {
            check_message(&format!("chain/{stem}/m{mi}"), &schema, root, message);
            let wire = reference::encode(message, &schema).unwrap();
            check_truncations(&format!("chain/{stem}/m{mi}"), &mut h, &wire, usize::MAX);
        }
    }
}

/// The ≥10k seeded mutation sweep: every verdict must match the CPU oracle,
/// and the sweep must exercise both accepts and rejects.
#[test]
fn mutation_sweep_verdicts_match_the_cpu_oracle() {
    let mutations_per_message = if cfg!(feature = "slow-tests") {
        210 * 16
    } else {
        210
    };
    let suite = generate_suite(8, 0xC0DE);
    let mut rng = StdRng::seed_from_u64(0xFA57_D1FF);
    let mut report = DiffReport::default();
    for bench in &suite {
        let mut h = FastpathHarness::new(&bench.schema, bench.type_id);
        for (mi, message) in bench.messages.iter().enumerate() {
            let wire = reference::encode(message, &bench.schema).unwrap();
            h.observe(
                &format!("{}/m{mi}/clean", bench.profile.name),
                &wire,
                &mut report,
            );
            for trial in 0..mutations_per_message {
                let (fault, mutated) = mutate(&wire, &mut rng);
                h.observe(
                    &format!("{}/m{mi}/t{trial}/{}", bench.profile.name, fault.label()),
                    &mutated,
                    &mut report,
                );
            }
        }
    }
    assert!(report.is_clean(), "{}", report.summary());
    assert!(
        report.trials >= 10_000,
        "only {} trials — the sweep shrank below its 10k floor",
        report.trials
    );
    assert!(report.accepted > 0, "{}", report.summary());
    assert!(report.rejected > 0, "{}", report.summary());
}

/// Depth bomb through the fast path: typed `DepthExceeded` on both sides,
/// bounded work, no stack exhaustion.
#[test]
fn depth_bomb_is_rejected_with_depth_exceeded_on_both_sides() {
    use protoacc_suite::accel::DecodeFault;
    let schema = load_proto("storage_row.proto");
    let row_id = schema.id_by_name("Row").unwrap();
    let mut h = FastpathHarness::new(&schema, row_id);
    let (fast, cpu) = h.verdicts(&depth_bomb(15, 300));
    assert_eq!(fast, Verdict::Reject(DecodeFault::DepthExceeded));
    assert_eq!(cpu, Verdict::Reject(DecodeFault::DepthExceeded));
    let (fast, cpu) = h.verdicts(&depth_bomb(15, 10));
    assert!(fast.is_accept() && cpu.is_accept(), "{fast:?} / {cpu:?}");
}

/// Minimized regression (divergence sweep): a packed element whose varint
/// runs into the byte after the declared packed body must be `Truncated` on
/// both engines — never completed from the next field's bytes.
#[test]
fn packed_body_clamp_verdicts_agree() {
    let schema =
        parse_proto("message P { repeated sint32 v = 7 [packed = true]; optional int32 a = 1; }")
            .unwrap();
    let type_id = schema.id_by_name("P").unwrap();
    let mut h = FastpathHarness::new(&schema, type_id);
    // key(7, LD)=0x3a, body len 1, element byte 0x96 (continuation bit set),
    // then a valid `a = 5` field the clamped element must NOT consume.
    let bytes = [0x3a, 0x01, 0x96, 0x08, 0x05];
    let (fast, cpu) = h.verdicts(&bytes);
    assert_eq!(fast, cpu, "packed clamp: {fast:?} vs {cpu:?}");
    assert!(
        !fast.is_accept(),
        "a clamped mid-varint element must reject"
    );
    // And the well-formed variant accepts on both.
    let ok = [0x3a, 0x02, 0x96, 0x01, 0x08, 0x05];
    let (fast, cpu) = h.verdicts(&ok);
    assert!(fast.is_accept() && cpu.is_accept(), "{fast:?} / {cpu:?}");
}

/// Minimized regression (divergence sweep): overlong-but-terminated varint
/// field payloads (redundant continuation bytes, 10-byte encodings of small
/// values) must decode to the same value on both engines.
#[test]
fn overlong_varint_payloads_agree() {
    let schema = parse_proto("message O { optional uint64 v = 1; optional int32 w = 2; }").unwrap();
    let type_id = schema.id_by_name("O").unwrap();
    let codec = FastCodec::new(&schema);
    let mut h = FastpathHarness::new(&schema, type_id);
    // v = 5 encoded in exactly 10 bytes, then w = -1 sign-extended (always
    // 10 bytes on the wire).
    let mut wire = vec![
        0x08, 0x85, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00,
    ];
    wire.extend_from_slice(&[0x10]);
    wire.extend_from_slice(&[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01]);
    let (fast, cpu) = h.verdicts(&wire);
    assert!(fast.is_accept() && cpu.is_accept(), "{fast:?} / {cpu:?}");
    let mut arena = DecodeArena::new();
    let back = codec.decode_to_value(type_id, &wire, &mut arena).unwrap();
    assert_eq!(back.get_single(1), Some(&Value::UInt64(5)));
    assert_eq!(back.get_single(2), Some(&Value::Int32(-1)));
}

/// Minimized regression (divergence sweep): zigzag sign-extension extremes
/// stay byte- and value-identical across both engines at i32/i64 bounds.
#[test]
fn zigzag_extremes_are_byte_identical() {
    let schema = parse_proto(
        "message Z { optional sint32 a = 1; optional sint64 b = 2; \
         repeated sint32 pa = 3 [packed = true]; repeated sint64 pb = 4 [packed = true]; }",
    )
    .unwrap();
    let type_id = schema.id_by_name("Z").unwrap();
    let codec = FastCodec::new(&schema);
    let mut h = FastpathHarness::new(&schema, type_id);
    let mut m = MessageValue::new(type_id);
    m.set_unchecked(1, Value::SInt32(i32::MIN));
    m.set_unchecked(2, Value::SInt64(i64::MIN));
    m.set_repeated(
        3,
        vec![
            Value::SInt32(i32::MIN),
            Value::SInt32(i32::MAX),
            Value::SInt32(-1),
            Value::SInt32(0),
        ],
    );
    m.set_repeated(
        4,
        vec![
            Value::SInt64(i64::MIN),
            Value::SInt64(i64::MAX),
            Value::SInt64(-1),
        ],
    );
    let wire = reference::encode(&m, &schema).unwrap();
    assert_eq!(codec.encode_value(&m).unwrap(), wire);
    let (fast, cpu) = h.verdicts(&wire);
    assert!(fast.is_accept() && cpu.is_accept(), "{fast:?} / {cpu:?}");
    let mut arena = DecodeArena::new();
    let back = codec.decode_to_value(type_id, &wire, &mut arena).unwrap();
    assert!(back.bits_eq(&m), "zigzag extremes diverge after round trip");
}

/// The arena keeps the codec's scratch (accumulators, element buffers, the
/// encoder's writer) across calls, and a rejected decode stops with that
/// scratch half used. A clean decode after any number of rejects on one
/// arena must match a decode on a fresh arena: same root offset, same
/// arena length, the same value tree, and the original wire on re-encode.
#[test]
fn arena_reuse_after_rejects_matches_a_fresh_arena() {
    let mut rng = StdRng::seed_from_u64(0xA4E7_A5E5);
    for bench in generate_suite(1, 0xC0DE) {
        let label = bench.profile.name;
        let (type_id, message) = (bench.type_id, &bench.messages[0]);
        let codec = FastCodec::new(&bench.schema);
        let wire = reference::encode(message, &bench.schema).unwrap();
        let mut shared = DecodeArena::new();
        let mut rejects = 0;
        let truncations = (0..wire.len()).map(|cut| wire[..cut].to_vec());
        let mutations = (0..256).map(|_| mutate(&wire, &mut rng).1);
        for bad in truncations.chain(mutations) {
            rejects += usize::from(codec.decode(type_id, &bad, &mut shared).is_err());
        }
        assert!(rejects > 0, "{label}: the sweep rejected nothing");
        let obj = codec.decode(type_id, &wire, &mut shared).unwrap();
        let mut fresh = DecodeArena::new();
        let fresh_obj = codec.decode(type_id, &wire, &mut fresh).unwrap();
        assert_eq!(obj, fresh_obj, "{label}: root offset");
        assert_eq!(shared.len(), fresh.len(), "{label}: arena length");
        for arena in [&shared, &fresh] {
            let back = codec.to_value(type_id, &wire, arena, obj);
            assert!(back.bits_eq(message), "{label}: decoded tree diverges");
            assert_eq!(
                codec.encode_decoded(type_id, &wire, arena, obj),
                wire,
                "{label}"
            );
        }
    }

    // The largest storage-rows message grows the arena's writer; a small
    // message encoded next must not pick up its stale bytes.
    let bench = Generator::new(ServiceProfile::bench(2), 0xC0DE).generate(16);
    assert_eq!(bench.profile.name, "storage-rows");
    let mut wires: Vec<Vec<u8>> = bench
        .messages
        .iter()
        .map(|m| reference::encode(m, &bench.schema).unwrap())
        .collect();
    wires.sort_by_key(Vec::len);
    let codec = FastCodec::new(&bench.schema);
    let mut arena = DecodeArena::new();
    for wire in [&wires[wires.len() - 1], &wires[0]] {
        let obj = codec.decode(bench.type_id, wire, &mut arena).unwrap();
        assert_eq!(
            codec.encode_decoded(bench.type_id, wire, &arena, obj),
            *wire,
            "storage-rows message of {} bytes",
            wire.len()
        );
    }
}

/// `encode_decoded` scans the hasbits of a `Dense` table and walks the
/// defined fields of a `Sparse` one. Both walks must reproduce the
/// reference encoding, including fields at the ends of the span, at the
/// largest dense span and just past it.
#[test]
fn both_serializer_walks_reproduce_the_reference_encoding() {
    for (span, kind) in [
        (DENSE_SPAN_LIMIT, TableKind::Dense),
        (DENSE_SPAN_LIMIT + 1, TableKind::Sparse),
        (100_000, TableKind::Sparse),
    ] {
        let (max, mid) = (span as u32, span as u32 / 2);
        let schema = parse_proto(&format!(
            "message Inner {{ optional uint64 id = 1; }} \
             message W {{ optional sint64 lo = 1; repeated string names = {mid}; \
             repeated int32 nums = {} [packed = true]; optional Inner hi = {max}; }}",
            mid + 1
        ))
        .unwrap();
        let (w, inner) = (
            schema.id_by_name("W").unwrap(),
            schema.id_by_name("Inner").unwrap(),
        );
        let codec = FastCodec::new(&schema);
        assert_eq!(
            codec.compiled().message(w).table_kind(),
            kind,
            "span {span}"
        );
        if kind == TableKind::Dense {
            assert_eq!(codec.compiled().layouts().layout(w).hasbits_bytes(), 512);
        }
        let mut sub = MessageValue::new(inner);
        sub.set_unchecked(1, Value::UInt64(7));
        let mut full = MessageValue::new(w);
        full.set_unchecked(1, Value::SInt64(-5));
        full.set_repeated(mid, vec![Value::Str("a".into()), Value::Str(String::new())]);
        full.set_repeated(
            mid + 1,
            vec![Value::Int32(1), Value::Int32(-1), Value::Int32(300)],
        );
        full.set_unchecked(max, Value::Message(sub.clone()));
        let mut only_min = MessageValue::new(w);
        only_min.set_unchecked(1, Value::SInt64(i64::MAX));
        let mut only_max = MessageValue::new(w);
        only_max.set_unchecked(max, Value::Message(sub));
        for (i, message) in [full, only_min, only_max].iter().enumerate() {
            check_message(&format!("span {span} m{i}"), &schema, w, message);
        }
    }
}

/// The fast path, like `crates/cpu`, does not validate UTF-8 in `string`
/// fields: invalid sequences are accepted by both engines and come back
/// byte for byte.
#[test]
fn invalid_utf8_strings_are_accepted_and_reproduced() {
    let schema =
        parse_proto("message U { optional string s = 1; repeated string r = 2; }").unwrap();
    let type_id = schema.id_by_name("U").unwrap();
    let codec = FastCodec::new(&schema);
    let mut h = FastpathHarness::new(&schema, type_id);
    let payloads: [&[u8]; 4] = [
        &[0x80],             // lone continuation byte
        &[0xff, 0xfe],       // bytes that never occur in UTF-8
        &[0xc0, 0xaf],       // overlong encoding of '/'
        &[b'a', 0xe2, 0x82], // 3-byte sequence cut after two bytes
    ];
    for payload in payloads {
        let mut wire = Vec::new();
        for key in [0x0a, 0x12, 0x12] {
            wire.extend_from_slice(&[key, payload.len() as u8]);
            wire.extend_from_slice(payload);
        }
        let (fast, cpu) = h.verdicts(&wire);
        assert_eq!(
            (fast, cpu),
            (Verdict::Accept, Verdict::Accept),
            "{payload:02x?}"
        );
        let mut arena = DecodeArena::new();
        let obj = codec.decode(type_id, &wire, &mut arena).unwrap();
        assert_eq!(
            codec.encode_decoded(type_id, &wire, &arena, obj),
            wire,
            "{payload:02x?}"
        );
    }
}

/// The SWAR decoder reached through the facade agrees with the scalar
/// decoder on a quick spot check (the exhaustive sweep lives in
/// `tests/varint_boundary.rs`).
#[test]
fn facade_exports_the_swar_decoder() {
    use protoacc_suite::wire::varint;
    let buf = [0x96, 0x01, 0xde];
    assert_eq!(swar::decode(&buf).unwrap(), (150, 2));
    assert_eq!(swar::decode(&buf), varint::decode(&buf));
}

/// Deterministic handcrafted messages for each text `.proto` schema
/// (compact versions of the `proto_corpus` builders).
fn corpus_messages() -> Vec<(&'static str, MessageValue)> {
    let mut out = Vec::new();

    let schema = load_proto("addressbook.proto");
    let phone_id = schema.id_by_name("Person.PhoneNumber").unwrap();
    let person_id = schema.id_by_name("Person").unwrap();
    let book_id = schema.id_by_name("AddressBook").unwrap();
    let mut phone = MessageValue::new(phone_id);
    phone.set_unchecked(1, Value::Str("+1-555-0001".into()));
    phone.set_unchecked(2, Value::Enum(1));
    let mut person = MessageValue::new(person_id);
    person.set_unchecked(1, Value::Str("Ada Lovelace".into()));
    person.set_unchecked(2, Value::Int32(-7));
    person.set_repeated(4, vec![Value::Message(phone)]);
    let mut book = MessageValue::new(book_id);
    book.set_repeated(1, vec![Value::Message(person)]);
    out.push(("addressbook.proto", book));

    let schema = load_proto("telemetry.proto");
    let point_id = schema.id_by_name("Point").unwrap();
    let series_id = schema.id_by_name("TimeSeries").unwrap();
    let batch_id = schema.id_by_name("ScrapeBatch").unwrap();
    let points = (0..5)
        .map(|i| {
            let mut p = MessageValue::new(point_id);
            p.set_unchecked(1, Value::Fixed64(1_000_000 + i));
            p.set_unchecked(2, Value::Double(i as f64 * 1.5));
            p.set_unchecked(4, Value::SInt64(-(i as i64)));
            Value::Message(p)
        })
        .collect();
    let mut series = MessageValue::new(series_id);
    series.set_unchecked(1, Value::Str("cpu.utilization".into()));
    series.set_repeated(3, points);
    series.set_repeated(12, vec![Value::Double(0.5), Value::Double(0.99)]);
    series.set_repeated(13, (0..4).map(Value::Int64).collect());
    series.set_unchecked(120, Value::Bool(true));
    let mut batch = MessageValue::new(batch_id);
    batch.set_unchecked(1, Value::Fixed64(999));
    batch.set_repeated(2, vec![Value::Message(series)]);
    batch.set_unchecked(4, Value::Bytes(vec![0xde, 0xad, 0xbe, 0xef]));
    out.push(("telemetry.proto", batch));

    let schema = load_proto("storage_row.proto");
    let cell_id = schema.id_by_name("Cell").unwrap();
    let family_id = schema.id_by_name("ColumnFamily").unwrap();
    let row_id = schema.id_by_name("Row").unwrap();
    let tablet_id = schema.id_by_name("Tablet").unwrap();
    let mut cell = MessageValue::new(cell_id);
    cell.set_unchecked(1, Value::Bytes(vec![0x5a; 96]));
    cell.set_unchecked(2, Value::UInt64(1001));
    let mut family = MessageValue::new(family_id);
    family.set_unchecked(1, Value::Str("cf".into()));
    family.set_repeated(2, vec![Value::Message(cell)]);
    let mut shadow = MessageValue::new(row_id);
    shadow.set_unchecked(1, Value::Bytes(b"shadow".to_vec()));
    let mut row = MessageValue::new(row_id);
    row.set_unchecked(1, Value::Bytes(b"row-0".to_vec()));
    row.set_repeated(2, vec![Value::Message(family)]);
    row.set_unchecked(15, Value::Message(shadow));
    let mut tablet = MessageValue::new(tablet_id);
    tablet.set_unchecked(1, Value::Str("metrics_table".into()));
    tablet.set_repeated(2, vec![Value::Message(row)]);
    tablet.set_unchecked(4, Value::Fixed64(77));
    out.push(("storage_row.proto", tablet));

    out
}
