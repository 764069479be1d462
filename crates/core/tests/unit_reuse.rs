//! An accelerator that rejected an op must serve the next op exactly like a
//! fresh one. The deserializer and serializer units keep host buffers from
//! one op to the next (the input copy, the metadata stack, the FSU pool,
//! the hasbits and payload staging), and nothing a rejected op leaves in
//! them may show in a later op.

use hyperprotobench::{GeneratedBench, Generator, ServiceProfile, BENCH_COUNT};
use protoacc::{AccelConfig, AccelError, AccelStats, ProtoAccelerator};
use protoacc_mem::{MemConfig, Memory};
use protoacc_runtime::{
    object, reference, write_adts, AdtTables, BumpArena, MessageLayouts, MessageValue,
};
use xrand::{Rng, StdRng};

const INPUT_ADDR: u64 = 0x100_0000;
const ACCEL_ARENA: u64 = 0x1_0000_0000;
const OUT_BASE: u64 = 0x2_0000_0000;
const PTR_BASE: u64 = 0x3_0000_0000;

/// Seeded corruptions applied to each message, scaled by `slow-tests`.
fn corruptions() -> usize {
    if cfg!(feature = "slow-tests") {
        64 * 16
    } else {
        64
    }
}

/// Per HyperProtoBench service, a generated message with its encoding:
/// the largest of a dozen that stays within 512 bytes, or the smallest when
/// none does, so that sweeping every offset stays cheap.
fn messages() -> Vec<(GeneratedBench, MessageValue, Vec<u8>)> {
    (0..BENCH_COUNT)
        .map(|i| {
            let bench =
                Generator::new(ServiceProfile::bench(i), 0x5EED_0000 + i as u64).generate(12);
            let mut encoded: Vec<(Vec<u8>, &MessageValue)> = bench
                .messages
                .iter()
                .map(|m| (reference::encode(m, &bench.schema).unwrap(), m))
                .collect();
            encoded.sort_by_key(|(wire, _)| wire.len());
            let pick = encoded
                .iter()
                .rposition(|(wire, _)| wire.len() <= 512)
                .unwrap_or(0);
            let (wire, message) = encoded.swap_remove(pick);
            let message = message.clone();
            (bench, message, wire)
        })
        .collect()
}

fn accelerator() -> ProtoAccelerator {
    let mut accel = ProtoAccelerator::new(AccelConfig::default());
    accel.deser_assign_arena(ACCEL_ARENA, 1 << 32);
    accel
}

struct Harness<'b> {
    bench: &'b GeneratedBench,
    layouts: MessageLayouts,
    mem: Memory,
    adts: AdtTables,
    arena: BumpArena,
}

impl<'b> Harness<'b> {
    fn new(bench: &'b GeneratedBench) -> Self {
        let layouts = MessageLayouts::compute(&bench.schema);
        let mut mem = Memory::new(MemConfig::default());
        let mut arena = BumpArena::new(0x1_0000, 1 << 30);
        let adts = write_adts(&bench.schema, &layouts, &mut mem.data, &mut arena).unwrap();
        Harness {
            bench,
            layouts,
            mem,
            adts,
            arena,
        }
    }

    /// Deserializes `wire` into a fresh zeroed object; returns the object's
    /// address with the op's outcome.
    fn deser(
        &mut self,
        accel: &mut ProtoAccelerator,
        wire: &[u8],
    ) -> (u64, Result<protoacc::deser::DeserRun, AccelError>) {
        let id = self.bench.type_id;
        let dest = self
            .arena
            .alloc(self.layouts.layout(id).object_size(), 8)
            .unwrap();
        self.mem.data.write_bytes(INPUT_ADDR, wire);
        accel.deser_info(self.adts.addr(id), dest);
        let min_field = self.layouts.layout(id).min_field();
        let run = accel.do_proto_deser(&mut self.mem, INPUT_ADDR, wire.len() as u64, min_field);
        (dest, run)
    }

    /// Serializes `obj` into an output region of `out_len` bytes.
    fn ser(
        &mut self,
        accel: &mut ProtoAccelerator,
        obj: u64,
        out_len: u64,
    ) -> Result<protoacc::ser::SerRun, AccelError> {
        let layout = self.layouts.layout(self.bench.type_id);
        accel.ser_info(
            layout.hasbits_offset(),
            layout.min_field(),
            layout.max_field(),
        );
        accel.ser_assign_arena(OUT_BASE, out_len, PTR_BASE, 1 << 12);
        accel.do_proto_ser(&mut self.mem, self.adts.addr(self.bench.type_id), obj)
    }
}

/// What a clean deserialization reports that must not depend on earlier
/// ops: fields, wire bytes, and the op's `varints`/`allocs` stat deltas.
fn clean_deser(
    h: &mut Harness,
    accel: &mut ProtoAccelerator,
    message: &MessageValue,
    wire: &[u8],
) -> (u64, u64, u64, u64) {
    let before: AccelStats = accel.stats();
    let (dest, run) = h.deser(accel, wire);
    let run = run.expect("the clean encoding decodes");
    let after = accel.stats();
    let back = object::read_message(
        &h.mem.data,
        &h.bench.schema,
        &h.layouts,
        h.bench.type_id,
        dest,
    )
    .unwrap();
    assert!(
        back.bits_eq(message),
        "{}: decoded value differs",
        h.bench.profile.name
    );
    (
        run.fields,
        run.wire_bytes,
        after.varints - before.varints,
        after.allocs - before.allocs,
    )
}

/// Every truncation and seeded corruption that the deserializer rejects is
/// followed, on the same accelerator, by the clean encoding, which must
/// decode like it does on a fresh accelerator.
#[test]
fn clean_deserialization_after_a_rejected_one_matches_a_fresh_unit() {
    let mut rng = StdRng::seed_from_u64(0xAE_0001);
    let mut rejected = 0;
    for (bench, message, wire) in &messages() {
        let mut h = Harness::new(bench);
        let expect = clean_deser(&mut h, &mut accelerator(), message, wire);

        let mut bad_inputs: Vec<Vec<u8>> = (0..wire.len()).map(|n| wire[..n].to_vec()).collect();
        for _ in 0..corruptions() {
            let mut bad = wire.clone();
            for _ in 0..rng.gen_range(1usize..4) {
                let at = rng.gen_range(0..bad.len());
                bad[at] = if rng.gen_bool(0.5) {
                    bad[at] ^ (1 << rng.gen_range(0u32..8))
                } else {
                    rng.gen_range(0u8..=255)
                };
            }
            bad_inputs.push(bad);
        }

        let mut accel = accelerator();
        for bad in &bad_inputs {
            if h.deser(&mut accel, bad).1.is_ok() {
                continue;
            }
            rejected += 1;
            assert_eq!(
                clean_deser(&mut h, &mut accel, message, wire),
                expect,
                "{}: clean op after rejecting {bad:02x?}",
                bench.profile.name
            );
        }
    }
    assert!(rejected > 100, "only {rejected} rejected inputs");
}

/// A serialization that overflows its output region, at every length
/// short of the encoding, is followed on the same accelerator by one that
/// fits, which must be byte-identical to the reference encoder.
#[test]
fn fitting_serialization_after_an_overflow_matches_the_reference() {
    let mut nested = 0;
    for (bench, message, expect) in &messages() {
        let mut h = Harness::new(bench);
        let obj = object::write_message(
            &mut h.mem.data,
            &bench.schema,
            &h.layouts,
            &mut h.arena,
            message,
        )
        .unwrap();
        let mut accel = accelerator();
        nested += h
            .ser(&mut accel, obj, 1 << 20)
            .map(|_| accel.stats().stack_pushes)
            .unwrap();
        for short in 0..expect.len() as u64 {
            assert!(
                matches!(
                    h.ser(&mut accel, obj, short),
                    Err(AccelError::OutputOverflow)
                ),
                "{}: {short}-byte region",
                bench.profile.name
            );
            let run = h.ser(&mut accel, obj, 1 << 20).unwrap();
            assert_eq!(
                &h.mem.data.read_vec(run.out_addr, run.out_len as usize),
                expect,
                "{}: output after overflowing a {short}-byte region",
                bench.profile.name
            );
        }
    }
    // Some overflows must land inside a sub-message, where the serializer
    // is nested in its metadata and hasbits stacks.
    assert!(nested > 0, "no sampled message nests a sub-message");
}
