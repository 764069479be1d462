//! The serializer unit (Section 4.5).
//!
//! Converts a populated C++ protobuf object into the wire format. The
//! frontend walks the `hasbits` and `is_submessage` bit fields, issuing one
//! handle-field-op per present field; ops are dispatched round-robin to
//! parallel field serializer units that load field data and encode it; the
//! memwriter sequences their output into one stream written from high to low
//! addresses, injecting each (sub-)message's key and length once all of its
//! fields have been seen (Section 4.5.1) — byte-identical to a software
//! serializer that writes forward in increasing field-number order.

pub mod fsu;
pub mod memwriter;

use protoacc_mem::{AccessKind, Cycles, Memory};
use protoacc_runtime::{AdtLayout, FieldEntry, TypeCode, ADT_ENTRY_BYTES};
use protoacc_wire::hw::CombVarintEncoder;
use protoacc_wire::{FieldKey, WireType};

use crate::adtcache::AdtCache;
use crate::{AccelConfig, AccelError, AccelStats};
use fsu::FsuPool;
use memwriter::ReverseWriter;

/// Outcome of one serialization operation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SerRun {
    /// Total cycles charged (RoCC dispatch + the slowest pipeline stage).
    pub cycles: Cycles,
    /// Cycles the frontend spent scanning bit fields and issuing ops.
    pub frontend_cycles: Cycles,
    /// Busy time of the most-loaded field serializer unit.
    pub fsu_cycles: Cycles,
    /// Memwriter output-port occupancy.
    pub memwriter_cycles: Cycles,
    /// Guest address of the first byte of the serialized output.
    pub out_addr: u64,
    /// Serialized length in bytes.
    pub out_len: u64,
    /// Fields serialized (recursively).
    pub fields: u64,
}

/// Host buffers a [`SerUnit`] reuses from one op to the next. An op starts
/// by resetting them, so whatever an earlier op left behind, on success or
/// on error, never shows.
#[derive(Debug)]
struct Scratch {
    pool: FsuPool,
    /// Hasbits of the messages being serialized: one slice per nesting
    /// level, pushed on entry and truncated away on return.
    hasbits: Vec<u8>,
    /// A string field's payload on its way to the memwriter.
    payload: Vec<u8>,
}

/// The serializer unit.
#[derive(Debug)]
pub struct SerUnit {
    config: AccelConfig,
    adt_cache: AdtCache,
    tracer: Option<protoacc_trace::SharedTracer>,
    trace_instance: usize,
    trace_origin: Cycles,
    /// Out of the unit while an op runs; built by the first op.
    scratch: Option<Scratch>,
}

impl SerUnit {
    /// Creates a serializer unit with cold internal state.
    pub fn new(config: AccelConfig) -> Self {
        SerUnit {
            adt_cache: AdtCache::new(config.adt_cache_entries),
            config,
            tracer: None,
            trace_instance: 0,
            trace_origin: 0,
            scratch: None,
        }
    }

    /// Attaches (or detaches, with `None`) a structured-event tracer.
    /// Tracing is a pure observer: it never changes cycle accounting.
    pub fn set_tracer(&mut self, tracer: Option<protoacc_trace::SharedTracer>) {
        self.tracer = tracer;
    }

    /// Sets the instance id stamped onto emitted events.
    pub fn set_trace_instance(&mut self, instance: usize) {
        self.trace_instance = instance;
    }

    /// Sets the cluster-cycle origin that unit-relative timestamps are
    /// rebased onto.
    pub fn set_trace_origin(&mut self, origin: Cycles) {
        self.trace_origin = origin;
    }

    fn emit(&self, event: protoacc_trace::TraceEvent) {
        if let Some(t) = &self.tracer {
            t.borrow_mut().record(event);
        }
    }

    fn emit_adt(&self, frontend: Cycles, hit: bool, cycles: Cycles) {
        if self.tracer.is_some() {
            self.emit(protoacc_trace::TraceEvent::AdtAccess {
                instance: self.trace_instance,
                at: self.trace_origin + frontend,
                unit: protoacc_trace::AdtUnit::Ser,
                hit,
                cycles,
            });
        }
    }

    /// Serializes the object at `obj_ptr` (type described by the ADT at
    /// `adt_ptr`) through `writer`.
    ///
    /// # Errors
    ///
    /// Output-region overflow or malformed ADT state.
    pub fn run(
        &mut self,
        mem: &mut Memory,
        writer: &mut ReverseWriter,
        adt_ptr: u64,
        obj_ptr: u64,
        stats: &mut AccelStats,
    ) -> Result<SerRun, AccelError> {
        let units = self.config.field_serializers;
        let mut scratch = self.scratch.take().unwrap_or_else(|| Scratch {
            pool: FsuPool::new(units),
            hasbits: Vec::new(),
            payload: Vec::new(),
        });
        scratch.pool.reset(units);
        scratch.hasbits.clear();
        let result = self.run_with(&mut scratch, mem, writer, adt_ptr, obj_ptr, stats);
        self.scratch = Some(scratch);
        result
    }

    fn run_with(
        &mut self,
        scratch: &mut Scratch,
        mem: &mut Memory,
        writer: &mut ReverseWriter,
        adt_ptr: u64,
        obj_ptr: u64,
        stats: &mut AccelStats,
    ) -> Result<SerRun, AccelError> {
        let mut frontend: Cycles = 0;
        let mut fields: u64 = 0;
        let writer_cycles_before = writer.cycles();
        let cursor_before = writer.cursor();

        self.ser_message(
            mem,
            writer,
            scratch,
            adt_ptr,
            obj_ptr,
            &mut frontend,
            &mut fields,
            stats,
            0,
        )?;

        let out_addr = writer.cursor();
        let out_len = cursor_before - out_addr;
        let memwriter_cycles = writer.cycles() - writer_cycles_before;
        let fsu_cycles = scratch.pool.max_busy();
        if self.tracer.is_some() && memwriter_cycles > 0 {
            self.emit(protoacc_trace::TraceEvent::MemwriterFlush {
                instance: self.trace_instance,
                start: self.trace_origin,
                cycles: memwriter_cycles,
                bytes: out_len,
            });
        }
        stats.fields += fields;
        let cycles =
            self.config.rocc_dispatch_cycles + frontend.max(fsu_cycles).max(memwriter_cycles);
        Ok(SerRun {
            cycles,
            frontend_cycles: frontend,
            fsu_cycles,
            memwriter_cycles,
            out_addr,
            out_len,
            fields,
        })
    }

    /// Drops cached ADT state.
    pub fn reset_caches(&mut self) {
        self.adt_cache.clear();
    }

    /// ADT-misses counter (for reporting).
    pub fn adt_misses(&self) -> u64 {
        self.adt_cache.misses()
    }

    /// Serializes one (sub-)message in reverse field-number order.
    #[allow(clippy::too_many_arguments)]
    fn ser_message(
        &mut self,
        mem: &mut Memory,
        writer: &mut ReverseWriter,
        scratch: &mut Scratch,
        adt_ptr: u64,
        obj_ptr: u64,
        frontend: &mut Cycles,
        fields: &mut u64,
        stats: &mut AccelStats,
        depth: usize,
    ) -> Result<(), AccelError> {
        let (adt_cost, adt_hit) = self.adt_cache.load(&mut mem.system, adt_ptr, 64);
        *frontend += adt_cost;
        self.emit_adt(*frontend, adt_hit, adt_cost);
        let adt = AdtLayout::read(&mem.data, adt_ptr);
        let span = adt.span();
        if span == 0 {
            return Ok(());
        }
        // Frontend loads hasbits and is_submessage bit fields in parallel
        // (Section 4.5.3) and scans word-by-word.
        let hasbits_addr = obj_ptr + adt.hasbits_offset;
        let hasbits_bytes = span.div_ceil(8) as usize;
        let hb_cost = mem
            .system
            .pipelined(hasbits_addr, hasbits_bytes, AccessKind::Read);
        let sub_cost = mem
            .system
            .pipelined(adt.is_submessage, hasbits_bytes, AccessKind::Read);
        *frontend += hb_cost.max(sub_cost) + span.div_ceil(64);
        // The timed fetch above is the hardware's; functionally read the
        // span's hasbits once rather than per field number. Sub-messages
        // push their own slice above this one and truncate it on return.
        let base = scratch.hasbits.len();
        scratch.hasbits.resize(base + hasbits_bytes, 0);
        mem.data
            .read_bytes(hasbits_addr, &mut scratch.hasbits[base..]);

        // Reverse field-number order (Section 4.5.1).
        for number in (adt.min_field..=adt.max_field).rev() {
            let bit = u64::from(number - adt.min_field);
            let set = scratch.hasbits[base + (bit / 8) as usize] & (1 << (bit % 8)) != 0;
            if !set {
                continue;
            }
            *frontend += 1; // issue the handle-field-op
            if self.config.dense_hasbits {
                // Rejected alternative (Section 4.2): dense hasbits need a
                // field-number -> dense-bit mapping read per present field.
                *frontend += mem
                    .system
                    .access(adt.base + 4096 + bit * 4, 4, AccessKind::Read);
            }
            let entry_addr = adt.entries + bit * ADT_ENTRY_BYTES;
            let (entry_cost, entry_hit) =
                self.adt_cache
                    .load(&mut mem.system, entry_addr, ADT_ENTRY_BYTES as usize);
            *frontend += entry_cost;
            self.emit_adt(*frontend, entry_hit, entry_cost);
            let entry = FieldEntry::from_bytes(&mem.data.read_array(entry_addr));
            if !entry.is_defined() {
                continue; // stray hasbit in a field-number gap
            }
            *fields += 1;
            let slot = obj_ptr + u64::from(entry.offset);

            if entry.type_code == TypeCode::Message {
                // Context switch into the sub-message (the is_submessage bit
                // told the frontend this without waiting for the full entry).
                *frontend += 1;
                if depth + 1 >= self.config.stack_depth {
                    stats.stack_spills += 1;
                    *frontend += self.config.stack_spill_cycles;
                }
                stats.stack_pushes += 1;
                if entry.repeated {
                    let header = read_timed_u64(mem, slot, frontend);
                    let data = read_timed_u64(mem, header, frontend);
                    let count = read_timed_u64(mem, header + 8, frontend);
                    for i in (0..count).rev() {
                        let elem_ptr = read_timed_u64(mem, data + i * 8, frontend);
                        let before = writer.cursor();
                        self.ser_message(
                            mem,
                            writer,
                            scratch,
                            entry.sub_adt,
                            elem_ptr,
                            frontend,
                            fields,
                            stats,
                            depth + 1,
                        )?;
                        let len = before - writer.cursor();
                        self.inject_length_delimited_key(mem, writer, number, len)?;
                    }
                } else {
                    let sub_obj = read_timed_u64(mem, slot, frontend);
                    let before = writer.cursor();
                    self.ser_message(
                        mem,
                        writer,
                        scratch,
                        entry.sub_adt,
                        sub_obj,
                        frontend,
                        fields,
                        stats,
                        depth + 1,
                    )?;
                    let len = before - writer.cursor();
                    self.inject_length_delimited_key(mem, writer, number, len)?;
                }
                continue;
            }

            // Non-sub-message field: one handle-field-op to an FSU.
            let fsu_cost = self.ser_field(
                mem,
                writer,
                &mut scratch.payload,
                entry,
                number,
                slot,
                stats,
            )?;
            let (unit, start_busy) = scratch.pool.dispatch(fsu_cost);
            if self.tracer.is_some() {
                self.emit(protoacc_trace::TraceEvent::FsuOp {
                    instance: self.trace_instance,
                    unit,
                    start: self.trace_origin + start_busy,
                    cycles: fsu_cost,
                    field_number: number,
                });
            }
        }
        scratch.hasbits.truncate(base);
        Ok(())
    }

    /// Serializes one non-message field, returning the FSU busy cycles.
    #[allow(clippy::too_many_arguments)]
    fn ser_field(
        &mut self,
        mem: &mut Memory,
        writer: &mut ReverseWriter,
        payload: &mut Vec<u8>,
        entry: FieldEntry,
        number: u32,
        slot: u64,
        stats: &mut AccelStats,
    ) -> Result<Cycles, AccelError> {
        let mut cost: Cycles = 1; // encode cycle
        match entry.type_code {
            TypeCode::Str | TypeCode::Bytes => {
                if entry.repeated {
                    let header = slot_read(mem, slot, &mut cost);
                    let data = slot_read(mem, header, &mut cost);
                    let count = slot_read(mem, header + 8, &mut cost);
                    for i in (0..count).rev() {
                        let str_obj = slot_read(mem, data + i * 8, &mut cost);
                        cost += self.emit_string(mem, writer, payload, str_obj, number, stats)?;
                    }
                } else {
                    let str_obj = slot_read(mem, slot, &mut cost);
                    cost += self.emit_string(mem, writer, payload, str_obj, number, stats)?;
                }
            }
            scalar => {
                let size = scalar.scalar_size().expect("scalar type code");
                if entry.repeated {
                    let header = slot_read(mem, slot, &mut cost);
                    let data = slot_read(mem, header, &mut cost);
                    let count = slot_read(mem, header + 8, &mut cost);
                    cost += mem
                        .system
                        .access(data, (count * size) as usize, AccessKind::Read);
                    if entry.packed {
                        let before = writer.cursor();
                        for i in (0..count).rev() {
                            let bits = read_scalar_bits(mem, data + i * size, size);
                            cost += self.emit_packed_element(mem, writer, scalar, bits, stats)?;
                        }
                        let body_len = before - writer.cursor();
                        writer.prepend_varint(&mut *mem, body_len)?;
                        let key = FieldKey::new(number, WireType::LengthDelimited)
                            .expect("valid field number");
                        let encoded = CombVarintEncoder::encode(key.encoded());
                        writer.prepend(mem, encoded.as_slice())?;
                        stats.varints += 2;
                        cost += 2;
                    } else {
                        for i in (0..count).rev() {
                            let bits = read_scalar_bits(mem, data + i * size, size);
                            cost += self
                                .emit_scalar_with_key(mem, writer, scalar, number, bits, stats)?;
                        }
                    }
                } else {
                    cost += mem.system.access(slot, size as usize, AccessKind::Read);
                    let bits = read_scalar_bits(mem, slot, size);
                    cost += self.emit_scalar_with_key(mem, writer, scalar, number, bits, stats)?;
                }
            }
        }
        Ok(cost)
    }

    /// Emits `[key][value]` for a scalar field (value first: the writer
    /// prepends).
    fn emit_scalar_with_key(
        &mut self,
        mem: &mut Memory,
        writer: &mut ReverseWriter,
        type_code: TypeCode,
        number: u32,
        bits: u64,
        stats: &mut AccelStats,
    ) -> Result<Cycles, AccelError> {
        let cost = self.emit_packed_element(mem, writer, type_code, bits, stats)?;
        let key = FieldKey::new(number, type_code.wire_type()).expect("valid field number");
        let encoded = CombVarintEncoder::encode(key.encoded());
        writer.prepend(mem, encoded.as_slice())?;
        stats.varints += 1;
        Ok(cost + 1)
    }

    /// Emits just a scalar value (no key), as inside packed bodies.
    fn emit_packed_element(
        &mut self,
        mem: &mut Memory,
        writer: &mut ReverseWriter,
        type_code: TypeCode,
        bits: u64,
        stats: &mut AccelStats,
    ) -> Result<Cycles, AccelError> {
        match type_code.wire_type() {
            WireType::Varint => {
                let raw = type_code.wire_varint_from_bits(bits);
                let encoded = CombVarintEncoder::encode(raw);
                writer.prepend(mem, encoded.as_slice())?;
                stats.varints += 1;
                Ok(1) // single-cycle combinational encode
            }
            WireType::Bits32 => {
                writer.prepend(mem, &(bits as u32).to_le_bytes())?;
                Ok(1)
            }
            WireType::Bits64 => {
                writer.prepend(mem, &bits.to_le_bytes())?;
                Ok(1)
            }
            _ => unreachable!("length-delimited handled elsewhere"),
        }
    }

    /// Emits `[key][len][payload]` for a string/bytes field, staging the
    /// payload in `payload`.
    fn emit_string(
        &mut self,
        mem: &mut Memory,
        writer: &mut ReverseWriter,
        payload: &mut Vec<u8>,
        string_obj: u64,
        number: u32,
        stats: &mut AccelStats,
    ) -> Result<Cycles, AccelError> {
        let mut cost: Cycles = 0;
        let data_ptr = slot_read(mem, string_obj, &mut cost);
        let len = slot_read(mem, string_obj + 8, &mut cost);
        cost += mem
            .system
            .pipelined(data_ptr, len as usize, AccessKind::Read);
        payload.clear();
        payload.resize(len as usize, 0);
        mem.data.read_bytes(data_ptr, payload);
        writer.prepend(mem, payload)?;
        writer.prepend_varint(&mut *mem, len)?;
        let key = FieldKey::new(number, WireType::LengthDelimited).expect("valid field number");
        let encoded = CombVarintEncoder::encode(key.encoded());
        writer.prepend(mem, encoded.as_slice())?;
        stats.varints += 2;
        Ok(cost + 2)
    }

    /// The memwriter's end-of-message action: inject the sub-message's
    /// length and key below its fields.
    fn inject_length_delimited_key(
        &mut self,
        mem: &mut Memory,
        writer: &mut ReverseWriter,
        number: u32,
        len: u64,
    ) -> Result<(), AccelError> {
        writer.prepend_varint(mem, len)?;
        let key = FieldKey::new(number, WireType::LengthDelimited).expect("valid field number");
        let encoded = CombVarintEncoder::encode(key.encoded());
        writer.prepend(mem, encoded.as_slice())?;
        Ok(())
    }
}

fn read_timed_u64(mem: &mut Memory, addr: u64, cycles: &mut Cycles) -> u64 {
    *cycles += mem.system.pipelined(addr, 8, AccessKind::Read);
    mem.data.read_u64(addr)
}

fn slot_read(mem: &mut Memory, addr: u64, cost: &mut Cycles) -> u64 {
    // The FSU blocks on its own loads; running several FSUs in parallel is
    // what hides this latency (Section 4.5.4).
    *cost += mem.system.access(addr, 8, AccessKind::Read);
    mem.data.read_u64(addr)
}

fn read_scalar_bits(mem: &Memory, addr: u64, size: u64) -> u64 {
    match size {
        1 => u64::from(mem.data.read_u8(addr)),
        4 => u64::from(mem.data.read_u32(addr)),
        8 => mem.data.read_u64(addr),
        other => unreachable!("no {other}-byte scalars"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use protoacc_mem::{MemConfig, Memory};
    use protoacc_runtime::{
        object, reference, write_adts, BumpArena, MessageLayouts, MessageValue, Value,
    };
    use protoacc_schema::{FieldType, SchemaBuilder};

    fn unit_harness() -> (
        protoacc_schema::Schema,
        MessageLayouts,
        Memory,
        protoacc_runtime::AdtTables,
        BumpArena,
        protoacc_schema::MessageId,
    ) {
        let mut b = SchemaBuilder::new();
        let id = b.define("U", |m| {
            m.optional("a", FieldType::UInt64, 1)
                .optional("b", FieldType::Double, 3)
                .optional("s", FieldType::String, 7);
        });
        let schema = b.build().unwrap();
        let layouts = MessageLayouts::compute(&schema);
        let mut mem = Memory::new(MemConfig::default());
        let mut arena = BumpArena::new(0x1_0000, 1 << 22);
        let adts = write_adts(&schema, &layouts, &mut mem.data, &mut arena).unwrap();
        (schema, layouts, mem, adts, arena, id)
    }

    #[test]
    fn run_reports_stage_breakdown_and_matches_reference() {
        let (schema, layouts, mut mem, adts, mut arena, id) = unit_harness();
        let mut m = MessageValue::new(id);
        m.set_unchecked(1, Value::UInt64(u64::MAX));
        m.set_unchecked(3, Value::Double(2.5));
        m.set_unchecked(7, Value::Str("stage breakdown".into()));
        let obj = object::write_message(&mut mem.data, &schema, &layouts, &mut arena, &m).unwrap();
        let mut unit = SerUnit::new(AccelConfig::default());
        let mut writer = ReverseWriter::new(0x40_0000, 1 << 16, 16);
        let mut stats = AccelStats::default();
        let run = unit
            .run(&mut mem, &mut writer, adts.addr(id), obj, &mut stats)
            .unwrap();
        assert!(run.frontend_cycles > 0);
        assert!(run.fsu_cycles > 0);
        assert!(run.memwriter_cycles > 0);
        assert_eq!(
            run.cycles,
            AccelConfig::default().rocc_dispatch_cycles
                + run
                    .frontend_cycles
                    .max(run.fsu_cycles)
                    .max(run.memwriter_cycles)
        );
        assert_eq!(run.fields, 3);
        assert_eq!(
            mem.data.read_vec(run.out_addr, run.out_len as usize),
            reference::encode(&m, &schema).unwrap()
        );
    }

    #[test]
    fn empty_object_serializes_to_nothing() {
        let (schema, layouts, mut mem, adts, mut arena, id) = unit_harness();
        let obj = object::write_message(
            &mut mem.data,
            &schema,
            &layouts,
            &mut arena,
            &MessageValue::new(id),
        )
        .unwrap();
        let mut unit = SerUnit::new(AccelConfig::default());
        let mut writer = ReverseWriter::new(0x40_0000, 1 << 16, 16);
        let mut stats = AccelStats::default();
        let run = unit
            .run(&mut mem, &mut writer, adts.addr(id), obj, &mut stats)
            .unwrap();
        assert_eq!(run.out_len, 0);
        assert_eq!(run.fields, 0);
    }

    #[test]
    fn output_region_overflow_is_detected() {
        let (schema, layouts, mut mem, adts, mut arena, id) = unit_harness();
        let mut m = MessageValue::new(id);
        m.set_unchecked(7, Value::Str("far too long for the region".into()));
        let obj = object::write_message(&mut mem.data, &schema, &layouts, &mut arena, &m).unwrap();
        let mut unit = SerUnit::new(AccelConfig::default());
        let mut writer = ReverseWriter::new(0x40_0000, 8, 16); // 8-byte region
        let mut stats = AccelStats::default();
        assert!(matches!(
            unit.run(&mut mem, &mut writer, adts.addr(id), obj, &mut stats),
            Err(AccelError::OutputOverflow)
        ));
    }

    #[test]
    fn consecutive_outputs_pack_downward() {
        let (schema, layouts, mut mem, adts, mut arena, id) = unit_harness();
        let mut m = MessageValue::new(id);
        m.set_unchecked(1, Value::UInt64(7));
        let obj = object::write_message(&mut mem.data, &schema, &layouts, &mut arena, &m).unwrap();
        let mut unit = SerUnit::new(AccelConfig::default());
        let mut writer = ReverseWriter::new(0x40_0000, 1 << 12, 16);
        let mut stats = AccelStats::default();
        let first = unit
            .run(&mut mem, &mut writer, adts.addr(id), obj, &mut stats)
            .unwrap();
        let second = unit
            .run(&mut mem, &mut writer, adts.addr(id), obj, &mut stats)
            .unwrap();
        assert_eq!(second.out_addr + second.out_len, first.out_addr);
        assert_eq!(
            mem.data.read_vec(second.out_addr, second.out_len as usize),
            mem.data.read_vec(first.out_addr, first.out_len as usize)
        );
    }
}
