//! The deserializer unit (Section 4.4).
//!
//! Receives a pointer to a serialized protobuf and populates a C++ object of
//! the message's type, working entirely from the Accelerator Descriptor
//! Table: the field-handler FSM loops through parseKey → typeInfo → a
//! per-type write state, with a combinational varint decoder servicing keys
//! and varint values in a single cycle, a hasbits-writer unit marking field
//! presence, and in-accelerator arena allocation for strings, sub-messages,
//! and repeated fields. Sub-messages are tracked on message-level metadata
//! stacks with a configurable on-chip depth (Section 3.8); deeper nesting
//! spills to DRAM.

pub mod memloader;

use protoacc_mem::{AccessKind, Cycles, Memory};
use protoacc_runtime::{
    reference, AdtLayout, BumpArena, FieldEntry, TypeCode, ADT_ENTRY_BYTES, REPEATED_HEADER_BYTES,
    STRING_OBJECT_BYTES, STRING_SSO_CAPACITY,
};
use protoacc_wire::hw::{CombVarintDecoder, DecodedVarint, Utf8Validator};
use protoacc_wire::{FieldKey, WireError, WireType, MAX_VARINT_LEN};

use crate::adtcache::AdtCache;
use crate::{AccelConfig, AccelError, AccelStats};
use memloader::Memloader;

/// Outcome of one deserialization operation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeserRun {
    /// Total cycles charged (RoCC dispatch + the larger of the FSM pipeline
    /// and the memloader's streaming bandwidth bound).
    pub cycles: Cycles,
    /// Cycles the field-handler FSM and write path were busy.
    pub fsm_cycles: Cycles,
    /// Cycles the memloader's input streaming occupied the bus.
    pub stream_cycles: Cycles,
    /// Wire bytes consumed.
    pub wire_bytes: u64,
    /// Fields handled (recursively).
    pub fields: u64,
}

/// Accumulator for one repeated field while its allocation region is open
/// (Section 4.4.8).
#[derive(Debug)]
struct RepeatedRegion {
    field_number: u32,
    entry: FieldEntry,
    scalars: Vec<u64>,
    ptrs: Vec<u64>,
}

/// Message-level metadata for one level of sub-message nesting
/// (Section 4.4.9).
#[derive(Debug)]
struct Frame {
    adt: AdtLayout,
    obj: u64,
    /// Absolute input offset at which this (sub-)message ends.
    end: usize,
    /// When this frame closes, append `obj` to the parent's repeated region
    /// for this field number (used for repeated sub-messages).
    close_into_parent_repeated: Option<u32>,
    /// Open repeated-field regions, sorted by field number: the order
    /// `close_frame` lays them out in the arena.
    regions: Vec<RepeatedRegion>,
}

impl Frame {
    /// The open region for field `field_number`, opened on first use.
    fn region(&mut self, field_number: u32, entry: FieldEntry) -> &mut RepeatedRegion {
        let i = match self
            .regions
            .binary_search_by_key(&field_number, |r| r.field_number)
        {
            Ok(i) => i,
            Err(i) => {
                self.regions.insert(
                    i,
                    RepeatedRegion {
                        field_number,
                        entry,
                        scalars: Vec::new(),
                        ptrs: Vec::new(),
                    },
                );
                i
            }
        };
        &mut self.regions[i]
    }
}

/// Host buffers a [`DeserUnit`] reuses from one op to the next. An op
/// starts by clearing them, so whatever an earlier op left behind, on
/// success or on error, never shows.
#[derive(Debug, Default)]
struct Scratch {
    /// The memloader's copy of the serialized input.
    input: Vec<u8>,
    /// The message-level metadata stack.
    frames: Vec<Frame>,
}

/// The deserializer unit.
#[derive(Debug)]
pub struct DeserUnit {
    config: AccelConfig,
    adt_cache: AdtCache,
    tracer: Option<protoacc_trace::SharedTracer>,
    trace_instance: usize,
    trace_origin: Cycles,
    scratch: Scratch,
}

impl DeserUnit {
    /// Creates a deserializer unit with cold internal state.
    pub fn new(config: AccelConfig) -> Self {
        DeserUnit {
            adt_cache: AdtCache::new(config.adt_cache_entries),
            config,
            tracer: None,
            trace_instance: 0,
            trace_origin: 0,
            scratch: Scratch::default(),
        }
    }

    /// Attaches (or detaches) a structured event tracer. Tracing is purely
    /// observational: cycle results are identical with and without it.
    pub fn set_tracer(&mut self, tracer: Option<protoacc_trace::SharedTracer>) {
        self.tracer = tracer;
    }

    /// Instance id stamped on emitted events.
    pub fn set_trace_instance(&mut self, instance: usize) {
        self.trace_instance = instance;
    }

    /// Base timestamp for the next op's events (e.g. its dispatch time on
    /// the serve cluster's queue clock); FSM-relative offsets are added.
    pub fn set_trace_origin(&mut self, origin: Cycles) {
        self.trace_origin = origin;
    }

    fn emit(&self, event: protoacc_trace::TraceEvent) {
        if let Some(t) = &self.tracer {
            t.borrow_mut().record(event);
        }
    }

    fn emit_fsm(&self, fsm: Cycles, state: protoacc_trace::FsmState, field_number: u32) {
        if self.tracer.is_some() {
            self.emit(protoacc_trace::TraceEvent::FsmTransition {
                instance: self.trace_instance,
                at: self.trace_origin + fsm,
                state,
                field_number,
            });
        }
    }

    fn emit_adt(&self, fsm: Cycles, hit: bool, cycles: Cycles) {
        if self.tracer.is_some() {
            self.emit(protoacc_trace::TraceEvent::AdtAccess {
                instance: self.trace_instance,
                at: self.trace_origin + fsm,
                unit: protoacc_trace::AdtUnit::Deser,
                hit,
                cycles,
            });
        }
    }

    /// Closes the span of the previously opened field, if any, and opens
    /// one for `field_number` at FSM time `fsm`.
    fn roll_field_span(&self, pending: &mut Option<(u32, Cycles)>, next: Option<u32>, fsm: Cycles) {
        if self.tracer.is_none() {
            return;
        }
        if let Some((field_number, start)) = pending.take() {
            self.emit(protoacc_trace::TraceEvent::Field {
                instance: self.trace_instance,
                start: self.trace_origin + start,
                cycles: fsm - start,
                field_number,
            });
        }
        *pending = next.map(|f| (f, fsm));
    }

    /// Executes one deserialization: input at `input_addr`/`input_len`,
    /// message type described by the ADT at `adt_ptr`, output into the
    /// caller-allocated object at `dest_obj`, internal allocations from
    /// `arena`.
    ///
    /// # Errors
    ///
    /// Malformed wire input, incompatible wire types, or arena exhaustion.
    #[allow(clippy::too_many_arguments)]
    pub fn run(
        &mut self,
        mem: &mut Memory,
        arena: &mut BumpArena,
        adt_ptr: u64,
        dest_obj: u64,
        input_addr: u64,
        input_len: u64,
        stats: &mut AccelStats,
    ) -> Result<DeserRun, AccelError> {
        // The scratch leaves `self` for the op and comes back on every exit.
        let mut scratch = std::mem::take(&mut self.scratch);
        let result = self.run_with(
            &mut scratch,
            mem,
            arena,
            adt_ptr,
            dest_obj,
            input_addr,
            input_len,
            stats,
        );
        self.scratch = scratch;
        result
    }

    #[allow(clippy::too_many_arguments)]
    fn run_with(
        &mut self,
        scratch: &mut Scratch,
        mem: &mut Memory,
        arena: &mut BumpArena,
        adt_ptr: u64,
        dest_obj: u64,
        input_addr: u64,
        input_len: u64,
        stats: &mut AccelStats,
    ) -> Result<DeserRun, AccelError> {
        let Scratch { input, frames } = scratch;
        let mut fsm: Cycles = 0;
        let mut fields: u64 = 0;

        // Memloader prefetch: the streaming bandwidth bound for the whole
        // input; FSM work overlaps with it (decoupled interface).
        let stream_cycles = mem
            .system
            .stream(input_addr, input_len as usize, AccessKind::Read);
        if self.tracer.is_some() {
            self.emit(protoacc_trace::TraceEvent::MemloaderStream {
                instance: self.trace_instance,
                start: self.trace_origin,
                cycles: stream_cycles,
                bytes: input_len,
                windows: input_len.div_ceil(memloader::WINDOW_BYTES as u64),
            });
        }
        input.clear();
        input.resize(input_len as usize, 0);
        mem.data.read_bytes(input_addr, input);
        let mut loader = Memloader::new(input, input_addr);
        // Span bookkeeping for the per-field trace: `(field_number, fsm at
        // key parse)` of the field currently being handled. Only ever
        // `Some` while a tracer is attached.
        let mut open_field: Option<(u32, Cycles)> = None;

        let root_adt = self.load_adt_header(mem, adt_ptr, &mut fsm);
        frames.clear();
        frames.push(Frame {
            adt: root_adt,
            obj: dest_obj,
            end: loader.len(),
            close_into_parent_repeated: None,
            regions: Vec::new(),
        });

        while !frames.is_empty() {
            let top = frames.len() - 1;
            let frame_end = frames[top].end;
            if loader.position() >= frame_end {
                // End of (sub-)message: close regions and pop the stack.
                let frame = frames.pop().expect("frame present");
                fsm += 1;
                self.roll_field_span(&mut open_field, None, fsm);
                self.emit_fsm(fsm, protoacc_trace::FsmState::CloseFrame, 0);
                self.close_frame(mem, arena, frame, frames, &mut fsm, stats)?;
                if frames.len() >= self.config.stack_depth {
                    fsm += self.config.stack_spill_cycles;
                }
                continue;
            }

            // --- parseKey state: combinational varint decode of the key ---
            let fsm_at_key = fsm;
            let decoded = varint_at(&loader, frame_end)?;
            loader.consume(decoded.len);
            fsm += 1;
            stats.varints += 1;
            let key = FieldKey::from_encoded(decoded.value)?;
            fields += 1;
            self.roll_field_span(&mut open_field, Some(key.field_number()), fsm_at_key);
            self.emit_fsm(fsm, protoacc_trace::FsmState::ParseKey, key.field_number());

            let Some(entry_addr) = frames[top].adt.entry_addr(key.field_number()) else {
                // Field number outside the defined range: skip the value.
                self.emit_fsm(fsm, protoacc_trace::FsmState::Skip, key.field_number());
                self.skip_value(&mut loader, key.wire_type(), frame_end, &mut fsm)?;
                continue;
            };

            // --- typeInfo state: block for the ADT loader response ---
            let (adt_cost, adt_hit) =
                self.adt_cache
                    .load(&mut mem.system, entry_addr, ADT_ENTRY_BYTES as usize);
            fsm += adt_cost;
            self.emit_adt(fsm, adt_hit, adt_cost);
            self.emit_fsm(fsm, protoacc_trace::FsmState::TypeInfo, key.field_number());
            let entry = FieldEntry::from_bytes(&mem.data.read_array(entry_addr));
            if !entry.is_defined() {
                self.emit_fsm(fsm, protoacc_trace::FsmState::Skip, key.field_number());
                self.skip_value(&mut loader, key.wire_type(), frame_end, &mut fsm)?;
                continue;
            }

            // Hasbits writer: dispatched at parseKey; the write itself is
            // pipelined through the memory interface wrapper.
            {
                let frame = &frames[top];
                let bit = u64::from(key.field_number() - frame.adt.min_field);
                let hb_addr = frame.obj + frame.adt.hasbits_offset + bit / 8;
                if self.config.dense_hasbits {
                    // Rejected alternative (Section 4.2): a dense packing
                    // needs a mapping table indexed by field number — an
                    // additional blocking 32-bit read per field.
                    fsm += mem
                        .system
                        .access(frame.adt.base + 4096 + bit * 4, 4, AccessKind::Read);
                }
                let old = mem.data.read_u8(hb_addr);
                mem.data.write_u8(hb_addr, old | (1 << (bit % 8)));
                fsm += mem.system.pipelined(hb_addr, 1, AccessKind::Write);
            }

            // Packed arrival only for repeated packable scalars — the same
            // predicate the CPU reference decoder applies, so corrupted keys
            // that turn a scalar field length-delimited reject identically
            // on both paths (`scalar_size().is_some()` is the ADT-level
            // equivalent of `FieldType::is_packable`).
            let expected_wire = entry.type_code.wire_type();
            let packed_arrival = key.wire_type() == WireType::LengthDelimited
                && expected_wire != WireType::LengthDelimited
                && entry.repeated
                && entry.type_code.scalar_size().is_some();
            if !packed_arrival && key.wire_type() != expected_wire {
                // FSM error state: a defined field whose arriving wire type
                // contradicts its descriptor (same verdict class as the CPU
                // reference decoder).
                return Err(AccelError::Runtime(
                    protoacc_runtime::RuntimeError::WireTypeMismatch {
                        field_number: key.field_number(),
                    },
                ));
            }

            match entry.type_code {
                TypeCode::Str | TypeCode::Bytes => {
                    self.emit_fsm(fsm, protoacc_trace::FsmState::Write, key.field_number());
                    let len = self.read_length(&mut loader, frame_end, &mut fsm, stats)?;
                    let payload = loader.peek_bytes(len, frame_end).ok_or(AccelError::Wire(
                        WireError::LengthOutOfBounds {
                            declared: len as u64,
                            remaining: frame_end - loader.position(),
                        },
                    ))?;
                    let string_obj = self.alloc_string(
                        mem,
                        arena,
                        payload,
                        entry.type_code == TypeCode::Str,
                        key.field_number(),
                        &mut fsm,
                        stats,
                    )?;
                    loader.consume(len);
                    if entry.repeated {
                        frames[top]
                            .region(key.field_number(), entry)
                            .ptrs
                            .push(string_obj);
                        fsm += 1;
                    } else {
                        let slot = frames[top].obj + u64::from(entry.offset);
                        mem.data.write_u64(slot, string_obj);
                        fsm += mem.system.pipelined(slot, 8, AccessKind::Write);
                    }
                }
                TypeCode::Message => {
                    self.emit_fsm(fsm, protoacc_trace::FsmState::OpenFrame, key.field_number());
                    let len = self.read_length(&mut loader, frame_end, &mut fsm, stats)?;
                    // Compared as a subtraction so an adversarial 64-bit
                    // declared length cannot overflow the position addition.
                    if len > frame_end - loader.position() {
                        return Err(AccelError::Wire(WireError::LengthOutOfBounds {
                            declared: len as u64,
                            remaining: frame_end - loader.position(),
                        }));
                    }
                    let sub_adt = self.load_adt_header(mem, entry.sub_adt, &mut fsm);
                    // Allocate and zero-initialize the sub-message object.
                    let sub_obj = arena.alloc(sub_adt.object_size, 8)?;
                    stats.allocs += 1;
                    fsm += 1;
                    mem.data.fill(sub_obj, sub_adt.object_size as usize, 0);
                    fsm += mem.system.pipelined(
                        sub_obj,
                        sub_adt.object_size as usize,
                        AccessKind::Write,
                    );
                    let close_into = if entry.repeated {
                        frames[top].region(key.field_number(), entry);
                        Some(key.field_number())
                    } else {
                        let slot = frames[top].obj + u64::from(entry.offset);
                        mem.data.write_u64(slot, sub_obj);
                        fsm += mem.system.pipelined(slot, 8, AccessKind::Write);
                        None
                    };
                    // FSM error state: sub-message nesting past the decode
                    // depth limit (the new frame would sit at depth
                    // `frames.len()`, with the root at 0 — the same count
                    // the CPU reference decoder guards at message entry).
                    if frames.len() > reference::MAX_DECODE_DEPTH {
                        return Err(AccelError::Runtime(
                            protoacc_runtime::RuntimeError::DepthExceeded {
                                limit: reference::MAX_DECODE_DEPTH,
                            },
                        ));
                    }
                    // Push message-level metadata (Section 4.4.9).
                    let end = loader.position() + len;
                    stats.stack_pushes += 1;
                    fsm += 1;
                    if frames.len() >= self.config.stack_depth {
                        stats.stack_spills += 1;
                        fsm += self.config.stack_spill_cycles;
                    }
                    frames.push(Frame {
                        adt: sub_adt,
                        obj: sub_obj,
                        end,
                        close_into_parent_repeated: close_into,
                        regions: Vec::new(),
                    });
                }
                _scalar => {
                    self.emit_fsm(fsm, protoacc_trace::FsmState::Write, key.field_number());
                    if packed_arrival {
                        let len = self.read_length(&mut loader, frame_end, &mut fsm, stats)?;
                        if len > frame_end - loader.position() {
                            return Err(AccelError::Wire(WireError::LengthOutOfBounds {
                                declared: len as u64,
                                remaining: frame_end - loader.position(),
                            }));
                        }
                        let body_end = loader.position() + len;
                        // Fixed-width packed bodies stream at full window
                        // width; varint bodies decode one element per cycle.
                        while loader.position() < body_end {
                            let bits = decode_scalar(
                                &mut loader,
                                entry.type_code,
                                body_end,
                                &mut fsm,
                                stats,
                            )?;
                            frames[top]
                                .region(key.field_number(), entry)
                                .scalars
                                .push(bits);
                        }
                    } else {
                        let bits = decode_scalar(
                            &mut loader,
                            entry.type_code,
                            frame_end,
                            &mut fsm,
                            stats,
                        )?;
                        if entry.repeated {
                            frames[top]
                                .region(key.field_number(), entry)
                                .scalars
                                .push(bits);
                            fsm += 1;
                        } else {
                            let size = entry.type_code.scalar_size().expect("scalar type");
                            let slot = frames[top].obj + u64::from(entry.offset);
                            write_scalar_bits(mem, slot, bits, size);
                            fsm += mem.system.pipelined(slot, size as usize, AccessKind::Write);
                        }
                    }
                }
            }
        }

        self.roll_field_span(&mut open_field, None, fsm);
        stats.fields += fields;
        let cycles = self.config.rocc_dispatch_cycles + fsm.max(stream_cycles);
        Ok(DeserRun {
            cycles,
            fsm_cycles: fsm,
            stream_cycles,
            wire_bytes: input_len,
            fields,
        })
    }

    /// ADT-misses counter (for reporting).
    pub fn adt_misses(&self) -> u64 {
        self.adt_cache.misses()
    }

    /// Drops cached ADT state (e.g. between benchmark phases).
    pub fn reset_caches(&mut self) {
        self.adt_cache.clear();
    }

    fn load_adt_header(&mut self, mem: &mut Memory, adt_ptr: u64, fsm: &mut Cycles) -> AdtLayout {
        let (cost, hit) = self.adt_cache.load(&mut mem.system, adt_ptr, 64);
        *fsm += cost;
        self.emit_adt(*fsm, hit, cost);
        AdtLayout::read(&mem.data, adt_ptr)
    }

    fn read_length(
        &mut self,
        loader: &mut Memloader,
        limit: usize,
        fsm: &mut Cycles,
        stats: &mut AccelStats,
    ) -> Result<usize, AccelError> {
        let decoded = varint_at(loader, limit)?;
        loader.consume(decoded.len);
        *fsm += 1;
        stats.varints += 1;
        Ok(decoded.value as usize)
    }

    /// String allocation and copy states (Section 4.4.7): construct a
    /// libstdc++-compatible string object and copy the payload.
    #[allow(clippy::too_many_arguments)]
    fn alloc_string(
        &mut self,
        mem: &mut Memory,
        arena: &mut BumpArena,
        payload: &[u8],
        is_text: bool,
        field_number: u32,
        fsm: &mut Cycles,
        stats: &mut AccelStats,
    ) -> Result<u64, AccelError> {
        if self.config.validate_utf8 && is_text {
            // Proto3 support (Section 7): the validator checks one window
            // per cycle, overlapped with the copy; only the final-window
            // verdict adds a cycle beyond the copy itself.
            match Utf8Validator::validate(payload, self.config.window_bytes) {
                Some(_cycles) => *fsm += 1,
                None => {
                    return Err(AccelError::Runtime(
                        protoacc_runtime::RuntimeError::InvalidUtf8 { field_number },
                    ))
                }
            }
        }
        let obj = arena.alloc(STRING_OBJECT_BYTES, 8)?;
        stats.allocs += 1;
        *fsm += 1; // arena bump is a pointer increment
                   // Consuming the payload through the memloader window: any window
                   // narrower than the 16 B bus adds cycles beyond the bus occupancy
                   // already charged with the output write below.
        let bus_cycles = payload.len().div_ceil(protoacc_mem::BUS_WIDTH_BYTES);
        let window_cycles = payload.len().div_ceil(self.config.window_bytes);
        *fsm += window_cycles.saturating_sub(bus_cycles) as u64;
        mem.data.write_u64(obj + 8, payload.len() as u64);
        if payload.len() <= STRING_SSO_CAPACITY {
            mem.data.write_u64(obj, obj + 16);
            mem.data.write_bytes(obj + 16, payload);
            *fsm += mem
                .system
                .pipelined(obj, STRING_OBJECT_BYTES as usize, AccessKind::Write);
        } else {
            let buf = arena.alloc(payload.len() as u64 + 1, 8)?;
            stats.allocs += 1;
            mem.data.write_u64(obj, buf);
            mem.data.write_u64(obj + 16, payload.len() as u64 + 1);
            mem.data.write_bytes(buf, payload);
            *fsm += mem
                .system
                .pipelined(obj, STRING_OBJECT_BYTES as usize, AccessKind::Write);
            // The bulk copy: consumes from the memloader and streams out.
            *fsm += mem.system.pipelined(buf, payload.len(), AccessKind::Write);
        }
        Ok(obj)
    }

    fn skip_value(
        &mut self,
        loader: &mut Memloader,
        wire_type: WireType,
        limit: usize,
        fsm: &mut Cycles,
    ) -> Result<usize, AccelError> {
        let consumed = match wire_type {
            WireType::Varint => varint_at(loader, limit)?.len,
            WireType::Bits32 => 4,
            WireType::Bits64 => 8,
            WireType::LengthDelimited => {
                let d = varint_at(loader, limit)?;
                // A declared 64-bit length near usize::MAX must reject as
                // truncation, not overflow the addition.
                d.len
                    .checked_add(d.value as usize)
                    .ok_or(AccelError::Wire(WireError::Truncated { offset: limit }))?
            }
            WireType::StartGroup | WireType::EndGroup => {
                return Err(AccelError::Wire(WireError::InvalidWireType {
                    raw: wire_type.as_raw(),
                }))
            }
        };
        if consumed > limit.saturating_sub(loader.position()) {
            return Err(AccelError::Wire(WireError::Truncated { offset: limit }));
        }
        loader.consume(consumed);
        // Discarding streams through the window at full width.
        *fsm += 1 + consumed.div_ceil(self.config.window_bytes) as u64;
        Ok(consumed)
    }

    /// Closes out a frame's open allocation regions (writing headers,
    /// element arrays, and final lengths) and applies its close-into-parent
    /// action for repeated sub-messages.
    fn close_frame(
        &mut self,
        mem: &mut Memory,
        arena: &mut BumpArena,
        frame: Frame,
        frames: &mut [Frame],
        fsm: &mut Cycles,
        stats: &mut AccelStats,
    ) -> Result<(), AccelError> {
        for region in &frame.regions {
            let (count, elem_size, elems_are_ptrs) = if region.ptrs.is_empty() {
                (
                    region.scalars.len() as u64,
                    region.entry.type_code.scalar_size().unwrap_or(8),
                    false,
                )
            } else {
                (region.ptrs.len() as u64, 8, true)
            };
            if count == 0 {
                continue;
            }
            let header = arena.alloc(REPEATED_HEADER_BYTES, 8)?;
            let data = arena.alloc(count * elem_size, 8)?;
            stats.allocs += 2;
            *fsm += 1;
            mem.data.write_u64(header, data);
            mem.data.write_u64(header + 8, count);
            mem.data.write_u64(header + 16, count);
            *fsm += mem
                .system
                .pipelined(header, REPEATED_HEADER_BYTES as usize, AccessKind::Write);
            if elems_are_ptrs {
                for (i, &p) in region.ptrs.iter().enumerate() {
                    mem.data.write_u64(data + i as u64 * 8, p);
                }
            } else {
                for (i, &bits) in region.scalars.iter().enumerate() {
                    write_scalar_bits(mem, data + i as u64 * elem_size, bits, elem_size);
                }
            }
            *fsm += mem
                .system
                .pipelined(data, (count * elem_size) as usize, AccessKind::Write);
            let slot = frame.obj + u64::from(region.entry.offset);
            mem.data.write_u64(slot, header);
            *fsm += mem.system.pipelined(slot, 8, AccessKind::Write);
        }
        if let Some(field_number) = frame.close_into_parent_repeated {
            let parent = frames.last_mut().expect("parent frame for repeated sub");
            let i = parent
                .regions
                .binary_search_by_key(&field_number, |r| r.field_number)
                .expect("region opened at push");
            parent.regions[i].ptrs.push(frame.obj);
        }
        Ok(())
    }
}

/// Decodes the varint at the loader cursor, distinguishing a genuinely
/// non-terminating varint (a full 10-byte window with every continuation bit
/// set — `VarintOverflow`, matching the software reference decoder) from one
/// cut short by the frame or buffer end (`Truncated`).
fn varint_at(loader: &Memloader, limit: usize) -> Result<DecodedVarint, AccelError> {
    let window = loader.peek_varint_window(limit);
    CombVarintDecoder::decode_avail(window).ok_or(AccelError::Wire(
        if window.len() >= MAX_VARINT_LEN {
            WireError::VarintOverflow {
                offset: loader.position(),
            }
        } else {
            WireError::Truncated {
                offset: loader.position() + window.len(),
            }
        },
    ))
}

/// Stores the low `size` bytes of a scalar's in-memory bits at `addr`.
fn write_scalar_bits(mem: &mut Memory, addr: u64, bits: u64, size: u64) {
    match size {
        1 => mem.data.write_u8(addr, bits as u8),
        4 => mem.data.write_u32(addr, bits as u32),
        8 => mem.data.write_u64(addr, bits),
        other => unreachable!("no {other}-byte scalars"),
    }
}

/// Decodes one scalar (varint or fixed) value, returning its in-memory bits.
fn decode_scalar(
    loader: &mut Memloader,
    type_code: TypeCode,
    limit: usize,
    fsm: &mut Cycles,
    stats: &mut AccelStats,
) -> Result<u64, AccelError> {
    match type_code.wire_type() {
        WireType::Varint => {
            let decoded = varint_at(loader, limit)?;
            loader.consume(decoded.len);
            *fsm += 1; // single-cycle combinational decode (+ zigzag stage)
            stats.varints += 1;
            Ok(type_code.bits_from_wire_varint(decoded.value))
        }
        WireType::Bits32 => {
            let bits = {
                let bytes = loader
                    .peek_bytes(4, limit)
                    .ok_or(AccelError::Wire(WireError::Truncated { offset: limit }))?;
                u32::from_le_bytes(bytes.try_into().expect("4 bytes"))
            };
            loader.consume(4);
            *fsm += 1;
            Ok(u64::from(bits))
        }
        WireType::Bits64 => {
            let bits = {
                let bytes = loader
                    .peek_bytes(8, limit)
                    .ok_or(AccelError::Wire(WireError::Truncated { offset: limit }))?;
                u64::from_le_bytes(bytes.try_into().expect("8 bytes"))
            };
            loader.consume(8);
            *fsm += 1;
            Ok(bits)
        }
        _ => unreachable!("length-delimited handled by the FSM"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use protoacc_mem::MemConfig;
    use protoacc_runtime::{object, reference, write_adts, MessageLayouts, MessageValue};
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
            m.optional("v", FieldType::UInt64, 1)
                .optional("s", FieldType::String, 2)
                .packed("p", FieldType::UInt32, 3);
        });
        let schema = b.build().unwrap();
        let layouts = MessageLayouts::compute(&schema);
        let mut mem = Memory::new(MemConfig::default());
        let mut arena = BumpArena::new(0x1_0000, 1 << 22);
        let adts = write_adts(&schema, &layouts, &mut mem.data, &mut arena).unwrap();
        (schema, layouts, mem, adts, arena, id)
    }

    #[test]
    fn run_reports_cycle_breakdown() {
        let (schema, layouts, mut mem, adts, mut arena, id) = unit_harness();
        let mut m = MessageValue::new(id);
        m.set_unchecked(1, protoacc_runtime::Value::UInt64(300));
        m.set_unchecked(2, protoacc_runtime::Value::Str("breakdown".into()));
        let wire = reference::encode(&m, &schema).unwrap();
        mem.data.write_bytes(0x20_0000, &wire);
        let dest = arena.alloc(layouts.layout(id).object_size(), 8).unwrap();
        let mut unit = DeserUnit::new(AccelConfig::default());
        let mut stats = AccelStats::default();
        let mut accel_arena = BumpArena::new(0x100_0000, 1 << 20);
        let run = unit
            .run(
                &mut mem,
                &mut accel_arena,
                adts.addr(id),
                dest,
                0x20_0000,
                wire.len() as u64,
                &mut stats,
            )
            .unwrap();
        // Total = dispatch + max(fsm, stream); both components populated.
        assert!(run.fsm_cycles > 0);
        assert!(run.stream_cycles > 0);
        assert_eq!(
            run.cycles,
            AccelConfig::default().rocc_dispatch_cycles + run.fsm_cycles.max(run.stream_cycles)
        );
        assert_eq!(run.wire_bytes, wire.len() as u64);
        assert_eq!(run.fields, 2);
        assert!(stats.varints >= 3, "key + value + length varints");
        let back = object::read_message(&mem.data, &schema, &layouts, id, dest).unwrap();
        assert!(back.bits_eq(&m));
    }

    #[test]
    fn adt_cache_warms_across_operations() {
        let (schema, layouts, mut mem, adts, mut arena, id) = unit_harness();
        let mut m = MessageValue::new(id);
        m.set_unchecked(1, protoacc_runtime::Value::UInt64(1));
        let wire = reference::encode(&m, &schema).unwrap();
        mem.data.write_bytes(0x20_0000, &wire);
        let mut unit = DeserUnit::new(AccelConfig::default());
        let mut stats = AccelStats::default();
        let mut accel_arena = BumpArena::new(0x100_0000, 1 << 20);
        let run_once = |unit: &mut DeserUnit,
                        mem: &mut Memory,
                        arena: &mut BumpArena,
                        accel_arena: &mut BumpArena,
                        stats: &mut AccelStats| {
            let dest = arena.alloc(layouts.layout(id).object_size(), 8).unwrap();
            unit.run(
                mem,
                accel_arena,
                adts.addr(id),
                dest,
                0x20_0000,
                wire.len() as u64,
                stats,
            )
            .unwrap()
            .fsm_cycles
        };
        let cold = run_once(
            &mut unit,
            &mut mem,
            &mut arena,
            &mut accel_arena,
            &mut stats,
        );
        let warm = run_once(
            &mut unit,
            &mut mem,
            &mut arena,
            &mut accel_arena,
            &mut stats,
        );
        assert!(warm <= cold, "warm {warm} cold {cold}");
        let misses_after_two = unit.adt_misses();
        run_once(
            &mut unit,
            &mut mem,
            &mut arena,
            &mut accel_arena,
            &mut stats,
        );
        assert_eq!(
            unit.adt_misses(),
            misses_after_two,
            "third run fully cached"
        );
    }

    #[test]
    fn packed_body_with_trailing_garbage_length_fails() {
        let (_, layouts, mut mem, adts, mut arena, id) = unit_harness();
        // Packed field 3 declaring 5 bytes with only 2 available.
        let mut w = protoacc_wire::WireWriter::new();
        w.write_key(3, WireType::LengthDelimited).unwrap();
        w.write_raw_varint(5);
        w.write_raw_bytes(&[0x01, 0x02]);
        let wire = w.into_bytes();
        mem.data.write_bytes(0x20_0000, &wire);
        let dest = arena.alloc(layouts.layout(id).object_size(), 8).unwrap();
        let mut unit = DeserUnit::new(AccelConfig::default());
        let mut stats = AccelStats::default();
        let mut accel_arena = BumpArena::new(0x100_0000, 1 << 20);
        let result = unit.run(
            &mut mem,
            &mut accel_arena,
            adts.addr(id),
            dest,
            0x20_0000,
            wire.len() as u64,
            &mut stats,
        );
        assert!(matches!(
            result,
            Err(AccelError::Wire(WireError::LengthOutOfBounds { .. }))
        ));
    }
}
