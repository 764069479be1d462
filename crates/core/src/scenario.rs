//! Staging a serve scenario into guest memory.
//!
//! Every serve-layer study needs the same memory image: the schema's ADTs,
//! each prototype message's wire encoding (the deserialization input) and
//! object graph (the serialization input), and one destination object per
//! prototype. [`Scenario::new`] writes that image and
//! [`Scenario::requests`] turns `(prototype, deser, arrival)` events into
//! [`Request`]s, so the layout behind every simulated serve number is
//! decided in one place, and the accelerator and the CPU fallback codec
//! read one staged image.
//!
//! The layout is fixed so that simulated numbers replay across commits:
//!
//! | Region | Base | Contents |
//! |---|---|---|
//! | setup arena (64 MiB) | `0x1_0000` | ADTs |
//! | inputs | `0x2000_0000` | wire encodings, each followed by a 64-byte gap |
//! | objects (1 GiB) | `0x8000_0000` | per prototype: its object graph, then its destination slot |
//!
//! Callers keep everything else (accelerator arenas, fresh destinations,
//! fallback regions, corrupted inputs) outside these regions.
//!
//! ```rust
//! use protoacc::scenario::{Dest, Scenario};
//! use protoacc_mem::{MemConfig, Memory};
//! use protoacc_runtime::{MessageValue, Value};
//! use protoacc_schema::parse_proto;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let schema = parse_proto("message Ping { optional uint64 id = 1; }")?;
//! let mut ping = MessageValue::new(schema.id_by_name("Ping").unwrap());
//! ping.set(1, Value::UInt64(7))?;
//! let mut mem = Memory::new(MemConfig::default());
//! let scenario = Scenario::new(&schema, [&ping], &mut mem)?;
//! // (prototype, deser, arrival): deserialize, then serialize, prototype 0.
//! let requests = scenario.requests([(0, true, 0), (0, false, 500)], Dest::Shared)?;
//! assert_eq!(requests.len(), 2);
//! # Ok(())
//! # }
//! ```

use protoacc_mem::{Cycles, Memory};
use protoacc_runtime::{
    object, reference, write_adts, AdtTables, ArenaError, BumpArena, MessageLayouts, MessageValue,
    RuntimeError,
};
use protoacc_schema::{MessageId, Schema};

use crate::serve::{Request, RequestOp};

const SETUP_BASE: u64 = 0x1_0000;
const SETUP_SIZE: u64 = 1 << 26;
const INPUT_BASE: u64 = 0x2000_0000;
const INPUT_GAP: u64 = 64;
const OBJECT_BASE: u64 = 0x8000_0000;
const OBJECT_SIZE: u64 = 1 << 30;

/// Where a deserialization writes its object.
#[derive(Debug)]
pub enum Dest<'a> {
    /// The prototype's one staged slot, reused by every deserialization of
    /// that prototype. Two instances deserializing the same prototype at
    /// once then write the same bytes: the PA009 arena-aliasing hazard.
    /// Timing studies accept it; sanitized runs must not.
    Shared,
    /// A fresh object from this arena for every deserialization.
    Fresh(&'a mut BumpArena),
}

/// Guest-memory addresses of one staged prototype.
#[derive(Debug, Clone, Copy)]
pub struct Staged {
    /// Message type of the prototype.
    pub type_id: MessageId,
    /// ADT of the message type.
    pub adt_ptr: u64,
    /// Address of the staged wire encoding.
    pub input_addr: u64,
    /// Length of the staged wire encoding.
    pub input_len: u64,
    /// Root of the staged object graph.
    pub obj_ptr: u64,
    /// The shared destination slot ([`Dest::Shared`]).
    pub dest_obj: u64,
    /// Object size of the message type.
    pub object_size: u64,
    /// Hasbits offset of the message type.
    pub hasbits_offset: u64,
    /// Lowest field number of the message type.
    pub min_field: u32,
    /// Highest field number of the message type.
    pub max_field: u32,
}

impl Staged {
    /// Deserializes the staged input into `dest_obj`.
    #[must_use]
    pub fn deser_op(&self, dest_obj: u64) -> RequestOp {
        RequestOp::Deserialize {
            adt_ptr: self.adt_ptr,
            input_addr: self.input_addr,
            input_len: self.input_len,
            dest_obj,
            min_field: self.min_field,
        }
    }

    /// Serializes the staged object graph.
    #[must_use]
    pub fn ser_op(&self) -> RequestOp {
        RequestOp::Serialize {
            adt_ptr: self.adt_ptr,
            obj_ptr: self.obj_ptr,
            hasbits_offset: self.hasbits_offset,
            min_field: self.min_field,
            max_field: self.max_field,
        }
    }
}

/// A schema and its prototype messages, staged into guest memory.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Object layouts of every message type in the schema.
    pub layouts: MessageLayouts,
    /// ADT addresses (the CPU fallback codec resolves them back to types).
    pub adts: AdtTables,
    /// One record per prototype, in the order given to [`Scenario::new`].
    pub staged: Vec<Staged>,
}

impl Scenario {
    /// Writes the ADTs of `schema` and, per message of `prototypes`, its
    /// wire encoding, its object graph and a destination slot into `mem`.
    /// Addresses depend only on the inputs.
    ///
    /// # Errors
    ///
    /// A message that does not encode under `schema`, or a staging region
    /// too small for the scenario.
    pub fn new<'m>(
        schema: &Schema,
        prototypes: impl IntoIterator<Item = &'m MessageValue>,
        mem: &mut Memory,
    ) -> Result<Self, RuntimeError> {
        let layouts = MessageLayouts::compute(schema);
        let mut setup = BumpArena::new(SETUP_BASE, SETUP_SIZE);
        let adts = write_adts(schema, &layouts, &mut mem.data, &mut setup)?;
        let mut input_cursor = INPUT_BASE;
        let mut objects = BumpArena::new(OBJECT_BASE, OBJECT_SIZE);
        let staged = prototypes
            .into_iter()
            .map(|message| {
                let wire = reference::encode(message, schema)?;
                let input_addr = input_cursor;
                mem.data.write_bytes(input_addr, &wire);
                input_cursor += wire.len() as u64 + INPUT_GAP;
                let obj_ptr =
                    object::write_message(&mut mem.data, schema, &layouts, &mut objects, message)?;
                let type_id = message.type_id();
                let layout = layouts.layout(type_id);
                Ok(Staged {
                    type_id,
                    adt_ptr: adts.addr(type_id),
                    input_addr,
                    input_len: wire.len() as u64,
                    obj_ptr,
                    dest_obj: objects.alloc(layout.object_size(), 8)?,
                    object_size: layout.object_size(),
                    hasbits_offset: layout.hasbits_offset(),
                    min_field: layout.min_field(),
                    max_field: layout.max_field(),
                })
            })
            .collect::<Result<_, RuntimeError>>()?;
        Ok(Scenario {
            layouts,
            adts,
            staged,
        })
    }

    /// Turns `(prototype, deser, arrival)` events into requests with no
    /// watchdog, deadline or cost; deserializations write to `dest`.
    ///
    /// # Errors
    ///
    /// A [`Dest::Fresh`] arena that runs out.
    ///
    /// # Panics
    ///
    /// If an event names a prototype index that was not staged.
    pub fn requests<E: Into<(usize, bool, Cycles)>>(
        &self,
        events: impl IntoIterator<Item = E>,
        mut dest: Dest<'_>,
    ) -> Result<Vec<Request>, ArenaError> {
        events
            .into_iter()
            .map(|e| {
                let (prototype, deser, arrival) = e.into();
                let s = &self.staged[prototype];
                let op = if deser {
                    s.deser_op(match &mut dest {
                        Dest::Shared => s.dest_obj,
                        Dest::Fresh(arena) => arena.alloc(s.object_size, 8)?,
                    })
                } else {
                    s.ser_op()
                };
                Ok(Request {
                    arrival,
                    op,
                    watchdog: None,
                    deadline: None,
                    cost: None,
                })
            })
            .collect()
    }
}
