//! Host-side bump arena for decoded message objects.
//!
//! Decoded objects use the exact ADT layouts the simulator's guest-memory
//! path uses (`MessageLayout` offsets, sparse hasbits, 8-byte slot
//! alignment), but live in one contiguous host `Vec<u8>` addressed by
//! 32-bit offsets. A decode is one monotonic bump through the buffer;
//! resetting for the next message is a length reset, not a free — the
//! arena-allocation discipline Section 2.3 credits for the C++ library's own
//! fastest configurations.
//!
//! String and bytes fields are not copied at all: their 8-byte slots pack
//! `(length << 32) | input_offset`, borrowing the payload from the input
//! buffer (which must outlive the arena's contents). Repeated fields store
//! a 24-byte `{data_offset, count, capacity}` header, matching the
//! `REPEATED_HEADER_BYTES` shape the rest of the suite uses.
//!
//! The arena also owns the codec's scratch state, so that a steady-state
//! decode and encode reuse buffers instead of allocating: the decoder's
//! repeated-field accumulators and element-buffer pool, and the encoder's
//! reverse writer.

use std::cell::RefCell;

use crate::reverse::ReverseWriter;
use protoacc_runtime::{ArenaError, RuntimeError};

/// Default ceiling on decoded-object storage. Hostile inputs cannot make a
/// decode allocate more than a small multiple of the input length (declared
/// lengths are bounds-checked against the frame), so this exists only as a
/// final backstop; exceeding it maps to the same `ResourceExhausted` fault
/// class as the guest-memory arenas.
pub const DEFAULT_LIMIT: usize = 1 << 30;

/// Accumulator for one repeated field within one message frame.
#[derive(Debug, Clone)]
pub(crate) struct RepAccum {
    pub(crate) number: u32,
    pub(crate) elems: Vec<u64>,
}

/// The decoder's reusable scratch: one accumulator stack shared by every
/// frame of a decode (each frame owns `accums[base..]`) and a pool of
/// element buffers recycled across frames and decodes.
#[derive(Debug, Clone, Default)]
pub(crate) struct DecodeScratch {
    pub(crate) accums: Vec<RepAccum>,
    pub(crate) pool: Vec<Vec<u64>>,
}

impl DecodeScratch {
    /// Returns every accumulator's buffer to the pool — what a decode that
    /// stopped on an error leaves behind.
    pub(crate) fn recycle(&mut self) {
        self.pool.extend(self.accums.drain(..).map(|acc| acc.elems));
    }
}

/// A bump allocator over one host buffer, plus the codec's scratch.
#[derive(Debug, Clone)]
pub struct DecodeArena {
    buf: Vec<u8>,
    limit: usize,
    pub(crate) scratch: DecodeScratch,
    /// The encoder's writer. `FastCodec::encode_decoded` reads the arena
    /// through `&self`, hence the `RefCell`; it starts with no capacity.
    pub(crate) writer: RefCell<ReverseWriter>,
}

impl DecodeArena {
    /// Creates an empty arena with the default size backstop.
    pub fn new() -> Self {
        Self::with_limit(DEFAULT_LIMIT)
    }

    /// Creates an arena that refuses to grow beyond `limit` bytes.
    pub fn with_limit(limit: usize) -> Self {
        DecodeArena {
            buf: Vec::new(),
            limit,
            scratch: DecodeScratch::default(),
            writer: RefCell::new(ReverseWriter::with_capacity(0)),
        }
    }

    /// Discards all objects, keeping the allocation.
    pub fn reset(&mut self) {
        self.buf.clear();
    }

    /// Bytes currently allocated.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the arena holds no objects.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Allocates `size` zeroed bytes, 8-byte aligned, returning the offset.
    ///
    /// Offsets are `u32`, so the arena never grows past `u32::MAX` bytes
    /// whatever its limit.
    ///
    /// # Errors
    ///
    /// `ResourceExhausted`-class error when the backstop limit (or the
    /// 32-bit offset space) would be exceeded; the arena is left unchanged.
    #[inline]
    pub fn alloc_zeroed(&mut self, size: usize) -> Result<u32, RuntimeError> {
        let off = self.buf.len();
        let cap = self.limit.min(u32::MAX as usize);
        let padded = size.checked_next_multiple_of(8);
        let Some(new_len) = padded
            .and_then(|p| off.checked_add(p))
            .filter(|&end| end <= cap)
        else {
            return Err(RuntimeError::Arena(ArenaError::Exhausted {
                requested: padded.unwrap_or(size) as u64,
                remaining: cap.saturating_sub(off) as u64,
            }));
        };
        self.buf.resize(new_len, 0);
        Ok(off as u32)
    }

    /// Reads a u64 slot.
    #[inline]
    pub fn read_u64(&self, off: u32) -> u64 {
        let off = off as usize;
        u64::from_le_bytes(self.buf[off..off + 8].try_into().expect("8 bytes"))
    }

    /// Writes a u64 slot.
    #[inline]
    pub fn write_u64(&mut self, off: u32, value: u64) {
        let off = off as usize;
        self.buf[off..off + 8].copy_from_slice(&value.to_le_bytes());
    }

    /// Writes the low `size` bytes of `bits` at `off` (scalar slot store).
    ///
    /// The slot sizes the layouts use (1, 4 and 8) are matched so each
    /// store has a fixed width; a variable-length copy compiles to a
    /// `memcpy` call.
    #[inline]
    pub fn write_scalar(&mut self, off: u32, bits: u64, size: usize) {
        let off = off as usize;
        match size {
            8 => self.buf[off..off + 8].copy_from_slice(&bits.to_le_bytes()),
            4 => self.buf[off..off + 4].copy_from_slice(&(bits as u32).to_le_bytes()),
            1 => self.buf[off] = bits as u8,
            _ => self.buf[off..off + size].copy_from_slice(&bits.to_le_bytes()[..size]),
        }
    }

    /// Reads a `size`-byte little-endian scalar at `off` (fixed-width for
    /// sizes 1, 4 and 8, like [`DecodeArena::write_scalar`]).
    #[inline]
    pub fn read_scalar(&self, off: u32, size: usize) -> u64 {
        let at = off as usize;
        match size {
            8 => self.read_u64(off),
            4 => u64::from(u32::from_le_bytes(
                self.buf[at..at + 4].try_into().expect("4 bytes"),
            )),
            1 => u64::from(self.buf[at]),
            _ => {
                let mut bytes = [0u8; 8];
                bytes[..size].copy_from_slice(&self.buf[at..at + size]);
                u64::from_le_bytes(bytes)
            }
        }
    }

    /// The byte at `off` (a hasbits byte, for the serializer's scan).
    #[inline]
    pub(crate) fn byte(&self, off: u32) -> u8 {
        self.buf[off as usize]
    }

    /// ORs `mask` into the byte at `off` (hasbit set).
    #[inline]
    pub fn set_bit(&mut self, off: u32, mask: u8) {
        self.buf[off as usize] |= mask;
    }

    /// Whether the bit at `off`/`mask` is set.
    #[inline]
    pub fn bit(&self, off: u32, mask: u8) -> bool {
        self.buf[off as usize] & mask != 0
    }
}

impl Default for DecodeArena {
    fn default() -> Self {
        Self::new()
    }
}

/// Packs a borrowed string payload `(input_offset, length)` into one slot
/// word.
#[inline]
pub fn pack_str(input_off: usize, len: usize) -> u64 {
    debug_assert!(input_off <= u32::MAX as usize && len <= u32::MAX as usize);
    ((len as u64) << 32) | (input_off as u64 & 0xffff_ffff)
}

/// Unpacks a slot word into `(input_offset, length)`.
#[inline]
pub fn unpack_str(word: u64) -> (usize, usize) {
    ((word & 0xffff_ffff) as usize, (word >> 32) as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocations_are_aligned_zeroed_and_bumping() {
        let mut a = DecodeArena::new();
        let x = a.alloc_zeroed(12).unwrap();
        let y = a.alloc_zeroed(1).unwrap();
        assert_eq!(x, 0);
        assert_eq!(y, 16, "12 pads to 16");
        assert_eq!(a.read_u64(x), 0);
        a.write_u64(x, 0xdead_beef_0102_0304);
        assert_eq!(a.read_u64(x), 0xdead_beef_0102_0304);
        a.reset();
        assert_eq!(a.len(), 0);
        let z = a.alloc_zeroed(8).unwrap();
        assert_eq!(z, 0);
        assert_eq!(a.read_u64(z), 0, "reset + realloc must re-zero");
    }

    #[test]
    fn scalar_and_bit_accessors_round_trip() {
        let mut a = DecodeArena::new();
        let o = a.alloc_zeroed(32).unwrap();
        // The fixed 1-, 4- and 8-byte paths and the generic one each store
        // exactly their own bytes.
        for size in 1..=8 {
            a.write_u64(o + 8, u64::MAX);
            a.write_scalar(o + 8, 0x0102_0304_0506_0708, size);
            let mask = u64::MAX >> (64 - 8 * size);
            assert_eq!(a.read_scalar(o + 8, size), 0x0102_0304_0506_0708 & mask);
            assert_eq!(a.read_u64(o + 8) & !mask, !mask, "size {size} overran");
        }
        a.set_bit(o, 0b100);
        assert!(a.bit(o, 0b100));
        assert!(!a.bit(o, 0b1000));
    }

    #[test]
    fn limit_is_a_typed_resource_fault() {
        let mut a = DecodeArena::with_limit(64);
        assert!(a.alloc_zeroed(64).is_ok());
        let err = a.alloc_zeroed(8).unwrap_err();
        assert!(matches!(err, RuntimeError::Arena(_)), "{err:?}");
    }

    /// Regression: neither the padding nor the end offset may wrap, and the
    /// end must stay inside the 32-bit offset space whatever the limit. An
    /// oversized request is typed exhaustion, refused before any resize.
    #[test]
    fn oversized_requests_are_exhaustion_not_wraparound() {
        let mut a = DecodeArena::with_limit(usize::MAX);
        a.alloc_zeroed(8).unwrap();
        for size in [usize::MAX, u32::MAX as usize + 1] {
            let err = a.alloc_zeroed(size).unwrap_err();
            assert!(
                matches!(err, RuntimeError::Arena(ArenaError::Exhausted { .. })),
                "size {size}: {err:?}"
            );
            assert_eq!(a.len(), 8, "a refused request must not grow the arena");
        }
    }

    #[test]
    fn string_packing_round_trips() {
        for (off, len) in [(0usize, 0usize), (1, 2), (0xffff_ffff, 0xffff_ffff)] {
            assert_eq!(unpack_str(pack_str(off, len)), (off, len));
        }
    }
}
