//! Sparse, paged guest memory.

use crate::AddrMap;

/// Size of one backing page in bytes.
pub const PAGE_SIZE: usize = 4096;

/// Byte-addressable simulated memory, allocated lazily in 4 KiB pages.
///
/// Unwritten memory reads back as zero, like freshly-mapped anonymous pages.
/// The address space wraps: a range running past `u64::MAX` continues at
/// address 0. This is pure storage — timing lives in [`crate::MemSystem`].
///
/// ```rust
/// use protoacc_mem::GuestMemory;
/// let mut mem = GuestMemory::new();
/// mem.write_bytes(0xfff0, b"hello across a page boundary");
/// let mut buf = [0u8; 5];
/// mem.read_bytes(0xfff0, &mut buf);
/// assert_eq!(&buf, b"hello");
/// ```
#[derive(Debug, Default, Clone)]
pub struct GuestMemory {
    pages: AddrMap<Box<[u8; PAGE_SIZE]>>,
}

impl GuestMemory {
    /// Creates empty memory.
    pub fn new() -> Self {
        GuestMemory::default()
    }

    /// Number of pages that have been touched by writes.
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    fn page_mut(&mut self, page_number: u64) -> &mut [u8; PAGE_SIZE] {
        self.pages
            .entry(page_number)
            .or_insert_with(|| Box::new([0u8; PAGE_SIZE]))
    }

    /// Reads `buf.len()` bytes starting at `addr`.
    pub fn read_bytes(&self, addr: u64, buf: &mut [u8]) {
        let mut done = 0;
        while done < buf.len() {
            let cur = addr.wrapping_add(done as u64);
            let page_number = cur / PAGE_SIZE as u64;
            let offset = (cur % PAGE_SIZE as u64) as usize;
            let chunk = (PAGE_SIZE - offset).min(buf.len() - done);
            match self.pages.get(&page_number) {
                Some(page) => {
                    buf[done..done + chunk].copy_from_slice(&page[offset..offset + chunk]);
                }
                None => buf[done..done + chunk].fill(0),
            }
            done += chunk;
        }
    }

    /// Writes all of `bytes` starting at `addr`.
    pub fn write_bytes(&mut self, addr: u64, bytes: &[u8]) {
        let mut done = 0;
        while done < bytes.len() {
            let cur = addr.wrapping_add(done as u64);
            let page_number = cur / PAGE_SIZE as u64;
            let offset = (cur % PAGE_SIZE as u64) as usize;
            let chunk = (PAGE_SIZE - offset).min(bytes.len() - done);
            self.page_mut(page_number)[offset..offset + chunk]
                .copy_from_slice(&bytes[done..done + chunk]);
            done += chunk;
        }
    }

    /// Sets `len` bytes starting at `addr` to `byte`. Like a write, it
    /// makes every page it touches resident.
    pub fn fill(&mut self, addr: u64, len: usize, byte: u8) {
        let mut done = 0;
        while done < len {
            let cur = addr.wrapping_add(done as u64);
            let page_number = cur / PAGE_SIZE as u64;
            let offset = (cur % PAGE_SIZE as u64) as usize;
            let chunk = (PAGE_SIZE - offset).min(len - done);
            self.page_mut(page_number)[offset..offset + chunk].fill(byte);
            done += chunk;
        }
    }

    /// Reads `N` bytes starting at `addr`: one page lookup and a
    /// fixed-size copy when they share a page.
    pub fn read_array<const N: usize>(&self, addr: u64) -> [u8; N] {
        let mut out = [0u8; N];
        let offset = (addr % PAGE_SIZE as u64) as usize;
        if N <= PAGE_SIZE - offset {
            if let Some(page) = self.pages.get(&(addr / PAGE_SIZE as u64)) {
                out.copy_from_slice(&page[offset..offset + N]);
            }
        } else {
            self.read_bytes(addr, &mut out);
        }
        out
    }

    /// Writes the `N` bytes of `bytes` starting at `addr`: one page lookup
    /// and a fixed-size copy when they share a page.
    pub fn write_array<const N: usize>(&mut self, addr: u64, bytes: [u8; N]) {
        let offset = (addr % PAGE_SIZE as u64) as usize;
        // An empty write must not make a page resident.
        if 0 < N && N <= PAGE_SIZE - offset {
            self.page_mut(addr / PAGE_SIZE as u64)[offset..offset + N].copy_from_slice(&bytes);
        } else {
            self.write_bytes(addr, &bytes);
        }
    }

    /// Reads `len` bytes into a fresh vector.
    pub fn read_vec(&self, addr: u64, len: usize) -> Vec<u8> {
        let mut buf = vec![0u8; len];
        self.read_bytes(addr, &mut buf);
        buf
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: u64) -> u8 {
        self.read_array::<1>(addr)[0]
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: u64, value: u8) {
        self.write_array(addr, [value]);
    }

    /// Reads a little-endian u16.
    pub fn read_u16(&self, addr: u64) -> u16 {
        u16::from_le_bytes(self.read_array(addr))
    }

    /// Writes a little-endian u16.
    pub fn write_u16(&mut self, addr: u64, value: u16) {
        self.write_array(addr, value.to_le_bytes());
    }

    /// Reads a little-endian u32.
    pub fn read_u32(&self, addr: u64) -> u32 {
        u32::from_le_bytes(self.read_array(addr))
    }

    /// Writes a little-endian u32.
    pub fn write_u32(&mut self, addr: u64, value: u32) {
        self.write_array(addr, value.to_le_bytes());
    }

    /// Reads a little-endian u64.
    pub fn read_u64(&self, addr: u64) -> u64 {
        u64::from_le_bytes(self.read_array(addr))
    }

    /// Writes a little-endian u64.
    pub fn write_u64(&mut self, addr: u64, value: u64) {
        self.write_array(addr, value.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_memory_reads_zero() {
        let mem = GuestMemory::new();
        assert_eq!(mem.read_u64(0), 0);
        assert_eq!(mem.read_u8(u64::MAX - 8), 0);
        assert_eq!(mem.resident_pages(), 0);
    }

    #[test]
    fn scalar_round_trips() {
        let mut mem = GuestMemory::new();
        mem.write_u8(10, 0xab);
        mem.write_u16(12, 0xbeef);
        mem.write_u32(16, 0xdead_beef);
        mem.write_u64(24, u64::MAX - 1);
        assert_eq!(mem.read_u8(10), 0xab);
        assert_eq!(mem.read_u16(12), 0xbeef);
        assert_eq!(mem.read_u32(16), 0xdead_beef);
        assert_eq!(mem.read_u64(24), u64::MAX - 1);
    }

    #[test]
    fn values_are_little_endian() {
        let mut mem = GuestMemory::new();
        mem.write_u32(0, 0x0403_0201);
        assert_eq!(mem.read_vec(0, 4), vec![1, 2, 3, 4]);
    }

    #[test]
    fn cross_page_reads_and_writes() {
        let mut mem = GuestMemory::new();
        let addr = PAGE_SIZE as u64 - 3;
        mem.write_u64(addr, 0x0807_0605_0403_0201);
        assert_eq!(mem.read_u64(addr), 0x0807_0605_0403_0201);
        assert_eq!(mem.resident_pages(), 2);
    }

    #[test]
    fn large_block_round_trip() {
        let mut mem = GuestMemory::new();
        let data: Vec<u8> = (0..20_000).map(|i| (i % 251) as u8).collect();
        mem.write_bytes(123, &data);
        assert_eq!(mem.read_vec(123, data.len()), data);
    }

    #[test]
    fn ranges_wrap_past_the_top_of_the_address_space() {
        let mut mem = GuestMemory::new();
        mem.write_u64(u64::MAX - 3, 0x0807_0605_0403_0201);
        assert_eq!(mem.read_u64(u64::MAX - 3), 0x0807_0605_0403_0201);
        assert_eq!(mem.read_vec(u64::MAX - 3, 4), vec![1, 2, 3, 4]);
        assert_eq!(mem.read_vec(0, 4), vec![5, 6, 7, 8]);
        assert_eq!(mem.resident_pages(), 2);
    }

    #[test]
    fn fill_sets_bytes_across_pages_and_the_wrap() {
        let mut mem = GuestMemory::new();
        mem.fill(u64::MAX - 1, 4, 0xaa);
        assert_eq!(mem.read_u32(u64::MAX - 1), 0xaaaa_aaaa);
        mem.fill(PAGE_SIZE as u64 - 1, 2, 0);
        assert_eq!(mem.resident_pages(), 3, "zero fills make pages resident");
        mem.fill(1 << 40, 0, 7);
        assert_eq!(mem.resident_pages(), 3, "empty fills touch nothing");
    }

    #[test]
    fn partial_page_reads_fill_zero() {
        let mut mem = GuestMemory::new();
        mem.write_u8(PAGE_SIZE as u64, 7);
        // Read straddles an unmapped page (0) and a mapped one.
        let buf = mem.read_vec(PAGE_SIZE as u64 - 2, 4);
        assert_eq!(buf, vec![0, 0, 7, 0]);
    }
}
