//! The memory sandbox shared by the emulator and the simulator: a
//! power-of-two region into which every access is wrapped.
//!
//! Revizor instruments generated code so that every memory operand is masked
//! into the sandbox; AMuLeT-rs generated programs carry the same explicit
//! `AND` masking instructions, and the sandbox additionally *wraps* any
//! residual out-of-range address (e.g. on wrong-path execution that entered a
//! block past its masking instruction). Wrapping is deterministic and
//! identical in the emulator and the simulator, so it can never create a
//! spurious contract violation.
//!
//! The sandbox is demand-paged: loading a [`SeededImage`] stores its small
//! descriptor, and each page is drawn from it on the first read of a byte
//! the case has not stored since the load. [`Sandbox::write`] (the
//! simulator's commit path) never draws: on a non-resident page it keeps
//! the stored bytes and marks them in a per-page written-byte bitmap, and
//! a later draw fills in only the unmarked bytes. Every byte read is the
//! byte an eager copy would hold; a test case that reads four of 128 pages
//! draws four, however many more it only stores to.

use amulet_isa::{MemImage, SeededImage, Width, PAGE_SIZE};

/// A power-of-two-sized memory region at a base virtual address.
#[derive(Debug, Clone)]
pub struct Sandbox {
    base: u64,
    data: Vec<u8>,
    mask: u64,
    /// The seeded image non-resident pages are drawn from.
    image: Option<SeededImage>,
    /// Per page: the load epoch whose contents `data` holds. A page is
    /// resident when this equals `epoch`.
    page_epoch: Vec<u32>,
    epoch: u32,
    /// Per page: the load epoch the page's bits in `written` belong to.
    /// Bits of an older epoch are stale and read as clear.
    written_epoch: Vec<u32>,
    /// One bit per byte (bit `off % 64` of word `off / 64`): stored into
    /// while its page was not resident, so `data` holds the byte and a
    /// draw must keep it.
    written: Vec<u64>,
}

/// Words of the written-byte bitmap per page.
const PAGE_WORDS: usize = PAGE_SIZE / 64;

impl Sandbox {
    /// Creates a sandbox of `size` bytes (must be a power of two) based at
    /// virtual address `base`, initialised with zeroes.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero or not a power of two.
    pub fn new(base: u64, size: usize) -> Self {
        assert!(
            size.is_power_of_two(),
            "sandbox size must be a power of two"
        );
        let pages = size.div_ceil(PAGE_SIZE);
        Sandbox {
            base,
            data: vec![0; size],
            mask: (size - 1) as u64,
            image: None,
            page_epoch: vec![0; pages],
            epoch: 0,
            written_epoch: vec![0; pages],
            written: vec![0; pages * PAGE_WORDS],
        }
    }

    /// The base virtual address.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Size in bytes.
    pub fn size(&self) -> usize {
        self.data.len()
    }

    /// Maps a virtual address to a sandbox offset, wrapping out-of-range
    /// addresses into the region.
    pub fn offset_of(&self, addr: u64) -> u64 {
        addr.wrapping_sub(self.base) & self.mask
    }

    /// The wrapped virtual address an access to `addr` actually touches.
    pub fn wrap(&self, addr: u64) -> u64 {
        self.base + self.offset_of(addr)
    }

    /// Makes the page holding offset `off` resident.
    #[inline]
    fn touch(&mut self, off: usize) {
        let page = off / PAGE_SIZE;
        if self.page_epoch[page] != self.epoch {
            self.materialize(page);
        }
    }

    /// Whether the byte at offset `off` of a non-resident page was stored
    /// since the load.
    #[inline]
    fn is_written(&self, off: usize) -> bool {
        self.written_epoch[off / PAGE_SIZE] == self.epoch
            && self.written[off / 64] >> (off % 64) & 1 == 1
    }

    /// Draws one page from the loaded seeded image, keeping the bytes
    /// stored into it since the load.
    #[cold]
    fn materialize(&mut self, page: usize) {
        self.page_epoch[page] = self.epoch;
        let start = page * PAGE_SIZE;
        let end = (start + PAGE_SIZE).min(self.data.len());
        let image = self
            .image
            .as_ref()
            .expect("non-resident page without image");
        if self.written_epoch[page] != self.epoch {
            image.read(start, &mut self.data[start..end]);
            return;
        }
        let mut drawn = [0u8; PAGE_SIZE];
        let drawn = &mut drawn[..end - start];
        image.read(start, drawn);
        let words = &self.written[start / 64..end.div_ceil(64)];
        for ((dst, src), &mask) in self.data[start..end]
            .chunks_mut(64)
            .zip(drawn.chunks(64))
            .zip(words)
        {
            if mask == 0 {
                dst.copy_from_slice(src);
            } else {
                for (j, (d, &s)) in dst.iter_mut().zip(src).enumerate() {
                    if mask >> j & 1 == 0 {
                        *d = s;
                    }
                }
            }
        }
    }

    /// Stores one byte at offset `off` without drawing its page.
    #[inline]
    fn store(&mut self, off: usize, value: u8) {
        let page = off / PAGE_SIZE;
        if self.page_epoch[page] != self.epoch {
            if self.written_epoch[page] != self.epoch {
                self.written_epoch[page] = self.epoch;
                self.written[page * PAGE_WORDS..(page + 1) * PAGE_WORDS].fill(0);
            }
            self.written[off / 64] |= 1 << (off % 64);
        }
        self.data[off] = value;
    }

    /// Reads a single byte at a (wrapped) virtual address.
    pub fn read_u8(&mut self, addr: u64) -> u8 {
        let off = self.offset_of(addr) as usize;
        if self.page_epoch[off / PAGE_SIZE] != self.epoch && !self.is_written(off) {
            self.materialize(off / PAGE_SIZE);
        }
        self.data[off]
    }

    /// Writes a single byte at a (wrapped) virtual address, returning the
    /// previous value (which draws the byte's page).
    pub fn write_u8(&mut self, addr: u64, value: u8) -> u8 {
        let off = self.offset_of(addr) as usize;
        self.touch(off);
        std::mem::replace(&mut self.data[off], value)
    }

    /// Reads a little-endian value of the given width; bytes wrap
    /// individually at the sandbox boundary.
    pub fn read(&mut self, addr: u64, width: Width) -> u64 {
        let mut v = 0u64;
        for i in 0..width.bytes() {
            v |= (self.read_u8(addr.wrapping_add(i)) as u64) << (8 * i);
        }
        v
    }

    /// Writes a little-endian value of the given width; bytes wrap
    /// individually at the sandbox boundary. Draws no page.
    pub fn write(&mut self, addr: u64, width: Width, value: u64) {
        for i in 0..width.bytes() {
            let off = self.offset_of(addr.wrapping_add(i)) as usize;
            self.store(off, (value >> (8 * i)) as u8);
        }
    }

    /// Starts a new load: every page becomes non-resident.
    fn next_epoch(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Wrapped: restamp every page with 0, which no later epoch
            // reuses, so no stale stamp can alias a new epoch.
            self.page_epoch.fill(0);
            self.written_epoch.fill(0);
            self.epoch = 1;
        }
    }

    /// Reloads the sandbox in place from `contents`, zero-filling the tail
    /// when `contents` is shorter than the region and truncating when it is
    /// longer. This never reallocates, so the fuzzing hot path can reuse one
    /// sandbox across test cases.
    pub fn load(&mut self, contents: &[u8]) {
        let n = contents.len().min(self.data.len());
        self.data[..n].copy_from_slice(&contents[..n]);
        self.data[n..].fill(0);
        self.page_epoch.fill(self.epoch);
    }

    /// Reloads the sandbox from an input's image with [`Sandbox::load`]'s
    /// zero-fill/truncate rule. Bytes are copied now; a seeded image costs
    /// only its descriptor here and a draw per page on first touch.
    pub fn load_image(&mut self, image: &MemImage) {
        match image {
            MemImage::Bytes(bytes) => self.load(bytes),
            MemImage::Seeded(seeded) => {
                match &mut self.image {
                    Some(own) => own.clone_from(seeded),
                    None => self.image = Some(seeded.clone()),
                }
                self.next_epoch();
            }
        }
    }

    /// The whole contents, drawing every non-resident page first.
    pub fn bytes(&mut self) -> &[u8] {
        for page in 0..self.page_epoch.len() {
            self.touch(page * PAGE_SIZE);
        }
        &self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amulet_isa::TestInput;
    use amulet_util::Xoshiro256;

    #[test]
    fn wraps_addresses_into_region() {
        let s = Sandbox::new(0x4000, 4096);
        assert_eq!(s.offset_of(0x4000), 0);
        assert_eq!(s.offset_of(0x4FFF), 0xFFF);
        assert_eq!(s.offset_of(0x5000), 0, "one past the end wraps to start");
        assert_eq!(s.offset_of(0x3FFF), 0xFFF, "below base wraps from the top");
        assert_eq!(s.wrap(0x1_0004_0010), 0x4010);
    }

    #[test]
    fn read_write_little_endian() {
        let mut s = Sandbox::new(0, 64);
        s.write(8, Width::Q, 0x1122_3344_5566_7788);
        assert_eq!(s.read_u8(8), 0x88);
        assert_eq!(s.read(8, Width::D), 0x5566_7788);
        assert_eq!(s.read(12, Width::D), 0x1122_3344);
        assert_eq!(s.read(8, Width::Q), 0x1122_3344_5566_7788);
    }

    #[test]
    fn boundary_crossing_access_wraps_per_byte() {
        let mut s = Sandbox::new(0, 16);
        s.write(14, Width::D, 0xAABB_CCDD);
        assert_eq!(s.read_u8(14), 0xDD);
        assert_eq!(s.read_u8(15), 0xCC);
        assert_eq!(s.read_u8(0), 0xBB, "third byte wrapped to offset 0");
        assert_eq!(s.read_u8(1), 0xAA);
        assert_eq!(s.read(14, Width::D), 0xAABB_CCDD);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        Sandbox::new(0, 1000);
    }

    #[test]
    fn load_zero_fills_tail_and_truncates() {
        let mut s = Sandbox::new(0, 16);
        s.load(&[0xFF; 16]);
        s.load(&[1, 2, 3]);
        assert_eq!(s.read_u8(0), 1);
        assert_eq!(s.read_u8(2), 3);
        assert_eq!(s.read_u8(3), 0, "tail zero-filled");
        assert_eq!(s.read_u8(15), 0);
        s.load(&[9; 32]);
        assert_eq!(s.size(), 16, "longer input truncates");
        assert_eq!(s.read_u8(15), 9);
    }

    #[test]
    fn seeded_loads_read_like_eager_copies() {
        let mut rng = Xoshiro256::seed_from_u64(21);
        let mut seeded = Sandbox::new(0x4000, 8 * PAGE_SIZE);
        let mut eager = Sandbox::new(0x4000, 8 * PAGE_SIZE);
        for round in 0..3u64 {
            let mut input = TestInput::random(&mut rng, 8);
            input.set_word(700, round);
            seeded.load_image(input.mem_image());
            eager.load(&input.mem_bytes());
            // A write before any read of its page, a page-crossing read, and
            // a write whose page the next load must forget.
            seeded.write(0x4000 + 3 * 4096 + 8, Width::Q, 0xFEED);
            eager.write(0x4000 + 3 * 4096 + 8, Width::Q, 0xFEED);
            for addr in [0x4000 + 700 * 8, 0x4000 + 4096 - 4, 0x4000 + 3 * 4096] {
                assert_eq!(seeded.read(addr, Width::Q), eager.read(addr, Width::Q));
            }
            assert_eq!(seeded.bytes(), eager.bytes(), "round {round}");
        }
        // A byte image after a seeded one is fully resident again.
        seeded.load(&[7; 64]);
        assert_eq!(seeded.read_u8(0x4000 + 5 * 4096), 0);
        assert_eq!(seeded.read_u8(0x4000 + 63), 7);
    }

    /// Stores never draw, yet a seeded sandbox reads like an eager copy:
    /// random interleavings of stores at every width (page-crossing and
    /// wrapping at the sandbox end included), reads, journaled byte writes
    /// and whole-contents reads, across loads and an epoch wrap.
    #[test]
    fn store_overlay_reads_like_an_eager_copy() {
        let mut rng = Xoshiro256::seed_from_u64(23);
        // Inputs of more than one page carry seeded images.
        for pages in [2usize, 4] {
            let size = pages * PAGE_SIZE;
            let mut seeded = Sandbox::new(0x4000, size);
            let mut eager = Sandbox::new(0x4000, size);
            for round in 0..10 {
                if round == 3 {
                    // Jump close to the wrap, with written stamps of the
                    // early epochs still in place for it to invalidate.
                    seeded.epoch = u32::MAX - 1;
                }
                let input = TestInput::random(&mut rng, pages);
                seeded.load_image(input.mem_image());
                eager.load(&input.mem_bytes());
                for op in 0..300 {
                    let page = rng.index(pages + 1) as u64;
                    let within = match rng.index(3) {
                        0 => rng.range(0, 16),
                        1 => PAGE_SIZE as u64 - rng.range(1, 8),
                        _ => rng.range(0, PAGE_SIZE as u64),
                    };
                    let addr = 0x4000 + page * PAGE_SIZE as u64 + within;
                    let width = *rng.pick(&Width::ALL);
                    let at = format!("{pages} pages, round {round}, op {op}, {addr:#x}");
                    match rng.index(8) {
                        0..=3 => {
                            let value = rng.next_u64();
                            seeded.write(addr, width, value);
                            eager.write(addr, width, value);
                        }
                        4 | 5 => {
                            assert_eq!(seeded.read(addr, width), eager.read(addr, width), "{at}")
                        }
                        6 => {
                            let value = rng.next_u64() as u8;
                            assert_eq!(
                                seeded.write_u8(addr, value),
                                eager.write_u8(addr, value),
                                "{at}"
                            );
                        }
                        _ if rng.chance(1, 40) => assert_eq!(seeded.bytes(), eager.bytes(), "{at}"),
                        _ => {}
                    }
                }
                assert_eq!(
                    seeded.bytes(),
                    eager.bytes(),
                    "{pages} pages, round {round}"
                );
            }
            assert!(seeded.epoch < 10, "the epoch wrapped");
        }
    }

    #[test]
    fn epoch_wrap_keeps_pages_non_resident() {
        let mut rng = Xoshiro256::seed_from_u64(22);
        let input = TestInput::random(&mut rng, 2);
        let mut s = Sandbox::new(0, 2 * PAGE_SIZE);
        s.epoch = u32::MAX - 1;
        s.page_epoch.fill(u32::MAX - 1);
        for _ in 0..3 {
            s.load_image(input.mem_image());
            s.write_u8(0, !input.mem_bytes()[0]);
            assert_eq!(s.read_u8(1), input.mem_bytes()[1]);
        }
        assert_eq!(s.bytes()[1..], input.mem_bytes()[1..]);
    }
}
