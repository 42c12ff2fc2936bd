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
//! The sandbox is demand-paged at line granularity: loading a
//! [`SeededImage`] stores its small descriptor, and each 64-byte line is
//! drawn from it on the first read of a byte the case has not stored since
//! the load. A draw jumps straight to its line through the image's
//! [`Basis`], walked on the first draw after the load. [`Sandbox::write`]
//! (the simulator's commit path) never draws: on a non-resident line it
//! keeps the stored bytes and marks them in a written-byte bitmap, and a
//! later draw fills in only the unmarked bytes. Every byte read is the byte
//! an eager copy would hold; a test case that reads one line of each of four
//! pages draws four lines, however many more it only stores to.

use amulet_isa::{MemImage, SeededImage, Width, LINE_SIZE, PAGE_SIZE};
use amulet_util::Basis;

/// A power-of-two-sized memory region at a base virtual address.
#[derive(Debug, Clone)]
pub struct Sandbox {
    base: u64,
    data: Vec<u8>,
    mask: u64,
    /// The seeded image non-resident lines are drawn from.
    image: Option<SeededImage>,
    /// The loaded image's basis, once walked (`basis_stale` clear).
    basis: Basis,
    basis_stale: bool,
    /// Per page: which of its lines are resident or written this load.
    pages: Vec<PageLines>,
    epoch: u32,
    /// One word per line, one bit per byte (bit `off % 64` of word
    /// `off / 64`): stored into while its line was not resident, so `data`
    /// holds the byte and a draw must keep it. A word is meaningful only
    /// while its bit in its page's `written` mask is set.
    written: Vec<u64>,
}

/// The line residency of one page.
#[derive(Debug, Clone, Copy)]
struct PageLines {
    /// The load epoch the masks belong to; masks of an older epoch are
    /// stale and read as clear.
    epoch: u32,
    /// Bit `l`: line `l` of the page holds its bytes for this load.
    resident: u64,
    /// Bit `l`: line `l`'s word in `written` belongs to this load.
    written: u64,
}

/// Lines per page: one bit each in a page's masks.
const PAGE_LINES: usize = PAGE_SIZE / LINE_SIZE;

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
        let resident = PageLines {
            epoch: 0,
            resident: !0,
            written: 0,
        };
        Sandbox {
            base,
            data: vec![0; size],
            mask: (size - 1) as u64,
            image: None,
            basis: Basis::new(),
            basis_stale: true,
            pages: vec![resident; size.div_ceil(PAGE_SIZE)],
            epoch: 0,
            written: vec![0; size.div_ceil(LINE_SIZE)],
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

    /// Whether line `line` holds its bytes for this load.
    #[inline]
    fn is_resident(&self, line: usize) -> bool {
        let page = &self.pages[line / PAGE_LINES];
        page.epoch == self.epoch && page.resident >> (line % PAGE_LINES) & 1 == 1
    }

    /// Whether the byte at offset `off` of a non-resident line was stored
    /// since the load.
    #[inline]
    fn is_written(&self, off: usize) -> bool {
        let line = off / LINE_SIZE;
        let page = &self.pages[line / PAGE_LINES];
        page.epoch == self.epoch
            && page.written >> (line % PAGE_LINES) & 1 == 1
            && self.written[line] >> (off % LINE_SIZE) & 1 == 1
    }

    /// Page `page`'s masks for this load, cleared first if stale.
    #[inline]
    fn page(&mut self, page: usize) -> &mut PageLines {
        let epoch = self.epoch;
        let lines = &mut self.pages[page];
        if lines.epoch != epoch {
            *lines = PageLines {
                epoch,
                resident: 0,
                written: 0,
            };
        }
        lines
    }

    /// Makes line `line` resident.
    #[inline]
    fn touch(&mut self, line: usize) {
        if !self.is_resident(line) {
            self.page(line / PAGE_LINES);
            self.draw(line, line + 1);
        }
    }

    /// Draws lines `first..end` (non-resident, on pages whose masks belong
    /// to this load) from the loaded seeded image with one jump, keeping
    /// the bytes stored into them since the load.
    #[cold]
    fn draw(&mut self, first: usize, end: usize) {
        let image = self
            .image
            .as_ref()
            .expect("non-resident line without image");
        if self.basis_stale {
            image.walk_basis(&mut self.basis);
            self.basis_stale = false;
        }
        let size = self.data.len();
        let mut lines = image.lines_from(&self.basis, first);
        for line in first..end {
            let drawn = lines.next_line();
            let bit = 1 << (line % PAGE_LINES);
            let page = &mut self.pages[line / PAGE_LINES];
            page.resident |= bit;
            let written = if page.written & bit != 0 {
                self.written[line]
            } else {
                0
            };
            let start = line * LINE_SIZE;
            let dst = &mut self.data[start..(start + LINE_SIZE).min(size)];
            if written == 0 {
                dst.copy_from_slice(&drawn[..dst.len()]);
            } else {
                for (j, (d, &s)) in dst.iter_mut().zip(&drawn).enumerate() {
                    if written >> j & 1 == 0 {
                        *d = s;
                    }
                }
            }
        }
    }

    /// Stores one byte at offset `off` without drawing its line.
    #[inline]
    fn store(&mut self, off: usize, value: u8) {
        let line = off / LINE_SIZE;
        if !self.is_resident(line) {
            let bit = 1 << (line % PAGE_LINES);
            let page = self.page(line / PAGE_LINES);
            if page.written & bit == 0 {
                page.written |= bit;
                self.written[line] = 0;
            }
            self.written[line] |= 1 << (off % LINE_SIZE);
        }
        self.data[off] = value;
    }

    /// Reads a single byte at a (wrapped) virtual address.
    pub fn read_u8(&mut self, addr: u64) -> u8 {
        let off = self.offset_of(addr) as usize;
        if !self.is_resident(off / LINE_SIZE) && !self.is_written(off) {
            self.touch(off / LINE_SIZE);
        }
        self.data[off]
    }

    /// Writes a single byte at a (wrapped) virtual address, returning the
    /// previous value (which draws the byte's line).
    pub fn write_u8(&mut self, addr: u64, value: u8) -> u8 {
        let off = self.offset_of(addr) as usize;
        self.touch(off / LINE_SIZE);
        std::mem::replace(&mut self.data[off], value)
    }

    /// The offset of an access of `width` bytes at `addr` when it lies in
    /// one resident line, so its bytes can be copied as a block.
    #[inline]
    fn resident_span(&self, addr: u64, width: Width) -> Option<(usize, usize)> {
        let off = self.offset_of(addr) as usize;
        let n = width.bytes() as usize;
        (off % LINE_SIZE + n <= LINE_SIZE
            && off + n <= self.data.len()
            && self.is_resident(off / LINE_SIZE))
        .then_some((off, n))
    }

    /// Reads a little-endian value of the given width; bytes wrap
    /// individually at the sandbox boundary.
    pub fn read(&mut self, addr: u64, width: Width) -> u64 {
        if let Some((off, n)) = self.resident_span(addr, width) {
            let mut bytes = [0; 8];
            bytes[..n].copy_from_slice(&self.data[off..off + n]);
            return u64::from_le_bytes(bytes);
        }
        let mut v = 0u64;
        for i in 0..width.bytes() {
            v |= (self.read_u8(addr.wrapping_add(i)) as u64) << (8 * i);
        }
        v
    }

    /// Writes a little-endian value of the given width; bytes wrap
    /// individually at the sandbox boundary. Draws no line.
    pub fn write(&mut self, addr: u64, width: Width, value: u64) {
        if let Some((off, n)) = self.resident_span(addr, width) {
            self.data[off..off + n].copy_from_slice(&value.to_le_bytes()[..n]);
            return;
        }
        for i in 0..width.bytes() {
            let off = self.offset_of(addr.wrapping_add(i)) as usize;
            self.store(off, (value >> (8 * i)) as u8);
        }
    }

    /// Starts a new load: every line becomes non-resident.
    fn next_epoch(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Wrapped: restamp every page with 0, which no later epoch
            // reuses, so no stale mask can alias a new epoch.
            for page in &mut self.pages {
                page.epoch = 0;
            }
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
        self.pages.fill(PageLines {
            epoch: self.epoch,
            resident: !0,
            written: 0,
        });
    }

    /// Reloads the sandbox from an input's image with [`Sandbox::load`]'s
    /// zero-fill/truncate rule. Bytes are copied now; a seeded image costs
    /// only its descriptor here, one basis walk on the first draw, and one
    /// line jump per run of lines drawn.
    pub fn load_image(&mut self, image: &MemImage) {
        match image {
            MemImage::Bytes(bytes) => self.load(bytes),
            MemImage::Seeded(seeded) => {
                match &mut self.image {
                    Some(own) => own.clone_from(seeded),
                    None => self.image = Some(seeded.clone()),
                }
                self.basis_stale = true;
                self.next_epoch();
            }
        }
    }

    /// The whole contents, drawing each run of non-resident lines with one
    /// jump first.
    pub fn bytes(&mut self) -> &[u8] {
        for page in 0..self.pages.len() {
            self.page(page);
        }
        let lines = self.written.len();
        let mut line = 0;
        while line < lines {
            let first = line;
            while line < lines && !self.is_resident(line) {
                line += 1;
            }
            if line == first {
                line += 1;
            } else {
                self.draw(first, line);
            }
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
        let page = |p: u64| 0x4000 + p * PAGE_SIZE as u64;
        for round in 0..3u64 {
            let mut input = TestInput::random(&mut rng, 8);
            input.set_word(700, round);
            seeded.load_image(input.mem_image());
            eager.load(&input.mem_bytes());
            // Stores into lines before their first read: a whole word, and
            // one byte of a line that a later read straddles.
            for (addr, width, value) in [
                (page(3) + 8, Width::Q, 0xFEED),
                (page(5) + 130, Width::B, 0x5A),
                (page(6) + 60, Width::D, 0xC0DE_F00D),
            ] {
                seeded.write(addr, width, value);
                eager.write(addr, width, value);
            }
            // Reads of an override, of a stored line around its store, reads
            // straddling two lines, a page boundary, and the sandbox end.
            for addr in [
                0x4000 + 700 * 8,
                page(3) + 4,
                page(3),
                page(5) + 124,
                page(6) + 56,
                page(1) - 4,
                page(2) + 60,
                page(8) - 4,
            ] {
                assert_eq!(
                    seeded.read(addr, Width::Q),
                    eager.read(addr, Width::Q),
                    "round {round}, {addr:#x}"
                );
            }
            // Journaled byte writes return the previous byte, drawn or not.
            for addr in [page(4) + 17, page(3) + 9, page(4) + 17] {
                assert_eq!(seeded.write_u8(addr, 0x77), eager.write_u8(addr, 0x77));
            }
            assert_eq!(seeded.bytes(), eager.bytes(), "round {round}");
            assert_eq!(seeded.bytes(), eager.bytes(), "round {round}, drawn");
        }
        // A byte image after a seeded one is fully resident again.
        seeded.load(&[7; 64]);
        assert_eq!(seeded.read_u8(page(5)), 0);
        assert_eq!(seeded.read_u8(0x4000 + 63), 7);
    }

    /// Stores never draw, yet a seeded sandbox reads like an eager copy:
    /// random interleavings of stores at every width (line-, page-crossing
    /// and wrapping at the sandbox end included), reads, journaled byte
    /// writes and whole-contents reads after partial draws, across loads and
    /// an epoch wrap.
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
                    // Jump close to the wrap, with the masks of the early
                    // epochs still in place for it to invalidate.
                    seeded.epoch = u32::MAX - 1;
                }
                let input = TestInput::random(&mut rng, pages);
                seeded.load_image(input.mem_image());
                eager.load(&input.mem_bytes());
                for op in 0..300 {
                    let page = rng.index(pages + 1) as u64;
                    let within = match rng.index(4) {
                        0 => rng.range(0, 16),
                        1 => PAGE_SIZE as u64 - rng.range(1, 8),
                        2 => LINE_SIZE as u64 * rng.range(1, 64) - rng.range(0, 8),
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

    /// Masks stamped long before an epoch wrap must not alias the epochs
    /// after it: a line drawn and a byte stored at epoch 1, then the wrap
    /// back to 1.
    #[test]
    fn epoch_wrap_keeps_lines_non_resident() {
        let mut rng = Xoshiro256::seed_from_u64(22);
        let old = TestInput::random(&mut rng, 2);
        let input = TestInput::random(&mut rng, 2);
        let (bytes, stored) = (input.mem_bytes(), PAGE_SIZE + 3);
        assert!(old.mem_bytes()[70] != bytes[70] && bytes[stored] != 0xEE);
        let mut s = Sandbox::new(0, 2 * PAGE_SIZE);
        s.load_image(old.mem_image());
        assert_eq!(s.epoch, 1);
        s.read_u8(70);
        s.write(stored as u64, Width::B, 0xEE);
        s.epoch = u32::MAX - 1;
        s.load_image(input.mem_image());
        s.load_image(input.mem_image());
        assert_eq!(s.epoch, 1, "the epoch wrapped");
        assert_eq!(s.read_u8(70), bytes[70]);
        assert_eq!(s.read_u8(stored as u64), bytes[stored]);
        s.write_u8(0, !bytes[0]);
        assert_eq!(s.bytes()[1..], bytes[1..]);
    }
}
