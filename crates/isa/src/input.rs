//! Test-case inputs: the initial architectural state a test program runs
//! from.
//!
//! Following Revizor (§2.4 of the paper), an *input* is a pseudo-randomly
//! generated blob that initialises the program's registers and its memory
//! sandbox. A (program, input) pair is one *test case*.
//!
//! Inputs are also the unit of taint labelling: label `i < 16` is the `i`-th
//! GPR, label `16 + w` is the `w`-th 8-byte word of sandbox memory. The
//! emulator's taint engine reports which labels influence the contract trace,
//! and input *boosting* mutates only the other labels — producing input
//! classes with provably identical contract traces.
//!
//! A generated multi-page sandbox image is stored as a [`SeededImage`]: the
//! generator state its bytes are drawn from, not the bytes. A test case
//! reads about one 64-byte line of each page it touches, so the sandbox
//! draws each line on its first read instead of copying the whole image per
//! case.

use crate::reg::Gpr;
use amulet_util::{Basis, Xoshiro256};
use std::borrow::Cow;
use std::hash::{Hash, Hasher};

/// Size of one sandbox page in bytes.
pub const PAGE_SIZE: usize = 4096;

/// Size of one sandbox line in bytes: the unit a seeded image is drawn in.
pub const LINE_SIZE: usize = 64;

/// Generated images of at most this many pages are stored as bytes: a
/// one-page image has no untouched pages to skip, and drawing it once here
/// is cheaper than drawing it again in every consumer.
const EAGER_PAGES: usize = 1;

/// A sandbox image stored as the generator state its bytes are drawn from:
/// byte-for-byte the buffer [`Xoshiro256::fill_bytes`] would write from that
/// state, with sparse 8-byte word overrides on top.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeededImage {
    start: Xoshiro256,
    len: usize,
    /// `(word index, value)`, sorted by word index, one entry per word.
    overrides: Vec<(usize, u64)>,
}

impl SeededImage {
    /// Draws a `len`-byte image from `rng`, leaving `rng` exactly where
    /// `fill_bytes` on a `len`-byte buffer would — in O(log len) time.
    pub fn draw(rng: &mut Xoshiro256, len: usize) -> Self {
        let mut image = SeededImage {
            start: rng.clone(),
            len: 0,
            overrides: Vec::new(),
        };
        image.redraw(rng, len);
        image
    }

    /// [`SeededImage::draw`] in place, reusing the override allocation.
    pub fn redraw(&mut self, rng: &mut Xoshiro256, len: usize) {
        self.start.clone_from(rng);
        self.len = len;
        self.overrides.clear();
        rng.advance(len.div_ceil(8) as u64);
    }

    /// Image length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the image is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads the 8-byte word with the given index.
    ///
    /// # Panics
    ///
    /// Panics if `word * 8 + 8` exceeds the image length.
    pub fn word(&self, word: usize) -> u64 {
        assert!(word * 8 + 8 <= self.len, "word {word} out of bounds");
        match self.overrides.binary_search_by_key(&word, |&(w, _)| w) {
            Ok(i) => self.overrides[i].1,
            Err(_) => {
                let mut rng = self.start.clone();
                rng.advance(word as u64);
                rng.next_u64()
            }
        }
    }

    /// Overwrites the 8-byte word with the given index.
    ///
    /// # Panics
    ///
    /// Panics if `word * 8 + 8` exceeds the image length.
    pub fn set_word(&mut self, word: usize, value: u64) {
        assert!(word * 8 + 8 <= self.len, "word {word} out of bounds");
        match self.overrides.binary_search_by_key(&word, |&(w, _)| w) {
            Ok(i) => self.overrides[i].1 = value,
            Err(i) => self.overrides.insert(i, (word, value)),
        }
    }

    /// Walks `basis` from this image's start state, for
    /// [`SeededImage::lines_from`].
    pub fn walk_basis(&self, basis: &mut Basis) {
        basis.walk(&self.start, self.len.div_ceil(LINE_SIZE));
    }

    /// Draws the image line by line from its first line.
    pub fn lines(&self) -> LineDraw<'_> {
        self.lines_at(self.start.clone(), 0)
    }

    /// Draws the image line by line from line `line` on, with one jump
    /// through `basis` (walked for this image by
    /// [`SeededImage::walk_basis`]).
    pub fn lines_from<'a>(&'a self, basis: &Basis, line: usize) -> LineDraw<'a> {
        if line * LINE_SIZE >= self.len {
            // Past the end: every byte reads zero, no generator is stepped.
            return self.lines_at(self.start.clone(), line);
        }
        debug_assert!(
            basis.line(0) == self.start,
            "basis walked for another image"
        );
        self.lines_at(basis.line(line), line)
    }

    /// Draws the image line by line from line `line` on; `rng` is the
    /// image's generator advanced to that line.
    fn lines_at(&self, rng: Xoshiro256, line: usize) -> LineDraw<'_> {
        let offset = line * LINE_SIZE;
        let from = self.overrides.partition_point(|&(w, _)| w < offset / 8);
        LineDraw {
            len: self.len,
            rng,
            offset,
            overrides: &self.overrides[from..],
        }
    }
}

/// Consecutive lines of a [`SeededImage`], from [`SeededImage::lines`] or
/// [`SeededImage::lines_from`].
#[derive(Debug)]
pub struct LineDraw<'a> {
    len: usize,
    /// The generator at `offset`.
    rng: Xoshiro256,
    offset: usize,
    /// The overrides at or past `offset`.
    overrides: &'a [(usize, u64)],
}

impl LineDraw<'_> {
    /// The next line's bytes; bytes past the end of the image read as zero.
    pub fn next_line(&mut self) -> [u8; LINE_SIZE] {
        let mut line = [0; LINE_SIZE];
        let n = LINE_SIZE.min(self.len.saturating_sub(self.offset));
        if n > 0 {
            self.rng.fill_bytes(&mut line[..n]);
            let end = (self.offset + n).div_ceil(8);
            while let Some((&(word, value), rest)) = self.overrides.split_first() {
                if word >= end {
                    break;
                }
                let at = word * 8 - self.offset;
                let k = (n - at).min(8);
                line[at..at + k].copy_from_slice(&value.to_le_bytes()[..k]);
                self.overrides = rest;
            }
        }
        self.offset += LINE_SIZE;
        line
    }
}

/// A test input's sandbox image: plain bytes, or seeded and drawn on
/// demand. Both forms of the same content are interchangeable everywhere.
#[derive(Debug, Clone)]
pub enum MemImage {
    /// The image bytes.
    Bytes(Vec<u8>),
    /// A seeded image, drawn line by line by the sandbox on first read.
    Seeded(SeededImage),
}

impl MemImage {
    /// Image length in bytes.
    pub fn len(&self) -> usize {
        match self {
            MemImage::Bytes(b) => b.len(),
            MemImage::Seeded(s) => s.len(),
        }
    }

    /// Whether the image is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The initial architectural state for one test case.
#[derive(Debug)]
pub struct TestInput {
    /// Initial GPR values. `R14`/`RSP` are overwritten by the harness
    /// (sandbox base / unused) regardless of what this holds.
    pub regs: [u64; 16],
    /// Initial FLAGS bit pattern (low 5 bits).
    pub flags_bits: u8,
    /// Initial sandbox memory contents (`pages * PAGE_SIZE` bytes).
    mem: MemImage,
}

impl Clone for TestInput {
    fn clone(&self) -> Self {
        TestInput {
            regs: self.regs,
            flags_bits: self.flags_bits,
            mem: self.mem.clone(),
        }
    }

    /// Reuses the destination's image allocation when both sides have the
    /// same form — input boosting recycles its slots across programs.
    fn clone_from(&mut self, source: &Self) {
        self.regs = source.regs;
        self.flags_bits = source.flags_bits;
        match (&mut self.mem, &source.mem) {
            (MemImage::Bytes(dst), MemImage::Bytes(src)) => dst.clone_from(src),
            (MemImage::Seeded(dst), MemImage::Seeded(src)) => dst.clone_from(src),
            (dst, src) => *dst = src.clone(),
        }
    }
}

/// Content equality: a seeded image equals its materialised bytes.
impl PartialEq for TestInput {
    fn eq(&self, other: &Self) -> bool {
        self.regs == other.regs
            && self.flags_bits == other.flags_bits
            && self.mem.len() == other.mem.len()
            && match (&self.mem, &other.mem) {
                (MemImage::Seeded(a), MemImage::Seeded(b)) if a == b => true,
                _ => self.mem_bytes() == other.mem_bytes(),
            }
    }
}

impl Eq for TestInput {}

/// Hashes content, consistent with [`PartialEq`]: both forms of one image
/// hash alike.
impl Hash for TestInput {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.regs.hash(state);
        self.flags_bits.hash(state);
        self.mem_bytes().hash(state);
    }
}

impl TestInput {
    /// Creates an all-zero input with the given number of sandbox pages.
    pub fn zeroed(pages: usize) -> Self {
        TestInput {
            regs: [0; 16],
            flags_bits: 0,
            mem: MemImage::Bytes(vec![0; pages * PAGE_SIZE]),
        }
    }

    /// Generates a pseudo-random input (Revizor-style), with register values
    /// bounded so masked offsets stay interesting.
    pub fn random(rng: &mut Xoshiro256, pages: usize) -> Self {
        let mut input = TestInput::zeroed(0);
        input.randomize(rng, pages);
        input
    }

    /// Overwrites this input in place with a fresh pseudo-random one —
    /// byte-for-byte identical to [`TestInput::random`] with the same RNG
    /// state, but reusing the image allocation when the form matches.
    pub fn randomize(&mut self, rng: &mut Xoshiro256, pages: usize) {
        for r in self.regs.iter_mut() {
            *r = rng.next_u64();
        }
        self.regs[Gpr::Rsp.index()] = 0;
        self.regs[Gpr::R14.index()] = 0;
        self.flags_bits = (rng.next_u32() as u8) & 0x1F;
        self.randomize_mem(rng, pages);
    }

    /// Replaces the sandbox image with `pages` pages of fresh randomness:
    /// the bytes `rng.fill_bytes` would write, leaving `rng` where it
    /// would. Images beyond one page are stored seeded, in O(log pages).
    pub fn randomize_mem(&mut self, rng: &mut Xoshiro256, pages: usize) {
        let len = pages * PAGE_SIZE;
        match &mut self.mem {
            MemImage::Seeded(image) if pages > EAGER_PAGES => image.redraw(rng, len),
            _ if pages > EAGER_PAGES => self.mem = MemImage::Seeded(SeededImage::draw(rng, len)),
            MemImage::Bytes(bytes) => {
                bytes.resize(len, 0);
                rng.fill_bytes(bytes);
            }
            MemImage::Seeded(_) => {
                let mut bytes = vec![0; len];
                rng.fill_bytes(&mut bytes);
                self.mem = MemImage::Bytes(bytes);
            }
        }
    }

    /// The sandbox image, as the sandbox loads it.
    pub fn mem_image(&self) -> &MemImage {
        &self.mem
    }

    /// Replaces the sandbox image (in either form).
    pub fn set_mem_image(&mut self, image: MemImage) {
        self.mem = image;
    }

    /// Sandbox image length in bytes.
    pub fn mem_len(&self) -> usize {
        self.mem.len()
    }

    /// The whole sandbox image as bytes, drawing a seeded image in full —
    /// for digests and tests, not the per-case path.
    pub fn mem_bytes(&self) -> Cow<'_, [u8]> {
        match &self.mem {
            MemImage::Bytes(b) => Cow::Borrowed(b),
            MemImage::Seeded(s) => {
                let mut bytes = vec![0; s.len()];
                let mut lines = s.lines();
                for chunk in bytes.chunks_mut(LINE_SIZE) {
                    chunk.copy_from_slice(&lines.next_line()[..chunk.len()]);
                }
                Cow::Owned(bytes)
            }
        }
    }

    /// Number of sandbox pages.
    pub fn pages(&self) -> usize {
        self.mem.len() / PAGE_SIZE
    }

    /// Number of taint labels: 16 registers + one per 8-byte memory word.
    pub fn label_count(&self) -> usize {
        16 + self.mem.len() / 8
    }

    /// The taint label of the memory word containing sandbox offset `off`.
    pub fn mem_label(&self, off: u64) -> usize {
        16 + (off as usize % self.mem.len()) / 8
    }

    /// Reads the 8-byte memory word with the given word index.
    ///
    /// # Panics
    ///
    /// Panics if `word * 8` is out of bounds.
    pub fn word(&self, word: usize) -> u64 {
        match &self.mem {
            MemImage::Bytes(b) => u64::from_le_bytes(b[word * 8..word * 8 + 8].try_into().unwrap()),
            MemImage::Seeded(s) => s.word(word),
        }
    }

    /// Overwrites the 8-byte memory word with the given word index.
    ///
    /// # Panics
    ///
    /// Panics if `word * 8` is out of bounds.
    pub fn set_word(&mut self, word: usize, value: u64) {
        match &mut self.mem {
            MemImage::Bytes(b) => b[word * 8..word * 8 + 8].copy_from_slice(&value.to_le_bytes()),
            MemImage::Seeded(s) => s.set_word(word, value),
        }
    }

    /// Applies a value to the input element identified by a taint label:
    /// labels `< 16` set registers, the rest set memory words.
    ///
    /// # Panics
    ///
    /// Panics if the label is out of range.
    pub fn set_label(&mut self, label: usize, value: u64) {
        if label < 16 {
            self.regs[label] = value;
        } else {
            self.set_word(label - 16, value);
        }
    }

    /// Reads the input element identified by a taint label.
    ///
    /// # Panics
    ///
    /// Panics if the label is out of range.
    pub fn label_value(&self, label: usize) -> u64 {
        if label < 16 {
            self.regs[label]
        } else {
            self.word(label - 16)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    /// The eager image `fill_bytes` writes from `rng`, with `overrides`.
    fn eager(rng: &Xoshiro256, pages: usize, overrides: &[(usize, u64)]) -> Vec<u8> {
        let mut bytes = vec![0; pages * PAGE_SIZE];
        rng.clone().fill_bytes(&mut bytes);
        for &(w, v) in overrides {
            bytes[w * 8..w * 8 + 8].copy_from_slice(&v.to_le_bytes());
        }
        bytes
    }

    fn hash_of(input: &TestInput) -> u64 {
        let mut h = DefaultHasher::new();
        input.hash(&mut h);
        h.finish()
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let mut a = Xoshiro256::seed_from_u64(1);
        let mut b = Xoshiro256::seed_from_u64(1);
        assert_eq!(TestInput::random(&mut a, 2), TestInput::random(&mut b, 2));
    }

    #[test]
    fn random_pins_harness_registers() {
        let mut rng = Xoshiro256::seed_from_u64(2);
        let i = TestInput::random(&mut rng, 1);
        assert_eq!(i.regs[Gpr::R14.index()], 0);
        assert_eq!(i.regs[Gpr::Rsp.index()], 0);
    }

    #[test]
    fn word_set_get_roundtrip() {
        let mut i = TestInput::zeroed(1);
        i.set_word(3, 0xDEAD_BEEF_1234_5678);
        assert_eq!(i.word(3), 0xDEAD_BEEF_1234_5678);
        assert_eq!(i.mem_bytes()[24], 0x78, "little endian");
    }

    #[test]
    fn labels_map_registers_then_memory() {
        let mut i = TestInput::zeroed(1);
        i.set_label(Gpr::Rbx.index(), 7);
        assert_eq!(i.regs[1], 7);
        i.set_label(16 + 5, 99);
        assert_eq!(i.word(5), 99);
        assert_eq!(i.label_value(16 + 5), 99);
        assert_eq!(i.label_count(), 16 + 512);
    }

    #[test]
    fn mem_label_wraps_offsets() {
        let i = TestInput::zeroed(1);
        assert_eq!(i.mem_label(0), 16);
        assert_eq!(i.mem_label(9), 16 + 1);
        assert_eq!(i.mem_label(4096 + 8), 16 + 1, "wraps past end");
    }

    #[test]
    fn one_page_images_are_eager_and_larger_ones_seeded() {
        let mut rng = Xoshiro256::seed_from_u64(5);
        let one = TestInput::random(&mut rng, 1);
        let many = TestInput::random(&mut rng, 8);
        assert!(matches!(one.mem_image(), MemImage::Bytes(_)));
        assert!(matches!(many.mem_image(), MemImage::Seeded(_)));
    }

    #[test]
    fn seeded_pages_match_the_eager_fill_with_overrides() {
        for pages in [1usize, 8, 128] {
            let mut rng = Xoshiro256::seed_from_u64(pages as u64);
            let start = rng.clone();
            let len = pages * PAGE_SIZE;
            let mut image = SeededImage::draw(&mut rng, len);
            let mut after = start.clone();
            after.fill_bytes(&mut vec![0; len]);
            assert_eq!(
                rng, after,
                "{pages} pages: generator left where fill_bytes leaves it"
            );
            // Overrides at both ends of the image, of a page and of a word
            // straddling nothing; one set twice.
            let words = len / 8;
            let overrides = [
                (0, 1),
                (511, 2),
                (512 % words, 3),
                (words - 1, 4),
                (words / 2, 5),
            ];
            let mut expected_overrides = Vec::new();
            for &(w, v) in &overrides {
                image.set_word(w, v);
                expected_overrides.retain(|&(x, _)| x != w);
                expected_overrides.push((w, v));
            }
            let expected = eager(&start, pages, &expected_overrides);
            let mut draw = image.lines();
            for (line, bytes) in expected.chunks(LINE_SIZE).enumerate() {
                assert_eq!(draw.next_line()[..], *bytes, "{pages} pages: line {line}");
            }
            assert_eq!(draw.next_line(), [0; LINE_SIZE], "past the end reads zero");
            for w in [0, 1, 511, 513, words - 1]
                .into_iter()
                .filter(|&w| w < words)
            {
                let bytes: [u8; 8] = expected[w * 8..w * 8 + 8].try_into().unwrap();
                assert_eq!(image.word(w), u64::from_le_bytes(bytes), "word {w}");
            }
            let mut basis = Basis::new();
            image.walk_basis(&mut basis);
            let lines = len / LINE_SIZE;
            for first in [0, 7, 63, lines / 2, lines - 2]
                .into_iter()
                .filter(|&l| l + 2 <= lines)
            {
                let mut draw = image.lines_from(&basis, first);
                for line in first..first + 2 {
                    let at = line * LINE_SIZE;
                    assert_eq!(
                        draw.next_line()[..],
                        expected[at..at + LINE_SIZE],
                        "{pages} pages: line {line}"
                    );
                }
            }
            assert_eq!(image.lines_from(&basis, lines).next_line(), [0; LINE_SIZE]);
        }
    }

    #[test]
    fn seeded_and_byte_forms_compare_and_hash_by_content() {
        let mut rng = Xoshiro256::seed_from_u64(9);
        let mut seeded = TestInput::random(&mut rng, 8);
        seeded.set_word(17, 0x1234);
        let mut bytes = seeded.clone();
        bytes.set_mem_image(MemImage::Bytes(seeded.mem_bytes().into_owned()));
        assert_eq!(seeded, bytes);
        assert_eq!(bytes, seeded);
        assert_eq!(hash_of(&seeded), hash_of(&bytes));

        // An override equal to the drawn word leaves the content unchanged.
        let mut same = seeded.clone();
        same.set_word(3, seeded.word(3));
        assert_eq!(same, seeded);
        assert_eq!(hash_of(&same), hash_of(&seeded));

        let mut other = seeded.clone();
        other.set_word(3, !seeded.word(3));
        assert_ne!(other, seeded);
        assert_ne!(other, bytes);
    }

    #[test]
    fn clone_from_switches_forms() {
        let mut rng = Xoshiro256::seed_from_u64(11);
        let seeded = TestInput::random(&mut rng, 4);
        let eager = TestInput::random(&mut rng, 1);
        let mut slot = eager.clone();
        slot.clone_from(&seeded);
        assert_eq!(slot, seeded);
        slot.clone_from(&eager);
        assert_eq!(slot, eager);
    }
}
