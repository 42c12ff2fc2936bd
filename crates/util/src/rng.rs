//! Deterministic pseudo-random number generators.
//!
//! AMuLeT needs seeded, splittable randomness for program generation, input
//! generation, and campaign sharding. We implement [`SplitMix64`] (used for
//! seeding/splitting) and [`Xoshiro256`] (xoshiro256**, the workhorse
//! generator) rather than pulling in an external crate, so that test cases are
//! bit-reproducible across platforms and toolchain updates.

/// SplitMix64: a tiny, high-quality 64-bit generator.
///
/// Primarily used to expand a single `u64` seed into the larger state of
/// [`Xoshiro256`], and to derive independent child seeds for parallel
/// campaign instances.
///
/// # Examples
///
/// ```
/// use amulet_util::SplitMix64;
/// let mut sm = SplitMix64::new(7);
/// assert_ne!(sm.next_u64(), sm.next_u64());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a raw seed.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Returns the next 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The SplitMix64 step applied to a constant: a cheap stateless 64-bit
/// mixer with full avalanche (increment, then finalize), shared by the
/// simulator's trace digests and the caches' incremental Zobrist residency
/// accumulators. Not part of [`SplitMix64`]'s stream — the generator mixes
/// its post-increment state directly.
#[inline]
pub fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Finalizes a Zobrist residency accumulator (`zobrist` = XOR of
/// [`mix64`]-ed unique elements, `count` = cardinality) into a
/// domain-separated set digest. The single definition shared by the
/// simulator's incremental cache/TLB digests and their reference fold, so
/// the finalization scheme cannot drift between them.
#[inline]
pub fn residency_digest(zobrist: u64, count: u64, section: u64) -> u64 {
    mix64(zobrist ^ section.rotate_left(32)) ^ mix64(count ^ section)
}

/// xoshiro256**: fast all-purpose 64-bit PRNG with 256-bit state.
///
/// This is the generator behind every random decision AMuLeT makes. It is
/// seeded via [`SplitMix64`] following the reference recommendation.
///
/// # Examples
///
/// ```
/// use amulet_util::Xoshiro256;
/// let mut rng = Xoshiro256::seed_from_u64(1);
/// let x = rng.range(0, 10);
/// assert!(x < 10);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    /// Seeds the generator by expanding `seed` through [`SplitMix64`].
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let s = [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()];
        // Avoid the all-zero state (astronomically unlikely, but cheap to fix).
        if s == [0, 0, 0, 0] {
            return Self { s: [1, 2, 3, 4] };
        }
        Self { s }
    }

    /// Derives an independent child generator (for parallel instances).
    pub fn split(&mut self) -> Self {
        Self::seed_from_u64(self.next_u64())
    }

    /// Returns the next 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        step(&mut self.s);
        result
    }

    /// Returns the next value as `u32`.
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Returns a uniformly distributed value in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        let span = hi - lo;
        // Lemire-style rejection-free-enough mapping; bias is negligible for
        // the span sizes AMuLeT uses (< 2^32), and determinism matters more.
        lo + (((self.next_u64() as u128 * span as u128) >> 64) as u64)
    }

    /// Returns a uniformly distributed index in `[0, len)`.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`.
    pub fn index(&mut self, len: usize) -> usize {
        self.range(0, len as u64) as usize
    }

    /// Returns `true` with probability `num/den`.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.range(0, den) < num
    }

    /// Picks a random element of a non-empty slice.
    ///
    /// # Panics
    ///
    /// Panics if the slice is empty.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.index(items.len())]
    }

    /// Picks an index according to integer weights.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or sums to zero.
    pub fn pick_weighted(&mut self, weights: &[u32]) -> usize {
        let total: u64 = weights.iter().map(|&w| w as u64).sum();
        assert!(total > 0, "weights must not all be zero");
        let mut r = self.range(0, total);
        for (i, &w) in weights.iter().enumerate() {
            if r < w as u64 {
                return i;
            }
            r -= w as u64;
        }
        weights.len() - 1
    }

    /// Fisher–Yates shuffles a slice in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }

    /// Advances the generator by `steps` outputs: the same state as `steps`
    /// calls of [`Xoshiro256::next_u64`], in O(log steps) jump-table
    /// applications (64 table lookups each) plus fewer than 512 single
    /// steps. A jump level is built on its first use, in well under a
    /// millisecond.
    pub fn advance(&mut self, steps: u64) {
        let mut units = steps / JUMP_UNIT;
        let mut level = 0;
        while units != 0 && level < JUMP_LEVELS - 1 {
            if units & 1 == 1 {
                self.s = jump(level).apply(self.s);
            }
            units >>= 1;
            level += 1;
        }
        for _ in 0..units {
            self.s = jump(JUMP_LEVELS - 1).apply(self.s);
        }
        for _ in 0..steps % JUMP_UNIT {
            self.next_u64();
        }
    }

    /// Fills a byte buffer with random data (one `next_u64` per 8-byte
    /// little-endian chunk; the byte stream is independent of how the buffer
    /// is chunked internally).
    pub fn fill_bytes(&mut self, buf: &mut [u8]) {
        let mut chunks = buf.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rest = chunks.into_remainder();
        if !rest.is_empty() {
            let v = self.next_u64().to_le_bytes();
            rest.copy_from_slice(&v[..rest.len()]);
        }
    }
}

/// The xoshiro256 state transition. Every operation in it (xor, shift,
/// rotate) is linear over GF(2), so `k` transitions are one 256×256 bit
/// matrix — which is what [`Xoshiro256::advance`] exploits.
#[inline]
fn step(s: &mut [u64; 4]) {
    let t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = s[3].rotate_left(45);
}

/// Steps covered by the smallest jump table: one 4 KiB page of
/// [`Xoshiro256::fill_bytes`] output (512 words).
const JUMP_UNIT: u64 = 512;

/// Jump tables for `JUMP_UNIT · 2^i` steps, `i < JUMP_LEVELS`: up to 2^24
/// steps (a 128 MiB image) in one application each; longer jumps repeat the
/// top table.
const JUMP_LEVELS: usize = 16;

/// A GF(2)-linear map on the 256-bit generator state, stored as one
/// table per nibble of the state: `nibbles[n][v]` is the image of the state
/// whose bits `4n..4n + 4` hold `v` and whose other bits are clear, so an
/// application is 64 lookups (32 KiB per map).
struct Jump {
    nibbles: Box<[[[u64; 4]; 16]; 64]>,
}

impl Jump {
    /// The map whose column `i` (the image of state bit `i`, bit `i % 64`
    /// of word `i / 64`) is `cols[i]`.
    fn from_cols(cols: &[[u64; 4]; 256]) -> Self {
        let mut nibbles = Box::new([[[0u64; 4]; 16]; 64]);
        for (n, table) in nibbles.iter_mut().enumerate() {
            for v in 1..16usize {
                let rest = v & (v - 1);
                let col = &cols[4 * n + (v ^ rest).trailing_zeros() as usize];
                let mut image = table[rest];
                for (o, c) in image.iter_mut().zip(col) {
                    *o ^= c;
                }
                table[v] = image;
            }
        }
        Jump { nibbles }
    }

    /// `JUMP_UNIT` transitions, column by column: the image of each basis
    /// state.
    fn unit() -> Self {
        let mut cols = [[0u64; 4]; 256];
        for (i, col) in cols.iter_mut().enumerate() {
            col[i / 64] = 1 << (i % 64);
            for _ in 0..JUMP_UNIT {
                step(col);
            }
        }
        Jump::from_cols(&cols)
    }

    /// The state this map sends `s` to: the XOR of its nibbles' images.
    fn apply(&self, s: [u64; 4]) -> [u64; 4] {
        let mut out = [0u64; 4];
        for (tables, &word) in self.nibbles.chunks_exact(16).zip(&s) {
            for (k, table) in tables.iter().enumerate() {
                let image = &table[(word >> (4 * k)) as usize & 15];
                for (o, c) in out.iter_mut().zip(image) {
                    *o ^= c;
                }
            }
        }
        out
    }

    /// This map applied twice.
    fn squared(&self) -> Self {
        let mut cols = [[0u64; 4]; 256];
        for (i, col) in cols.iter_mut().enumerate() {
            *col = self.apply(self.nibbles[i / 4][1 << (i % 4)]);
        }
        Jump::from_cols(&cols)
    }
}

/// Jump level `level` (`JUMP_UNIT · 2^level` steps) of the process-wide
/// ladder. Each level is built on first use from the one below, so a
/// process that only jumps within 128-page images builds levels 0–7.
fn jump(level: usize) -> &'static Jump {
    static LADDER: [std::sync::OnceLock<Jump>; JUMP_LEVELS] =
        [const { std::sync::OnceLock::new() }; JUMP_LEVELS];
    LADDER[level].get_or_init(|| match level {
        0 => Jump::unit(),
        _ => jump(level - 1).squared(),
    })
}

/// The characteristic polynomial `P(x) = x^256 + Σ p_j x^j` of the state
/// transition, `p_j` in bit `j % 64` of word `j / 64`. By Cayley–Hamilton
/// `P(T) = 0`, so `x^k mod P = Σ c_j x^j` gives `s_k = Σ c_j s_j`: any
/// state of a stream is a GF(2) combination of its first 256. Derived
/// offline by Berlekamp–Massey; `char_poly_annihilates_the_transition`
/// pins it.
const CHAR_POLY: [u64; 4] = [
    0x9d11_6f2b_b0f0_f001,
    0x0280_002b_cefd_1a5e,
    0x04b4_edcf_2625_9f85,
    0x0003_c03c_3f3e_cb19,
];

/// Outputs per 64-byte line of [`Xoshiro256::fill_bytes`].
const LINE_WORDS: usize = 8;

/// `x · c mod P` for a residue `c` of degree below 256.
fn times_x(c: [u64; 4]) -> [u64; 4] {
    let carry = c[3] >> 63;
    let mut out = [
        c[0] << 1,
        c[1] << 1 | c[0] >> 63,
        c[2] << 1 | c[1] >> 63,
        c[3] << 1 | c[2] >> 63,
    ];
    if carry == 1 {
        for (o, p) in out.iter_mut().zip(CHAR_POLY) {
            *o ^= p;
        }
    }
    out
}

/// The process-wide line table: entry `l` is `x^(8l) mod P`, the
/// combination of a stream's first 256 states that is its state at line
/// `l`. Grows, under its lock, to the longest image asked for (32 bytes a
/// line: 256 KiB for a 128-page image); a caller keeps the `Arc` it got.
fn line_table(lines: usize) -> std::sync::Arc<[[u64; 4]]> {
    static TABLE: std::sync::Mutex<Option<std::sync::Arc<[[u64; 4]]>>> =
        std::sync::Mutex::new(None);
    // The one update is a single store of a whole table, so a poisoned
    // lock still guards a valid table.
    let mut table = TABLE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if let Some(t) = table.as_ref().filter(|t| t.len() >= lines) {
        return t.clone();
    }
    let mut polys = table
        .as_deref()
        .map_or_else(|| vec![[1, 0, 0, 0]], <[_]>::to_vec);
    while polys.len() < lines {
        let mut c = polys[polys.len() - 1];
        for _ in 0..LINE_WORDS {
            c = times_x(c);
        }
        polys.push(c);
    }
    let grown: std::sync::Arc<[[u64; 4]]> = polys.into();
    *table = Some(grown.clone());
    grown
}

/// A stream's first 256 states, from which its state at any 64-byte line
/// of [`Xoshiro256::fill_bytes`] output is one XOR combination (see
/// `CHAR_POLY`): walking the basis costs 256 steps once, and each line
/// jump after that is at most 256 state XORs, against a ladder jump's rungs
/// plus up to 504 single steps.
#[derive(Debug, Clone, Default)]
pub struct Basis {
    /// `states[j]` is the start state after `j` steps (8 KiB once walked).
    states: Vec<[u64; 4]>,
    /// Line table covering every line the basis was walked for.
    lines: Option<std::sync::Arc<[[u64; 4]]>>,
}

impl Basis {
    /// An empty basis; it allocates on its first walk.
    pub fn new() -> Self {
        Self::default()
    }

    /// Walks the basis from `start`, for lines `0..lines` of its stream.
    pub fn walk(&mut self, start: &Xoshiro256, lines: usize) {
        self.states.resize(256, [0; 4]);
        let mut s = start.s;
        for state in &mut self.states {
            *state = s;
            step(&mut s);
        }
        if self.lines.as_ref().is_none_or(|t| t.len() < lines) {
            self.lines = Some(line_table(lines));
        }
    }

    /// The generator at line `line` of the walked stream: the start
    /// advanced by `8 · line` outputs.
    ///
    /// # Panics
    ///
    /// Panics if the basis was not walked for `line`.
    pub fn line(&self, line: usize) -> Xoshiro256 {
        let table = self.lines.as_deref().expect("basis not walked");
        let mut s = [0u64; 4];
        for (w, &word) in table[line].iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let state = &self.states[64 * w + bits.trailing_zeros() as usize];
                for (o, x) in s.iter_mut().zip(state) {
                    *o ^= x;
                }
                bits &= bits - 1;
            }
        }
        Xoshiro256 { s }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stepped(rng: &Xoshiro256, steps: u64) -> Xoshiro256 {
        let mut r = rng.clone();
        for _ in 0..steps {
            r.next_u64();
        }
        r
    }

    #[test]
    fn advance_matches_repeated_next_u64() {
        let mut meta = Xoshiro256::seed_from_u64(0x1A4D);
        let random = meta.range(0, 200_000);
        for steps in [0, 1, 511, 512, 513, 65_536, random] {
            let start = Xoshiro256::seed_from_u64(steps ^ 0x5EED);
            let mut jumped = start.clone();
            jumped.advance(steps);
            assert_eq!(jumped, stepped(&start, steps), "advance({steps})");
        }
    }

    #[test]
    fn advance_past_the_top_table_repeats_it() {
        let top = JUMP_UNIT << (JUMP_LEVELS - 1);
        let start = Xoshiro256::seed_from_u64(3);
        let mut once = start.clone();
        once.advance(3 * top + 7);
        let mut parts = start;
        parts.advance(top);
        parts.advance(2 * top);
        parts.advance(7);
        assert_eq!(once, parts);
    }

    #[test]
    fn char_poly_annihilates_the_transition() {
        let mut meta = Xoshiro256::seed_from_u64(0xC4A2);
        for _ in 0..8 {
            let mut s = [
                meta.next_u64(),
                meta.next_u64(),
                meta.next_u64(),
                meta.next_u64(),
            ];
            let mut sum = [0u64; 4];
            for j in 0..256 {
                if CHAR_POLY[j / 64] >> (j % 64) & 1 == 1 {
                    for (o, x) in sum.iter_mut().zip(s) {
                        *o ^= x;
                    }
                }
                step(&mut s);
            }
            assert_eq!(sum, s, "s_256 = Σ p_j s_j");
        }
    }

    #[test]
    fn basis_lines_match_advance() {
        let mut meta = Xoshiro256::seed_from_u64(0xBA515);
        let lines_128p = 128 * 64;
        let lines_256p = 256 * 64;
        let random = meta.index(lines_256p);
        let mut basis = Basis::new();
        for round in 0..4 {
            let start = meta.split();
            basis.walk(
                &start,
                if round % 2 == 0 {
                    lines_128p
                } else {
                    lines_256p
                },
            );
            let mut wanted = vec![0, 1, 31, 32, 63, 64, random % lines_128p, lines_128p - 1];
            if round % 2 == 1 {
                wanted.extend([random, lines_256p - 1]);
            }
            for line in wanted {
                let mut advanced = start.clone();
                advanced.advance(8 * line as u64);
                assert_eq!(basis.line(line), advanced, "round {round}, line {line}");
            }
        }
    }

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix64::new(123);
        let mut b = SplitMix64::new(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn splitmix_reference_vector() {
        // Reference values for seed 1234567 from the SplitMix64 paper code.
        let mut sm = SplitMix64::new(1234567);
        let v = sm.next_u64();
        let mut sm2 = SplitMix64::new(1234567);
        assert_eq!(v, sm2.next_u64());
        assert_ne!(v, sm.next_u64());
    }

    #[test]
    fn xoshiro_deterministic_and_seed_sensitive() {
        let mut a = Xoshiro256::seed_from_u64(9);
        let mut b = Xoshiro256::seed_from_u64(9);
        let mut c = Xoshiro256::seed_from_u64(10);
        let (x, y, z) = (a.next_u64(), b.next_u64(), c.next_u64());
        assert_eq!(x, y);
        assert_ne!(x, z);
    }

    #[test]
    fn range_bounds_respected() {
        let mut rng = Xoshiro256::seed_from_u64(5);
        for _ in 0..10_000 {
            let v = rng.range(10, 20);
            assert!((10..20).contains(&v));
        }
    }

    #[test]
    fn range_covers_all_values() {
        let mut rng = Xoshiro256::seed_from_u64(5);
        let mut seen = [false; 8];
        for _ in 0..1_000 {
            seen[rng.range(0, 8) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all values in small range seen");
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn range_panics_on_empty() {
        Xoshiro256::seed_from_u64(0).range(5, 5);
    }

    #[test]
    fn pick_weighted_respects_zero_weights() {
        let mut rng = Xoshiro256::seed_from_u64(3);
        for _ in 0..1_000 {
            let i = rng.pick_weighted(&[0, 1, 0, 3]);
            assert!(i == 1 || i == 3);
        }
    }

    #[test]
    fn pick_weighted_distribution_sane() {
        let mut rng = Xoshiro256::seed_from_u64(3);
        let mut counts = [0u32; 2];
        for _ in 0..10_000 {
            counts[rng.pick_weighted(&[1, 9])] += 1;
        }
        assert!(counts[1] > counts[0] * 4, "9:1 weights should skew heavily");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = Xoshiro256::seed_from_u64(8);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn split_produces_independent_streams() {
        let mut parent = Xoshiro256::seed_from_u64(77);
        let mut a = parent.split();
        let mut b = parent.split();
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn fill_bytes_covers_partial_chunks() {
        let mut rng = Xoshiro256::seed_from_u64(4);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }
}
