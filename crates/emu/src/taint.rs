//! Word-granular dynamic taint tracking.
//!
//! Each input element (16 GPRs + every 8-byte sandbox word) carries a unique
//! label. The engine propagates label sets through data flow as the emulator
//! executes, and records which labels reach *contract observations* (memory
//! addresses, branch decisions, and — for value-exposing contracts — loaded
//! values).
//!
//! The resulting `relevant` set is the engine's contract-preservation
//! certificate: mutating any input element whose label is **not** relevant
//! cannot change the contract trace. This is how AMuLeT-rs reproduces
//! Revizor's input boosting ("inputs can also be mutated, preserving only the
//! parts influencing the contract trace", §2.4).
//!
//! # Representation
//!
//! Taint values are sparse, interned [`TaintSet`]s (see
//! [`amulet_util::taintset`]): a 16-byte `Copy` value holding up to three
//! labels inline and spilling to a hash-consed [`TaintPool`] beyond that.
//! Word taints live in a flat `Vec<TaintSet>` indexed by word, with an
//! epoch stamp per word: a word whose stamp is stale implicitly carries its
//! initial self-label (`16 + w`), so engine construction and
//! [`TaintEngine::reset`] never touch the per-word storage.
//!
//! # Checkpointing
//!
//! Speculative-path rollback is journal-based: every word-taint write pushes
//! an undo record, and a [`TaintCheckpoint`] is a journal mark plus the
//! (inline, `Copy`) register/flag sets. `checkpoint()`/`restore()` therefore
//! cost O(words touched since the checkpoint), not O(sandbox) — the dense
//! predecessor cloned a `HashMap` of bitsets on every explored branch.
//! Checkpoints obey stack discipline, like [`crate::machine::Checkpoint`].
//!
//! The original dense engine survives as [`dense::DenseTaintEngine`], a
//! reference oracle: [`TaintEngine::with_dense_shadow`] mirrors every
//! mutation into it and cross-checks on each restore, and
//! [`TaintEngine::verify_shadow`] compares the complete state. Release
//! builds do not compile it: the oracle, the shadow and every mirror exist
//! only under `debug_assertions`.

use amulet_util::BitSet;
pub use amulet_util::{TaintPool, TaintSet};

/// What the observation clause exposes — controls which flows are marked
/// relevant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TaintConfig {
    /// Loaded values are observed (ARCH-SEQ).
    pub observe_values: bool,
}

/// One journalled word-taint write: `(word, previous set, previous stamp)`.
type UndoRecord = (u32, TaintSet, u32);

/// The taint state mirroring a [`crate::Machine`]'s architectural state.
#[derive(Debug, Clone)]
pub struct TaintEngine {
    cfg: TaintConfig,
    pool: TaintPool,
    reg: [TaintSet; 16],
    flags: TaintSet,
    /// Taint of 8-byte sandbox words; `mem[w]` is meaningful only when
    /// `stamp[w] == epoch`, otherwise the word carries its self-label.
    mem: Vec<TaintSet>,
    stamp: Vec<u32>,
    epoch: u32,
    /// Journal of word-taint writes since the engine was (re)set.
    undo: Vec<UndoRecord>,
    sandbox_size: usize,
    relevant: BitSet,
    /// Reference oracle (tests only): the dense engine, mirrored write for
    /// write.
    #[cfg(debug_assertions)]
    shadow: Option<Box<dense::DenseTaintEngine>>,
}

/// Rollback point for speculative-path exploration: a journal mark plus the
/// inline register/flag sets. Restoring obeys stack discipline.
#[derive(Debug, Clone)]
pub struct TaintCheckpoint {
    mark: usize,
    reg: [TaintSet; 16],
    flags: TaintSet,
    #[cfg(debug_assertions)]
    shadow: Option<Box<dense::DenseCheckpoint>>,
}

impl TaintEngine {
    /// Creates the initial taint state for a sandbox of `sandbox_size` bytes:
    /// register `i` carries label `i`, memory word `w` carries label `16+w`.
    pub fn new(cfg: TaintConfig, sandbox_size: usize) -> Self {
        let words = sandbox_size / 8;
        TaintEngine {
            cfg,
            pool: TaintPool::new(),
            reg: std::array::from_fn(|i| TaintSet::singleton(i as u32)),
            flags: TaintSet::EMPTY,
            mem: vec![TaintSet::EMPTY; words],
            stamp: vec![0; words],
            epoch: 1,
            undo: Vec::new(),
            sandbox_size,
            relevant: BitSet::new(),
            #[cfg(debug_assertions)]
            shadow: None,
        }
    }

    /// Rewinds the engine to its initial state for a (possibly new) sandbox
    /// size, reusing every allocation. Word taints are invalidated by an
    /// epoch bump — O(1) in the sandbox size — and the interned-set pool is
    /// retained, so set sharing carries over to the next run of the same
    /// program. Cost: O(registers), plus O(words) only when the sandbox size
    /// changes or the 32-bit epoch wraps.
    pub fn reset(&mut self, cfg: TaintConfig, sandbox_size: usize) {
        self.cfg = cfg;
        let words = sandbox_size / 8;
        if words != self.mem.len() {
            self.mem.clear();
            self.mem.resize(words, TaintSet::EMPTY);
            self.stamp.clear();
            self.stamp.resize(words, 0);
            self.epoch = 1;
        } else if self.epoch == u32::MAX {
            self.stamp.fill(0);
            self.epoch = 1;
        } else {
            self.epoch += 1;
        }
        self.sandbox_size = sandbox_size;
        self.reg = std::array::from_fn(|i| TaintSet::singleton(i as u32));
        self.flags = TaintSet::EMPTY;
        self.undo.clear();
        self.relevant.clear();
        // Bound retained pool memory across long-lived reuse; spilled sets
        // are only referenced by live register/word entries, which the lines
        // above have all invalidated.
        if self.pool.spilled_sets() > (1 << 15) {
            self.pool.clear();
        }
        #[cfg(debug_assertions)]
        if let Some(shadow) = &mut self.shadow {
            **shadow = dense::DenseTaintEngine::new(sandbox_size);
        }
    }

    /// Attaches the dense reference oracle: every mutation is mirrored into
    /// a [`dense::DenseTaintEngine`] and cross-checked on rollback. Test
    /// harness only — it restores the dense engine's O(sandbox) costs.
    #[cfg(debug_assertions)]
    pub fn with_dense_shadow(mut self) -> Self {
        self.shadow = Some(Box::new(dense::DenseTaintEngine::new(self.sandbox_size)));
        self
    }

    /// The observation configuration.
    pub fn config(&self) -> TaintConfig {
        self.cfg
    }

    /// The interned-set pool (label iteration for diagnostics/tests).
    pub fn pool(&self) -> &TaintPool {
        &self.pool
    }

    /// The labels of a set, sorted ascending.
    pub fn labels<'a>(&'a self, set: &'a TaintSet) -> &'a [u32] {
        self.pool.labels(set)
    }

    /// Set union in this engine's pool.
    pub fn union(&mut self, a: TaintSet, b: TaintSet) -> TaintSet {
        self.pool.union(a, b)
    }

    /// Taint of a register.
    pub fn reg_taint(&self, reg_index: usize) -> TaintSet {
        self.reg[reg_index]
    }

    /// Overwrites a register's taint.
    pub fn set_reg_taint(&mut self, reg_index: usize, taint: TaintSet) {
        self.reg[reg_index] = taint;
        #[cfg(debug_assertions)]
        self.mirror(taint, |shadow, bits| shadow.set_reg_taint(reg_index, bits));
    }

    /// Merges additional labels into a register's taint (for partial-width
    /// writes, where the old value survives in the high bits).
    pub fn merge_reg_taint(&mut self, reg_index: usize, taint: TaintSet) {
        self.reg[reg_index] = self.pool.union(self.reg[reg_index], taint);
        #[cfg(debug_assertions)]
        self.mirror(taint, |shadow, bits| {
            shadow.merge_reg_taint(reg_index, &bits)
        });
    }

    /// Taint of the FLAGS register.
    pub fn flags_taint(&self) -> TaintSet {
        self.flags
    }

    /// Overwrites the FLAGS taint.
    pub fn set_flags_taint(&mut self, taint: TaintSet) {
        self.flags = taint;
        #[cfg(debug_assertions)]
        self.mirror(taint, |shadow, bits| shadow.set_flags_taint(bits));
    }

    fn word_of(&self, sandbox_off: u64) -> usize {
        (sandbox_off as usize % self.sandbox_size) / 8
    }

    /// Taint of word `w` (its self-label until written this epoch).
    fn word_taint(&self, w: usize) -> TaintSet {
        if self.stamp[w] == self.epoch {
            self.mem[w]
        } else {
            TaintSet::singleton(16 + w as u32)
        }
    }

    /// Journalled write of word `w`'s taint.
    fn write_word(&mut self, w: usize, taint: TaintSet) {
        self.undo.push((w as u32, self.mem[w], self.stamp[w]));
        self.mem[w] = taint;
        self.stamp[w] = self.epoch;
    }

    /// Taint of the memory word containing sandbox offset `off` (initially
    /// its own label).
    pub fn mem_taint(&self, off: u64) -> TaintSet {
        self.word_taint(self.word_of(off))
    }

    /// Union of taints of all words touched by an access of `len` bytes at
    /// offset `off`.
    pub fn mem_taint_range(&mut self, off: u64, len: u64) -> TaintSet {
        let first = self.word_of(off);
        let last = self.word_of(off + len - 1);
        let t = self.word_taint(first);
        if last == first {
            t
        } else {
            let u = self.word_taint(last);
            self.pool.union(t, u)
        }
    }

    /// Stores `taint` into all words touched by an access of `len` bytes at
    /// offset `off`. Partial words merge (old taint survives in the
    /// untouched bytes), full words replace.
    pub fn set_mem_taint_range(&mut self, off: u64, len: u64, taint: TaintSet) {
        let first = self.word_of(off);
        let last = self.word_of(off + len - 1);
        let full_word = len == 8 && off.is_multiple_of(8);
        let words = [first, last];
        for &w in &words[..1 + (first != last) as usize] {
            if full_word {
                self.write_word(w, taint);
            } else {
                let merged = self.pool.union(self.word_taint(w), taint);
                self.write_word(w, merged);
            }
        }
        #[cfg(debug_assertions)]
        self.mirror(taint, |shadow, bits| {
            shadow.set_mem_taint_range(off, len, &bits)
        });
    }

    /// Marks labels as reaching a contract observation.
    pub fn mark_relevant(&mut self, taint: TaintSet) {
        if taint.is_empty() {
            return;
        }
        // Split borrows: the label slice lives in the pool, the destination
        // bitset next to it.
        let (pool, relevant) = (&self.pool, &mut self.relevant);
        for &label in pool.labels(&taint) {
            relevant.insert(label as usize);
        }
        #[cfg(debug_assertions)]
        self.mirror(taint, |shadow, bits| shadow.mark_relevant(&bits));
    }

    /// Labels that reached observations so far.
    pub fn relevant(&self) -> &BitSet {
        &self.relevant
    }

    /// Takes a rollback point (the `relevant` set is monotonic and is *not*
    /// part of the checkpoint — observations on explored speculative paths
    /// count).
    pub fn checkpoint(&self) -> TaintCheckpoint {
        TaintCheckpoint {
            mark: self.undo.len(),
            reg: self.reg,
            flags: self.flags,
            #[cfg(debug_assertions)]
            shadow: self.shadow.as_ref().map(|s| Box::new(s.checkpoint())),
        }
    }

    /// Rolls back register/flag/memory taint to a checkpoint by unwinding
    /// the write journal — O(words written since the checkpoint).
    ///
    /// # Panics
    ///
    /// Panics if the checkpoint is stale (journal shorter than its mark),
    /// i.e. stack discipline was violated.
    pub fn restore(&mut self, cp: &TaintCheckpoint) {
        assert!(
            self.undo.len() >= cp.mark,
            "stale taint checkpoint: journal already truncated"
        );
        while self.undo.len() > cp.mark {
            let (w, set, stamp) = self.undo.pop().unwrap();
            self.mem[w as usize] = set;
            self.stamp[w as usize] = stamp;
        }
        self.reg = cp.reg;
        self.flags = cp.flags;
        #[cfg(debug_assertions)]
        {
            if let (Some(shadow), Some(dense_cp)) = (self.shadow.as_mut(), cp.shadow.as_ref()) {
                shadow.restore(dense_cp);
            }
            self.assert_shadow_regs_agree();
        }
    }

    /// Converts a sparse set to a dense bitset (oracle mirroring).
    #[cfg(debug_assertions)]
    fn to_bitset(&self, taint: &TaintSet) -> BitSet {
        self.pool
            .labels(taint)
            .iter()
            .map(|&l| l as usize)
            .collect()
    }

    /// Applies one mutation to the dense shadow, if one is attached, with
    /// `taint` converted to a bitset.
    #[cfg(debug_assertions)]
    fn mirror(
        &mut self,
        taint: TaintSet,
        apply: impl FnOnce(&mut dense::DenseTaintEngine, BitSet),
    ) {
        if let Some(shadow) = self.shadow.as_deref_mut() {
            let bits = self.pool.labels(&taint).iter().map(|&l| l as usize);
            apply(shadow, bits.collect());
        }
    }

    /// Cheap per-restore oracle check: registers, flags and the relevant set
    /// must agree with the dense shadow. No-op without a shadow.
    #[cfg(debug_assertions)]
    fn assert_shadow_regs_agree(&self) {
        let Some(shadow) = &self.shadow else { return };
        for i in 0..16 {
            assert_eq!(
                self.to_bitset(&self.reg[i]),
                *shadow.reg_taint(i),
                "register {i} taint diverged from the dense oracle"
            );
        }
        assert_eq!(
            self.to_bitset(&self.flags),
            *shadow.flags_taint(),
            "flags taint diverged from the dense oracle"
        );
        assert_eq!(
            self.relevant,
            *shadow.relevant(),
            "relevant set diverged from the dense oracle"
        );
    }

    /// Full oracle check: registers, flags, the relevant set and **every**
    /// memory word must agree with the dense shadow.
    ///
    /// # Panics
    ///
    /// Panics on any divergence, or if no shadow is attached.
    #[cfg(debug_assertions)]
    pub fn verify_shadow(&self) {
        let shadow = self
            .shadow
            .as_ref()
            .expect("verify_shadow requires with_dense_shadow");
        self.assert_shadow_regs_agree();
        for w in 0..self.mem.len() {
            assert_eq!(
                self.to_bitset(&self.word_taint(w)),
                shadow.mem_taint((w * 8) as u64),
                "word {w} taint diverged from the dense oracle"
            );
        }
    }
}

#[cfg(debug_assertions)]
pub mod dense {
    //! The original dense taint engine, retained as a reference oracle.
    //!
    //! Representation: one [`BitSet`] per register plus a `HashMap` of word
    //! bitsets, with full-map clone checkpoints. Semantically identical to
    //! [`TaintEngine`](super::TaintEngine) and asymptotically worse in every
    //! dimension — which is exactly what makes it a trustworthy oracle for
    //! the sparse engine's differential tests.

    use amulet_util::BitSet;
    use std::collections::HashMap;

    /// The dense reference engine (see the module docs).
    #[derive(Debug, Clone)]
    pub struct DenseTaintEngine {
        reg: [BitSet; 16],
        flags: BitSet,
        mem: HashMap<usize, BitSet>,
        sandbox_size: usize,
        relevant: BitSet,
    }

    /// Full-state rollback point for [`DenseTaintEngine`].
    #[derive(Debug, Clone)]
    pub struct DenseCheckpoint {
        reg: [BitSet; 16],
        flags: BitSet,
        mem: HashMap<usize, BitSet>,
    }

    impl DenseTaintEngine {
        /// Initial state: register `i` tainted `{i}`, word `w` tainted
        /// `{16+w}` (implicitly, via map absence).
        pub fn new(sandbox_size: usize) -> Self {
            let reg = std::array::from_fn(|i| {
                let mut s = BitSet::new();
                s.insert(i);
                s
            });
            DenseTaintEngine {
                reg,
                flags: BitSet::new(),
                mem: HashMap::new(),
                sandbox_size,
                relevant: BitSet::new(),
            }
        }

        /// Taint of a register.
        pub fn reg_taint(&self, reg_index: usize) -> &BitSet {
            &self.reg[reg_index]
        }

        /// Overwrites a register's taint.
        pub fn set_reg_taint(&mut self, reg_index: usize, taint: BitSet) {
            self.reg[reg_index] = taint;
        }

        /// Merges labels into a register's taint.
        pub fn merge_reg_taint(&mut self, reg_index: usize, taint: &BitSet) {
            self.reg[reg_index].union_with(taint);
        }

        /// Taint of the FLAGS register.
        pub fn flags_taint(&self) -> &BitSet {
            &self.flags
        }

        /// Overwrites the FLAGS taint.
        pub fn set_flags_taint(&mut self, taint: BitSet) {
            self.flags = taint;
        }

        fn word_of(&self, sandbox_off: u64) -> usize {
            (sandbox_off as usize % self.sandbox_size) / 8
        }

        /// Taint of the word containing `off` (initially its own label).
        pub fn mem_taint(&self, off: u64) -> BitSet {
            let w = self.word_of(off);
            self.mem.get(&w).cloned().unwrap_or_else(|| {
                let mut s = BitSet::new();
                s.insert(16 + w);
                s
            })
        }

        /// Union of word taints over an access of `len` bytes at `off`.
        pub fn mem_taint_range(&self, off: u64, len: u64) -> BitSet {
            let mut t = BitSet::new();
            let first = self.word_of(off);
            let last = self.word_of(off + len - 1);
            for w in [first, last] {
                t.union_with(&self.mem_taint((w * 8) as u64));
            }
            t
        }

        /// Stores `taint` over an access of `len` bytes at `off` (partial
        /// words merge, full words replace).
        pub fn set_mem_taint_range(&mut self, off: u64, len: u64, taint: &BitSet) {
            let first = self.word_of(off);
            let last = self.word_of(off + len - 1);
            let full_word = len == 8 && off.is_multiple_of(8);
            let words = [first, last];
            for &w in &words[..1 + (first != last) as usize] {
                if full_word {
                    self.mem.insert(w, taint.clone());
                } else {
                    let mut merged = self.mem_taint((w * 8) as u64);
                    merged.union_with(taint);
                    self.mem.insert(w, merged);
                }
            }
        }

        /// Marks labels as reaching a contract observation.
        pub fn mark_relevant(&mut self, taint: &BitSet) {
            self.relevant.union_with(taint);
        }

        /// Labels that reached observations so far.
        pub fn relevant(&self) -> &BitSet {
            &self.relevant
        }

        /// Takes a full-state rollback point (O(sandbox)).
        pub fn checkpoint(&self) -> DenseCheckpoint {
            DenseCheckpoint {
                reg: self.reg.clone(),
                flags: self.flags.clone(),
                mem: self.mem.clone(),
            }
        }

        /// Rolls back to a checkpoint (O(sandbox)).
        pub fn restore(&mut self, cp: &DenseCheckpoint) {
            self.reg = cp.reg.clone();
            self.flags = cp.flags.clone();
            self.mem = cp.mem.clone();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> TaintEngine {
        TaintEngine::new(TaintConfig::default(), 4096)
    }

    fn labels_of(t: &TaintEngine, s: TaintSet) -> Vec<u32> {
        t.labels(&s).to_vec()
    }

    #[test]
    fn initial_labels_are_self() {
        let t = engine();
        assert_eq!(labels_of(&t, t.reg_taint(3)), vec![3]);
        assert_eq!(labels_of(&t, t.mem_taint(0)), vec![16]);
        assert_eq!(labels_of(&t, t.mem_taint(8)), vec![17]);
        assert_eq!(labels_of(&t, t.mem_taint(15)), vec![17]);
    }

    #[test]
    fn mem_range_spans_words() {
        let mut t = engine();
        let span = t.mem_taint_range(6, 4); // bytes 6..10 touch words 0 and 1
        assert_eq!(labels_of(&t, span), vec![16, 17]);
        let single = t.mem_taint_range(8, 8);
        assert_eq!(labels_of(&t, single), vec![17]);
    }

    #[test]
    fn full_word_store_replaces_partial_merges() {
        let mut t = engine();
        t.set_mem_taint_range(8, 8, TaintSet::singleton(5));
        assert_eq!(labels_of(&t, t.mem_taint(8)), vec![5]);
        // Partial store merges with the existing word taint.
        t.set_mem_taint_range(10, 2, TaintSet::singleton(6));
        assert_eq!(labels_of(&t, t.mem_taint(8)), vec![5, 6]);
    }

    #[test]
    fn relevant_survives_restore() {
        let mut t = engine();
        let cp = t.checkpoint();
        let s = TaintSet::singleton(2);
        t.set_reg_taint(0, s);
        t.mark_relevant(s);
        t.restore(&cp);
        assert_eq!(
            labels_of(&t, t.reg_taint(0)),
            vec![0],
            "register taint rolled back"
        );
        assert!(t.relevant().contains(2), "relevance is monotonic");
    }

    #[test]
    fn offsets_wrap_modulo_sandbox() {
        let t = engine();
        assert_eq!(
            labels_of(&t, t.mem_taint(4096)),
            labels_of(&t, t.mem_taint(0))
        );
    }

    #[test]
    fn checkpoint_restore_unwinds_word_writes() {
        let mut t = engine();
        t.set_mem_taint_range(0, 8, TaintSet::singleton(9));
        let cp = t.checkpoint();
        t.set_mem_taint_range(0, 8, TaintSet::singleton(1));
        t.set_mem_taint_range(64, 8, TaintSet::singleton(2));
        t.restore(&cp);
        assert_eq!(labels_of(&t, t.mem_taint(0)), vec![9], "pre-cp write kept");
        assert_eq!(
            labels_of(&t, t.mem_taint(64)),
            vec![16 + 8],
            "untouched word back to its self-label"
        );
    }

    #[test]
    fn nested_checkpoints_stack() {
        let mut t = engine();
        let cp1 = t.checkpoint();
        t.set_mem_taint_range(0, 8, TaintSet::singleton(1));
        let cp2 = t.checkpoint();
        t.set_mem_taint_range(0, 8, TaintSet::singleton(2));
        t.restore(&cp2);
        assert_eq!(labels_of(&t, t.mem_taint(0)), vec![1]);
        t.restore(&cp1);
        assert_eq!(labels_of(&t, t.mem_taint(0)), vec![16]);
    }

    #[test]
    #[should_panic(expected = "stale taint checkpoint")]
    fn stale_checkpoint_panics() {
        let mut t = engine();
        let cp_old = t.checkpoint();
        t.set_mem_taint_range(0, 8, TaintSet::singleton(1));
        let cp_new = t.checkpoint();
        t.restore(&cp_old);
        t.restore(&cp_new); // out of order
    }

    #[test]
    fn reset_restores_self_labels_in_place() {
        let mut t = engine();
        t.set_reg_taint(0, TaintSet::singleton(7));
        t.set_mem_taint_range(0, 8, TaintSet::singleton(7));
        t.mark_relevant(TaintSet::singleton(7));
        let cfg = t.config();
        t.reset(cfg, 4096);
        assert_eq!(labels_of(&t, t.reg_taint(0)), vec![0]);
        assert_eq!(labels_of(&t, t.mem_taint(0)), vec![16]);
        assert!(t.relevant().is_empty());
        // Size changes rebuild the word map.
        t.reset(cfg, 8192);
        assert_eq!(labels_of(&t, t.mem_taint(8192 - 8)), vec![16 + 1023]);
    }

    #[test]
    #[cfg(debug_assertions)]
    fn shadow_oracle_agrees_on_a_mixed_workload() {
        let mut t = TaintEngine::new(TaintConfig::default(), 4096).with_dense_shadow();
        t.set_mem_taint_range(0, 8, TaintSet::singleton(3));
        let m = t.mem_taint_range(0, 8);
        t.set_reg_taint(2, m);
        let cp = t.checkpoint();
        let u = t.union(t.reg_taint(2), TaintSet::singleton(8));
        t.set_mem_taint_range(10, 2, u);
        t.merge_reg_taint(2, TaintSet::singleton(9));
        t.set_flags_taint(t.reg_taint(2));
        t.mark_relevant(u);
        t.verify_shadow();
        t.restore(&cp);
        t.verify_shadow();
    }
}
