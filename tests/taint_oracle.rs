//! Differential test of the sparse interned taint engine against the dense
//! reference oracle.
//!
//! `LeakageModel::relevant_labels_verified` drives the emulator with the
//! sparse engine *and* a mirrored [`amulet::emu::taint::dense`] engine:
//! every mutation is applied to both, register/flag/relevant state is
//! cross-checked on each speculative rollback, and the complete state
//! (including every memory word) is compared at the end — any divergence
//! panics inside the drive. The seeded loops below sweep all
//! [`ContractKind`]s (sequential, branch-exploring, value-observing and
//! store-bypassing execution clauses) and the 1/8/128-page sandbox shapes
//! the paper's harnesses use (§3.5), over generator-produced programs.

use amulet::contracts::{ContractKind, LeakageModel, ModelScratch};
use amulet::fuzz::{Generator, GeneratorConfig};
use amulet::isa::TestInput;
use amulet::util::Xoshiro256;

/// The sparse engine computes the same relevant sets as the dense oracle —
/// and checkpoint/restore round-trips identically — across all contract
/// kinds and sandbox sizes. Also pins the scratch-reuse path
/// (`relevant_labels_with`) to the fresh-engine path: a stale reset would
/// show up as a divergence between the two. The oracle exists only in
/// builds with `debug_assertions`, so this test does too.
#[test]
#[cfg(debug_assertions)]
fn sparse_engine_matches_dense_oracle_across_contracts_and_pages() {
    for pages in [1usize, 8, 128] {
        // Fewer iterations at 128 pages: the dense oracle is O(sandbox) per
        // rollback, which is the very cost this engine replaced.
        let programs = if pages >= 128 { 2 } else { 6 };
        let mut generator = Generator::new(
            GeneratorConfig {
                pages,
                ..GeneratorConfig::default()
            },
            0xA11CE + pages as u64,
        );
        let mut rng = Xoshiro256::seed_from_u64(0xBEEF + pages as u64);
        let mut scratch = ModelScratch::new();
        for _ in 0..programs {
            let flat = generator.program().flatten();
            let input = TestInput::random(&mut rng, pages);
            for kind in ContractKind::ALL {
                let model = LeakageModel::new(kind);
                // Panics internally on any sparse/dense divergence.
                let verified = model.relevant_labels_verified(&flat, &input);
                // The production paths agree with the verified drive.
                assert_eq!(
                    model.relevant_labels(&flat, &input),
                    verified,
                    "fresh-engine path diverged under {kind} at {pages} pages"
                );
                assert_eq!(
                    *model.relevant_labels_with(&flat, &input, &mut scratch),
                    verified,
                    "scratch-reuse path diverged under {kind} at {pages} pages"
                );
            }
        }
    }
}

/// Scratch reuse across *different* sandbox sizes: the engine and machine
/// must rebuild their word maps when the geometry changes, never reinterpret
/// stale state.
#[test]
fn scratch_survives_sandbox_size_changes() {
    let mut scratch = ModelScratch::new();
    let mut rng = Xoshiro256::seed_from_u64(7);
    let model = LeakageModel::new(ContractKind::ArchSeq);
    for &pages in &[1usize, 128, 8, 1, 128] {
        let mut generator = Generator::new(
            GeneratorConfig {
                pages,
                ..GeneratorConfig::default()
            },
            pages as u64,
        );
        let flat = generator.program().flatten();
        let input = TestInput::random(&mut rng, pages);
        let fresh = model.relevant_labels(&flat, &input);
        assert_eq!(
            *model.relevant_labels_with(&flat, &input, &mut scratch),
            fresh,
            "scratch reuse diverged after switching to {pages} pages"
        );
    }
}
