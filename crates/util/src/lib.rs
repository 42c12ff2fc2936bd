//! Small dependency-free utilities shared across the AMuLeT workspace:
//! a deterministic PRNG, a compact bit set, streaming statistics, an
//! allocation-free inline vector, and the JSONL event writer.
//!
//! Everything in this crate is deterministic on purpose: the whole point of
//! model-based relational testing is reproducibility, so AMuLeT never touches
//! ambient entropy — every random choice flows from an explicit seed.
//!
//! # Examples
//!
//! ```
//! use amulet_util::Xoshiro256;
//!
//! let mut rng = Xoshiro256::seed_from_u64(42);
//! let a = rng.next_u64();
//! let mut rng2 = Xoshiro256::seed_from_u64(42);
//! assert_eq!(a, rng2.next_u64());
//! ```

pub mod arrayvec;
pub mod bitset;
pub mod events;
pub mod json;
pub mod rng;
pub mod stats;
pub mod taintset;

pub use arrayvec::ArrayVec;
pub use bitset::BitSet;
pub use events::EventLog;
pub use json::{json_string, parse_json, JsonObj, JsonValue};
pub use rng::{mix64, residency_digest, Basis, SplitMix64, Xoshiro256};
pub use stats::{fmt_duration_s, Summary};
pub use taintset::{TaintPool, TaintSet};
