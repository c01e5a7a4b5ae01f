//! Stable hashing for values that cross the network.
//!
//! Group-by partitioning, shuffle routing, and bloom-filter probing all
//! derive peer/bucket choices from a hash of a [`Value`]. Using std's
//! `DefaultHasher` for that is a latent bug: its output is "not
//! guaranteed to be stable across releases", so a toolchain upgrade
//! could silently re-route every shuffle, changing traces and breaking
//! chaos-replay determinism. This module pins the function: FNV-1a over
//! the value's own byte representation, with the same Int/Float
//! unification as [`Value`]'s `Eq` (`Int(3) == Float(3.0)` implies
//! equal hashes).

use crate::value::Value;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over a byte slice, continuing from `state`.
fn fnv1a(mut state: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        state ^= u64::from(*b);
        state = state.wrapping_mul(FNV_PRIME);
    }
    state
}

/// A stable 64-bit hash of one [`Value`]. Equal values (under the SQL
/// comparison semantics of [`Value::eq`]) hash equally; the function is
/// fixed for all time — safe to persist, replay, and compare across
/// builds.
pub fn stable_hash(v: &Value) -> u64 {
    match v {
        Value::Null => fnv1a(FNV_OFFSET, &[0]),
        // Ints and floats comparing equal must hash equally, so both
        // hash through the f64 bit pattern.
        Value::Int(x) => fnv1a(
            fnv1a(FNV_OFFSET, &[1]),
            &(*x as f64).to_bits().to_le_bytes(),
        ),
        Value::Float(x) => fnv1a(fnv1a(FNV_OFFSET, &[1]), &x.to_bits().to_le_bytes()),
        Value::Date(d) => fnv1a(fnv1a(FNV_OFFSET, &[2]), &d.to_le_bytes()),
        Value::Str(s) => fnv1a(fnv1a(FNV_OFFSET, &[3]), s.as_bytes()),
    }
}

/// A stable 64-bit hash of a raw byte slice: FNV-1a finalized through
/// [`mix64`]. The write-ahead log uses it as the record checksum, so —
/// like [`stable_hash`] — the function is fixed for all time: logs
/// written by one build must replay under any other.
pub fn stable_hash_bytes(bytes: &[u8]) -> u64 {
    mix64(fnv1a(FNV_OFFSET, bytes))
}

/// [`stable_hash_bytes`] of the concatenation of `parts`, hashed part
/// by part (FNV-1a streams), so a caller never copies the parts into
/// one buffer just to hash them.
pub fn stable_hash_parts(parts: &[&[u8]]) -> u64 {
    mix64(
        parts
            .iter()
            .fold(FNV_OFFSET, |state, part| fnv1a(state, part)),
    )
}

/// A cheap bijective finalizer (SplitMix64): derives an independent
/// second hash from a first — what double-hashing schemes (bloom
/// filters) need without hashing the value twice.
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_values_hash_equal() {
        assert_eq!(stable_hash(&Value::Int(3)), stable_hash(&Value::Float(3.0)));
        assert_eq!(stable_hash(&Value::str("x")), stable_hash(&Value::str("x")));
    }

    #[test]
    fn distinct_values_usually_differ() {
        let vals = [
            Value::Null,
            Value::Int(0),
            Value::Int(1),
            Value::Float(0.5),
            Value::Date(1),
            Value::str(""),
            Value::str("a"),
            Value::str("b"),
        ];
        let mut hashes: Vec<u64> = vals.iter().map(stable_hash).collect();
        hashes.sort_unstable();
        hashes.dedup();
        assert_eq!(hashes.len(), vals.len(), "no collisions in the sample");
    }

    #[test]
    fn hashes_are_pinned_forever() {
        // These constants are part of the on-the-wire contract: shuffle
        // routing must not change across releases. Never update them.
        assert_eq!(stable_hash(&Value::Null), 0xaf63_bd4c_8601_b7df);
        assert_eq!(stable_hash(&Value::Int(42)), 0x51b6_3adc_8f33_5331);
        assert_eq!(stable_hash(&Value::str("FRANCE")), 0xd9e9_1801_20f3_de1d);
        assert_eq!(stable_hash(&Value::Date(9131)), 0x7cbc_ccae_675c_65c3);
    }

    #[test]
    fn byte_hashes_are_pinned_forever() {
        // WAL checksum contract: a log written by any build must verify
        // under any other. Never update these constants.
        assert_eq!(stable_hash_bytes(b""), mix64(FNV_OFFSET));
        assert_eq!(stable_hash_bytes(b"bestpeer"), 0xf866_f78f_7b42_1b0b);
    }

    #[test]
    fn part_wise_hash_equals_the_hash_of_the_concatenation() {
        let whole = b"bestpeer write-ahead log";
        for cut in 0..=whole.len() {
            let (a, b) = whole.split_at(cut);
            assert_eq!(stable_hash_parts(&[a, b]), stable_hash_bytes(whole));
        }
        assert_eq!(stable_hash_parts(&[]), stable_hash_bytes(b""));
    }

    #[test]
    fn mix64_is_bijective_sampled() {
        let mut out: Vec<u64> = (0..1000u64).map(mix64).collect();
        out.sort_unstable();
        out.dedup();
        assert_eq!(out.len(), 1000);
    }
}
