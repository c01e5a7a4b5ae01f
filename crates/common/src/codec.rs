//! Compact binary codec for rows and values.
//!
//! Data shipped between peers (subquery results, shuffled join tuples,
//! bloom filters) is actually serialized with this codec, so the byte
//! counts used by the pay-as-you-go cost model (paper §5) reflect real
//! encoded sizes rather than estimates.
//!
//! Format (little-endian):
//! - value: 1 tag byte, then payload (`Int`/`Float`: 8 bytes; `Date`:
//!   4 bytes; `Str`: u32 length + bytes; `Null`: empty).
//! - row: u16 arity, then each value.
//! - batch: u32 row count, then each row.

use crate::bytes::{Bytes, BytesMut};
use crate::error::{Error, Result};
use crate::row::Row;
use crate::value::Value;

const TAG_NULL: u8 = 0;
const TAG_INT: u8 = 1;
const TAG_FLOAT: u8 = 2;
const TAG_STR: u8 = 3;
const TAG_DATE: u8 = 4;

/// Append one value to `buf`.
pub fn encode_value(buf: &mut BytesMut, v: &Value) {
    match v {
        Value::Null => buf.put_u8(TAG_NULL),
        Value::Int(x) => {
            buf.put_u8(TAG_INT);
            buf.put_i64_le(*x);
        }
        Value::Float(x) => {
            buf.put_u8(TAG_FLOAT);
            buf.put_f64_le(*x);
        }
        Value::Str(s) => {
            buf.put_u8(TAG_STR);
            put_str(buf, s);
        }
        Value::Date(d) => {
            buf.put_u8(TAG_DATE);
            buf.put_i32_le(*d);
        }
    }
}

/// Decode one value from the front of `buf`.
pub fn decode_value(buf: &mut Bytes) -> Result<Value> {
    if buf.remaining() < 1 {
        return Err(Error::Codec("truncated value: missing tag".into()));
    }
    let tag = buf.get_u8();
    match tag {
        TAG_NULL => Ok(Value::Null),
        TAG_INT => {
            ensure(buf, 8)?;
            Ok(Value::Int(buf.get_i64_le()))
        }
        TAG_FLOAT => {
            ensure(buf, 8)?;
            Ok(Value::Float(buf.get_f64_le()))
        }
        TAG_STR => Ok(Value::Str(get_str(buf)?)),
        TAG_DATE => {
            ensure(buf, 4)?;
            Ok(Value::Date(buf.get_i32_le()))
        }
        other => Err(Error::Codec(format!("unknown value tag {other}"))),
    }
}

/// Append `bytes` as a `u32` length followed by the bytes: the layout
/// of every string and blob the wire, the WAL, the access rules and the
/// index entry sets carry.
pub fn put_bytes(buf: &mut BytesMut, bytes: &[u8]) {
    buf.put_u32_le(bytes.len() as u32);
    buf.put_slice(bytes);
}

/// Append `s` as a `u32` byte length followed by its UTF-8 bytes.
pub fn put_str(buf: &mut BytesMut, s: &str) {
    put_bytes(buf, s.as_bytes());
}

/// Decode a byte run written by [`put_bytes`] from the front of `buf`.
/// The declared length is checked against the remaining bytes before
/// anything is allocated: these bytes can arrive over untrusted
/// sockets or from a torn log.
pub fn get_bytes(buf: &mut Bytes) -> Result<Vec<u8>> {
    ensure(buf, 4)?;
    let len = buf.get_u32_le() as usize;
    ensure(buf, len)?;
    let bytes = buf[..len].to_vec();
    buf.advance(len);
    Ok(bytes)
}

/// Decode a string written by [`put_str`] from the front of `buf`.
pub fn get_str(buf: &mut Bytes) -> Result<String> {
    String::from_utf8(get_bytes(buf)?).map_err(|_| Error::Codec("invalid utf-8 in string".into()))
}

fn ensure(buf: &Bytes, n: usize) -> Result<()> {
    if buf.remaining() < n {
        Err(Error::Codec(format!(
            "truncated: need {n} bytes, have {}",
            buf.remaining()
        )))
    } else {
        Ok(())
    }
}

/// Append one row to `buf`.
pub fn encode_row(buf: &mut BytesMut, row: &Row) {
    buf.put_u16_le(row.arity() as u16);
    for v in row.values() {
        encode_value(buf, v);
    }
}

/// Decode one row from the front of `buf`.
///
/// The declared arity is capped against the remaining buffer *before*
/// any allocation: every encoded value occupies at least its one tag
/// byte, so an arity larger than `buf.remaining()` is malformed by
/// construction and must not size a `Vec`.
pub fn decode_row(buf: &mut Bytes) -> Result<Row> {
    ensure(buf, 2)?;
    let arity = buf.get_u16_le() as usize;
    if arity > buf.remaining() {
        return Err(Error::Codec(format!(
            "row declares {arity} values but only {} bytes remain",
            buf.remaining()
        )));
    }
    let mut values = Vec::with_capacity(arity);
    for _ in 0..arity {
        values.push(decode_value(buf)?);
    }
    Ok(Row::new(values))
}

/// Encode a whole batch of rows into one buffer, sized exactly by
/// [`batch_encoded_size`].
pub fn encode_batch(rows: &[Row]) -> Bytes {
    let mut buf = BytesMut::with_capacity(batch_encoded_size(rows) as usize);
    encode_batch_into(&mut buf, rows);
    buf.freeze()
}

/// Append the encoding of a whole batch of rows to `buf` (the bytes
/// [`encode_batch`] produces), so a message that embeds a batch is
/// built in one buffer.
pub fn encode_batch_into(buf: &mut BytesMut, rows: &[Row]) {
    buf.put_u32_le(rows.len() as u32);
    for row in rows {
        encode_row(buf, row);
    }
}

/// Decode a batch previously produced by [`encode_batch`].
///
/// Batches now arrive over real sockets, so the declared row count is
/// attacker-controlled: a hostile `u32::MAX` header must fail cheaply
/// instead of sizing a multi-gigabyte `Vec`. The count is therefore
/// validated against the remaining bytes (an encoded row is at least
/// its two arity bytes) *before* the allocation.
pub fn decode_batch(mut buf: Bytes) -> Result<Vec<Row>> {
    ensure(&buf, 4)?;
    let n = buf.get_u32_le() as usize;
    if n > buf.remaining() / 2 {
        return Err(Error::Codec(format!(
            "batch declares {n} rows but only {} bytes remain",
            buf.remaining()
        )));
    }
    let mut rows = Vec::with_capacity(n);
    for _ in 0..n {
        rows.push(decode_row(&mut buf)?);
    }
    if buf.has_remaining() {
        return Err(Error::Codec(format!(
            "{} trailing bytes after batch",
            buf.remaining()
        )));
    }
    Ok(rows)
}

/// The exact number of bytes [`encode_batch`] produces for `rows`,
/// without allocating: used on hot cost-accounting paths.
pub fn batch_encoded_size(rows: &[Row]) -> u64 {
    4 + rows.iter().map(row_encoded_size).sum::<u64>()
}

/// The exact number of bytes [`encode_row`] produces for `row`: the
/// per-row term of [`batch_encoded_size`].
pub fn row_encoded_size(row: &Row) -> u64 {
    2 + row.values().iter().map(value_encoded_size).sum::<u64>()
}

fn value_encoded_size(v: &Value) -> u64 {
    1 + match v {
        Value::Null => 0,
        Value::Int(_) | Value::Float(_) => 8,
        Value::Date(_) => 4,
        Value::Str(s) => 4 + s.len() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_rows() -> Vec<Row> {
        vec![
            Row::new(vec![Value::Int(-7), Value::str("héllo"), Value::Null]),
            Row::new(vec![Value::Float(2.25), Value::Date(10_500)]),
            Row::new(vec![]),
        ]
    }

    #[test]
    fn batch_round_trips() {
        let rows = sample_rows();
        let encoded = encode_batch(&rows);
        assert_eq!(decode_batch(encoded).unwrap(), rows);
    }

    #[test]
    fn encoded_size_matches_actual() {
        let rows = sample_rows();
        let encoded = encode_batch(&rows);
        assert_eq!(encoded.len() as u64, batch_encoded_size(&rows));
        for row in &rows {
            let mut buf = BytesMut::new();
            encode_row(&mut buf, row);
            assert_eq!(buf.len() as u64, row_encoded_size(row));
        }
    }

    #[test]
    fn batch_appends_after_a_prefix_unchanged() {
        let rows = sample_rows();
        let mut buf = BytesMut::new();
        buf.put_u8(0xAB);
        encode_batch_into(&mut buf, &rows);
        assert_eq!(buf[0], 0xAB);
        assert_eq!(&buf[1..], &encode_batch(&rows)[..]);
    }

    #[test]
    fn truncation_is_detected() {
        let rows = sample_rows();
        let encoded = encode_batch(&rows);
        for cut in [0, 1, 5, encoded.len() - 1] {
            let truncated = encoded.slice(..cut);
            assert!(decode_batch(truncated).is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn trailing_garbage_is_detected() {
        let mut buf = BytesMut::from(&encode_batch(&sample_rows())[..]);
        buf.put_u8(0xAB);
        assert!(decode_batch(buf.freeze()).is_err());
    }

    #[test]
    fn unknown_tag_is_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u8(99);
        assert!(decode_value(&mut buf.freeze()).is_err());
    }

    #[test]
    fn invalid_utf8_is_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u8(TAG_STR);
        buf.put_u32_le(2);
        buf.put_slice(&[0xFF, 0xFE]);
        assert!(decode_value(&mut buf.freeze()).is_err());
    }

    #[test]
    fn hostile_batch_count_fails_before_allocation() {
        // A 4-byte buffer claiming u32::MAX rows: the count check must
        // reject it without ever sizing a Vec from the header.
        let mut buf = BytesMut::new();
        buf.put_u32_le(u32::MAX);
        assert!(decode_batch(buf.freeze()).is_err());

        // Same with a plausible-looking payload after the count.
        let mut buf = BytesMut::new();
        buf.put_u32_le(1_000_000_000);
        buf.put_slice(&[0u8; 64]);
        assert!(decode_batch(buf.freeze()).is_err());
    }

    #[test]
    fn hostile_row_arity_fails_before_allocation() {
        let mut buf = BytesMut::new();
        buf.put_u32_le(1); // one row
        buf.put_u16_le(u16::MAX); // ...claiming 65535 values
        buf.put_u8(TAG_NULL);
        assert!(decode_batch(buf.freeze()).is_err());
    }

    #[test]
    fn hostile_string_length_fails_before_allocation() {
        let mut buf = BytesMut::new();
        buf.put_u8(TAG_STR);
        buf.put_u32_le(u32::MAX);
        buf.put_slice(b"abc");
        assert!(decode_value(&mut buf.freeze()).is_err());
    }

    #[test]
    fn randomized_corruption_never_panics() {
        // Error-not-panic sweep over hostile mutations of a valid
        // encoding: truncations at every prefix, seeded bit flips, and
        // absurd little-endian length/count patches at random offsets.
        // Decoding may legitimately succeed when a flip lands in a value
        // payload; it must never panic or over-allocate.
        let rows: Vec<Row> = (0..20)
            .map(|i| {
                Row::new(vec![
                    Value::Int(i),
                    Value::str(format!("row-{i}")),
                    Value::Float(i as f64 * 0.5),
                    Value::Date(10_000 + i as i32),
                    Value::Null,
                ])
            })
            .collect();
        let encoded = encode_batch(&rows);

        for cut in 0..encoded.len() {
            assert!(
                decode_batch(encoded.slice(..cut)).is_err(),
                "truncation at {cut} must error"
            );
        }

        let mut rng = crate::rng::Rng::seed_from_u64(0xBE57_C0DE);
        for _ in 0..2000 {
            let mut mutated = encoded.to_vec();
            match rng.next_u64() % 3 {
                0 => {
                    // Single bit flip anywhere.
                    let pos = (rng.next_u64() as usize) % mutated.len();
                    let bit = rng.next_u64() % 8;
                    mutated[pos] ^= 1 << bit;
                }
                1 => {
                    // Patch an absurd u32 (length/count-shaped) value.
                    let pos = (rng.next_u64() as usize) % (mutated.len() - 4);
                    let absurd = [0xFF, 0xFF, 0xFF, 0x7F];
                    mutated[pos..pos + 4].copy_from_slice(&absurd);
                }
                _ => {
                    // Random truncation plus a flip in the prefix.
                    let cut = 1 + (rng.next_u64() as usize) % (mutated.len() - 1);
                    mutated.truncate(cut);
                    let pos = (rng.next_u64() as usize) % mutated.len();
                    mutated[pos] ^= 0x40;
                }
            }
            // Must return (Ok or Err), never panic.
            let _ = decode_batch(Bytes::from(mutated));
        }
    }
}
