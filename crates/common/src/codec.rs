//! Compact binary codec for rows and values, and the checked reads
//! every decoder in the workspace is built from.
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
//!
//! Writers append to a plain `Vec<u8>`. Readers take a `&mut &[u8]`
//! cursor over borrowed bytes: each `get_*` checks that the bytes it
//! needs are there, returns them and advances the slice, so a short or
//! hostile input fails with [`Error::Codec`] at the read that runs out
//! and no decoder copies its input first. These bytes arrive over
//! untrusted sockets or from a torn log, so a count read from them
//! sizes a `Vec` only after [`get_count`] or [`checked_count`] has
//! checked it against the bytes left.

use crate::error::{Error, Result};
use crate::row::Row;
use crate::value::Value;

const TAG_NULL: u8 = 0;
const TAG_INT: u8 = 1;
const TAG_FLOAT: u8 = 2;
const TAG_STR: u8 = 3;
const TAG_DATE: u8 = 4;

#[cold]
#[inline(never)]
fn truncated(need: usize, have: usize) -> Error {
    Error::Codec(format!("truncated: need {need} bytes, have {have}"))
}

/// Take the next `N` bytes off the front of `buf`.
#[inline]
fn take<const N: usize>(buf: &mut &[u8]) -> Result<[u8; N]> {
    let bytes: &[u8] = buf;
    match bytes.split_first_chunk::<N>() {
        Some((head, rest)) => {
            *buf = rest;
            Ok(*head)
        }
        None => Err(truncated(N, bytes.len())),
    }
}

/// Read one byte.
#[inline]
pub fn get_u8(buf: &mut &[u8]) -> Result<u8> {
    take::<1>(buf).map(|[b]| b)
}

/// Read a little-endian `u16`.
#[inline]
pub fn get_u16(buf: &mut &[u8]) -> Result<u16> {
    take(buf).map(u16::from_le_bytes)
}

/// Read a little-endian `u32`.
#[inline]
pub fn get_u32(buf: &mut &[u8]) -> Result<u32> {
    take(buf).map(u32::from_le_bytes)
}

/// Read a little-endian `u64`.
#[inline]
pub fn get_u64(buf: &mut &[u8]) -> Result<u64> {
    take(buf).map(u64::from_le_bytes)
}

/// Read a little-endian `i64`.
#[inline]
pub fn get_i64(buf: &mut &[u8]) -> Result<i64> {
    take(buf).map(i64::from_le_bytes)
}

/// Take the next `n` bytes, borrowed from the input.
pub fn get_slice<'a>(buf: &mut &'a [u8], n: usize) -> Result<&'a [u8]> {
    let bytes: &'a [u8] = buf;
    let (head, rest) = bytes
        .split_at_checked(n)
        .ok_or_else(|| truncated(n, bytes.len()))?;
    *buf = rest;
    Ok(head)
}

/// Read a byte run written by [`put_bytes`], borrowed from the input.
pub fn get_bytes<'a>(buf: &mut &'a [u8]) -> Result<&'a [u8]> {
    let len = get_u32(buf)? as usize;
    get_slice(buf, len)
}

/// Read a string written by [`put_str`].
pub fn get_str(buf: &mut &[u8]) -> Result<String> {
    String::from_utf8(get_bytes(buf)?.to_vec())
        .map_err(|_| Error::Codec("invalid utf-8 in string".into()))
}

/// Check a declared element count `n` against the bytes left in `buf`,
/// given the fewest bytes one element can take, before it sizes a
/// `Vec`: a hostile count must fail cheaply, not allocate gigabytes.
pub fn checked_count(buf: &[u8], n: usize, min_elem_bytes: usize) -> Result<usize> {
    if n > buf.len() / min_elem_bytes {
        return Err(Error::Codec(format!(
            "declares {n} elements but only {} bytes remain",
            buf.len()
        )));
    }
    Ok(n)
}

/// Read a `u32` element count and check it with [`checked_count`].
pub fn get_count(buf: &mut &[u8], min_elem_bytes: usize) -> Result<usize> {
    let n = get_u32(buf)? as usize;
    checked_count(buf, n, min_elem_bytes)
}

/// Fail unless every byte of a `what` encoding was read.
pub fn finish(buf: &[u8], what: &str) -> Result<()> {
    if buf.is_empty() {
        Ok(())
    } else {
        Err(Error::Codec(format!(
            "{} trailing bytes after {what}",
            buf.len()
        )))
    }
}

/// Append one value to `buf`.
#[inline]
pub fn encode_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => buf.push(TAG_NULL),
        Value::Int(x) => {
            buf.push(TAG_INT);
            buf.extend_from_slice(&x.to_le_bytes());
        }
        Value::Float(x) => {
            buf.push(TAG_FLOAT);
            buf.extend_from_slice(&x.to_le_bytes());
        }
        Value::Str(s) => {
            buf.push(TAG_STR);
            put_str(buf, s);
        }
        Value::Date(d) => {
            buf.push(TAG_DATE);
            buf.extend_from_slice(&d.to_le_bytes());
        }
    }
}

/// Decode one value from the front of `buf`.
pub fn decode_value(buf: &mut &[u8]) -> Result<Value> {
    Ok(match get_u8(buf)? {
        TAG_NULL => Value::Null,
        TAG_INT => Value::Int(get_i64(buf)?),
        TAG_FLOAT => Value::Float(f64::from_le_bytes(take(buf)?)),
        TAG_STR => Value::Str(get_str(buf)?),
        TAG_DATE => Value::Date(i32::from_le_bytes(take(buf)?)),
        other => return Err(Error::Codec(format!("unknown value tag {other}"))),
    })
}

/// Append `bytes` as a `u32` length followed by the bytes: the layout
/// of every string and blob the wire, the WAL, the access rules and the
/// index entry sets carry.
pub fn put_bytes(buf: &mut Vec<u8>, bytes: &[u8]) {
    buf.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    buf.extend_from_slice(bytes);
}

/// Append `s` as a `u32` byte length followed by its UTF-8 bytes.
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_bytes(buf, s.as_bytes());
}

/// Append one row to `buf`. Inlined, with [`encode_value`], into the
/// batch encoder's loop.
#[inline]
pub fn encode_row(buf: &mut Vec<u8>, row: &Row) {
    buf.extend_from_slice(&(row.arity() as u16).to_le_bytes());
    for v in row.values() {
        encode_value(buf, v);
    }
}

/// Decode one row from the front of `buf`. Every value takes at least
/// its tag byte.
pub fn decode_row(buf: &mut &[u8]) -> Result<Row> {
    let arity = get_u16(buf)? as usize;
    let mut values = Vec::with_capacity(checked_count(buf, arity, 1)?);
    for _ in 0..arity {
        values.push(decode_value(buf)?);
    }
    Ok(Row::new(values))
}

/// Encode a whole batch of rows into one buffer, sized exactly by
/// [`batch_encoded_size`].
pub fn encode_batch(rows: &[Row]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(batch_encoded_size(rows) as usize);
    encode_batch_into(&mut buf, rows);
    buf
}

/// Append the encoding of a whole batch of rows to `buf` (the bytes
/// [`encode_batch`] produces), so a message that embeds a batch is
/// built in one buffer.
pub fn encode_batch_into(buf: &mut Vec<u8>, rows: &[Row]) {
    buf.extend_from_slice(&(rows.len() as u32).to_le_bytes());
    for row in rows {
        encode_row(buf, row);
    }
}

/// Decode a batch produced by [`encode_batch`]: the whole of `buf`.
/// Every row takes at least its two arity bytes.
pub fn decode_batch(mut buf: &[u8]) -> Result<Vec<Row>> {
    let n = get_count(&mut buf, 2)?;
    let mut rows = Vec::with_capacity(n);
    for _ in 0..n {
        rows.push(decode_row(&mut buf)?);
    }
    finish(buf, "batch")?;
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
        assert_eq!(decode_batch(&encoded).unwrap(), rows);
    }

    #[test]
    fn encoded_size_matches_actual() {
        let rows = sample_rows();
        let encoded = encode_batch(&rows);
        assert_eq!(encoded.len() as u64, batch_encoded_size(&rows));
        assert_eq!(encoded.capacity(), encoded.len(), "no growth slack");
        for row in &rows {
            let mut buf = Vec::new();
            encode_row(&mut buf, row);
            assert_eq!(buf.len() as u64, row_encoded_size(row));
        }
    }

    #[test]
    fn batch_appends_after_a_prefix_unchanged() {
        let rows = sample_rows();
        let mut buf = vec![0xAB];
        encode_batch_into(&mut buf, &rows);
        assert_eq!(buf[0], 0xAB);
        assert_eq!(&buf[1..], &encode_batch(&rows)[..]);
    }

    #[test]
    fn truncation_is_detected() {
        let rows = sample_rows();
        let encoded = encode_batch(&rows);
        for cut in [0, 1, 5, encoded.len() - 1] {
            assert!(
                decode_batch(&encoded[..cut]).is_err(),
                "cut at {cut} should fail"
            );
        }
    }

    #[test]
    fn trailing_garbage_is_detected() {
        let mut buf = encode_batch(&sample_rows());
        buf.push(0xAB);
        assert!(decode_batch(&buf).is_err());
    }

    #[test]
    fn unknown_tag_is_rejected() {
        assert!(decode_value(&mut &[99u8][..]).is_err());
    }

    #[test]
    fn invalid_utf8_is_rejected() {
        let buf = [TAG_STR, 2, 0, 0, 0, 0xFF, 0xFE];
        assert!(decode_value(&mut &buf[..]).is_err());
    }

    #[test]
    fn checked_reads_fail_at_the_read_that_runs_out() {
        let input = [7u8, 0xEF, 0xBE, 3, 0, 0, 0, b'a', b'b', b'c'];
        let mut buf = &input[..];
        assert_eq!(get_u8(&mut buf).unwrap(), 7);
        assert_eq!(get_u16(&mut buf).unwrap(), 0xBEEF);
        // The run is borrowed from the input, not copied.
        let run = get_bytes(&mut buf).unwrap();
        assert_eq!(run, b"abc");
        assert_eq!(run.as_ptr(), input[7..].as_ptr());
        finish(buf, "input").unwrap();

        // Each cut fails with a codec error, not a panic.
        assert_eq!(get_u64(&mut &input[..7]).unwrap_err().kind(), "codec");
        assert_eq!(get_bytes(&mut &input[3..9]).unwrap_err().kind(), "codec");
        assert!(finish(&input[9..], "input").is_err());
    }

    #[test]
    fn counts_are_checked_against_the_bytes_left() {
        let ten = [0u8; 10];
        assert_eq!(checked_count(&ten, 5, 2).unwrap(), 5);
        assert!(checked_count(&ten, 6, 2).is_err());
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&ten);
        assert!(get_count(&mut &buf[..], 1).is_err());
    }

    #[test]
    fn hostile_batch_count_fails_before_allocation() {
        // A 4-byte buffer claiming u32::MAX rows: the count check must
        // reject it without ever sizing a Vec from the header.
        assert!(decode_batch(&u32::MAX.to_le_bytes()).is_err());

        // Same with a plausible-looking payload after the count.
        let mut buf = 1_000_000_000u32.to_le_bytes().to_vec();
        buf.extend_from_slice(&[0u8; 64]);
        assert!(decode_batch(&buf).is_err());
    }

    #[test]
    fn hostile_row_arity_fails_before_allocation() {
        // One row claiming 65535 values, with one value's byte behind it.
        let buf = [1, 0, 0, 0, 0xFF, 0xFF, TAG_NULL];
        assert!(decode_batch(&buf).is_err());
    }

    #[test]
    fn hostile_string_length_fails_before_allocation() {
        let buf = [TAG_STR, 0xFF, 0xFF, 0xFF, 0xFF, b'a', b'b', b'c'];
        assert!(decode_value(&mut &buf[..]).is_err());
    }
}
