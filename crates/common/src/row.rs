//! Rows: fixed-arity sequences of [`Value`]s.

use std::sync::Arc;

use crate::value::Value;

/// A reference-counted row handle.
///
/// The executor's operator pipeline passes rows as `Arc<Row>` so that a
/// scan→filter→sort→limit chain moves pointers instead of deep-cloning
/// every tuple at every stage. Cost accounting still charges *logical*
/// bytes ([`Row::byte_size`]) regardless of how many handles share the
/// allocation.
pub type SharedRow = Arc<Row>;

/// A single tuple. The column order is defined by the owning table's
/// [`crate::schema::TableSchema`] (or, for intermediate results, by the
/// output schema of the producing operator).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Row {
    values: Vec<Value>,
}

impl Row {
    /// Build a row from values.
    pub fn new(values: Vec<Value>) -> Self {
        Row { values }
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// Borrow the value at `idx`. Panics when out of bounds — callers
    /// resolve column indices through the schema first.
    pub fn get(&self, idx: usize) -> &Value {
        &self.values[idx]
    }

    /// All values, in column order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Mutable access for in-place rewriting (access-control masking).
    pub fn values_mut(&mut self) -> &mut [Value] {
        &mut self.values
    }

    /// Consume the row, yielding its values.
    pub fn into_values(self) -> Vec<Value> {
        self.values
    }

    /// Append a value (used when tagging rows with computed columns).
    pub fn push(&mut self, v: Value) {
        self.values.push(v);
    }

    /// A new row containing only the columns at `indices`, in that order.
    pub fn project(&self, indices: &[usize]) -> Row {
        Row::new(indices.iter().map(|&i| self.values[i].clone()).collect())
    }

    /// Concatenate two rows (join output).
    pub fn concat(&self, other: &Row) -> Row {
        let mut values = Vec::with_capacity(self.values.len() + other.values.len());
        values.extend_from_slice(&self.values);
        values.extend_from_slice(&other.values);
        Row::new(values)
    }

    /// Approximate size in bytes, for cost accounting.
    pub fn byte_size(&self) -> u64 {
        self.values.iter().map(Value::byte_size).sum()
    }
}

impl From<Vec<Value>> for Row {
    fn from(values: Vec<Value>) -> Self {
        Row::new(values)
    }
}

impl std::ops::Index<usize> for Row {
    type Output = Value;
    fn index(&self, idx: usize) -> &Value {
        &self.values[idx]
    }
}

/// Total bytes of a batch of rows; convenience for the cost model.
pub fn batch_bytes(rows: &[Row]) -> u64 {
    rows.iter().map(Row::byte_size).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Row {
        Row::new(vec![Value::Int(1), Value::str("ok"), Value::Float(2.5)])
    }

    #[test]
    fn project_reorders_and_duplicates() {
        let r = sample();
        let p = r.project(&[2, 0, 0]);
        assert_eq!(
            p.values(),
            &[Value::Float(2.5), Value::Int(1), Value::Int(1)]
        );
    }

    #[test]
    fn concat_joins_rows() {
        let a = Row::new(vec![Value::Int(1)]);
        let b = Row::new(vec![Value::Int(2), Value::Int(3)]);
        assert_eq!(
            a.concat(&b).values(),
            &[Value::Int(1), Value::Int(2), Value::Int(3)]
        );
        assert_eq!(a.concat(&b).arity(), 3);
    }

    #[test]
    fn byte_size_sums_values() {
        assert_eq!(sample().byte_size(), 8 + (4 + 2) + 8);
        assert_eq!(batch_bytes(&[sample(), sample()]), 2 * sample().byte_size());
    }

    #[test]
    fn index_access() {
        let r = sample();
        assert_eq!(r[1], Value::str("ok"));
        assert_eq!(r.get(0), &Value::Int(1));
    }
}
