//! Distributed role-based access control (paper §4.4).
//!
//! Definition 1: a role is a set of triples `(column, privileges,
//! range-condition)`. The service provider defines a standard role set
//! when the corporate network is created; local administrators assign
//! roles to users or derive new roles with three operators — inherit
//! (`‘`), minus (`−`), and plus (`+`).
//!
//! Enforcement happens at the *data owner*: "the peer, upon receiving
//! the request, will transform it based on the user's access role. The
//! data that cannot be accessed will not be returned" — a column the
//! role cannot read comes back as NULL, and a readable column with a
//! range condition returns NULL outside the range.

use bestpeer_common::codec::{self, finish, get_count, get_str, get_u8, put_str};
use bestpeer_common::{Error, Result, Row, Value};

/// What a rule permits on its column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Privilege {
    /// May read values.
    pub read: bool,
    /// May write values (the loader path; queries are read-only).
    pub write: bool,
}

impl Privilege {
    /// Read-only access.
    pub const READ: Privilege = Privilege {
        read: true,
        write: false,
    };
    /// Read-write access.
    pub const READ_WRITE: Privilege = Privilege {
        read: true,
        write: true,
    };
}

/// One access rule `(c_i, p_j, d)` of Definition 1.
#[derive(Debug, Clone, PartialEq)]
pub struct AccessRule {
    /// Global table name.
    pub table: String,
    /// Column within the table.
    pub column: String,
    /// Granted privileges.
    pub privileges: Privilege,
    /// Optional inclusive value range the privilege is limited to
    /// (`None` = all values). The paper's example grants read/write on
    /// `lineitem.extendedprice` only within `[0, 100]`.
    pub range: Option<(Value, Value)>,
}

impl AccessRule {
    /// A read rule over the whole column.
    pub fn read(table: impl Into<String>, column: impl Into<String>) -> Self {
        AccessRule {
            table: table.into(),
            column: column.into(),
            privileges: Privilege::READ,
            range: None,
        }
    }

    /// Restrict this rule to an inclusive value range.
    pub fn with_range(mut self, lo: Value, hi: Value) -> Self {
        self.range = Some((lo, hi));
        self
    }

    /// Grant write as well.
    pub fn read_write(mut self) -> Self {
        self.privileges = Privilege::READ_WRITE;
        self
    }

    fn admits(&self, v: &Value) -> bool {
        match &self.range {
            None => true,
            Some((lo, hi)) => v >= lo && v <= hi,
        }
    }
}

/// A named role: a set of access rules.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Role {
    /// Role name (unique network-wide; defined at the bootstrap peer).
    pub name: String,
    /// The rules.
    pub rules: Vec<AccessRule>,
}

impl Role {
    /// An empty role.
    pub fn new(name: impl Into<String>) -> Self {
        Role {
            name: name.into(),
            rules: Vec::new(),
        }
    }

    /// A role granting full read access to every column of `tables`
    /// (the performance benchmark's unique role `R`, §6.1.4).
    pub fn full_read(name: impl Into<String>, tables: &[(&str, &[&str])]) -> Self {
        let mut role = Role::new(name);
        for (t, cols) in tables {
            for c in *cols {
                role.rules.push(AccessRule::read(*t, *c));
            }
        }
        role
    }

    /// The inherit operator `Role_i ‘ Role_j`: a new role with all of
    /// this role's privileges.
    pub fn inherit(&self, name: impl Into<String>) -> Role {
        Role {
            name: name.into(),
            rules: self.rules.clone(),
        }
    }

    /// The `+` operator: this role plus one extra rule.
    pub fn plus(mut self, rule: AccessRule) -> Role {
        self.rules.push(rule);
        self
    }

    /// The `−` operator: this role minus the exactly-matching rule.
    /// Errors when the rule is not present (removing a privilege the
    /// role never had is almost certainly an administrator mistake).
    pub fn minus(mut self, rule: &AccessRule) -> Result<Role> {
        let before = self.rules.len();
        self.rules.retain(|r| r != rule);
        if self.rules.len() == before {
            return Err(Error::AccessDenied(format!(
                "role `{}` has no rule on {}.{} to remove",
                self.name, rule.table, rule.column
            )));
        }
        Ok(self)
    }

    /// All rules covering `table.column` that grant `read`.
    fn read_rules<'a>(
        &'a self,
        table: &'a str,
        column: &'a str,
    ) -> impl Iterator<Item = &'a AccessRule> + 'a {
        self.rules
            .iter()
            .filter(move |r| r.table == table && r.column == column && r.privileges.read)
    }

    /// May the role read any value of `table.column`?
    pub fn can_read(&self, table: &str, column: &str) -> bool {
        self.read_rules(table, column).next().is_some()
    }

    /// May the role write `table.column`?
    pub fn can_write(&self, table: &str, column: &str) -> bool {
        self.rules
            .iter()
            .any(|r| r.table == table && r.column == column && r.privileges.write)
    }

    /// Encode this role for the wire. Subqueries shipped to remote
    /// nodes carry the submitter's role so the data owner can enforce
    /// it (enforcement always happens at the owner); the transport
    /// layer treats the bytes as opaque. Layout (little-endian):
    /// name, `u32` rule count, then per rule: table, column, one
    /// privilege byte (`read | write << 1`), and an optional-range tag
    /// followed by the two bound values.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64);
        put_str(&mut buf, &self.name);
        buf.extend_from_slice(&(self.rules.len() as u32).to_le_bytes());
        for rule in &self.rules {
            put_str(&mut buf, &rule.table);
            put_str(&mut buf, &rule.column);
            buf.push(u8::from(rule.privileges.read) | (u8::from(rule.privileges.write) << 1));
            match &rule.range {
                None => buf.push(0),
                Some((lo, hi)) => {
                    buf.push(1);
                    codec::encode_value(&mut buf, lo);
                    codec::encode_value(&mut buf, hi);
                }
            }
        }
        buf
    }

    /// Decode a role encoded by [`Role::encode`]. Counts and lengths
    /// are checked against the bytes left before allocation — role
    /// blobs arrive over untrusted sockets.
    pub fn decode(payload: &[u8]) -> Result<Role> {
        let mut buf = payload;
        let name = get_str(&mut buf)?;
        // A rule is at least 2 × 4 name-length bytes + 2 tag bytes.
        let n = get_count(&mut buf, 10)?;
        let mut rules = Vec::with_capacity(n);
        for _ in 0..n {
            let table = get_str(&mut buf)?;
            let column = get_str(&mut buf)?;
            let priv_bits = get_u8(&mut buf)?;
            let privileges = Privilege {
                read: priv_bits & 1 != 0,
                write: priv_bits & 2 != 0,
            };
            let range = match get_u8(&mut buf)? {
                0 => None,
                1 => Some((
                    codec::decode_value(&mut buf)?,
                    codec::decode_value(&mut buf)?,
                )),
                other => {
                    return Err(Error::Codec(format!("unknown role range tag {other}")));
                }
            };
            rules.push(AccessRule {
                table,
                column,
                privileges,
                range,
            });
        }
        finish(buf, "role")?;
        Ok(Role { name, rules })
    }

    /// Mask fetched rows in place per this role. `columns` lists, for
    /// each output position to mask, the `(table, column)` it carries;
    /// other positions pass through. Each column's read rules are
    /// sorted once: an open column (some rule has no range) is never
    /// touched, a denied column (no read rule) becomes NULL, and a
    /// ranged column keeps a value only inside some rule's range.
    pub fn mask_rows<'a>(
        &self,
        columns: impl IntoIterator<Item = (usize, &'a str, &'a str)>,
        rows: &mut [Row],
    ) {
        // `None` denies the column; `Some(rules)` admits their ranges.
        let mut masked: Vec<(usize, Option<Vec<&AccessRule>>)> = Vec::new();
        for (i, table, column) in columns {
            let rules: Vec<&AccessRule> = self.read_rules(table, column).collect();
            if rules.is_empty() {
                masked.push((i, None));
            } else if rules.iter().all(|r| r.range.is_some()) {
                masked.push((i, Some(rules)));
            }
        }
        if masked.is_empty() {
            return;
        }
        for row in rows {
            let values = row.values_mut();
            for (i, rules) in &masked {
                let admitted = rules
                    .as_ref()
                    .is_some_and(|rules| rules.iter().any(|r| r.admits(&values[*i])));
                if !admitted {
                    values[*i] = Value::Null;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's example: Role_sales = {(lineitem.extendedprice,
    /// read∧write, [0,100]), (lineitem.shipdate, read, null)}.
    fn role_sales() -> Role {
        Role::new("sales")
            .plus(
                AccessRule::read("lineitem", "l_extendedprice")
                    .read_write()
                    .with_range(Value::Float(0.0), Value::Float(100.0)),
            )
            .plus(AccessRule::read("lineitem", "l_shipdate"))
    }

    #[test]
    fn paper_example_semantics() {
        let r = role_sales();
        assert!(r.can_read("lineitem", "l_shipdate"));
        assert!(!r.can_write("lineitem", "l_shipdate"));
        assert!(r.can_write("lineitem", "l_extendedprice"));
        assert!(!r.can_read("lineitem", "l_quantity"));
        // In-range value passes; out-of-range masked.
        assert_eq!(
            mask_one(&r, "lineitem", "l_extendedprice", Value::Float(50.0)),
            Value::Float(50.0)
        );
        assert_eq!(
            mask_one(&r, "lineitem", "l_extendedprice", Value::Float(250.0)),
            Value::Null
        );
    }

    /// What `role` lets through of `v`, read from `table.column`.
    fn mask_one(role: &Role, table: &str, column: &str, v: Value) -> Value {
        let mut rows = [Row::new(vec![v])];
        role.mask_rows([(0, table, column)], &mut rows);
        rows[0].get(0).clone()
    }

    #[test]
    fn mask_rows_masks_inaccessible_columns() {
        let r = role_sales();
        let columns = [
            (0, "lineitem", "l_extendedprice"),
            (1, "lineitem", "l_shipdate"),
            (2, "lineitem", "l_quantity"),
        ];
        let mut rows = vec![
            Row::new(vec![Value::Float(50.0), Value::Date(100), Value::Int(7)]),
            Row::new(vec![Value::Float(500.0), Value::Date(200), Value::Int(9)]),
        ];
        r.mask_rows(columns, &mut rows);
        assert_eq!(rows[0].get(0), &Value::Float(50.0));
        assert_eq!(rows[0].get(2), &Value::Null, "no rule on l_quantity");
        assert_eq!(rows[1].get(0), &Value::Null, "500 outside [0,100]");
        assert_eq!(rows[1].get(1), &Value::Date(200), "shipdate fully readable");
    }

    #[test]
    fn mask_rows_touches_only_the_listed_positions() {
        let r = role_sales();
        // Position 1 is not listed, so it passes through unmasked.
        let mut rows = vec![Row::new(vec![
            Value::Int(7),
            Value::Int(8),
            Value::Float(500.0),
        ])];
        r.mask_rows(
            [
                (0, "lineitem", "l_quantity"),
                (2, "lineitem", "l_extendedprice"),
            ],
            &mut rows,
        );
        assert_eq!(
            rows[0],
            Row::new(vec![Value::Null, Value::Int(8), Value::Null])
        );
    }

    #[test]
    fn inherit_plus_minus() {
        let base = role_sales();
        let derived = base.inherit("sales-jr");
        assert_eq!(derived.rules, base.rules);
        assert_eq!(derived.name, "sales-jr");

        let widened = derived
            .clone()
            .plus(AccessRule::read("lineitem", "l_quantity"));
        assert!(widened.can_read("lineitem", "l_quantity"));

        let shipdate_rule = AccessRule::read("lineitem", "l_shipdate");
        let narrowed = widened.minus(&shipdate_rule).unwrap();
        assert!(!narrowed.can_read("lineitem", "l_shipdate"));

        // Removing a rule that is not present is an error.
        assert!(derived
            .minus(&AccessRule::read("orders", "o_orderkey"))
            .is_err());
    }

    #[test]
    fn full_read_role_covers_tables() {
        let r = Role::full_read("R", &[("nation", &["n_nationkey", "n_name"])]);
        assert!(r.can_read("nation", "n_name"));
        assert!(!r.can_write("nation", "n_name"));
        assert!(!r.can_read("region", "r_name"));
    }

    #[test]
    fn role_encoding_round_trips() {
        for role in [
            Role::new("empty"),
            role_sales(),
            Role::full_read("R", &[("nation", &["n_nationkey", "n_name"])]),
        ] {
            let encoded = role.encode();
            assert_eq!(Role::decode(&encoded).unwrap(), role, "{}", role.name);
            for cut in 0..encoded.len() {
                assert!(Role::decode(&encoded[..cut]).is_err(), "cut {cut}");
            }
        }
        // Hostile rule count fails before allocation.
        let mut hostile = Role::new("x").encode();
        let len = hostile.len();
        hostile[len - 4..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(Role::decode(&hostile).is_err());
    }

    #[test]
    fn overlapping_ranged_rules_union() {
        let r = Role::new("u")
            .plus(AccessRule::read("t", "c").with_range(Value::Int(0), Value::Int(10)))
            .plus(AccessRule::read("t", "c").with_range(Value::Int(100), Value::Int(110)));
        assert_eq!(mask_one(&r, "t", "c", Value::Int(5)), Value::Int(5));
        assert_eq!(mask_one(&r, "t", "c", Value::Int(105)), Value::Int(105));
        assert_eq!(mask_one(&r, "t", "c", Value::Int(50)), Value::Null);
    }
}
