//! Schema mapping: local production schema → shared global schema.
//!
//! Paper §4.1: the mapping has two parts — *metadata mappings* (local
//! table/column names to global ones) and *value mappings* (local terms
//! to global terms). BestPeer++ ships *templates* for popular production
//! systems (SAP, PeopleSoft) that businesses tweak instead of authoring
//! mappings from scratch, which "significantly reduces the service setup
//! efforts".

use std::collections::BTreeMap;

use bestpeer_common::{Error, Result, Row, TableSchema, Value};
use bestpeer_storage::Database;

/// Mapping for one local table onto one global table.
#[derive(Debug, Clone, PartialEq)]
pub struct TableMap {
    /// Table name in the production system.
    pub local_table: String,
    /// Target table in the global shared schema.
    pub global_table: String,
    /// `(local column, global column)` pairs. Global columns absent
    /// here are filled with NULL (multi-tenant peers may lack columns,
    /// paper footnote 4).
    pub columns: Vec<(String, String)>,
    /// Per-global-column value mappings: local term → global term.
    pub value_maps: BTreeMap<String, BTreeMap<Value, Value>>,
}

impl TableMap {
    /// A straight rename with positional column maps.
    pub fn new(local_table: impl Into<String>, global_table: impl Into<String>) -> Self {
        TableMap {
            local_table: local_table.into(),
            global_table: global_table.into(),
            columns: Vec::new(),
            value_maps: BTreeMap::new(),
        }
    }

    /// Map a local column onto a global column.
    pub fn column(mut self, local: impl Into<String>, global: impl Into<String>) -> Self {
        self.columns.push((local.into(), global.into()));
        self
    }

    /// Register a term translation for a global column.
    pub fn value_map(mut self, global_column: impl Into<String>, from: Value, to: Value) -> Self {
        self.value_maps
            .entry(global_column.into())
            .or_default()
            .insert(from, to);
        self
    }
}

/// The full mapping a peer applies during extraction.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SchemaMapping {
    /// One entry per exported local table.
    pub tables: Vec<TableMap>,
}

impl SchemaMapping {
    /// An empty mapping.
    pub fn new() -> Self {
        SchemaMapping::default()
    }

    /// The identity mapping for `schemas`: every local table *is* the
    /// global table (used by the performance benchmark, §6.1.4: "we set
    /// the local schema of each normal peer to be identical to the
    /// global schema ... the schema mapping is trivial").
    pub fn identity(schemas: &[TableSchema]) -> Self {
        SchemaMapping {
            tables: schemas
                .iter()
                .map(|s| {
                    let mut tm = TableMap::new(&s.name, &s.name);
                    for c in &s.columns {
                        tm = tm.column(&c.name, &c.name);
                    }
                    tm
                })
                .collect(),
        }
    }

    /// Add a table mapping.
    pub fn with_table(mut self, tm: TableMap) -> Self {
        self.tables.push(tm);
        self
    }

    /// Transform one local row of `local_table` into a global row laid
    /// out per `global_schema`. Unmapped global columns become NULL;
    /// value maps translate local terms.
    pub fn transform_row(
        &self,
        local_table: &str,
        local_schema: &TableSchema,
        global_schema: &TableSchema,
        row: &Row,
    ) -> Result<Row> {
        let tm = self
            .tables
            .iter()
            .find(|t| t.local_table == local_table)
            .ok_or_else(|| Error::Catalog(format!("no mapping for local table `{local_table}`")))?;
        let mut out = vec![Value::Null; global_schema.arity()];
        for (local_col, global_col) in &tm.columns {
            let li = local_schema.column_index(local_col)?;
            let gi = global_schema.column_index(global_col)?;
            let mut v = row.get(li).clone();
            if let Some(map) = tm.value_maps.get(global_col) {
                if let Some(translated) = map.get(&v) {
                    v = translated.clone();
                }
            }
            out[gi] = v;
        }
        Ok(Row::new(out))
    }

    /// Extract and transform every row of every mapped table from the
    /// production database, returning `(global table, rows)` pairs.
    pub fn extract_all(
        &self,
        production: &Database,
        global_schemas: &[TableSchema],
    ) -> Result<Vec<(String, Vec<Row>)>> {
        let mut out = Vec::new();
        for tm in &self.tables {
            let local = production.table(&tm.local_table)?;
            let global_schema = global_schemas
                .iter()
                .find(|s| s.name == tm.global_table)
                .ok_or_else(|| {
                    Error::Catalog(format!("global schema has no table `{}`", tm.global_table))
                })?;
            let rows: Vec<Row> = local
                .scan()
                .map(|r| self.transform_row(&tm.local_table, local.schema(), global_schema, r))
                .collect::<Result<_>>()?;
            out.push((tm.global_table.clone(), rows));
        }
        Ok(out)
    }
}

/// A template mapping for an SAP-style sales module onto the TPC-H-like
/// global schema: local `VBAP` (sales document item) → global
/// `lineitem`-ish naming. Businesses adjust the returned mapping rather
/// than writing one from scratch (paper §4.1).
pub fn template_sap_sales() -> SchemaMapping {
    SchemaMapping::new().with_table(
        TableMap::new("vbap", "lineitem")
            .column("vbeln", "l_orderkey")
            .column("posnr", "l_linenumber")
            .column("matnr", "l_partkey")
            .column("lifnr", "l_suppkey")
            .column("kwmeng", "l_quantity")
            .column("netwr", "l_extendedprice"),
    )
}

/// A template for a PeopleSoft-style purchasing module: local
/// `ps_po_line` → global `partsupp`-ish naming.
pub fn template_peoplesoft_purchasing() -> SchemaMapping {
    SchemaMapping::new().with_table(
        TableMap::new("ps_po_line", "partsupp")
            .column("inv_item_id", "ps_partkey")
            .column("vendor_id", "ps_suppkey")
            .column("qty_po", "ps_availqty")
            .column("merch_amt_bse", "ps_supplycost"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use bestpeer_common::{ColumnDef, ColumnType};

    fn local_schema() -> TableSchema {
        TableSchema::new(
            "erp_orders",
            vec![
                ColumnDef::new("order_no", ColumnType::Int),
                ColumnDef::new("status_code", ColumnType::Str),
                ColumnDef::new("amount", ColumnType::Float),
            ],
            vec![0],
        )
        .unwrap()
    }

    fn global_schema() -> TableSchema {
        TableSchema::new(
            "orders",
            vec![
                ColumnDef::new("o_orderkey", ColumnType::Int),
                ColumnDef::new("o_orderstatus", ColumnType::Str),
                ColumnDef::new("o_totalprice", ColumnType::Float),
                ColumnDef::new("o_comment", ColumnType::Str),
            ],
            vec![0],
        )
        .unwrap()
    }

    fn mapping() -> SchemaMapping {
        SchemaMapping::new().with_table(
            TableMap::new("erp_orders", "orders")
                .column("order_no", "o_orderkey")
                .column("status_code", "o_orderstatus")
                .column("amount", "o_totalprice")
                .value_map("o_orderstatus", Value::str("OPN"), Value::str("O"))
                .value_map("o_orderstatus", Value::str("FIN"), Value::str("F")),
        )
    }

    #[test]
    fn transforms_names_values_and_fills_nulls() {
        let m = mapping();
        let row = Row::new(vec![Value::Int(42), Value::str("OPN"), Value::Float(99.5)]);
        let out = m
            .transform_row("erp_orders", &local_schema(), &global_schema(), &row)
            .unwrap();
        assert_eq!(
            out,
            Row::new(vec![
                Value::Int(42),
                Value::str("O"), // term translated
                Value::Float(99.5),
                Value::Null, // unmapped global column
            ])
        );
    }

    #[test]
    fn unmapped_terms_pass_through() {
        let m = mapping();
        let row = Row::new(vec![Value::Int(1), Value::str("XXX"), Value::Float(1.0)]);
        let out = m
            .transform_row("erp_orders", &local_schema(), &global_schema(), &row)
            .unwrap();
        assert_eq!(out.get(1), &Value::str("XXX"));
    }

    #[test]
    fn extract_all_pulls_from_production() {
        let mut prod = Database::new();
        prod.create_table(local_schema()).unwrap();
        prod.insert(
            "erp_orders",
            Row::new(vec![Value::Int(1), Value::str("FIN"), Value::Float(10.0)]),
        )
        .unwrap();
        prod.insert(
            "erp_orders",
            Row::new(vec![Value::Int(2), Value::str("OPN"), Value::Float(20.0)]),
        )
        .unwrap();
        let m = mapping();
        let extracted = m.extract_all(&prod, &[global_schema()]).unwrap();
        assert_eq!(extracted.len(), 1);
        let (table, rows) = &extracted[0];
        assert_eq!(table, "orders");
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].get(1), &Value::str("F"));
    }

    #[test]
    fn identity_mapping_round_trips() {
        let gs = global_schema();
        let m = SchemaMapping::identity(std::slice::from_ref(&gs));
        let row = Row::new(vec![
            Value::Int(9),
            Value::str("O"),
            Value::Float(3.5),
            Value::str("hello"),
        ]);
        let out = m.transform_row("orders", &gs, &gs, &row).unwrap();
        assert_eq!(out, row);
    }

    #[test]
    fn missing_mapping_is_an_error() {
        let m = mapping();
        let row = Row::new(vec![Value::Int(1)]);
        assert!(m
            .transform_row("unknown", &local_schema(), &global_schema(), &row)
            .is_err());
    }

    #[test]
    fn templates_are_well_formed() {
        assert_eq!(template_sap_sales().tables[0].global_table, "lineitem");
        assert_eq!(
            template_peoplesoft_purchasing().tables[0].global_table,
            "partsupp"
        );
        // Tweaking a template: drop a column, add another.
        let mut t = template_sap_sales();
        t.tables[0].columns.retain(|(l, _)| l != "netwr");
        assert!(t.tables[0].columns.iter().all(|(l, _)| l != "netwr"));
    }
}
