//! The database: named tables, charged I/O, transactions, persistence.

use crate::table::{RowId, Schema, Table, TableError};
use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;
use xpl_simio::SimDevice;

/// Database-level errors.
#[derive(Debug, PartialEq, Eq)]
pub enum DbError {
    NoSuchTable(String),
    TableExists(String),
    Table(TableError),
    NoActiveTransaction,
    Corrupt(String),
}

impl From<TableError> for DbError {
    fn from(e: TableError) -> Self {
        DbError::Table(e)
    }
}

impl std::fmt::Display for DbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DbError::NoSuchTable(t) => write!(f, "no such table {t}"),
            DbError::TableExists(t) => write!(f, "table {t} already exists"),
            DbError::Table(e) => write!(f, "table error: {e:?}"),
            DbError::NoActiveTransaction => write!(f, "no active transaction"),
            DbError::Corrupt(why) => write!(f, "corrupt database image: {why}"),
        }
    }
}

impl std::error::Error for DbError {}

/// Undo-log entries for rollback.
enum Undo {
    Insert {
        table: String,
        id: RowId,
    },
    Update {
        table: String,
        id: RowId,
        old: Vec<Value>,
    },
    Delete {
        table: String,
        id: RowId,
        old: Vec<Value>,
    },
}

/// Serializable snapshot of the database (persistence format).
#[derive(Serialize, Deserialize)]
struct DbImage {
    tables: BTreeMap<String, Table>,
}

/// The embedded database.
pub struct Database {
    tables: BTreeMap<String, Table>,
    device: Option<Arc<SimDevice>>,
    undo: Vec<Undo>,
    in_tx: bool,
}

impl Database {
    /// In-memory database without cost charging (tests, tooling).
    pub fn new() -> Self {
        Database {
            tables: BTreeMap::new(),
            device: None,
            undo: Vec::new(),
            in_tx: false,
        }
    }

    /// Database whose row/blob traffic is charged to `device`.
    pub fn on_device(device: Arc<SimDevice>) -> Self {
        Database {
            tables: BTreeMap::new(),
            device: Some(device),
            undo: Vec::new(),
            in_tx: false,
        }
    }

    pub fn create_table(&mut self, schema: Schema) -> Result<(), DbError> {
        if self.tables.contains_key(&schema.name) {
            return Err(DbError::TableExists(schema.name));
        }
        self.tables.insert(schema.name.clone(), Table::new(schema));
        Ok(())
    }

    pub fn table(&self, name: &str) -> Result<&Table, DbError> {
        self.tables
            .get(name)
            .ok_or_else(|| DbError::NoSuchTable(name.to_string()))
    }

    fn table_mut(&mut self, name: &str) -> Result<&mut Table, DbError> {
        self.tables
            .get_mut(name)
            .ok_or_else(|| DbError::NoSuchTable(name.to_string()))
    }

    fn charge_write_row(&self, row: &[Value]) {
        if let Some(dev) = &self.device {
            dev.charge_db_write(1);
            let blob: u64 = row.iter().map(Value::payload_len).sum();
            if blob > 64 {
                // Payload beyond the row header moves through the device.
                dev.charge_write(blob);
            }
        }
    }

    fn charge_read_row(&self, row: &[Value]) {
        if let Some(dev) = &self.device {
            dev.charge_db_read(1);
            let blob: u64 = row.iter().map(Value::payload_len).sum();
            if blob > 64 {
                dev.charge_read(blob);
            }
        }
    }

    pub fn insert(&mut self, table: &str, row: Vec<Value>) -> Result<RowId, DbError> {
        self.charge_write_row(&row);
        let in_tx = self.in_tx;
        let id = self.table_mut(table)?.insert(row)?;
        if in_tx {
            self.undo.push(Undo::Insert {
                table: table.to_string(),
                id,
            });
        }
        Ok(id)
    }

    /// The row, by reference; charges a row read (plus its payload past
    /// the row header) or, for a missing row, the failed lookup.
    pub fn get(&self, table: &str, id: RowId) -> Result<Option<&[Value]>, DbError> {
        let row = self.table(table)?.get(id);
        if let Some(r) = row {
            self.charge_read_row(r);
        } else if let Some(dev) = &self.device {
            dev.charge_db_read(1);
        }
        Ok(row)
    }

    pub fn update(&mut self, table: &str, id: RowId, row: Vec<Value>) -> Result<(), DbError> {
        self.charge_write_row(&row);
        let in_tx = self.in_tx;
        let old = self.table_mut(table)?.update(id, row)?;
        if in_tx {
            self.undo.push(Undo::Update {
                table: table.to_string(),
                id,
                old,
            });
        }
        Ok(())
    }

    pub fn delete(&mut self, table: &str, id: RowId) -> Result<(), DbError> {
        if let Some(dev) = &self.device {
            dev.charge_db_write(1);
        }
        let in_tx = self.in_tx;
        let old = self.table_mut(table)?.delete(id)?;
        if in_tx {
            self.undo.push(Undo::Delete {
                table: table.to_string(),
                id,
                old,
            });
        }
        Ok(())
    }

    /// Index lookup; charges one row read per hit.
    pub fn find_by(&self, table: &str, column: &str, value: &Value) -> Result<Vec<RowId>, DbError> {
        let t = self.table(table)?;
        let ids = t.find_by(column, value)?;
        if let Some(dev) = &self.device {
            dev.charge_db_read(ids.len().max(1) as u64);
        }
        Ok(ids)
    }

    /// Begin a transaction (no nesting; idempotent begin is an error to
    /// catch logic bugs early).
    pub fn begin(&mut self) {
        assert!(!self.in_tx, "transaction already active");
        self.in_tx = true;
        self.undo.clear();
    }

    pub fn commit(&mut self) -> Result<(), DbError> {
        if !self.in_tx {
            return Err(DbError::NoActiveTransaction);
        }
        self.in_tx = false;
        self.undo.clear();
        if let Some(dev) = &self.device {
            dev.charge_fsync();
        }
        Ok(())
    }

    pub fn rollback(&mut self) -> Result<(), DbError> {
        if !self.in_tx {
            return Err(DbError::NoActiveTransaction);
        }
        self.in_tx = false;
        while let Some(u) = self.undo.pop() {
            match u {
                Undo::Insert { table, id } => {
                    if let Ok(t) = self.table_mut(&table) {
                        t.unput(id);
                    }
                }
                Undo::Update { table, id, old } | Undo::Delete { table, id, old } => {
                    if let Ok(t) = self.table_mut(&table) {
                        // For updates, restore overwrites; for deletes it
                        // reinserts — both via restore().
                        t.unput(id);
                        t.restore(id, old);
                    }
                }
            }
        }
        Ok(())
    }

    pub fn in_transaction(&self) -> bool {
        self.in_tx
    }

    /// Total payload bytes stored across all tables.
    pub fn payload_bytes(&self) -> u64 {
        self.tables.values().map(Table::payload_bytes).sum()
    }

    pub fn table_names(&self) -> Vec<&str> {
        self.tables.keys().map(String::as_str).collect()
    }

    /// Persist to a deterministic byte image.
    pub fn dump(&self) -> Vec<u8> {
        let image = DbImage {
            tables: self.tables.clone(),
        };
        // serde_json would be simpler but this is a binary format crate-
        // internally; use a compact hand-rolled encoding via serde +
        // JSON-in-bytes for robustness and determinism.
        serde_json::to_vec(&image).expect("db serialization cannot fail")
    }

    /// Load from [`Database::dump`] output.
    pub fn load(data: &[u8], device: Option<Arc<SimDevice>>) -> Result<Database, DbError> {
        let image: DbImage =
            serde_json::from_slice(data).map_err(|e| DbError::Corrupt(e.to_string()))?;
        let mut tables = image.tables;
        for t in tables.values_mut() {
            t.rebuild_indexes();
        }
        Ok(Database {
            tables,
            device,
            undo: Vec::new(),
            in_tx: false,
        })
    }
}

impl Default for Database {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::ColumnDef;
    use xpl_simio::SimEnv;

    fn db_with_table() -> Database {
        let mut db = Database::new();
        db.create_table(Schema::new(
            "pkg",
            vec![ColumnDef::indexed("name"), ColumnDef::plain("size")],
        ))
        .unwrap();
        db
    }

    #[test]
    fn create_and_duplicate_table() {
        let mut db = db_with_table();
        assert!(matches!(
            db.create_table(Schema::new("pkg", vec![])),
            Err(DbError::TableExists(_))
        ));
        assert_eq!(db.table_names(), vec!["pkg"]);
    }

    #[test]
    fn crud_cycle() {
        let mut db = db_with_table();
        let id = db
            .insert("pkg", vec!["redis".into(), 100u64.into()])
            .unwrap();
        assert_eq!(db.get("pkg", id).unwrap().unwrap()[0], "redis".into());
        db.update("pkg", id, vec!["redis".into(), 200u64.into()])
            .unwrap();
        assert_eq!(db.get("pkg", id).unwrap().unwrap()[1], Value::Int(200));
        db.delete("pkg", id).unwrap();
        assert_eq!(db.get("pkg", id).unwrap(), None);
    }

    #[test]
    fn rollback_undoes_everything() {
        let mut db = db_with_table();
        let keep = db.insert("pkg", vec!["keep".into(), 1u64.into()]).unwrap();
        db.begin();
        let tmp = db.insert("pkg", vec!["tmp".into(), 2u64.into()]).unwrap();
        db.update("pkg", keep, vec!["keep".into(), 99u64.into()])
            .unwrap();
        db.delete("pkg", keep).unwrap();
        db.rollback().unwrap();
        // Insert rolled back.
        assert_eq!(db.get("pkg", tmp).unwrap(), None);
        // Update + delete rolled back to the original row.
        let row = db.get("pkg", keep).unwrap().unwrap();
        assert_eq!(row[1], Value::Int(1));
        // Index consistent after rollback.
        assert_eq!(
            db.find_by("pkg", "name", &"keep".into()).unwrap(),
            vec![keep]
        );
        assert!(db.find_by("pkg", "name", &"tmp".into()).unwrap().is_empty());
    }

    #[test]
    fn commit_preserves_changes() {
        let mut db = db_with_table();
        db.begin();
        let id = db.insert("pkg", vec!["x".into(), 1u64.into()]).unwrap();
        db.commit().unwrap();
        assert!(db.get("pkg", id).unwrap().is_some());
        assert!(!db.in_transaction());
    }

    #[test]
    fn rollback_without_tx_errors() {
        let mut db = db_with_table();
        assert_eq!(db.rollback(), Err(DbError::NoActiveTransaction));
        assert_eq!(db.commit(), Err(DbError::NoActiveTransaction));
    }

    #[test]
    fn persistence_roundtrip() {
        let mut db = db_with_table();
        let id = db
            .insert("pkg", vec!["redis".into(), 42u64.into()])
            .unwrap();
        let bytes = db.dump();
        let back = Database::load(&bytes, None).unwrap();
        assert_eq!(back.get("pkg", id).unwrap().unwrap()[1], Value::Int(42));
        // Indexes rebuilt.
        assert_eq!(
            back.find_by("pkg", "name", &"redis".into()).unwrap(),
            vec![id]
        );
    }

    #[test]
    fn load_rejects_garbage() {
        assert!(matches!(
            Database::load(b"not a db", None),
            Err(DbError::Corrupt(_))
        ));
    }

    #[test]
    fn charged_operations_advance_clock() {
        let env = SimEnv::testbed();
        let mut db = Database::on_device(Arc::clone(&env.repo));
        db.create_table(Schema::new(
            "files",
            vec![ColumnDef::indexed("digest"), ColumnDef::plain("content")],
        ))
        .unwrap();
        let t0 = env.clock.now();
        db.insert("files", vec!["d".into(), vec![0u8; 4096].into()])
            .unwrap();
        assert!(
            env.clock.since(t0).as_nanos() > 0,
            "insert must charge time"
        );
        let t1 = env.clock.now();
        let ids = db.find_by("files", "digest", &"d".into()).unwrap();
        db.get("files", ids[0]).unwrap();
        assert!(env.clock.since(t1).as_nanos() > 0, "reads must charge time");
    }

    #[test]
    fn get_by_reference_charges_what_the_cloned_row_charged() {
        // A row at the 64-byte header limit and one past it. The model
        // issues by hand the charges of the `get` that returned a cloned
        // row: one row read, plus the payload when it passes the header.
        for len in [64usize, 65] {
            let (env, model) = (SimEnv::testbed(), SimEnv::testbed());
            let mut dbs = [&env, &model].map(|e| {
                let mut db = Database::on_device(Arc::clone(&e.repo));
                db.create_table(Schema::new("files", vec![ColumnDef::plain("content")]))
                    .unwrap();
                db
            });
            let ids = dbs
                .each_mut()
                .map(|db| db.insert("files", vec![vec![7u8; len].into()]).unwrap());
            let row = dbs[0].get("files", ids[0]).unwrap().unwrap();
            assert_eq!(row, &[Value::from(vec![7u8; len])][..]);
            model.repo.charge_db_read(1);
            if len > 64 {
                model.repo.charge_read(len as u64);
            }
            assert_eq!(env.repo.stats(), model.repo.stats(), "{len}-byte row");
            assert_eq!(env.clock.now(), model.clock.now(), "{len}-byte row");
        }
    }

    #[test]
    fn payload_bytes_accumulate() {
        let mut db = db_with_table();
        assert_eq!(db.payload_bytes(), 0);
        db.insert("pkg", vec!["abcd".into(), 1u64.into()]).unwrap();
        assert_eq!(db.payload_bytes(), 12); // 4 text + 8 int
    }
}
