//! The database: named tables and transactions.

use crate::table::{RowId, Schema, Table, TableError};
use crate::value::Value;
use std::collections::BTreeMap;

/// Database-level errors.
#[derive(Debug, PartialEq, Eq)]
pub enum DbError {
    NoSuchTable(String),
    TableExists(String),
    Table(TableError),
    NoActiveTransaction,
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
    Delete {
        table: String,
        id: RowId,
        old: Vec<Value>,
    },
}

/// The embedded database (in memory, uncharged).
pub struct Database {
    tables: BTreeMap<String, Table>,
    undo: Vec<Undo>,
    in_tx: bool,
}

impl Database {
    pub fn new() -> Self {
        Database {
            tables: BTreeMap::new(),
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

    fn table(&self, name: &str) -> Result<&Table, DbError> {
        self.tables
            .get(name)
            .ok_or_else(|| DbError::NoSuchTable(name.to_string()))
    }

    fn table_mut(&mut self, name: &str) -> Result<&mut Table, DbError> {
        self.tables
            .get_mut(name)
            .ok_or_else(|| DbError::NoSuchTable(name.to_string()))
    }

    pub fn insert(&mut self, table: &str, row: Vec<Value>) -> Result<RowId, DbError> {
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

    /// The row, by reference.
    pub fn get(&self, table: &str, id: RowId) -> Result<Option<&[Value]>, DbError> {
        Ok(self.table(table)?.get(id))
    }

    pub fn delete(&mut self, table: &str, id: RowId) -> Result<(), DbError> {
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

    /// Index lookup.
    pub fn find_by(&self, table: &str, column: &str, value: &Value) -> Result<Vec<RowId>, DbError> {
        Ok(self.table(table)?.find_by(column, value)?)
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
                Undo::Delete { table, id, old } => {
                    if let Ok(t) = self.table_mut(&table) {
                        t.restore(id, old);
                    }
                }
            }
        }
        Ok(())
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
    }

    #[test]
    fn crud_cycle() {
        let mut db = db_with_table();
        let id = db
            .insert("pkg", vec!["redis".into(), 100u64.into()])
            .unwrap();
        assert_eq!(db.get("pkg", id).unwrap().unwrap()[0], "redis".into());
        db.delete("pkg", id).unwrap();
        assert_eq!(db.get("pkg", id).unwrap(), None);
    }

    #[test]
    fn rollback_undoes_everything() {
        let mut db = db_with_table();
        let keep = db.insert("pkg", vec!["keep".into(), 1u64.into()]).unwrap();
        db.begin();
        let tmp = db.insert("pkg", vec!["tmp".into(), 2u64.into()]).unwrap();
        db.delete("pkg", keep).unwrap();
        db.rollback().unwrap();
        // Insert rolled back.
        assert_eq!(db.get("pkg", tmp).unwrap(), None);
        // Delete rolled back to the original row.
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
        // The transaction is closed.
        assert_eq!(db.commit(), Err(DbError::NoActiveTransaction));
    }

    #[test]
    fn rollback_without_tx_errors() {
        let mut db = db_with_table();
        assert_eq!(db.rollback(), Err(DbError::NoActiveTransaction));
        assert_eq!(db.commit(), Err(DbError::NoActiveTransaction));
    }
}
