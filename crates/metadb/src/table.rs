//! Tables, schemas and secondary indexes.

use crate::value::Value;
use std::collections::BTreeMap;

/// Row identifier (monotonic per table, never reused).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RowId(pub u64);

/// A column definition.
#[derive(Clone, Debug)]
pub struct ColumnDef {
    pub name: String,
    /// Maintain a secondary index on this column.
    pub indexed: bool,
}

impl ColumnDef {
    pub fn plain(name: &str) -> Self {
        ColumnDef {
            name: name.to_string(),
            indexed: false,
        }
    }

    pub fn indexed(name: &str) -> Self {
        ColumnDef {
            name: name.to_string(),
            indexed: true,
        }
    }
}

/// Table schema.
#[derive(Clone, Debug)]
pub struct Schema {
    pub name: String,
    pub columns: Vec<ColumnDef>,
}

impl Schema {
    pub fn new(name: &str, columns: Vec<ColumnDef>) -> Self {
        Schema {
            name: name.to_string(),
            columns,
        }
    }

    pub(crate) fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }
}

/// Table errors.
#[derive(Debug, PartialEq, Eq)]
pub enum TableError {
    WrongArity { expected: usize, got: usize },
    NoSuchColumn(String),
    NoSuchRow(RowId),
    ColumnNotIndexed(String),
}

/// One table: rows + secondary indexes.
pub(crate) struct Table {
    schema: Schema,
    next_id: u64,
    rows: BTreeMap<RowId, Vec<Value>>,
    /// column index → (value → row ids).
    indexes: Vec<Option<BTreeMap<Value, Vec<RowId>>>>,
}

impl Table {
    pub fn new(schema: Schema) -> Self {
        let indexes = schema
            .columns
            .iter()
            .map(|c| c.indexed.then(BTreeMap::new))
            .collect();
        Table {
            schema,
            next_id: 0,
            rows: BTreeMap::new(),
            indexes,
        }
    }

    fn index_row(&mut self, id: RowId, row: &[Value]) {
        for (col, ix) in self.indexes.iter_mut().enumerate() {
            if let Some(ix) = ix {
                ix.entry(row[col].clone()).or_default().push(id);
            }
        }
    }

    fn unindex_row(&mut self, id: RowId, row: &[Value]) {
        for (col, ix) in self.indexes.iter_mut().enumerate() {
            if let Some(ix) = ix {
                if let Some(ids) = ix.get_mut(&row[col]) {
                    ids.retain(|&r| r != id);
                    if ids.is_empty() {
                        ix.remove(&row[col]);
                    }
                }
            }
        }
    }

    pub(crate) fn insert(&mut self, row: Vec<Value>) -> Result<RowId, TableError> {
        if row.len() != self.schema.columns.len() {
            return Err(TableError::WrongArity {
                expected: self.schema.columns.len(),
                got: row.len(),
            });
        }
        let id = RowId(self.next_id);
        self.next_id += 1;
        self.index_row(id, &row);
        self.rows.insert(id, row);
        Ok(id)
    }

    pub fn get(&self, id: RowId) -> Option<&[Value]> {
        self.rows.get(&id).map(Vec::as_slice)
    }

    pub(crate) fn delete(&mut self, id: RowId) -> Result<Vec<Value>, TableError> {
        let old = self.rows.remove(&id).ok_or(TableError::NoSuchRow(id))?;
        self.unindex_row(id, &old);
        Ok(old)
    }

    /// Exact-match lookup through a secondary index.
    pub(crate) fn find_by(&self, column: &str, value: &Value) -> Result<Vec<RowId>, TableError> {
        let col = self
            .schema
            .column_index(column)
            .ok_or_else(|| TableError::NoSuchColumn(column.to_string()))?;
        match &self.indexes[col] {
            Some(ix) => Ok(ix.get(value).cloned().unwrap_or_default()),
            None => Err(TableError::ColumnNotIndexed(column.to_string())),
        }
    }

    /// Restore a deleted row under its id (transaction rollback path).
    pub(crate) fn restore(&mut self, id: RowId, row: Vec<Value>) {
        self.index_row(id, &row);
        self.rows.insert(id, row);
    }

    /// Remove a row without returning it (rollback of an insert).
    pub(crate) fn unput(&mut self, id: RowId) {
        if let Some(old) = self.rows.remove(&id) {
            self.unindex_row(id, &old);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn files_table() -> Table {
        Table::new(Schema::new(
            "files",
            vec![
                ColumnDef::indexed("digest"),
                ColumnDef::plain("size"),
                ColumnDef::plain("content"),
            ],
        ))
    }

    #[test]
    fn insert_get() {
        let mut t = files_table();
        let id = t
            .insert(vec!["abc".into(), Value::Int(3), vec![1u8, 2, 3].into()])
            .unwrap();
        assert_eq!(t.get(id).unwrap()[1], Value::Int(3));
    }

    #[test]
    fn arity_enforced() {
        let mut t = files_table();
        assert_eq!(
            t.insert(vec!["x".into()]),
            Err(TableError::WrongArity {
                expected: 3,
                got: 1
            })
        );
    }

    #[test]
    fn index_lookup() {
        let mut t = files_table();
        let a = t
            .insert(vec!["d1".into(), 1u64.into(), Value::Null])
            .unwrap();
        let b = t
            .insert(vec!["d2".into(), 2u64.into(), Value::Null])
            .unwrap();
        let c = t
            .insert(vec!["d1".into(), 3u64.into(), Value::Null])
            .unwrap();
        assert_eq!(t.find_by("digest", &"d1".into()).unwrap(), vec![a, c]);
        assert_eq!(t.find_by("digest", &"d2".into()).unwrap(), vec![b]);
        assert!(t.find_by("digest", &"d9".into()).unwrap().is_empty());
        assert!(matches!(
            t.find_by("size", &Value::Int(1)),
            Err(TableError::ColumnNotIndexed(_))
        ));
    }

    #[test]
    fn delete_cleans_index() {
        let mut t = files_table();
        let id = t
            .insert(vec!["d".into(), 1u64.into(), Value::Null])
            .unwrap();
        t.delete(id).unwrap();
        assert!(t.find_by("digest", &"d".into()).unwrap().is_empty());
        assert_eq!(t.delete(id), Err(TableError::NoSuchRow(id)));
    }

    #[test]
    fn row_ids_not_reused_after_delete() {
        let mut t = files_table();
        let a = t
            .insert(vec!["a".into(), 1u64.into(), Value::Null])
            .unwrap();
        t.delete(a).unwrap();
        let b = t
            .insert(vec!["b".into(), 2u64.into(), Value::Null])
            .unwrap();
        assert!(b.0 > a.0);
    }
}
