//! `xpl-metadb` — an embedded, typed-row metadata database.
//!
//! Stand-in for the SQLite engine the paper uses for VMI metadata: named
//! tables with typed columns, optional secondary indexes and
//! rollback-capable transactions (undo log), all in memory and
//! uncharged. No store runs on it any more. The Expelliarmus repository's
//! catalog is its metadata, and Hemera keeps its small files in a table of
//! its own; both charge their row I/O to the repository device
//! themselves. What is left serves the `metadb.insert_us` probe of
//! `benchmark/` and the rollback property test.
//!
//! The API is deliberately small and typed rather than SQL-stringly: every
//! use is a point query or index scan.

pub mod db;
pub mod table;
pub mod value;

pub use db::{Database, DbError};
pub use table::{ColumnDef, RowId, Schema};
pub use value::Value;
