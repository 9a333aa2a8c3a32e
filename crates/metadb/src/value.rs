//! Database cell values.

/// A typed cell. Ordering across variants is total (`Null < Int < Text <
//  Blob`) so any value can key a secondary index.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Value {
    Null,
    Int(i64),
    Text(String),
    Blob(Vec<u8>),
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::Int(v as i64)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v)
    }
}

impl From<Vec<u8>> for Value {
    fn from(v: Vec<u8>) -> Self {
        Value::Blob(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_variant_ordering_total() {
        let mut vals = vec![
            Value::Blob(vec![0]),
            Value::Text("a".into()),
            Value::Int(3),
            Value::Null,
        ];
        vals.sort();
        assert_eq!(
            vals,
            vec![
                Value::Null,
                Value::Int(3),
                Value::Text("a".into()),
                Value::Blob(vec![0]),
            ]
        );
    }
}
