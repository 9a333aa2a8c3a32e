//! Offline stand-in for `serde` (the container cannot reach crates.io).
//!
//! Exposes the same *surface* the workspace uses — `use serde::{Serialize,
//! Deserialize}` plus `#[derive(Serialize, Deserialize)]` with
//! `#[serde(skip)]` — backed by a small in-tree JSON value model instead of
//! serde's visitor architecture. The companion `serde_json` shim provides
//! `to_vec` / `from_slice` / `to_string_pretty` over these traits, so
//! pretty result dumps (`repro`) and JSON read back (`benchmark/`) work
//! for real. Swapping in the genuine crates later only requires flipping
//! the path dependencies back to registry versions.

pub use serde_derive::{Deserialize, Serialize};

/// The JSON-ish value every [`Serialize`] type lowers to.
///
/// Integers keep a signed/unsigned split so `u64` digests and counters
/// round-trip losslessly (no detour through `f64`).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Int(i64),
    UInt(u64),
    Float(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::UInt(u) => Some(*u as f64),
            Json::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Object field lookup (`None` for non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    fn kind(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Int(_) | Json::UInt(_) | Json::Float(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }
}

/// Error type shared by deserialization and the `serde_json` facade.
#[derive(Clone, Debug, PartialEq)]
pub struct JsonError(pub String);

impl JsonError {
    pub fn expected(what: &str, ctx: &str) -> JsonError {
        JsonError(format!("expected {what} while decoding {ctx}"))
    }
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for JsonError {}

/// A type that can lower itself to a [`Json`] value.
pub trait Serialize {
    fn to_json(&self) -> Json;
}

/// A type that can rebuild itself from a [`Json`] value.
pub trait Deserialize: Sized {
    fn from_json(v: &Json) -> Result<Self, JsonError>;
}

// Identity impls so callers can (de)serialize into the dynamic value
// itself — the shim equivalent of `serde_json::Value`.
impl Serialize for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl Deserialize for Json {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(v.clone())
    }
}

/// Helper used by derived code: fetch + decode one struct field.
pub fn field<T: Deserialize>(
    obj: &[(String, Json)],
    name: &str,
    ctx: &str,
) -> Result<T, JsonError> {
    match obj.iter().find(|(k, _)| k == name) {
        Some((_, v)) => T::from_json(v),
        None => Err(JsonError(format!("missing field `{name}` in {ctx}"))),
    }
}

// ------------------------------------------------------------------ numbers

fn int_out_of_range(ty: &str) -> JsonError {
    JsonError(format!("integer out of range for {ty}"))
}

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_json(&self) -> Json { Json::Int(*self as i64) }
        }
        impl Deserialize for $t {
            fn from_json(v: &Json) -> Result<Self, JsonError> {
                match v {
                    Json::Int(n) => <$t>::try_from(*n)
                        .map_err(|_| int_out_of_range(stringify!($t))),
                    Json::UInt(n) => <$t>::try_from(*n)
                        .map_err(|_| int_out_of_range(stringify!($t))),
                    other => Err(JsonError::expected("integer", other.kind())),
                }
            }
        }
    )*};
}
macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_json(&self) -> Json { Json::UInt(*self as u64) }
        }
        impl Deserialize for $t {
            fn from_json(v: &Json) -> Result<Self, JsonError> {
                match v {
                    Json::UInt(n) => <$t>::try_from(*n)
                        .map_err(|_| int_out_of_range(stringify!($t))),
                    Json::Int(n) => <$t>::try_from(*n)
                        .map_err(|_| int_out_of_range(stringify!($t))),
                    other => Err(JsonError::expected("integer", other.kind())),
                }
            }
        }
    )*};
}
impl_signed!(i8, i16, i32, i64, isize);
impl_unsigned!(u8, u16, u32, u64, usize);

macro_rules! impl_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_json(&self) -> Json { Json::Float(*self as f64) }
        }
        impl Deserialize for $t {
            fn from_json(v: &Json) -> Result<Self, JsonError> {
                match v {
                    Json::Float(f) => Ok(*f as $t),
                    Json::Int(n) => Ok(*n as $t),
                    Json::UInt(n) => Ok(*n as $t),
                    other => Err(JsonError::expected("number", other.kind())),
                }
            }
        }
    )*};
}
impl_float!(f32, f64);

// ------------------------------------------------------------- scalars etc.

impl Serialize for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}
impl Deserialize for bool {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Bool(b) => Ok(*b),
            other => Err(JsonError::expected("bool", other.kind())),
        }
    }
}

impl Serialize for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}
impl Deserialize for String {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Str(s) => Ok(s.clone()),
            other => Err(JsonError::expected("string", other.kind())),
        }
    }
}

impl Serialize for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl Serialize for char {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}
impl Deserialize for char {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Str(s) if s.chars().count() == 1 => Ok(s.chars().next().unwrap()),
            other => Err(JsonError::expected("single-char string", other.kind())),
        }
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}
impl<T: Deserialize> Deserialize for Option<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Null => Ok(None),
            other => Ok(Some(T::from_json(other)?)),
        }
    }
}

impl<T: Serialize> Serialize for Box<T> {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}
impl<T: Deserialize> Deserialize for Box<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(Box::new(T::from_json(v)?))
    }
}

// --------------------------------------------------------------- sequences

impl<T: Serialize> Serialize for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(Serialize::to_json).collect())
    }
}
impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Arr(items) => items.iter().map(T::from_json).collect(),
            other => Err(JsonError::expected("array", other.kind())),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(Serialize::to_json).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(Serialize::to_json).collect())
    }
}
impl<T: Deserialize + std::fmt::Debug, const N: usize> Deserialize for [T; N] {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let items: Vec<T> = Deserialize::from_json(v)?;
        <[T; N]>::try_from(items).map_err(|_| JsonError(format!("expected array of length {N}")))
    }
}

macro_rules! impl_tuple {
    ($(($($n:tt $t:ident),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_json(&self) -> Json {
                Json::Arr(vec![$(self.$n.to_json()),+])
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn from_json(v: &Json) -> Result<Self, JsonError> {
                const LEN: usize = 0 $(+ { let _ = $n; 1 })+;
                let items = v
                    .as_arr()
                    .ok_or_else(|| JsonError::expected("array", v.kind()))?;
                if items.len() != LEN {
                    return Err(JsonError(format!(
                        "expected {LEN}-tuple, got array of {}",
                        items.len()
                    )));
                }
                Ok(($($t::from_json(&items[$n])?,)+))
            }
        }
    )*};
}
impl_tuple! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
    (0 A, 1 B, 2 C, 3 D, 4 E)
}

// -------------------------------------------------------------------- maps

// Maps serialize uniformly as arrays of `[key, value]` pairs so non-string
// keys (e.g. `BTreeMap<Value, …>`) need no special casing; only the in-tree
// `serde_json` consumes this encoding, so object-key compatibility with
// real JSON consumers is not a goal at this stage.
impl<K: Serialize, V: Serialize> Serialize for std::collections::BTreeMap<K, V> {
    fn to_json(&self) -> Json {
        Json::Arr(
            self.iter()
                .map(|(k, v)| Json::Arr(vec![k.to_json(), v.to_json()]))
                .collect(),
        )
    }
}
impl<K: Deserialize + Ord, V: Deserialize> Deserialize for std::collections::BTreeMap<K, V> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let items = v
            .as_arr()
            .ok_or_else(|| JsonError::expected("array of pairs", v.kind()))?;
        items.iter().map(<(K, V)>::from_json).collect()
    }
}

impl<K: Serialize, V: Serialize, S> Serialize for std::collections::HashMap<K, V, S> {
    fn to_json(&self) -> Json {
        Json::Arr(
            self.iter()
                .map(|(k, v)| Json::Arr(vec![k.to_json(), v.to_json()]))
                .collect(),
        )
    }
}
impl<K, V, S> Deserialize for std::collections::HashMap<K, V, S>
where
    K: Deserialize + Eq + std::hash::Hash,
    V: Deserialize,
    S: std::hash::BuildHasher + Default,
{
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let items = v
            .as_arr()
            .ok_or_else(|| JsonError::expected("array of pairs", v.kind()))?;
        items.iter().map(<(K, V)>::from_json).collect()
    }
}

impl<T: Serialize + Ord> Serialize for std::collections::BTreeSet<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(Serialize::to_json).collect())
    }
}
impl<T: Deserialize + Ord> Deserialize for std::collections::BTreeSet<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let items = v
            .as_arr()
            .ok_or_else(|| JsonError::expected("array", v.kind()))?;
        items.iter().map(T::from_json).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn scalar_roundtrip() {
        assert_eq!(u64::from_json(&(42u64).to_json()).unwrap(), 42);
        assert_eq!(i64::from_json(&(-7i64).to_json()).unwrap(), -7);
        assert_eq!(
            String::from_json(&"hi".to_string().to_json()).unwrap(),
            "hi"
        );
        assert_eq!(
            Option::<u32>::from_json(&None::<u32>.to_json()).unwrap(),
            None
        );
    }

    #[test]
    fn map_roundtrip_nonstring_keys() {
        let mut m = BTreeMap::new();
        m.insert(3u64, vec![1u8, 2, 3]);
        m.insert(9u64, vec![]);
        let back: BTreeMap<u64, Vec<u8>> = Deserialize::from_json(&m.to_json()).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn large_u64_lossless() {
        let x = u64::MAX - 3;
        assert_eq!(u64::from_json(&x.to_json()).unwrap(), x);
    }
}
