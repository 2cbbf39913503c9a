//! Canonical cache keys.
//!
//! A result is reusable only when *everything* that influenced it matches:
//! which process ran, with which inputs, over which catchment, against
//! which revision of the underlying data. [`CacheKey`] folds all four into
//! one totally ordered value. Inputs are canonicalised (objects rendered
//! with sorted keys, compact separators) so `{"a":1,"b":2}` and
//! `{"b":2,"a":1}` are the same key, and the catalogue's data-version
//! stamp means a sensor update silently orphans every stale entry — the
//! cache never has to *find* them to stop serving them.

use std::fmt;

use serde_json::Value;

/// Identity of one cacheable model result.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct CacheKey {
    process: String,
    catchment: String,
    data_version: u64,
    inputs: String,
}

impl CacheKey {
    /// Builds a key from the raw parts; `inputs` is canonicalised.
    pub fn new(process: &str, catchment: &str, data_version: u64, inputs: &Value) -> CacheKey {
        CacheKey {
            process: process.to_owned(),
            catchment: catchment.to_owned(),
            data_version,
            inputs: canonical_json(inputs),
        }
    }

    /// The WPS process identifier.
    pub fn process(&self) -> &str {
        &self.process
    }

    /// The catchment the question is about.
    pub fn catchment(&self) -> &str {
        &self.catchment
    }

    /// The catalogue data-version stamp baked into this key.
    pub fn data_version(&self) -> u64 {
        self.data_version
    }

    /// The canonicalised inputs JSON.
    pub fn inputs_json(&self) -> &str {
        &self.inputs
    }

    /// The canonical rendering — what gets hashed, logged and compared.
    pub fn render(&self) -> String {
        format!("{}|{}|v{}|{}", self.process, self.catchment, self.data_version, self.inputs)
    }

    /// FNV-1a fingerprint of the canonical rendering: the coalescer's map
    /// key and the basis of the L2 blob key.
    pub fn fingerprint(&self) -> u64 {
        fnv1a(self.render().as_bytes())
    }

    /// The L2 blob key: content-addressed by the key fingerprint, so a
    /// given question always reads and writes the same object.
    pub fn blob_key(&self) -> String {
        format!("res-{:016x}", self.fingerprint())
    }
}

impl fmt::Display for CacheKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// Renders JSON deterministically: object keys sorted, compact separators.
///
/// Two spellings of the same inputs must collide. The vendored
/// `serde_json::Map` is a `BTreeMap`, so every object's keys are sorted by
/// its type and the shared compact writer already emits this form.
pub fn canonical_json(value: &Value) -> String {
    // Encoding a `Value` cannot fail.
    serde_json::to_string(value).unwrap_or_default()
}

/// FNV-1a over `bytes` — the same dependency-free hash
/// [`evop_xcloud::Blob::content_hash`] uses, so key fingerprints and blob
/// integrity checks share one well-known function.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = FNV_OFFSET;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    #[test]
    fn key_order_in_inputs_does_not_matter() {
        let a = CacheKey::new("topmodel", "eden", 3, &json!({"m": 0.01, "hours": 24}));
        let b = CacheKey::new("topmodel", "eden", 3, &json!({"hours": 24, "m": 0.01}));
        assert_eq!(a, b);
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn every_component_separates_keys() {
        let base = CacheKey::new("topmodel", "eden", 3, &json!({"m": 0.01}));
        let other_process = CacheKey::new("fuse", "eden", 3, &json!({"m": 0.01}));
        let other_catchment = CacheKey::new("topmodel", "tarland", 3, &json!({"m": 0.01}));
        let other_version = CacheKey::new("topmodel", "eden", 4, &json!({"m": 0.01}));
        let other_inputs = CacheKey::new("topmodel", "eden", 3, &json!({"m": 0.02}));
        for other in [&other_process, &other_catchment, &other_version, &other_inputs] {
            assert_ne!(&base, other);
            assert_ne!(base.fingerprint(), other.fingerprint());
        }
    }

    #[test]
    fn canonical_json_sorts_nested_objects() {
        let v = json!({"z": {"b": 1, "a": [2, {"d": 3, "c": 4}]}, "a": true});
        assert_eq!(canonical_json(&v), r#"{"a":true,"z":{"a":[2,{"c":4,"d":3}],"b":1}}"#);
    }

    #[test]
    fn blob_key_is_stable_and_hex() {
        let k = CacheKey::new("topmodel", "eden", 1, &json!({}));
        assert_eq!(k.blob_key(), k.blob_key());
        assert!(k.blob_key().starts_with("res-"));
        assert_eq!(k.blob_key().len(), 4 + 16);
    }
}
