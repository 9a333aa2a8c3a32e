//! The registry's request vocabulary and its live admission control.
//!
//! * [`RequestKey`] — what a client asks for (a full image, or a byte
//!   range of one) and its canonical one-line rendering, which is what
//!   the wire layer ships and what the serving oracle's digest table is
//!   keyed by.
//! * [`AdmissionGate`] — per-tenant bounded in-flight admission for the
//!   threaded wire server in `xpl-net`: a request past its tenant's
//!   bound gets a typed `Overload`, so one tenant's flood can exhaust
//!   only its own slots.
//!
//! The crate is kept free of store types so the same front end sits in
//! front of any of the five evaluated stores.

mod gate;

pub use gate::{AdmissionGate, AdmissionPermit, Overloaded};

/// What a client asks the registry for.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RequestKey {
    /// Full image retrieval.
    Image { image: String },
    /// A byte range of the image's disk; `start_frac` is in 256ths of
    /// the disk size (the trace convention), `len_bytes` in bytes.
    Range {
        image: String,
        start_frac: u32,
        len_bytes: u32,
    },
}

impl RequestKey {
    /// Canonical one-line rendering: the body of a wire request.
    pub fn render(&self) -> String {
        match self {
            RequestKey::Image { image } => format!("retrieve {image}"),
            RequestKey::Range {
                image,
                start_frac,
                len_bytes,
            } => format!("range {image} frac={start_frac} len={len_bytes}"),
        }
    }

    /// Inverse of [`RequestKey::render`] — the wire layer ships keys in
    /// their canonical rendering, and the server parses them back.
    /// Returns `None` for anything that is not an exact rendering
    /// (image names may contain spaces; the range suffix is parsed from
    /// the right).
    pub fn parse(s: &str) -> Option<RequestKey> {
        if let Some(image) = s.strip_prefix("retrieve ") {
            if image.is_empty() {
                return None;
            }
            return Some(RequestKey::Image {
                image: image.to_string(),
            });
        }
        let rest = s.strip_prefix("range ")?;
        let (rest, len_tok) = rest.rsplit_once(' ')?;
        let (image, frac_tok) = rest.rsplit_once(' ')?;
        if image.is_empty() {
            return None;
        }
        let start_frac: u32 = frac_tok.strip_prefix("frac=")?.parse().ok()?;
        let len_bytes: u32 = len_tok.strip_prefix("len=")?.parse().ok()?;
        Some(RequestKey::Range {
            image: image.to_string(),
            start_frac,
            len_bytes,
        })
    }
}

#[cfg(test)]
mod key_tests {
    use super::RequestKey;

    #[test]
    fn parse_is_the_inverse_of_render() {
        let keys = [
            RequestKey::Image {
                image: "redis".into(),
            },
            RequestKey::Image {
                image: "name with spaces".into(),
            },
            RequestKey::Range {
                image: "ide-build".into(),
                start_frac: 0,
                len_bytes: 512,
            },
            RequestKey::Range {
                image: "a b c".into(),
                start_frac: 255,
                len_bytes: 16384,
            },
        ];
        for key in keys {
            assert_eq!(
                RequestKey::parse(&key.render()).as_ref(),
                Some(&key),
                "{}",
                key.render()
            );
        }
    }

    #[test]
    fn parse_rejects_malformed_renderings() {
        for bad in [
            "",
            "retrieve ",
            "fetch img",
            "range img frac=1",
            "range  frac=1 len=2",
            "range img frac=x len=2",
            "range img frac=1 len=",
            "range img len=2 frac=1",
        ] {
            assert_eq!(RequestKey::parse(bad), None, "{bad:?}");
        }
    }
}
