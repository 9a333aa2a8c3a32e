//! Typed wire-layer errors.
//!
//! Nothing in this crate panics on hostile or unlucky input: a peer
//! that vanishes mid-write, a forged frame header claiming a
//! gigabyte payload, a stream cut inside a length field — every one of
//! those surfaces as a variant below so callers can decide to retry,
//! evict, or reject. `PartialEq` so tests can pin exact outcomes.

use std::fmt;

/// Every way the wire can fail.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NetError {
    /// The peer closed its end (clean FIN or `EPIPE`/`ECONNRESET` on
    /// write). On unix this is SIGPIPE-safe: the Rust runtime ignores
    /// SIGPIPE, so a write to a closed socket returns `BrokenPipe`
    /// instead of killing the process, and we map it here.
    PeerClosed,
    /// The connection was reset (by the peer, or by fault injection).
    Reset,
    /// A read or write deadline expired.
    Timeout,
    /// The stream ended inside a frame: `have` bytes where `needed`
    /// were required to finish the header or payload.
    Truncated { needed: usize, have: usize },
    /// The frame did not start with the protocol magic.
    BadMagic([u8; 4]),
    /// The header's kind byte is not a known frame kind.
    BadKind(u8),
    /// The header CRC did not match — a corrupt or forged header is
    /// rejected *before* its length field is trusted for allocation.
    BadHeaderCrc { expected: u32, actual: u32 },
    /// The payload CRC did not match.
    BadPayloadCrc { expected: u32, actual: u32 },
    /// The header's length field exceeds the configured maximum frame
    /// size. Rejected before allocating.
    FrameTooLarge { len: u32, max: u32 },
    /// A request or response payload was malformed (too short, bad
    /// status byte, unexpected frame kind).
    Malformed(String),
    /// The server's per-tenant admission bound was full. Retryable
    /// after backoff; the connection stays healthy.
    Overload { in_flight: u32 },
    /// The server is draining: the request was not admitted and must
    /// not be retried against this server. Clients fail fast.
    Rejected(String),
    /// The service itself failed (status `Error` on the wire).
    Service(String),
    /// The retry budget ran out without a successful response.
    Exhausted { attempts: u32 },
    /// Anything else the OS reported.
    Io(String),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::PeerClosed => write!(f, "peer closed the connection"),
            NetError::Reset => write!(f, "connection reset"),
            NetError::Timeout => write!(f, "deadline expired"),
            NetError::Truncated { needed, have } => {
                write!(f, "truncated frame: need {needed} bytes, have {have}")
            }
            NetError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            NetError::BadKind(k) => write!(f, "unknown frame kind {k:#04x}"),
            NetError::BadHeaderCrc { expected, actual } => {
                write!(
                    f,
                    "header CRC mismatch: expected {expected:#010x}, got {actual:#010x}"
                )
            }
            NetError::BadPayloadCrc { expected, actual } => {
                write!(
                    f,
                    "payload CRC mismatch: expected {expected:#010x}, got {actual:#010x}"
                )
            }
            NetError::FrameTooLarge { len, max } => {
                write!(f, "frame payload of {len} bytes exceeds max {max}")
            }
            NetError::Malformed(msg) => write!(f, "malformed message: {msg}"),
            NetError::Overload { in_flight } => {
                write!(
                    f,
                    "overloaded: {in_flight} requests already in flight for this tenant"
                )
            }
            NetError::Rejected(msg) => write!(f, "rejected: {msg}"),
            NetError::Service(msg) => write!(f, "service error: {msg}"),
            NetError::Exhausted { attempts } => {
                write!(f, "retry budget exhausted after {attempts} attempts")
            }
            NetError::Io(msg) => write!(f, "io error: {msg}"),
        }
    }
}

impl std::error::Error for NetError {}

impl NetError {
    /// Map an OS error to the typed taxonomy. `BrokenPipe` (EPIPE) and
    /// the reset family become [`NetError::PeerClosed`] /
    /// [`NetError::Reset`]; timeouts become [`NetError::Timeout`].
    pub(crate) fn from_io(e: std::io::Error) -> NetError {
        use std::io::ErrorKind::*;
        match e.kind() {
            BrokenPipe => NetError::PeerClosed,
            ConnectionReset | ConnectionAborted => NetError::Reset,
            UnexpectedEof => NetError::PeerClosed,
            WouldBlock | TimedOut => NetError::Timeout,
            _ => NetError::Io(e.to_string()),
        }
    }
}
