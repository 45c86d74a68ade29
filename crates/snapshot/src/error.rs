//! Typed snapshot failures — bad input is *rejected*, never a panic.

use wf_bitio::ReadError;

/// Why a snapshot could not be written or read back.
#[derive(Debug)]
pub enum SnapshotError {
    /// The underlying reader/writer failed.
    Io(std::io::Error),
    /// The stream does not start with the snapshot magic — not a snapshot.
    BadMagic,
    /// The snapshot was written by an incompatible format version.
    UnsupportedVersion { found: u32, supported: u32 },
    /// The stream ended before the declared payload was complete.
    Truncated,
    /// The payload bytes do not match the stored checksum — corruption.
    ChecksumMismatch,
    /// The snapshot was taken of a different specification than the one it
    /// is being loaded into (fingerprints differ).
    SpecMismatch { expected: u64, found: u64 },
    /// The payload passed the checksum but decodes into an inconsistent
    /// structure (forged or buggy input).
    Malformed(&'static str),
    /// A durable op-log frame *before the tail* is damaged: bad frame
    /// magic, bad header checksum, or a complete frame whose payload
    /// checksum fails. A crashed append can only produce a *prefix* of
    /// the intended bytes, so damage that is not a torn tail is real
    /// corruption and is never silently dropped.
    LogCorrupted {
        /// Byte offset of the damaged frame within the log stream.
        offset: u64,
    },
    /// The caller asked for something no stream can satisfy (for example
    /// a zero shard capacity). Raised before any byte is read or written.
    InvalidArgument(&'static str),
}

impl SnapshotError {
    /// Stable short name of the rejection class (one per enum variant,
    /// payload-independent). This is the key fuzzers and operators bucket
    /// rejections under — e.g. the mutation fuzzer's rejection histogram —
    /// so it must stay coarse: two corruptions differing only in *where*
    /// they broke the structure share a class.
    pub fn class(&self) -> &'static str {
        match self {
            SnapshotError::Io(_) => "io",
            SnapshotError::BadMagic => "bad_magic",
            SnapshotError::UnsupportedVersion { .. } => "unsupported_version",
            SnapshotError::Truncated => "truncated",
            SnapshotError::ChecksumMismatch => "checksum_mismatch",
            SnapshotError::SpecMismatch { .. } => "spec_mismatch",
            SnapshotError::Malformed(_) => "malformed",
            SnapshotError::LogCorrupted { .. } => "log_corrupted",
            SnapshotError::InvalidArgument(_) => "invalid_argument",
        }
    }
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot i/o error: {e}"),
            SnapshotError::BadMagic => write!(f, "not a wfprov snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion { found, supported } => {
                write!(
                    f,
                    "unsupported snapshot format version {found} (this build reads {supported})"
                )
            }
            SnapshotError::Truncated => write!(f, "snapshot is truncated"),
            SnapshotError::ChecksumMismatch => write!(f, "snapshot checksum mismatch (corrupted)"),
            SnapshotError::SpecMismatch { expected, found } => write!(
                f,
                "snapshot was taken of a different specification \
                 (fingerprint {found:#018x}, engine expects {expected:#018x})"
            ),
            SnapshotError::Malformed(what) => write!(f, "malformed snapshot payload: {what}"),
            SnapshotError::LogCorrupted { offset } => {
                write!(f, "op-log frame at byte {offset} is corrupted (not a torn tail)")
            }
            SnapshotError::InvalidArgument(what) => write!(f, "invalid argument: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            SnapshotError::Truncated
        } else {
            SnapshotError::Io(e)
        }
    }
}

impl From<ReadError> for SnapshotError {
    fn from(e: ReadError) -> Self {
        match e {
            // The container already verified the payload's declared length,
            // so running out of bits mid-field means the *structure* lied
            // about its own size — still reported as truncation because that
            // is what the operator should check first.
            ReadError::OutOfBits => SnapshotError::Truncated,
            ReadError::Malformed => SnapshotError::Malformed("invalid universal code or structure"),
        }
    }
}
