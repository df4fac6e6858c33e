//! Error type of the image store.

use std::fmt;
use std::io;
use std::path::PathBuf;

use crate::format::{ManifestError, FORMAT_VERSION};
use crate::store::{DeleteStats, ImageId};

/// Everything that can go wrong while writing to or reading from a store.
#[derive(Debug)]
pub enum StoreError {
    /// An operating-system I/O failure, with the path involved.
    Io {
        /// File or directory the operation touched.
        path: PathBuf,
        /// The underlying OS error.
        source: io::Error,
    },
    /// On-disk data failed an integrity check (bad magic, CRC mismatch,
    /// truncation, invalid field).
    Corrupt {
        /// File that failed verification.
        path: PathBuf,
        /// What exactly was wrong.
        what: String,
    },
    /// An intact manifest written in a format version this build does not
    /// read (an old store, or an old peer's image).  Permanent, and *not*
    /// corruption: nothing is damaged, the store belongs to another build.
    UnsupportedVersion {
        /// The manifest that was refused.
        path: PathBuf,
        /// The version it declares (this build reads and writes
        /// [`FORMAT_VERSION`]).
        found: u32,
    },
    /// A manifest references a chunk that is not present in the store.
    MissingChunk {
        /// Hex content hash of the missing chunk.
        hash: String,
    },
    /// The requested image id has no manifest in the store.
    UnknownImage(ImageId),
    /// Another live process holds the store's writer lock.
    Locked {
        /// The `store.lock` file.
        path: PathBuf,
        /// PID recorded in the lock file.
        holder: u32,
    },
    /// The operation conflicts with the store's current state (for example,
    /// deleting images while a streaming write is in flight, or writing
    /// through a read-only handle).
    Busy {
        /// Human-readable description of the conflict.
        what: String,
    },
    /// A transient transport/availability failure (injected fault, dropped
    /// connection, timeout) — the operation is safe to retry and remote
    /// pipelines do so a bounded number of times
    /// ([`crate::transport::MAX_TRANSIENT_RETRIES`]).  Never produced by
    /// integrity checks: corruption is always fail-fast.
    Transient {
        /// Human-readable description of the failure.
        what: String,
    },
    /// The other side of a streaming or wire protocol broke its contract —
    /// a producer pushing a run outside any region, a peer answering the
    /// wrong number of `has_chunks` flags, an unauthenticated client
    /// issuing store requests.  Permanent (the same exchange fails the
    /// same way on every retry) but *not* corruption: no stored bytes are
    /// implicated, only the conversation.  A misbehaving peer surfaces as
    /// this error on the wire; it must never abort the process.
    Protocol {
        /// Which contract was broken, and how.
        what: String,
    },
    /// A batched deletion ([`crate::ImageStore::delete_image`] /
    /// [`crate::ImageStore::retain_last`]) hit one or more failures.  The
    /// operation was *not* abandoned at the first error — everything that
    /// could proceed did — so alongside the failures (in occurrence order)
    /// the variant carries what the batch *did* accomplish: without it a
    /// caller could never tell how much was actually reclaimed.
    Partial {
        /// The individual failures.
        errors: Vec<StoreError>,
        /// What the batch reclaimed despite the failures (manifests
        /// removed, chunks swept, bytes freed).
        stats: DeleteStats,
        /// Image ids that *were* deleted before/around the failures.
        deleted: Vec<ImageId>,
    },
}

impl StoreError {
    pub(crate) fn io(path: impl Into<PathBuf>, source: io::Error) -> Self {
        StoreError::Io {
            path: path.into(),
            source,
        }
    }

    pub(crate) fn corrupt(path: impl Into<PathBuf>, what: impl Into<String>) -> Self {
        StoreError::Corrupt {
            path: path.into(),
            what: what.into(),
        }
    }

    /// Classifies a manifest parse failure: a foreign format version is
    /// reported as such, everything else is corruption of `path`.
    pub(crate) fn manifest(path: impl Into<PathBuf>, e: ManifestError) -> Self {
        match e {
            ManifestError::UnsupportedVersion(found) => StoreError::UnsupportedVersion {
                path: path.into(),
                found,
            },
            ManifestError::Malformed(what) => StoreError::corrupt(path, what),
        }
    }

    pub(crate) fn busy(what: impl Into<String>) -> Self {
        StoreError::Busy { what: what.into() }
    }

    pub(crate) fn transient(what: impl Into<String>) -> Self {
        StoreError::Transient { what: what.into() }
    }

    pub(crate) fn protocol(what: impl Into<String>) -> Self {
        StoreError::Protocol { what: what.into() }
    }

    /// Wraps the failures of a batched deletion together with what the
    /// batch nevertheless accomplished.  Always [`StoreError::Partial`] —
    /// even a single failure needs the stats carried alongside it, or the
    /// caller loses sight of what *was* reclaimed.
    pub(crate) fn partial(
        errors: Vec<StoreError>,
        stats: DeleteStats,
        deleted: Vec<ImageId>,
    ) -> Self {
        debug_assert!(!errors.is_empty(), "partial() needs at least one error");
        StoreError::Partial {
            errors,
            stats,
            deleted,
        }
    }

    /// Returns `true` if the error is an integrity (not availability)
    /// failure — what a flipped bit on disk produces.  A batched
    /// [`StoreError::Partial`] counts if any of its failures does.
    pub fn is_corruption(&self) -> bool {
        match self {
            StoreError::Corrupt { .. } => true,
            StoreError::Partial { errors, .. } => errors.iter().any(StoreError::is_corruption),
            _ => false,
        }
    }

    /// Stable machine-readable class of the error, for retry-cause
    /// bookkeeping and event records (`transient_retry` events carry it
    /// as `class=…`).  Classes name the *variant*, not the instance — two
    /// different timeouts share `"transient"`.
    pub fn class_name(&self) -> &'static str {
        match self {
            StoreError::Io { .. } => "io",
            StoreError::Corrupt { .. } => "corrupt",
            StoreError::UnsupportedVersion { .. } => "unsupported_version",
            StoreError::MissingChunk { .. } => "missing_chunk",
            StoreError::UnknownImage(_) => "unknown_image",
            StoreError::Locked { .. } => "locked",
            StoreError::Busy { .. } => "busy",
            StoreError::Transient { .. } => "transient",
            StoreError::Protocol { .. } => "protocol",
            StoreError::Partial { .. } => "partial",
        }
    }

    /// Returns `true` if the failure is transient (a retry may succeed):
    /// an explicit [`StoreError::Transient`], or an OS-level I/O error of a
    /// kind the OS itself declares retryable.  Corruption and every other
    /// variant are permanent — retrying a flipped bit cannot unflip it.
    pub fn is_transient(&self) -> bool {
        match self {
            StoreError::Transient { .. } => true,
            StoreError::Io { source, .. } => matches!(
                source.kind(),
                std::io::ErrorKind::Interrupted
                    | std::io::ErrorKind::WouldBlock
                    | std::io::ErrorKind::TimedOut
            ),
            _ => false,
        }
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { path, source } => {
                write!(f, "I/O error on {}: {source}", path.display())
            }
            StoreError::Corrupt { path, what } => {
                write!(f, "corrupt store file {}: {what}", path.display())
            }
            StoreError::UnsupportedVersion { path, found } => write!(
                f,
                "store file {} is format version {found}; this build reads and writes version {FORMAT_VERSION}",
                path.display()
            ),
            StoreError::MissingChunk { hash } => write!(f, "chunk {hash} missing from store"),
            StoreError::UnknownImage(id) => write!(f, "image {id} not present in store"),
            StoreError::Locked { path, holder } => write!(
                f,
                "store is locked by live process {holder} (lock file {})",
                path.display()
            ),
            StoreError::Busy { what } => write!(f, "store is busy: {what}"),
            StoreError::Transient { what } => write!(f, "transient transport failure: {what}"),
            StoreError::Protocol { what } => write!(f, "protocol violation: {what}"),
            StoreError::Partial {
                errors,
                stats,
                deleted,
            } => {
                write!(
                    f,
                    "{} failures in one batched operation ({} of the images still deleted, \
                     {} chunks / {} bytes reclaimed): ",
                    errors.len(),
                    deleted.len(),
                    stats.chunks_deleted,
                    stats.chunk_bytes_reclaimed
                )?;
                for (i, e) in errors.iter().enumerate() {
                    if i > 0 {
                        write!(f, "; ")?;
                    }
                    write!(f, "{e}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}
