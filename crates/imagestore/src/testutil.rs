//! Test/bench support: a self-cleaning temporary directory, and the eager
//! restore spelled out once for callers that already hold a coordinator
//! and a space.
//!
//! The environment has no `tempfile` crate, so tests and benches share this
//! minimal equivalent.  Not part of the store's public API surface proper
//! (`doc(hidden)`), but exported so downstream crates' tests can use it.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crac_addrspace::SharedSpace;
use crac_dmtcp::{Coordinator, RestartStats};

use crate::{restore, ImageId, ImageSource, ReadStats, StoreError, StreamReader};

/// Eagerly restores image `id` of `source` into `space` through
/// `coordinator`, recording into the coordinator's registry.
pub fn restore_into(
    coordinator: &Coordinator,
    source: ImageSource<'_>,
    id: ImageId,
    space: &SharedSpace,
) -> Result<(RestartStats, ReadStats), StoreError> {
    let reader = StreamReader::open(source, id, coordinator.obs())?;
    let (stats, read, _) = restore(reader, false, |install| install(coordinator, space))?;
    Ok((stats, read))
}

static NEXT: AtomicU64 = AtomicU64::new(0);

/// A uniquely named directory under the system temp dir, removed on drop.
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Creates a fresh directory; `tag` helps identify leftovers if cleanup
    /// is skipped by a crash.
    pub fn new(tag: &str) -> Self {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.subsec_nanos())
            .unwrap_or(0);
        let path = std::env::temp_dir().join(format!(
            "crac-{tag}-{}-{}-{nanos}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed),
        ));
        // crac-lint: allow(no-unwrap) — test-support helper; aborting on tempdir failure is correct
        std::fs::create_dir_all(&path).expect("create temp dir");
        Self { path }
    }

    /// The directory's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}
