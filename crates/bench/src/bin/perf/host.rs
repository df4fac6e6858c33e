//! What the benchmark asks of the machine it runs on: a scratch directory
//! inside the checkout, the file system that directory is on, and this
//! process's peak resident set.

use std::cell::Cell;
use std::path::{Path, PathBuf};

/// Where the benchmark writes: `$CARGO_TARGET_DIR/perf`, or `target/perf`
/// under the current directory — inside the checkout and ignored by git.
pub fn out_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").map_or("target".into(), PathBuf::from);
    target.join("perf")
}

/// A scratch directory for one workload's stores; removed on drop.
pub struct RunDir {
    root: PathBuf,
    next: Cell<u64>,
}

impl RunDir {
    pub fn create(workload: &str) -> std::io::Result<RunDir> {
        let root = out_dir().join(format!("run-{}-{workload}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root)?;
        Ok(RunDir {
            root,
            next: Cell::new(0),
        })
    }

    pub fn root(&self) -> &Path {
        &self.root
    }

    /// A directory name nothing has used yet (not created).
    pub fn fresh(&self, what: &str) -> PathBuf {
        let n = self.next.get();
        self.next.set(n + 1);
        self.root.join(format!("{what}-{n}"))
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Removes a store directory an iteration is done with.
pub fn remove(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}

/// Every regular file under `dir` as `(path relative to dir, length)`.
pub fn file_sizes(dir: &Path) -> std::io::Result<Vec<(PathBuf, u64)>> {
    fn walk(root: &Path, dir: &Path, out: &mut Vec<(PathBuf, u64)>) -> std::io::Result<()> {
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            let (path, meta) = (entry.path(), entry.metadata()?);
            if meta.is_dir() {
                walk(root, &path, out)?;
            } else if let Ok(rel) = path.strip_prefix(root) {
                out.push((rel.to_path_buf(), meta.len()));
            }
        }
        Ok(())
    }
    let mut out = Vec::new();
    walk(dir, dir, &mut out)?;
    Ok(out)
}

/// Bytes of every regular file under `dir`.
pub fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    Ok(file_sizes(dir)?.iter().map(|(_, len)| len).sum())
}

/// Writes files of the given lengths under `dir` the way the store's
/// writer makes a checkpoint durable: every file written under a temporary
/// name first, then each flushed and renamed to its own name, then the
/// directories flushed.  The harness alone, so the time is the device's;
/// what the files hold does not matter to it.
pub fn write_durably(dir: &Path, files: &[(PathBuf, u64)]) -> std::io::Result<()> {
    let longest = files.iter().map(|(_, len)| *len).max().unwrap_or(0);
    let bytes = vec![0x5a_u8; longest as usize];
    let mut dirs = std::collections::BTreeSet::new();
    let mut staged = Vec::with_capacity(files.len());
    for (rel, len) in files {
        let path = dir.join(rel);
        if let Some(parent) = path.parent() {
            if dirs.insert(parent.to_path_buf()) {
                std::fs::create_dir_all(parent)?;
            }
        }
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, &bytes[..*len as usize])?;
        staged.push((tmp, path));
    }
    for (tmp, path) in staged {
        std::fs::File::open(&tmp)?.sync_all()?;
        std::fs::rename(&tmp, &path)?;
    }
    for dir in dirs {
        std::fs::File::open(dir)?.sync_all()?;
    }
    Ok(())
}

/// File-system type of the mount `path` is on, from `/proc/self/mounts`.
pub fn fs_type(path: &Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_dev, mount, fs) = (fields.next()?, fields.next()?, fields.next()?);
            path.starts_with(mount).then_some((mount.len(), fs))
        })
        .max_by_key(|(len, _)| *len)
        .map_or("unknown".to_string(), |(_, fs)| fs.to_string())
}

/// Resets the kernel's peak-RSS watermark for this process (`echo 5 >
/// /proc/self/clear_refs`), so the next [`peak_rss_mb`] covers only what
/// follows.  Best effort: where it is refused the watermark simply covers
/// the whole process.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// `VmHWM` of this process in MiB; 0 where `/proc` does not say.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
