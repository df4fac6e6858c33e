//! The in-memory checkpoint image.

use std::collections::BTreeMap;

use crac_addrspace::{page_runs, Addr, PageRun, Prot, PAGE_SIZE};

/// One saved memory region: its placement, protection and (sparsely) its
/// content.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SavedRegion {
    /// Start address the region must be restored at.
    pub start: Addr,
    /// Logical length in bytes (what the image *size* accounts for, since a
    /// real DMTCP image stores every byte when gzip is off).
    pub len: u64,
    /// Protection bits to restore.
    pub prot: Prot,
    /// Label (pathname column) for diagnostics.
    pub label: String,
    /// Dirty pages actually written during the run: `(page index within the
    /// region, page bytes)`.  Unlisted pages are zero.
    pub pages: Vec<(u64, Vec<u8>)>,
}

impl SavedRegion {
    /// Bytes of page content physically stored for this region.
    pub fn stored_bytes(&self) -> u64 {
        self.pages.len() as u64 * PAGE_SIZE
    }

    /// Indices of the dirty pages, in increasing order.
    pub fn dirty_page_indices(&self) -> impl Iterator<Item = u64> + '_ {
        self.pages.iter().map(|(idx, _)| *idx)
    }

    /// The dirty pages grouped into maximal consecutive runs — the unit an
    /// image store chunks its I/O along.
    pub fn page_runs(&self) -> Vec<PageRun> {
        page_runs(self.dirty_page_indices())
    }
}

/// A checkpoint image: an ordered set of saved regions plus named plugin
/// payloads (CRAC stores its CUDA log there).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CheckpointImage {
    /// Saved regions in address order.
    pub regions: Vec<SavedRegion>,
    /// Plugin payloads keyed by plugin name.
    pub payloads: BTreeMap<String, Vec<u8>>,
    /// Virtual time at which the checkpoint was taken (nanoseconds).
    pub taken_at_ns: u64,
}

impl CheckpointImage {
    /// Logical (uncompressed) image size in bytes: what the paper reports as
    /// "checkpoint size".
    pub fn logical_size(&self) -> u64 {
        let regions: u64 = self.regions.iter().map(|r| r.len).sum();
        let payloads: u64 = self.payloads.values().map(|p| p.len() as u64).sum();
        regions + payloads
    }

    /// Bytes physically stored (dirty pages + payloads); what actually has to
    /// be written in this in-memory model.
    pub fn stored_size(&self) -> u64 {
        let regions: u64 = self.regions.iter().map(|r| r.stored_bytes()).sum();
        let payloads: u64 = self.payloads.values().map(|p| p.len() as u64).sum();
        regions + payloads
    }

    /// Number of saved regions.
    pub fn region_count(&self) -> usize {
        self.regions.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_image() -> CheckpointImage {
        let mut img = CheckpointImage {
            taken_at_ns: 123_456,
            ..Default::default()
        };
        img.regions.push(SavedRegion {
            start: Addr(0x4000_0000_0000),
            len: 4 * PAGE_SIZE,
            prot: Prot::RW,
            label: "[heap]".to_string(),
            pages: vec![(1, vec![0xaa; PAGE_SIZE as usize])],
        });
        img.regions.push(SavedRegion {
            start: Addr(0x4000_1000_0000),
            len: 2 * PAGE_SIZE,
            prot: Prot::RX,
            label: "app.text".to_string(),
            pages: vec![],
        });
        img.payloads.insert("crac".to_string(), vec![1, 2, 3, 4]);
        img
    }

    #[test]
    fn sizes_distinguish_logical_and_stored() {
        let img = sample_image();
        assert_eq!(img.logical_size(), 6 * PAGE_SIZE + 4);
        assert_eq!(img.stored_size(), PAGE_SIZE + 4);
        assert_eq!(img.region_count(), 2);
    }
}
