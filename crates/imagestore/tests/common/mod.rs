//! Shared by `replication.rs` and `net_tcp.rs`: a many-small-chunks image,
//! a [`Transport`] wrapper that
//! records the order calls enter and return in, can fail the k-th
//! `put_chunk` *permanently* (a fault [`FaultyTransport`] has no knob for),
//! and can hold the first puts at a gate so a test gets to act while they
//! are in flight — plus the peer-side invariant the ship loop's ordering
//! promise is about.
//!
//! [`FaultyTransport`]: crac_imagestore::FaultyTransport

#![allow(dead_code)] // each test crate uses its own subset

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crac_addrspace::{Addr, Prot, PAGE_SIZE};
use crac_dmtcp::{CheckpointImage, SavedRegion};
use crac_imagestore::format::Manifest;
use crac_imagestore::transport::HAS_CHUNKS_BATCH;
use crac_imagestore::{ContentHash, ImageId, StoreError, Transport};
use crac_sync::{Condvar, Mutex};

/// Three negotiation batches: two full ones and a tail.
pub const THREE_BATCHES: u64 = 2 * HAS_CHUNKS_BATCH as u64 + 5;

/// An image of `chunks` distinct *one-page* chunks (one single-page region
/// each): as many negotiation batches and puts as a 16-page-chunk image
/// for a sixteenth of the bytes, for the tests that ship it once per put.
pub fn small_chunk_image(seed: u8, chunks: u64) -> CheckpointImage {
    let mut img = CheckpointImage {
        taken_at_ns: seed as u64 * 1000,
        ..Default::default()
    };
    for i in 0..chunks {
        let mut page = vec![seed; PAGE_SIZE as usize];
        page[..8].copy_from_slice(&(((seed as u64) << 32) | i).to_le_bytes());
        img.regions.push(SavedRegion {
            start: Addr(0x4000_0000_0000 + i * 2 * PAGE_SIZE),
            len: PAGE_SIZE,
            prot: Prot::RW,
            label: format!("small-{seed}-{i}"),
            pages: vec![(0, page)],
        });
    }
    img
}

/// What [`Recording`] saw, in the order it saw it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Call {
    PutEntered,
    /// A `put_chunk` returned (`true` = `Ok`).
    PutReturned(bool),
    ManifestEntered,
}

/// A rendezvous of `parties` threads that gives up after five seconds
/// instead of hanging the suite (a serial ship loop would never bring a
/// second put to it; the caller's assertions then fail on what it sees).
pub struct Gate {
    parties: usize,
    arrived: Mutex<usize>,
    all_here: Condvar,
}

impl Gate {
    pub fn new(parties: usize) -> Self {
        Self {
            parties,
            arrived: Mutex::new("imagestore.tests.gate", 0),
            all_here: Condvar::new(),
        }
    }

    /// Returns whether every party arrived.
    pub fn wait(&self) -> bool {
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut arrived = self.arrived.lock();
        *arrived += 1;
        self.all_here.notify_all();
        while *arrived < self.parties && Instant::now() < deadline {
            let left = deadline.saturating_duration_since(Instant::now());
            arrived = self.all_here.wait_timeout(arrived, left).0;
        }
        *arrived >= self.parties
    }
}

pub struct Recording<'t> {
    inner: &'t dyn Transport,
    calls: Mutex<Vec<Call>>,
    puts_entered: AtomicUsize,
    /// The put with this entry index (0-based) fails permanently.
    fail_put: Option<usize>,
    /// The first `.1` puts wait here before reaching the wire.
    gate: Option<(&'t Gate, usize)>,
}

impl<'t> Recording<'t> {
    pub fn new(inner: &'t dyn Transport) -> Self {
        Self {
            inner,
            calls: Mutex::new("imagestore.tests.calls", Vec::new()),
            puts_entered: AtomicUsize::new(0),
            fail_put: None,
            gate: None,
        }
    }

    pub fn failing_put(mut self, k: usize) -> Self {
        self.fail_put = Some(k);
        self
    }

    pub fn gating_first_puts(mut self, gate: &'t Gate, puts: usize) -> Self {
        self.gate = Some((gate, puts));
        self
    }

    pub fn calls(&self) -> Vec<Call> {
        self.calls.lock().clone()
    }

    fn record(&self, call: Call) {
        self.calls.lock().push(call);
    }
}

impl Transport for Recording<'_> {
    fn has_chunks(&self, hashes: &[ContentHash]) -> Result<Vec<bool>, StoreError> {
        self.inner.has_chunks(hashes)
    }

    fn put_chunk(&self, hash: ContentHash, file_bytes: &[u8]) -> Result<(), StoreError> {
        let nth = self.puts_entered.fetch_add(1, Ordering::SeqCst);
        self.record(Call::PutEntered);
        if let Some((gate, puts)) = self.gate {
            if nth < puts {
                gate.wait();
            }
        }
        let result = if self.fail_put == Some(nth) {
            Err(StoreError::Protocol {
                what: format!("injected permanent failure at put {nth}"),
            })
        } else {
            self.inner.put_chunk(hash, file_bytes)
        };
        self.record(Call::PutReturned(result.is_ok()));
        result
    }

    fn get_chunk(&self, hash: ContentHash) -> Result<Vec<u8>, StoreError> {
        self.inner.get_chunk(hash)
    }

    fn list_manifests(&self) -> Result<Vec<ImageId>, StoreError> {
        self.inner.list_manifests()
    }

    fn get_manifest(&self, id: ImageId) -> Result<Vec<u8>, StoreError> {
        self.inner.get_manifest(id)
    }

    fn put_manifest(
        &self,
        manifest_bytes: &[u8],
        parent: Option<ImageId>,
    ) -> Result<ImageId, StoreError> {
        self.record(Call::ManifestEntered);
        self.inner.put_manifest(manifest_bytes, parent)
    }
}

/// The sender's half of the ordering promise: `put_manifest` was entered
/// exactly once, after every `put_chunk` had returned, and at least two
/// puts were in flight at once somewhere along the way (else the test did
/// not exercise the window).
pub fn assert_manifest_after_every_put(calls: &[Call], puts: usize) {
    let manifest_at = calls
        .iter()
        .position(|c| *c == Call::ManifestEntered)
        .expect("the manifest was published");
    assert_eq!(manifest_at, calls.len() - 1, "nothing follows the manifest");
    let returned = calls[..manifest_at]
        .iter()
        .filter(|c| **c == Call::PutReturned(true))
        .count();
    assert_eq!(returned, puts, "every put returned before put_manifest");
    let (mut in_flight, mut peak) = (0usize, 0usize);
    for call in calls {
        match call {
            Call::PutEntered => in_flight += 1,
            Call::PutReturned(_) => in_flight -= 1,
            Call::ManifestEntered => assert_eq!(in_flight, 0),
        }
        peak = peak.max(in_flight);
    }
    assert!(peak >= 2, "the ship window never overlapped two puts");
}

/// The peer's half: every image `peer` lists is whole — `has_chunks`
/// confirms each chunk its manifest names.  Returns how many images it
/// checked.
pub fn assert_listed_images_are_whole(peer: &dyn Transport) -> usize {
    let ids = peer.list_manifests().unwrap();
    for &id in &ids {
        let manifest = Manifest::from_bytes(&peer.get_manifest(id).unwrap()).unwrap();
        let hashes: Vec<ContentHash> = manifest.chunk_refs().map(|c| c.hash).collect();
        let present = peer.has_chunks(&hashes).unwrap();
        assert!(
            present.iter().all(|p| *p),
            "peer lists {id} but denies {} of its chunks",
            present.iter().filter(|p| !**p).count()
        );
    }
    ids.len()
}

/// Runs `ship` while a second thread keeps asserting, through its own
/// `view` of the peer, that every listed image is whole — the peer's half
/// of the ordering promise, checked at every instant the watcher gets.
pub fn while_watching_the_peer<R>(view: &dyn Transport, ship: impl FnOnce() -> R) -> R {
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let watcher = scope.spawn(|| {
            let mut checks = 0usize;
            while !done.load(Ordering::SeqCst) {
                assert_listed_images_are_whole(view);
                checks += 1;
            }
            checks
        });
        let shipped = ship();
        done.store(true, Ordering::SeqCst);
        assert!(watcher.join().unwrap() > 0, "the watcher never looked");
        shipped
    })
}
