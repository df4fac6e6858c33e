//! Prints a real flow's Prometheus-style scrape to stdout: checkpoint a
//! synthetic address space into a temporary store, replicate it to a
//! loopback peer, restore it, then `render_text()` the coordinator's
//! registry.  CI greps this output for the headline metric families; it
//! doubles as a copy-paste demo of the observability layer.

use crac_addrspace::{Half, MapRequest, SharedSpace, PAGE_SIZE};
use crac_dmtcp::{Coordinator, CoordinatorConfig};
use crac_imagestore::testutil::TempDir;
use crac_imagestore::{
    checkpoint_to, restore, CkptTarget, ImageSource, ImageStore, LoopbackTransport, StreamReader,
    WriteOptions,
};

fn main() {
    let space = SharedSpace::new_no_aslr();
    let addr = space
        .mmap(MapRequest::anon(48 * PAGE_SIZE, Half::Upper, "scrape-demo"))
        .unwrap();
    for p in 0..48u64 {
        let mut page = vec![0u8; PAGE_SIZE as usize];
        page[..8].copy_from_slice(&p.to_le_bytes());
        page[8] = 0x5C;
        space.write_bytes(addr + p * PAGE_SIZE, &page).unwrap();
    }

    let coord = Coordinator::new(space, CoordinatorConfig::default());
    let dir = TempDir::new("obs-scrape");
    let store = ImageStore::open(dir.path()).unwrap();
    let target = CkptTarget::Store(&store, WriteOptions::full());
    let (id, _, _) = checkpoint_to(&coord, target, None, |_| 0).unwrap();

    let peer_dir = TempDir::new("obs-scrape-peer");
    let peer = ImageStore::open(peer_dir.path()).unwrap();
    store
        .replicate_to(id, &LoopbackTransport::new(&peer))
        .unwrap();

    let fresh = SharedSpace::new_no_aslr();
    let reader = StreamReader::open(ImageSource::Store(&store), id, coord.obs()).unwrap();
    restore(reader, false, |install| install(&coord, &fresh)).unwrap();

    print!("{}", coord.obs().render_text());
    eprintln!("--- events ---");
    for event in coord.obs().drain_events() {
        eprintln!(
            "[{:>10}µs] {:<20} {}",
            event.at.as_micros(),
            event.kind.name(),
            event.detail
        );
    }
}
