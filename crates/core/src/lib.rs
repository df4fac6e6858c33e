//! CRAC: Checkpoint-Restart Architecture for CUDA with Streams and UVM.
//!
//! This crate is the reproduction's implementation of the paper's primary
//! contribution: transparent checkpoint-restart of CUDA applications with
//! ~1% runtime overhead, full UVM support and scaling to the device's
//! maximum number of concurrent streams.
//!
//! # How the pieces fit together
//!
//! A [`CracProcess`] is a simulated process running a CUDA application under
//! CRAC.  It contains:
//!
//! * a single simulated address space (from `crac-addrspace`), split into an
//!   **upper half** (the application — checkpointed) and a **lower half**
//!   (the helper program with the real CUDA library — discarded);
//! * a booted lower half (`crac-splitproc`) holding the live CUDA runtime
//!   (`crac-cudart`) and the trampoline table through which every CUDA call
//!   crosses from upper to lower;
//! * the CRAC interposition layer in this crate: every CUDA call crosses
//!   through the trampoline; the calls that must be replayed (the
//!   `cudaMalloc` family, stream/event lifetime, fat-binary registration)
//!   are each one step of [`interpose::CracState::apply`] — call the
//!   library, bind or drop the **virtual** stream/event/kernel handle, update
//!   the active mallocs, append the completed entry to the log — taken under
//!   the state lock, so the log's order is the library's execution order;
//! * a DMTCP coordinator (`crac-dmtcp`) with the [`plugin::CracPlugin`]
//!   registered: at checkpoint time the plugin drains the GPU, stages the
//!   contents of active device/managed allocations into upper-half staging
//!   buffers (in a window of the upper half it keeps to itself), and
//!   excludes all lower-half memory from the image.  Its payload is the log
//!   and the staging table — nothing derived.
//!
//! At restart ([`CracProcess::restart`]):
//!
//! 1. a **fresh** lower half (helper + CUDA runtime) is loaded — it lands at
//!    the same addresses because ASLR is disabled and loading is
//!    deterministic;
//! 2. the upper-half memory is restored from the checkpoint image;
//! 3. the CUDA call log is **folded** over the fresh runtime
//!    ([`replay::replay_log`]): every entry takes the same `apply` step the
//!    original call took, and what the fresh library returns — thanks to its
//!    deterministic arena allocator — must be the pointer or handle the
//!    entry recorded (a mismatch is a hard error).  The one difference is a
//!    flag: a pinned buffer came back with the upper half, so it is
//!    re-registered, not allocated;
//! 4. the state the fold arrives at — log, active mallocs, the application's
//!    virtual handles bound to the new streams, events, fat binaries and
//!    kernels, the handle counter — *is* the restarted process's state; the
//!    image stored none of it beside the log;
//! 5. the payload's staging table is checked against that state and the
//!    restored memory (`CracPayload::check_staging` — the payload
//!    is outside input), then the staged contents are copied back into the
//!    device and managed allocations and the staging buffers are released.
//!
//! The result: the application continues exactly where it was, holding the
//! same pointers and the same (virtual) stream/event/kernel handles.
//!
//! # One checkpoint body, one restore body
//!
//! Besides the materialised [`CracProcess::checkpoint`] /
//! [`CracProcess::restart`] pair (an in-memory `CheckpointImage`, kept as
//! the test oracle), a process checkpoints through **one** private body —
//! auto-parenting, drain accounting, virtual-clock advance, manifest stamp,
//! report — parameterised by *where* the image lands
//! (`crac_imagestore::CkptTarget`: a store or a peer) and *how* the walk
//! runs (stop-the-world or pre-copy), and restarts through **one** private
//! body parameterised by where the image comes from
//! (`crac_imagestore::ImageSource`) and whether the application resumes
//! when every page is resident or right after the metadata-only
//! declaration (lazy).  The public `checkpoint_to_{store,remote}[_precopy]`
//! and `restart_from_{store,remote}[_lazy]` methods are shells that pick
//! those values and unpack the result; their names and signatures are what
//! `crac-bench`'s `perf` adapter calls, so they are frozen until that
//! adapter moves onto the two bodies.

pub mod config;
pub mod interpose;
pub mod log;
pub mod mallocs;
pub mod plugin;
pub mod process;
pub mod replay;
pub mod wire;

pub use config::CracConfig;
pub use interpose::{CracEvent, CracFatBinary, CracKernel, CracStream, KernelRegistry};
pub use log::{CudaCallLog, LoggedCall};
pub use mallocs::{ActiveMallocs, AllocKind};
pub use process::{
    CkptReport, CracError, CracProcess, RemoteCkptReport, RestartReport, StoredCkptReport,
};

// The plugin trait and the pre-copy knobs/stats are part of the process
// surface (`register_plugin`, `checkpoint_to_store_precopy`, ...), so
// re-export them rather than forcing a direct crac-dmtcp dependency.
pub use crac_dmtcp::{DmtcpPlugin, PrecopyConfig, PrecopyStats};
