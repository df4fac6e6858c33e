//! A host-side transparent checkpoint-restart package, standing in for DMTCP.
//!
//! CRAC is built as a DMTCP plugin: DMTCP saves and restores the *host* state
//! of a process (its memory regions, read from `/proc/PID/maps`), while the
//! plugin handles everything CUDA-specific at well-defined event hooks.  This
//! crate reproduces the pieces of DMTCP that CRAC interacts with:
//!
//! * [`plugin`] — the plugin trait with the event hooks CRAC uses
//!   (pre-checkpoint, resume, restart) plus the region-filter hook that lets
//!   a plugin exclude lower-half memory from the image;
//! * [`image`] — the in-memory checkpoint image: saved memory regions
//!   (sparse, page-granular content plus logical sizes) and named plugin
//!   payloads;
//! * [`coordinator`] — the checkpoint/restart driver: builds the image from
//!   the merged `/proc/PID/maps` view, consults plugins, and restores images
//!   into a fresh address space on restart.
//!
//! Image sizes are reported uncompressed: the paper disables DMTCP's default
//! gzip for its measurements.

pub mod coordinator;
pub mod cursor;
pub mod image;
pub mod plugin;
pub mod stream;

pub use coordinator::{
    CkptStats, Coordinator, CoordinatorConfig, LazyDeclaration, PrecopyConfig, PrecopyStats,
    RestartStats, RestoreCursor,
};
pub use cursor::ByteCursor;
pub use image::{CheckpointImage, SavedRegion};
pub use plugin::{DmtcpPlugin, PluginEvent, RegionDecision};
pub use stream::{
    CheckpointSink, CkptError, ImageSink, RegionDescriptor, RestoreError, RestoreSink, SinkClosed,
    MAX_RUN_PAGES,
};
