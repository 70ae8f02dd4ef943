#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! Deterministic workload generators for the THINC evaluation.
//!
//! The paper's benchmarks are (§8.2):
//!
//! - **Web**: the i-Bench Web Page Load test — 54 pages mixing text
//!   and graphics, advanced by timed mouse clicks. Reproduced by
//!   [`web`]: a deterministic 54-page sequence that issues the same
//!   *driver-level operation mix* a Mozilla-class browser produces —
//!   offscreen page composition, per-string text runs, solid and
//!   patterned fills, and image uploads — with three page classes
//!   (text-heavy, mixed content, single-large-image) matching the
//!   page-by-page analysis in §8.3.
//! - **A/V**: a 34.75 s MPEG-1 clip, 352×240, fullscreen playback.
//!   Reproduced by [`video`]: a synthetic YV12 frame source with the
//!   same geometry, rate and duration, plus a PCM audio track.
//!
//! [`scroll`] adds a document-scrolling session (the op stream behind
//! the `COPY` command's raison d'être, §3), used by the scrolling
//! ablation.
//!
//! All content is generated from fixed seeds: two runs of any
//! workload are byte-identical.

pub mod content;
pub mod scroll;
pub mod video;
pub mod web;

pub use scroll::ScrollWorkload;
pub use video::{AudioTrack, VideoClip};
pub use web::{PageKind, WebPage, WebWorkload};
