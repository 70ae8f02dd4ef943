#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! Raster substrate for the THINC reproduction.
//!
//! This crate provides everything below the window system: pixel formats,
//! a software framebuffer, rectangle and region algebra, raster operations
//! (fill, tile, stipple, copy), Porter–Duff alpha compositing, YUV pixel
//! formats with colorspace conversion, and image resampling including a
//! simplified version of Fant's non-aliasing spatial transform, which the
//! THINC paper uses for server-side screen scaling.
//!
//! The design goal is determinism: every operation is pure software and
//! byte-exact, so the remote-display pipeline can be verified by comparing
//! framebuffer contents on both ends of the wire.

pub mod composite;
pub mod framebuffer;
pub mod geometry;
pub mod pixel;
pub mod reference;
pub mod region;
pub mod scale;
pub mod yuv;

pub use composite::{composite_rect, CompositeOp};
pub use framebuffer::Framebuffer;
pub use geometry::{Point, Rect};
pub use pixel::{Color, PixelFormat};
pub use region::Region;
pub use scale::{scale_image, ScaleFilter};
pub use yuv::{YuvFormat, YuvFrame};
