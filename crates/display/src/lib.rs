#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! Window-system substrate for the THINC reproduction.
//!
//! THINC virtualizes the display "at the video device abstraction
//! layer, which sits below the window server and above the
//! framebuffer" (§3 of the paper). In the prototype that layer is the
//! XFree86/X.org driver interface (XAA); here it is the
//! [`driver::VideoDriver`] trait. This crate implements the window
//! server above that layer from scratch:
//!
//! - [`drawable`]: the screen and offscreen pixmaps (the drawables the
//!   driver-level commands target),
//! - [`request`]: the application-level drawing requests a window
//!   server accepts (the role X requests play for the prototype),
//! - [`server`]: the window server itself — it rasterizes every
//!   request into the real drawable contents (ground truth for
//!   verifying remote display) *and* mirrors each operation to the
//!   attached driver with its full semantic information,
//! - [`driver`]: the device-driver interface and a recording driver,
//! - [`text`]: glyph rendering (text becomes stipple fills at the
//!   driver level, as in X core text),
//! - [`font`]: a deterministic built-in bitmap font,
//! - [`input`]: pointer/keyboard events and last-event tracking (the
//!   anchor for THINC's real-time update region),
//! - [`damage`]: a damage tracker used by screen-scraping drivers.
//!
//! The essential property is faithful *semantics flow*: a driver
//! attached to the server sees exactly the low-level operations, with
//! exactly the information, that a real display driver sees — which is
//! the interface the THINC paper's entire design is built on.

pub mod damage;
pub mod drawable;
pub mod driver;
pub mod font;
pub mod input;
pub mod request;
pub mod server;
pub mod text;

pub use drawable::{DrawableId, DrawableStore, SCREEN};
pub use driver::{NullDriver, VideoDriver};
pub use input::{InputEvent, InputTracker};
pub use request::DrawRequest;
pub use server::WindowServer;
