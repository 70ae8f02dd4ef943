//! THINC display command objects.
//!
//! These are the five protocol commands of Table 1. Each knows its
//! wire size — the quantity THINC's Shortest-Remaining-Size-First
//! scheduler sorts on ("the size of a command refers to its size in
//! bytes, not its size in terms of the number of pixels it updates",
//! §5) — and its destination rectangle, which the command queues use
//! for overlap analysis.

use crate::payload::Bytes;
use thinc_raster::{Color, Rect};

/// How a `RAW` command's pixel payload is encoded on the wire.
///
/// `RAW` "is the only command that may be compressed to mitigate its
/// impact on the network" (§3); the prototype uses PNG (§7), modeled
/// here by the from-scratch PNG-like pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RawEncoding {
    /// Uncompressed pixels.
    None,
    /// PNG-like (filter + LZSS) compressed pixels.
    PngLike,
}

crate::record! {
    /// A pixel tile for `PFILL`.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Tile {
        /// Tile width in pixels.
        pub width: u32,
        /// Tile height in pixels.
        pub height: u32,
        /// Tightly packed pixel bytes in the session pixel format.
        pub pixels: Vec<u8>,
    }
}

/// One THINC protocol display command.
#[derive(Debug, Clone, PartialEq)]
pub enum DisplayCommand {
    /// Display raw pixel data at a given location.
    Raw {
        /// Destination rectangle.
        rect: Rect,
        /// Payload encoding.
        encoding: RawEncoding,
        /// Pixel payload (possibly compressed), `Arc`-shared so a
        /// broadcast fan-out clones references, not bytes.
        data: Bytes,
    },
    /// Copy a framebuffer area to the specified coordinates — pure
    /// client-side operation, nearly free on the wire.
    Copy {
        /// Source rectangle in the client's framebuffer.
        src_rect: Rect,
        /// Destination origin x.
        dst_x: i32,
        /// Destination origin y.
        dst_y: i32,
    },
    /// Fill an area with a single color.
    Sfill {
        /// Destination rectangle.
        rect: Rect,
        /// Fill color (24-bit + alpha).
        color: Color,
    },
    /// Tile an area with a pixel pattern.
    Pfill {
        /// Destination rectangle.
        rect: Rect,
        /// The pattern to replicate.
        tile: Tile,
    },
    /// Fill a region through a 1-bit stipple with fg/bg colors.
    Bitmap {
        /// Destination rectangle.
        rect: Rect,
        /// Row-major bitmap, rows padded to bytes, MSB leftmost.
        bits: Vec<u8>,
        /// Color for 1 bits.
        fg: Color,
        /// Color for 0 bits; `None` = transparent (leave destination).
        bg: Option<Color>,
    },
}

/// Fixed per-command header overhead on the wire (message type byte +
/// length prefix + command type byte).
pub const COMMAND_HEADER_BYTES: u64 = 6;

impl DisplayCommand {
    /// The on-screen rectangle this command writes.
    pub fn dest_rect(&self) -> Rect {
        match self {
            DisplayCommand::Raw { rect, .. }
            | DisplayCommand::Sfill { rect, .. }
            | DisplayCommand::Pfill { rect, .. }
            | DisplayCommand::Bitmap { rect, .. } => *rect,
            DisplayCommand::Copy {
                src_rect,
                dst_x,
                dst_y,
            } => Rect::new(*dst_x, *dst_y, src_rect.w, src_rect.h),
        }
    }

    /// The wire size of the command in bytes — the SRSF scheduling key:
    /// its revision-1 frame's length, by arithmetic over its layout
    /// (`crate::wire`).
    pub fn wire_size(&self) -> u64 {
        crate::wire::command_len(self)
    }

    /// Short command name, for traces and reports.
    pub fn name(&self) -> &'static str {
        match self {
            DisplayCommand::Raw { .. } => "RAW",
            DisplayCommand::Copy { .. } => "COPY",
            DisplayCommand::Sfill { .. } => "SFILL",
            DisplayCommand::Pfill { .. } => "PFILL",
            DisplayCommand::Bitmap { .. } => "BITMAP",
        }
    }

    /// Translates the command's destination by `(dx, dy)` — used when
    /// offscreen command queues are copied between regions (§4.1).
    pub fn translate(&mut self, dx: i32, dy: i32) {
        match self {
            DisplayCommand::Raw { rect, .. }
            | DisplayCommand::Sfill { rect, .. }
            | DisplayCommand::Pfill { rect, .. }
            | DisplayCommand::Bitmap { rect, .. } => *rect = rect.translated(dx, dy),
            DisplayCommand::Copy {
                src_rect,
                dst_x,
                dst_y,
            } => {
                *src_rect = src_rect.translated(dx, dy);
                *dst_x += dx;
                *dst_y += dy;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn raw(w: u32, h: u32) -> DisplayCommand {
        DisplayCommand::Raw {
            rect: Rect::new(0, 0, w, h),
            encoding: RawEncoding::None,
            data: vec![0; (w * h * 3) as usize].into(),
        }
    }

    #[test]
    fn dest_rects() {
        assert_eq!(raw(4, 4).dest_rect(), Rect::new(0, 0, 4, 4));
        let copy = DisplayCommand::Copy {
            src_rect: Rect::new(10, 10, 5, 6),
            dst_x: 20,
            dst_y: 30,
        };
        assert_eq!(copy.dest_rect(), Rect::new(20, 30, 5, 6));
    }

    #[test]
    fn wire_sizes_ordering() {
        // SFILL and COPY are tiny; RAW scales with payload.
        let sfill = DisplayCommand::Sfill {
            rect: Rect::new(0, 0, 1000, 1000),
            color: Color::WHITE,
        };
        let copy = DisplayCommand::Copy {
            src_rect: Rect::new(0, 0, 1000, 1000),
            dst_x: 0,
            dst_y: 0,
        };
        let big_raw = raw(100, 100);
        assert!(sfill.wire_size() < 40);
        assert!(copy.wire_size() < 40);
        assert!(big_raw.wire_size() > 30_000);
        // A fullscreen SFILL is cheaper than a 10x10 RAW.
        assert!(sfill.wire_size() < raw(10, 10).wire_size());
    }

    #[test]
    fn bitmap_wire_size_counts_bits_not_pixels() {
        let bm = DisplayCommand::Bitmap {
            rect: Rect::new(0, 0, 64, 8),
            bits: vec![0; 64],
            fg: Color::BLACK,
            bg: None,
        };
        // 64x8 = 512 pixels would be 1536 RAW bytes; bitmap is ~90.
        assert!(bm.wire_size() < 100);
    }

    #[test]
    fn names() {
        assert_eq!(raw(1, 1).name(), "RAW");
        assert_eq!(
            DisplayCommand::Pfill {
                rect: Rect::new(0, 0, 2, 2),
                tile: Tile {
                    width: 1,
                    height: 1,
                    pixels: vec![0, 0, 0]
                }
            }
            .name(),
            "PFILL"
        );
    }

    #[test]
    fn translate_moves_dest() {
        let mut c = raw(4, 4);
        c.translate(10, 20);
        assert_eq!(c.dest_rect(), Rect::new(10, 20, 4, 4));
        let mut copy = DisplayCommand::Copy {
            src_rect: Rect::new(0, 0, 2, 2),
            dst_x: 5,
            dst_y: 5,
        };
        copy.translate(1, 1);
        assert_eq!(copy.dest_rect(), Rect::new(6, 6, 2, 2));
    }
}
