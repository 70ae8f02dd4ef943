//! The THINC client.
//!
//! Executes protocol messages against a local framebuffer. The client
//! holds only transient soft state: everything it knows arrived over
//! the wire, so after any message sequence its framebuffer must be
//! byte-identical to the server's screen (modulo in-flight updates) —
//! the property the integration tests verify.

use std::collections::HashMap;

use thinc_protocol::commands::{DisplayCommand, RawEncoding};
use thinc_protocol::message::Message;
use thinc_raster::{Framebuffer, PixelFormat, Rect, YuvFormat};
pub use thinc_telemetry::ClientStats;

use crate::hardware::{ClientHardware, HardwareCaps};

/// Largest width or height the client will honor for wire-controlled
/// geometry (video destinations, pattern tiles). These dimensions
/// drive local allocations, so a corrupted or hostile message must not
/// be able to request gigabytes; anything past an 8K screen is bogus.
const MAX_WIRE_DIM: u32 = 8_192;

/// Whether wire-supplied dimensions are usable for allocation.
fn sane_dims(w: u32, h: u32) -> bool {
    (1..=MAX_WIRE_DIM).contains(&w) && (1..=MAX_WIRE_DIM).contains(&h)
}

/// A video overlay the client is currently showing.
#[derive(Debug, Clone)]
struct Overlay {
    format: YuvFormat,
    src_width: u32,
    src_height: u32,
    dst: Rect,
    frames_shown: u32,
    last_timestamp_us: u64,
}

/// A THINC client with a local framebuffer.
#[derive(Debug)]
pub struct ThincClient {
    fb: Framebuffer,
    hw: ClientHardware,
    overlays: HashMap<u32, Overlay>,
    stats: ClientStats,
    audio_timestamps: Vec<u64>,
    cursor: crate::cursor::CursorState,
    pending_pong: Option<Message>,
    /// Decode buffer reused from one compressed `RAW` to the next.
    decode: thinc_compress::DecodeScratch,
}

impl ThincClient {
    /// Creates a client whose framebuffer is `width`×`height` in
    /// `format` (the viewport geometry it announced to the server).
    pub fn new(width: u32, height: u32, format: PixelFormat) -> Self {
        Self::with_hardware(width, height, format, HardwareCaps::commodity())
    }

    /// Creates a client with explicit hardware capabilities.
    pub fn with_hardware(width: u32, height: u32, format: PixelFormat, caps: HardwareCaps) -> Self {
        Self {
            fb: Framebuffer::new(width, height, format),
            hw: ClientHardware::new(caps),
            overlays: HashMap::new(),
            stats: ClientStats::default(),
            audio_timestamps: Vec::new(),
            cursor: crate::cursor::CursorState::new(),
            pending_pong: None,
            decode: thinc_compress::DecodeScratch::new(),
        }
    }

    /// Takes the heartbeat reply owed to the server, if a
    /// [`Message::Ping`] was applied since the last call. The caller
    /// owns the uplink and sends it.
    pub fn take_pong(&mut self) -> Option<Message> {
        self.pending_pong.take()
    }

    /// The client's framebuffer.
    pub fn framebuffer(&self) -> &Framebuffer {
        &self.fb
    }

    /// Execution statistics.
    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    /// The hardware cost model (client processing time accounting).
    pub fn hardware(&self) -> &ClientHardware {
        &self.hw
    }

    /// The hardware cost model, mutably (reset between phases).
    pub fn hardware_mut(&mut self) -> &mut ClientHardware {
        &mut self.hw
    }

    /// Timestamps of received audio packets (A/V sync verification).
    pub fn audio_timestamps(&self) -> &[u64] {
        &self.audio_timestamps
    }

    /// The cursor overlay state.
    pub fn cursor(&self) -> &crate::cursor::CursorState {
        &self.cursor
    }

    /// The image to present: framebuffer with the cursor composited
    /// over it (save-under; the base framebuffer is unmodified).
    pub fn presented(&self) -> Framebuffer {
        self.cursor.present(&self.fb)
    }

    /// Applies one protocol message.
    pub fn apply(&mut self, msg: &Message) {
        self.stats.messages += 1;
        match msg {
            // Handshake traffic (including the client-originated
            // resume request) carries no drawing.
            Message::ServerHello { .. }
            | Message::ClientHello { .. }
            | Message::SessionResume { .. } => {}
            Message::Display(cmd) => self.execute(cmd),
            Message::VideoInit {
                id,
                format,
                src_width,
                src_height,
                dst,
            } => {
                // Stream geometry is wire-controlled and sizes local
                // buffers; reject corrupt values up front.
                if !sane_dims(*src_width, *src_height) || !sane_dims(dst.w, dst.h) {
                    self.stats.errors += 1;
                    return;
                }
                self.overlays.insert(
                    *id,
                    Overlay {
                        format: *format,
                        src_width: *src_width,
                        src_height: *src_height,
                        dst: *dst,
                        frames_shown: 0,
                        last_timestamp_us: 0,
                    },
                );
            }
            Message::VideoData {
                id,
                timestamp_us,
                data,
                ..
            } => {
                let Some(ov) = self.overlays.get_mut(id) else {
                    self.stats.errors += 1;
                    return;
                };
                let expected = ov.format.frame_size(ov.src_width, ov.src_height);
                if data.len() != expected {
                    self.stats.errors += 1;
                    return;
                }
                ov.frames_shown += 1;
                ov.last_timestamp_us = *timestamp_us;
                let (dst, sw, sh, fmt) = (ov.dst, ov.src_width, ov.src_height, ov.format);
                // The overlay "hardware": colorspace-convert and scale
                // onto the destination rectangle, clipped to the
                // screen first — `dst` is wire-controlled and must not
                // size the work.
                thinc_raster::yuv::blit(fmt, sw, sh, data, &mut self.fb, &dst);
                self.hw.video(sw as u64 * sh as u64, dst.area());
                self.stats.video_frames += 1;
            }
            Message::VideoMove { id, dst } => {
                if !sane_dims(dst.w, dst.h) {
                    self.stats.errors += 1;
                    return;
                }
                if let Some(ov) = self.overlays.get_mut(id) {
                    ov.dst = *dst;
                } else {
                    self.stats.errors += 1;
                }
            }
            Message::VideoEnd { id } => {
                self.overlays.remove(id);
            }
            Message::Audio {
                timestamp_us, data, ..
            } => {
                self.stats.audio_bytes += data.len() as u64;
                self.audio_timestamps.push(*timestamp_us);
            }
            Message::CursorShape {
                width,
                height,
                hot_x,
                hot_y,
                pixels,
            } => {
                if !self.cursor.set_shape(*width, *height, *hot_x, *hot_y, pixels) {
                    self.stats.errors += 1;
                }
            }
            Message::CursorMove { x, y } => {
                self.cursor.move_to(*x, *y);
            }
            Message::Ping { seq, timestamp_us } => {
                self.pending_pong = Some(Message::Pong {
                    seq: *seq,
                    timestamp_us: *timestamp_us,
                });
            }
            Message::CacheRef { .. } => {
                // Cache references are resolved by the stream layer
                // (`StreamClient`) against its content store before the
                // resolved payload is applied here; an unresolved
                // reference reaching the raw client is a no-op.
            }
            Message::Input(_)
            | Message::Resize { .. }
            | Message::SetView { .. }
            | Message::Pong { .. }
            | Message::RefreshRequest { .. }
            | Message::CacheMiss { .. } => {
                // Client-originated; ignore if echoed.
            }
        }
    }

    /// Executes one display command on the local framebuffer.
    fn execute(&mut self, cmd: &DisplayCommand) {
        match cmd {
            DisplayCommand::Raw {
                rect,
                encoding,
                data,
            } => {
                let bpp = self.fb.format().bytes_per_pixel();
                let needed = rect.area() as usize * bpp;
                let pixels: Option<&[u8]> = match encoding {
                    RawEncoding::None => Some(data),
                    RawEncoding::PngLike => {
                        self.hw.decompress(data.len() as u64);
                        let stride = rect.w as usize * bpp;
                        // `needed` bounds the output: a stream that
                        // asks for more is refused before it is made.
                        thinc_compress::pnglike::decompress_into(
                            data,
                            bpp,
                            stride,
                            needed,
                            &mut self.decode,
                        )
                    }
                };
                let Some(pixels) = pixels.filter(|p| p.len() >= needed) else {
                    self.stats.errors += 1;
                    return;
                };
                self.fb.put_raw(rect, pixels);
                self.hw.put(rect.area());
                self.stats.raw += 1;
            }
            DisplayCommand::Copy {
                src_rect,
                dst_x,
                dst_y,
            } => {
                self.fb.copy_rect(src_rect, *dst_x, *dst_y);
                self.hw.copy(src_rect.area());
                self.stats.copy += 1;
            }
            DisplayCommand::Sfill { rect, color } => {
                self.fb.fill_rect(rect, *color);
                self.hw.fill(rect.area());
                self.stats.sfill += 1;
            }
            DisplayCommand::Pfill { rect, tile } => {
                if !sane_dims(tile.width, tile.height)
                    || tile.pixels.len()
                        < tile.width as usize
                            * tile.height as usize
                            * self.fb.format().bytes_per_pixel()
                {
                    self.stats.errors += 1;
                    return;
                }
                let mut t = Framebuffer::new(tile.width, tile.height, self.fb.format());
                t.put_raw(&Rect::new(0, 0, tile.width, tile.height), &tile.pixels);
                self.fb.tile_rect(rect, &t);
                self.hw.pattern(rect.area());
                self.stats.pfill += 1;
            }
            DisplayCommand::Bitmap { rect, bits, fg, bg } => {
                let row_bytes = (rect.w as usize).div_ceil(8);
                if bits.len() < row_bytes * rect.h as usize {
                    self.stats.errors += 1;
                    return;
                }
                self.fb.bitmap_rect(rect, bits, *fg, *bg);
                self.hw.pattern(rect.area());
                self.stats.bitmap += 1;
            }
        }
    }

    /// Applies a batch of messages in order.
    pub fn apply_all<'a>(&mut self, msgs: impl IntoIterator<Item = &'a Message>) {
        for m in msgs {
            self.apply(m);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thinc_protocol::commands::Tile;
    use thinc_raster::{Color, YuvFrame};

    fn client() -> ThincClient {
        ThincClient::new(64, 64, PixelFormat::Rgb888)
    }

    #[test]
    fn executes_sfill() {
        let mut c = client();
        c.apply(&Message::Display(DisplayCommand::Sfill {
            rect: Rect::new(0, 0, 8, 8),
            color: Color::rgb(1, 2, 3),
        }));
        assert_eq!(c.framebuffer().get_pixel(4, 4), Some(Color::rgb(1, 2, 3)));
        assert_eq!(c.stats().sfill, 1);
    }

    #[test]
    fn executes_compressed_raw() {
        let mut c = client();
        let pixels = vec![9u8; 16 * 16 * 3];
        let packed = thinc_compress::pnglike::compress(&pixels, 3, 48);
        c.apply(&Message::Display(DisplayCommand::Raw {
            rect: Rect::new(0, 0, 16, 16),
            encoding: RawEncoding::PngLike,
            data: packed.into(),
        }));
        assert_eq!(c.framebuffer().get_pixel(8, 8), Some(Color::rgb(9, 9, 9)));
        assert_eq!(c.stats().errors, 0);
    }

    #[test]
    fn corrupt_compressed_raw_counts_error() {
        let mut c = client();
        c.apply(&Message::Display(DisplayCommand::Raw {
            rect: Rect::new(0, 0, 16, 16),
            encoding: RawEncoding::PngLike,
            data: vec![0xFF, 0x22].into(),
        }));
        assert_eq!(c.stats().errors, 1);
    }

    #[test]
    fn compressed_raw_declaring_more_than_its_rectangle_counts_error() {
        // One literal, then a match whose length extension asks for
        // 255 bytes per byte of chain: ~250 KB for a 768-byte rectangle.
        let mut bomb = vec![0b10, 0, 0x0F, 0x00];
        bomb.extend(std::iter::repeat_n(0xFF, 990));
        bomb.push(0);
        let mut c = client();
        c.apply(&Message::Display(DisplayCommand::Raw {
            rect: Rect::new(0, 0, 16, 16),
            encoding: RawEncoding::PngLike,
            data: bomb.into(),
        }));
        assert_eq!(c.stats().errors, 1);
        assert_eq!(c.stats().raw, 0);
        assert!(c.decode.capacity() <= 16 * 16 * 3 + 16);
    }

    #[test]
    fn short_raw_rejected() {
        let mut c = client();
        c.apply(&Message::Display(DisplayCommand::Raw {
            rect: Rect::new(0, 0, 16, 16),
            encoding: RawEncoding::None,
            data: vec![0; 10].into(),
        }));
        assert_eq!(c.stats().errors, 1);
    }

    #[test]
    fn copy_scrolls_locally() {
        let mut c = client();
        c.apply(&Message::Display(DisplayCommand::Sfill {
            rect: Rect::new(0, 0, 64, 8),
            color: Color::WHITE,
        }));
        c.apply(&Message::Display(DisplayCommand::Copy {
            src_rect: Rect::new(0, 0, 64, 8),
            dst_x: 0,
            dst_y: 32,
        }));
        assert_eq!(c.framebuffer().get_pixel(10, 36), Some(Color::WHITE));
    }

    #[test]
    fn video_stream_lifecycle() {
        let mut c = client();
        let frame = YuvFrame::new(YuvFormat::Yv12, 8, 8);
        c.apply(&Message::VideoInit {
            id: 0,
            format: YuvFormat::Yv12,
            src_width: 8,
            src_height: 8,
            dst: Rect::new(0, 0, 32, 32),
        });
        c.apply(&Message::VideoData {
            id: 0,
            seq: 0,
            timestamp_us: 0,
            data: frame.data.clone().into(),
        });
        assert_eq!(c.stats().video_frames, 1);
        // Zeroed YV12 decodes to green-ish; just check it drew.
        assert!(c.framebuffer().get_pixel(16, 16).is_some());
        c.apply(&Message::VideoEnd { id: 0 });
        // Frames for dead streams are errors.
        c.apply(&Message::VideoData {
            id: 0,
            seq: 1,
            timestamp_us: 1,
            data: frame.data.into(),
        });
        assert_eq!(c.stats().errors, 1);
    }

    #[test]
    fn video_wrong_size_rejected() {
        let mut c = client();
        c.apply(&Message::VideoInit {
            id: 0,
            format: YuvFormat::Yv12,
            src_width: 8,
            src_height: 8,
            dst: Rect::new(0, 0, 8, 8),
        });
        c.apply(&Message::VideoData {
            id: 0,
            seq: 0,
            timestamp_us: 0,
            data: vec![0; 5].into(),
        });
        assert_eq!(c.stats().errors, 1);
        assert_eq!(c.stats().video_frames, 0);
    }

    #[test]
    fn audio_recorded() {
        let mut c = client();
        c.apply(&Message::Audio {
            seq: 0,
            timestamp_us: 123,
            data: vec![0; 100].into(),
        });
        assert_eq!(c.stats().audio_bytes, 100);
        assert_eq!(c.audio_timestamps(), &[123]);
    }

    #[test]
    fn bad_pfill_rejected() {
        let mut c = client();
        c.apply(&Message::Display(DisplayCommand::Pfill {
            rect: Rect::new(0, 0, 8, 8),
            tile: Tile {
                width: 0,
                height: 0,
                pixels: vec![],
            },
        }));
        assert_eq!(c.stats().errors, 1);
    }

    #[test]
    fn absurd_wire_geometry_rejected() {
        let mut c = client();
        // A corrupted VideoInit must not size local buffers.
        c.apply(&Message::VideoInit {
            id: 0,
            format: YuvFormat::Yv12,
            src_width: u32::MAX,
            src_height: 8,
            dst: Rect::new(0, 0, 8, 8),
        });
        assert_eq!(c.stats().errors, 1);
        c.apply(&Message::VideoInit {
            id: 1,
            format: YuvFormat::Yv12,
            src_width: 8,
            src_height: 8,
            dst: Rect::new(0, 0, u32::MAX, u32::MAX),
        });
        assert_eq!(c.stats().errors, 2);
        // Same for a VideoMove onto a live stream.
        c.apply(&Message::VideoInit {
            id: 2,
            format: YuvFormat::Yv12,
            src_width: 8,
            src_height: 8,
            dst: Rect::new(0, 0, 8, 8),
        });
        c.apply(&Message::VideoMove {
            id: 2,
            dst: Rect::new(0, 0, 0, u32::MAX),
        });
        assert_eq!(c.stats().errors, 3);
        // And for an oversized pattern tile.
        c.apply(&Message::Display(DisplayCommand::Pfill {
            rect: Rect::new(0, 0, 8, 8),
            tile: Tile {
                width: u32::MAX,
                height: u32::MAX,
                pixels: vec![0; 16],
            },
        }));
        assert_eq!(c.stats().errors, 4);
    }

    /// A textured 16×12 YV12 stream shown at `dst` on a 64×48 viewer.
    fn overlay_at(dst: Rect) -> (ThincClient, YuvFrame) {
        let mut rgb = Framebuffer::new(16, 12, PixelFormat::Rgb888);
        for (x, y) in (0..16).flat_map(|x| (0..12).map(move |y| (x, y))) {
            rgb.set_pixel(x, y, Color::rgb(x as u8 * 16, y as u8 * 21, (x * y) as u8));
        }
        let frame = YuvFrame::from_rgb(&rgb, &rgb.bounds(), YuvFormat::Yv12);
        let mut c = ThincClient::new(64, 48, PixelFormat::Rgb888);
        c.apply(&Message::Display(DisplayCommand::Sfill {
            rect: Rect::new(0, 0, 64, 48),
            color: Color::rgb(1, 2, 3),
        }));
        c.apply(&Message::VideoInit {
            id: 0,
            format: YuvFormat::Yv12,
            src_width: 16,
            src_height: 12,
            dst,
        });
        c.apply(&Message::VideoData {
            id: 0,
            seq: 0,
            timestamp_us: 0,
            data: frame.data.clone().into(),
        });
        (c, frame)
    }

    #[test]
    fn oversized_overlay_costs_the_screen_not_the_claim() {
        // The largest `dst` the wire may announce, hanging off the
        // top-left corner: 67 M pixels claimed, 3 072 on the screen.
        // (Converting all of `dst` first — two ≈ 200 MB buffers — is
        // what this used to do.) Each screen pixel is the reference's
        // pixel: nearest source sample through the scalar conversion.
        let dst = Rect::new(-5_000, -3_000, MAX_WIRE_DIM, MAX_WIRE_DIM);
        let (c, frame) = overlay_at(dst);
        assert_eq!((c.stats().errors, c.stats().video_frames), (0, 1));
        for (x, y) in (0..64).flat_map(|x| (0..48).map(move |y| (x, y))) {
            let sx = (x - dst.x) as u64 * 16 / dst.w as u64;
            let sy = (y - dst.y) as u64 * 12 / dst.h as u64;
            let (yy, u, v) = frame.yuv_at(sx as u32, sy as u32);
            let want = thinc_raster::yuv::yuv_to_rgb(yy, u, v);
            assert_eq!(c.framebuffer().get_pixel(x, y), Some(want), "({x}, {y})");
        }
    }

    #[test]
    fn offscreen_overlay_is_a_no_op() {
        for dst in [
            Rect::new(64, 0, 32, 24),
            Rect::new(-8_192, -8_192, MAX_WIRE_DIM, MAX_WIRE_DIM),
            Rect::new(i32::MAX, i32::MAX, MAX_WIRE_DIM, MAX_WIRE_DIM),
        ] {
            let (c, _) = overlay_at(dst);
            assert_eq!((c.stats().errors, c.stats().video_frames), (0, 1));
            let untouched = c.framebuffer().data().chunks(3).all(|px| px == [1, 2, 3]);
            assert!(untouched, "{dst:?} painted the screen");
        }
    }

    #[test]
    fn ping_produces_pong() {
        let mut c = client();
        assert_eq!(c.take_pong(), None);
        c.apply(&Message::Ping {
            seq: 3,
            timestamp_us: 777,
        });
        assert_eq!(
            c.take_pong(),
            Some(Message::Pong {
                seq: 3,
                timestamp_us: 777
            })
        );
        // Consumed: a second take returns nothing.
        assert_eq!(c.take_pong(), None);
    }
}
