//! The window server.
//!
//! Processes application [`DrawRequest`]s: every operation is
//! rasterized into the real drawable contents (so the screen is always
//! ground truth, byte-comparable with a remote client's framebuffer),
//! and mirrored to the attached [`VideoDriver`] with full semantic
//! information — the interception point THINC is built on.
//!
//! The server deliberately performs rasterization *itself* (like the
//! X fb layer) rather than delegating to the driver: THINC's virtual
//! driver never touches local hardware, and software fallbacks (§3)
//! come for free.

use thinc_raster::{Framebuffer, Rect, Region};

use crate::drawable::{DrawableId, DrawableStore, SCREEN};
use crate::driver::VideoDriver;
use crate::input::{InputEvent, InputTracker};
use crate::request::{DrawRequest, RequestResult};
use crate::text;

/// Cumulative counters of processed work (drives CPU-cost models in
/// the benchmark harness).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Requests processed.
    pub requests: u64,
    /// Pixels rasterized (across all drawables).
    pub pixels_drawn: u64,
    /// Requests that targeted offscreen pixmaps.
    pub offscreen_requests: u64,
    /// Video frames displayed.
    pub video_frames: u64,
}

/// The window server: drawables + driver + input tracking.
pub struct WindowServer<D: VideoDriver> {
    drawables: DrawableStore,
    driver: D,
    input: InputTracker,
    stats: ServerStats,
    /// Onscreen area touched since the last [`Self::take_screen_damage`].
    screen_damage: Region,
}

impl<D: VideoDriver> WindowServer<D> {
    /// Creates a server with a `width`×`height` screen and `driver`
    /// attached at the device layer.
    pub fn new(width: u32, height: u32, format: thinc_raster::PixelFormat, driver: D) -> Self {
        Self {
            drawables: DrawableStore::new(width, height, format),
            driver,
            input: InputTracker::new(),
            stats: ServerStats::default(),
            screen_damage: Region::new(),
        }
    }

    /// The drawable store (screen + pixmaps).
    pub fn drawables(&self) -> &DrawableStore {
        &self.drawables
    }

    /// The visible screen framebuffer.
    pub fn screen(&self) -> &Framebuffer {
        self.drawables.screen()
    }

    /// The attached driver.
    pub fn driver(&self) -> &D {
        &self.driver
    }

    /// The attached driver, mutably (protocol servers live here).
    pub fn driver_mut(&mut self) -> &mut D {
        &mut self.driver
    }

    /// The attached driver, mutably, beside the screen: for a driver
    /// call that reads the screen (a protocol server answering its
    /// client with a refresh).
    pub fn driver_and_screen(&mut self) -> (&mut D, &Framebuffer) {
        (&mut self.driver, self.drawables.screen())
    }

    /// Work counters.
    pub fn stats(&self) -> ServerStats {
        self.stats
    }

    /// The input tracker (real-time region source).
    pub fn input(&self) -> &InputTracker {
        &self.input
    }

    /// Delivers a user input event.
    pub fn handle_input(&mut self, ev: InputEvent) {
        self.input.observe(ev);
    }

    /// Takes and clears the accumulated onscreen damage region.
    pub fn take_screen_damage(&mut self) -> Region {
        std::mem::take(&mut self.screen_damage)
    }

    fn note_damage(&mut self, target: DrawableId, r: &Rect) {
        if target.is_screen() {
            let clip = r.intersection(&self.drawables.screen().bounds());
            self.screen_damage.union_rect(&clip);
        } else {
            self.stats.offscreen_requests += 1;
        }
        self.stats.pixels_drawn += r.area();
    }

    /// Processes one request, returning what happened.
    pub fn process(&mut self, req: DrawRequest) -> RequestResult {
        self.stats.requests += 1;
        match req {
            DrawRequest::CreatePixmap { width, height } => {
                let id = self.drawables.create_pixmap(width, height);
                self.driver.create_pixmap(&self.drawables, id, width, height);
                RequestResult::Created(id)
            }
            DrawRequest::FreePixmap { id } => {
                // Notify before the contents disappear.
                self.driver.free_pixmap(&self.drawables, id);
                self.drawables.free_pixmap(id);
                RequestResult::Done
            }
            DrawRequest::FillRect { target, rect, color } => {
                let Some(fb) = self.drawables.get_mut(target) else {
                    return RequestResult::BadDrawable;
                };
                fb.fill_rect(&rect, color);
                self.note_damage(target, &rect);
                self.driver.solid_fill(&self.drawables, target, rect, color);
                RequestResult::Done
            }
            DrawRequest::TileRect { target, rect, tile } => {
                if self.drawables.get(tile).filter(|t| t.width() > 0 && t.height() > 0).is_none() {
                    return RequestResult::BadDrawable;
                }
                // A drawable tiled with itself keeps every pixel (the
                // phase anchors at its own origin); any other tile is
                // borrowed beside the target, not copied.
                if tile != target {
                    let Some((tile_fb, fb)) = self.drawables.get_pair_mut(tile, target) else {
                        return RequestResult::BadDrawable;
                    };
                    fb.tile_rect(&rect, tile_fb);
                }
                self.note_damage(target, &rect);
                let tile_fb = self.drawables.get(tile).expect("looked up above");
                self.driver.pattern_fill(&self.drawables, target, rect, tile_fb);
                RequestResult::Done
            }
            DrawRequest::StippleRect {
                target,
                rect,
                bits,
                fg,
                bg,
            } => {
                let Some(fb) = self.drawables.get_mut(target) else {
                    return RequestResult::BadDrawable;
                };
                fb.bitmap_rect(&rect, &bits, fg, bg);
                self.note_damage(target, &rect);
                self.driver
                    .stipple_fill(&self.drawables, target, rect, &bits, fg, bg);
                RequestResult::Done
            }
            DrawRequest::CopyArea {
                src,
                dst,
                src_rect,
                dst_x,
                dst_y,
            } => {
                if src == dst {
                    let Some(fb) = self.drawables.get_mut(src) else {
                        return RequestResult::BadDrawable;
                    };
                    fb.copy_rect(&src_rect, dst_x, dst_y);
                } else {
                    let Some((s, d)) = self.drawables.get_pair_mut(src, dst) else {
                        return RequestResult::BadDrawable;
                    };
                    d.copy_from(s, &src_rect, dst_x, dst_y);
                }
                let dst_rect = Rect::new(dst_x, dst_y, src_rect.w, src_rect.h);
                self.note_damage(dst, &dst_rect);
                self.driver
                    .copy_area(&self.drawables, src, dst, src_rect, dst_x, dst_y);
                RequestResult::Done
            }
            DrawRequest::PutImage { target, rect, data } => {
                let Some(fb) = self.drawables.get_mut(target) else {
                    return RequestResult::BadDrawable;
                };
                let needed = rect.w as usize * rect.h as usize * fb.format().bytes_per_pixel();
                if data.len() < needed {
                    return RequestResult::BadDrawable;
                }
                fb.put_raw(&rect, &data);
                self.note_damage(target, &rect);
                self.driver.put_image(&self.drawables, target, rect, &data);
                RequestResult::Done
            }
            DrawRequest::Text {
                target,
                x,
                y,
                text: string,
                fg,
            } => {
                // Expand to stipple runs (one per line), as core text
                // does at the device layer.
                for run in text::layout(&string, x, y) {
                    let Some(fb) = self.drawables.get_mut(target) else {
                        return RequestResult::BadDrawable;
                    };
                    fb.bitmap_rect(&run.rect, &run.bits, fg, None);
                    self.note_damage(target, &run.rect);
                    self.driver
                        .stipple_fill(&self.drawables, target, run.rect, &run.bits, fg, None);
                }
                RequestResult::Done
            }
            DrawRequest::Composite {
                target,
                rect,
                data,
                op,
            } => {
                let Some(fb) = self.drawables.get(target) else {
                    return RequestResult::BadDrawable;
                };
                let needed = rect.area() as usize * 4;
                if data.len() < needed {
                    return RequestResult::BadDrawable;
                }
                // Build the RGBA source and composite in software
                // (THINC's fallback path: the server CPU renders for
                // clients without compositing hardware, §3).
                let mut src = Framebuffer::new(rect.w, rect.h, thinc_raster::PixelFormat::Rgba8888);
                src.put_raw(&Rect::new(0, 0, rect.w, rect.h), &data);
                let _ = fb;
                let fb = self.drawables.get_mut(target).expect("checked above");
                thinc_raster::composite_rect(
                    fb,
                    &src,
                    &Rect::new(0, 0, rect.w, rect.h),
                    rect.x,
                    rect.y,
                    op,
                );
                self.note_damage(target, &rect);
                self.driver
                    .composite(&self.drawables, target, rect, &data, op);
                RequestResult::Done
            }
            DrawRequest::VideoPut { frame, dst } => {
                // Rasterize through the software path (server ground
                // truth), then hand the *encoded frame* to the driver,
                // exactly as XVideo hands YUV data to the device. At
                // native size the frame converts straight onto the
                // screen. Scaling uses the smooth (Fant) resampler: a
                // player's software path interpolates, so scaled video
                // pixels are not byte-replicated (which would make
                // scraped video unrealistically compressible).
                let format = self.drawables.format();
                let screen = self.drawables.screen_mut();
                if dst.w == frame.width && dst.h == frame.height {
                    let (w, h) = (frame.width, frame.height);
                    thinc_raster::yuv::blit(frame.format, w, h, &frame.data, screen, &dst);
                } else {
                    let native = frame.to_rgb_scaled(frame.width, frame.height, format);
                    let rgb = thinc_raster::scale_image(
                        &native,
                        dst.w,
                        dst.h,
                        thinc_raster::ScaleFilter::Fant,
                    );
                    screen.put_raw(&dst, rgb.data());
                }
                self.note_damage(SCREEN, &dst);
                self.stats.video_frames += 1;
                self.driver.video_display(&self.drawables, &frame, dst);
                RequestResult::Done
            }
        }
    }

    /// Processes a batch of requests, returning each result.
    pub fn process_all(&mut self, reqs: Vec<DrawRequest>) -> Vec<RequestResult> {
        reqs.into_iter().map(|r| self.process(r)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{NullDriver, RecordedOp, RecordingDriver};
    use thinc_raster::{Color, PixelFormat, YuvFormat, YuvFrame};

    fn server() -> WindowServer<RecordingDriver> {
        WindowServer::new(64, 48, PixelFormat::Rgb888, RecordingDriver::default())
    }

    #[test]
    fn fill_rasterizes_and_notifies() {
        let mut s = server();
        s.process(DrawRequest::FillRect {
            target: SCREEN,
            rect: Rect::new(1, 1, 4, 4),
            color: Color::WHITE,
        });
        assert_eq!(s.screen().get_pixel(2, 2), Some(Color::WHITE));
        assert_eq!(
            s.driver().ops,
            vec![RecordedOp::SolidFill(SCREEN, Rect::new(1, 1, 4, 4), Color::WHITE)]
        );
    }

    #[test]
    fn offscreen_flow_create_draw_copy_onscreen() {
        let mut s = server();
        let RequestResult::Created(pm) = s.process(DrawRequest::CreatePixmap {
            width: 8,
            height: 8,
        }) else {
            panic!("expected Created");
        };
        s.process(DrawRequest::FillRect {
            target: pm,
            rect: Rect::new(0, 0, 8, 8),
            color: Color::rgb(9, 9, 9),
        });
        // Offscreen draw produces no screen damage.
        assert!(s.take_screen_damage().is_empty());
        s.process(DrawRequest::CopyArea {
            src: pm,
            dst: SCREEN,
            src_rect: Rect::new(0, 0, 8, 8),
            dst_x: 10,
            dst_y: 10,
        });
        assert_eq!(s.screen().get_pixel(12, 12), Some(Color::rgb(9, 9, 9)));
        assert_eq!(s.take_screen_damage().bounds(), Rect::new(10, 10, 8, 8));
        // Driver saw create, offscreen fill (with semantics), copy.
        assert!(matches!(s.driver().ops[0], RecordedOp::CreatePixmap(..)));
        assert!(matches!(s.driver().ops[1], RecordedOp::SolidFill(id, ..) if id == pm));
        assert!(matches!(s.driver().ops[2], RecordedOp::CopyArea(..)));
    }

    #[test]
    fn copy_between_drawables_clips_at_both_ends_and_keeps_offsets() {
        let mut s = server();
        let RequestResult::Created(pm) = s.process(DrawRequest::CreatePixmap { width: 8, height: 8 })
        else {
            panic!("expected Created");
        };
        s.process(DrawRequest::FillRect { target: pm, rect: Rect::new(0, 0, 8, 8), color: Color::WHITE });
        // The source rectangle hangs off the pixmap's top-left corner
        // by two pixels, and the landing point off the screen's bottom.
        s.process(DrawRequest::CopyArea {
            src: pm,
            dst: SCREEN,
            src_rect: Rect::new(-2, -2, 10, 10),
            dst_x: 20,
            dst_y: 42,
        });
        let white = |x, y| s.screen().get_pixel(x, y) == Some(Color::WHITE);
        assert!(!white(21, 44) && !white(22, 43), "the clipped-off margin is not painted");
        assert!(white(22, 44) && white(29, 47));
        assert!(!white(30, 44));
    }

    #[test]
    fn tile_rect_borrows_its_tile_and_a_drawable_tiled_with_itself_is_unchanged() {
        let mut s = server();
        let RequestResult::Created(pm) = s.process(DrawRequest::CreatePixmap { width: 2, height: 1 })
        else {
            panic!("expected Created");
        };
        let (a, b) = (Color::rgb(1, 2, 3), Color::rgb(9, 8, 7));
        s.process(DrawRequest::FillRect { target: pm, rect: Rect::new(0, 0, 1, 1), color: a });
        s.process(DrawRequest::FillRect { target: pm, rect: Rect::new(1, 0, 1, 1), color: b });
        let tiled = s.process(DrawRequest::TileRect { target: SCREEN, rect: Rect::new(4, 4, 6, 2), tile: pm });
        assert_eq!(tiled, RequestResult::Done);
        assert_eq!(s.screen().get_pixel(4, 5), Some(a));
        assert_eq!(s.screen().get_pixel(7, 4), Some(b));
        assert!(matches!(s.driver().ops.last(), Some(RecordedOp::PatternFill(SCREEN, _, 2, 1))));
        // Tiled with itself a drawable keeps every pixel.
        let before = s.screen().clone();
        let own = DrawRequest::TileRect { target: SCREEN, rect: Rect::new(3, 3, 9, 9), tile: SCREEN };
        assert_eq!(s.process(own), RequestResult::Done);
        assert_eq!(s.screen().data(), before.data());
        assert!(matches!(s.driver().ops.last(), Some(RecordedOp::PatternFill(SCREEN, _, 64, 48))));
        let unknown = DrawRequest::TileRect { target: SCREEN, rect: Rect::new(0, 0, 1, 1), tile: DrawableId(99) };
        assert_eq!(s.process(unknown), RequestResult::BadDrawable);
    }

    #[test]
    fn copy_within_screen_scrolls() {
        let mut s = server();
        s.process(DrawRequest::FillRect {
            target: SCREEN,
            rect: Rect::new(0, 0, 64, 8),
            color: Color::WHITE,
        });
        s.process(DrawRequest::CopyArea {
            src: SCREEN,
            dst: SCREEN,
            src_rect: Rect::new(0, 0, 64, 8),
            dst_x: 0,
            dst_y: 8,
        });
        assert_eq!(s.screen().get_pixel(0, 12), Some(Color::WHITE));
    }

    #[test]
    fn text_becomes_stipples() {
        let mut s = server();
        s.process(DrawRequest::Text {
            target: SCREEN,
            x: 4,
            y: 4,
            text: "hi".into(),
            fg: Color::BLACK,
        });
        assert_eq!(s.driver().ops.len(), 1);
        assert!(matches!(
            s.driver().ops[0],
            RecordedOp::StippleFill(SCREEN, r, _, None) if r.w == 16 && r.h == 8
        ));
    }

    #[test]
    fn video_put_rasterizes_scaled() {
        let mut s = server();
        let mut src = Framebuffer::new(4, 4, PixelFormat::Rgb888);
        src.fill_rect(&Rect::new(0, 0, 4, 4), Color::rgb(200, 50, 50));
        let frame = YuvFrame::from_rgb(&src, &Rect::new(0, 0, 4, 4), YuvFormat::Yv12);
        s.process(DrawRequest::VideoPut {
            frame,
            dst: Rect::new(0, 0, 32, 32),
        });
        let c = s.screen().get_pixel(16, 16).unwrap();
        assert!(c.r > 150, "{c:?}");
        assert_eq!(s.stats().video_frames, 1);
        assert!(matches!(s.driver().ops[0], RecordedOp::VideoDisplay(4, 4, _)));
    }

    #[test]
    fn composite_blends_in_software() {
        let mut s = WindowServer::new(16, 16, PixelFormat::Rgba8888, RecordingDriver::default());
        s.process(DrawRequest::FillRect {
            target: SCREEN,
            rect: Rect::new(0, 0, 16, 16),
            color: Color::rgba(0, 0, 0, 255),
        });
        // A half-transparent white square over black → mid grey.
        let data = vec![255u8, 255, 255, 128]
            .into_iter()
            .cycle()
            .take(8 * 8 * 4)
            .collect();
        s.process(DrawRequest::Composite {
            target: SCREEN,
            rect: Rect::new(4, 4, 8, 8),
            data,
            op: thinc_raster::CompositeOp::Over,
        });
        let c = s.screen().get_pixel(8, 8).unwrap();
        assert!((c.r as i32 - 128).abs() <= 2, "{c:?}");
        assert!(matches!(
            s.driver().ops.last(),
            Some(RecordedOp::Composite(SCREEN, _, thinc_raster::CompositeOp::Over, _))
        ));
    }

    #[test]
    fn composite_short_data_rejected() {
        let mut s = server();
        let r = s.process(DrawRequest::Composite {
            target: SCREEN,
            rect: Rect::new(0, 0, 8, 8),
            data: vec![0; 10],
            op: thinc_raster::CompositeOp::Over,
        });
        assert_eq!(r, RequestResult::BadDrawable);
    }

    #[test]
    fn bad_drawable_reported() {
        let mut s = server();
        let r = s.process(DrawRequest::FillRect {
            target: DrawableId(77),
            rect: Rect::new(0, 0, 1, 1),
            color: Color::WHITE,
        });
        assert_eq!(r, RequestResult::BadDrawable);
    }

    #[test]
    fn put_image_validates_length() {
        let mut s = server();
        let r = s.process(DrawRequest::PutImage {
            target: SCREEN,
            rect: Rect::new(0, 0, 4, 4),
            data: vec![0; 5],
        });
        assert_eq!(r, RequestResult::BadDrawable);
    }

    #[test]
    fn stats_accumulate() {
        let mut s = WindowServer::new(32, 32, PixelFormat::Rgb888, NullDriver);
        s.process(DrawRequest::FillRect {
            target: SCREEN,
            rect: Rect::new(0, 0, 10, 10),
            color: Color::WHITE,
        });
        assert_eq!(s.stats().requests, 1);
        assert_eq!(s.stats().pixels_drawn, 100);
    }

    #[test]
    fn input_reaches_tracker() {
        let mut s = server();
        s.handle_input(InputEvent::ButtonPress(thinc_raster::Point::new(5, 5)));
        assert!(s.input().is_realtime(&Rect::new(0, 0, 10, 10)));
    }

    #[test]
    fn damage_accumulates_only_onscreen() {
        let mut s = server();
        let RequestResult::Created(pm) = s.process(DrawRequest::CreatePixmap {
            width: 4,
            height: 4,
        }) else {
            panic!()
        };
        s.process(DrawRequest::FillRect {
            target: pm,
            rect: Rect::new(0, 0, 4, 4),
            color: Color::WHITE,
        });
        s.process(DrawRequest::FillRect {
            target: SCREEN,
            rect: Rect::new(0, 0, 2, 2),
            color: Color::WHITE,
        });
        let dmg = s.take_screen_damage();
        assert_eq!(dmg.area(), 4);
        assert_eq!(s.stats().offscreen_requests, 1);
    }
}
