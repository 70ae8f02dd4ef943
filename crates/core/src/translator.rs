//! The translation layer (§4): device operations → protocol commands.
//!
//! Translation is mostly a one-to-one mapping (a fill becomes `SFILL`,
//! an image upload becomes `RAW`, …). The value of the layer is in the
//! cases that are *not* one-to-one:
//!
//! - **Offscreen drawing awareness** (§4.1): a command queue is kept
//!   per offscreen pixmap. Drawing to a pixmap queues the translated
//!   command instead of sending anything. Copying pixmap→pixmap copies
//!   the queued commands (translated to the new location — the
//!   commands cannot be *moved*, since a pixmap may be copy-source
//!   many times). Copying pixmap→screen *executes* the queue: the
//!   stored commands are emitted, preserving the original drawing
//!   semantics instead of falling back to raw pixels.
//! - **Raw fallback**: anything that cannot be expressed exactly
//!   (phase-broken tile translations, clipped bitmaps, disabled
//!   offscreen tracking) is covered by `RAW` data read from the
//!   drawable's post-operation contents — correct by construction.
//!
//! The translator is pure: it returns the onscreen protocol commands
//! each operation produces, and the server façade decides scheduling.

use std::collections::HashMap;

use thinc_display::drawable::{DrawableId, DrawableStore};
use thinc_protocol::commands::{DisplayCommand, RawEncoding, Tile};
use thinc_raster::{Color, Framebuffer, Rect, Region};
pub use thinc_telemetry::TranslatorStats;

use crate::queue::CommandQueue;

/// The THINC translation layer.
#[derive(Debug, Default)]
pub struct Translator {
    /// Per-pixmap command queues (the offscreen awareness state).
    offscreen: HashMap<DrawableId, CommandQueue>,
    /// When `false`, offscreen drawing is ignored and copies to the
    /// screen fall back to raw pixels — the behaviour of thin clients
    /// without THINC's optimization (ablation switch).
    offscreen_awareness: bool,
    stats: TranslatorStats,
}

impl Translator {
    /// A translator with offscreen awareness enabled (the THINC
    /// design point).
    pub fn new() -> Self {
        Self::with_offscreen_awareness(true)
    }

    /// A translator with offscreen awareness on or off (off is the
    /// ablation: "thin-client systems typically ignore all offscreen
    /// commands").
    pub fn with_offscreen_awareness(offscreen_awareness: bool) -> Self {
        Self {
            offscreen_awareness,
            ..Self::default()
        }
    }

    /// Whether offscreen awareness is active.
    pub fn offscreen_awareness(&self) -> bool {
        self.offscreen_awareness
    }

    /// Translation counters (per-kind commands produced, RAW
    /// fallback commands, offscreen queue activity).
    pub fn stats(&self) -> TranslatorStats {
        self.stats
    }

    /// Pending commands in a pixmap's queue (tests/inspection).
    pub fn offscreen_queue_len(&self, id: DrawableId) -> usize {
        self.offscreen.get(&id).map(|q| q.len()).unwrap_or(0)
    }

    fn count(&mut self, cmd: &DisplayCommand) {
        let row = match cmd {
            DisplayCommand::Raw { .. } => &mut self.stats.raw,
            DisplayCommand::Copy { .. } => &mut self.stats.copy,
            DisplayCommand::Sfill { .. } => &mut self.stats.sfill,
            DisplayCommand::Pfill { .. } => &mut self.stats.pfill,
            DisplayCommand::Bitmap { .. } => &mut self.stats.bitmap,
        };
        *row += 1;
    }

    fn count_all(&mut self, cmds: &[DisplayCommand]) {
        for c in cmds {
            self.count(c);
        }
    }

    /// Pixmap creation: start a queue seeded with the zero-fill that
    /// matches the pixmap's initial contents, so queue coverage is
    /// total from birth.
    pub fn create_pixmap(&mut self, id: DrawableId, w: u32, h: u32) {
        if !self.offscreen_awareness {
            return;
        }
        let mut q = CommandQueue::new();
        q.push(DisplayCommand::Sfill {
            rect: Rect::new(0, 0, w, h),
            color: Color::TRANSPARENT,
        });
        self.offscreen.insert(id, q);
    }

    /// Pixmap destruction: drop its queue.
    pub fn free_pixmap(&mut self, id: DrawableId) {
        self.offscreen.remove(&id);
    }

    /// Queues `cmd` on pixmap `target`, if it is tracked.
    fn enqueue(&mut self, target: DrawableId, cmd: DisplayCommand) {
        if let Some(q) = self.offscreen.get_mut(&target) {
            q.push(cmd);
            self.stats.offscreen_queued += 1;
        }
    }

    /// Routes a translated command: to the wire (screen target) or to
    /// the pixmap's queue (offscreen target, §4.1).
    fn route(
        &mut self,
        store: &DrawableStore,
        target: DrawableId,
        cmd: DisplayCommand,
    ) -> Vec<DisplayCommand> {
        if target.is_screen() {
            self.count(&cmd);
            return vec![cmd];
        }
        if self.offscreen_awareness {
            // Clip to the pixmap: the queue must never claim output
            // beyond the drawable's bounds, or a later extraction
            // would replay ink the rasterizer clipped away.
            let bounds = store
                .get(target)
                .map(|fb| fb.bounds())
                .unwrap_or_default();
            if let Some(clipped) = crate::queue::clip_command(&cmd, &bounds) {
                self.enqueue(target, clipped);
            } else {
                // Unclippable and partially out of bounds: snapshot
                // the in-bounds footprint from the (already drawn)
                // pixmap as RAW — exact by construction.
                let r = cmd.dest_rect().intersection(&bounds);
                if let Some(raw) = self.raw_from(store, target, &r) {
                    self.enqueue(target, raw);
                }
            }
        }
        // Offscreen drawing sends nothing.
        Vec::new()
    }

    /// Translates a solid fill.
    pub fn solid_fill(
        &mut self,
        store: &DrawableStore,
        target: DrawableId,
        rect: Rect,
        color: Color,
    ) -> Vec<DisplayCommand> {
        self.route(store, target, DisplayCommand::Sfill { rect, color })
    }

    /// Translates a pattern (tile) fill.
    pub fn pattern_fill(
        &mut self,
        store: &DrawableStore,
        target: DrawableId,
        rect: Rect,
        tile: &Framebuffer,
    ) -> Vec<DisplayCommand> {
        let (_, pixels) = tile.get_raw(&tile.bounds());
        let cmd = DisplayCommand::Pfill {
            rect,
            tile: Tile {
                width: tile.width(),
                height: tile.height(),
                pixels,
            },
        };
        self.route(store, target, cmd)
    }

    /// Translates a stipple fill.
    pub fn stipple_fill(
        &mut self,
        store: &DrawableStore,
        target: DrawableId,
        rect: Rect,
        bits: &[u8],
        fg: Color,
        bg: Option<Color>,
    ) -> Vec<DisplayCommand> {
        let cmd = DisplayCommand::Bitmap {
            rect,
            bits: bits.to_vec(),
            fg,
            bg,
        };
        self.route(store, target, cmd)
    }

    /// Translates an image upload.
    pub fn put_image(
        &mut self,
        store: &DrawableStore,
        target: DrawableId,
        rect: Rect,
        data: &[u8],
    ) -> Vec<DisplayCommand> {
        let cmd = DisplayCommand::Raw {
            rect,
            encoding: RawEncoding::None,
            data: data.to_vec().into(),
        };
        self.route(store, target, cmd)
    }

    /// Translates a compositing operation. The server has already
    /// rendered the Porter–Duff blend in software (the §3 fallback for
    /// clients without compositing hardware), so the result travels as
    /// RAW data of the blended region — onscreen directly, offscreen
    /// into the pixmap's queue.
    pub fn composite(
        &mut self,
        store: &DrawableStore,
        target: DrawableId,
        rect: Rect,
    ) -> Vec<DisplayCommand> {
        if target.is_screen() {
            let out: Vec<_> = self.raw_from(store, target, &rect).into_iter().collect();
            self.count_all(&out);
            return out;
        }
        if self.offscreen_awareness {
            let bounds = store.get(target).map(|f| f.bounds()).unwrap_or_default();
            let r = rect.intersection(&bounds);
            if let Some(raw) = self.raw_from(store, target, &r) {
                self.enqueue(target, raw);
            }
        }
        Vec::new()
    }

    /// Reads `rect` of drawable `d` as a RAW command (the fallback
    /// path; reads post-operation contents, so it is always correct).
    fn raw_from(&mut self, store: &DrawableStore, d: DrawableId, rect: &Rect) -> Option<DisplayCommand> {
        let fb = store.get(d)?;
        let (clip, data) = fb.get_raw(rect);
        if clip.is_empty() {
            return None;
        }
        self.stats.raw_fallbacks += 1;
        self.stats.raw_fallback_bytes += data.len() as u64;
        Some(DisplayCommand::Raw {
            rect: clip,
            encoding: RawEncoding::None,
            data: data.into(),
        })
    }

    /// Translates a copy between drawables — the interesting case.
    pub fn copy_area(
        &mut self,
        store: &DrawableStore,
        src: DrawableId,
        dst: DrawableId,
        src_rect: Rect,
        dst_x: i32,
        dst_y: i32,
    ) -> Vec<DisplayCommand> {
        let dx = dst_x - src_rect.x;
        let dy = dst_y - src_rect.y;
        match (src.is_screen(), dst.is_screen()) {
            (true, true) => {
                // Screen-to-screen: the protocol COPY — scrolling and
                // window movement without resending pixels.
                let cmd = DisplayCommand::Copy {
                    src_rect,
                    dst_x,
                    dst_y,
                };
                self.count(&cmd);
                vec![cmd]
            }
            (false, true) => {
                // Offscreen data goes onscreen: execute the queue.
                let dst_rect = Rect::new(dst_x, dst_y, src_rect.w, src_rect.h)
                    .intersection(&store.get(dst).map(|f| f.bounds()).unwrap_or_default());
                if dst_rect.is_empty() {
                    return Vec::new();
                }
                // Restrict the source to what lands onscreen.
                let eff_src = dst_rect.translated(-dx, -dy);
                if self.offscreen_awareness {
                    if let Some(q) = self.offscreen.get(&src) {
                        let (cmds, covered) = q.extract_region(&eff_src, dx, dy);
                        self.stats.queue_executions += 1;
                        let mut out = cmds;
                        // Cover whatever the queue could not express
                        // with RAW from the (already-drawn) screen.
                        let mut uncovered = Region::from_rect(dst_rect);
                        uncovered.subtract(&covered);
                        for r in uncovered.rects().to_vec() {
                            if let Some(raw) = self.raw_from(store, dst, &r) {
                                out.push(raw);
                            }
                        }
                        self.count_all(&out);
                        return out;
                    }
                }
                // No tracking: raw pixels from the screen (what
                // "systems that ignore offscreen drawing" must do).
                let out: Vec<_> = self.raw_from(store, dst, &dst_rect).into_iter().collect();
                self.count_all(&out);
                out
            }
            (false, false) => {
                // Pixmap-to-pixmap: mirror the copy at the command
                // level ("copying the group of commands that draw on
                // the source region to the destination region's
                // queue").
                if !self.offscreen_awareness {
                    return Vec::new();
                }
                let Some(src_q) = self.offscreen.get(&src) else {
                    return Vec::new();
                };
                let (cmds, covered) = src_q.extract_region(&src_rect, dx, dy);
                let dst_rect = Rect::new(dst_x, dst_y, src_rect.w, src_rect.h);
                let mut uncovered = Region::from_rect(
                    dst_rect.intersection(&store.get(dst).map(|f| f.bounds()).unwrap_or_default()),
                );
                uncovered.subtract(&covered);
                let mut raws = Vec::new();
                for r in uncovered.rects().to_vec() {
                    if let Some(raw) = self.raw_from(store, dst, &r) {
                        raws.push(raw);
                    }
                }
                // Clip every copied command to the destination pixmap
                // before queuing (out-of-bounds remnants would replay
                // nonexistent ink on a later extraction).
                let dst_bounds = store.get(dst).map(|f| f.bounds()).unwrap_or_default();
                let mut to_queue = Vec::new();
                for c in cmds.into_iter().chain(raws) {
                    if let Some(clipped) = crate::queue::clip_command(&c, &dst_bounds) {
                        to_queue.push(clipped);
                    } else {
                        let r = c.dest_rect().intersection(&dst_bounds);
                        if let Some(raw) = self.raw_from(store, dst, &r) {
                            to_queue.push(raw);
                        }
                    }
                }
                for c in to_queue {
                    self.enqueue(dst, c);
                }
                Vec::new()
            }
            (true, false) => {
                // Screen-to-pixmap: snapshot the pixels as RAW in the
                // pixmap's queue (semantics of the screen region are
                // client-side state, not queued commands).
                if !self.offscreen_awareness {
                    return Vec::new();
                }
                let dst_rect = Rect::new(dst_x, dst_y, src_rect.w, src_rect.h);
                if let Some(raw) = self.raw_from(store, dst, &dst_rect) {
                    self.enqueue(dst, raw);
                }
                Vec::new()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thinc_display::drawable::SCREEN;
    use thinc_raster::PixelFormat;

    /// Replays protocol commands into a framebuffer the way a THINC
    /// client would.
    fn replay(fb: &mut Framebuffer, cmds: &[DisplayCommand]) {
        for c in cmds {
            match c {
                DisplayCommand::Raw {
                    rect,
                    encoding: RawEncoding::None,
                    data,
                } => fb.put_raw(rect, data),
                DisplayCommand::Raw { .. } => panic!("unexpected compressed RAW in test"),
                DisplayCommand::Copy {
                    src_rect,
                    dst_x,
                    dst_y,
                } => fb.copy_rect(src_rect, *dst_x, *dst_y),
                DisplayCommand::Sfill { rect, color } => fb.fill_rect(rect, *color),
                DisplayCommand::Pfill { rect, tile } => {
                    let mut t = Framebuffer::new(tile.width, tile.height, fb.format());
                    t.put_raw(&Rect::new(0, 0, tile.width, tile.height), &tile.pixels);
                    fb.tile_rect(rect, &t);
                }
                DisplayCommand::Bitmap { rect, bits, fg, bg } => {
                    fb.bitmap_rect(rect, bits, *fg, *bg)
                }
            }
        }
    }

    fn store() -> DrawableStore {
        DrawableStore::new(64, 64, PixelFormat::Rgb888)
    }

    #[test]
    fn onscreen_fill_maps_one_to_one() {
        let mut t = Translator::new();
        let s = store();
        let cmds = t.solid_fill(&s, SCREEN, Rect::new(1, 2, 3, 4), Color::WHITE);
        assert_eq!(cmds.len(), 1);
        assert!(matches!(cmds[0], DisplayCommand::Sfill { .. }));
        assert_eq!(t.stats().sfill, 1);
    }

    #[test]
    fn offscreen_fill_queues_sends_nothing() {
        let mut t = Translator::new();
        let mut s = store();
        let pm = s.create_pixmap(16, 16);
        t.create_pixmap(pm, 16, 16);
        let cmds = t.solid_fill(&s, pm, Rect::new(0, 0, 8, 8), Color::WHITE);
        assert!(cmds.is_empty());
        assert!(t.offscreen_queue_len(pm) >= 1);
        assert_eq!(t.stats().offscreen_queued, 1);
    }

    #[test]
    fn offscreen_to_screen_executes_queue_with_semantics() {
        let mut t = Translator::new();
        let mut s = store();
        let pm = s.create_pixmap(16, 16);
        t.create_pixmap(pm, 16, 16);
        // Draw a fill and text-like stipple offscreen.
        s.get_mut(pm)
            .unwrap()
            .fill_rect(&Rect::new(0, 0, 16, 16), Color::rgb(1, 2, 3));
        t.solid_fill(&s, pm, Rect::new(0, 0, 16, 16), Color::rgb(1, 2, 3));
        // Rasterize the copy (as WindowServer would), then translate.
        let (_, data) = s.get(pm).unwrap().get_raw(&Rect::new(0, 0, 16, 16));
        s.screen_mut().put_raw(&Rect::new(10, 10, 16, 16), &data);
        let cmds = t.copy_area(&s, pm, SCREEN, Rect::new(0, 0, 16, 16), 10, 10);
        // Semantics preserved: an SFILL, not raw pixels.
        assert!(
            cmds.iter()
                .any(|c| matches!(c, DisplayCommand::Sfill { .. })),
            "{cmds:?}"
        );
        assert!(!cmds.iter().any(|c| matches!(c, DisplayCommand::Raw { .. })));
        // Client replay reproduces the screen.
        let mut client = Framebuffer::new(64, 64, PixelFormat::Rgb888);
        replay(&mut client, &cmds);
        assert_eq!(
            client.get_pixel(12, 12),
            s.screen().get_pixel(12, 12),
            "client must match server"
        );
    }

    #[test]
    fn disabled_awareness_falls_back_to_raw() {
        let mut t = Translator::with_offscreen_awareness(false);
        let mut s = store();
        let pm = s.create_pixmap(16, 16);
        t.create_pixmap(pm, 16, 16);
        t.solid_fill(&s, pm, Rect::new(0, 0, 16, 16), Color::WHITE);
        // Rasterize the copy result onscreen first.
        let (_, data) = s.get(pm).unwrap().get_raw(&Rect::new(0, 0, 16, 16));
        s.screen_mut().put_raw(&Rect::new(0, 0, 16, 16), &data);
        let cmds = t.copy_area(&s, pm, SCREEN, Rect::new(0, 0, 16, 16), 0, 0);
        assert_eq!(cmds.len(), 1);
        assert!(matches!(cmds[0], DisplayCommand::Raw { .. }));
        assert!(t.stats().raw_fallback_bytes > 0);
    }

    #[test]
    fn screen_to_screen_copy_is_protocol_copy() {
        let mut t = Translator::new();
        let s = store();
        let cmds = t.copy_area(&s, SCREEN, SCREEN, Rect::new(0, 0, 32, 32), 0, 16);
        assert_eq!(cmds.len(), 1);
        assert!(matches!(cmds[0], DisplayCommand::Copy { .. }));
    }

    #[test]
    fn pixmap_to_pixmap_copies_commands() {
        let mut t = Translator::new();
        let mut s = store();
        let a = s.create_pixmap(16, 16);
        let b = s.create_pixmap(32, 32);
        t.create_pixmap(a, 16, 16);
        t.create_pixmap(b, 32, 32);
        t.solid_fill(&s, a, Rect::new(0, 0, 16, 16), Color::rgb(5, 5, 5));
        let before = t.offscreen_queue_len(b);
        t.copy_area(&s, a, b, Rect::new(0, 0, 16, 16), 8, 8);
        assert!(t.offscreen_queue_len(b) > 0);
        let _ = before;
        // Source queue is intact (copy, not move — a pixmap can be
        // copy-source many times).
        assert!(t.offscreen_queue_len(a) >= 1);
        // Executing b onto the screen now reproduces the fill, moved.
        s.get_mut(b)
            .unwrap()
            .fill_rect(&Rect::new(8, 8, 16, 16), Color::rgb(5, 5, 5));
        let (_, data) = s.get(b).unwrap().get_raw(&Rect::new(0, 0, 32, 32));
        s.screen_mut().put_raw(&Rect::new(0, 0, 32, 32), &data);
        let cmds = t.copy_area(&s, b, SCREEN, Rect::new(0, 0, 32, 32), 0, 0);
        let mut client = Framebuffer::new(64, 64, PixelFormat::Rgb888);
        replay(&mut client, &cmds);
        assert_eq!(client.get_pixel(12, 12), Some(Color::rgb(5, 5, 5)));
    }

    #[test]
    fn hierarchy_of_offscreen_regions() {
        // Small pixmap -> big pixmap -> screen: semantics survive two
        // hops (the §4.1 hierarchy case).
        let mut t = Translator::new();
        let mut s = store();
        let small = s.create_pixmap(8, 8);
        let big = s.create_pixmap(32, 32);
        t.create_pixmap(small, 8, 8);
        t.create_pixmap(big, 32, 32);
        t.solid_fill(&s, small, Rect::new(0, 0, 8, 8), Color::rgb(7, 7, 7));
        s.get_mut(small)
            .unwrap()
            .fill_rect(&Rect::new(0, 0, 8, 8), Color::rgb(7, 7, 7));
        t.copy_area(&s, small, big, Rect::new(0, 0, 8, 8), 4, 4);
        // Mirror the raster copy.
        let (_, d) = s.get(small).unwrap().get_raw(&Rect::new(0, 0, 8, 8));
        s.get_mut(big).unwrap().put_raw(&Rect::new(4, 4, 8, 8), &d);
        // big -> screen.
        let (_, d2) = s.get(big).unwrap().get_raw(&Rect::new(0, 0, 32, 32));
        s.screen_mut().put_raw(&Rect::new(16, 16, 32, 32), &d2);
        let cmds = t.copy_area(&s, big, SCREEN, Rect::new(0, 0, 32, 32), 16, 16);
        assert!(cmds
            .iter()
            .any(|c| matches!(c, DisplayCommand::Sfill { .. })));
        let mut client = Framebuffer::new(64, 64, PixelFormat::Rgb888);
        replay(&mut client, &cmds);
        // Small landed at big(4,4), big landed at screen(16,16):
        // the fill shows at (20..28, 20..28).
        assert_eq!(client.get_pixel(24, 24), Some(Color::rgb(7, 7, 7)));
        assert_eq!(client.get_pixel(24, 24), s.screen().get_pixel(24, 24));
    }

    #[test]
    fn clipped_solid_fill_still_replays_to_the_pixmaps_pixels() {
        // The overlap rule clips a queued solid fill under what is
        // drawn over it. Extraction emits whole commands in arrival
        // order regardless, so executing the queue must still
        // reproduce the drawable.
        let mut t = Translator::new();
        let mut s = store();
        let pm = s.create_pixmap(16, 16);
        t.create_pixmap(pm, 16, 16);
        let all = Rect::new(0, 0, 16, 16);
        s.get_mut(pm).unwrap().fill_rect(&all, Color::rgb(1, 2, 3));
        t.solid_fill(&s, pm, all, Color::rgb(1, 2, 3));
        let img: Vec<u8> = (0..8 * 8 * 3).map(|i| i as u8).collect();
        s.get_mut(pm).unwrap().put_raw(&Rect::new(4, 4, 8, 8), &img);
        t.put_image(&s, pm, Rect::new(4, 4, 8, 8), &img);
        let band = Rect::new(0, 0, 16, 6);
        s.get_mut(pm).unwrap().fill_rect(&band, Color::rgb(9, 9, 9));
        t.solid_fill(&s, pm, band, Color::rgb(9, 9, 9));
        let base = &t.offscreen[&pm].entries()[0];
        assert_eq!(base.cmd.dest_rect(), all);
        assert_eq!(base.visible.area(), 256 - 16 * 6 - 8 * 6);
        // A window cutting through all three goes onscreen.
        let (src, dst) = (Rect::new(2, 2, 12, 12), Rect::new(20, 20, 12, 12));
        let (_, data) = s.get(pm).unwrap().get_raw(&src);
        s.screen_mut().put_raw(&dst, &data);
        let cmds = t.copy_area(&s, pm, SCREEN, src, dst.x, dst.y);
        assert_eq!(t.stats().raw_fallbacks, 0, "{cmds:?}");
        let mut client = Framebuffer::new(64, 64, PixelFormat::Rgb888);
        replay(&mut client, &cmds);
        assert_eq!(client.get_raw(&dst), s.screen().get_raw(&dst));
    }

    #[test]
    fn freeing_pixmap_drops_queue() {
        let mut t = Translator::new();
        let mut s = store();
        let pm = s.create_pixmap(8, 8);
        t.create_pixmap(pm, 8, 8);
        t.solid_fill(&s, pm, Rect::new(0, 0, 8, 8), Color::WHITE);
        t.free_pixmap(pm);
        assert_eq!(t.offscreen_queue_len(pm), 0);
    }

    #[test]
    fn put_image_becomes_raw() {
        let mut t = Translator::new();
        let s = store();
        let data = vec![9u8; 4 * 4 * 3];
        let cmds = t.put_image(&s, SCREEN, Rect::new(0, 0, 4, 4), &data);
        assert!(matches!(&cmds[0], DisplayCommand::Raw { data: d, .. } if d.len() == 48));
    }

    #[test]
    fn stipple_becomes_bitmap() {
        let mut t = Translator::new();
        let s = store();
        let cmds = t.stipple_fill(
            &s,
            SCREEN,
            Rect::new(0, 0, 8, 1),
            &[0xF0],
            Color::BLACK,
            None,
        );
        assert!(matches!(&cmds[0], DisplayCommand::Bitmap { .. }));
        assert_eq!(t.stats().bitmap, 1);
    }

    #[test]
    fn pattern_fill_carries_tile_pixels() {
        let mut t = Translator::new();
        let s = store();
        let mut tile = Framebuffer::new(4, 4, PixelFormat::Rgb888);
        tile.fill_rect(&Rect::new(0, 0, 4, 4), Color::rgb(3, 1, 4));
        let cmds = t.pattern_fill(&s, SCREEN, Rect::new(0, 0, 16, 16), &tile);
        if let DisplayCommand::Pfill { tile: tl, .. } = &cmds[0] {
            assert_eq!(tl.width, 4);
            assert_eq!(tl.pixels.len(), 48);
        } else {
            panic!("expected PFILL");
        }
    }
}
