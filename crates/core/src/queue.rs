//! Protocol command objects and the command queue (§4 of the paper).
//!
//! "A command queue is a queue where commands drawing to a particular
//! region are ordered according to their arrival time. The command
//! queue keeps track of commands affecting its draw region, and
//! guarantees that only those commands relevant to the current
//! contents of the region are in the queue."
//!
//! Three overwrite classes govern eviction:
//!
//! - **Partial** commands are opaque and may be partially or fully
//!   overwritten — the queue tracks the still-visible remainder and
//!   evicts the command once nothing remains.
//! - **Complete** commands are opaque but only evicted when fully
//!   covered (solid fills: tiny on the wire, so clipping buys nothing).
//! - **Transparent** commands depend on output drawn before them and
//!   never cause eviction themselves.

use thinc_protocol::commands::{DisplayCommand, RawEncoding};
use thinc_raster::{Rect, Region};

/// How a command overwrites and may be overwritten (§4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OverwriteClass {
    /// Opaque; only evicted when completely covered.
    Complete,
    /// Opaque; clipped to its still-visible region, evicted when empty.
    Partial,
    /// Depends on previously drawn output; does not evict others.
    Transparent,
}

/// Classifies a protocol command per the paper's taxonomy.
///
/// `RAW` and `PFILL` are opaque and cheap to clip (partial). `SFILL`
/// is the canonical complete command. A `BITMAP` with a background
/// color is opaque but not cheaply clippable bit-wise, so it is
/// treated as complete; without a background it leaves 0-bits
/// untouched and is transparent. `COPY` reads the framebuffer produced
/// by earlier commands, so it is transparent (order-dependent).
pub fn classify(cmd: &DisplayCommand) -> OverwriteClass {
    match cmd {
        DisplayCommand::Raw { .. } | DisplayCommand::Pfill { .. } => OverwriteClass::Partial,
        DisplayCommand::Sfill { .. } => OverwriteClass::Complete,
        DisplayCommand::Bitmap { bg: Some(_), .. } => OverwriteClass::Complete,
        DisplayCommand::Bitmap { bg: None, .. } => OverwriteClass::Transparent,
        DisplayCommand::Copy { .. } => OverwriteClass::Transparent,
    }
}

/// A command held in a queue, with its bookkeeping.
#[derive(Debug, Clone)]
pub struct QueuedCommand {
    /// Arrival sequence number (queue-local, monotonically increasing).
    pub seq: u64,
    /// The protocol command itself.
    pub cmd: DisplayCommand,
    /// Overwrite class (cached from [`classify`]).
    pub class: OverwriteClass,
    /// For partial commands: the part of the output still relevant.
    /// Always the full destination for other classes.
    pub visible: Region,
    /// Marked for priority delivery (overlaps the input halo, §5).
    pub realtime: bool,
}

impl QueuedCommand {
    /// Whether any of the command's output is still relevant.
    pub fn is_relevant(&self) -> bool {
        !self.visible.is_empty()
    }

    /// Wire size of the command (scheduling key).
    pub fn wire_size(&self) -> u64 {
        self.cmd.wire_size()
    }
}

thinc_telemetry::counters! {
    /// Statistics of queue maintenance, for tests and ablation reporting.
    pub struct QueueStats {
        /// Commands pushed.
        pushed,
        /// Commands evicted because they were fully overwritten.
        evicted,
        /// Commands merged into a predecessor.
        merged,
    }
}

/// An ordered queue of commands drawing to one region (a pixmap or
/// the screen).
#[derive(Debug, Clone, Default)]
pub struct CommandQueue {
    entries: Vec<QueuedCommand>,
    next_seq: u64,
    stats: QueueStats,
}

impl CommandQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// The live commands, in arrival order.
    pub fn entries(&self) -> &[QueuedCommand] {
        &self.entries
    }

    /// Number of live commands.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the queue holds no commands.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Maintenance statistics.
    pub fn stats(&self) -> QueueStats {
        self.stats
    }

    /// Pushes a command, enforcing the overlap invariants:
    /// opaque commands evict fully-covered predecessors and clip the
    /// visible regions of partial predecessors; adjacent compatible
    /// commands merge. Returns the sequence number assigned.
    pub fn push(&mut self, cmd: DisplayCommand, realtime: bool) -> u64 {
        self.stats.pushed += 1;
        let class = classify(&cmd);
        let dest = cmd.dest_rect();
        if matches!(class, OverwriteClass::Complete | OverwriteClass::Partial) && !dest.is_empty()
        {
            let mut evicted = 0;
            self.entries.retain_mut(|e| {
                match e.class {
                    OverwriteClass::Partial => {
                        e.visible.subtract_rect(&dest);
                        if e.visible.is_empty() {
                            evicted += 1;
                            return false;
                        }
                    }
                    OverwriteClass::Complete | OverwriteClass::Transparent => {
                        if dest.contains(&e.cmd.dest_rect()) {
                            evicted += 1;
                            return false;
                        }
                    }
                }
                true
            });
            self.stats.evicted += evicted;
        }
        // Merge with the most recent entry when possible (the
        // scan-line aggregation case from §4).
        if realtime == self.entries.last().map(|e| e.realtime).unwrap_or(realtime) {
            if let Some(last) = self.entries.last_mut() {
                if let Some(merged) = merge_commands(&last.cmd, &cmd) {
                    self.stats.merged += 1;
                    last.cmd = merged;
                    last.visible = Region::from_rect(last.cmd.dest_rect());
                    return last.seq;
                }
            }
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.entries.push(QueuedCommand {
            seq,
            cmd,
            class,
            visible: Region::from_rect(dest),
            realtime,
        });
        seq
    }

    /// Removes and returns all commands, in arrival order.
    pub fn drain(&mut self) -> Vec<QueuedCommand> {
        std::mem::take(&mut self.entries)
    }

    /// Total wire size of all live commands.
    pub fn wire_size(&self) -> u64 {
        self.entries.iter().map(|e| e.wire_size()).sum()
    }

    /// Returns clones of the commands whose output intersects
    /// `src_rect`, clipped/translated to `(dx, dy)` — the queue-copy
    /// operation that mirrors a pixmap-to-pixmap copy (§4.1).
    ///
    /// Commands that cannot be exactly clipped (bitmaps, copies,
    /// phase-sensitive tiles) are returned only when fully contained
    /// in `src_rect`; the caller must cover the remainder with RAW
    /// data from the source drawable (the "last resort" path). The
    /// returned region is the area covered by the returned commands.
    pub fn extract_region(&self, src_rect: &Rect, dx: i32, dy: i32) -> (Vec<DisplayCommand>, Region) {
        let mut out = Vec::new();
        // `expressed` tracks the pixels whose *final content within
        // the extraction* is fully reproduced by the returned command
        // sequence. A later command that cannot be extracted makes its
        // footprint unexpressed again (the caller's RAW fallback —
        // appended after all extracted commands and reading the final
        // drawable contents — then covers it, overwriting any
        // extracted ink in that area with identical final pixels).
        let mut expressed = Region::new();
        for e in &self.entries {
            let dest = e.cmd.dest_rect();
            let overlap = dest.intersection(src_rect);
            if overlap.is_empty() {
                continue;
            }
            // Tile fills are phase-anchored to absolute destination
            // coordinates, so they only survive translations that are
            // multiples of the tile size. Copies read other pixels of
            // the region whose extraction status is unknown, so they
            // are never extracted.
            let extractable_kind = match &e.cmd {
                DisplayCommand::Pfill { tile, .. } => {
                    tile.width > 0
                        && tile.height > 0
                        && dx.rem_euclid(tile.width as i32) == 0
                        && dy.rem_euclid(tile.height as i32) == 0
                }
                DisplayCommand::Copy { .. } => false,
                _ => true,
            };
            let clipped = if !extractable_kind {
                None
            } else if src_rect.contains(&dest) {
                // Fully contained: translate the whole command.
                let mut c = e.cmd.clone();
                c.translate(dx, dy);
                Some(c)
            } else {
                clip_command(&e.cmd, &overlap).map(|mut c| {
                    c.translate(dx, dy);
                    c
                })
            };
            match clipped {
                Some(c) => {
                    // Opaque commands express their whole footprint;
                    // transparent ones only add ink over whatever is
                    // below, leaving its expression status unchanged.
                    if classify(&e.cmd) != OverwriteClass::Transparent {
                        expressed.union_rect(&overlap.translated(dx, dy));
                    }
                    out.push(c);
                }
                None => {
                    expressed.subtract_rect(&overlap.translated(dx, dy));
                }
            }
        }
        (out, expressed)
    }
}

/// The screen regions a command's output *depends on or produces*:
/// the destination for every command, plus the source rectangle for
/// `COPY` (which reads the framebuffer produced by earlier commands).
/// Dependency analysis in the scheduler overlaps these regions.
pub fn dependency_rects(cmd: &DisplayCommand) -> Vec<Rect> {
    match cmd {
        DisplayCommand::Copy { src_rect, .. } => vec![*src_rect, cmd.dest_rect()],
        _ => vec![cmd.dest_rect()],
    }
}

/// Attempts to merge `next` into `prev`, returning the combined
/// command. Merges:
/// - equal-color `SFILL`s whose union is an exact rectangle,
/// - uncompressed `RAW`s stacked vertically with identical x-span
///   (the per-scanline image rasterization case).
pub fn merge_commands(prev: &DisplayCommand, next: &DisplayCommand) -> Option<DisplayCommand> {
    match (prev, next) {
        (
            DisplayCommand::Sfill { rect: a, color: ca },
            DisplayCommand::Sfill { rect: b, color: cb },
        ) if ca == cb => {
            let u = a.union(b);
            if u.area() == a.area() + b.area() - a.intersection(b).area() && exact_union(a, b) {
                Some(DisplayCommand::Sfill { rect: u, color: *ca })
            } else {
                None
            }
        }
        (
            DisplayCommand::Raw {
                rect: a,
                encoding: RawEncoding::None,
                data: da,
            },
            DisplayCommand::Raw {
                rect: b,
                encoding: RawEncoding::None,
                data: db,
            },
        ) if a.x == b.x && a.w == b.w && a.bottom() == b.y => {
            let mut data = Vec::with_capacity(da.len() + db.len());
            data.extend_from_slice(da);
            data.extend_from_slice(db);
            Some(DisplayCommand::Raw {
                rect: Rect::new(a.x, a.y, a.w, a.h + b.h),
                encoding: RawEncoding::None,
                data: data.into(),
            })
        }
        _ => None,
    }
}

/// Whether the union of two rectangles is exactly their combined area
/// (i.e. they tile a rectangle).
fn exact_union(a: &Rect, b: &Rect) -> bool {
    let u = a.union(b);
    u.area() == a.area() + b.area() - a.intersection(b).area()
}

/// Whether [`clip_command`] can clip this command exactly: solid
/// fills, well-formed uncompressed RAW data, and destination-anchored
/// tile fills. Bitmaps, copies and compressed RAW are not clippable.
pub fn exactly_clippable(cmd: &DisplayCommand) -> bool {
    match cmd {
        DisplayCommand::Sfill { .. } | DisplayCommand::Pfill { .. } => true,
        DisplayCommand::Raw {
            rect,
            encoding: RawEncoding::None,
            data,
        } => {
            let px = rect.area() as usize;
            px > 0 && data.len() % px == 0
        }
        _ => false,
    }
}

/// Clips a command to `clip`, when the command kind supports exact
/// clipping. Returns `None` for kinds that cannot be clipped without
/// loss (bitmap bit-shifting, copies, phase-sensitive content is
/// handled by the caller's RAW fallback).
pub fn clip_command(cmd: &DisplayCommand, clip: &Rect) -> Option<DisplayCommand> {
    let dest = cmd.dest_rect();
    let r = dest.intersection(clip);
    if r.is_empty() {
        return None;
    }
    if r == dest {
        return Some(cmd.clone());
    }
    match cmd {
        DisplayCommand::Sfill { color, .. } => Some(DisplayCommand::Sfill { rect: r, color: *color }),
        DisplayCommand::Raw {
            rect,
            encoding: RawEncoding::None,
            data,
        } => {
            // Slice the sub-rectangle out of the row-major payload.
            // The payload is tightly packed; infer bpp from the sizes.
            let total_px = rect.area() as usize;
            if total_px == 0 || data.len() % total_px != 0 {
                return None;
            }
            let bpp = data.len() / total_px;
            let src_stride = rect.w as usize * bpp;
            let row_off = (r.x - rect.x) as usize * bpp;
            let row_len = r.w as usize * bpp;
            let mut out = Vec::with_capacity(row_len * r.h as usize);
            for y in 0..r.h as usize {
                let sy = (r.y - rect.y) as usize + y;
                let start = sy * src_stride + row_off;
                out.extend_from_slice(&data[start..start + row_len]);
            }
            Some(DisplayCommand::Raw {
                rect: r,
                encoding: RawEncoding::None,
                data: out.into(),
            })
        }
        DisplayCommand::Pfill { tile, .. } => {
            // Tile phase anchors to absolute destination coordinates,
            // so shrinking the rectangle leaves every pixel unchanged.
            Some(DisplayCommand::Pfill {
                rect: r,
                tile: tile.clone(),
            })
        }
        // Compressed RAW, BITMAP (bit-shifting), COPY: not exactly
        // clippable here.
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thinc_protocol::commands::Tile;
    use thinc_raster::Color;

    fn sfill(x: i32, y: i32, w: u32, h: u32, v: u8) -> DisplayCommand {
        DisplayCommand::Sfill {
            rect: Rect::new(x, y, w, h),
            color: Color::rgb(v, v, v),
        }
    }

    fn raw(x: i32, y: i32, w: u32, h: u32) -> DisplayCommand {
        DisplayCommand::Raw {
            rect: Rect::new(x, y, w, h),
            encoding: RawEncoding::None,
            data: (0..(w * h * 3) as usize).map(|i| i as u8).collect(),
        }
    }

    #[test]
    fn classification_matches_paper() {
        assert_eq!(classify(&raw(0, 0, 2, 2)), OverwriteClass::Partial);
        assert_eq!(classify(&sfill(0, 0, 2, 2, 1)), OverwriteClass::Complete);
        assert_eq!(
            classify(&DisplayCommand::Copy {
                src_rect: Rect::new(0, 0, 2, 2),
                dst_x: 4,
                dst_y: 4
            }),
            OverwriteClass::Transparent
        );
        assert_eq!(
            classify(&DisplayCommand::Bitmap {
                rect: Rect::new(0, 0, 8, 8),
                bits: vec![0; 8],
                fg: Color::BLACK,
                bg: None
            }),
            OverwriteClass::Transparent
        );
        assert_eq!(
            classify(&DisplayCommand::Bitmap {
                rect: Rect::new(0, 0, 8, 8),
                bits: vec![0; 8],
                fg: Color::BLACK,
                bg: Some(Color::WHITE)
            }),
            OverwriteClass::Complete
        );
        assert_eq!(
            classify(&DisplayCommand::Pfill {
                rect: Rect::new(0, 0, 8, 8),
                tile: Tile {
                    width: 2,
                    height: 2,
                    pixels: vec![0; 12]
                }
            }),
            OverwriteClass::Partial
        );
    }

    #[test]
    fn full_overwrite_evicts() {
        let mut q = CommandQueue::new();
        q.push(raw(0, 0, 10, 10), false);
        q.push(sfill(0, 0, 20, 20, 1), false);
        assert_eq!(q.len(), 1);
        assert_eq!(q.stats().evicted, 1);
        assert!(matches!(q.entries()[0].cmd, DisplayCommand::Sfill { .. }));
    }

    #[test]
    fn partial_overwrite_clips_visible() {
        let mut q = CommandQueue::new();
        q.push(raw(0, 0, 10, 10), false);
        q.push(sfill(5, 5, 10, 10, 1), false);
        assert_eq!(q.len(), 2);
        let raw_entry = &q.entries()[0];
        assert_eq!(raw_entry.visible.area(), 100 - 25);
    }

    #[test]
    fn complete_commands_survive_partial_overlap() {
        let mut q = CommandQueue::new();
        q.push(sfill(0, 0, 10, 10, 1), false);
        q.push(raw(5, 5, 10, 10), false);
        assert_eq!(q.len(), 2);
        // The SFILL keeps its full rect (complete class).
        assert_eq!(q.entries()[0].visible.area(), 100);
    }

    #[test]
    fn transparent_does_not_evict() {
        let mut q = CommandQueue::new();
        q.push(raw(0, 0, 10, 10), false);
        q.push(
            DisplayCommand::Bitmap {
                rect: Rect::new(0, 0, 10, 10),
                bits: vec![0xFF; 20],
                fg: Color::BLACK,
                bg: None,
            },
            false,
        );
        assert_eq!(q.len(), 2);
        assert_eq!(q.entries()[0].visible.area(), 100);
    }

    #[test]
    fn transparent_evicted_when_fully_covered() {
        let mut q = CommandQueue::new();
        q.push(
            DisplayCommand::Bitmap {
                rect: Rect::new(2, 2, 4, 4),
                bits: vec![0xFF; 4],
                fg: Color::BLACK,
                bg: None,
            },
            false,
        );
        q.push(sfill(0, 0, 10, 10, 3), false);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn scanline_raws_merge() {
        let mut q = CommandQueue::new();
        // 20 one-pixel-tall scan lines, as image rasterization emits.
        for y in 0..20 {
            q.push(raw(5, y, 64, 1), false);
        }
        assert_eq!(q.len(), 1);
        assert_eq!(q.stats().merged, 19);
        let e = &q.entries()[0];
        assert_eq!(e.cmd.dest_rect(), Rect::new(5, 0, 64, 20));
        if let DisplayCommand::Raw { data, .. } = &e.cmd {
            assert_eq!(data.len(), 64 * 20 * 3);
        } else {
            panic!("expected RAW");
        }
    }

    #[test]
    fn adjacent_same_color_sfills_merge() {
        let mut q = CommandQueue::new();
        q.push(sfill(0, 0, 10, 5, 7), false);
        q.push(sfill(0, 5, 10, 5, 7), false);
        assert_eq!(q.len(), 1);
        assert_eq!(q.entries()[0].cmd.dest_rect(), Rect::new(0, 0, 10, 10));
    }

    #[test]
    fn different_color_sfills_do_not_merge() {
        let mut q = CommandQueue::new();
        q.push(sfill(0, 0, 10, 5, 7), false);
        q.push(sfill(0, 5, 10, 5, 8), false);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn non_tiling_sfills_do_not_merge() {
        let mut q = CommandQueue::new();
        q.push(sfill(0, 0, 10, 5, 7), false);
        q.push(sfill(3, 5, 10, 5, 7), false);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn clip_raw_extracts_subrect() {
        let cmd = raw(0, 0, 4, 4);
        let clipped = clip_command(&cmd, &Rect::new(1, 1, 2, 2)).unwrap();
        assert_eq!(clipped.dest_rect(), Rect::new(1, 1, 2, 2));
        if let DisplayCommand::Raw { data, .. } = &clipped {
            // Row 1, cols 1..3 of a 4-wide rgb image.
            let expect_first = (4 * 1 + 1) * 3;
            assert_eq!(data[0], expect_first as u8);
            assert_eq!(data.len(), 2 * 2 * 3);
        } else {
            panic!("expected RAW");
        }
    }

    #[test]
    fn clip_sfill() {
        let c = clip_command(&sfill(0, 0, 10, 10, 1), &Rect::new(8, 8, 10, 10)).unwrap();
        assert_eq!(c.dest_rect(), Rect::new(8, 8, 2, 2));
    }

    #[test]
    fn clip_bitmap_unsupported() {
        let bm = DisplayCommand::Bitmap {
            rect: Rect::new(0, 0, 16, 8),
            bits: vec![0; 16],
            fg: Color::BLACK,
            bg: None,
        };
        assert!(clip_command(&bm, &Rect::new(1, 1, 4, 4)).is_none());
        // But a containing clip returns the command unchanged.
        assert!(clip_command(&bm, &Rect::new(0, 0, 100, 100)).is_some());
    }

    #[test]
    fn extract_region_translates() {
        let mut q = CommandQueue::new();
        q.push(sfill(0, 0, 4, 4, 1), false);
        q.push(raw(4, 0, 4, 4), false);
        let (cmds, covered) = q.extract_region(&Rect::new(0, 0, 8, 4), 100, 50);
        assert_eq!(cmds.len(), 2);
        assert_eq!(cmds[0].dest_rect(), Rect::new(100, 50, 4, 4));
        assert_eq!(cmds[1].dest_rect(), Rect::new(104, 50, 4, 4));
        assert_eq!(covered.area(), 32);
    }

    #[test]
    fn extract_region_partial_bitmap_reports_uncovered() {
        let mut q = CommandQueue::new();
        q.push(
            DisplayCommand::Bitmap {
                rect: Rect::new(0, 0, 16, 8),
                bits: vec![0xFF; 16],
                fg: Color::BLACK,
                bg: Some(Color::WHITE),
            },
            false,
        );
        // Clip cuts the bitmap: not exactly clippable, so not returned.
        let (cmds, covered) = q.extract_region(&Rect::new(8, 0, 8, 4), 0, 0);
        assert!(cmds.is_empty());
        assert!(covered.is_empty());
    }

    #[test]
    fn drain_empties() {
        let mut q = CommandQueue::new();
        q.push(sfill(0, 0, 1, 1, 1), false);
        let cmds = q.drain();
        assert_eq!(cmds.len(), 1);
        assert!(q.is_empty());
    }

    #[test]
    fn realtime_flag_preserved() {
        let mut q = CommandQueue::new();
        q.push(sfill(0, 0, 1, 1, 1), true);
        assert!(q.entries()[0].realtime);
    }
}
