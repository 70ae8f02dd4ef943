//! Protocol command objects and the command queue (§4 of the paper).
//!
//! "A command queue is a queue where commands drawing to a particular
//! region are ordered according to their arrival time. The command
//! queue keeps track of commands affecting its draw region, and
//! guarantees that only those commands relevant to the current
//! contents of the region are in the queue."
//!
//! This is the one implementation of that algebra — classify, protect
//! COPY sources, evict or clip, merge — for both of its users: the
//! translator's per-pixmap queues (`CommandQueue<()>`) and the
//! per-client buffer, which hangs its §5 scheduling data on each entry
//! (the `T` tag) and adds nothing to the rules.
//!
//! One rule governs what an opaque newcomer does to the entries under
//! it:
//!
//! - An entry that can be **clipped exactly** — the partial class (`RAW`,
//!   `PFILL`) and solid fills — loses the covered part of its `visible`
//!   region and is evicted once nothing remains, however many later
//!   commands it took to cover it.
//! - Every other entry (opaque `BITMAP`, the transparent class) is
//!   evicted only when one newcomer covers it whole.
//! - Whatever a queued `COPY` still *reads* is exempt from both: its
//!   source must reach the client intact before the copy runs.
//!
//! Transparent newcomers depend on the output under them and change
//! nothing. Solid fills are clipped although they are the paper's
//! *complete* class (tiny on the wire, so clipping saves no bytes)
//! because a clipped fill no longer draws under the commands that
//! overwrote it, so it stops pinning them behind it in the scheduler;
//! the buffer needed that, and a queue without a scheduler loses
//! nothing by it.

use thinc_protocol::commands::{DisplayCommand, RawEncoding};
use thinc_raster::{Rect, Region};

/// How a command overwrites and may be overwritten (§4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OverwriteClass {
    /// Opaque and small on the wire. Solid fills are still clipped
    /// (see the module header); an opaque `BITMAP` cannot be, and is
    /// only evicted when completely covered.
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

/// A command held in a queue, with its bookkeeping and whatever the
/// queue's user hangs on it (`tag`).
#[derive(Debug, Clone)]
pub struct QueuedCommand<T = ()> {
    /// Arrival sequence number (queue-local, monotonically increasing).
    pub seq: u64,
    /// The protocol command itself.
    pub cmd: DisplayCommand,
    /// Overwrite class (cached from [`classify`]).
    pub class: OverwriteClass,
    /// The part of the output still relevant: what later commands have
    /// not clipped away. The full destination for entries that cannot
    /// be clipped.
    pub visible: Region,
    /// The user's per-entry data (the client buffer: scheduler slot
    /// and enqueue time).
    pub tag: T,
}

impl<T> QueuedCommand<T> {
    /// The command as it must be drawn now: exactly-clipped
    /// sub-commands covering only its visible output, so nothing it
    /// emits lands on pixels a later command owns.
    pub fn materialize(&self) -> Vec<DisplayCommand> {
        if self.visible.contains_rect(&self.cmd.dest_rect()) {
            return vec![self.cmd.clone()];
        }
        let clipped: Option<Vec<_>> =
            self.visible.rects().iter().map(|r| clip_command(&self.cmd, r)).collect();
        // Not exactly clippable: fall back to the full command
        // (correct but larger; only unreachable kinds hit this).
        clipped.unwrap_or_else(|| vec![self.cmd.clone()])
    }
}

/// What one [`CommandQueue::push_with`] did to the queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pushed {
    /// Sequence number of the entry that now holds the command.
    pub seq: u64,
    /// Whether the command was merged into the newest entry instead
    /// of becoming an entry of its own.
    pub merged: bool,
    /// Entries evicted because nothing of them stayed visible.
    pub evicted: u64,
}

/// An ordered queue of commands drawing to one region (a pixmap or
/// the screen).
#[derive(Debug, Clone)]
pub struct CommandQueue<T = ()> {
    entries: Vec<QueuedCommand<T>>,
    next_seq: u64,
}

impl<T> Default for CommandQueue<T> {
    fn default() -> Self {
        Self { entries: Vec::new(), next_seq: 0 }
    }
}

impl CommandQueue {
    /// Pushes a command onto an untagged queue:
    /// [`push_with`](Self::push_with), merging whenever the commands
    /// allow it.
    pub fn push(&mut self, cmd: DisplayCommand) -> Pushed {
        self.push_with(cmd, |_| true, |_, _| ())
    }
}

impl<T> CommandQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// A queue holding exactly `entries` (arrival order), numbering
    /// new arrivals from `next_seq` — how a checkpoint is restored.
    pub fn from_parts(entries: Vec<QueuedCommand<T>>, next_seq: u64) -> Self {
        Self { entries, next_seq }
    }

    /// The live commands, in arrival order.
    pub fn entries(&self) -> &[QueuedCommand<T>] {
        &self.entries
    }

    /// The newest entry — the one a push just created or merged into
    /// — for a user that re-tags it.
    pub fn newest_mut(&mut self) -> Option<&mut QueuedCommand<T>> {
        self.entries.last_mut()
    }

    /// Number of live commands.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the queue holds no commands.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The sequence number the next new entry will get.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Position of the entry numbered `seq`, if it is still queued.
    pub fn position(&self, seq: u64) -> Option<usize> {
        self.entries.iter().position(|e| e.seq == seq)
    }

    /// Pushes a command, enforcing the overlap rule of the module
    /// header: an opaque newcomer clips or evicts what it covers, then
    /// the command merges into the newest entry when the two tile
    /// (and `may_merge` allows it, given that entry's tag) or becomes
    /// a new entry tagged by `tag`, which sees the entries that
    /// survived and the command.
    pub fn push_with(
        &mut self,
        cmd: DisplayCommand,
        may_merge: impl FnOnce(&T) -> bool,
        tag: impl FnOnce(&[QueuedCommand<T>], &DisplayCommand) -> T,
    ) -> Pushed {
        let dest = cmd.dest_rect();
        let mut evicted = 0;
        if classify(&cmd) != OverwriteClass::Transparent && !dest.is_empty() {
            // Regions still *read* by queued COPY commands must not be
            // evicted or clipped out from under them: the copy needs
            // its source content delivered first. Keeping the full
            // command is correct, merely unclipped, as long as the
            // user orders the overwriter after the copy.
            let mut protected = Region::new();
            for e in &self.entries {
                if let DisplayCommand::Copy { src_rect, .. } = &e.cmd {
                    protected.union_rect(src_rect);
                }
            }
            let mut cover = Region::from_rect(dest);
            cover.subtract(&protected);
            self.entries.retain_mut(|e| {
                let clippable = e.class == OverwriteClass::Partial
                    || matches!(e.cmd, DisplayCommand::Sfill { .. });
                let gone = if clippable {
                    e.visible.subtract(&cover);
                    e.visible.is_empty()
                } else {
                    cover.contains_rect(&e.cmd.dest_rect())
                };
                evicted += u64::from(gone);
                !gone
            });
        }
        // Merge with the most recent entry when possible (the
        // scan-line aggregation case from §4).
        if let Some(last) = self.entries.last_mut() {
            if may_merge(&last.tag) {
                if let Some(merged) = merge_commands(&last.cmd, &cmd) {
                    // What the newcomer draws joins what is left of the
                    // entry: pixels a delivered overwriter clipped out
                    // of it stay out.
                    last.visible.union_rect(&dest);
                    last.cmd = merged;
                    return Pushed { seq: last.seq, merged: true, evicted };
                }
            }
        }
        let tag = tag(&self.entries, &cmd);
        Pushed { seq: self.insert(cmd, tag), merged: false, evicted }
    }

    /// Appends `cmd` as a new entry without running the overlap rule
    /// (what `push_with` ends with; also how the buffer re-queues the
    /// unsent remainder of a split command). Returns its sequence
    /// number.
    pub fn insert(&mut self, cmd: DisplayCommand, tag: T) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.entries.push(QueuedCommand {
            seq,
            class: classify(&cmd),
            visible: Region::from_rect(cmd.dest_rect()),
            cmd,
            tag,
        });
        seq
    }

    /// Removes and returns the entry at `pos` (see
    /// [`position`](Self::position)).
    pub fn remove(&mut self, pos: usize) -> QueuedCommand<T> {
        self.entries.remove(pos)
    }

    /// Removes and returns all commands, in arrival order.
    pub fn drain(&mut self) -> Vec<QueuedCommand<T>> {
        std::mem::take(&mut self.entries)
    }

    /// Total wire size of all live commands.
    pub fn wire_size(&self) -> u64 {
        self.entries.iter().map(|e| e.cmd.wire_size()).sum()
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
            // (A clip that contains the command returns it whole.)
            let clipped = extractable_kind
                .then(|| clip_command(&e.cmd, &overlap))
                .flatten()
                .map(|mut c| {
                    c.translate(dx, dy);
                    c
                });
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
pub fn dependency_rects(cmd: &DisplayCommand) -> impl Iterator<Item = Rect> + Clone {
    let src = match cmd {
        DisplayCommand::Copy { src_rect, .. } => Some(*src_rect),
        _ => None,
    };
    src.into_iter().chain(std::iter::once(cmd.dest_rect()))
}

/// Attempts to merge `next` into `prev`, returning the combined
/// command. Merges:
/// - equal-color `SFILL`s whose union is an exact rectangle,
/// - uncompressed `RAW`s stacked vertically with identical x-span
///   (the per-scanline image rasterization case).
fn merge_commands(prev: &DisplayCommand, next: &DisplayCommand) -> Option<DisplayCommand> {
    match (prev, next) {
        (
            DisplayCommand::Sfill { rect: a, color: ca },
            DisplayCommand::Sfill { rect: b, color: cb },
        ) if ca == cb => {
            // The two tile a rectangle: their union holds no pixel
            // that neither of them draws.
            let u = a.union(b);
            (u.area() == a.area() + b.area() - a.intersection(b).area())
                .then_some(DisplayCommand::Sfill { rect: u, color: *ca })
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
        q.push(raw(0, 0, 10, 10));
        assert_eq!(q.push(sfill(0, 0, 20, 20, 1)).evicted, 1);
        assert_eq!(q.len(), 1);
        assert!(matches!(q.entries()[0].cmd, DisplayCommand::Sfill { .. }));
    }

    #[test]
    fn partial_overwrite_clips_visible() {
        let mut q = CommandQueue::new();
        q.push(raw(0, 0, 10, 10));
        q.push(sfill(5, 5, 10, 10, 1));
        assert_eq!(q.len(), 2);
        let raw_entry = &q.entries()[0];
        assert_eq!(raw_entry.visible.area(), 100 - 25);
    }

    #[test]
    fn solid_fill_is_clipped_and_evicted_once_jointly_covered() {
        let mut q = CommandQueue::new();
        q.push(sfill(0, 0, 10, 10, 1));
        q.push(raw(5, 5, 10, 10));
        assert_eq!(q.len(), 2);
        // The fill keeps its rect; what it still has to draw shrinks.
        assert_eq!(q.entries()[0].cmd.dest_rect(), Rect::new(0, 0, 10, 10));
        assert_eq!(q.entries()[0].visible.area(), 100 - 25);
        // No later command covers it alone; together they do.
        assert_eq!(q.push(raw(0, 0, 10, 5)).evicted, 0);
        assert_eq!(q.push(raw(0, 5, 5, 5)).evicted, 1);
        assert!(q.entries().iter().all(|e| matches!(e.cmd, DisplayCommand::Raw { .. })));
    }

    #[test]
    fn opaque_bitmap_survives_until_one_command_covers_it_whole() {
        let mut q = CommandQueue::new();
        q.push(DisplayCommand::Bitmap {
            rect: Rect::new(0, 0, 16, 8),
            bits: vec![0xAA; 16],
            fg: Color::BLACK,
            bg: Some(Color::WHITE),
        });
        // Jointly covered, never by one command: it cannot be clipped
        // bit-wise, so it stays whole.
        assert_eq!(q.push(sfill(0, 0, 8, 8, 1)).evicted, 0);
        assert_eq!(q.push(sfill(8, 0, 8, 8, 2)).evicted, 0);
        assert_eq!(q.entries()[0].visible.area(), 16 * 8);
        assert_eq!(q.entries()[0].materialize(), vec![q.entries()[0].cmd.clone()]);
        assert_eq!(q.push(sfill(0, 0, 16, 8, 3)).evicted, 3);
        assert_eq!(q.len(), 1);
    }

    fn copy(src: Rect, dst_x: i32, dst_y: i32) -> DisplayCommand {
        DisplayCommand::Copy { src_rect: src, dst_x, dst_y }
    }

    #[test]
    fn copy_source_is_neither_clipped_nor_evicted() {
        let mut q = CommandQueue::new();
        q.push(raw(0, 0, 20, 20));
        q.push(copy(Rect::new(0, 0, 10, 10), 30, 30));
        // Partly over the copy's source: only the part outside it is
        // clipped away (10x10 overlap with the RAW, 5x5 of it read).
        q.push(sfill(5, 5, 10, 10, 9));
        assert_eq!(q.entries()[0].visible.area(), 400 - (100 - 25));
        // Wholly over both: whatever lies in the region the copy reads
        // stays queued (protection goes by region, not by age).
        assert_eq!(q.push(sfill(0, 0, 20, 20, 8)).evicted, 0);
        assert_eq!(q.entries()[0].visible.rects(), &[Rect::new(0, 0, 10, 10)]);
        assert_eq!(q.entries()[2].visible.rects(), &[Rect::new(5, 5, 5, 5)]);
        // Once the copy is gone (delivered), so is the protection.
        let pos = q.position(q.entries()[1].seq).unwrap();
        assert!(matches!(q.remove(pos).cmd, DisplayCommand::Copy { .. }));
        assert_eq!(q.push(sfill(0, 0, 20, 20, 7)).evicted, 3);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn merge_asks_the_newest_entrys_tag_and_insert_bypasses_the_rule() {
        let mut q: CommandQueue<bool> = CommandQueue::new();
        let push = |q: &mut CommandQueue<bool>, cmd, class: bool| {
            q.push_with(cmd, |&last| last == class, |_, _| class)
        };
        assert!(!push(&mut q, sfill(0, 0, 10, 5, 7), false).merged);
        // Tiles the first fill, but in the other class: a new entry.
        assert!(!push(&mut q, sfill(0, 5, 10, 5, 7), true).merged);
        let third = push(&mut q, sfill(0, 10, 10, 5, 7), true);
        assert!(third.merged);
        assert_eq!(third.seq, q.entries()[1].seq);
        assert_eq!(q.entries()[1].cmd.dest_rect(), Rect::new(0, 5, 10, 10));
        // A raw insert neither evicts, clips nor merges.
        let seq = q.insert(sfill(0, 0, 10, 15, 7), false);
        assert_eq!((q.len(), seq, q.next_seq()), (3, 2, 3));
        assert_eq!(q.entries()[0].visible.area(), 50);
    }

    #[test]
    fn transparent_does_not_evict() {
        let mut q = CommandQueue::new();
        q.push(raw(0, 0, 10, 10));
        q.push(
            DisplayCommand::Bitmap {
                rect: Rect::new(0, 0, 10, 10),
                bits: vec![0xFF; 20],
                fg: Color::BLACK,
                bg: None,
            },
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
        );
        q.push(sfill(0, 0, 10, 10, 3));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn scanline_raws_merge() {
        let mut q = CommandQueue::new();
        // 20 one-pixel-tall scan lines, as image rasterization emits.
        let merged = (0..20).filter(|&y| q.push(raw(5, y, 64, 1)).merged).count();
        assert_eq!(q.len(), 1);
        assert_eq!(merged, 19);
        let e = &q.entries()[0];
        assert_eq!(e.cmd.dest_rect(), Rect::new(5, 0, 64, 20));
        if let DisplayCommand::Raw { data, .. } = &e.cmd {
            assert_eq!(data.len(), 64 * 20 * 3);
        } else {
            panic!("expected RAW");
        }
    }

    #[test]
    fn a_merge_keeps_what_a_delivered_overwriter_clipped() {
        let mut q = CommandQueue::new();
        q.push(raw(0, 0, 8, 1));
        q.push(sfill(2, 0, 4, 1, 9));
        // The fill leaves first, as the buffer's scheduler ships it.
        let fill = q.position(1).expect("the fill is queued");
        q.remove(fill);
        // The next scan line merges into the clipped row.
        assert!(q.push(raw(0, 1, 8, 1)).merged);
        let e = &q.entries()[0];
        assert_eq!(e.cmd.dest_rect(), Rect::new(0, 0, 8, 2));
        assert!(
            !e.visible.intersects_rect(&Rect::new(2, 0, 4, 1)),
            "the merged entry would paint over the delivered fill: {:?}",
            e.visible.rects()
        );
        assert_eq!(e.visible.area(), 16 - 4);
    }

    #[test]
    fn adjacent_same_color_sfills_merge() {
        let mut q = CommandQueue::new();
        q.push(sfill(0, 0, 10, 5, 7));
        q.push(sfill(0, 5, 10, 5, 7));
        assert_eq!(q.len(), 1);
        assert_eq!(q.entries()[0].cmd.dest_rect(), Rect::new(0, 0, 10, 10));
    }

    #[test]
    fn different_color_sfills_do_not_merge() {
        let mut q = CommandQueue::new();
        q.push(sfill(0, 0, 10, 5, 7));
        q.push(sfill(0, 5, 10, 5, 8));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn non_tiling_sfills_do_not_merge() {
        let mut q = CommandQueue::new();
        q.push(sfill(0, 0, 10, 5, 7));
        q.push(sfill(3, 5, 10, 5, 7));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn clip_raw_extracts_subrect() {
        let cmd = raw(0, 0, 4, 4);
        let clipped = clip_command(&cmd, &Rect::new(1, 1, 2, 2)).unwrap();
        assert_eq!(clipped.dest_rect(), Rect::new(1, 1, 2, 2));
        if let DisplayCommand::Raw { data, .. } = &clipped {
            // Row 1, cols 1..3 of a 4-wide rgb image.
            let expect_first = (4 + 1) * 3;
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
        q.push(sfill(0, 0, 4, 4, 1));
        q.push(raw(4, 0, 4, 4));
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
        );
        // Clip cuts the bitmap: not exactly clippable, so not returned.
        let (cmds, covered) = q.extract_region(&Rect::new(8, 0, 8, 4), 0, 0);
        assert!(cmds.is_empty());
        assert!(covered.is_empty());
    }

    #[test]
    fn drain_empties() {
        let mut q = CommandQueue::new();
        q.push(sfill(0, 0, 1, 1, 1));
        let cmds = q.drain();
        assert_eq!(cmds.len(), 1);
        assert!(q.is_empty());
    }
}
