//! Drawables: the screen and offscreen pixmaps.
//!
//! Modern toolkits prepare interfaces in offscreen video memory and
//! copy them onscreen when ready (§4.1 of the paper) — the behaviour
//! THINC's offscreen-awareness optimization exists for. The drawable
//! store owns the screen framebuffer and every live pixmap.

use std::collections::HashMap;

use thinc_raster::{Framebuffer, PixelFormat};

/// Identifier of a drawable. [`SCREEN`] is the onscreen framebuffer;
/// all other ids are offscreen pixmaps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DrawableId(pub u32);

/// The onscreen framebuffer's id.
pub const SCREEN: DrawableId = DrawableId(0);

impl DrawableId {
    /// Whether this id refers to the visible screen.
    pub fn is_screen(self) -> bool {
        self == SCREEN
    }
}

/// Owner of the screen and all offscreen pixmaps.
#[derive(Debug)]
pub struct DrawableStore {
    screen: Framebuffer,
    pixmaps: HashMap<DrawableId, Framebuffer>,
    next_id: u32,
}

impl DrawableStore {
    /// Creates a store with a `width`×`height` screen in `format`.
    pub fn new(width: u32, height: u32, format: PixelFormat) -> Self {
        Self {
            screen: Framebuffer::new(width, height, format),
            pixmaps: HashMap::new(),
            next_id: 1,
        }
    }

    /// The screen's pixel format.
    pub fn format(&self) -> PixelFormat {
        self.screen.format()
    }

    /// The visible screen.
    pub fn screen(&self) -> &Framebuffer {
        &self.screen
    }

    /// The visible screen, mutably.
    pub fn screen_mut(&mut self) -> &mut Framebuffer {
        &mut self.screen
    }

    /// Allocates a new offscreen pixmap and returns its id.
    pub fn create_pixmap(&mut self, width: u32, height: u32) -> DrawableId {
        let id = DrawableId(self.next_id);
        self.next_id += 1;
        self.pixmaps
            .insert(id, Framebuffer::new(width, height, self.screen.format()));
        id
    }

    /// Frees an offscreen pixmap. Freeing an unknown id is a no-op;
    /// the screen cannot be freed.
    pub fn free_pixmap(&mut self, id: DrawableId) {
        if !id.is_screen() {
            self.pixmaps.remove(&id);
        }
    }

    /// Looks up a drawable.
    pub fn get(&self, id: DrawableId) -> Option<&Framebuffer> {
        if id.is_screen() {
            Some(&self.screen)
        } else {
            self.pixmaps.get(&id)
        }
    }

    /// Looks up a drawable mutably.
    pub fn get_mut(&mut self, id: DrawableId) -> Option<&mut Framebuffer> {
        if id.is_screen() {
            Some(&mut self.screen)
        } else {
            self.pixmaps.get_mut(&id)
        }
    }

    /// Looks up two *distinct* drawables, one mutably (for copies).
    ///
    /// Returns `None` if either id is unknown or the ids are equal.
    pub fn get_pair_mut(
        &mut self,
        src: DrawableId,
        dst: DrawableId,
    ) -> Option<(&Framebuffer, &mut Framebuffer)> {
        if src == dst {
            return None;
        }
        // Split borrows between the screen and the pixmap map, or
        // between two map entries.
        if src.is_screen() {
            let dst_fb = self.pixmaps.get_mut(&dst)?;
            Some((&self.screen, dst_fb))
        } else if dst.is_screen() {
            let src_fb = self.pixmaps.get(&src)?;
            Some((src_fb, &mut self.screen))
        } else {
            let [src_fb, dst_fb] = self.pixmaps.get_disjoint_mut([&src, &dst]);
            Some((&*src_fb?, dst_fb?))
        }
    }

    /// Number of live offscreen pixmaps.
    pub fn pixmap_count(&self) -> usize {
        self.pixmaps.len()
    }

    /// Ids of all live pixmaps (unordered).
    pub fn pixmap_ids(&self) -> impl Iterator<Item = DrawableId> + '_ {
        self.pixmaps.keys().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thinc_raster::{Color, Rect};

    fn store() -> DrawableStore {
        DrawableStore::new(64, 48, PixelFormat::Rgb888)
    }

    #[test]
    fn screen_is_drawable_zero() {
        let s = store();
        assert!(SCREEN.is_screen());
        assert_eq!(s.get(SCREEN).unwrap().width(), 64);
    }

    #[test]
    fn create_and_free_pixmaps() {
        let mut s = store();
        let a = s.create_pixmap(10, 10);
        let b = s.create_pixmap(20, 20);
        assert_ne!(a, b);
        assert!(!a.is_screen());
        assert_eq!(s.pixmap_count(), 2);
        assert_eq!(s.get(b).unwrap().width(), 20);
        s.free_pixmap(a);
        assert_eq!(s.pixmap_count(), 1);
        assert!(s.get(a).is_none());
    }

    #[test]
    fn free_screen_is_noop() {
        let mut s = store();
        s.free_pixmap(SCREEN);
        assert!(s.get(SCREEN).is_some());
    }

    #[test]
    fn pixmaps_inherit_screen_format() {
        let mut s = DrawableStore::new(8, 8, PixelFormat::Rgba8888);
        let p = s.create_pixmap(4, 4);
        assert_eq!(s.get(p).unwrap().format(), PixelFormat::Rgba8888);
    }

    #[test]
    fn pair_pixmap_to_screen() {
        let mut s = store();
        let p = s.create_pixmap(8, 8);
        s.get_mut(p)
            .unwrap()
            .fill_rect(&Rect::new(0, 0, 8, 8), Color::WHITE);
        let (src, dst) = s.get_pair_mut(p, SCREEN).unwrap();
        let (_, data) = src.get_raw(&Rect::new(0, 0, 8, 8));
        dst.put_raw(&Rect::new(0, 0, 8, 8), &data);
        assert_eq!(s.screen().get_pixel(0, 0), Some(Color::WHITE));
    }

    #[test]
    fn pair_pixmap_to_pixmap() {
        let mut s = store();
        let a = s.create_pixmap(4, 4);
        let b = s.create_pixmap(4, 4);
        s.get_mut(a)
            .unwrap()
            .fill_rect(&Rect::new(0, 0, 4, 4), Color::rgb(3, 3, 3));
        let (src, dst) = s.get_pair_mut(a, b).unwrap();
        let (_, data) = src.get_raw(&Rect::new(0, 0, 4, 4));
        dst.put_raw(&Rect::new(0, 0, 4, 4), &data);
        assert_eq!(s.get(b).unwrap().get_pixel(2, 2), Some(Color::rgb(3, 3, 3)));
    }

    #[test]
    fn pair_same_id_rejected() {
        let mut s = store();
        let a = s.create_pixmap(4, 4);
        assert!(s.get_pair_mut(a, a).is_none());
        assert!(s.get_pair_mut(SCREEN, SCREEN).is_none());
    }

    #[test]
    fn pair_unknown_id_rejected() {
        let mut s = store();
        let a = s.create_pixmap(4, 4);
        assert!(s.get_pair_mut(a, DrawableId(999)).is_none());
        assert!(s.get_pair_mut(DrawableId(999), a).is_none());
    }
}
