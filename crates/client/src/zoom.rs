//! Client-side zoom control (§6).
//!
//! "To view a desktop session through a small-screen mobile device
//! such as a PDA, THINC initially presents a zoomed-out version of
//! the user's desktop, from where the user can zoom in on particular
//! sections of the display. When the user zooms in ... the client
//! presents a temporary magnified view of the desktop while it
//! requests updated content from the server."
//!
//! [`ZoomController`] tracks the view state, produces the `SetView`
//! message for the server, and builds the temporary magnified
//! preview from the pixels the client already has.

use thinc_protocol::message::Message;
use thinc_raster::scale::scale_region;
use thinc_raster::{Framebuffer, Point, Rect, ScaleFilter};

/// Client zoom state for one session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ZoomController {
    session_w: u32,
    session_h: u32,
    viewport_w: u32,
    viewport_h: u32,
    view: Rect,
}

impl ZoomController {
    /// Starts zoomed out: the whole session mapped to the viewport.
    pub fn new(session_w: u32, session_h: u32, viewport_w: u32, viewport_h: u32) -> Self {
        Self {
            session_w,
            session_h,
            viewport_w,
            viewport_h,
            view: Rect::new(0, 0, session_w, session_h),
        }
    }

    /// The session-space region currently viewed.
    pub fn view(&self) -> Rect {
        self.view
    }

    /// The current magnification relative to zoomed-out (1.0 = whole
    /// desktop visible).
    pub fn zoom_factor(&self) -> f64 {
        self.session_w as f64 / self.view.w.max(1) as f64
    }

    /// Maps a viewport point to session coordinates under the current
    /// view.
    pub fn viewport_to_session(&self, p: Point) -> Point {
        Point::new(
            self.view.x + (p.x as i64 * self.view.w as i64 / self.viewport_w.max(1) as i64) as i32,
            self.view.y + (p.y as i64 * self.view.h as i64 / self.viewport_h.max(1) as i64) as i32,
        )
    }

    /// Zooms in by `factor` around the viewport point `center`,
    /// returning the `SetView` request to send to the server.
    ///
    /// The new view keeps the viewport's aspect ratio and is clamped
    /// inside the session.
    pub fn zoom_in(&mut self, center: Point, factor: u32) -> Message {
        let factor = factor.max(1);
        let c = self.viewport_to_session(center);
        let new_w = (self.view.w / factor).max(self.viewport_w.min(self.session_w) / 4).max(8);
        let new_h = (self.view.h / factor).max(self.viewport_h.min(self.session_h) / 4).max(8);
        let x = (c.x - new_w as i32 / 2)
            .clamp(0, (self.session_w.saturating_sub(new_w)) as i32);
        let y = (c.y - new_h as i32 / 2)
            .clamp(0, (self.session_h.saturating_sub(new_h)) as i32);
        self.view = Rect::new(x, y, new_w, new_h);
        Message::SetView { view: self.view }
    }

    /// Returns to the zoomed-out whole-desktop view.
    pub fn zoom_out(&mut self) -> Message {
        self.view = Rect::new(0, 0, self.session_w, self.session_h);
        Message::SetView { view: self.view }
    }

    /// Builds the temporary magnified preview shown while the server
    /// refresh is in flight: the sub-region of the *current* client
    /// framebuffer corresponding to the new view, upscaled to the
    /// viewport (nearest-neighbour — it is a stopgap image).
    ///
    /// `old_view` is the view the framebuffer currently shows.
    pub fn magnify_preview(&self, fb: &Framebuffer, old_view: Rect) -> Framebuffer {
        // Where does the new view sit inside the old one, in
        // viewport pixels?
        let rel_x = (self.view.x - old_view.x) as i64 * self.viewport_w as i64
            / old_view.w.max(1) as i64;
        let rel_y = (self.view.y - old_view.y) as i64 * self.viewport_h as i64
            / old_view.h.max(1) as i64;
        let rel_w = (self.view.w as i64 * self.viewport_w as i64 / old_view.w.max(1) as i64).max(1);
        let rel_h = (self.view.h as i64 * self.viewport_h as i64 / old_view.h.max(1) as i64).max(1);
        let src = Rect::new(rel_x as i32, rel_y as i32, rel_w as u32, rel_h as u32);
        scale_region(fb, &src, self.viewport_w, self.viewport_h, ScaleFilter::Nearest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thinc_raster::{Color, PixelFormat};

    fn controller() -> ZoomController {
        ZoomController::new(1024, 768, 320, 240)
    }

    #[test]
    fn starts_zoomed_out() {
        let z = controller();
        assert_eq!(z.view(), Rect::new(0, 0, 1024, 768));
        assert!((z.zoom_factor() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zoom_in_narrows_view_around_center() {
        let mut z = controller();
        let msg = z.zoom_in(Point::new(160, 120), 2);
        let Message::SetView { view } = msg else { panic!("{msg:?}") };
        assert_eq!(view, z.view());
        assert_eq!(view.w, 512);
        assert_eq!(view.h, 384);
        // Centered on the middle of the session.
        assert!(view.contains_point(Point::new(512, 384)));
        assert!((z.zoom_factor() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn zoom_clamps_at_session_edges() {
        let mut z = controller();
        z.zoom_in(Point::new(0, 0), 4);
        let v = z.view();
        assert!(v.x >= 0 && v.y >= 0);
        assert!(v.right() <= 1024 && v.bottom() <= 768);
    }

    #[test]
    fn repeated_zoom_has_floor() {
        let mut z = controller();
        for _ in 0..10 {
            z.zoom_in(Point::new(160, 120), 4);
        }
        assert!(z.view().w >= 8);
        assert!(z.view().h >= 8);
    }

    #[test]
    fn zoom_out_restores_full_view() {
        let mut z = controller();
        z.zoom_in(Point::new(10, 10), 4);
        let msg = z.zoom_out();
        assert!(matches!(msg, Message::SetView { view } if view == Rect::new(0, 0, 1024, 768)));
    }

    #[test]
    fn viewport_to_session_mapping() {
        let mut z = controller();
        // Zoomed out: viewport (160,120) is session (512,384).
        assert_eq!(z.viewport_to_session(Point::new(160, 120)), Point::new(512, 384));
        z.zoom_in(Point::new(160, 120), 2);
        // Zoomed 2x around center: viewport origin maps to view origin.
        let v = z.view();
        assert_eq!(z.viewport_to_session(Point::new(0, 0)), Point::new(v.x, v.y));
    }

    #[test]
    fn magnify_preview_upscales_existing_pixels() {
        let mut z = controller();
        let mut fb = Framebuffer::new(320, 240, PixelFormat::Rgb888);
        // Mark the center of the zoomed-out desktop.
        fb.fill_rect(&Rect::new(150, 110, 20, 20), Color::rgb(200, 10, 10));
        let old_view = z.view();
        z.zoom_in(Point::new(160, 120), 2);
        let preview = z.magnify_preview(&fb, old_view);
        assert_eq!((preview.width(), preview.height()), (320, 240));
        // The marked center should now dominate the middle.
        let c = preview.get_pixel(160, 120).unwrap();
        assert_eq!(c, Color::rgb(200, 10, 10));
    }
}
