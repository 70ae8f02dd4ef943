//! Video stream objects (§4.2).
//!
//! "THINC's video architecture is built around the notion of video
//! stream objects. Each stream object represents a video being
//! displayed." The server translates XVideo-level frame puts into
//! stream messages: `VideoInit` when a new stream appears, `VideoData`
//! per frame, `VideoMove` when the destination changes, `VideoEnd` on
//! teardown. Frames travel in their native YUV format; the client's
//! hardware does colorspace conversion and scaling, so fullscreen
//! playback costs the same bandwidth as windowed playback.
//!
//! For small viewports the server resamples the YUV planes before
//! transmission (the §8.3 PDA result: full quality at 3.5 Mbps).

use std::collections::HashMap;

use thinc_protocol::message::Message;
use thinc_protocol::Bytes;
use thinc_raster::{Rect, YuvFormat, YuvFrame};

/// One live video stream.
#[derive(Debug, Clone)]
pub struct VideoStream {
    /// Stream id on the wire.
    pub id: u32,
    /// Pixel format of the stream.
    pub format: YuvFormat,
    /// Source frame width (as transmitted).
    pub src_width: u32,
    /// Source frame height.
    pub src_height: u32,
    /// Current on-screen destination.
    pub dst: Rect,
    /// Frames sent.
    pub frames: u32,
}

/// Server-side video resampling: `(viewport_w, session_w, viewport_h,
/// session_h)`, frames and destinations scaled by `viewport/session`
/// per axis; `None` sends frames as they are.
pub type VideoScale = Option<(u32, u32, u32, u32)>;

/// What one displayed frame puts on the wire at one [`VideoScale`]:
/// a pure function of the frame and the scale, so every viewer at
/// that scale queues a reference to the same bytes.
#[derive(Debug, Clone)]
pub struct VideoPayload {
    /// Pixel format of the transmitted frame.
    pub format: YuvFormat,
    /// Transmitted frame width.
    pub width: u32,
    /// Transmitted frame height.
    pub height: u32,
    /// The transmitted planes.
    pub data: Bytes,
}

impl VideoPayload {
    /// Copies `frame` out of the driver's hands, resampled to `scale`
    /// (the §8.3 PDA path) or whole.
    pub fn new(frame: &YuvFrame, scale: VideoScale) -> Self {
        let sent = match scale {
            Some((vw, sw, vh, sh)) => {
                let fw = ((frame.width as u64 * vw as u64 / sw as u64).max(1)) as u32;
                let fh = ((frame.height as u64 * vh as u64 / sh as u64).max(1)) as u32;
                scale_yuv(frame, fw, fh)
            }
            None => frame.clone(),
        };
        Self {
            format: sent.format,
            width: sent.width,
            height: sent.height,
            data: sent.data.into(),
        }
    }
}

/// Manages stream lifecycle and frame delivery.
#[derive(Debug, Default)]
pub struct VideoStreamManager {
    streams: HashMap<u32, VideoStream>,
    next_id: u32,
    /// Downscale frames by this ratio before sending, when
    /// server-side scaling is active.
    scale: VideoScale,
}

impl VideoStreamManager {
    /// A manager with no active streams.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enables server-side resampling of video data: frames are
    /// scaled by `viewport/session` per axis before transmission.
    pub fn set_scale(&mut self, viewport_w: u32, session_w: u32, viewport_h: u32, session_h: u32) {
        if viewport_w == session_w && viewport_h == session_h {
            self.scale = None;
        } else {
            self.scale = Some((viewport_w, session_w, viewport_h, session_h));
        }
    }

    /// The scale frames for this viewer are resampled to.
    pub fn scale(&self) -> VideoScale {
        self.scale
    }

    /// Live streams.
    pub fn streams(&self) -> impl Iterator<Item = &VideoStream> {
        self.streams.values()
    }

    /// Handles one frame displayed at `dst`, producing the protocol
    /// messages to send. `timestamp_us` stamps the frame for A/V
    /// synchronization at the client.
    pub fn display_frame(&mut self, frame: &YuvFrame, dst: Rect, timestamp_us: u64) -> Vec<Message> {
        self.display_payload(&VideoPayload::new(frame, self.scale), dst, timestamp_us)
    }

    /// The stream bookkeeping half of
    /// [`display_frame`](Self::display_frame): `send`, which must be
    /// the payload for this manager's [`scale`](Self::scale), shown at
    /// session rectangle `dst`.
    pub fn display_payload(
        &mut self,
        send: &VideoPayload,
        dst: Rect,
        timestamp_us: u64,
    ) -> Vec<Message> {
        let mut out = Vec::new();
        let send_dst = match self.scale {
            Some((vw, sw, vh, sh)) => dst.scaled(vw, sw, vh, sh),
            None => dst,
        };
        // Find a stream with matching geometry/format.
        let existing = self
            .streams
            .values()
            .find(|s| {
                s.format == send.format && s.src_width == send.width && s.src_height == send.height
            })
            .map(|s| s.id);
        let id = match existing {
            Some(id) => {
                let s = self.streams.get_mut(&id).expect("stream exists");
                if s.dst != send_dst {
                    s.dst = send_dst;
                    out.push(Message::VideoMove { id, dst: send_dst });
                }
                id
            }
            None => {
                let id = self.next_id;
                self.next_id += 1;
                self.streams.insert(
                    id,
                    VideoStream {
                        id,
                        format: send.format,
                        src_width: send.width,
                        src_height: send.height,
                        dst: send_dst,
                        frames: 0,
                    },
                );
                out.push(Message::VideoInit {
                    id,
                    format: send.format,
                    src_width: send.width,
                    src_height: send.height,
                    dst: send_dst,
                });
                id
            }
        };
        let s = self.streams.get_mut(&id).expect("stream exists");
        let seq = s.frames;
        s.frames += 1;
        out.push(Message::VideoData {
            id,
            seq,
            timestamp_us,
            data: send.data.clone(),
        });
        out
    }

    /// Re-announces every live stream for a resyncing client: a fresh
    /// connection has no stream table, so each stream's `VideoInit`
    /// is re-sent (ids ascending for determinism). Frame sequence
    /// numbers continue — the client only needs the geometry.
    pub fn reannounce(&self) -> Vec<Message> {
        let mut ids: Vec<u32> = self.streams.keys().copied().collect();
        ids.sort_unstable();
        ids.into_iter()
            .map(|id| {
                let s = &self.streams[&id];
                Message::VideoInit {
                    id,
                    format: s.format,
                    src_width: s.src_width,
                    src_height: s.src_height,
                    dst: s.dst,
                }
            })
            .collect()
    }

    /// Tears down stream `id`, producing the `VideoEnd` message.
    pub fn end_stream(&mut self, id: u32) -> Option<Message> {
        self.streams.remove(&id).map(|_| Message::VideoEnd { id })
    }

    /// Tears down every stream.
    pub fn end_all(&mut self) -> Vec<Message> {
        let ids: Vec<u32> = self.streams.keys().copied().collect();
        ids.into_iter().filter_map(|id| self.end_stream(id)).collect()
    }
}

/// Resamples a YUV frame to `w`×`h` by nearest-neighbour plane
/// sampling — the cheap server-side video downscale.
pub fn scale_yuv(frame: &YuvFrame, w: u32, h: u32) -> YuvFrame {
    if w == frame.width && h == frame.height {
        return frame.clone();
    }
    let mut out = YuvFrame::new(frame.format, w, h);
    match frame.format {
        YuvFormat::Yv12 => {
            let ow = w as usize;
            let cw = (w as usize).div_ceil(2);
            let ch = (h as usize).div_ceil(2);
            let y_len = ow * h as usize;
            let c_len = cw * ch;
            let scw = (frame.width as usize).div_ceil(2);
            let sch = (frame.height as usize).div_ceil(2);
            let sy_len = frame.width as usize * frame.height as usize;
            let sc_len = scw * sch;
            for y in 0..h as usize {
                let sy = y * frame.height as usize / h as usize;
                for x in 0..ow {
                    let sx = x * frame.width as usize / w as usize;
                    out.data[y * ow + x] = frame.data[sy * frame.width as usize + sx];
                }
            }
            for cy in 0..ch {
                let scy = (cy * sch / ch).min(sch.saturating_sub(1));
                for cx in 0..cw {
                    let scx = (cx * scw / cw).min(scw.saturating_sub(1));
                    out.data[y_len + cy * cw + cx] = frame.data[sy_len + scy * scw + scx];
                    out.data[y_len + c_len + cy * cw + cx] =
                        frame.data[sy_len + sc_len + scy * scw + scx];
                }
            }
        }
        YuvFormat::Yuy2 => {
            let pairs = (w as usize).div_ceil(2);
            let spairs = (frame.width as usize).div_ceil(2);
            for y in 0..h as usize {
                let sy = y * frame.height as usize / h as usize;
                for p in 0..pairs {
                    let sp = p * spairs / pairs;
                    let src = (sy * spairs + sp) * 4;
                    let dst = (y * pairs + p) * 4;
                    out.data[dst..dst + 4].copy_from_slice(&frame.data[src..src + 4]);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame() -> YuvFrame {
        YuvFrame::new(YuvFormat::Yv12, 352, 240)
    }

    #[test]
    fn first_frame_inits_stream() {
        let mut m = VideoStreamManager::new();
        let msgs = m.display_frame(&frame(), Rect::new(0, 0, 1024, 768), 0);
        assert_eq!(msgs.len(), 2);
        assert!(matches!(msgs[0], Message::VideoInit { .. }));
        assert!(matches!(msgs[1], Message::VideoData { seq: 0, .. }));
    }

    #[test]
    fn subsequent_frames_are_data_only() {
        let mut m = VideoStreamManager::new();
        m.display_frame(&frame(), Rect::new(0, 0, 1024, 768), 0);
        let msgs = m.display_frame(&frame(), Rect::new(0, 0, 1024, 768), 41_667);
        assert_eq!(msgs.len(), 1);
        assert!(matches!(msgs[0], Message::VideoData { seq: 1, timestamp_us: 41_667, .. }));
    }

    #[test]
    fn moving_the_window_emits_video_move() {
        let mut m = VideoStreamManager::new();
        m.display_frame(&frame(), Rect::new(0, 0, 352, 240), 0);
        let msgs = m.display_frame(&frame(), Rect::new(100, 100, 352, 240), 1);
        assert!(matches!(msgs[0], Message::VideoMove { .. }));
        assert!(matches!(msgs[1], Message::VideoData { .. }));
    }

    #[test]
    fn fullscreen_costs_same_bytes_as_windowed() {
        // The headline §4.2 property: hardware scaling decouples
        // network cost from view size.
        let mut m1 = VideoStreamManager::new();
        let small: u64 = m1
            .display_frame(&frame(), Rect::new(0, 0, 352, 240), 0)
            .iter()
            .map(|m| m.wire_size())
            .sum();
        let mut m2 = VideoStreamManager::new();
        let full: u64 = m2
            .display_frame(&frame(), Rect::new(0, 0, 1024, 768), 0)
            .iter()
            .map(|m| m.wire_size())
            .sum();
        assert_eq!(small, full);
    }

    #[test]
    fn end_stream_messages() {
        let mut m = VideoStreamManager::new();
        m.display_frame(&frame(), Rect::new(0, 0, 100, 100), 0);
        let ends = m.end_all();
        assert_eq!(ends.len(), 1);
        assert!(matches!(ends[0], Message::VideoEnd { .. }));
        assert_eq!(m.streams().count(), 0);
    }

    #[test]
    fn pda_scaling_shrinks_payload() {
        let mut m = VideoStreamManager::new();
        m.set_scale(320, 1024, 240, 768);
        let msgs = m.display_frame(&frame(), Rect::new(0, 0, 1024, 768), 0);
        let data_len = msgs
            .iter()
            .find_map(|msg| match msg {
                Message::VideoData { data, .. } => Some(data.len()),
                _ => None,
            })
            .unwrap();
        let full = YuvFormat::Yv12.frame_size(352, 240);
        assert!(data_len * 5 < full, "{data_len} vs {full}");
        // Destination mapped into the viewport.
        match &msgs[0] {
            Message::VideoInit { dst, .. } => {
                assert!(dst.w <= 320 && dst.h <= 240);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn scale_yuv_identity() {
        let f = frame();
        let s = scale_yuv(&f, 352, 240);
        assert_eq!(s, f);
    }

    #[test]
    fn scale_yuv_geometry() {
        let f = frame();
        let s = scale_yuv(&f, 110, 75);
        assert_eq!((s.width, s.height), (110, 75));
        assert_eq!(s.data.len(), YuvFormat::Yv12.frame_size(110, 75));
    }

    #[test]
    fn scale_yuy2_geometry() {
        let f = YuvFrame::new(YuvFormat::Yuy2, 64, 32);
        let s = scale_yuv(&f, 16, 8);
        assert_eq!(s.data.len(), YuvFormat::Yuy2.frame_size(16, 8));
    }

    #[test]
    fn distinct_geometries_get_distinct_streams() {
        let mut m = VideoStreamManager::new();
        m.display_frame(&frame(), Rect::new(0, 0, 352, 240), 0);
        let f2 = YuvFrame::new(YuvFormat::Yv12, 176, 120);
        let msgs = m.display_frame(&f2, Rect::new(0, 0, 176, 120), 0);
        assert!(matches!(msgs[0], Message::VideoInit { id: 1, .. }));
        assert_eq!(m.streams().count(), 2);
    }
}
