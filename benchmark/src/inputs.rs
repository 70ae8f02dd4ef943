//! Seed → inputs. Everything a workload feeds the product is built
//! here before any timing starts; the product sees only these values.
//! Each generator also has a canonical FNV-1a 64 digest so the default
//! seed's inputs can be pinned in `inputs.lock`.

use thinc_display::request::DrawRequest;
use thinc_display::{DrawableId, SCREEN};
use thinc_protocol::hash::{fnv64_update, FNV64_OFFSET};
use thinc_raster::{Color, Rect};
use thinc_workloads::web::PAGE_COUNT;
use thinc_workloads::{content, AudioTrack, ScrollWorkload, VideoClip, WebWorkload};

use crate::stats::SplitMix64;

pub const WIDTH: u32 = 1024;
pub const HEIGHT: u32 = 768;

/// One unit of work for a socket workload: the draw requests of one
/// page / frame / step / switch, plus the audio written with it.
#[derive(Clone)]
pub struct Update {
    pub reqs: Vec<DrawRequest>,
    pub pcm: Vec<u8>,
}

#[derive(Clone)]
pub struct SocketInputs {
    /// Requests processed once during set-up (pixmaps, initial screen).
    pub prologue: Vec<DrawRequest>,
    /// Open the virtual audio device during set-up.
    pub audio: bool,
    pub updates: Vec<Update>,
}

/// One fan-out epoch: driver operations on the shared session.
#[derive(Clone)]
pub struct Epoch {
    pub tile_rect: Rect,
    pub tile: Vec<u8>,
    pub fill_rect: Rect,
    pub fill_color: Color,
    /// `(src, dst_x, dst_y)` on every 4th epoch.
    pub copy: Option<(Rect, i32, i32)>,
}

pub enum Inputs {
    Socket(SocketInputs),
    Fanout(Vec<Epoch>),
}

pub fn generate(workload: &str, seed: u64) -> Option<Inputs> {
    Some(match workload {
        "web" => Inputs::Socket(web(seed)),
        "video" => Inputs::Socket(video(seed)),
        "desktop" => Inputs::Socket(desktop(seed, 2000)),
        "winswitch" => Inputs::Socket(winswitch(seed)),
        "fanout" => Inputs::Fanout(fanout(seed)),
        _ => return None,
    })
}

fn draw(reqs: Vec<DrawRequest>) -> Update {
    Update {
        reqs,
        pcm: Vec::new(),
    }
}

/// All 54 pages, each composed in one persistent offscreen pixmap and
/// copied onscreen (every page starts with a full-pixmap fill, so the
/// pixmap carries nothing from page to page).
fn web(seed: u64) -> SocketInputs {
    let wl = WebWorkload::new(WIDTH, HEIGHT, seed);
    // The first pixmap a window server creates gets id 1.
    let page_buffer = DrawableId(1);
    SocketInputs {
        prologue: vec![DrawRequest::CreatePixmap {
            width: WIDTH,
            height: HEIGHT,
        }],
        audio: false,
        updates: (0..PAGE_COUNT)
            .map(|i| draw(wl.render_requests(i, page_buffer)))
            .collect(),
    }
}

/// The benchmark clip at native size (1:1, so the viewer's overlay
/// output is byte-identical to the server's software path), with the
/// audio written between frames. The seed shifts where in the
/// generator's phase space the clip starts.
fn video(seed: u64) -> SocketInputs {
    let clip = VideoClip::benchmark();
    let track = AudioTrack::benchmark();
    let shift = (seed % 4096) as u32;
    let dst = Rect::new(
        ((WIDTH - clip.width) / 2) as i32,
        ((HEIGHT - clip.height) / 2) as i32,
        clip.width,
        clip.height,
    );
    let frame_ms = 1000 / clip.fps as u64;
    SocketInputs {
        prologue: Vec::new(),
        audio: true,
        updates: (0..clip.frame_count())
            .map(|i| Update {
                reqs: vec![DrawRequest::VideoPut {
                    frame: clip.frame(i + shift),
                    dst,
                }],
                pcm: track.pcm(clip.pts_us(i + shift) / 1000, frame_ms),
            })
            .collect(),
    }
}

/// Typing and scrolling: seven keystroke echoes (erase an 8x14 cell,
/// draw one glyph) then one scroll step, `cycles` times.
pub fn desktop(seed: u64, cycles: u32) -> SocketInputs {
    let doc = ScrollWorkload {
        width: WIDTH,
        height: HEIGHT,
        step: 16,
        steps: cycles,
        seed,
    };
    let mut rng = SplitMix64(seed ^ 0xDE5C);
    let mut updates = Vec::with_capacity(cycles as usize * 8);
    for cycle in 0..cycles {
        for k in 0..7 {
            // Right of the document's text (lines end before x = 600).
            let (x, y) = (600 + 8 * k, 740);
            let ch = (b'a' + rng.below(26) as u8) as char;
            updates.push(draw(vec![
                DrawRequest::FillRect {
                    target: SCREEN,
                    rect: Rect::new(x, y, 8, 14),
                    color: Color::WHITE,
                },
                DrawRequest::Text {
                    target: SCREEN,
                    x,
                    y,
                    text: ch.to_string(),
                    fg: Color::BLACK,
                },
            ]));
        }
        updates.push(draw(doc.scroll_step_requests(cycle)));
    }
    SocketInputs {
        prologue: doc.initial_requests(),
        audio: false,
        updates,
    }
}

const WIN_W: u32 = 512;
const WIN_H: u32 = 384;

/// Window contents alternate between the workload crate's two image
/// kinds: photo-like (noise the codec cannot shrink) and graphic-like
/// (flat areas it shrinks a lot).
fn image(index: u64, seed: u64, w: u32, h: u32) -> Vec<u8> {
    if index.is_multiple_of(2) {
        content::photo_rgb(seed, w, h)
    } else {
        content::graphic_rgb(seed, w, h)
    }
}

/// Eight hot windows, each repainted at its own fixed place, visited
/// in a fixed stride; every 4th switch raises a window never drawn
/// before in the pass.
fn winswitch(seed: u64) -> SocketInputs {
    let hot: Vec<(Rect, Vec<u8>)> = (0..8u64)
        .map(|k| {
            let rect = Rect::new(
                (k % 4) as i32 * 170,
                (k / 4) as i32 * 200 + (k % 4) as i32 * 60,
                WIN_W,
                WIN_H,
            );
            (
                rect,
                image(k, seed.wrapping_mul(31).wrapping_add(k), WIN_W, WIN_H),
            )
        })
        .collect();
    let mut rng = SplitMix64(seed ^ 0xC01D);
    let mut visits = 0usize;
    let updates = (0..80u64)
        .map(|s| {
            let (rect, data) = if s % 4 == 3 {
                let rect = Rect::new(
                    rng.below((WIDTH - WIN_W + 1) as u64) as i32,
                    rng.below((HEIGHT - WIN_H + 1) as u64) as i32,
                    WIN_W,
                    WIN_H,
                );
                (rect, image(s / 4, seed ^ 0xC01D_0000 ^ s, WIN_W, WIN_H))
            } else {
                visits += 1;
                hot[(visits * 3) % hot.len()].clone()
            };
            draw(vec![DrawRequest::PutImage {
                target: SCREEN,
                rect,
                data,
            }])
        })
        .collect();
    SocketInputs {
        prologue: Vec::new(),
        audio: false,
        updates,
    }
}

/// 24 epochs of same-screen broadcast content: one image tile nobody
/// has seen, one fill, and a scroll-like copy on every 4th epoch.
fn fanout(seed: u64) -> Vec<Epoch> {
    (0..24u64)
        .map(|e| Epoch {
            tile_rect: Rect::new(
                ((e * 160) % (WIDTH as u64 - 256)) as i32,
                ((e * 112) % (HEIGHT as u64 - 192)) as i32,
                256,
                192,
            ),
            tile: image(e, seed ^ (e << 8) ^ 0xFA0, 256, 192),
            fill_rect: Rect::new(
                8 + ((e * 40) % 800) as i32,
                8 + ((e * 24) % 600) as i32,
                96,
                48,
            ),
            fill_color: Color::rgb((seed as u8).wrapping_add(e as u8 * 31), (e * 17) as u8, 200),
            copy: (e % 4 == 3).then(|| (Rect::new(0, 0, 512, 300), 256 + (e as i32 % 8) * 16, 200)),
        })
        .collect()
}

fn h_u64(h: u64, v: u64) -> u64 {
    fnv64_update(h, &v.to_le_bytes())
}

fn h_rect(h: u64, r: &Rect) -> u64 {
    [r.x as u64, r.y as u64, r.w as u64, r.h as u64]
        .into_iter()
        .fold(h, h_u64)
}

fn h_color(h: u64, c: Color) -> u64 {
    fnv64_update(h, &[c.r, c.g, c.b, c.a])
}

fn h_bytes(h: u64, b: &[u8]) -> u64 {
    fnv64_update(h_u64(h, b.len() as u64), b)
}

/// Folds one request into the digest: a tag byte, then every field.
fn h_request(h: u64, r: &DrawRequest) -> u64 {
    match r {
        DrawRequest::CreatePixmap { width, height } => {
            h_u64(h_u64(h_u64(h, 1), *width as u64), *height as u64)
        }
        DrawRequest::FreePixmap { id } => h_u64(h_u64(h, 2), id.0 as u64),
        DrawRequest::FillRect {
            target,
            rect,
            color,
        } => h_color(h_rect(h_u64(h_u64(h, 3), target.0 as u64), rect), *color),
        DrawRequest::TileRect { target, rect, tile } => h_u64(
            h_rect(h_u64(h_u64(h, 4), target.0 as u64), rect),
            tile.0 as u64,
        ),
        DrawRequest::StippleRect {
            target,
            rect,
            bits,
            fg,
            bg,
        } => {
            let h = h_color(
                h_bytes(h_rect(h_u64(h_u64(h, 5), target.0 as u64), rect), bits),
                *fg,
            );
            bg.map_or(h_u64(h, 0), |c| h_color(h_u64(h, 1), c))
        }
        DrawRequest::CopyArea {
            src,
            dst,
            src_rect,
            dst_x,
            dst_y,
        } => {
            let h = h_rect(
                h_u64(h_u64(h_u64(h, 6), src.0 as u64), dst.0 as u64),
                src_rect,
            );
            h_u64(h_u64(h, *dst_x as u64), *dst_y as u64)
        }
        DrawRequest::PutImage { target, rect, data } => {
            h_bytes(h_rect(h_u64(h_u64(h, 7), target.0 as u64), rect), data)
        }
        DrawRequest::Text {
            target,
            x,
            y,
            text,
            fg,
        } => {
            let h = h_u64(
                h_u64(h_u64(h_u64(h, 8), target.0 as u64), *x as u64),
                *y as u64,
            );
            h_color(h_bytes(h, text.as_bytes()), *fg)
        }
        DrawRequest::VideoPut { frame, dst } => {
            let h = h_u64(h_u64(h_u64(h, 9), frame.width as u64), frame.height as u64);
            h_rect(
                h_bytes(
                    h_bytes(h, format!("{:?}", frame.format).as_bytes()),
                    &frame.data,
                ),
                dst,
            )
        }
        DrawRequest::Composite {
            target,
            rect,
            data,
            op,
        } => {
            let h = h_bytes(h_rect(h_u64(h_u64(h, 10), target.0 as u64), rect), data);
            h_bytes(h, format!("{op:?}").as_bytes())
        }
    }
}

impl Inputs {
    /// FNV-1a 64 over the whole generated request stream.
    pub fn digest(&self) -> u64 {
        match self {
            Inputs::Socket(s) => {
                let h = s
                    .prologue
                    .iter()
                    .fold(h_u64(FNV64_OFFSET, s.audio as u64), h_request);
                s.updates.iter().fold(h, |h, u| {
                    h_bytes(
                        u.reqs.iter().fold(h_u64(h, u.reqs.len() as u64), h_request),
                        &u.pcm,
                    )
                })
            }
            Inputs::Fanout(epochs) => epochs.iter().fold(FNV64_OFFSET, |h, e| {
                let h = h_color(
                    h_rect(h_bytes(h_rect(h, &e.tile_rect), &e.tile), &e.fill_rect),
                    e.fill_color,
                );
                match &e.copy {
                    Some((src, x, y)) => {
                        h_u64(h_u64(h_rect(h_u64(h, 1), src), *x as u64), *y as u64)
                    }
                    None => h_u64(h, 0),
                }
            }),
        }
    }
}
