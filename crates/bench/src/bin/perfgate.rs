//! `perfgate`: the reproducible performance harness and regression
//! gate.
//!
//! Every suite returns [`Row`]s: a dotted key, a value, and, for a
//! gated row, which way is better, how much it may move and an
//! optional absolute floor. Everything else is derived from the rows:
//!
//! - **Micro** (`BENCH_raster.json`): every hot raster/codec/digest kernel
//!   timed against its retained byte-exact naive reference (the same
//!   pairs the equivalence property tests compare), reporting ns/op,
//!   ops/s, MB/s and the speedup ratio. One table lists the kernels.
//! - **Macro** (`BENCH_e2e.json`, `BENCH_fanout.json`): the web
//!   page-load, A/V playback and content-cache workloads through the
//!   full THINC pipeline, and the broadcast fan-out through the session
//!   manager, reporting latency, bytes, per-command-type wire-size
//!   p50/p99 (via thinc-telemetry) and scheduler flush-latency
//!   quantiles.
//!
//! The gate compares the gated rows against
//! `crates/bench/perf_baseline.json`: kernel *speedup ratios*
//! (machine-independent) and the virtual-time-deterministic macro
//! metrics must not regress by more than `--threshold` (default 0.15;
//! twice that for timing rows). Absolute ns/op numbers are reported but
//! never gated. Every ratio is a median over interleaved reference /
//! optimized rounds. A gated row with no baseline entry, or a baseline
//! entry no row produces, fails the gate too. The floored kernels fail
//! the run outright below their floor, whatever the baseline says, and
//! so does any hard check (byte-exact convergence, cache hits, ...).
//!
//! Usage:
//!   perfgate [--quick] [--threshold 0.15] [--write-baseline]

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::{self, Write as _};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use thinc_baselines::traits::RemoteDisplay;
use thinc_bench::thinc_system::ThincSystem;
use thinc_bench::{avbench, webbench};
use thinc_compress::{filter, lzss, pnglike, rle, DecodeScratch, Scratch};
use thinc_core::server::ServerConfig;
use thinc_core::session::Credentials;
use thinc_core::SharedSession;
use thinc_display::drawable::DrawableStore;
use thinc_display::driver::VideoDriver;
use thinc_display::request::DrawRequest;
use thinc_display::SCREEN;
use thinc_net::link::NetworkConfig;
use thinc_net::tcp::TcpPipe;
use thinc_net::time::{SimDuration, SimTime};
use thinc_net::trace::{Direction, PacketTrace};
use thinc_raster::yuv::YuvFormat;
use thinc_raster::{reference, Color, Framebuffer, PixelFormat, Rect, ScaleFilter, YuvFrame};
use thinc_workloads::video::{AudioTrack, VideoClip};
use thinc_workloads::web::WebWorkload;
use Better::{Higher, Lower};
use Slack::{Exact, Timing};

/// Allocation-counting wrapper around the system allocator. The
/// fan-out macro reports allocator calls per flush epoch: the
/// encode-once path reuses per-client compression and encode buffers
/// across `flush_all` rounds, so steady-state flushing should stay
/// near O(equivalence classes), not O(clients × commands).
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

struct Options {
    quick: bool,
    threshold: f64,
    write_baseline: bool,
}

fn parse_args() -> Options {
    let mut opts = Options {
        quick: false,
        threshold: 0.15,
        write_baseline: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => opts.quick = true,
            "--write-baseline" => opts.write_baseline = true,
            "--threshold" => {
                let v = args.next().expect("--threshold needs a value");
                opts.threshold = v.parse().expect("--threshold must be a number");
            }
            other => {
                eprintln!("unknown flag: {other}");
                eprintln!("usage: perfgate [--quick] [--threshold F] [--write-baseline]");
                std::process::exit(2);
            }
        }
    }
    opts
}

// ---------------------------------------------------------------
// Rows: every number the harness reports or gates, declared once.

/// A row's value, as the JSON files print it.
#[derive(Clone, Debug, PartialEq)]
enum Value {
    Num(f64),
    Count(u64),
    Flag(bool),
    Text(String),
}

macro_rules! value_from {
    ($($t:ty => $v:ident),*) => {
        $(impl From<$t> for Value {
            fn from(v: $t) -> Self {
                Value::$v(v.into())
            }
        })*
    };
}
value_from!(f64 => Num, u64 => Count, u32 => Count, bool => Flag, &str => Text, String => Text);

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter) -> fmt::Result {
        match self {
            Value::Num(v) if v.is_finite() => write!(f, "{v:.6}"),
            Value::Num(_) => f.write_str("null"),
            Value::Count(n) => write!(f, "{n}"),
            Value::Flag(b) => write!(f, "{b}"),
            Value::Text(s) => write!(f, "\"{s}\""),
        }
    }
}

/// Which way a gated row may not move.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Better {
    Higher,
    Lower,
}

/// How far a gated row may move before the gate fails.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Slack {
    /// Virtual-time deterministic: the threshold as given.
    Exact,
    /// Wall-clock or allocator derived (kernel speedups, allocation
    /// counts), so it jitters with scheduler noise: twice the
    /// threshold.
    Timing,
}

/// One reported number. Its dotted key is its baseline key and its
/// place in the JSON files (see [`json`]).
#[derive(Clone, Debug)]
struct Row {
    key: String,
    value: Value,
    /// `None`: reported, never gated.
    gate: Option<(Better, Slack)>,
    /// An absolute minimum that fails the run whatever the baseline
    /// says.
    floor: Option<f64>,
}

fn row(key: impl Into<String>, value: impl Into<Value>) -> Row {
    Row { key: key.into(), value: value.into(), gate: None, floor: None }
}

impl Row {
    fn gated(self, better: Better, slack: Slack) -> Row {
        Row { gate: Some((better, slack)), ..self }
    }

    fn number(&self) -> f64 {
        match self.value {
            Value::Num(v) => v,
            Value::Count(n) => n as f64,
            _ => panic!("row {} is not a number", self.key),
        }
    }
}

/// A hard pass/fail check: the condition and what its failure means.
type Check = (bool, String);

/// Deterministic pseudo-random bytes (same generator as the
/// equivalence tests).
fn noise(len: usize, seed: u64) -> Vec<u8> {
    let mut x = seed | 1;
    (0..len)
        .map(|_| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (x >> 33) as u8
        })
        .collect()
}

fn noise_fb(w: u32, h: u32, format: PixelFormat, seed: u64) -> Framebuffer {
    let mut fb = Framebuffer::new(w, h, format);
    let bytes = noise(w as usize * h as usize * format.bytes_per_pixel(), seed);
    fb.put_raw(&Rect::new(0, 0, w, h), &bytes);
    fb
}

/// Desktop-like image bytes: flat regions, a window, text speckles —
/// the content class THINC RAW updates actually carry.
fn desktop_bytes(w: usize, h: usize, bpp: usize) -> Vec<u8> {
    let mut img = vec![200u8; w * h * bpp];
    for y in h / 8..h * 3 / 4 {
        for x in w / 8..w * 7 / 8 {
            let off = (y * w + x) * bpp;
            img[off..off + bpp].fill(255);
        }
    }
    for i in (0..img.len()).step_by(97) {
        img[i] = 0;
    }
    img
}

/// One timed sample of `f`: nanoseconds per call over `budget_ns`.
fn sample_ns<F: FnMut()>(budget_ns: u128, f: &mut F) -> f64 {
    // Slow ops (several ms each) would get only a couple of
    // iterations out of the budget, which is too noisy to gate on.
    let min_iters = 4u64;
    let start = Instant::now();
    let mut iters = 0u64;
    loop {
        f();
        iters += 1;
        if iters >= min_iters && start.elapsed().as_nanos() >= budget_ns {
            break;
        }
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// One timed call of a reference or an optimized kernel.
type Op<'a> = Box<dyn FnMut() + 'a>;

/// An [`Op`] that owns the mutable state it works on (a framebuffer
/// it draws into, a scratch it reuses).
fn op<'a, S: 'a>(mut state: S, mut f: impl FnMut(&mut S) + 'a) -> Op<'a> {
    Box::new(move || f(&mut state))
}

/// Times one reference/optimized pair over the same input: `k` rounds
/// of one reference sample then one optimized sample, reporting the
/// median of each side and the median of the per-round ratios. The
/// two sides of a round share whatever the box's other tenants are
/// doing in that window, and a median shrugs off the rounds they
/// spoil — a best-of on each side taken seconds apart failed ratios
/// near their floor one run in three.
fn kernel(quick: bool, name: &str, bytes: usize, floor: Option<f64>, mut r: Op, mut o: Op) -> Vec<Row> {
    r(); // Warmup.
    o();
    let (rounds, budget_ns) = if quick { (5, 12_000_000u128) } else { (9, 55_000_000u128) };
    let (mut refs, mut opts, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..rounds {
        let (ref_ns, opt_ns) = (sample_ns(budget_ns, &mut r), sample_ns(budget_ns, &mut o));
        refs.push(ref_ns);
        opts.push(opt_ns);
        ratios.push(ref_ns / opt_ns);
    }
    let (ref_ns, opt_ns, speedup) = (median(refs), median(opts), median(ratios));
    let mb_s = |ns: f64| bytes as f64 / ns * 1e9 / 1e6;
    eprintln!(
        "  {name:<14} ref {ref_ns:>10.0} ns  opt {opt_ns:>10.0} ns  {speedup:>7.2}x  {:>8.1} MB/s",
        mb_s(opt_ns)
    );
    let key = |field: &str| format!("kernel.{name}.{field}");
    vec![
        row(key("name"), name),
        row(key("bytes_per_op"), bytes as u64),
        row(key("ref_ns_per_op"), ref_ns),
        row(key("opt_ns_per_op"), opt_ns),
        row(key("ref_mb_s"), mb_s(ref_ns)),
        row(key("opt_mb_s"), mb_s(opt_ns)),
        row(key("ops_s"), 1e9 / opt_ns),
        Row { floor, ..row(key("speedup"), speedup).gated(Higher, Timing) },
    ]
}

fn micro_suite(quick: bool) -> Vec<Row> {
    eprintln!("== micro kernels (reference vs optimized) ==");
    let (w, h) = (640u32, 480u32);
    let fmt = PixelFormat::Rgb888;
    let area_bytes = (w * h) as usize * 3;
    let rect = Rect::new(0, 0, w, h);
    let fb = || noise_fb(w, h, fmt, 1);
    // fill_rect: non-uniform color (the doubling-splat path).
    let color = Color::rgb(17, 34, 51);
    // tile_rect: 16x12 tile across the screen, phase-unaligned.
    let tile = noise_fb(16, 12, fmt, 3);
    let trect = Rect::new(-5, -3, w, h);
    // bitmap_rect: glyph-like bits — mostly background with solid
    // foreground runs and a few ragged edges, as text rendering
    // produces (uniform noise would be the span-decoder's worst case
    // and nothing like real stipples).
    let bits: Vec<u8> = noise((w as usize).div_ceil(8) * h as usize, 5)
        .into_iter()
        .map(|b| match b % 8 {
            0..=3 => 0x00,
            4..=5 => 0xFF,
            6 => 0xF0,
            _ => b,
        })
        .collect();
    // bitmap_text: a screen of text in the built-in font, one
    // transparent stipple per line, the way the window server draws
    // a `Text` request.
    let prose = "Thin clients ship drawing commands, not pixels: text is a stipple. ";
    let line = |i: usize| prose.chars().cycle().skip(i * 7).take(w as usize / 8).collect::<String>();
    let page: Vec<String> = (0..h as usize / 8).map(line).collect();
    let runs = thinc_display::text::layout(&page.join("\n"), 0, 0);
    // copy_rect: the 1-pixel scroll (the hottest COPY in practice).
    let src = Rect::new(0, 1, w, h - 1);
    // convert: palette expansion through the 256-entry LUT path.
    let idx = noise_fb(w, h, PixelFormat::Indexed8, 7);
    let rgb = noise_fb(w, h, fmt, 9);
    // yuv_unpack: the paper's clip, YV12 -> RGB at native size (every
    // frame, both ends of the wire) and scaled up to fullscreen.
    let clip_rgb = noise_fb(352, 240, fmt, 10);
    let clip = YuvFrame::from_rgb(&clip_rgb, &clip_rgb.bounds(), YuvFormat::Yv12);
    let big = noise_fb(w, h, fmt, 11);
    let screen = noise_fb(1024, 768, fmt, 12);
    // Codecs over desktop-like RAW content.
    let img = desktop_bytes(w as usize, h as usize / 4, 3);
    let stride = w as usize * 3;
    // The same encode over graphic content, flat areas and solid
    // shapes as a logo or a web graphic ships them: rows that repeat
    // the row above and residuals that are long zero runs.
    let graphic = thinc_workloads::content::graphic_rgb(2005, 512, 384);
    let graphic_stride = 512 * 3;
    // A photograph: smooth gradients and noise, whose residuals the
    // dictionary coder mostly cannot match. This is the first-sight
    // encode of every new picture, and where a search that finds no
    // same-bytes neighbour in the window walks no chain.
    let photo = thinc_workloads::content::photo_rgb(2005, 512, 384);
    // The decoders, on the stream of the desktop-like image above and
    // on that of a graphic-like tile: flat shapes, whose stream is
    // nearly all long matches, are what a RAW that ships compressed
    // mostly looks like. The optimized side of `pnglike_decode` is the
    // call a viewer makes, with its reused scratch.
    let graphic_tile = thinc_workloads::content::graphic_rgb(2005, 256, 192);
    let images = [(&img, stride), (&graphic_tile, 256 * 3)];
    let decoded_bytes = img.len() + graphic_tile.len();
    let streams = images.map(|(image, stride)| lzss::compress(&filter::apply(image, 3, stride)));
    let packed = images.map(|(image, stride)| (pnglike::compress(image, 3, stride), stride, image.len()));
    // The delivery path's byte-linear digests over one fan-out tile's
    // worth of payload: the three-lane CRC-32 against its retained
    // byte-serial reference, and the in-process content identity
    // against the FNV-1a 64 it replaced as the form store's key. Then
    // the CRC of 64 separate `desktop`-sized 80-byte frames, which
    // stay on the serial path: the lane dispatch must not tax them.
    let payload = noise(54_500, 13);
    let frames = || payload.chunks_exact(80).take(64);
    let ref_pnglike = thinc_compress::reference::pnglike_compress;
    let ref_crc = thinc_protocol::reference::crc32_update;

    // The rewritten straggler kernels, the RAW codec in both directions
    // and the two digests carry absolute speedup floors (the "kernel
    // war" acceptance bar): 3x against the retained reference (for
    // `content_id`, against FNV-1a 64), 5x for the vertical-first Fant
    // at the PDA ratio, 6x for the three-lane `crc32`, and 50x for the
    // encode of flat graphic content, which the encoder without either
    // flat-content shortcut does not reach (`pnglike_photo`'s 3x is not
    // reached without the no-neighbour test ahead of the chain walk).
    // The other kernels gate only relatively, via the baseline.
    let table: Vec<(&str, usize, Option<f64>, Op, Op)> = vec![
        (
            "fill_rect", area_bytes, None,
            op(fb(), |fb| reference::fill_rect(black_box(fb), &rect, color)),
            op(fb(), |fb| black_box(fb).fill_rect(&rect, color)),
        ),
        (
            "tile_rect", area_bytes, None,
            op(fb(), |fb| reference::tile_rect(black_box(fb), &trect, &tile)),
            op(fb(), |fb| black_box(fb).tile_rect(&trect, &tile)),
        ),
        (
            "bitmap_rect", area_bytes, Some(3.0),
            op(fb(), |fb| reference::bitmap_rect(black_box(fb), &rect, &bits, Color::BLACK, Some(Color::WHITE))),
            op(fb(), |fb| black_box(fb).bitmap_rect(&rect, &bits, Color::BLACK, Some(Color::WHITE))),
        ),
        (
            "bitmap_text", area_bytes, Some(3.0),
            op(fb(), |fb| {
                for t in &runs {
                    reference::bitmap_rect(black_box(&mut *fb), &t.rect, &t.bits, Color::BLACK, None);
                }
            }),
            op(fb(), |fb| {
                for t in &runs {
                    black_box(&mut *fb).bitmap_rect(&t.rect, &t.bits, Color::BLACK, None);
                }
            }),
        ),
        (
            "copy_rect", area_bytes, None,
            op(fb(), |fb| reference::copy_rect(black_box(fb), &src, 0, 0)),
            op(fb(), |fb| black_box(fb).copy_rect(&src, 0, 0)),
        ),
        (
            "convert", (w * h) as usize * 4, Some(3.0),
            Box::new(|| drop(black_box(reference::convert(&idx, PixelFormat::Rgba8888)))),
            Box::new(|| drop(black_box(idx.convert(PixelFormat::Rgba8888)))),
        ),
        (
            // RGB -> YV12 with 2x2 chroma averaging.
            "yuv_pack", area_bytes, Some(3.0),
            Box::new(|| drop(black_box(reference::yuv_from_rgb(&rgb, &rect, YuvFormat::Yv12)))),
            Box::new(|| drop(black_box(YuvFrame::from_rgb(&rgb, &rect, YuvFormat::Yv12)))),
        ),
        (
            "yuv_unpack", 352 * 240 * 3, Some(3.0),
            Box::new(|| drop(black_box(reference::yuv_to_rgb_scaled(&clip, 352, 240, fmt)))),
            Box::new(|| drop(black_box(clip.to_rgb_scaled(352, 240, fmt)))),
        ),
        (
            "yuv_unpack_up", 1024 * 768 * 3, Some(3.0),
            Box::new(|| drop(black_box(reference::yuv_to_rgb_scaled(&clip, 1024, 768, fmt)))),
            Box::new(|| drop(black_box(clip.to_rgb_scaled(1024, 768, fmt)))),
        ),
        (
            // 2x downscale (the integer-ratio fast path).
            "scale_fant", area_bytes, Some(3.0),
            Box::new(|| drop(black_box(reference::scale_fant(&big, w / 2, h / 2)))),
            Box::new(|| drop(black_box(thinc_raster::scale_image(&big, w / 2, h / 2, ScaleFilter::Fant)))),
        ),
        (
            // The paper's PDA viewport, 1024x768 -> 320x240: a 3.2:1
            // general ratio, the one the scaled fan-out class and the
            // PDA figures resample at.
            "scale_fant_pda", 1024 * 768 * 3, Some(5.0),
            Box::new(|| drop(black_box(reference::scale_fant(&screen, 320, 240)))),
            Box::new(|| drop(black_box(thinc_raster::scale_image(&screen, 320, 240, ScaleFilter::Fant)))),
        ),
        (
            "rle", img.len(), None,
            Box::new(|| drop(black_box(thinc_compress::reference::rle_compress(&img)))),
            Box::new(|| drop(black_box(rle::compress(&img)))),
        ),
        (
            "pixel_rle", img.len(), None,
            Box::new(|| drop(black_box(thinc_compress::reference::rle_compress_symbols(&img, 3)))),
            Box::new(|| drop(black_box(rle::compress_symbols(&img, 3)))),
        ),
        (
            "lzss", img.len(), Some(3.0),
            Box::new(|| drop(black_box(thinc_compress::reference::lzss_compress(&img)))),
            Box::new(|| drop(black_box(lzss::compress(&img)))),
        ),
        (
            "filter", img.len(), None,
            Box::new(|| drop(black_box(thinc_compress::reference::filter_apply(&img, 3, stride)))),
            op(Vec::new(), |out| filter::apply_into(black_box(&img), 3, stride, out)),
        ),
        (
            "pnglike", img.len(), Some(3.0),
            Box::new(|| drop(black_box(ref_pnglike(&img, 3, stride)))),
            op(Scratch::new(), |s| _ = black_box(pnglike::compress_with(&img, 3, stride, s).len())),
        ),
        (
            "pnglike_graphic", graphic.len(), Some(50.0),
            Box::new(|| drop(black_box(ref_pnglike(&graphic, 3, graphic_stride)))),
            op(Scratch::new(), |s| _ = black_box(pnglike::compress_with(&graphic, 3, graphic_stride, s).len())),
        ),
        (
            "pnglike_photo", photo.len(), Some(3.0),
            Box::new(|| drop(black_box(ref_pnglike(&photo, 3, graphic_stride)))),
            op(Scratch::new(), |s| _ = black_box(pnglike::compress_with(&photo, 3, graphic_stride, s).len())),
        ),
        (
            "lzss_decode", decoded_bytes, None,
            Box::new(|| {
                for stream in &streams {
                    drop(black_box(thinc_compress::reference::lzss_decompress(black_box(stream))));
                }
            }),
            Box::new(|| {
                for stream in &streams {
                    drop(black_box(lzss::decompress(black_box(stream))));
                }
            }),
        ),
        (
            "pnglike_decode", decoded_bytes, Some(3.0),
            Box::new(|| {
                for (stream, stride, _) in &packed {
                    drop(black_box(thinc_compress::reference::pnglike_decompress(black_box(stream), 3, *stride)));
                }
            }),
            op(DecodeScratch::new(), |d| {
                for (stream, stride, len) in &packed {
                    black_box(pnglike::decompress_into(black_box(stream), 3, *stride, *len, d));
                }
            }),
        ),
        (
            "crc32", payload.len(), Some(6.0),
            Box::new(|| _ = black_box(ref_crc(!0, black_box(&payload)))),
            Box::new(|| _ = black_box(thinc_protocol::crc::crc32_update(!0, black_box(&payload)))),
        ),
        (
            "content_id", payload.len(), Some(3.0),
            Box::new(|| _ = black_box(thinc_protocol::hash::fnv64(black_box(&payload)))),
            Box::new(|| _ = black_box(thinc_protocol::hash::content_id(black_box(&payload)))),
        ),
        (
            "crc32_small", 64 * 80, None,
            Box::new(|| _ = black_box(frames().fold(0, |x, f| x ^ ref_crc(!0, black_box(f))))),
            Box::new(|| {
                _ = black_box(frames().fold(0, |x, f| x ^ thinc_protocol::crc::crc32_update(!0, black_box(f))))
            }),
        ),
    ];
    table.into_iter().flat_map(|(name, bytes, floor, r, o)| kernel(quick, name, bytes, floor, r, o)).collect()
}

fn web_suite(checks: &mut Vec<Check>) -> Vec<Row> {
    // Same page count in both modes: the macro run is virtual-time
    // (milliseconds of wall clock), and quick/full must produce the
    // same deterministic numbers for the baseline gate to apply.
    let pages = 6;
    eprintln!("== macro: web page loads ({pages} pages) ==");
    let lan = NetworkConfig::lan_desktop();
    let mut sys = ThincSystem::new(&lan, 256, 192);
    let wl = WebWorkload::new(256, 192, 2005);
    let wall = Instant::now();
    let res = webbench::run_web(&mut sys, &wl, pages);
    let wall_ms = wall.elapsed().as_secs_f64() * 1e3;
    let tel = sys.session_telemetry();
    let verified = sys.verified();
    eprintln!(
        "  latency {:.3}s  page {:.1} KB  verified {verified}  wall {wall_ms:.0} ms",
        res.avg_latency_s, res.avg_page_kb
    );
    checks.push((verified, "client framebuffer diverged from server screen".into()));
    let flush = tel.scheduler.flush_latency_us();
    let mut rows = vec![
        row("web.pages", pages as u64),
        row("web.avg_latency_s", res.avg_latency_s).gated(Lower, Exact),
        row("web.avg_page_kb", res.avg_page_kb).gated(Lower, Exact),
        row("web.verified", verified),
        row("web.wall_ms", wall_ms),
        row("web.flush_latency_p50_us", flush.quantile(0.5)),
        row("web.flush_latency_p99_us", flush.quantile(0.99)),
    ];
    for r in tel.protocol.rows() {
        let (kind, sizes) = (r.kind.name(), tel.protocol.size_histogram(r.kind));
        let key = |field: &str| format!("web.command.{kind}.{field}");
        rows.extend([
            row(key("kind"), kind),
            row(key("count"), r.count),
            row(key("bytes"), r.bytes),
            row(key("p50_bytes"), sizes.quantile(0.5)),
            row(key("p99_bytes"), sizes.quantile(0.99)),
        ]);
    }
    rows
}

fn video_suite() -> Vec<Row> {
    // Fixed clip length for the same reason as `web_suite`.
    let ms = 2_000;
    eprintln!("== macro: a/v playback ({ms} ms clip) ==");
    let lan = NetworkConfig::lan_desktop();
    let clip = VideoClip::short(ms);
    let audio = AudioTrack { duration_ms: ms, ..AudioTrack::benchmark() };
    let mut sys = ThincSystem::new(&lan, 352, 240);
    let wall = Instant::now();
    let res = avbench::run_av(&mut sys, &clip, Some(&audio), Rect::new(0, 0, 352, 240));
    let wall_ms = wall.elapsed().as_secs_f64() * 1e3;
    let (delivered, dropped) = res.frames;
    eprintln!(
        "  quality {:.1}%  data {:.2} MB  frames {delivered}/{}  wall {wall_ms:.0} ms",
        res.quality * 100.0,
        res.data_mb,
        delivered + dropped,
    );
    vec![
        row("video.quality", res.quality).gated(Higher, Exact),
        row("video.data_mb", res.data_mb),
        row("video.frames_delivered", delivered),
        row("video.frames_dropped", dropped),
        row("video.wall_ms", wall_ms),
    ]
}

/// The revision-3 content-cache macro: a window-switch workload that
/// cycles between a few fixed full-viewport window images — the
/// canonical repeated-content pattern — once with the cache enabled
/// and once with it disabled. Both runs must converge byte-exact to
/// the same framebuffer; the gate is on the cached bytes-per-round
/// and the cached/uncached savings ratio, both virtual-time
/// deterministic (see `docs/CACHE.md`).
fn cache_suite(checks: &mut Vec<Check>) -> Vec<Row> {
    const CW: u32 = 256;
    const CH: u32 = 192;
    let rounds = 12usize;
    let windows = 3usize;
    eprintln!("== macro: content cache ({rounds} window switches over {windows} windows) ==");
    let window_image = |w: usize| -> Vec<u8> {
        let mut img = desktop_bytes(CW as usize, CH as usize, 3);
        // Distinct per-window content: salt a sparse speckle pattern.
        for i in (w..img.len()).step_by(53 + w * 7) {
            img[i] = (w * 67) as u8;
        }
        img
    };
    let run = |budget: Option<u64>| -> ThincSystem {
        let cfg = ServerConfig {
            width: CW,
            height: CH,
            cache_budget_bytes: budget,
            ..ServerConfig::default()
        };
        let mut sys = ThincSystem::with_config(&NetworkConfig::lan_desktop(), cfg, (CW, CH));
        let mut now = SimTime::ZERO;
        for r in 0..rounds {
            sys.process(
                now,
                vec![DrawRequest::PutImage {
                    target: SCREEN,
                    rect: Rect::new(0, 0, CW, CH),
                    data: window_image(r % windows),
                }],
            );
            now = sys.drain(now) + SimDuration::from_millis(5);
        }
        sys
    };
    let cached = run(Some(thinc_protocol::DEFAULT_CACHE_BUDGET));
    let uncached = run(None);
    let per_round = |sys: &ThincSystem| {
        sys.trace().bytes(Direction::Down) as f64 / rounds as f64 / 1024.0
    };
    let (cached_kb, uncached_kb) = (per_round(&cached), per_round(&uncached));
    let savings = uncached_kb / cached_kb;
    let hits = cached.client().resilience_metrics().cache_hits();
    let byte_exact =
        cached.client().client().framebuffer().data() == uncached.client().client().framebuffer().data();
    let verified = cached.verified() && uncached.verified();
    eprintln!(
        "  cached {cached_kb:.1} KB/round  uncached {uncached_kb:.1} KB/round  {savings:.2}x saved  \
         {hits} hits  byte-exact {byte_exact}",
    );
    checks.extend([
        (byte_exact && verified, "cached session is not byte-exact with the uncached session".into()),
        (hits > 0, "content cache resolved zero refs on a repeated-content workload".into()),
        (savings > 1.0, "content cache did not reduce bytes per round".into()),
    ]);
    vec![
        row("cache.rounds", rounds as u64),
        row("cache.cached_kb_per_round", cached_kb).gated(Lower, Exact),
        row("cache.uncached_kb_per_round", uncached_kb),
        row("cache.savings_ratio", savings).gated(Higher, Exact),
        row("cache.hits", hits),
        row("cache.byte_exact", byte_exact),
        row("cache.verified", verified),
    ]
}

// ---------------------------------------------------------------
// Fan-out macro: encode-once broadcast through the session manager.

const FAN_W: u32 = 160;
const FAN_H: u32 = 120;
const FAN_DRAW_EPOCHS: u64 = 24;
const FAN_SETTLE_EPOCHS: u64 = 80;
const FAN_EPOCH_US: u64 = 80_000;
/// Draw epochs measured for the allocation count (past warm-up, so
/// per-client scratch buffers have reached steady-state capacity).
const FAN_ALLOC_WINDOW: std::ops::Range<u64> = 8..FAN_DRAW_EPOCHS;

/// One band of desktop-like content, salted per epoch so every epoch
/// really transfers fresh pixels.
fn band_bytes(w: usize, rows: usize, salt: u64) -> Vec<u8> {
    let mut img = desktop_bytes(w, rows, 3);
    for i in ((salt as usize * 13) % 31..img.len()).step_by(61) {
        img[i] = (salt.wrapping_mul(41)) as u8;
    }
    img
}

/// Drives 256 viewers (quick) or 1024 (full) of one shared screen
/// through the session manager: mixed LAN / WAN / hostile (seeded
/// bandwidth-collapse windows) cohorts, adaptive degradation enabled,
/// every client an identity viewport on the same screen. Every message
/// is framed, run through the wire disturbance model, and decoded by a
/// real `StreamClient` whose framebuffer must converge byte-exact. The
/// epoch schedule is fixed (no data-dependent early exit). Every gated
/// row is virtual-time deterministic except the allocation count; wall
/// time is reported only.
///
/// The rows are keyed by scale (`fanout256.*`, `fanout1024.*`): the
/// two scales measure genuinely different workloads, so each gates
/// against its own baseline entries.
fn fanout_suite(quick: bool, checks: &mut Vec<Check>) -> Vec<Row> {
    use thinc_client::StreamClient;
    use thinc_core::degradation::{DegradationConfig, DegradationLevel};
    use thinc_core::ShardedManager;
    use thinc_net::fault::FaultPlan;
    use thinc_protocol::hash::{fnv64_update, FNV64_OFFSET};
    use thinc_protocol::wire::encode_message_into;

    let clients = if quick { 256 } else { 1024 };
    eprintln!("== macro: broadcast fan-out ({clients} clients) ==");
    let link_for = |i: usize| -> (TcpPipe, PacketTrace) {
        let seed = 0xFA0u64 + i as u64;
        let cfg = match i % 8 {
            0..=3 => NetworkConfig::lan_desktop(),
            4 | 5 => NetworkConfig::wan_desktop(),
            // Hostile cohorts: seeded delay-only bandwidth collapses
            // deep enough to force the degradation ladder, windowed
            // so every client recovers and re-promotes before drain.
            6 => NetworkConfig::lan_desktop().with_faults(
                FaultPlan::seeded(seed).with_collapse(
                    SimTime(400_000),
                    SimDuration::from_millis(600),
                    0.002,
                ),
            ),
            _ => NetworkConfig::wan_desktop().with_faults(
                FaultPlan::seeded(seed).with_collapse(
                    SimTime(800_000),
                    SimDuration::from_millis(800),
                    0.001,
                ),
            ),
        };
        (cfg.connect().down, PacketTrace::new())
    };

    let mut session = SharedSession::new(FAN_W, FAN_H, PixelFormat::Rgb888, "host")
        .with_degradation(DegradationConfig {
            degrade_after: 1,
            promote_after: 1,
            ..DegradationConfig::default()
        });
    session.auth_mut().enable_sharing("pw");
    let mut m = ShardedManager::new(session, 1);
    m.attach(&Credentials::Owner { user: "host".into() }, FAN_W, FAN_H, link_for(0))
        .expect("owner attach");
    for i in 1..clients {
        m.attach(
            &Credentials::Peer { user: format!("c{i}"), password: "pw".into() },
            FAN_W,
            FAN_H,
            link_for(i),
        )
        .expect("peer attach");
    }
    let ids = m.session().client_ids();
    assert!(
        ids.iter().enumerate().all(|(i, id)| id.0 as usize == i),
        "client ids must be dense for index addressing"
    );

    let hello = m.session().hello();
    let mut streams: Vec<StreamClient> = Vec::new();
    for &id in &ids {
        let mut c = StreamClient::new(FAN_W, FAN_H, PixelFormat::Rgb888);
        c.feed(&m.session_mut().encode_frame(id, &hello));
        streams.push(c);
    }

    let mut store = DrawableStore::new(FAN_W, FAN_H, PixelFormat::Rgb888);
    // Per-client FNV digest over (arrival, encoded message) streams.
    let mut digests = vec![FNV64_OFFSET; clients];
    let mut ebuf = Vec::new();
    let mut measured_allocs = 0u64;
    // Peak number of simultaneously degraded clients observed.
    let mut degraded_peak = 0usize;
    let mut settle_screen: Option<Framebuffer> = None;
    let wall = Instant::now();

    for epoch in 0..FAN_DRAW_EPOCHS + FAN_SETTLE_EPOCHS {
        let now = SimTime(100_000 + epoch * FAN_EPOCH_US);
        if epoch < FAN_DRAW_EPOCHS {
            // Same-screen broadcast workload: a fresh band of desktop
            // content per epoch, with fills and scroll-like copies
            // mixed in. Everything is mirrored into the reference
            // screen the convergence check compares against.
            let y = ((epoch * 28) % (FAN_H as u64 - 30)) as i32;
            let rect = Rect::new(0, y, FAN_W, 30);
            let band = band_bytes(FAN_W as usize, 30, epoch);
            store.screen_mut().put_raw(&rect, &band);
            m.session_mut().put_image(&store, SCREEN, rect, &band);
            if epoch % 3 == 1 {
                let r = Rect::new(8 + (epoch as i32 * 5) % 64, 8, 48, 20);
                let c = Color::rgb(
                    epoch.wrapping_mul(31) as u8,
                    epoch.wrapping_mul(17) as u8,
                    200,
                );
                store.screen_mut().fill_rect(&r, c);
                m.session_mut().solid_fill(&store, SCREEN, r, c);
            }
            if epoch % 4 == 2 {
                let src = Rect::new(0, 0, 64, 40);
                store.screen_mut().copy_rect(&src, 80, 60);
                m.session_mut().copy_area(&store, SCREEN, SCREEN, src, 80, 60);
            }
        } else {
            // Settle phase: no new content; repay degradation debt
            // until every client holds the final screen.
            let screen =
                settle_screen.get_or_insert_with(|| store.screen().clone());
            m.session_mut().repay_refreshes(screen);
        }
        let allocs_before = ALLOC_CALLS.load(Ordering::Relaxed);
        let out = m.flush_epoch(now);
        if FAN_ALLOC_WINDOW.contains(&epoch) {
            measured_allocs += ALLOC_CALLS.load(Ordering::Relaxed) - allocs_before;
        }
        for (id, msgs) in out {
            let idx = id.0 as usize;
            let mut frames = Vec::new();
            for (arrival, msg) in msgs {
                encode_message_into(&msg, &mut ebuf);
                digests[idx] = fnv64_update(digests[idx], &arrival.0.to_le_bytes());
                digests[idx] = fnv64_update(digests[idx], &ebuf);
                frames.push((arrival, m.session_mut().encode_frame(id, &msg)));
            }
            let (pipe, _) = m.link_mut(id).expect("attached");
            for seg in pipe.carry(frames) {
                streams[idx].feed(&seg);
            }
        }
        if epoch % 6 == 5 {
            let degraded = ids
                .iter()
                .filter(|&&id| {
                    m.session().viewer(id).unwrap().degradation_level() != DegradationLevel::Full
                })
                .count();
            degraded_peak = degraded_peak.max(degraded);
        }
    }
    let wall_ms = wall.elapsed().as_secs_f64() * 1e3;

    // All clients drained, promoted to Full, nothing pending.
    let settled = ids.iter().enumerate().all(|(idx, &id)| {
        m.session().backlog(id) == 0
            && m.session().viewer(id).unwrap().degradation_level() == DegradationLevel::Full
            && !streams[idx].needs_refresh()
            && streams[idx].pending_bytes() == 0
    });
    // Clients whose framebuffer converged byte-exact.
    let converged = streams
        .iter()
        .filter(|s| s.client().framebuffer().data() == store.screen().data())
        .count();

    let sent_bytes = |id| m.session().viewer(id).unwrap().buffer().stats().sent_bytes;
    let total_bytes: u64 = ids.iter().map(|&id| sent_bytes(id)).sum();
    let mut latency = thinc_telemetry::Histogram::exponential(100, 2, 15);
    for &id in &ids {
        if let Some(d) = m.session().viewer(id) {
            latency.merge_from(d.buffer().scheduler_metrics().flush_latency_us());
        }
    }
    // min/max delivered bytes over the clean (fault-free LAN) cohort.
    let clean_bytes: Vec<u64> = (0..clients)
        .filter(|i| i % 8 <= 3)
        .map(|i| sent_bytes(ids[i]))
        .collect();
    let fairness = *clean_bytes.iter().min().expect("clean cohort nonempty") as f64
        / (*clean_bytes.iter().max().expect("clean cohort nonempty")).max(1) as f64;
    let plane = m.session().fanout_counters();
    let hit_ratio = plane.hit_ratio();
    let sim_s = ((FAN_DRAW_EPOCHS + FAN_SETTLE_EPOCHS) * FAN_EPOCH_US) as f64 / 1e6;
    let sim_mb_s = total_bytes as f64 / sim_s / 1e6;
    let flush_p99_us = latency.quantile(0.99);
    let allocs_per_epoch =
        measured_allocs as f64 / (FAN_ALLOC_WINDOW.end - FAN_ALLOC_WINDOW.start) as f64;
    // Every client's stream digest folded into one.
    let digest_bytes: Vec<u8> = digests.iter().flat_map(|d| d.to_le_bytes()).collect();
    let digest = format!("{:016x}", thinc_protocol::fnv64(&digest_bytes));

    eprintln!(
        "  delivered {:.1} MB in {sim_s:.1}s sim ({sim_mb_s:.1} MB/s)  wall {wall_ms:.0} ms",
        total_bytes as f64 / 1e6,
    );
    eprintln!(
        "  plane: {} sends over {} encodes  hit {hit_ratio:.3}  amortized {:.1} MB",
        plane.shared_sends,
        plane.encodes,
        plane.bytes_amortized() as f64 / 1e6,
    );
    eprintln!(
        "  flush p99 {flush_p99_us} us  fairness {fairness:.4}  degraded peak {degraded_peak}  \
         allocs/epoch {allocs_per_epoch:.0}  converged {converged}/{clients}",
    );
    eprintln!("  streams digest {digest}");
    checks.extend([
        (settled, "fan-out clients did not settle (backlog, level, or pending bytes)".into()),
        (converged == clients, format!("only {converged}/{clients} fan-out clients converged byte-exact")),
        (
            hit_ratio > 0.5,
            format!("shared-payload hit ratio {hit_ratio:.3} <= 0.5 on a same-screen broadcast"),
        ),
        (degraded_peak > 0, "hostile cohorts never degraded — the fault plans are not biting".into()),
    ]);
    let key = |field: &str| format!("fanout{clients}.{field}");
    vec![
        row(key("clients"), clients as u64),
        row(key("sim_s"), sim_s),
        row(key("total_bytes"), total_bytes),
        row(key("sim_mb_s"), sim_mb_s).gated(Higher, Exact),
        row(key("flush_p99_us"), flush_p99_us).gated(Lower, Exact),
        row(key("fairness"), fairness).gated(Higher, Exact),
        row(key("shared_sends"), plane.shared_sends),
        row(key("payload_encodes"), plane.encodes),
        row(key("hit_ratio"), hit_ratio).gated(Higher, Exact),
        row(key("bytes_amortized"), plane.bytes_amortized()),
        // Allocation counts depend on allocator internals.
        row(key("allocs_per_epoch"), allocs_per_epoch).gated(Lower, Timing),
        row(key("degraded_peak"), degraded_peak as u64),
        row(key("converged"), converged as u64),
        row(key("settled"), settled),
        row(key("wall_ms"), wall_ms),
        row(key("digest"), digest),
    ]
}

// ---------------------------------------------------------------
// JSON output (hand-rolled: the workspace is dependency-free).

/// A row's place in a JSON file and its value.
type Leaf<'a> = (Vec<&'a str>, &'a Value);

/// One JSON file of `rows`, each at the place its key names once the
/// first `skip` segments are dropped: `web.pages` is `pages` in the
/// `web` object. A group whose members are all groups of plain values
/// is a list of one-line records, named by the plural (the
/// `kernel.fill_rect.*` rows are a record of the `kernels` list).
fn json(schema: &str, mode: &str, rows: &[Row], skip: usize) -> String {
    let head = [Value::from(schema), Value::from(mode)];
    let mut leaves: Vec<Leaf> = vec![(vec!["schema"], &head[0]), (vec!["mode"], &head[1])];
    leaves.extend(rows.iter().map(|r| (r.key.split('.').skip(skip).collect(), &r.value)));
    let mut s = String::from("{\n");
    members(&mut s, &leaves, 0);
    s.push_str("\n}\n");
    s
}

/// Writes `leaves` as the members of one object, grouped by their
/// segment `d`.
fn members(s: &mut String, leaves: &[Leaf], d: usize) {
    let pad = "  ".repeat(d + 1);
    for (i, group) in leaves.chunk_by(|a, b| a.0[d] == b.0[d]).enumerate() {
        if i > 0 {
            s.push_str(",\n");
        }
        let (path, value) = &group[0];
        let name = path[d];
        if path.len() == d + 1 {
            let _ = write!(s, "{pad}\"{name}\": {value}");
        } else if group.iter().all(|(p, _)| p.len() == d + 3) {
            let records: Vec<String> = group
                .chunk_by(|a, b| a.0[d + 1] == b.0[d + 1])
                .map(|record| {
                    let fields: Vec<String> = record.iter().map(|(p, v)| format!("\"{}\": {v}", p[d + 2])).collect();
                    format!("{pad}  {{{}}}", fields.join(", "))
                })
                .collect();
            let _ = write!(s, "{pad}\"{name}s\": [\n{}\n{pad}]", records.join(",\n"));
        } else {
            let _ = writeln!(s, "{pad}\"{name}\": {{");
            members(s, group, d + 1);
            let _ = write!(s, "\n{pad}}}");
        }
    }
}

// ---------------------------------------------------------------
// Baseline gating.

/// Parses the flat `"key": number` baseline map (our own format;
/// written by `--write-baseline`).
fn parse_baseline(text: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for line in text.lines() {
        let Some((key_part, val_part)) = line.split_once(':') else { continue };
        let key: String = key_part.trim().trim_matches(|c| c == '"' || c == '{').to_string();
        if key.is_empty() || key == "}" {
            continue;
        }
        let val = val_part.trim().trim_end_matches(',');
        if let Ok(v) = val.parse::<f64>() {
            out.push((key, v));
        }
    }
    out
}

fn baseline_pairs_json(pairs: &[(String, f64)]) -> String {
    let mut s = String::from("{\n");
    for (i, (k, v)) in pairs.iter().enumerate() {
        let _ = write!(s, "  \"{k}\": {}", Value::Num(*v));
        s.push_str(if i + 1 < pairs.len() { ",\n" } else { "\n" });
    }
    s.push_str("}\n");
    s
}

/// Whether baseline `key` belongs to a fan-out scale this run did not
/// measure: quick and full runs emit different `fanoutN.*` keys.
fn other_scale(key: &str, rows: &[Row]) -> bool {
    let group = key.split('.').next().unwrap_or_default();
    group.strip_prefix("fanout").is_some_and(|n| n.parse::<u32>().is_ok())
        && !rows.iter().any(|r| r.key.split('.').next() == Some(group))
}

/// The threshold gated row `r` moved past against `base`, if it did.
fn regressed(r: &Row, base: f64, threshold: f64) -> Option<f64> {
    let (better, slack) = r.gate?;
    let thr = match slack {
        Exact => threshold,
        Timing => threshold * 2.0,
    };
    let v = r.number();
    let bad = match better {
        Higher => v < base * (1.0 - thr),
        Lower => v > base * (1.0 + thr),
    };
    bad.then_some(thr)
}

/// Everything the gate finds wrong: a gated row that regressed past
/// its slack, a gated row with no baseline entry, and a baseline entry
/// that no gated row produces. Either of the last two is a renamed or
/// deleted row whose gate would otherwise be dropped without a sound.
fn gate(rows: &[Row], baseline: &[(String, f64)], threshold: f64) -> Vec<String> {
    let mut failures = Vec::new();
    for r in rows {
        if r.gate.is_none() {
            continue;
        }
        let Some((_, base)) = baseline.iter().find(|(k, _)| *k == r.key) else {
            failures.push(format!("{}: no baseline entry (record it with --write-baseline)", r.key));
            continue;
        };
        if let Some(thr) = regressed(r, *base, threshold) {
            failures.push(format!(
                "{}: measured {:.4} vs baseline {base:.4} (threshold {:.0}%)",
                r.key,
                r.number(),
                thr * 100.0
            ));
        }
    }
    for (key, _) in baseline {
        if !rows.iter().any(|r| r.gate.is_some() && r.key == *key) && !other_scale(key, rows) {
            failures.push(format!("{key}: a baseline entry no gated row produces"));
        }
    }
    failures
}

/// The baseline `--write-baseline` writes: the old file, in its order,
/// with this run's value for every gated row that fails its gate
/// against it, and new rows appended. A row that passes keeps its old
/// entry, so one run's noise never moves the bar of a row that did not
/// move. The other fan-out scale's entries are kept; entries no row
/// produces are dropped.
fn rebaseline(rows: &[Row], old: &[(String, f64)], threshold: f64) -> Vec<(String, f64)> {
    let gated = || rows.iter().filter(|r| r.gate.is_some());
    let mut out: Vec<(String, f64)> = old
        .iter()
        .filter(|(k, _)| other_scale(k, rows) || gated().any(|r| r.key == *k))
        .cloned()
        .collect();
    for r in gated() {
        match out.iter_mut().find(|(k, _)| *k == r.key) {
            Some(e) if regressed(r, e.1, threshold).is_some() => e.1 = r.number(),
            Some(_) => {}
            None => out.push((r.key.clone(), r.number())),
        }
    }
    out
}

fn main() {
    let opts = parse_args();
    let mode = if opts.quick { "quick" } else { "full" };
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let baseline_path = concat!(env!("CARGO_MANIFEST_DIR"), "/perf_baseline.json");

    let mut checks = Vec::new();
    let raster = micro_suite(opts.quick);
    let e2e = [web_suite(&mut checks), video_suite(), cache_suite(&mut checks)].concat();
    let fanout = fanout_suite(opts.quick, &mut checks);
    for (file, schema, rows, skip) in [
        ("BENCH_raster.json", "raster", &raster, 0),
        ("BENCH_e2e.json", "e2e", &e2e, 0),
        ("BENCH_fanout.json", "fanout", &fanout, 1),
    ] {
        let text = json(&format!("thinc-perfgate-{schema}-v1"), mode, rows, skip);
        std::fs::write(format!("{root}/{file}"), text).unwrap_or_else(|e| panic!("write {file}: {e}"));
    }
    eprintln!("wrote BENCH_raster.json, BENCH_e2e.json, BENCH_fanout.json");

    let rows = [raster, e2e, fanout].concat();
    let below_floor = rows.iter().filter_map(|r| {
        let floor = r.floor.filter(|&f| r.number() < f)?;
        Some(format!("{} {:.2} is below its {floor:.1} floor", r.key, r.number()))
    });
    let failed: Vec<String> = below_floor.chain(checks.into_iter().filter(|c| !c.0).map(|c| c.1)).collect();
    if !failed.is_empty() {
        for f in &failed {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }

    let baseline = std::fs::read_to_string(baseline_path).map(|t| parse_baseline(&t));
    if opts.write_baseline {
        let pairs = rebaseline(&rows, &baseline.unwrap_or_default(), opts.threshold);
        std::fs::write(baseline_path, baseline_pairs_json(&pairs)).expect("write baseline");
        eprintln!("baseline written to {baseline_path}");
        return;
    }
    let Ok(baseline) = baseline else {
        eprintln!("no baseline at {baseline_path}; run with --write-baseline to create one");
        return;
    };
    let failures = gate(&rows, &baseline, opts.threshold);
    if failures.is_empty() {
        eprintln!("gate OK: no metric regressed more than {:.0}%", opts.threshold * 100.0);
    } else {
        eprintln!("gate FAILED:");
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<Row> {
        vec![
            row("kernel.crc32.speedup", 8.0).gated(Higher, Timing),
            row("web.avg_page_kb", 21.5).gated(Lower, Exact),
            row("web.pages", 6u64),
            row("fanout256.hit_ratio", 0.99).gated(Higher, Exact),
        ]
    }

    fn baseline() -> Vec<(String, f64)> {
        // The full run's `fanout1024` entry is not this quick run's.
        let pairs = [
            ("kernel.crc32.speedup", 8.0),
            ("web.avg_page_kb", 21.5),
            ("fanout256.hit_ratio", 0.99),
            ("fanout1024.hit_ratio", 0.5),
        ];
        pairs.iter().map(|&(k, v)| (k.to_string(), v)).collect()
    }

    #[test]
    fn every_gated_row_with_its_baseline_passes_and_the_other_scale_is_ignored() {
        assert_eq!(gate(&rows(), &baseline(), 0.15), Vec::<String>::new());
    }

    #[test]
    fn a_renamed_row_fails_on_both_sides_of_the_rename() {
        let mut rows = rows();
        rows[1].key = "web.page_kb".into();
        let failures = gate(&rows, &baseline(), 0.15);
        assert_eq!(failures.len(), 2, "{failures:?}");
        assert!(failures[0].starts_with("web.page_kb: no baseline entry"), "{failures:?}");
        assert!(failures[1].starts_with("web.avg_page_kb: a baseline entry no gated row"), "{failures:?}");
    }

    #[test]
    fn a_row_that_stops_gating_orphans_its_baseline_entry() {
        let mut rows = rows();
        rows[0].gate = None;
        assert_eq!(gate(&rows, &baseline(), 0.15).len(), 1);
    }

    #[test]
    fn timing_rows_get_twice_the_threshold() {
        let mut rows = rows();
        rows[0].value = Value::Num(8.0 * 0.75);
        rows[1].value = Value::Num(21.5 * 1.25);
        let failures = gate(&rows, &baseline(), 0.15);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].starts_with("web.avg_page_kb: measured"), "{failures:?}");
    }

    #[test]
    fn rebaselining_drops_orphans_and_keeps_the_other_scale() {
        let mut old = baseline();
        old.push(("web.retired".into(), 1.0));
        let mut rows = rows();
        rows[1].value = Value::Num(30.0);
        let new = rebaseline(&rows, &old, 0.15);
        assert_eq!(gate(&rows, &new, 0.15), Vec::<String>::new());
        assert!(new.iter().any(|(k, v)| k == "fanout1024.hit_ratio" && *v == 0.5));
        assert!(!new.iter().any(|(k, _)| k == "web.retired"));
    }

    #[test]
    fn rebaselining_moves_only_the_rows_that_fail_their_gate() {
        let mut rows = rows();
        // Far better than its baseline, and a little worse within its
        // slack: both pass, so both keep their entries.
        rows[0].value = Value::Num(12.3);
        rows[3].value = Value::Num(0.95);
        // Worse past its slack: recorded.
        rows[1].value = Value::Num(30.0);
        rows.push(row("web.new_row", 4.0).gated(Lower, Exact));
        let new = rebaseline(&rows, &baseline(), 0.15);
        let entry = |key: &str| new.iter().find(|(k, _)| k == key).map(|e| e.1);
        assert_eq!(entry("kernel.crc32.speedup"), Some(8.0));
        assert_eq!(entry("fanout256.hit_ratio"), Some(0.99));
        assert_eq!(entry("web.avg_page_kb"), Some(30.0));
        assert_eq!(entry("web.new_row"), Some(4.0));
        assert_eq!(gate(&rows, &new, 0.15), Vec::<String>::new());
    }

    #[test]
    fn rows_render_as_objects_lists_of_records_and_plain_members() {
        let rows = [
            row("kernel.a.name", "a"),
            row("kernel.a.speedup", 2.5),
            row("kernel.b.name", "b"),
            row("kernel.b.speedup", 3.0),
            row("web.pages", 6u64),
            row("web.verified", true),
        ];
        let expect = "{\n  \"schema\": \"s\",\n  \"mode\": \"quick\",\n  \"kernels\": [\n    \
                      {\"name\": \"a\", \"speedup\": 2.500000},\n    {\"name\": \"b\", \"speedup\": 3.000000}\n  ],\n  \
                      \"web\": {\n    \"pages\": 6,\n    \"verified\": true\n  }\n}\n";
        assert_eq!(json("s", "quick", &rows, 0), expect);
    }
}
