//! `perfgate`: the reproducible performance harness and regression
//! gate.
//!
//! Runs two suites and emits machine-readable artifacts at the repo
//! root:
//!
//! - **Micro** (`BENCH_raster.json`): every hot raster/codec/digest kernel
//!   timed against its retained byte-exact naive reference (the same
//!   pairs the equivalence property tests compare), reporting ns/op,
//!   ops/s, MB/s and the speedup ratio.
//! - **Macro** (`BENCH_e2e.json`): the web page-load and A/V playback
//!   workloads through the full THINC pipeline, reporting latency,
//!   bytes, per-command-type wire-size p50/p99 (via thinc-telemetry),
//!   scheduler flush-latency quantiles, and a parallel-flush
//!   determinism check.
//!
//! The gate compares against `crates/bench/perf_baseline.json`:
//! kernel *speedup ratios* (machine-independent) and the
//! virtual-time-deterministic macro metrics must not regress by more
//! than `--threshold` (default 0.15). Absolute ns/op numbers are
//! reported but never gated. Every ratio is a median over interleaved
//! reference / optimized rounds. On top of the relative baseline, the
//! rewritten straggler kernels (`bitmap_rect`, `bitmap_text`, `convert`,
//! `yuv_pack`, `yuv_unpack`, `scale_fant`), the RAW path's codec in both
//! directions (`lzss`, `pnglike`, `pnglike_decode`) and the two
//! delivery-path digests (`crc32`, `content_id`) carry absolute ≥3x
//! speedup floors (≥6x for the three-lane `crc32`) that fail the gate
//! outright.
//!
//! Usage:
//!   perfgate [--quick] [--threshold 0.15] [--write-baseline]

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
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
use thinc_net::tcp::{TcpParams, TcpPipe};
use thinc_net::time::{SimDuration, SimTime};
use thinc_net::trace::{Direction, PacketTrace};
use thinc_raster::yuv::YuvFormat;
use thinc_raster::{reference, Color, Framebuffer, PixelFormat, Rect, ScaleFilter, YuvFrame};
use thinc_telemetry::CommandKind;
use thinc_workloads::video::{AudioTrack, VideoClip};
use thinc_workloads::web::WebWorkload;

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

struct KernelResult {
    name: &'static str,
    bytes: usize,
    ref_ns: f64,
    opt_ns: f64,
    /// Median over the rounds of reference time / optimized time.
    speedup: f64,
}

impl KernelResult {
    fn opt_mb_s(&self) -> f64 {
        self.bytes as f64 / self.opt_ns * 1e9 / 1e6
    }
    fn ref_mb_s(&self) -> f64 {
        self.bytes as f64 / self.ref_ns * 1e9 / 1e6
    }
    fn ops_s(&self) -> f64 {
        1e9 / self.opt_ns
    }
}

/// Times one reference/optimized pair over the same input: `k` rounds
/// of one reference sample then one optimized sample, reporting the
/// median of each side and the median of the per-round ratios. The
/// two sides of a round share whatever the box's other tenants are
/// doing in that window, and a median shrugs off the rounds they
/// spoil — a best-of on each side taken seconds apart failed ratios
/// near their floor one run in three.
fn kernel<R: FnMut(), O: FnMut()>(
    quick: bool,
    name: &'static str,
    bytes: usize,
    mut r: R,
    mut o: O,
) -> KernelResult {
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
    let (ref_ns, opt_ns) = (median(refs), median(opts));
    let k = KernelResult { name, bytes, ref_ns, opt_ns, speedup: median(ratios) };
    eprintln!(
        "  {name:<14} ref {ref_ns:>10.0} ns  opt {opt_ns:>10.0} ns  {:>7.2}x  {:>8.1} MB/s",
        k.speedup,
        k.opt_mb_s()
    );
    k
}

fn micro_suite(quick: bool) -> Vec<KernelResult> {
    eprintln!("== micro kernels (reference vs optimized) ==");
    let (w, h) = (640u32, 480u32);
    let fmt = PixelFormat::Rgb888;
    let area_bytes = (w * h) as usize * 3;
    let rect = Rect::new(0, 0, w, h);
    let mut out = Vec::new();

    // fill_rect: non-uniform color (the doubling-splat path).
    let mut fb_r = noise_fb(w, h, fmt, 1);
    let mut fb_o = fb_r.clone();
    let color = Color::rgb(17, 34, 51);
    out.push(kernel(
        quick,
        "fill_rect",
        area_bytes,
        || reference::fill_rect(black_box(&mut fb_r), &rect, color),
        || black_box(&mut fb_o).fill_rect(&rect, color),
    ));

    // tile_rect: 16x12 tile across the screen, phase-unaligned.
    let tile = noise_fb(16, 12, fmt, 3);
    let trect = Rect::new(-5, -3, w, h);
    let mut fb_r = noise_fb(w, h, fmt, 1);
    let mut fb_o = fb_r.clone();
    out.push(kernel(
        quick,
        "tile_rect",
        area_bytes,
        || reference::tile_rect(black_box(&mut fb_r), &trect, &tile),
        || black_box(&mut fb_o).tile_rect(&trect, &tile),
    ));

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
    let mut fb_r = noise_fb(w, h, fmt, 1);
    let mut fb_o = fb_r.clone();
    out.push(kernel(
        quick,
        "bitmap_rect",
        area_bytes,
        || reference::bitmap_rect(black_box(&mut fb_r), &rect, &bits, Color::BLACK, Some(Color::WHITE)),
        || black_box(&mut fb_o).bitmap_rect(&rect, &bits, Color::BLACK, Some(Color::WHITE)),
    ));
    // bitmap_text: a screen of text in the built-in font, one
    // transparent stipple per line, the way the window server draws
    // a `Text` request.
    let prose = "Thin clients ship drawing commands, not pixels: text is a stipple. ";
    let line = |i: usize| prose.chars().cycle().skip(i * 7).take(w as usize / 8).collect::<String>();
    let page: Vec<String> = (0..h as usize / 8).map(line).collect();
    let runs = thinc_display::text::layout(&page.join("\n"), 0, 0);
    out.push(kernel(
        quick,
        "bitmap_text",
        area_bytes,
        || runs.iter().for_each(|t| reference::bitmap_rect(black_box(&mut fb_r), &t.rect, &t.bits, Color::BLACK, None)),
        || runs.iter().for_each(|t| black_box(&mut fb_o).bitmap_rect(&t.rect, &t.bits, Color::BLACK, None)),
    ));

    // copy_rect: the 1-pixel scroll (the hottest COPY in practice).
    let src = Rect::new(0, 1, w, h - 1);
    let mut fb_r = noise_fb(w, h, fmt, 1);
    let mut fb_o = fb_r.clone();
    out.push(kernel(
        quick,
        "copy_rect",
        area_bytes,
        || reference::copy_rect(black_box(&mut fb_r), &src, 0, 0),
        || black_box(&mut fb_o).copy_rect(&src, 0, 0),
    ));

    // convert: palette expansion through the 256-entry LUT path.
    let idx = noise_fb(w, h, PixelFormat::Indexed8, 7);
    out.push(kernel(
        quick,
        "convert",
        (w * h) as usize * 4,
        || drop(black_box(reference::convert(&idx, PixelFormat::Rgba8888))),
        || drop(black_box(idx.convert(PixelFormat::Rgba8888))),
    ));

    // yuv_pack: RGB -> YV12 with 2x2 chroma averaging.
    let rgb = noise_fb(w, h, fmt, 9);
    out.push(kernel(
        quick,
        "yuv_pack",
        area_bytes,
        || drop(black_box(reference::yuv_from_rgb(&rgb, &rect, YuvFormat::Yv12))),
        || drop(black_box(YuvFrame::from_rgb(&rgb, &rect, YuvFormat::Yv12))),
    ));

    // yuv_unpack: the paper's clip, YV12 -> RGB at native size (every
    // frame, both ends of the wire) and scaled up to fullscreen.
    let clip_rgb = noise_fb(352, 240, fmt, 10);
    let clip = YuvFrame::from_rgb(&clip_rgb, &clip_rgb.bounds(), YuvFormat::Yv12);
    for (name, dw, dh) in [("yuv_unpack", 352u32, 240u32), ("yuv_unpack_up", 1024, 768)] {
        out.push(kernel(
            quick,
            name,
            (dw * dh) as usize * 3,
            || drop(black_box(reference::yuv_to_rgb_scaled(&clip, dw, dh, fmt))),
            || drop(black_box(clip.to_rgb_scaled(dw, dh, fmt))),
        ));
    }

    // scale_fant: 2x downscale (the PDA viewport case).
    let big = noise_fb(w, h, fmt, 11);
    out.push(kernel(
        quick,
        "scale_fant",
        area_bytes,
        || drop(black_box(reference::scale_fant(&big, w / 2, h / 2))),
        || drop(black_box(thinc_raster::scale_image(&big, w / 2, h / 2, ScaleFilter::Fant))),
    ));

    // Codecs over desktop-like RAW content.
    let img = desktop_bytes(w as usize, h as usize / 4, 3);
    out.push(kernel(
        quick,
        "rle",
        img.len(),
        || drop(black_box(thinc_compress::reference::rle_compress(&img))),
        || drop(black_box(rle::compress(&img))),
    ));
    out.push(kernel(
        quick,
        "pixel_rle",
        img.len(),
        || drop(black_box(thinc_compress::reference::rle_compress_symbols(&img, 3))),
        || drop(black_box(rle::compress_symbols(&img, 3))),
    ));
    out.push(kernel(
        quick,
        "lzss",
        img.len(),
        || drop(black_box(thinc_compress::reference::lzss_compress(&img))),
        || drop(black_box(lzss::compress(&img))),
    ));
    let stride = w as usize * 3;
    let mut filtered = Vec::new();
    out.push(kernel(
        quick,
        "filter",
        img.len(),
        || drop(black_box(thinc_compress::reference::filter_apply(&img, 3, stride))),
        || filter::apply_into(black_box(&img), 3, stride, &mut filtered),
    ));
    let mut scratch = Scratch::new();
    out.push(kernel(
        quick,
        "pnglike",
        img.len(),
        || drop(black_box(thinc_compress::reference::pnglike_compress(&img, 3, stride))),
        || {
            black_box(pnglike::compress_with(&img, 3, stride, &mut scratch).len());
        },
    ));

    // The decoders, on the stream of the desktop-like image above and
    // on that of a graphic-like tile: flat shapes, whose stream is
    // nearly all long matches, are what a RAW that ships compressed
    // mostly looks like. The optimized side of `pnglike_decode` is the
    // call a viewer makes, with its reused scratch.
    let tile = thinc_workloads::content::graphic_rgb(2005, 256, 192);
    let images = [(&img, stride), (&tile, 256 * 3)];
    let decoded_bytes = img.len() + tile.len();
    let streams = images.map(|(image, stride)| lzss::compress(&filter::apply(image, 3, stride)));
    out.push(kernel(
        quick,
        "lzss_decode",
        decoded_bytes,
        || {
            for stream in &streams {
                drop(black_box(thinc_compress::reference::lzss_decompress(black_box(stream))));
            }
        },
        || {
            for stream in &streams {
                drop(black_box(lzss::decompress(black_box(stream))));
            }
        },
    ));
    let packed = images.map(|(image, stride)| (pnglike::compress(image, 3, stride), stride, image.len()));
    let mut decode = DecodeScratch::new();
    out.push(kernel(
        quick,
        "pnglike_decode",
        decoded_bytes,
        || {
            for (stream, stride, _) in &packed {
                drop(black_box(thinc_compress::reference::pnglike_decompress(black_box(stream), 3, *stride)));
            }
        },
        || {
            for (stream, stride, len) in &packed {
                black_box(pnglike::decompress_into(black_box(stream), 3, *stride, *len, &mut decode));
            }
        },
    ));

    // The delivery path's byte-linear digests over one fan-out tile's
    // worth of payload: the three-lane CRC-32 against its retained
    // byte-serial reference, and the in-process content identity
    // against the FNV-1a 64 it replaced as the plane/memo key. Then
    // the CRC of 64 separate `desktop`-sized 80-byte frames, which
    // stay on the serial path: the lane dispatch must not tax them.
    let tile = noise(54_500, 13);
    out.push(kernel(
        quick,
        "crc32",
        tile.len(),
        || {
            black_box(thinc_protocol::reference::crc32_update(!0, black_box(&tile)));
        },
        || {
            black_box(thinc_protocol::crc::crc32_update(!0, black_box(&tile)));
        },
    ));
    out.push(kernel(
        quick,
        "content_id",
        tile.len(),
        || {
            black_box(thinc_protocol::hash::fnv64(black_box(&tile)));
        },
        || {
            black_box(thinc_protocol::hash::content_id(black_box(&tile)));
        },
    ));
    let frames = || tile.chunks_exact(80).take(64);
    out.push(kernel(
        quick,
        "crc32_small",
        64 * 80,
        || _ = black_box(frames().fold(0, |x, f| x ^ thinc_protocol::reference::crc32_update(!0, black_box(f)))),
        || _ = black_box(frames().fold(0, |x, f| x ^ thinc_protocol::crc::crc32_update(!0, black_box(f)))),
    ));
    out
}

struct CommandStats {
    kind: CommandKind,
    count: u64,
    bytes: u64,
    p50_bytes: u64,
    p99_bytes: u64,
}

struct WebStats {
    pages: usize,
    avg_latency_s: f64,
    avg_page_kb: f64,
    verified: bool,
    wall_ms: f64,
    commands: Vec<CommandStats>,
    flush_p50_us: u64,
    flush_p99_us: u64,
}

struct VideoStats {
    quality: f64,
    data_mb: f64,
    frames_delivered: u32,
    frames_dropped: u32,
    wall_ms: f64,
}

fn web_suite(_quick: bool) -> WebStats {
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
    let commands = tel
        .protocol
        .rows()
        .iter()
        .map(|r| {
            let h = tel.protocol.size_histogram(r.kind);
            CommandStats {
                kind: r.kind,
                count: r.count,
                bytes: r.bytes,
                p50_bytes: h.quantile(0.5),
                p99_bytes: h.quantile(0.99),
            }
        })
        .collect();
    let stats = WebStats {
        pages,
        avg_latency_s: res.avg_latency_s,
        avg_page_kb: res.avg_page_kb,
        verified: sys.verified(),
        wall_ms,
        commands,
        flush_p50_us: tel.scheduler.flush_latency_us().quantile(0.5),
        flush_p99_us: tel.scheduler.flush_latency_us().quantile(0.99),
    };
    eprintln!(
        "  latency {:.3}s  page {:.1} KB  verified {}  wall {:.0} ms",
        stats.avg_latency_s, stats.avg_page_kb, stats.verified, stats.wall_ms
    );
    stats
}

fn video_suite(_quick: bool) -> VideoStats {
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
    eprintln!(
        "  quality {:.1}%  data {:.2} MB  frames {}/{}  wall {:.0} ms",
        res.quality * 100.0,
        res.data_mb,
        res.frames.0,
        res.frames.0 + res.frames.1,
        wall_ms
    );
    VideoStats {
        quality: res.quality,
        data_mb: res.data_mb,
        frames_delivered: res.frames.0,
        frames_dropped: res.frames.1,
        wall_ms,
    }
}

struct CacheStats {
    rounds: usize,
    cached_kb_per_round: f64,
    uncached_kb_per_round: f64,
    savings_ratio: f64,
    hits: u64,
    byte_exact: bool,
    verified: bool,
}

/// The revision-3 content-cache macro: a window-switch workload that
/// cycles between a few fixed full-viewport window images — the
/// canonical repeated-content pattern — once with the cache enabled
/// and once with it disabled. Both runs must converge byte-exact to
/// the same framebuffer; the gate is on the cached bytes-per-round
/// and the cached/uncached savings ratio, both virtual-time
/// deterministic (see `docs/CACHE.md`).
fn cache_suite() -> CacheStats {
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
    let stats = CacheStats {
        rounds,
        cached_kb_per_round: per_round(&cached),
        uncached_kb_per_round: per_round(&uncached),
        savings_ratio: per_round(&uncached) / per_round(&cached),
        hits: cached.client().cache_hits(),
        byte_exact: cached.client().client().framebuffer().data()
            == uncached.client().client().framebuffer().data(),
        verified: cached.verified() && uncached.verified(),
    };
    eprintln!(
        "  cached {:.1} KB/round  uncached {:.1} KB/round  {:.2}x saved  {} hits  \
         byte-exact {}",
        stats.cached_kb_per_round,
        stats.uncached_kb_per_round,
        stats.savings_ratio,
        stats.hits,
        stats.byte_exact,
    );
    stats
}

/// Verifies the shared session's parallel flush is bit-identical
/// across worker counts (see `crates/core/tests/parallel_flush.rs`
/// for the exhaustive version). Returns the worker counts checked.
fn parallel_check() -> (Vec<usize>, bool) {
    eprintln!("== parallel flush determinism ==");
    let run = |workers: usize| {
        let mut s =
            SharedSession::new(96, 64, PixelFormat::Rgb888, "host").with_workers(workers);
        s.auth_mut().enable_sharing("pw");
        s.attach(&Credentials::Owner { user: "host".into() }, 96, 64).unwrap();
        for i in 0..2 {
            s.attach(
                &Credentials::Peer { user: format!("p{i}"), password: "pw".into() },
                48,
                32,
            )
            .unwrap();
        }
        let store = DrawableStore::new(96, 64, PixelFormat::Rgb888);
        s.put_image(&store, SCREEN, Rect::new(0, 0, 96, 48), &noise(96 * 48 * 3, 17));
        s.solid_fill(&store, SCREEN, Rect::new(4, 4, 30, 30), Color::rgb(1, 2, 3));
        let mut links: Vec<(TcpPipe, PacketTrace)> = (0..3)
            .map(|_| {
                (
                    TcpPipe::new(TcpParams {
                        bandwidth_bps: 8_000_000,
                        rtt: SimDuration::from_millis(5),
                        ..TcpParams::default()
                    }),
                    PacketTrace::new(),
                )
            })
            .collect();
        let mut all = Vec::new();
        for round in 0..50u64 {
            all.push(s.flush_all(SimTime(round * 4_000), &mut links));
        }
        all
    };
    let serial = run(1);
    let workers = vec![1usize, 2, 4];
    let ok = workers[1..].iter().all(|&n| run(n) == serial);
    eprintln!("  workers {workers:?}  deterministic {ok}");
    (workers, ok)
}

// ---------------------------------------------------------------
// Fan-out macro: encode-once broadcast through the sharded manager.

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

/// One fan-out scenario run. All numbers that gate are virtual-time
/// deterministic; wall time and allocation counts are environmental.
struct FanoutRun {
    /// Per-client FNV digest over (arrival, encoded message) streams.
    digests: Vec<u64>,
    total_bytes: u64,
    sim_s: f64,
    flush_p99_us: u64,
    /// min/max delivered bytes over the clean (fault-free LAN) cohort.
    fairness: f64,
    hit_ratio: f64,
    bytes_amortized: u64,
    shared_sends: u64,
    payload_encodes: u64,
    allocs_per_epoch: f64,
    /// Peak number of simultaneously degraded clients observed.
    degraded_peak: usize,
    /// Clients whose framebuffer converged byte-exact (verify runs).
    converged: usize,
    /// All clients drained, promoted to Full, nothing pending.
    settled: bool,
    wall_ms: f64,
}

/// Drives `clients` viewers of one shared screen through the sharded
/// manager: mixed LAN / WAN / hostile (seeded bandwidth-collapse
/// windows) cohorts, adaptive degradation enabled, every client an
/// identity viewport on the same screen. When `verify` is set, every
/// message is additionally framed, run through the wire disturbance
/// model, and decoded by a real `StreamClient` whose framebuffer must
/// converge byte-exact. The epoch schedule is fixed (no data-dependent
/// early exit), so two runs differing only in (shards, workers) must
/// produce bit-identical streams.
fn fanout_run(clients: usize, shards: usize, workers: usize, verify: bool) -> FanoutRun {
    use thinc_client::StreamClient;
    use thinc_core::degradation::{DegradationConfig, DegradationLevel};
    use thinc_core::ShardedManager;
    use thinc_net::fault::FaultPlan;
    use thinc_protocol::hash::{fnv64_update, FNV64_OFFSET};
    use thinc_protocol::wire::encode_message_into;

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
        .with_workers(workers)
        .with_degradation(DegradationConfig {
            degrade_after: 1,
            promote_after: 1,
            ..DegradationConfig::default()
        });
    session.auth_mut().enable_sharing("pw");
    let mut m = ShardedManager::new(session, shards);
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

    let mut streams: Vec<StreamClient> = Vec::new();
    if verify {
        let hello = m.session().hello();
        for &id in &ids {
            let mut c = StreamClient::new(FAN_W, FAN_H, PixelFormat::Rgb888);
            c.feed(&m.session_mut().encode_frame(id, &hello));
            streams.push(c);
        }
    }

    let mut store = DrawableStore::new(FAN_W, FAN_H, PixelFormat::Rgb888);
    let mut digests = vec![FNV64_OFFSET; clients];
    let mut ebuf = Vec::new();
    let mut measured_allocs = 0u64;
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
                if verify {
                    frames.push((arrival, m.session_mut().encode_frame(id, &msg)));
                }
            }
            if verify {
                let (pipe, _) = m.link_mut(id).expect("attached");
                for seg in pipe.carry(frames) {
                    streams[idx].feed(&seg);
                }
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

    let settled = ids.iter().enumerate().all(|(idx, &id)| {
        m.session().backlog(id) == 0
            && m.session().viewer(id).unwrap().degradation_level() == DegradationLevel::Full
            && (!verify
                || (!streams[idx].needs_refresh() && streams[idx].pending_bytes() == 0))
    });
    let converged = if verify {
        streams
            .iter()
            .filter(|s| s.client().framebuffer().data() == store.screen().data())
            .count()
    } else {
        0
    };

    let sent_bytes = |id| m.session().viewer(id).unwrap().buffer().stats().sent_bytes;
    let total_bytes: u64 = ids.iter().map(|&id| sent_bytes(id)).sum();
    let mut latency = thinc_telemetry::Histogram::exponential(100, 2, 15);
    for &id in &ids {
        if let Some(d) = m.session().viewer(id) {
            latency.merge_from(d.buffer().scheduler_metrics().flush_latency_us());
        }
    }
    let clean_bytes: Vec<u64> = (0..clients)
        .filter(|i| i % 8 <= 3)
        .map(|i| sent_bytes(ids[i]))
        .collect();
    let fairness = *clean_bytes.iter().min().expect("clean cohort nonempty") as f64
        / (*clean_bytes.iter().max().expect("clean cohort nonempty")).max(1) as f64;
    let (mut plane, mut bytes_amortized) = (thinc_telemetry::PlaneCounters::default(), 0u64);
    for s in 0..m.shard_count() {
        let shard = &m.shard_metrics(s).plane;
        plane.merge(shard);
        bytes_amortized += shard.bytes_amortized();
    }

    FanoutRun {
        digests,
        total_bytes,
        sim_s: ((FAN_DRAW_EPOCHS + FAN_SETTLE_EPOCHS) * FAN_EPOCH_US) as f64 / 1e6,
        flush_p99_us: latency.quantile(0.99),
        fairness,
        hit_ratio: plane.hit_ratio(),
        bytes_amortized,
        shared_sends: plane.shared_sends,
        payload_encodes: plane.encodes,
        allocs_per_epoch: measured_allocs as f64
            / (FAN_ALLOC_WINDOW.end - FAN_ALLOC_WINDOW.start) as f64,
        degraded_peak,
        converged,
        settled,
        wall_ms,
    }
}

struct FanoutStats {
    clients: usize,
    shards: usize,
    workers: usize,
    main: FanoutRun,
    /// (shards, workers, bit-identical) for every matrix config.
    matrix: Vec<(usize, usize, bool)>,
}

impl FanoutStats {
    fn deterministic(&self) -> bool {
        self.matrix.iter().all(|&(_, _, ok)| ok)
    }
    fn sim_mb_s(&self) -> f64 {
        self.main.total_bytes as f64 / self.main.sim_s / 1e6
    }
}

fn fanout_suite(quick: bool) -> FanoutStats {
    let clients = if quick { 256 } else { 1024 };
    let (shards, workers) = (8usize, 4usize);
    eprintln!("== macro: broadcast fan-out ({clients} clients, {shards} shards, {workers} workers) ==");
    let main = fanout_run(clients, shards, workers, true);
    eprintln!(
        "  delivered {:.1} MB in {:.1}s sim ({:.1} MB/s)  wall {:.0} ms",
        main.total_bytes as f64 / 1e6,
        main.sim_s,
        main.total_bytes as f64 / main.sim_s / 1e6,
        main.wall_ms,
    );
    eprintln!(
        "  plane: {} sends over {} encodes  hit {:.3}  amortized {:.1} MB",
        main.shared_sends,
        main.payload_encodes,
        main.hit_ratio,
        main.bytes_amortized as f64 / 1e6,
    );
    eprintln!(
        "  flush p99 {} us  fairness {:.4}  degraded peak {}  allocs/epoch {:.0}  \
         converged {}/{}",
        main.flush_p99_us,
        main.fairness,
        main.degraded_peak,
        main.allocs_per_epoch,
        main.converged,
        clients,
    );
    let mut matrix = Vec::new();
    for (s, w) in [(1usize, 1usize), (1, 4), (2, 1), (2, 4), (8, 1)] {
        let r = fanout_run(clients, s, w, false);
        let ok = r.digests == main.digests;
        eprintln!("  shards={s} workers={w}  bit-identical {ok}");
        matrix.push((s, w, ok));
    }
    matrix.push((shards, workers, true));
    FanoutStats { clients, shards, workers, main, matrix }
}

// ---------------------------------------------------------------
// JSON output (hand-rolled: the workspace is dependency-free).

fn jf(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "null".to_string()
    }
}

fn raster_json(mode: &str, kernels: &[KernelResult]) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"schema\": \"thinc-perfgate-raster-v1\",");
    let _ = writeln!(s, "  \"mode\": \"{mode}\",");
    s.push_str("  \"kernels\": [\n");
    for (i, k) in kernels.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"name\": \"{}\", \"bytes_per_op\": {}, \"ref_ns_per_op\": {}, \
             \"opt_ns_per_op\": {}, \"ref_mb_s\": {}, \"opt_mb_s\": {}, \"ops_s\": {}, \
             \"speedup\": {}}}",
            k.name,
            k.bytes,
            jf(k.ref_ns),
            jf(k.opt_ns),
            jf(k.ref_mb_s()),
            jf(k.opt_mb_s()),
            jf(k.ops_s()),
            jf(k.speedup),
        );
        s.push_str(if i + 1 < kernels.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ]\n}\n");
    s
}

fn e2e_json(
    mode: &str,
    web: &WebStats,
    video: &VideoStats,
    cache: &CacheStats,
    par: &(Vec<usize>, bool),
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"schema\": \"thinc-perfgate-e2e-v1\",");
    let _ = writeln!(s, "  \"mode\": \"{mode}\",");
    s.push_str("  \"web\": {\n");
    let _ = writeln!(s, "    \"pages\": {},", web.pages);
    let _ = writeln!(s, "    \"avg_latency_s\": {},", jf(web.avg_latency_s));
    let _ = writeln!(s, "    \"avg_page_kb\": {},", jf(web.avg_page_kb));
    let _ = writeln!(s, "    \"verified\": {},", web.verified);
    let _ = writeln!(s, "    \"wall_ms\": {},", jf(web.wall_ms));
    let _ = writeln!(s, "    \"flush_latency_p50_us\": {},", web.flush_p50_us);
    let _ = writeln!(s, "    \"flush_latency_p99_us\": {},", web.flush_p99_us);
    s.push_str("    \"commands\": [\n");
    for (i, c) in web.commands.iter().enumerate() {
        let _ = write!(
            s,
            "      {{\"kind\": \"{}\", \"count\": {}, \"bytes\": {}, \
             \"p50_bytes\": {}, \"p99_bytes\": {}}}",
            c.kind.name(),
            c.count,
            c.bytes,
            c.p50_bytes,
            c.p99_bytes,
        );
        s.push_str(if i + 1 < web.commands.len() { ",\n" } else { "\n" });
    }
    s.push_str("    ]\n  },\n");
    s.push_str("  \"video\": {\n");
    let _ = writeln!(s, "    \"quality\": {},", jf(video.quality));
    let _ = writeln!(s, "    \"data_mb\": {},", jf(video.data_mb));
    let _ = writeln!(s, "    \"frames_delivered\": {},", video.frames_delivered);
    let _ = writeln!(s, "    \"frames_dropped\": {},", video.frames_dropped);
    let _ = writeln!(s, "    \"wall_ms\": {}", jf(video.wall_ms));
    s.push_str("  },\n");
    s.push_str("  \"cache\": {\n");
    let _ = writeln!(s, "    \"rounds\": {},", cache.rounds);
    let _ = writeln!(s, "    \"cached_kb_per_round\": {},", jf(cache.cached_kb_per_round));
    let _ = writeln!(s, "    \"uncached_kb_per_round\": {},", jf(cache.uncached_kb_per_round));
    let _ = writeln!(s, "    \"savings_ratio\": {},", jf(cache.savings_ratio));
    let _ = writeln!(s, "    \"hits\": {},", cache.hits);
    let _ = writeln!(s, "    \"byte_exact\": {},", cache.byte_exact);
    let _ = writeln!(s, "    \"verified\": {}", cache.verified);
    s.push_str("  },\n");
    s.push_str("  \"parallel_flush\": {\n");
    let workers: Vec<String> = par.0.iter().map(|w| w.to_string()).collect();
    let _ = writeln!(s, "    \"workers_checked\": [{}],", workers.join(", "));
    let _ = writeln!(s, "    \"deterministic\": {}", par.1);
    s.push_str("  }\n}\n");
    s
}

fn fanout_json(mode: &str, fan: &FanoutStats) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"schema\": \"thinc-perfgate-fanout-v1\",");
    let _ = writeln!(s, "  \"mode\": \"{mode}\",");
    let _ = writeln!(s, "  \"clients\": {},", fan.clients);
    let _ = writeln!(s, "  \"shards\": {},", fan.shards);
    let _ = writeln!(s, "  \"workers\": {},", fan.workers);
    let _ = writeln!(s, "  \"sim_s\": {},", jf(fan.main.sim_s));
    let _ = writeln!(s, "  \"total_bytes\": {},", fan.main.total_bytes);
    let _ = writeln!(s, "  \"sim_mb_s\": {},", jf(fan.sim_mb_s()));
    let _ = writeln!(s, "  \"flush_p99_us\": {},", fan.main.flush_p99_us);
    let _ = writeln!(s, "  \"fairness\": {},", jf(fan.main.fairness));
    let _ = writeln!(s, "  \"shared_sends\": {},", fan.main.shared_sends);
    let _ = writeln!(s, "  \"payload_encodes\": {},", fan.main.payload_encodes);
    let _ = writeln!(s, "  \"hit_ratio\": {},", jf(fan.main.hit_ratio));
    let _ = writeln!(s, "  \"bytes_amortized\": {},", fan.main.bytes_amortized);
    let _ = writeln!(s, "  \"allocs_per_epoch\": {},", jf(fan.main.allocs_per_epoch));
    let _ = writeln!(s, "  \"degraded_peak\": {},", fan.main.degraded_peak);
    let _ = writeln!(s, "  \"converged\": {},", fan.main.converged);
    let _ = writeln!(s, "  \"settled\": {},", fan.main.settled);
    let _ = writeln!(s, "  \"wall_ms\": {},", jf(fan.main.wall_ms));
    s.push_str("  \"determinism_matrix\": [\n");
    for (i, (sh, w, ok)) in fan.matrix.iter().enumerate() {
        let _ = write!(s, "    {{\"shards\": {sh}, \"workers\": {w}, \"bit_identical\": {ok}}}");
        s.push_str(if i + 1 < fan.matrix.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ],\n");
    let _ = writeln!(s, "  \"deterministic\": {}", fan.deterministic());
    s.push_str("}\n");
    s
}

// ---------------------------------------------------------------
// Baseline gating.

/// One gated metric: measured value plus regression direction.
struct GateMetric {
    key: String,
    value: f64,
    higher_is_better: bool,
    /// Wall-clock-derived metrics (kernel speedup ratios) jitter with
    /// scheduler noise, so they gate at twice the threshold. The
    /// virtual-time macro metrics are exactly reproducible and gate
    /// at the threshold as given.
    timing_derived: bool,
}

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
        let _ = write!(s, "  \"{k}\": {}", jf(*v));
        s.push_str(if i + 1 < pairs.len() { ",\n" } else { "\n" });
    }
    s.push_str("}\n");
    s
}

fn main() {
    let opts = parse_args();
    let mode = if opts.quick { "quick" } else { "full" };
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let baseline_path = concat!(env!("CARGO_MANIFEST_DIR"), "/perf_baseline.json");

    let kernels = micro_suite(opts.quick);
    let web = web_suite(opts.quick);
    let video = video_suite(opts.quick);
    let cache = cache_suite();
    let par = parallel_check();
    let fan = fanout_suite(opts.quick);

    std::fs::write(format!("{root}/BENCH_raster.json"), raster_json(mode, &kernels))
        .expect("write BENCH_raster.json");
    std::fs::write(
        format!("{root}/BENCH_e2e.json"),
        e2e_json(mode, &web, &video, &cache, &par),
    )
    .expect("write BENCH_e2e.json");
    std::fs::write(format!("{root}/BENCH_fanout.json"), fanout_json(mode, &fan))
        .expect("write BENCH_fanout.json");
    eprintln!("wrote BENCH_raster.json, BENCH_e2e.json, BENCH_fanout.json");

    let mut metrics: Vec<GateMetric> = kernels
        .iter()
        .map(|k| GateMetric {
            key: format!("kernel.{}.speedup", k.name),
            value: k.speedup,
            higher_is_better: true,
            timing_derived: true,
        })
        .collect();
    metrics.push(GateMetric {
        key: "web.avg_latency_s".into(),
        value: web.avg_latency_s,
        higher_is_better: false,
        timing_derived: false,
    });
    metrics.push(GateMetric {
        key: "web.avg_page_kb".into(),
        value: web.avg_page_kb,
        higher_is_better: false,
        timing_derived: false,
    });
    metrics.push(GateMetric {
        key: "video.quality".into(),
        value: video.quality,
        higher_is_better: true,
        timing_derived: false,
    });
    metrics.push(GateMetric {
        key: "cache.cached_kb_per_round".into(),
        value: cache.cached_kb_per_round,
        higher_is_better: false,
        timing_derived: false,
    });
    metrics.push(GateMetric {
        key: "cache.savings_ratio".into(),
        value: cache.savings_ratio,
        higher_is_better: true,
        timing_derived: false,
    });
    // Fan-out metrics are keyed by scale: quick (256 clients) and
    // full (1024) runs measure genuinely different workloads, so each
    // gates against its own baseline entries (`--write-baseline`
    // merges, keeping the other scale's keys).
    let fp = format!("fanout{}", fan.clients);
    metrics.push(GateMetric {
        key: format!("{fp}.sim_mb_s"),
        value: fan.sim_mb_s(),
        higher_is_better: true,
        timing_derived: false,
    });
    metrics.push(GateMetric {
        key: format!("{fp}.flush_p99_us"),
        value: fan.main.flush_p99_us as f64,
        higher_is_better: false,
        timing_derived: false,
    });
    metrics.push(GateMetric {
        key: format!("{fp}.fairness"),
        value: fan.main.fairness,
        higher_is_better: true,
        timing_derived: false,
    });
    metrics.push(GateMetric {
        key: format!("{fp}.hit_ratio"),
        value: fan.main.hit_ratio,
        higher_is_better: true,
        timing_derived: false,
    });
    // Allocation counts depend on allocator internals and worker
    // scheduling; gate with the timing-derived slack.
    metrics.push(GateMetric {
        key: format!("{fp}.allocs_per_epoch"),
        value: fan.main.allocs_per_epoch,
        higher_is_better: false,
        timing_derived: true,
    });

    // The rewritten straggler kernels, the RAW codec (encode and
    // the viewer's decode) and the two digests carry absolute speedup
    // floors (the "kernel war" acceptance bar):
    // dropping below 3x against the retained reference (for
    // `content_id`, against FNV-1a 64; for the three-lane `crc32`, 6x)
    // is a hard failure regardless of what the baseline file says. The
    // other kernels gate only relatively, via the baseline.
    const KERNEL_FLOORS: [(&str, f64); 12] = [
        ("bitmap_rect", 3.0),
        ("bitmap_text", 3.0),
        ("convert", 3.0),
        ("yuv_pack", 3.0),
        ("yuv_unpack", 3.0),
        ("yuv_unpack_up", 3.0),
        ("scale_fant", 3.0),
        ("lzss", 3.0),
        ("pnglike", 3.0),
        ("pnglike_decode", 3.0),
        ("crc32", 6.0),
        ("content_id", 3.0),
    ];
    for (name, floor) in KERNEL_FLOORS {
        let k = kernels
            .iter()
            .find(|k| k.name == name)
            .unwrap_or_else(|| panic!("floored kernel {name} missing from suite"));
        if k.speedup < floor {
            eprintln!(
                "FAIL: kernel {name} speedup {:.2}x is below its {floor:.1}x floor",
                k.speedup
            );
            std::process::exit(1);
        }
    }

    if !par.1 {
        eprintln!("FAIL: parallel flush output differs across worker counts");
        std::process::exit(1);
    }
    if !web.verified {
        eprintln!("FAIL: client framebuffer diverged from server screen");
        std::process::exit(1);
    }
    if !cache.byte_exact || !cache.verified {
        eprintln!("FAIL: cached session is not byte-exact with the uncached session");
        std::process::exit(1);
    }
    if cache.hits == 0 {
        eprintln!("FAIL: content cache resolved zero refs on a repeated-content workload");
        std::process::exit(1);
    }
    if cache.savings_ratio <= 1.0 {
        eprintln!("FAIL: content cache did not reduce bytes per round");
        std::process::exit(1);
    }
    if !fan.deterministic() {
        eprintln!("FAIL: fan-out streams differ across shard/worker counts");
        std::process::exit(1);
    }
    if !fan.main.settled {
        eprintln!("FAIL: fan-out clients did not settle (backlog, level, or pending bytes)");
        std::process::exit(1);
    }
    if fan.main.converged != fan.clients {
        eprintln!(
            "FAIL: only {}/{} fan-out clients converged byte-exact",
            fan.main.converged, fan.clients
        );
        std::process::exit(1);
    }
    if fan.main.hit_ratio <= 0.5 {
        eprintln!(
            "FAIL: shared-payload hit ratio {:.3} <= 0.5 on a same-screen broadcast",
            fan.main.hit_ratio
        );
        std::process::exit(1);
    }
    if fan.main.degraded_peak == 0 {
        eprintln!("FAIL: hostile cohorts never degraded — the fault plans are not biting");
        std::process::exit(1);
    }

    if opts.write_baseline {
        // Merge over the existing file: this run's keys overwrite,
        // keys only the other mode produces (the other fan-out scale)
        // survive.
        let mut merged = std::fs::read_to_string(baseline_path)
            .map(|t| parse_baseline(&t))
            .unwrap_or_default();
        for m in &metrics {
            match merged.iter_mut().find(|(k, _)| *k == m.key) {
                Some(e) => e.1 = m.value,
                None => merged.push((m.key.clone(), m.value)),
            }
        }
        std::fs::write(baseline_path, baseline_pairs_json(&merged)).expect("write baseline");
        eprintln!("baseline written to {baseline_path}");
        return;
    }

    let Ok(text) = std::fs::read_to_string(baseline_path) else {
        eprintln!("no baseline at {baseline_path}; run with --write-baseline to create one");
        return;
    };
    let baseline = parse_baseline(&text);
    let mut regressions = Vec::new();
    for m in &metrics {
        let Some((_, base)) = baseline.iter().find(|(k, _)| *k == m.key) else {
            eprintln!("  (no baseline for {}; skipping)", m.key);
            continue;
        };
        let thr = if m.timing_derived { opts.threshold * 2.0 } else { opts.threshold };
        let bad = if m.higher_is_better {
            m.value < base * (1.0 - thr)
        } else {
            m.value > base * (1.0 + thr)
        };
        if bad {
            regressions.push(format!(
                "{}: measured {:.4} vs baseline {:.4} (threshold {:.0}%)",
                m.key,
                m.value,
                base,
                thr * 100.0
            ));
        }
    }
    if regressions.is_empty() {
        eprintln!("gate OK: no metric regressed more than {:.0}%", opts.threshold * 100.0);
    } else {
        eprintln!("gate FAILED:");
        for r in &regressions {
            eprintln!("  {r}");
        }
        std::process::exit(1);
    }
}
