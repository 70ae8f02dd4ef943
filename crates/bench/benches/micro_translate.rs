//! Microbenchmarks of the translation layer (§4): one-to-one command
//! mapping, the offscreen queue-execution path, and a full
//! browser-style page through the window server with the THINC driver
//! attached — versus the screen-scrape encoding a VNC-class system
//! performs for the same content.

use criterion::{criterion_group, criterion_main, Criterion};
use thinc_baselines::framework::encode_region;
use thinc_compress::Codec;
use thinc_core::server::{ServerConfig, VIEWER};
use thinc_core::translator::Translator;
use thinc_display::drawable::{DrawableId, DrawableStore};
use thinc_display::driver::NullDriver;
use thinc_display::request::DrawRequest;
use thinc_display::server::WindowServer;
use thinc_display::SCREEN;
use thinc_raster::{Color, PixelFormat, Rect, Region};
use thinc_workloads::web::WebWorkload;

const W: u32 = 512;
const H: u32 = 384;

fn page_requests(wl: &WebWorkload) -> Vec<DrawRequest> {
    let mut reqs = vec![DrawRequest::CreatePixmap { width: W, height: H }];
    reqs.extend(wl.render_requests(1, DrawableId(1)));
    reqs
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("translation");
    group.sample_size(10);

    group.bench_function("onscreen_fill_one_to_one", |b| {
        let store = DrawableStore::new(W, H, PixelFormat::Rgb888);
        let mut t = Translator::new();
        b.iter(|| t.solid_fill(&store, SCREEN, Rect::new(0, 0, 64, 64), Color::WHITE))
    });

    group.bench_function("page_through_thinc_driver", |b| {
        let wl = WebWorkload::new(W, H, 2005);
        b.iter(|| {
            let session = ServerConfig { width: W, height: H, ..ServerConfig::default() }.session();
            let mut ws = WindowServer::new(W, H, PixelFormat::Rgb888, session);
            ws.process_all(page_requests(&wl));
            ws.driver().backlog(VIEWER)
        })
    });

    group.bench_function("page_through_screen_scrape", |b| {
        let wl = WebWorkload::new(W, H, 2005);
        b.iter(|| {
            let mut ws = WindowServer::new(W, H, PixelFormat::Rgb888, NullDriver);
            ws.process_all(page_requests(&wl));
            // VNC-class work: encode the damaged screen as pixels.
            let damage = Region::from_rect(Rect::new(0, 0, W, H));
            encode_region(ws.screen(), &damage, Codec::PixelRle { bpp: 3 }, 3)
        })
    });

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
