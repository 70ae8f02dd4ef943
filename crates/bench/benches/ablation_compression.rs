//! Ablation: RAW payload compression — codec choice and content
//! dependence (§7, §8.3).
//!
//! THINC compresses only RAW updates, with a PNG-class codec. The
//! paper's page-by-page analysis shows why: desktop-style content
//! (fills, text, gradients) compresses extremely well, photographic
//! content does not. This bench measures throughput and ratio of each codec on both
//! content classes.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use thinc_compress::Codec;
use thinc_workloads::content::{graphic_rgb, photo_rgb};

const W: u32 = 256;
const H: u32 = 192;

fn codecs() -> Vec<(&'static str, Codec)> {
    vec![
        ("rle", Codec::Rle),
        ("pixel_rle", Codec::PixelRle { bpp: 3 }),
        ("lzss", Codec::Lzss),
        (
            "pnglike",
            Codec::PngLike {
                bpp: 3,
                stride: W as usize * 3,
            },
        ),
    ]
}

fn bench(c: &mut Criterion) {
    let photo = photo_rgb(11, W, H);
    let graphic = graphic_rgb(11, W, H);
    for (content_name, data) in [("photo", &photo), ("graphic", &graphic)] {
        let mut group = c.benchmark_group(format!("raw_compression/{content_name}"));
        group.sample_size(10);
        group.throughput(Throughput::Bytes(data.len() as u64));
        for (name, codec) in codecs() {
            group.bench_function(name, |b| b.iter(|| codec.compress(data)));
        }
        group.finish();
    }
    println!("\n[compression ablation] ratios on {W}x{H} RGB:");
    for (content_name, data) in [("photo  ", &photo), ("graphic", &graphic)] {
        let mut line = format!("  {content_name}:");
        for (name, codec) in codecs() {
            let out = codec.compress(data);
            line.push_str(&format!(
                "  {name} {:.2}x",
                data.len() as f64 / out.len() as f64
            ));
        }
        println!("{line}");
    }
    println!();
}

criterion_group!(benches, bench);
criterion_main!(benches);
