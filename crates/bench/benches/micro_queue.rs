//! Microbenchmarks of the command queue (§4): push with eviction
//! maintenance, scan-line merging, and region extraction — the
//! operations on THINC's hot path for every drawing request — and
//! what the per-client buffer's scheduler adds to a push: the same
//! stream through a bare queue and through a FIFO `ClientBuffer`
//! (the same queue plus slots, deques and counters).

use std::time::{Duration, Instant};

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};
use thinc_core::buffer::ClientBuffer;
use thinc_core::queue::CommandQueue;
use thinc_protocol::commands::{DisplayCommand, RawEncoding};
use thinc_raster::{Color, Rect};

fn sfill(x: i32, y: i32, w: u32, h: u32, v: u8) -> DisplayCommand {
    DisplayCommand::Sfill {
        rect: Rect::new(x, y, w, h),
        color: Color::rgb(v, v, v),
    }
}

fn scanline(y: i32) -> DisplayCommand {
    DisplayCommand::Raw {
        rect: Rect::new(0, y, 256, 1),
        encoding: RawEncoding::None,
        data: vec![y as u8; 256 * 3].into(),
    }
}

fn populated_queue() -> CommandQueue {
    let mut q = CommandQueue::new();
    for i in 0..64 {
        q.push(sfill((i % 8) * 32, (i / 8) * 32, 32, 32, i as u8));
    }
    q
}

/// A drawing burst that exercises every arm of the overlap rule: a
/// tiled background, an image arriving as scan lines (merged), and
/// fills over both (clipping, then eviction).
fn mixed_stream() -> Vec<DisplayCommand> {
    let mut cmds: Vec<_> = (0..64)
        .map(|i| sfill((i % 8) * 32, (i / 8) * 32, 32, 32, i as u8))
        .collect();
    cmds.extend((40..104).map(scanline));
    cmds.extend((0..32).map(|i| sfill(i * 8, i * 4, 48, 24, 200)));
    cmds
}

fn through_queue(cmds: &[DisplayCommand]) -> usize {
    let mut q = CommandQueue::new();
    for c in cmds {
        q.push(c.clone());
    }
    q.len()
}

fn through_fifo_buffer(cmds: &[DisplayCommand]) -> usize {
    let mut buf = ClientBuffer::new().with_fifo_scheduling();
    for c in cmds {
        buf.push(c.clone(), false);
    }
    buf.len()
}

/// Median wall time of `f` over `cmds`.
fn median_time(cmds: &[DisplayCommand], f: fn(&[DisplayCommand]) -> usize) -> Duration {
    let mut samples: Vec<Duration> = (0..201)
        .map(|_| {
            let start = Instant::now();
            black_box(f(black_box(cmds)));
            start.elapsed()
        })
        .collect();
    samples.sort();
    samples[samples.len() / 2]
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("command_queue");
    group.sample_size(30);

    group.bench_function("push_disjoint_64", |b| {
        b.iter(|| {
            let mut q = CommandQueue::new();
            for i in 0..64 {
                q.push(sfill((i % 8) * 32, (i / 8) * 32, 32, 32, i as u8));
            }
            q
        })
    });

    group.bench_function("push_overwriting_64", |b| {
        b.iter(|| {
            let mut q = CommandQueue::new();
            for i in 0..64u8 {
                // Every push fully overwrites: constant queue length.
                q.push(sfill(0, 0, 256, 256, i));
            }
            assert_eq!(q.len(), 1);
            q
        })
    });

    group.bench_function("merge_200_scanlines", |b| {
        b.iter(|| {
            let mut q = CommandQueue::new();
            for y in 0..200 {
                q.push(scanline(y));
            }
            assert_eq!(q.len(), 1);
            q
        })
    });

    group.bench_function("extract_region_from_64", |b| {
        b.iter_batched(
            populated_queue,
            |q| q.extract_region(&Rect::new(16, 16, 200, 200), 5, 7),
            BatchSize::SmallInput,
        )
    });

    group.finish();

    let stream = mixed_stream();
    assert_eq!(through_queue(&stream), through_fifo_buffer(&stream));

    let queue = median_time(&stream, through_queue);
    let buffer = median_time(&stream, through_fifo_buffer);
    let per_push = |d: Duration| d.as_nanos() as f64 / stream.len() as f64;
    println!(
        "\n[queue micro] scheduler cost per push: {:+.0} ns \
         (bare queue {:.0} ns, FIFO buffer {:.0} ns, {} pushes)\n",
        per_push(buffer) - per_push(queue),
        per_push(queue),
        per_push(buffer),
        stream.len()
    );
}

criterion_group!(benches, bench);
criterion_main!(benches);
