//! The multi-queue Shortest-Remaining-Size-First scheduler (§5).
//!
//! Commands are sorted into queues by the number of bytes still
//! needed to deliver them; queues are flushed in increasing size
//! order, so small updates (button feedback, fills) never wait behind
//! bulk pixel data — the SRPT analogue that minimizes mean response
//! time. A separate *real-time* queue holds updates that overlap the
//! region around the most recent input event; it preempts all normal
//! queues.
//!
//! Reordering safety follows the paper's argument: partial commands
//! are clipped so no two overlap; complete commands are small and
//! land in the first queue in arrival order; transparent commands are
//! placed behind their largest dependency, and since queues flush in
//! increasing order every dependency is delivered first.

use thinc_raster::Rect;

/// Number of size-ordered queues ("the current implementation uses 10
/// queues with powers of 2 representing queue size boundaries").
pub const NUM_QUEUES: usize = 10;

/// Upper size bound of queue 0, in bytes; queue `i` holds commands of
/// size `(BASE_SIZE << (i-1), BASE_SIZE << i]`, and the last queue is
/// unbounded.
pub const BASE_SIZE: u64 = 128;

/// Computes the queue index for a command of `size` bytes.
pub fn queue_index(size: u64) -> usize {
    let mut idx = 0;
    let mut bound = BASE_SIZE;
    while size > bound && idx < NUM_QUEUES - 1 {
        bound <<= 1;
        idx += 1;
    }
    idx
}

/// Where an entry lives in the scheduler. Ordered the way the queues
/// flush: real-time first, then the normal queues by index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum QueueSlot {
    /// The preempting real-time queue.
    Realtime,
    /// Normal queue `i` (flushed in increasing order).
    Normal(usize),
}

/// Decides the slot for a new command.
///
/// `size` is the command's wire size; `realtime` marks input-feedback
/// updates; `largest_dep_slot` is the slot of the largest command
/// this one depends on, if any (transparent-command placement, and
/// opaque commands drawing over transparent ones).
pub fn place(size: u64, realtime: bool, largest_dep_slot: Option<QueueSlot>) -> QueueSlot {
    if realtime {
        // Real-time preemption is only safe when nothing in a normal
        // queue must be drawn first: a command cannot jump ahead of
        // content it depends on.
        return match largest_dep_slot {
            None | Some(QueueSlot::Realtime) => QueueSlot::Realtime,
            Some(QueueSlot::Normal(dep_q)) => QueueSlot::Normal(queue_index(size).max(dep_q)),
        };
    }
    let natural = queue_index(size);
    match largest_dep_slot {
        // The dependency is real-time: it will be flushed before any
        // normal queue anyway, so natural placement is safe.
        Some(QueueSlot::Realtime) | None => QueueSlot::Normal(natural),
        Some(QueueSlot::Normal(dep_q)) => QueueSlot::Normal(natural.max(dep_q)),
    }
}

/// Whether two commands' output rectangles create an ordering
/// dependency: one of them must be transparent (opaque pairs are
/// either disjoint after clipping or ordered within a queue).
pub fn creates_dependency(a_transparent: bool, b_transparent: bool, a: &Rect, b: &Rect) -> bool {
    (a_transparent || b_transparent) && a.intersects(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_boundaries_are_powers_of_two() {
        assert_eq!(queue_index(0), 0);
        assert_eq!(queue_index(128), 0);
        assert_eq!(queue_index(129), 1);
        assert_eq!(queue_index(256), 1);
        assert_eq!(queue_index(257), 2);
        assert_eq!(queue_index(1024), 3);
        assert_eq!(queue_index(65_536), 9);
        assert_eq!(queue_index(10_000_000), 9);
    }

    #[test]
    fn ten_queues_cover_sizes() {
        // Largest bounded queue: BASE << 8 = 32 KiB; beyond is q9.
        assert_eq!(queue_index(BASE_SIZE << 8), 8);
        assert_eq!(queue_index((BASE_SIZE << 8) + 1), 9);
    }

    #[test]
    fn realtime_preempts() {
        assert_eq!(place(1_000_000, true, None), QueueSlot::Realtime);
        assert_eq!(
            place(100, true, Some(QueueSlot::Realtime)),
            QueueSlot::Realtime
        );
        // ...but never jumps ahead of a normal-queue dependency.
        assert_eq!(
            place(100, true, Some(QueueSlot::Normal(5))),
            QueueSlot::Normal(5)
        );
    }

    #[test]
    fn natural_placement_without_deps() {
        assert_eq!(place(100, false, None), QueueSlot::Normal(0));
        assert_eq!(place(5_000, false, None), QueueSlot::Normal(6));
    }

    #[test]
    fn dependency_pushes_to_later_queue() {
        // Small command depending on a big one waits behind it.
        assert_eq!(
            place(100, false, Some(QueueSlot::Normal(7))),
            QueueSlot::Normal(7)
        );
        // But a big command never moves earlier than its natural queue.
        assert_eq!(
            place(1_000_000, false, Some(QueueSlot::Normal(2))),
            QueueSlot::Normal(9)
        );
    }

    #[test]
    fn realtime_dependency_allows_natural_placement() {
        assert_eq!(
            place(100, false, Some(QueueSlot::Realtime)),
            QueueSlot::Normal(0)
        );
    }

    #[test]
    fn dependency_requires_transparency_and_overlap() {
        let a = Rect::new(0, 0, 10, 10);
        let b = Rect::new(5, 5, 10, 10);
        let c = Rect::new(100, 100, 5, 5);
        assert!(creates_dependency(true, false, &a, &b));
        assert!(creates_dependency(false, true, &a, &b));
        assert!(!creates_dependency(false, false, &a, &b));
        assert!(!creates_dependency(true, true, &a, &c));
    }
}
