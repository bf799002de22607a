//! Striped, seqlocked counter cells: the one counter plumbing behind the
//! Host PEP's `PepStats` and both transports' [`NetStats`](crate::NetStats)
//! (DESIGN.md §9).
//!
//! A [`Counters`] block holds `N` `u64` cells in 16 cache-line-aligned
//! stripes. Each thread bumps only its own stripe, assigned round-robin on
//! first use and fixed for the thread's life, so with up to 16 busy
//! threads no two of them share a cache line. A snapshot sums the stripes.
//!
//! # Ordering
//!
//! Every [`Counters::add`] is `Release`, and a snapshot loads the cells
//! from the highest index to the lowest with `Acquire`. A writer that
//! bumps cell `a` before cell `b > a` therefore never shows up in a
//! snapshot with `b` counted and `a` not: place a later-bumped counter at a
//! higher index and the snapshot keeps the invariant.
//!
//! Snapshots and resets form a seqlock. A reset makes the generation odd,
//! zeroes every cell and makes it even again. A snapshot retries until it
//! reads one even generation before and after its loads, so it is never
//! torn across a reset. Ordinary adds still race a snapshot; a snapshot is
//! a point-in-time reading, not a barrier. Inside the crate the seqlock
//! also covers the transports' per-edge maps (`snapshot_with` and
//! `reset_with`).
//!
//! # Example
//!
//! ```
//! use ucam_webenv::Counters;
//!
//! let counters: Counters<2> = Counters::new();
//! counters.add(0usize, 3);
//! counters.add(1usize, 1);
//! assert_eq!(counters.snapshot(), [3, 1]);
//! counters.reset();
//! assert_eq!(counters.snapshot(), [0, 0]);
//! ```

use std::cell::Cell;
use std::sync::atomic::{fence, AtomicU64, AtomicUsize, Ordering};

/// Number of stripes. A power of two so a thread's stripe is a mask.
pub(crate) const STRIPES: usize = 16;

/// Round-robin source of per-thread stripes.
static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's stripe (assigned on first use).
    static STRIPE: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// This thread's stripe in `0..STRIPES`, the same for every block.
pub(crate) fn thread_stripe() -> usize {
    STRIPE.with(|slot| {
        let mut stripe = slot.get();
        if stripe == usize::MAX {
            stripe = NEXT_STRIPE.fetch_add(1, Ordering::Relaxed) & (STRIPES - 1);
            slot.set(stripe);
        }
        stripe
    })
}

/// One stripe of cells, aligned so two stripes never share a line.
#[repr(align(64))]
struct Stripe<const N: usize>([AtomicU64; N]);

/// `N` striped counter cells with a seqlock-validated snapshot. See the
/// [module documentation](self).
pub struct Counters<const N: usize> {
    /// Seqlock generation; odd while a reset is in flight.
    generation: AtomicU64,
    stripes: [Stripe<N>; STRIPES],
}

impl<const N: usize> Default for Counters<N> {
    fn default() -> Self {
        Counters::new()
    }
}

impl<const N: usize> Counters<N> {
    /// A block with every cell at zero.
    #[must_use]
    pub fn new() -> Self {
        Counters {
            generation: AtomicU64::new(0),
            stripes: std::array::from_fn(|_| Stripe(std::array::from_fn(|_| AtomicU64::new(0)))),
        }
    }

    /// Adds `n` to `cell` on this thread's stripe (`Release`).
    ///
    /// # Panics
    ///
    /// Panics when `cell` is not below `N`.
    pub fn add(&self, cell: impl Into<usize>, n: u64) {
        self.stripes[thread_stripe()].0[cell.into()].fetch_add(n, Ordering::Release);
    }

    /// Every cell, summed over the stripes, from one validated generation.
    #[must_use]
    pub fn snapshot(&self) -> [u64; N] {
        self.snapshot_with(|| ()).0
    }

    /// Like [`Counters::snapshot`], and also runs `read` after the cell
    /// loads inside the same validated generation — for state that
    /// [`Counters::reset_with`] clears alongside the cells. `read` may run
    /// more than once (each retry runs it again).
    pub(crate) fn snapshot_with<T>(&self, mut read: impl FnMut() -> T) -> ([u64; N], T) {
        loop {
            let before = self.generation.load(Ordering::Acquire);
            if before & 1 == 1 {
                // A reset is mid-flight; wait for it to finish.
                std::hint::spin_loop();
                continue;
            }
            let mut cells = [0; N];
            for (i, sum) in cells.iter_mut().enumerate().rev() {
                *sum = self
                    .stripes
                    .iter()
                    .map(|stripe| stripe.0[i].load(Ordering::Acquire))
                    .sum();
            }
            let extra = read();
            // Pairs with the Release fence in `reset_with`: a snapshot
            // that read any zeroing store reads the odd or a later
            // generation here. (What `clear` wrote under a lock is
            // ordered by that lock the same way.)
            fence(Ordering::Acquire);
            if self.generation.load(Ordering::Acquire) == before {
                return (cells, extra);
            }
        }
    }

    /// Zeroes every cell.
    pub fn reset(&self) {
        self.reset_with(|| {});
    }

    /// Zeroes every cell and runs `clear`, both inside one odd
    /// generation, so no snapshot sees one half without the other.
    pub(crate) fn reset_with(&self, clear: impl FnOnce()) {
        // A Release RMW does not keep the Relaxed stores below from
        // moving before it; the fence does.
        self.generation.fetch_add(1, Ordering::AcqRel);
        fence(Ordering::Release);
        clear();
        for stripe in &self.stripes {
            for cell in &stripe.0 {
                cell.store(0, Ordering::Relaxed);
            }
        }
        self.generation.fetch_add(1, Ordering::Release);
    }
}
