//! The event schedule: a calendar (bucket) queue over per-processor
//! wake deadlines, replacing the fast-forward kernel's O(P) linear scan
//! with an O(occupied-buckets) lookup of the next event and an
//! O(bucket) hand-over of the processors due at it
//! ([`Calendar::take_due`]).
//!
//! Each source (processor) has one **authoritative deadline** in
//! [`Calendar::deadline`] (`u64::MAX` = parked). Scheduling never
//! removes old ring entries; it appends a new one and lets the stale
//! entries die by **lazy invalidation**: an entry is live only while the
//! source's authoritative deadline still falls in the bucket it sits
//! in. Invariants:
//!
//! * every finite authoritative deadline has a live entry (in the ring
//!   if it falls inside the horizon, in the overflow list otherwise);
//! * [`Calendar::earliest`] returns exactly the minimum finite
//!   authoritative deadline (or `u64::MAX`), never a later one — the
//!   fast-forward kernel's safety rests on this never being late;
//! * time only moves forward: `earliest(now)` is called with
//!   non-decreasing `now`, and deadlines are only scheduled at or after
//!   the `now` of the next query, so buckets strictly behind `now` hold
//!   only dead entries and are recycled as the base advances.
//!
//! The ring spans `BUCKETS << BUCKET_SHIFT` cycles; deadlines beyond it
//! (fail-stop windows, watchdog bounds) go to the small overflow list,
//! consulted only when the ring is empty or the horizon reaches
//! [`Calendar::overflow_min`]. A jump past the whole ring (a long quiet
//! stretch) triggers a cold [`Calendar::rebase`] that rebuilds from the
//! authoritative deadlines.

/// Log2 of the bucket width in cycles.
const BUCKET_SHIFT: u32 = 6;
/// Ring length in buckets (power of two).
const BUCKETS: usize = 256;
/// Occupancy-bitmap words (64 buckets per word).
const WORDS: usize = BUCKETS / 64;
/// Source counts at or below this bypass the ring: min-scanning one
/// occupancy word's worth of packed `u64` deadlines is cheaper than the
/// ring's bucket bookkeeping (push, retain, base advance), so small
/// machines read the authoritative lane directly and only large ones
/// pay for — and win from — the calendar structure.
const SCAN_THRESHOLD: usize = 64;

/// Cycle-keyed calendar queue with lazy invalidation (see module docs).
#[derive(Debug)]
pub(crate) struct Calendar {
    /// Authoritative deadline per source (`u64::MAX` = parked).
    deadline: Vec<u64>,
    /// Ring of buckets holding source ids; entries are validated against
    /// `deadline` on inspection (lazy invalidation).
    buckets: Vec<Vec<u32>>,
    /// One occupancy bit per ring slot, so the scan skips empty runs a
    /// word at a time.
    occupied: [u64; WORDS],
    /// Absolute bucket index of the ring's earliest slot.
    base: u64,
    /// Sources whose deadline lay beyond the ring horizon at insert
    /// time. Swept (and re-homed into the ring) only when the horizon
    /// reaches `overflow_min`.
    overflow: Vec<u32>,
    /// Lower bound on the overflow entries' live deadlines.
    overflow_min: u64,
    /// `false` for small machines (≤ [`SCAN_THRESHOLD`] sources):
    /// `earliest` min-scans the deadline lane and the ring structures
    /// stay untouched and empty.
    use_ring: bool,
}

impl Calendar {
    /// A calendar for `n` sources, all initially due at cycle 0.
    pub(crate) fn new(n: usize) -> Self {
        Self::with_ring(n, n > SCAN_THRESHOLD)
    }

    /// Like [`Calendar::new`] with the ring-vs-scan choice forced —
    /// tests use this to drive the ring path at small source counts.
    pub(crate) fn with_ring(n: usize, use_ring: bool) -> Self {
        let mut cal = Self {
            deadline: vec![u64::MAX; n],        // alloc-ok: setup
            buckets: vec![Vec::new(); BUCKETS], // alloc-ok: setup
            occupied: [0; WORDS],
            base: 0,
            overflow: Vec::new(), // alloc-ok: setup
            overflow_min: u64::MAX,
            use_ring,
        };
        for src in 0..n {
            cal.schedule(src, 0);
        }
        cal
    }

    fn slot(abs: u64) -> usize {
        (abs % BUCKETS as u64) as usize
    }

    fn mark(&mut self, slot: usize) {
        self.occupied[slot / 64] |= 1 << (slot % 64);
    }

    fn clear(&mut self, slot: usize) {
        self.buckets[slot].clear();
        self.occupied[slot / 64] &= !(1 << (slot % 64));
    }

    /// Sets `src`'s authoritative deadline to `t` (`u64::MAX` parks it).
    /// Old entries are left behind to die by lazy invalidation.
    pub(crate) fn schedule(&mut self, src: usize, t: u64) {
        if self.deadline[src] == t {
            // The live entry for this exact deadline is already placed.
            return;
        }
        self.deadline[src] = t;
        if t == u64::MAX || !self.use_ring {
            return;
        }
        self.insert(src, t);
    }

    fn insert(&mut self, src: usize, t: u64) {
        let abs = t >> BUCKET_SHIFT;
        if abs >= self.base + BUCKETS as u64 {
            self.overflow.push(src as u32);
            self.overflow_min = self.overflow_min.min(t);
            return;
        }
        // Deadlines behind the base can only arise from a caller bug
        // (time runs forward); clamp into the base bucket so the entry
        // is still found rather than silently lost.
        let abs = abs.max(self.base);
        let slot = Self::slot(abs);
        self.buckets[slot].push(src as u32);
        self.mark(slot);
    }

    /// The minimum finite authoritative deadline, or `u64::MAX` when
    /// every source is parked. `now` must be non-decreasing across
    /// calls; buckets strictly behind it are recycled.
    pub(crate) fn earliest(&mut self, now: u64) -> u64 {
        if !self.use_ring {
            return self.deadline.iter().copied().min().unwrap_or(u64::MAX);
        }
        let now_abs = now >> BUCKET_SHIFT;
        if now_abs >= self.base + BUCKETS as u64 {
            self.rebase(now_abs);
        } else {
            while self.base < now_abs {
                let slot = Self::slot(self.base);
                let word = self.occupied[slot / 64] >> (slot % 64);
                if word == 0 {
                    // Rest of this bitmap word is empty; like the scan
                    // below, the skip stops at the word boundary so it
                    // never crosses the ring seam mid-word.
                    self.base = (self.base + (64 - slot % 64) as u64).min(now_abs);
                    continue;
                }
                let hop = u64::from(word.trailing_zeros());
                if hop > 0 {
                    self.base = (self.base + hop).min(now_abs);
                    continue;
                }
                self.clear(slot);
                self.base += 1;
            }
        }
        let mut swept = if self.overflow_min >> BUCKET_SHIFT < self.base + BUCKETS as u64 {
            self.sweep_overflow();
            true
        } else {
            false
        };
        loop {
            let end = self.base + BUCKETS as u64;
            let mut abs = self.base;
            while abs < end {
                let slot = Self::slot(abs);
                let word = self.occupied[slot / 64] >> (slot % 64);
                if word == 0 {
                    // The rest of this bitmap word is empty; slots wrap
                    // only at word boundaries, so the skip never crosses
                    // the ring seam mid-word.
                    abs += 64 - (slot % 64) as u64;
                    continue;
                }
                let hop = u64::from(word.trailing_zeros());
                if hop > 0 {
                    abs += hop;
                    continue;
                }
                if let Some(min) = self.inspect(abs) {
                    return min;
                }
                abs += 1;
            }
            // Nothing live in the ring: the answer is the overflow's
            // minimum. `overflow_min` is only a lower bound (entries
            // rescheduled later leave it stale-low), so sweep once to
            // tighten it — the sweep may also re-home entries into the
            // ring, in which case the rescan above finds them.
            if swept || self.overflow.is_empty() {
                return self.overflow_min;
            }
            self.sweep_overflow();
            swept = true;
        }
    }

    /// Sets the bit of every source due at `now` in the bitset `due`
    /// (one bit per source) and parks it until it is rescheduled. Must
    /// follow `earliest(now)` in the same cycle: that advanced the ring
    /// base to `now`'s bucket and re-homed any due overflow entry, and
    /// since deadlines are never scheduled in the past, every due
    /// source sits in that one bucket with a deadline of exactly `now`.
    pub(crate) fn take_due(&mut self, now: u64, due: &mut [u64]) {
        if !self.use_ring {
            for (src, d) in self.deadline.iter_mut().enumerate() {
                if *d <= now {
                    due[src / 64] |= 1 << (src % 64);
                    *d = u64::MAX;
                }
            }
            return;
        }
        let abs = now >> BUCKET_SHIFT;
        debug_assert_eq!(self.base, abs, "take_due must follow earliest(now)");
        let slot = Self::slot(abs);
        let deadline = &mut self.deadline;
        self.buckets[slot].retain(|&src| {
            let d = &mut deadline[src as usize];
            if *d >> BUCKET_SHIFT != abs {
                return false; // dead (rescheduled or parked)
            }
            if *d > now {
                return true;
            }
            due[src as usize / 64] |= 1 << (src % 64);
            *d = u64::MAX;
            false
        });
        if self.buckets[slot].is_empty() {
            self.clear(slot);
        }
    }

    /// Minimum live deadline in the bucket at absolute index `abs`,
    /// dropping dead entries; clears the bucket if none are live.
    fn inspect(&mut self, abs: u64) -> Option<u64> {
        let slot = Self::slot(abs);
        let mut min = u64::MAX;
        let deadline = &self.deadline;
        self.buckets[slot].retain(|&src| {
            let d = deadline[src as usize];
            let live = d >> BUCKET_SHIFT == abs;
            if live {
                min = min.min(d);
            }
            live
        });
        if self.buckets[slot].is_empty() {
            self.clear(slot);
        }
        (min != u64::MAX).then_some(min)
    }

    /// Re-homes overflow entries whose deadline now falls inside the
    /// ring horizon; drops dead ones and recomputes `overflow_min`.
    #[cold]
    fn sweep_overflow(&mut self) {
        let horizon = self.base + BUCKETS as u64;
        let mut kept = std::mem::take(&mut self.overflow);
        let mut min = u64::MAX;
        kept.retain(|&src| {
            let d = self.deadline[src as usize];
            if d == u64::MAX || d >> BUCKET_SHIFT < self.base {
                return false; // dead (rescheduled or parked)
            }
            if d >> BUCKET_SHIFT < horizon {
                let slot = Self::slot(d >> BUCKET_SHIFT);
                self.buckets[slot].push(src);
                self.occupied[slot / 64] |= 1 << (slot % 64);
                return false;
            }
            min = min.min(d);
            true
        });
        self.overflow = kept;
        self.overflow_min = min;
    }

    /// A jump past the whole ring: rebuild every structure from the
    /// authoritative deadlines. Cold — only long fully-quiet stretches
    /// (watchdog-scale silences) reach it.
    #[cold]
    fn rebase(&mut self, now_abs: u64) {
        for slot in 0..BUCKETS {
            self.buckets[slot].clear();
        }
        self.occupied = [0; WORDS];
        self.overflow.clear();
        self.overflow_min = u64::MAX;
        self.base = now_abs;
        for src in 0..self.deadline.len() {
            let d = self.deadline[src];
            if d != u64::MAX {
                self.insert(src, d);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    /// The retained linear-scan oracle: the minimum authoritative
    /// deadline, computed the way the old O(P) quiet-horizon scan did.
    fn oracle(deadlines: &[u64]) -> u64 {
        deadlines.iter().copied().min().unwrap_or(u64::MAX)
    }

    #[test]
    fn starts_with_every_source_due_at_zero() {
        let mut cal = Calendar::with_ring(4, true);
        assert_eq!(cal.earliest(0), 0);
    }

    #[test]
    fn tracks_simple_schedules_and_cancellations() {
        let mut cal = Calendar::with_ring(3, true);
        cal.schedule(0, 10);
        cal.schedule(1, 7);
        cal.schedule(2, u64::MAX);
        assert_eq!(cal.earliest(1), 7);
        // Reschedule (NACK refresh style): the old entry dies lazily.
        cal.schedule(1, 40);
        assert_eq!(cal.earliest(2), 10);
        // Cancellation (fail-stop style): parking removes the source.
        cal.schedule(0, u64::MAX);
        assert_eq!(cal.earliest(3), 40);
        cal.schedule(1, u64::MAX);
        assert_eq!(cal.earliest(4), u64::MAX);
    }

    #[test]
    fn far_deadlines_take_the_overflow_path_and_migrate_back() {
        let mut cal = Calendar::with_ring(2, true);
        let far = (BUCKETS as u64) << (BUCKET_SHIFT + 2); // well past the horizon
        cal.schedule(0, far);
        cal.schedule(1, u64::MAX);
        assert_eq!(cal.earliest(0), far);
        // Advancing near the far deadline re-homes it into the ring.
        assert_eq!(cal.earliest(far - 5), far);
        assert_eq!(cal.earliest(far), far);
    }

    #[test]
    fn jump_past_the_whole_ring_rebases_correctly() {
        let mut cal = Calendar::with_ring(3, true);
        let span = (BUCKETS as u64) << BUCKET_SHIFT;
        cal.schedule(0, 3 * span + 17);
        cal.schedule(1, 5 * span + 1);
        cal.schedule(2, u64::MAX);
        assert_eq!(cal.earliest(3 * span), 3 * span + 17);
        cal.schedule(0, u64::MAX);
        assert_eq!(cal.earliest(3 * span + 20), 5 * span + 1);
    }

    /// Property test for the active set's due hand-over: stepping from
    /// event to event the way the kernel does, `take_due` yields
    /// exactly the sources whose deadline is the current cycle, in the
    /// ring and scan regimes alike.
    #[test]
    fn take_due_hands_over_exactly_the_due_sources() {
        for case in 0..24u64 {
            let mut rng = SplitMix64::new(0xD0E_0000 + case);
            let n = 1 + rng.below(200) as usize;
            let mut cal = Calendar::with_ring(n, case % 2 == 0 || n > SCAN_THRESHOLD);
            let mut shadow = vec![0u64; n];
            let mut due = vec![0u64; n.div_ceil(64)];
            let mut now = 0;
            for _ in 0..300 {
                // The cycle after a step finds the next event, then the
                // kernel jumps to it and asks again there.
                let next = oracle(&shadow);
                assert_eq!(cal.earliest(now), next, "case {case}");
                if next == u64::MAX {
                    break;
                }
                now = next;
                assert_eq!(cal.earliest(now), now, "case {case}");
                due.fill(0);
                cal.take_due(now, &mut due);
                for src in 0..n {
                    let taken = due[src / 64] >> (src % 64) & 1 == 1;
                    assert_eq!(taken, shadow[src] == now, "case {case}, source {src} at {now}");
                    // Visited sources re-arm forward; some untouched
                    // ones are rescheduled too, as marked processors are.
                    if taken || rng.below(8) == 0 {
                        let t = match rng.below(6) {
                            0 => u64::MAX,
                            1 => now + 1 + rng.below(1 << 16),
                            _ => now + 1 + rng.below(300),
                        };
                        shadow[src] = t;
                        cal.schedule(src, t);
                    }
                }
                now += 1;
            }
        }
    }

    /// Property test: across seeded random schedules — including
    /// rescheduled deadlines (watchdog re-arm, NACK refresh), parked
    /// sources (fail-stop) and big time jumps — the calendar and the
    /// linear-scan oracle always pick the same next event.
    #[test]
    fn matches_linear_scan_oracle_on_random_schedules() {
        for case in 0..40u64 {
            // Even cases force the bucket ring at small source counts
            // (the default would min-scan); odd cases take the default
            // path, covering the scan bypass too.
            let (seed, force_ring) = (case / 2, case % 2 == 0);
            let mut rng = SplitMix64::new(0xCA1E_0000 + seed);
            let n = 1 + rng.below(24) as usize;
            let mut cal = Calendar::with_ring(n, force_ring || n > SCAN_THRESHOLD);
            let mut shadow = vec![0u64; n];
            let mut now = 0u64;
            for _ in 0..400 {
                match rng.below(10) {
                    // Advance time to (at most) the next event, the way
                    // the fast-forward kernel does, sometimes far past.
                    0..=3 => {
                        let next = oracle(&shadow);
                        let jump = match rng.below(4) {
                            0 => 1 + rng.below(16),
                            1 => 1 + rng.below(1 << 10),
                            2 => 1 + rng.below(1 << 15), // past the ring
                            _ => 1 + rng.below(64),
                        };
                        now = now.max(next.min(now + jump));
                        // Sources that came due get rescheduled forward,
                        // as a stepped cycle refreshes every wake.
                        for (src, slot) in shadow.iter_mut().enumerate() {
                            if *slot <= now {
                                let t = now + 1 + rng.below(1 << 8);
                                *slot = t;
                                cal.schedule(src, t);
                            }
                        }
                    }
                    // Reschedule a live source (earlier or later).
                    4..=6 => {
                        let src = rng.below(n as u64) as usize;
                        let t = now + 1 + rng.below(1 << 12);
                        shadow[src] = t;
                        cal.schedule(src, t);
                    }
                    // Park (cancel) a source, fail-stop style.
                    7 => {
                        let src = rng.below(n as u64) as usize;
                        shadow[src] = u64::MAX;
                        cal.schedule(src, u64::MAX);
                    }
                    // Far-future deadline (fail window / watchdog bound).
                    _ => {
                        let src = rng.below(n as u64) as usize;
                        let t = now + 1 + rng.below(1 << 22);
                        shadow[src] = t;
                        cal.schedule(src, t);
                    }
                }
                assert_eq!(
                    cal.earliest(now),
                    oracle(&shadow),
                    "calendar diverged from the linear-scan oracle (seed {seed}, now {now})"
                );
            }
        }
    }
}
