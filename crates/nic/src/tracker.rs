//! The notification tracker: turns merged notification messages into the
//! globally consistent ESID stream.

use scorpio_noc::{RotatingArbiter, Sid};
use scorpio_notify::NotifyMsg;
use scorpio_sim::Fifo;
use std::collections::VecDeque;

/// Expands completed notification windows into the Expected-SID sequence.
///
/// Every NIC runs one tracker seeded identically; because each consumes the
/// identical window stream and rotates its priority arbiter once per
/// processed window, all nodes derive the *same* total order over requests
/// — the heart of SCORPIO's distributed ordering (Section 3.4).
///
/// # Examples
///
/// ```
/// use scorpio_nic::NotificationTracker;
/// use scorpio_notify::NotifyMsg;
/// use scorpio_noc::Sid;
///
/// let mut t = NotificationTracker::new(4, 8);
/// let mut w = NotifyMsg::new(4, 2);
/// w.set_count(2, 1);
/// w.set_count(0, 2);
/// t.push_window(w);
/// // Priority starts at core 0: order is 0, 0, 2.
/// assert_eq!(t.current_esid(), Some(Sid(0)));
/// t.advance();
/// assert_eq!(t.current_esid(), Some(Sid(0)));
/// t.advance();
/// assert_eq!(t.current_esid(), Some(Sid(2)));
/// t.advance();
/// assert_eq!(t.current_esid(), None);
/// ```
#[derive(Debug, Clone)]
pub struct NotificationTracker {
    queue: Fifo<NotifyMsg>,
    arbiter: RotatingArbiter,
    current: VecDeque<Sid>,
    /// Queue occupancy at which the stop bit is asserted, leaving headroom
    /// for the one window already in flight.
    stop_threshold: usize,
    /// Which plane's announcement word group this tracker expands. With a
    /// multi-plane main network each NIC runs one tracker per plane; every
    /// tracker consumes the identical window stream but reads only its own
    /// plane's lanes, so each plane derives an independent — and still
    /// globally agreed — per-plane total order.
    plane: usize,
    reqs_scratch: Vec<bool>,
}

impl NotificationTracker {
    /// A tracker for `cores` cores with a `depth`-entry window queue,
    /// expanding plane 0's announcement words (the single-plane network).
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero or `depth < 2` (one in-flight window of
    /// headroom is required for the stop-bit protocol to be lossless).
    pub fn new(cores: usize, depth: usize) -> Self {
        NotificationTracker::for_plane(cores, depth, 0)
    }

    /// A tracker expanding plane `plane`'s word group of every pushed
    /// window (see [`NotificationTracker::new`]).
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`NotificationTracker::new`].
    pub fn for_plane(cores: usize, depth: usize, plane: usize) -> Self {
        assert!(cores > 0, "tracker needs at least one core");
        assert!(depth >= 2, "tracker depth must be at least 2");
        NotificationTracker {
            queue: Fifo::bounded(depth),
            arbiter: RotatingArbiter::new(cores),
            current: VecDeque::new(),
            stop_threshold: depth - 1,
            plane,
            reqs_scratch: vec![false; cores],
        }
    }

    /// The plane whose announcement words this tracker expands.
    pub fn plane(&self) -> usize {
        self.plane
    }

    /// Whether the NIC should assert the stop bit in its next notification
    /// (the tracker is close enough to full that another window might not
    /// fit).
    pub fn should_stop(&self) -> bool {
        self.queue.len() >= self.stop_threshold
    }

    /// Accepts a completed window whose word group for this tracker's
    /// plane is non-stop and non-empty (other planes' lanes are ignored).
    ///
    /// # Panics
    ///
    /// Panics if the queue overflows — the stop-bit protocol guarantees
    /// this cannot happen, so an overflow is a protocol bug.
    pub fn push_window(&mut self, msg: NotifyMsg) {
        debug_assert!(
            msg.total_in(self.plane) > 0,
            "windows empty for this plane must be filtered out"
        );
        self.queue
            .push(msg)
            .unwrap_or_else(|_| panic!("tracker queue overflow despite stop protocol"));
        if self.current.is_empty() {
            self.expand_next();
        }
    }

    /// The SID the NIC is currently waiting for, if any.
    pub fn current_esid(&self) -> Option<Sid> {
        self.current.front().copied()
    }

    /// Marks the current expected request as delivered and moves on.
    ///
    /// # Panics
    ///
    /// Panics if there is no current expectation.
    pub fn advance(&mut self) {
        self.current
            .pop_front()
            .expect("advance without a current expectation");
        if self.current.is_empty() {
            self.expand_next();
        }
    }

    /// Number of requests still to be delivered from the window currently
    /// being serviced.
    pub fn current_window_remaining(&self) -> usize {
        self.current.len()
    }

    /// Windows queued behind the current one.
    pub fn queued_windows(&self) -> usize {
        self.queue.len()
    }

    /// Total expected requests known to the tracker (current + queued).
    pub fn backlog(&self) -> usize {
        self.current.len()
            + self
                .queue
                .iter()
                .map(|m| m.total_in(self.plane) as usize)
                .sum::<usize>()
    }

    fn expand_next(&mut self) {
        let Some(msg) = self.queue.pop() else {
            return;
        };
        debug_assert!(
            msg.total_in(self.plane) > 0,
            "windows empty for this plane must be filtered out"
        );
        for r in self.reqs_scratch.iter_mut() {
            *r = false;
        }
        for (core, _) in msg.nonzero_in(self.plane) {
            self.reqs_scratch[core] = true;
        }
        for core in self.arbiter.order(&self.reqs_scratch).collect::<Vec<_>>() {
            for _ in 0..msg.count_in(self.plane, core) {
                self.current.push_back(Sid(core as u16));
            }
        }
        // Fairness: rotate once per processed window (Section 3.1 step 3).
        self.arbiter.rotate();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(pairs: &[(usize, u8)]) -> NotifyMsg {
        let mut m = NotifyMsg::new(8, 2);
        for &(c, n) in pairs {
            m.set_count(c, n);
        }
        m
    }

    fn drain(t: &mut NotificationTracker) -> Vec<u16> {
        let mut order = Vec::new();
        while let Some(sid) = t.current_esid() {
            order.push(sid.0);
            t.advance();
        }
        order
    }

    #[test]
    fn expands_in_rotating_priority_order() {
        let mut t = NotificationTracker::new(8, 4);
        t.push_window(window(&[(1, 1), (5, 1), (3, 1)]));
        assert_eq!(drain(&mut t), vec![1, 3, 5]);
    }

    #[test]
    fn priority_rotates_between_windows() {
        let mut t = NotificationTracker::new(4, 4);
        t.push_window(window(&[(0, 1), (1, 1)]));
        assert_eq!(drain(&mut t), vec![0, 1]);
        // Pointer rotated to 1: order now starts from 1.
        t.push_window(window(&[(0, 1), (1, 1)]));
        assert_eq!(drain(&mut t), vec![1, 0]);
    }

    #[test]
    fn multi_count_expands_consecutively() {
        let mut t = NotificationTracker::new(8, 4);
        t.push_window(window(&[(2, 3), (6, 1)]));
        assert_eq!(drain(&mut t), vec![2, 2, 2, 6]);
    }

    #[test]
    fn two_trackers_stay_in_lockstep() {
        let mut a = NotificationTracker::new(8, 4);
        let mut b = NotificationTracker::new(8, 4);
        let windows = [
            window(&[(7, 2)]),
            window(&[(0, 1), (4, 1)]),
            window(&[(1, 1), (2, 1), (3, 1)]),
        ];
        // a services windows as they come; b queues them all first.
        let mut order_a = Vec::new();
        for w in &windows {
            a.push_window(w.clone());
            order_a.extend(drain(&mut a));
        }
        for w in &windows {
            b.push_window(w.clone());
        }
        let order_b = drain(&mut b);
        assert_eq!(order_a, order_b, "global order diverged between nodes");
    }

    // Randomized form of the lockstep check: trackers fed the same
    // random window stream (6 cores, 0..3 requests each, 1..10 windows)
    // agree on the full expansion order whether they drain after every
    // window or only at the end. Fixed-seed `SimRng` loop.
    #[test]
    fn trackers_agree_on_random_window_streams() {
        let mut rng = scorpio_sim::SimRng::seed_from(0x7AC4);
        for _ in 0..64 {
            let mut eager = NotificationTracker::new(6, 16);
            let mut lazy = NotificationTracker::new(6, 16);
            let mut eager_order = Vec::new();
            for _ in 0..1 + rng.gen_range_usize(9) {
                let mut msg = NotifyMsg::new(6, 2);
                for core in 0..6 {
                    msg.set_count(core, rng.gen_range_u64(3) as u8);
                }
                if msg.is_empty() {
                    continue;
                }
                eager.push_window(msg.clone());
                lazy.push_window(msg);
                eager_order.extend(drain(&mut eager));
            }
            assert_eq!(eager_order, drain(&mut lazy), "global order diverged");
        }
    }

    #[test]
    fn stop_threshold_leaves_headroom() {
        let mut t = NotificationTracker::new(4, 3);
        assert!(!t.should_stop());
        // One window goes straight to `current`, so queue stays empty.
        t.push_window(window(&[(0, 1)]));
        assert!(!t.should_stop());
        t.push_window(window(&[(1, 1)]));
        t.push_window(window(&[(2, 1)]));
        assert!(t.should_stop());
        // Even at the stop threshold one more window fits (the in-flight
        // one).
        t.push_window(window(&[(3, 1)]));
        assert_eq!(t.backlog(), 4);
    }

    #[test]
    fn backlog_counts_current_and_queued() {
        let mut t = NotificationTracker::new(4, 4);
        t.push_window(window(&[(0, 2)]));
        t.push_window(window(&[(1, 3)]));
        assert_eq!(t.current_window_remaining(), 2);
        assert_eq!(t.queued_windows(), 1);
        assert_eq!(t.backlog(), 5);
    }

    #[test]
    #[should_panic(expected = "advance without")]
    fn advance_on_empty_panics() {
        let mut t = NotificationTracker::new(2, 2);
        t.advance();
    }

    #[test]
    #[should_panic(expected = "depth must be at least 2")]
    fn tiny_depth_panics() {
        let _ = NotificationTracker::new(2, 1);
    }
}
