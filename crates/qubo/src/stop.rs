//! Cooperative cancellation for long-running sweep loops.
//!
//! A [`StopFlag`] is a cheap, clonable handle over a shared atomic bit
//! and an optional deadline. Its owner (a signal handler, a test
//! harness) calls [`StopFlag::stop`], or builds the flag
//! with [`StopFlag::with_deadline`] so that it trips itself once the
//! deadline passes (a solve service job). Sweep loops driving a
//! [`FlipKernel`](crate::FlipKernel) poll [`StopFlag::is_stopped`] at
//! sweep granularity and wind down early, returning the best states found
//! so far. Polling an un-tripped flag is an atomic load, plus one clock
//! read while a deadline is set — it never touches a sampler's RNG
//! stream, so results are bit-identical to an un-flagged run until the
//! moment the flag fires.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Shared cancellation token: set once, observed by many sweep loops.
///
/// ```
/// use qsmt_qubo::StopFlag;
///
/// let flag = StopFlag::new();
/// let observer = flag.clone(); // same underlying bit
/// assert!(!observer.is_stopped());
/// flag.stop();
/// assert!(observer.is_stopped());
/// ```
#[derive(Debug, Clone, Default)]
pub struct StopFlag {
    bit: Arc<AtomicBool>,
    deadline: Option<Instant>,
}

impl StopFlag {
    /// Creates an un-tripped flag.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a flag that also reports stopped once `deadline` has
    /// passed; [`StopFlag::stop`] still trips it earlier.
    pub fn with_deadline(deadline: Instant) -> Self {
        Self {
            deadline: Some(deadline),
            ..Self::default()
        }
    }

    /// Trips the flag. Idempotent; every clone observes the stop.
    pub fn stop(&self) {
        self.bit.store(true, Ordering::Release);
    }

    /// True once any clone of this flag has called [`StopFlag::stop`],
    /// or its deadline has passed.
    #[inline]
    pub fn is_stopped(&self) -> bool {
        self.bit.load(Ordering::Acquire) || self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_the_bit() {
        let a = StopFlag::new();
        let b = a.clone();
        assert!(!a.is_stopped() && !b.is_stopped());
        b.stop();
        assert!(a.is_stopped() && b.is_stopped());
    }

    #[test]
    fn stop_is_idempotent_and_visible_across_threads() {
        let flag = StopFlag::new();
        let trip = flag.clone();
        let t = std::thread::spawn(move || {
            trip.stop();
            trip.stop();
        });
        t.join().unwrap();
        assert!(flag.is_stopped());
    }

    #[test]
    fn a_deadline_stops_the_flag_once_passed() {
        assert!(StopFlag::with_deadline(Instant::now()).is_stopped());
        let far = StopFlag::with_deadline(Instant::now() + std::time::Duration::from_secs(3600));
        let clone = far.clone();
        assert!(!far.is_stopped() && !clone.is_stopped());
        far.stop();
        assert!(far.is_stopped() && clone.is_stopped());
    }
}
