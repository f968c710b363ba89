//! Cooperative cancellation for long-running sweep loops.
//!
//! A [`StopFlag`] is a cheap, clonable handle over a shared atomic bit.
//! The owner of a deadline (a solve service worker, a signal handler, a
//! test harness) calls [`StopFlag::stop`]; sweep loops driving a
//! [`FlipKernel`](crate::FlipKernel) poll [`StopFlag::is_stopped`] at
//! sweep granularity and wind down early, returning the best states found
//! so far. Polling an un-tripped flag is a single relaxed atomic load —
//! it never touches a sampler's RNG stream, so results are bit-identical
//! to an un-flagged run until the moment the flag fires.
//!
//! A [`StopFlag::child`] adds a bit of its own under a parent: stopping
//! the parent stops every child, while stopping a child leaves the
//! parent and its siblings running. A portfolio race gives each member
//! a child of the job's deadline flag this way.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

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
    parent: Option<Arc<StopFlag>>,
}

impl StopFlag {
    /// Creates an un-tripped flag.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an un-tripped flag that also reports stopped once `self`
    /// (or any ancestor of `self`) is stopped. Stopping the child does
    /// not stop `self`.
    pub fn child(&self) -> Self {
        Self {
            bit: Arc::default(),
            parent: Some(Arc::new(self.clone())),
        }
    }

    /// Trips the flag. Idempotent; every clone observes the stop, and so
    /// does every child.
    pub fn stop(&self) {
        self.bit.store(true, Ordering::Release);
    }

    /// True once any clone of this flag or of an ancestor has called
    /// [`StopFlag::stop`].
    #[inline]
    pub fn is_stopped(&self) -> bool {
        self.bit.load(Ordering::Acquire) || self.parent.as_ref().is_some_and(|p| p.is_stopped())
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
    fn children_see_their_parent_stop_but_not_each_other() {
        let parent = StopFlag::new();
        let (a, b) = (parent.child(), parent.child());
        let grandchild = b.child();
        a.stop();
        assert!(a.is_stopped());
        assert!(!parent.is_stopped(), "a child's stop reached its parent");
        assert!(
            !b.is_stopped() && !grandchild.is_stopped(),
            "a child's stop reached its sibling"
        );
        parent.stop();
        assert!(
            b.is_stopped() && grandchild.is_stopped(),
            "a parent's stop missed a descendant"
        );
    }
}
