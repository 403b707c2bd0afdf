//! The server's one lock-poison policy: recover the guard.
//!
//! A `std` mutex is poisoned when a thread panics while holding it, and
//! every later `lock().unwrap()` then panics too — one bad request would
//! take the connection table, the dispatcher queue or the delta chain
//! down for every request after it. Each server lock guards state that
//! is whole between any two statements (a queue, a map, a flag, a value
//! replaced in one assignment, or nothing at all for the reload
//! serializer), so a holder that panicked left nothing half-written, and
//! the guard is safe to take back with [`PoisonError::into_inner`].
//! Every server lock and condition-variable wait goes through here.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError, WaitTimeoutResult};
use std::time::Duration;

/// Locks `m`, recovering the guard if a holder panicked.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// [`Condvar::wait`], recovering the guard if a holder panicked.
pub(crate) fn wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

/// [`Condvar::wait_timeout`], recovering the guard if a holder panicked.
pub(crate) fn wait_timeout<'a, T>(
    cv: &Condvar,
    guard: MutexGuard<'a, T>,
    timeout: Duration,
) -> (MutexGuard<'a, T>, WaitTimeoutResult) {
    cv.wait_timeout(guard, timeout).unwrap_or_else(PoisonError::into_inner)
}
