//! Process-wide shutdown flag wired to SIGINT/SIGTERM.
//!
//! The handler is the smallest thing POSIX allows: it stores one
//! `AtomicBool`. Everything else — finishing the current checkpoint
//! wave, persisting queue state, flushing manifests — happens on
//! ordinary threads that poll [`requested`]. No allocation, no locks,
//! no I/O ever runs in signal context.
//!
//! The flag is process-global on purpose: a one-shot `rem compare
//! --checkpoint` run and the resident `rem serve` service share the
//! same drain semantics ("stop at the next wave boundary, leave a
//! resumable checkpoint behind"), so they share the same flag.

use std::sync::atomic::{AtomicBool, Ordering};

static SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// The signal handler: store the flag and return. Async-signal-safe.
extern "C" fn on_signal(_signum: i32) {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

/// Installs the SIGINT/SIGTERM handler (idempotent). On non-Unix
/// targets this is a no-op; [`trigger`] still works, so drains driven
/// programmatically (tests, embedding) behave identically everywhere.
pub fn install() {
    #[cfg(unix)]
    {
        // Raw libc `signal(2)` so the crate stays std-only. The
        // handler only touches an AtomicBool, so the coarse SysV
        // semantics of `signal` (vs `sigaction`) are sufficient.
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        let handler = on_signal as extern "C" fn(i32) as usize;
        unsafe {
            signal(SIGINT, handler);
            signal(SIGTERM, handler);
        }
    }
}

/// True once SIGINT/SIGTERM arrived (or [`trigger`] was called).
pub fn requested() -> bool {
    SHUTDOWN.load(Ordering::SeqCst)
}

/// Raises the flag programmatically — the in-process equivalent of
/// SIGTERM. Only this module's test calls it: [`crate::Server::drain`]
/// raises the server's own drain flag instead.
pub fn trigger() {
    SHUTDOWN.store(true, Ordering::SeqCst)
}

/// Clears the flag. Tests (and a service restarting its accept loop in
/// the same process) call this before a fresh run.
pub fn reset() {
    SHUTDOWN.store(false, Ordering::SeqCst)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trigger_and_reset_drive_the_flag() {
        reset();
        assert!(!requested());
        trigger();
        assert!(requested());
        reset();
        assert!(!requested());
    }

    #[cfg(unix)]
    #[test]
    fn installed_handler_catches_a_real_sigint() {
        reset();
        install();
        // raise(3) delivers the signal to this process synchronously.
        extern "C" {
            fn raise(signum: i32) -> i32;
        }
        unsafe {
            raise(2);
        }
        assert!(requested(), "SIGINT must set the shutdown flag");
        reset();
    }
}
