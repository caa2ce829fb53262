//! The per-image communication engine (paper §III-B).
//!
//! GASNet completes the local-data side of a non-blocking operation before
//! the initiating call returns, which leaves no window between initiation
//! and local data completion for `cofence` to exploit. The paper's remedy
//! is to offload communication to a dedicated thread so the main thread
//! can compute immediately after initiating. [`CommPump`] implements both
//! strategies behind one interface:
//!
//! * [`CommMode::DedicatedThread`] — tasks (source-buffer snapshot +
//!   injection) run on a per-image communication thread, in order;
//!   initiation is a cheap enqueue.
//! * [`CommMode::Inline`] — tasks run on the calling thread before the
//!   call returns (the GASNet-like behaviour), so initiation already
//!   implies local data completion.

use std::sync::mpsc::{channel, Sender};
use std::thread::JoinHandle;

pub use caf_core::config::CommMode;

/// A communication task: a source snapshot plus injection, run once.
pub type Task = Box<dyn FnOnce() + Send + 'static>;

enum Backend {
    Inline,
    Thread { tx: Sender<Task>, handle: Option<JoinHandle<()>> },
}

/// One image's communication engine.
pub struct CommPump {
    backend: Backend,
}

impl CommPump {
    /// Creates a pump for the given mode. In `DedicatedThread` mode this
    /// spawns the communication thread (named for debuggability).
    pub fn new(mode: CommMode, image_index: usize) -> Self {
        match mode {
            CommMode::Inline => CommPump { backend: Backend::Inline },
            CommMode::DedicatedThread => {
                let (tx, rx) = channel::<Task>();
                let handle = std::thread::Builder::new()
                    .name(format!("caf-comm-{image_index}"))
                    .spawn(move || {
                        // Drain until every sender hangs up (pump dropped).
                        for task in rx {
                            task();
                        }
                    })
                    .expect("spawning communication thread");
                CommPump { backend: Backend::Thread { tx, handle: Some(handle) } }
            }
        }
    }

    /// Submits a communication task. Inline mode runs it now; thread mode
    /// enqueues it for the communication thread (FIFO per image).
    pub fn submit(&self, task: impl FnOnce() + Send + 'static) {
        match &self.backend {
            Backend::Inline => task(),
            Backend::Thread { tx, .. } => {
                tx.send(Box::new(task)).expect("communication thread alive");
            }
        }
    }
}

impl Drop for CommPump {
    fn drop(&mut self) {
        if let Backend::Thread { tx, handle } = &mut self.backend {
            // Close the channel, then join so queued tasks finish before
            // the runtime tears down shared state.
            let (closed, _) = channel::<Task>();
            *tx = closed;
            if let Some(h) = handle.take() {
                let _ = h.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    #[test]
    fn inline_mode_runs_synchronously() {
        let pump = CommPump::new(CommMode::Inline, 0);
        let hit = Arc::new(AtomicUsize::new(0));
        let h = hit.clone();
        pump.submit(move || {
            h.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hit.load(Ordering::SeqCst), 1, "inline task must run before return");
    }

    #[test]
    fn thread_mode_runs_asynchronously_in_order() {
        let pump = CommPump::new(CommMode::DedicatedThread, 3);
        let log = Arc::new(parking_lot::Mutex::new(Vec::new()));
        for i in 0..100 {
            let log = log.clone();
            pump.submit(move || log.lock().push(i));
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while log.lock().len() < 100 {
            assert!(Instant::now() < deadline, "tasks never ran");
            std::thread::yield_now();
        }
        assert_eq!(*log.lock(), (0..100).collect::<Vec<_>>(), "FIFO order");
    }

    #[test]
    fn drop_joins_after_draining() {
        let hit = Arc::new(AtomicUsize::new(0));
        {
            let pump = CommPump::new(CommMode::DedicatedThread, 0);
            for _ in 0..50 {
                let h = hit.clone();
                pump.submit(move || {
                    h.fetch_add(1, Ordering::SeqCst);
                });
            }
        } // drop joins the comm thread
        assert_eq!(hit.load(Ordering::SeqCst), 50);
    }
}
