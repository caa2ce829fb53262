//! The per-image communication engine (paper §III-B).
//!
//! The paper offloads communication to a dedicated thread so the image
//! can compute after initiating. [`CommPump`] queues tasks (source
//! snapshot + injection) on a per-image FIFO with one runner slot:
//! whoever takes the slot runs them in order, one at a time. Under
//! [`CommMode::DedicatedThread`], `submit` rings the communication thread,
//! and an image about to park runs the queue itself if the slot is free
//! ([`CommPump::run_queued`]): blocked, it has nothing to overlap. Under
//! [`CommMode::Inline`], `submit` runs the queue before it returns
//! (GASNet-like), so initiation implies local data completion.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::Relaxed, Ordering::SeqCst};
use std::sync::Arc;
use std::thread::{self, JoinHandle};

use parking_lot::Mutex;

pub use caf_core::config::CommMode;

/// A communication task: a source snapshot plus injection, run once.
pub type Task = Box<dyn FnOnce() + Send + 'static>;

/// One image's task FIFO and runner slot; `len` mirrors `tasks.len()`.
#[derive(Default)]
struct Queue {
    tasks: Mutex<VecDeque<Task>>,
    len: AtomicUsize,
    slot: Mutex<()>,
    closed: AtomicBool,
}

impl Queue {
    fn edit<R>(&self, f: impl FnOnce(&mut VecDeque<Task>) -> R) -> R {
        let mut tasks = self.tasks.lock();
        let r = f(&mut tasks);
        self.len.store(tasks.len(), SeqCst);
        r
    }

    /// Runs queued tasks while this thread holds the slot, whose guard
    /// frees it on unwind too; returns whether any ran. The re-check after
    /// each release strands no task rung meanwhile.
    fn run(&self) -> bool {
        let mut ran = false;
        while self.len.load(SeqCst) > 0 {
            let Some(_slot) = self.slot.try_lock() else { break };
            while let Some(task) = self.edit(VecDeque::pop_front) {
                task();
                ran = true;
            }
        }
        ran
    }
}

/// One image's communication engine; `comm` parks on its own `Thread`.
pub struct CommPump {
    queue: Arc<Queue>,
    comm: Option<JoinHandle<()>>,
}

impl CommPump {
    /// A pump for `mode`; `DedicatedThread` spawns the communication thread.
    pub fn new(mode: CommMode, image_index: usize) -> Self {
        let queue = Arc::new(Queue::default());
        let comm = (mode == CommMode::DedicatedThread).then(|| {
            let queue = Arc::clone(&queue);
            let body = move || loop {
                queue.run();
                if queue.closed.load(SeqCst) && queue.len.load(SeqCst) == 0 {
                    return;
                }
                thread::park(); // a ring since `run` returns at once
            };
            let name = format!("caf-comm-{image_index}");
            thread::Builder::new().name(name).spawn(body).expect("spawning comm thread")
        });
        CommPump { queue, comm }
    }

    /// Queues a task (FIFO per image): Inline runs it now, else it rings `comm`.
    pub fn submit(&self, task: impl FnOnce() + Send + 'static) {
        self.queue.edit(|tasks| tasks.push_back(Box::new(task)));
        match &self.comm {
            Some(comm) => comm.thread().unpark(),
            None => _ = self.queue.run(),
        }
    }

    /// Runs queued tasks on this thread if the runner slot is free;
    /// returns whether it ran any. An empty queue costs one relaxed load.
    pub fn run_queued(&self) -> bool {
        self.queue.len.load(Relaxed) > 0 && self.queue.run()
    }
}

impl Drop for CommPump {
    fn drop(&mut self) {
        self.queue.closed.store(true, SeqCst);
        if let Some(comm) = self.comm.take() {
            comm.thread().unpark();
            let _ = comm.join(); // after it has drained the queue
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
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

    #[test]
    fn racing_runners_run_one_task_at_a_time_in_fifo_order() {
        const N: usize = 10_000;
        let pump = CommPump::new(CommMode::DedicatedThread, 0);
        let inside = Arc::new(AtomicBool::new(false));
        let overlaps = Arc::new(AtomicUsize::new(0));
        let log = Arc::new(parking_lot::Mutex::new(Vec::with_capacity(N)));
        let here = std::thread::current().id();
        let ran_here = Arc::new(AtomicUsize::new(0));
        for i in 0..N {
            let (inside, overlaps, log, ran_here) =
                (inside.clone(), overlaps.clone(), log.clone(), ran_here.clone());
            pump.submit(move || {
                if inside.swap(true, Ordering::SeqCst) {
                    overlaps.fetch_add(1, Ordering::SeqCst);
                }
                log.lock().push(i);
                if std::thread::current().id() == here {
                    ran_here.fetch_add(1, Ordering::SeqCst);
                }
                inside.store(false, Ordering::SeqCst);
            });
            // Runs of 1, 2 and 3 tasks queue up before the submitter races
            // the communication thread for them.
            if i % 3 != 1 {
                pump.run_queued();
            }
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while log.lock().len() < N {
            assert!(Instant::now() < deadline, "tasks never ran");
            pump.run_queued();
            std::thread::yield_now();
        }
        assert_eq!(overlaps.load(Ordering::SeqCst), 0, "two tasks ran at once");
        assert_eq!(*log.lock(), (0..N).collect::<Vec<_>>(), "FIFO order");
        assert!(ran_here.load(Ordering::SeqCst) > 0, "the submitting thread never took the slot");
    }

    #[test]
    fn drop_joins_after_the_image_thread_ran_part_of_the_queue() {
        let hit = Arc::new(AtomicUsize::new(0));
        let submit = |pump: &CommPump| {
            let h = hit.clone();
            pump.submit(move || {
                h.fetch_add(1, Ordering::SeqCst);
            });
        };
        let mut submitted = 0;
        {
            let pump = CommPump::new(CommMode::DedicatedThread, 0);
            let deadline = Instant::now() + Duration::from_secs(5);
            loop {
                submit(&pump);
                submit(&pump);
                submitted += 2;
                if pump.run_queued() {
                    break;
                }
                assert!(Instant::now() < deadline, "the image thread never took the slot");
            }
            for _ in 0..50 {
                submit(&pump);
                submitted += 1;
            }
        } // drop joins the comm thread once it has run the rest
        assert_eq!(hit.load(Ordering::SeqCst), submitted);
    }

    #[test]
    fn drop_joins_after_a_task_panicked_on_the_image_thread() {
        let here = std::thread::current().id();
        let pump = CommPump::new(CommMode::DedicatedThread, 0);
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            pump.submit(move || {
                // Only the image thread's run panics, so the slot holder unwinds.
                assert_ne!(std::thread::current().id(), here, "task panics on the image thread");
            });
            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| pump.run_queued()));
            if run.is_err() {
                break;
            }
            assert!(Instant::now() < deadline, "the image thread never took the slot");
        }
        let hit = Arc::new(AtomicUsize::new(0));
        for _ in 0..50 {
            let h = hit.clone();
            pump.submit(move || {
                h.fetch_add(1, Ordering::SeqCst);
            });
        }
        // Drop on another thread, so a stuck slot fails the test, not hangs it.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            drop(pump);
            tx.send(()).unwrap();
        });
        rx.recv_timeout(Duration::from_secs(5))
            .expect("drop hung on a slot the panic left taken");
        assert_eq!(hit.load(Ordering::SeqCst), 50);
    }
}
