//! Keeps every CPU out of its idle halt while a run measures.
//!
//! On a virtual machine whose idle vCPUs halt (no cpuidle driver, so the
//! idle loop is `hlt`), a request that wakes a thread on a halted vCPU pays
//! a hypervisor round trip to wake that vCPU, and its length follows the
//! other tenants' load. A request on the `browse` path wakes four threads
//! in turn. On the 2-vCPU host the benchmark was tuned on, a loopback
//! ping-pong at 1,000 round trips/s with a sleeping client read a p50 of
//! 45–53 µs in three runs a minute apart, and 12–20 µs with these
//! spinners; `browse` at its light rate read 576–739 µs without them and
//! 387–389 µs with them. The spinners run at `SCHED_IDLE`, so they only
//! take time no other thread wants and any waking thread preempts them at
//! once: the program's threads find their CPU awake, as on a busy server.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// `SCHED_IDLE` of `<sched.h>` on Linux.
const SCHED_IDLE: i32 = 5;

#[repr(C)]
struct SchedParam {
    sched_priority: i32,
}

extern "C" {
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
}

/// Moves the calling thread to `SCHED_IDLE`; false when the kernel refused.
fn to_idle_class() -> bool {
    let param = SchedParam { sched_priority: 0 };
    // SAFETY: pid 0 names the calling thread and `param` outlives the call.
    unsafe { sched_setscheduler(0, SCHED_IDLE, &param) == 0 }
}

/// One spinning `SCHED_IDLE` thread per CPU, stopped and joined on drop.
pub struct KeepWarm {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl KeepWarm {
    /// Starts the spinners. A thread the kernel will not move to
    /// `SCHED_IDLE` exits at once rather than compete with the program.
    pub fn start() -> Self {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        let stop = Arc::new(AtomicBool::new(false));
        let threads = (0..cpus)
            .map(|_| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    if !to_idle_class() {
                        return;
                    }
                    while !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                })
            })
            .collect();
        Self { stop, threads }
    }
}

impl Drop for KeepWarm {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}
