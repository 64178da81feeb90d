//! Pins the process to one CPU.
//!
//! On the two-core VM the benchmark targets, where a thread lands decides
//! what a wake-up costs: the same `net_travel` binary ran 33 ms or 48 ms a
//! round depending on whether the driver and a host shared a core, and the
//! single-threaded workloads pay for every migration. On one CPU every
//! hand-off is a same-core context switch, so a round measures the
//! program's work and not the hypervisor's cross-core wake-up latency.
//! Threads spawned later inherit the mask.

#![allow(unsafe_code)]

/// `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

/// Pins the calling thread to the highest-numbered CPU it may run on (CPU 0
/// takes most interrupts). Returns that CPU, or `None` when the kernel
/// refuses — the run is then merely noisier.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut allowed: CpuSet = [0; 16];
    // SAFETY: `allowed` is a live, writable buffer of exactly the size
    // passed; pid 0 names the calling thread; the call writes at most
    // `cpusetsize` bytes and keeps no pointer.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut allowed) };
    if rc != 0 {
        return None;
    }
    let cpu = allowed
        .iter()
        .enumerate()
        .rev()
        .find(|(_, word)| **word != 0)
        .map(|(i, word)| i * 64 + 63 - word.leading_zeros() as usize)?;
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of exactly the size passed; the call
    // only reads it.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) };
    (rc == 0).then_some(cpu)
}
