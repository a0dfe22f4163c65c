//! A fixed calibration kernel that measures how fast the machine runs right
//! now.
//!
//! On a shared VM the same work takes from about 1× to 1.6× as long from
//! one second to the next, depending on what other tenants run. The
//! benchmark times this kernel next to the requests. It then reports times
//! scaled to the kernel's reference time, so a parent and a change measured
//! at different moments are compared at the same machine speed. The kernel
//! does the kind of work the program does: it formats small strings and
//! builds, probes and drops hash and ordered maps. It uses only the
//! standard library, so no change to the program can change it.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// Kernel milliseconds at reference speed (the median on the 2-core VM the
/// bounds in `BENCHMARK.json` were set on).
pub const REFERENCE_MS: f64 = 0.7;

fn kernel() -> f64 {
    let start = Instant::now();
    let mut ordered = BTreeMap::new();
    let mut hashed = HashMap::new();
    for i in 0..1000u64 {
        let key = format!("Atom{}({}, {})", i % 97, i, i * 31 % 1000);
        hashed.insert(key.clone(), i);
        ordered.insert(key, i);
    }
    let mut acc = 0u64;
    for (key, value) in &ordered {
        acc ^= hashed[key] ^ value;
    }
    black_box(acc);
    drop(black_box(ordered));
    drop(black_box(hashed));
    start.elapsed().as_secs_f64() * 1e3
}

/// The median of three kernel runs, in milliseconds.
fn median_of_three() -> f64 {
    let mut runs = [kernel(), kernel(), kernel()];
    runs.sort_by(f64::total_cmp);
    runs[1]
}

/// The kernel time on `threads` threads at once, averaged: a request that
/// keeps that many cores busy runs at their mean speed.
pub fn sample(threads: usize) -> f64 {
    std::thread::scope(|scope| {
        let others: Vec<_> = (1..threads).map(|_| scope.spawn(median_of_three)).collect();
        let mine = median_of_three();
        let total: f64 = others
            .into_iter()
            .map(|h| h.join().expect("calibration thread panicked"))
            .sum::<f64>()
            + mine;
        total / threads.max(1) as f64
    })
}

/// `ms` measured while the kernel took `kernel_ms`, at reference speed.
pub fn scaled(ms: f64, kernel_ms: f64) -> f64 {
    ms * REFERENCE_MS / kernel_ms
}
