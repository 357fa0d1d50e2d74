//! Measures how fast the host is running right now: prints, in seconds,
//! the median host time of three runs of a fixed reference computation.
//!
//! The computation uses only the standard library — a B-tree map of
//! random keys, heap allocations and integer mixing, the kinds of work the
//! simulator does — and this binary links none of the repository's
//! crates, so no change to them can speed it up or slow it down. The
//! `perfbench` binary runs it as a child process around each phase, so
//! the benchmark's own heap cannot affect it either, and scales its
//! `setup_s` and `run_s` by it.

use std::collections::BTreeMap;
use std::time::Instant;

fn sample() -> f64 {
    let start = Instant::now();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut map = BTreeMap::new();
    let mut blobs: Vec<Vec<u8>> = Vec::new();
    for i in 0..100_000u64 {
        let r = next();
        map.insert(r % 400_000, i);
        if i % 4 == 0 {
            blobs.push(vec![r as u8; 64 + (r % 192) as usize]);
        }
    }
    let mut acc = 0u64;
    for _ in 0..100_000 {
        let r = next();
        acc = acc.wrapping_add(map.get(&(r % 400_000)).copied().unwrap_or(r));
        let blob = &blobs[(r % blobs.len() as u64) as usize];
        for &b in blob.iter().step_by(8) {
            acc = (acc ^ u64::from(b))
                .wrapping_mul(0x0100_0000_01b3)
                .rotate_left(5);
        }
    }
    std::hint::black_box(acc);
    start.elapsed().as_secs_f64()
}

fn main() {
    let mut samples = [sample(), sample(), sample()];
    samples.sort_by(f64::total_cmp);
    println!("{:?}", samples[1]);
}
