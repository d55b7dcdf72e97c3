//! A fixed piece of CPU work that measures how fast the host runs now.
//!
//! The benchmark shares its host with other tenants, and the host's speed
//! drifts with their load: over seven minutes of back-to-back runs the
//! same rep went from 3.4 to 4.2 CPU seconds. The benchmark times [`work`]
//! before every rep and after the last one, and divides its times by
//! [`slowdown`], so they read as CPU seconds on the reference host. The
//! work is part of the benchmark, not of the program it measures, so a
//! change to the program cannot move it.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// CPU seconds of one [`work`] on the reference host: the 2-vCPU Intel
/// Xeon VM that the numbers in README.md come from, at a typical moment.
pub const REF_SECS: f64 = 0.2;

/// Rough share of a run spent calibrating.
const SHARE: f64 = 0.1;

/// Calls of [`work`] per calibration, for reps that take about `rep_secs`
/// seconds: about a tenth of a rep, at least two and at most ten. A
/// longer calibration averages the host's speed over longer: one call
/// (0.2 s) varied by about 8% from one rep to the next, as much as a 2 s
/// rep varies.
pub fn units(rep_secs: f64) -> u32 {
    // Rounded, then clamped to 2..=10, so the cast cannot overflow.
    (SHARE * rep_secs / REF_SECS).round().clamp(2.0, 10.0) as u32
}

/// Runs `n` calls of [`work`].
pub fn run(n: u32) -> u64 {
    (0..n).fold(0, |acc, _| acc.wrapping_add(work()))
}

/// How much slower than the reference host the host ran, from the CPU
/// seconds `secs` that `calls` calls of [`work`] took in all.
pub fn slowdown(secs: f64, calls: u32) -> f64 {
    secs / (f64::from(calls) * REF_SECS)
}

/// A fixed amount of work, like the simulator's in kind: a chain of
/// integer hashing and branches (the core's speed), then a binary-heap
/// event queue of 8 000 pending events beside a 256 KiB counter table (the
/// caches'). Returns a checksum, so the work cannot be optimized away.
pub fn work() -> u64 {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc = 0u64;
    for i in 0..20_000_000u64 {
        x = xorshift(x);
        acc = acc.wrapping_mul(31).wrapping_add(x ^ i);
        if acc & 7 == 3 {
            acc = acc.rotate_left(5);
        }
    }
    let mut queue = BinaryHeap::with_capacity(1 << 14);
    let mut table = vec![0u32; 1 << 16];
    for i in 0..1_500_000u64 {
        x = xorshift(x);
        queue.push(Reverse((i + (x & 0xFFF), x as u32)));
        let slot = (x >> 20) as usize & 0xFFFF;
        table[slot] = table[slot].wrapping_add(1);
        if queue.len() > 8_000 {
            if let Some(Reverse((t, v))) = queue.pop() {
                acc = acc.wrapping_add(t ^ u64::from(v) ^ u64::from(table[v as usize & 0xFFFF]));
            }
        }
    }
    acc
}

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn work_is_fixed() {
        assert_eq!(work(), work());
    }

    #[test]
    fn slowdown_is_the_time_per_call_over_the_reference() {
        assert!((slowdown(3.0 * REF_SECS, 3) - 1.0).abs() < 1e-12);
        assert!((slowdown(6.0 * REF_SECS, 4) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn units_take_a_tenth_of_a_rep() {
        assert_eq!(units(0.5), 2);
        assert_eq!(units(2.4), 2);
        assert_eq!(units(10.0), 5);
        assert_eq!(units(1e9), 10);
    }
}
