//! CPU steal, read from `/proc/stat`: time this machine's virtual CPUs
//! were ready to run while the hypervisor ran something else. On a shared
//! host steal comes in bursts of seconds to minutes that slow every timed
//! interval alike (30–47 % steal stretched serve-mix's median latency by a
//! quarter to a half on a 2-vCPU Xeon guest), whatever the program does.
//! The timed loops therefore split a run into segments and count the
//! steal-free ones (steal share at most [`MAX_STEAL`]). When those hold too
//! few samples by the end of the run's cap, the least-stolen of the others
//! make up the count. Each run prints what it counted.

use std::time::{Duration, Instant};

/// Largest share of the machine's non-idle CPU time a kept segment may
/// have lost to steal.
pub const MAX_STEAL: f64 = 0.05;

/// Cumulative non-idle and steal ticks of all CPUs.
#[derive(Clone, Copy, Debug, Default)]
pub struct Ticks {
    busy: u64,
    steal: u64,
}

impl Ticks {
    /// The counters now; zero where `/proc/stat` is unreadable, so that
    /// every segment then reads as steal-free.
    pub fn now() -> Ticks {
        Self::read().unwrap_or_default()
    }

    fn read() -> Option<Ticks> {
        let stat = std::fs::read_to_string("/proc/stat").ok()?;
        let ticks: Vec<u64> = stat
            .lines()
            .next()?
            .strip_prefix("cpu ")?
            .split_whitespace()
            .map(|t| t.parse().ok())
            .collect::<Option<_>>()?;
        // user nice system idle iowait irq softirq steal …
        let idle = ticks.get(3)? + ticks.get(4)?;
        let steal = *ticks.get(7)?;
        Some(Ticks {
            busy: ticks.iter().take(8).sum::<u64>() - idle,
            steal,
        })
    }

    /// Steal share of the non-idle time from `self` to `later` (0 when no
    /// non-idle tick passed).
    pub fn share_until(self, later: Ticks) -> f64 {
        let busy = later.busy.saturating_sub(self.busy);
        if busy == 0 {
            0.0
        } else {
            later.steal.saturating_sub(self.steal) as f64 / busy as f64
        }
    }
}

/// Keep every CPU busy for `dur`: a probe of the host's steal just before
/// a segment that cannot show it itself.
pub fn spin(dur: Duration) {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let end = Instant::now() + dur;
    std::thread::scope(|s| {
        for _ in 0..cpus {
            s.spawn(|| {
                while Instant::now() < end {
                    std::hint::spin_loop();
                }
            });
        }
    });
}

/// The segments of a run, each with its steal share.
pub struct Segments<T> {
    items: Vec<(f64, T)>,
}

impl<T> Default for Segments<T> {
    fn default() -> Self {
        Self { items: Vec::new() }
    }
}

impl<T> Segments<T> {
    /// Add a segment that lost `share` of its CPU time to steal.
    pub fn push(&mut self, share: f64, item: T) {
        self.items.push((share, item));
    }

    /// The steal-free segments (share at most [`MAX_STEAL`]).
    pub fn clean(&self) -> impl Iterator<Item = &T> {
        self.items
            .iter()
            .filter(|(share, _)| *share <= MAX_STEAL)
            .map(|(_, item)| item)
    }

    /// The segments to count: every steal-free one and, while those are
    /// not `enough`, the least-stolen of the others. Prints what it chose,
    /// naming the segments `what`.
    pub fn pick(mut self, what: &str, enough: impl Fn(&[T]) -> bool) -> Vec<T> {
        let total = self.items.len();
        self.items.sort_by(|a, b| a.0.total_cmp(&b.0));
        let clean = self.items.partition_point(|(share, _)| *share <= MAX_STEAL);
        let mut picked = Vec::with_capacity(total);
        let mut worst = 0.0;
        for (i, (share, item)) in self.items.into_iter().enumerate() {
            if i >= clean && enough(&picked) {
                break;
            }
            worst = share;
            picked.push(item);
        }
        eprintln!(
            "perfbench: {what}: {clean} of {total} within {:.0}% steal; counted {} (steal up to {:.1}%)",
            100.0 * MAX_STEAL,
            picked.len(),
            100.0 * worst
        );
        picked
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn share_is_steal_over_busy_ticks() {
        let a = Ticks {
            busy: 100,
            steal: 4,
        };
        let b = Ticks {
            busy: 300,
            steal: 14,
        };
        assert_eq!(a.share_until(b), 0.05);
        assert_eq!(a.share_until(a), 0.0);
        assert!(Ticks::now().share_until(Ticks::now()) <= 1.0);
    }

    #[test]
    fn pick_tops_up_clean_segments_with_the_least_stolen() {
        let mut s = Segments::default();
        for (share, x) in [(0.3, 'a'), (0.01, 'b'), (0.1, 'c'), (0.0, 'd'), (0.2, 'e')] {
            s.push(share, x);
        }
        assert_eq!(s.clean().count(), 2);
        let mut picked = s.pick("t", |p| p.len() >= 3);
        picked.sort_unstable();
        assert_eq!(picked, ['b', 'c', 'd']);
        let mut s = Segments::default();
        for (share, x) in [(0.0, 1), (0.02, 2), (0.5, 3)] {
            s.push(share, x);
        }
        assert_eq!(s.pick("t", |p| !p.is_empty()), [1, 2]);
    }
}
