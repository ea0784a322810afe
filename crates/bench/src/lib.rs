//! Shared plumbing for the figure-reproduction binaries.
//!
//! Every simulated study is an entry of [`figures::STUDIES`], run by the
//! one `figures` binary; `fig4` / `fig5` drive live sockets. Each prints
//! (a) a human-readable aligned table and (b) one JSON line per data
//! point (prefix `JSON `), so EXPERIMENTS.md entries can be regenerated
//! and diffed mechanically.
//!
//! `--quick` (1 run per point instead of the paper's 5, smaller sweeps)
//! lets the whole suite run in CI time; full runs reproduce the §4.1
//! protocol exactly.
//!
//! Grids of independent simulations run through [`SweepRunner`], which
//! fans the cells out across threads (`--jobs N`, default: all cores)
//! while keeping results bit-identical to a serial walk: every cell's
//! seed derives from its configuration, never from thread order, and
//! results come back in grid order.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use trace::json::Json;

pub mod cpfuzz;
pub mod figures;
pub mod fuzz;
pub mod live;
pub mod soak;

/// Command-line options shared by the reproduction binaries.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    /// Repetitions per experiment point (paper: 5).
    pub runs: usize,
    /// Reduced sweep for CI.
    pub quick: bool,
    /// Base seed.
    pub seed: u64,
    /// Worker threads for sweep execution (0 = auto-detect).
    pub jobs: usize,
}

impl RunOptions {
    /// Parses `--quick`, `--runs N`, `--seed N`, `--jobs N` from
    /// `std::env::args`.
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Self::parse(&args)
    }

    /// Parses from a pre-split argument list (testable). An explicit
    /// `--runs` wins over the single run `--quick` implies.
    pub fn parse(args: &[String]) -> Self {
        let mut args: Vec<&str> = args.iter().map(String::as_str).collect();
        let quick = args.iter().position(|&arg| arg == "--quick");
        let quick = quick.map(|at| args.remove(at)).is_some();
        let opts = RunOptions {
            quick,
            runs: take(&mut args, "--runs", if quick { 1 } else { 5 }),
            seed: take(&mut args, "--seed", 1),
            jobs: take(&mut args, "--jobs", 0),
        };
        assert!(
            args.is_empty(),
            "unknown argument: {args:?} (try --quick / --runs N / --seed N / --jobs N)"
        );
        assert!(opts.runs > 0, "--runs must be positive");
        opts
    }

    /// The sweep runner configured by these options.
    pub fn sweep_runner(&self) -> SweepRunner {
        SweepRunner::new(self.jobs)
    }
}

/// Takes `name value` out of `args`: the parsed value, or `default` when
/// the flag is absent.
///
/// # Panics
/// Panics when the flag has no value or the value does not parse.
pub fn take<T: std::str::FromStr>(args: &mut Vec<&str>, name: &str, default: T) -> T {
    let Some(at) = args.iter().position(|&arg| arg == name) else {
        return default;
    };
    assert!(at + 1 < args.len(), "{name} needs a value");
    let value = args.remove(at + 1);
    args.remove(at);
    value
        .parse()
        .unwrap_or_else(|_| panic!("{name}: cannot read {value:?}"))
}

/// Executes a grid of independent simulation cells across threads.
///
/// The determinism contract: `run` returns results **in input order**, and
/// the work function receives only the cell config — cells must derive all
/// randomness from their config (every experiment here seeds from
/// `derive_seed(config.seed, run_index)`), so the output is byte-identical
/// for any thread count, including 1. The regression test
/// `tests/sweep_determinism.rs` holds this line.
#[derive(Debug, Clone, Copy)]
pub struct SweepRunner {
    jobs: usize,
}

impl Default for SweepRunner {
    fn default() -> Self {
        Self::new(0)
    }
}

impl SweepRunner {
    /// Creates a runner with `jobs` worker threads (0 = all cores).
    pub fn new(jobs: usize) -> Self {
        let all_cores = || std::thread::available_parallelism().map_or(1, |n| n.get());
        SweepRunner {
            jobs: if jobs > 0 { jobs } else { all_cores() },
        }
    }

    /// A strictly serial runner (used as the reference in determinism
    /// tests).
    pub fn serial() -> Self {
        SweepRunner { jobs: 1 }
    }

    /// The resolved worker-thread count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Runs `work` over every cell, in parallel, returning results in
    /// cell order.
    ///
    /// Work is distributed by a shared atomic cursor, so threads never
    /// partition the grid statically — a slow cell does not straggle a
    /// whole stripe. A panicking cell propagates out of `run` (the scope
    /// join rethrows it), so a sweep never silently drops points.
    pub fn run<C, R, F>(&self, cells: &[C], work: F) -> Vec<R>
    where
        C: Sync,
        R: Send,
        F: Fn(&C) -> R + Sync,
    {
        let jobs = self.jobs.min(cells.len()).max(1);
        if jobs == 1 {
            return cells.iter().map(work).collect();
        }
        let cursor = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<R>>> = cells.iter().map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..jobs {
                scope.spawn(|| loop {
                    // ordering: Relaxed — work-stealing ticket counter; the
                    // Mutex around each result slot publishes the data.
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(cell) = cells.get(i) else { break };
                    let result = work(cell);
                    *slots[i].lock().expect("result slot poisoned") = Some(result);
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result slot poisoned")
                    .expect("worker filled every slot")
            })
            .collect()
    }

    /// Runs `runs` repetitions of every cell — the `(cell, repetition)`
    /// pairs are flattened into one work pool so a small grid with many
    /// repetitions still fills every core — and returns the per-cell
    /// repetition results in `(cell order, repetition order)`.
    ///
    /// `work` receives the cell and the repetition index; it must derive
    /// its seed from those (e.g. `derive_seed(opts.seed, rep)`), never
    /// from any global state, to keep the sweep thread-count-invariant.
    pub fn run_repeated<C, R, F>(&self, cells: &[C], runs: usize, work: F) -> Vec<Vec<R>>
    where
        C: Sync,
        R: Send,
        F: Fn(&C, usize) -> R + Sync,
    {
        assert!(runs > 0, "need at least one run per cell");
        let pairs: Vec<(usize, usize)> = (0..cells.len())
            .flat_map(|c| (0..runs).map(move |r| (c, r)))
            .collect();
        let flat = self.run(&pairs, |&(c, r)| work(&cells[c], r));
        let mut flat = flat.into_iter();
        (0..cells.len())
            .map(|_| (0..runs).map(|_| flat.next().expect("full grid")).collect())
            .collect()
    }
}

/// Parallel drop-in for [`incast_core::run_repeated`] over a whole grid:
/// runs every `(config, repetition)` pair across the runner's threads and
/// returns per-config summaries in config order, bit-identical to calling
/// `incast_core::run_repeated` on each config serially (same seeds, same
/// order — see `tests/sweep_determinism.rs`).
pub fn sweep_experiments(
    runner: &SweepRunner,
    configs: &[incast_core::ExperimentConfig],
    runs: usize,
) -> Vec<(trace::Summary, Vec<incast_core::IncastOutcome>)> {
    runner
        .run_repeated(configs, runs, |config, r| {
            incast_core::run_incast(config, trace::derive_seed(config.seed, r as u64))
        })
        .into_iter()
        .map(|outcomes| {
            let secs: Vec<f64> = outcomes.iter().map(|o| o.completion_secs).collect();
            (trace::Summary::of(&secs), outcomes)
        })
        .collect()
}

/// Hard-fails the binary when a simulation stopped on the event-count
/// safety cap. The cap exists to catch livelocks; a capped run is never a
/// valid data point, so the process exits non-zero instead of emitting a
/// silently-truncated figure. Returns the report unchanged otherwise, so
/// call sites can chain on it.
pub fn expect_no_event_cap(report: dcsim::sim::RunReport, context: &str) -> dcsim::sim::RunReport {
    if report.stop == dcsim::sim::StopReason::EventCap {
        eprintln!(
            "fatal: event cap exhausted ({} events, simulated time {}) during {context} — \
             this indicates a livelock (or an undersized cap via set_event_cap); \
             the figure data would be truncated, aborting",
            report.events, report.end_time
        );
        std::process::exit(2);
    }
    report
}

/// One machine-readable data point as a `JSON `-prefixed line: compact,
/// with the point's keys in alphabetical order (how `serde_json` printed
/// these rows; `tests/results_format.rs` pins the format to `results/`).
pub fn json_line(figure: &str, mut point: Vec<(&str, Json)>) -> String {
    point.sort_by_key(|&(key, _)| key);
    let row = Json::obj(vec![
        ("figure", Json::str(figure)),
        ("point", Json::obj(point)),
    ]);
    format!("JSON {}", row.render_line())
}

/// The standard figure banner: a title line and a blank line.
pub fn banner(figure: &str, description: &str) -> String {
    format!("== {figure}: {description} ==\n\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn defaults_match_paper_protocol() {
        let o = RunOptions::parse(&[]);
        assert_eq!(o.runs, 5);
        assert!(!o.quick);
    }

    #[test]
    fn quick_mode_single_run() {
        let o = RunOptions::parse(&s(&["--quick"]));
        assert!(o.quick);
        assert_eq!(o.runs, 1);
    }

    #[test]
    fn explicit_runs_and_seed() {
        let o = RunOptions::parse(&s(&["--runs", "3", "--seed", "99"]));
        assert_eq!(o.runs, 3);
        assert_eq!(o.seed, 99);
    }

    #[test]
    fn quick_then_runs_overrides() {
        let o = RunOptions::parse(&s(&["--quick", "--runs", "2"]));
        assert!(o.quick);
        assert_eq!(o.runs, 2);
    }

    #[test]
    #[should_panic(expected = "unknown argument")]
    fn unknown_flag_panics() {
        RunOptions::parse(&s(&["--bogus"]));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_runs_panics() {
        RunOptions::parse(&s(&["--runs", "0"]));
    }

    #[test]
    fn jobs_flag_parses_and_defaults_to_auto() {
        assert_eq!(RunOptions::parse(&[]).jobs, 0);
        let o = RunOptions::parse(&s(&["--jobs", "3"]));
        assert_eq!(o.jobs, 3);
        assert_eq!(o.sweep_runner().jobs(), 3);
        assert!(RunOptions::parse(&[]).sweep_runner().jobs() >= 1);
    }

    #[test]
    fn sweep_preserves_input_order() {
        let cells: Vec<usize> = (0..97).collect();
        let got = SweepRunner::new(8).run(&cells, |&c| c * 10);
        assert_eq!(got, cells.iter().map(|c| c * 10).collect::<Vec<_>>());
    }

    #[test]
    fn sweep_parallel_matches_serial() {
        // A cheap config-seeded computation: parallel result vectors must
        // be identical to the serial walk for any job count.
        let cells: Vec<u64> = (0..64).collect();
        let work = |&seed: &u64| {
            let mut rng = trace::SplitMix64::new(seed);
            (0..100)
                .map(|_| rng.next_u64())
                .fold(0u64, u64::wrapping_add)
        };
        let serial = SweepRunner::serial().run(&cells, work);
        for jobs in [2, 4, 16] {
            assert_eq!(SweepRunner::new(jobs).run(&cells, work), serial);
        }
    }

    #[test]
    fn sweep_handles_empty_and_oversized_pools() {
        let empty: Vec<u32> = Vec::new();
        assert!(SweepRunner::new(4).run(&empty, |&c| c).is_empty());
        // More workers than cells: every cell still runs exactly once.
        let cells = vec![1u32, 2, 3];
        assert_eq!(SweepRunner::new(64).run(&cells, |&c| c + 1), vec![2, 3, 4]);
    }

    #[test]
    #[should_panic]
    fn sweep_propagates_worker_panics() {
        let cells: Vec<u32> = (0..8).collect();
        SweepRunner::new(4).run(&cells, |&c| {
            if c == 5 {
                panic!("cell failure must not be swallowed");
            }
            c
        });
    }
}
