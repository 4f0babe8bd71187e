//! Index-keyed parallel execution for the analyzer's per-file work.
//!
//! Same pattern as `bench::pool` (the workspace's sanctioned design for
//! determinism-preserving parallelism): workers pull indices from a
//! shared cursor, write results into a slot keyed by the index, and the
//! caller receives them in input order — so the analyzer's output is
//! byte-identical at any worker count, including 1. `xtask` cannot
//! depend on `bench` (the linter sits outside the crate layering it
//! enforces), so the ~40 lines are restated here rather than imported.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Worker count from the environment variable `var`: a positive
/// decimal integer (surrounding whitespace ignored), else (unset) the
/// machine's available parallelism, else 1. Garbage, empty, zero and
/// overflow are errors naming the variable and the value.
pub fn jobs_from_env(var: &str) -> Result<usize, String> {
    let raw = match std::env::var(var) {
        Err(std::env::VarError::NotPresent) => {
            return Ok(std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1))
        }
        Ok(v) => v,
        Err(std::env::VarError::NotUnicode(raw)) => raw.to_string_lossy().into_owned(),
    };
    let digits = raw.trim();
    match digits.parse::<usize>() {
        Ok(n) if n >= 1 && digits.bytes().all(|b| b.is_ascii_digit()) => Ok(n),
        _ => Err(format!(
            "{var} `{raw}` is not a positive decimal integer \
             (unset means the available parallelism)"
        )),
    }
}

/// Runs `f(0..n)` on up to `jobs` workers and returns the results in
/// index order. `f` must be pure with respect to index order (lexing a
/// file is); the output is then identical at any `jobs`.
pub fn run_indexed<T, F>(n: usize, jobs: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let width = jobs.max(1).min(n);
    if width <= 1 {
        return (0..n).map(f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<T>>> = Mutex::new((0..n).map(|_| None).collect());
    std::thread::scope(|s| {
        for _ in 0..width {
            s.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let r = f(i);
                match slots.lock() {
                    Ok(mut guard) => guard[i] = Some(r),
                    // A sibling panicked while holding the lock; stop
                    // pulling work (the scope propagates the panic).
                    Err(_) => break,
                }
            });
        }
    });
    let collected = match slots.into_inner() {
        Ok(v) => v,
        Err(poisoned) => poisoned.into_inner(),
    };
    collected
        .into_iter()
        .map(|slot| slot.expect("pool worker dropped a slot"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_arrive_in_index_order_at_any_width() {
        let sequential: Vec<usize> = (0..53).map(|i| i * 7).collect();
        for jobs in [1, 2, 4, 9] {
            assert_eq!(run_indexed(53, jobs, |i| i * 7), sequential, "jobs={jobs}");
        }
    }

    // One variable per test (the environment is process-wide). These
    // only parse: no pool is built from a test value.

    #[test]
    fn jobs_env_unset_gives_available_parallelism() {
        assert!(jobs_from_env("XTASK_JOBS_TEST_UNSET").unwrap() >= 1);
    }

    #[test]
    fn jobs_env_valid() {
        std::env::set_var("XTASK_JOBS_TEST_VALID", " 2 ");
        assert_eq!(jobs_from_env("XTASK_JOBS_TEST_VALID"), Ok(2));
    }

    /// A malformed value is an error naming the variable and the value.
    fn assert_jobs_rejected(var: &str, value: &str) {
        std::env::set_var(var, value);
        match jobs_from_env(var) {
            Err(msg) => {
                assert!(msg.contains(var), "{msg}");
                assert!(msg.contains(&format!("`{value}`")), "{msg}");
            }
            other => panic!("{var}={value:?} gave {other:?}"),
        }
    }

    #[test]
    fn jobs_env_garbage_is_an_error() {
        assert_jobs_rejected("XTASK_JOBS_TEST_GARBAGE", "4cores");
        assert_jobs_rejected("XTASK_JOBS_TEST_SIGN", "+4");
    }

    #[test]
    fn jobs_env_empty_is_an_error() {
        assert_jobs_rejected("XTASK_JOBS_TEST_EMPTY", "");
    }

    #[test]
    fn jobs_env_zero_is_an_error() {
        assert_jobs_rejected("XTASK_JOBS_TEST_ZERO", "0");
    }

    #[test]
    fn jobs_env_overflow_is_an_error() {
        assert_jobs_rejected("XTASK_JOBS_TEST_OVERFLOW", "18446744073709551616");
    }

    #[test]
    fn empty_and_single_inputs() {
        assert_eq!(run_indexed(0, 4, |i| i), Vec::<usize>::new());
        assert_eq!(run_indexed(1, 4, |i| i + 1), vec![1]);
    }
}
