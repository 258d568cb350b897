//! Parallel sweep driver.
//!
//! Each simulation (`Simulation` plus everything built on it) is
//! single-threaded and `!Send`, but *independent* runs — one per design
//! point, fault rate, or application — share nothing, so a sweep can
//! fan them out across OS threads. Each job constructs its own
//! simulation on the thread that claims it and returns a rendered
//! result; results are slotted back by submission index, so composed
//! output is deterministic no matter which thread ran what, or in what
//! order jobs finished.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

/// A unit of sweep work: builds, runs, and renders one independent
/// simulation.
pub type Job = Box<dyn FnOnce() -> String + Send>;

/// Runs `jobs` on up to `threads` worker threads and returns their
/// results in submission order.
///
/// # Panics
///
/// Propagates the first panic from any job once all workers have been
/// joined.
#[must_use]
pub fn run_parallel(jobs: Vec<Job>, threads: usize) -> Vec<String> {
    let n = jobs.len();
    let workers = threads.max(1).min(n.max(1));
    let next = AtomicUsize::new(0);
    let jobs: Vec<Mutex<Option<Job>>> = jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
    let slots: Vec<Mutex<Option<String>>> = (0..n).map(|_| Mutex::new(None)).collect();
    thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let job = jobs[i]
                    .lock()
                    .expect("job slot poisoned")
                    .take()
                    .expect("each job is claimed exactly once");
                let out = job();
                *slots[i].lock().expect("result slot poisoned") = Some(out);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot poisoned")
                .expect("every claimed job stores a result")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_submission_order() {
        let jobs: Vec<Job> = (0..17)
            .map(|i| Box::new(move || format!("job-{i}")) as Job)
            .collect();
        let out = run_parallel(jobs, 4);
        let want: Vec<String> = (0..17).map(|i| format!("job-{i}")).collect();
        assert_eq!(out, want);
    }

    #[test]
    fn more_threads_than_jobs_is_fine() {
        let jobs: Vec<Job> = vec![Box::new(|| "only".to_string())];
        assert_eq!(run_parallel(jobs, 64), vec!["only".to_string()]);
    }

    #[test]
    fn empty_job_list_returns_empty() {
        assert!(run_parallel(Vec::new(), 8).is_empty());
    }
}
