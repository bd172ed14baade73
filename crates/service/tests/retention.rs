//! What the scheduler keeps: ten thousand sessions over more distinct
//! programs than the image cache holds leave a registry bounded by the
//! live sessions plus the finished-session cap, and a cache bounded by
//! its own cap.

use std::collections::HashMap;

use art9_service::{
    ImageCache, JobSpec, Scheduler, SchedulerConfig, SessionStatus, FINISHED_SESSION_CAP,
    IMAGE_CACHE_CAP,
};

const SESSIONS: u64 = 10_000;
/// Sessions submitted before the test waits for them.
const BATCH: u64 = 500;
/// Distinct programs, cycled: three times what the image cache holds.
const PROGRAMS: u64 = 3 * IMAGE_CACHE_CAP as u64;

/// Program `i % PROGRAMS`: two `LI` immediates (each within ±121)
/// spell the variant, so every variant is a distinct image.
fn program(i: u64) -> String {
    let v = i % PROGRAMS;
    format!("LI t3, {}\nLI t4, {}\nJAL t0, 0\n", v % 100, v / 100)
}

/// The retention bounds, checked at any point of the run.
fn assert_bounded(scheduler: &Scheduler, cache: &ImageCache) {
    let m = scheduler.metrics();
    assert!(m.sessions_active <= BATCH, "{m:?}");
    assert!(m.sessions_retained <= FINISHED_SESSION_CAP as u64, "{m:?}");
    let registered = scheduler.sessions().len();
    assert!(
        registered <= BATCH as usize + FINISHED_SESSION_CAP,
        "{registered} sessions registered"
    );
    assert!(cache.len() <= IMAGE_CACHE_CAP, "{} images", cache.len());
}

#[test]
fn ten_thousand_sessions_leave_bounded_state() {
    let scheduler = Scheduler::new(SchedulerConfig {
        workers: 2,
        quantum: 1_000,
    });
    let cache = ImageCache::new();
    let args: HashMap<String, String> = [("program".to_string(), "inline".to_string())].into();

    let mut ids = Vec::new();
    for start in (0..SESSIONS).step_by(BATCH as usize) {
        let handles: Vec<_> = (start..start + BATCH)
            .map(|i| {
                let spec = JobSpec::from_args(&args, Some(program(i))).unwrap();
                scheduler.submit(spec.prepare(&cache).unwrap())
            })
            .collect();
        assert_bounded(&scheduler, &cache);
        for (i, h) in (start..).zip(&handles) {
            assert_eq!(h.wait(), SessionStatus::Done);
            let trf = h.result().unwrap().trf;
            let v = (i % PROGRAMS) as i64;
            assert_eq!((trf[3], trf[4]), (v % 100, v / 100), "session {}", h.id);
        }
        assert_bounded(&scheduler, &cache);
        ids.extend(handles.iter().map(|h| h.id));
    }

    let m = scheduler.metrics();
    assert_eq!(m.sessions_total, SESSIONS);
    assert_eq!(m.sessions_active, 0);
    assert_eq!(m.sessions_retained, FINISHED_SESSION_CAP as u64);
    assert_eq!(m.sessions_evicted, SESSIONS - FINISHED_SESSION_CAP as u64);

    // The earliest sessions are gone; the latest are still answerable.
    assert!(scheduler.session(ids[0]).is_none());
    let last = scheduler.session(*ids.last().unwrap()).unwrap();
    assert!(last.result().is_some());
    assert_eq!(scheduler.sessions().len(), FINISHED_SESSION_CAP);

    assert_eq!(cache.len(), IMAGE_CACHE_CAP);
    assert!(cache.evictions() > 0);
    scheduler.shutdown();
}
