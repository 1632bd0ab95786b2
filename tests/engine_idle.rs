//! An idle engine sleeps: over half a second with no clients, each of
//! its named threads (`linkd-accept`, `linkd-shard-N`,
//! `linkd-compute-N`) makes at most two voluntary context switches, read
//! from `/proc/self/task/*/status`. A thread that polls on a timer would
//! make one per tick. Linux only; this file holds one test, so the
//! process has no other engine's threads.

#[cfg(target_os = "linux")]
#[test]
fn idle_engine_threads_sleep_until_woken() {
    use mimonet_io::engine::{EngineConfig, EngineServer};
    use std::collections::BTreeMap;
    use std::time::Duration;

    /// Voluntary context switches of each `linkd-*` thread, by tid.
    fn switches() -> BTreeMap<u64, (String, u64)> {
        let mut out = BTreeMap::new();
        for task in std::fs::read_dir("/proc/self/task").expect("read /proc/self/task") {
            let task = task.expect("task entry");
            let Ok(status) = std::fs::read_to_string(task.path().join("status")) else {
                continue; // the thread exited meanwhile
            };
            let field = |key: &str| {
                status
                    .lines()
                    .find_map(|l| l.strip_prefix(key))
                    .map(|v| v.trim().to_string())
            };
            let name = field("Name:").unwrap_or_default();
            if !name.starts_with("linkd-") {
                continue;
            }
            let tid = task.file_name().to_string_lossy().parse().expect("tid");
            let n = field("voluntary_ctxt_switches:")
                .and_then(|v| v.parse().ok())
                .expect("voluntary_ctxt_switches");
            out.insert(tid, (name, n));
        }
        out
    }

    let server = EngineServer::bind_with("127.0.0.1:0", EngineConfig::default()).expect("bind");
    // Let every thread reach its first sleep.
    std::thread::sleep(Duration::from_millis(100));
    let before = switches();
    std::thread::sleep(Duration::from_millis(500));
    let after = switches();

    let mut names: Vec<&str> = after.values().map(|(n, _)| n.as_str()).collect();
    names.sort_unstable();
    assert_eq!(
        names,
        [
            "linkd-accept",
            "linkd-compute-0",
            "linkd-compute-1",
            "linkd-shard-0",
            "linkd-shard-1"
        ],
        "the engine's threads carry their names"
    );
    for (tid, (name, n)) in &after {
        let woke = n - before[tid].1;
        assert!(woke <= 2, "{name} woke {woke} times in 500 ms of idling");
    }
    server.shutdown();
}
