//! Ids are labels, not sizes. A log whose machine, key and message ids
//! sit near the top of their ranges gets the report it would get with
//! small ids, and the audit's heap stays proportional to the log's
//! length however far apart its ids lie.

use p3_audit::{check_with, AuditOptions};
use p3_des::SimTime;
use p3_trace::{EndpointRole, MsgClass, TraceEvent, TraceLog};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Counts live heap bytes and their high-water mark.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
        PEAK.fetch_max(live, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
        PEAK.fetch_max(live, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// How a trace names its entities.
struct Ids {
    machine: fn(usize) -> usize,
    key: fn(usize) -> usize,
    msg: fn(u64) -> u64,
}

/// `rounds` legal PS rounds of `keys` keys on 2 machines: each worker
/// pushes each key to its home server, which aggregates both pushes,
/// completes the round and answers both workers, who then consume it.
/// Machine `m`, key `k` and message `n` appear as the ids `ids` gives.
fn rounds(rounds: u64, keys: usize, ids: &Ids) -> Vec<(u64, TraceEvent)> {
    let mut evs = Vec::new();
    let mut t = 0u64;
    let mut n = 0u64;
    let mut transfer = |evs: &mut Vec<(u64, TraceEvent)>,
                        t: &mut u64,
                        from: (usize, EndpointRole),
                        to: usize,
                        class: MsgClass,
                        key: usize,
                        round: u64| {
        let msg_id = (ids.msg)(n);
        n += 1;
        let (src, dst) = ((ids.machine)(from.0), (ids.machine)(to));
        evs.push((
            *t,
            TraceEvent::EgressEnqueue {
                machine: src,
                role: from.1,
                msg_id,
                class,
                key: (ids.key)(key),
                round,
                priority: key as u32,
                queue_depth: 1,
            },
        ));
        evs.push((
            *t,
            TraceEvent::WireStart {
                msg_id,
                src,
                dst,
                bytes: 1_000,
                priority: key as u32,
            },
        ));
        *t += 1_000;
        evs.push((
            *t,
            TraceEvent::WireEnd {
                msg_id,
                src,
                dst,
                bytes: 1_000,
                bottleneck: None,
            },
        ));
    };
    for round in 0..rounds {
        for key in 0..keys {
            let home = key % 2;
            for w in 0..2 {
                evs.push((
                    t,
                    TraceEvent::GradReady {
                        worker: (ids.machine)(w),
                        key: (ids.key)(key),
                        round,
                        priority: key as u32,
                    },
                ));
                transfer(
                    &mut evs,
                    &mut t,
                    (w, EndpointRole::Worker),
                    home,
                    MsgClass::Push,
                    key,
                    round,
                );
            }
            for w in 0..2 {
                let (server, worker) = ((ids.machine)(home), (ids.machine)(w));
                let key = (ids.key)(key);
                evs.push((
                    t,
                    TraceEvent::AggStart {
                        server,
                        key,
                        round,
                        worker,
                    },
                ));
                t += 500;
                evs.push((
                    t,
                    TraceEvent::AggEnd {
                        server,
                        key,
                        round,
                        worker,
                    },
                ));
            }
            evs.push((
                t,
                TraceEvent::RoundComplete {
                    server: (ids.machine)(home),
                    key: (ids.key)(key),
                    version: round + 1,
                    degraded: false,
                },
            ));
            for w in 0..2 {
                transfer(
                    &mut evs,
                    &mut t,
                    (home, EndpointRole::Server),
                    w,
                    MsgClass::Response,
                    key,
                    round + 1,
                );
                evs.push((
                    t,
                    TraceEvent::SliceConsumed {
                        worker: (ids.machine)(w),
                        key: (ids.key)(key),
                        round: round + 1,
                    },
                ));
            }
        }
    }
    evs
}

/// A few faults on top of the legal rounds: a delivery of a message
/// never enqueued, a push whose gradient never became ready, a start that
/// jumps a more urgent queued message, and an aggregation of a push that
/// never arrived.
fn faults(ids: &Ids, t: u64) -> Vec<(u64, TraceEvent)> {
    let (m0, m1) = ((ids.machine)(0), (ids.machine)(1));
    let enqueue = |n: u64, priority: u32, depth: usize| TraceEvent::EgressEnqueue {
        machine: m1,
        role: EndpointRole::Server,
        msg_id: (ids.msg)(n),
        class: MsgClass::Response,
        key: (ids.key)(0),
        round: 9,
        priority,
        queue_depth: depth,
    };
    vec![
        (
            t,
            TraceEvent::WireEnd {
                msg_id: (ids.msg)(1 << 20),
                src: m0,
                dst: m1,
                bytes: 10,
                bottleneck: None,
            },
        ),
        (
            t,
            TraceEvent::EgressEnqueue {
                machine: m0,
                role: EndpointRole::Worker,
                msg_id: (ids.msg)(1 << 21),
                class: MsgClass::Push,
                key: (ids.key)(7),
                round: 3,
                priority: 0,
                queue_depth: 1,
            },
        ),
        (t, enqueue(1 << 22, 5, 1)),
        (t, enqueue(1 << 23, 1, 2)),
        (
            t,
            TraceEvent::WireStart {
                msg_id: (ids.msg)(1 << 22),
                src: m1,
                dst: m0,
                bytes: 10,
                priority: 5,
            },
        ),
        (
            t,
            TraceEvent::AggStart {
                server: m1,
                key: (ids.key)(3),
                round: 0,
                worker: m0,
            },
        ),
    ]
}

fn log_of(evs: &[(u64, TraceEvent)]) -> TraceLog {
    let mut log = TraceLog::new();
    for &(t, e) in evs {
        log.record(SimTime::from_nanos(t), e);
    }
    log
}

fn opts() -> AuditOptions {
    AuditOptions {
        machines: Some(2),
        single_consumer: Some(true),
        window: Some(4),
        port_bytes_per_sec: Some(1e12),
        collective: Some(false),
    }
}

fn report(ids: &Ids) -> String {
    let mut evs = rounds(2, 4, ids);
    let end = evs.last().map_or(0, |e| e.0);
    evs.extend(faults(ids, end));
    check_with(&log_of(&evs), &opts()).to_string()
}

const HUGE: Ids = Ids {
    machine: |m| usize::MAX - 2 * m,
    key: |k| usize::MAX - 1 - 3 * k,
    msg: |n| u64::MAX - 5 * n,
};

#[test]
fn ids_near_the_top_of_their_range_get_todays_report() {
    // Read before the replay moved to dense tables.
    let want = format!(
        "audit: FAILED — 5 violation(s) in 174 events (invariants: causal-order, \
         priority-inversion)\n  \
         [causal-order] event #168 @ 40000ns: msg {} delivered without ever being enqueued\n  \
         [causal-order] event #169 @ 40000ns: worker {} enqueues a push for k{} r3 before its \
         gradient is ready\n  \
         [priority-inversion] event #172 @ 40000ns: msg {} (priority 5) starts while more \
         urgent msg {} (priority 1) waits in the same queue\n  \
         [causal-order] event #173 @ 40000ns: server {} aggregates k{} at round 0 while the \
         key is at version 2\n  \
         [causal-order] event #173 @ 40000ns: server {} aggregates k{} r0 from w{} but no \
         matching push was delivered",
        (HUGE.msg)(1 << 20),
        (HUGE.machine)(0),
        (HUGE.key)(7),
        (HUGE.msg)(1 << 22),
        (HUGE.msg)(1 << 23),
        (HUGE.machine)(1),
        (HUGE.key)(3),
        (HUGE.machine)(1),
        (HUGE.key)(3),
        (HUGE.machine)(0),
    );
    assert_eq!(report(&HUGE), want);
}

#[test]
fn audit_memory_follows_the_log_not_the_id_values() {
    // Ids 2^32 apart: a table indexed by id would need 2^32 slots per
    // entity. The same log with small ids sets the scale.
    const SPREAD: Ids = Ids {
        machine: |m| m << 32,
        key: |k| (k << 32) | 7,
        msg: |n| (n << 32) | 3,
    };
    const SMALL: Ids = Ids {
        machine: |m| m,
        key: |k| k,
        msg: |n| n,
    };
    let peak = |ids: &Ids| {
        let log = log_of(&rounds(40, 64, ids));
        let before = LIVE.load(Ordering::Relaxed);
        PEAK.store(before, Ordering::Relaxed);
        let clean = check_with(&log, &opts()).is_clean();
        (clean, PEAK.load(Ordering::Relaxed) - before, log.len())
    };
    let (small_clean, small, events) = peak(&SMALL);
    let (spread_clean, spread, _) = peak(&SPREAD);
    let (huge_clean, huge, _) = peak(&HUGE);
    assert!(small_clean && spread_clean && huge_clean);
    for (name, bytes) in [("small", small), ("spread", spread), ("huge", huge)] {
        assert!(
            bytes < 256 * events,
            "{name} ids: the audit of {events} events peaked at {bytes} heap bytes"
        );
    }
}
