//! Step-by-step transfer schedules for collective allreduce.
//!
//! [`CollectiveSchedule`] answers the question an event-driven simulator
//! needs: *which machine sends how many bytes to which machine in step
//! `s`*. The cluster engine's collective backend replays these transfers
//! through the fluid network, so allreduce traffic competes for links,
//! suffers injected faults, and lands in the trace exactly like
//! parameter-server traffic does.
//!
//! Schedules are pure data: no RNG, no clocks, no allocation beyond the
//! returned transfer lists — the same inputs always produce the same
//! steps, which the run-twice digest tests rely on.

/// Default slice size for collective aggregation: 2 M parameters (8 MB).
///
/// Collectives want far coarser slices than the parameter server's 50k
/// optimum: every ring allreduce pays `2(N−1)` fixed step costs, so
/// thousands of tiny collectives drown in startup latency — the same
/// economics that drive Horovod's tensor-fusion buffers. The
/// `allreduce` figure of `p3 figures` sweeps this trade-off.
pub const DEFAULT_COLLECTIVE_SLICE: u64 = 2_000_000;

/// Which stepwise collective algorithm a schedule describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScheduleKind {
    /// Bandwidth-optimal ring: `2(N−1)` steps, each machine forwarding a
    /// `S/N` chunk to its successor.
    Ring,
    /// Recursive halving–doubling (Rabenseifner): `log₂N` reduce-scatter
    /// steps of shrinking pair exchanges, mirrored by `log₂N` allgather
    /// steps of growing ones. Requires a power-of-two machine count.
    HalvingDoubling,
}

/// One directed transfer of a collective step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transfer {
    /// Sending machine.
    pub src: usize,
    /// Receiving machine.
    pub dst: usize,
    /// Payload bytes on the wire (before protocol headers).
    pub bytes: u64,
}

/// A deterministic per-step transfer plan for one allreduce over `N`
/// machines.
///
/// # Examples
///
/// ```
/// use p3_allreduce::{CollectiveSchedule, ScheduleKind};
///
/// let s = CollectiveSchedule::new(ScheduleKind::Ring, 4).unwrap();
/// assert_eq!(s.steps(), 6); // 2(N-1)
/// let step0 = s.transfers(0, 4_000_000);
/// assert_eq!(step0.len(), 4); // every machine forwards one chunk
/// assert_eq!(step0[0].bytes, 1_000_000); // S/N
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollectiveSchedule {
    kind: ScheduleKind,
    machines: usize,
}

impl CollectiveSchedule {
    /// Builds a schedule, validating the machine count against the
    /// algorithm's requirements.
    ///
    /// # Errors
    ///
    /// Returns a description of the contradiction when `machines` is zero
    /// or when halving–doubling is asked to run on a non-power-of-two
    /// cluster.
    pub fn new(kind: ScheduleKind, machines: usize) -> Result<Self, String> {
        if machines == 0 {
            return Err("collective schedule over zero machines".into());
        }
        if kind == ScheduleKind::HalvingDoubling && !machines.is_power_of_two() {
            return Err(format!(
                "halving-doubling requires a power-of-two machine count, got {machines}"
            ));
        }
        Ok(CollectiveSchedule { kind, machines })
    }

    /// The algorithm this schedule implements.
    pub fn kind(&self) -> ScheduleKind {
        self.kind
    }

    /// Cluster size the schedule was built for.
    pub fn machines(&self) -> usize {
        self.machines
    }

    /// Number of network steps. Zero for a single machine (an allreduce
    /// with yourself is a no-op).
    pub fn steps(&self) -> usize {
        if self.machines == 1 {
            return 0;
        }
        match self.kind {
            ScheduleKind::Ring => 2 * (self.machines - 1),
            ScheduleKind::HalvingDoubling => 2 * log2(self.machines),
        }
    }

    /// True if `step` belongs to the allgather (second) phase: its
    /// transfers carry aggregated parameters rather than partial
    /// gradients.
    pub fn is_allgather(&self, step: usize) -> bool {
        match self.kind {
            ScheduleKind::Ring => step >= self.machines - 1,
            ScheduleKind::HalvingDoubling => step >= log2(self.machines),
        }
    }

    /// The directed transfers of `step` for a gradient payload of
    /// `payload_bytes`, in ascending sender order (deterministic).
    ///
    /// # Panics
    ///
    /// Panics if `step >= self.steps()`.
    pub fn transfers(&self, step: usize, payload_bytes: u64) -> Vec<Transfer> {
        assert!(step < self.steps(), "step {step} out of range");
        let n = self.machines;
        match self.kind {
            ScheduleKind::Ring => {
                // Every step — reduce-scatter and allgather alike — moves
                // one S/N chunk from each machine to its ring successor.
                let bytes = payload_bytes.div_ceil(n as u64);
                (0..n)
                    .map(|i| Transfer {
                        src: i,
                        dst: (i + 1) % n,
                        bytes,
                    })
                    .collect()
            }
            ScheduleKind::HalvingDoubling => {
                // Reduce-scatter step s exchanges with the partner at
                // distance 2^s, moving S/2^(s+1); the allgather phase
                // mirrors the sequence in reverse with the same sizes.
                let log = log2(n);
                let d = if step < log { step } else { 2 * log - 1 - step };
                let bytes = payload_bytes.div_ceil(1u64 << (d + 1));
                (0..n)
                    .map(|i| Transfer {
                        src: i,
                        dst: i ^ (1 << d),
                        bytes,
                    })
                    .collect()
            }
        }
    }

    /// Total bytes this schedule puts through the busiest NIC: the
    /// bandwidth-optimal `2·S·(N−1)/N` for both algorithms when `N`
    /// divides the payload.
    pub fn busiest_link_bytes(&self, payload_bytes: u64) -> u64 {
        (0..self.steps())
            .map(|s| {
                self.transfers(s, payload_bytes)
                    .first()
                    .map_or(0, |t| t.bytes)
            })
            .sum()
    }
}

fn log2(n: usize) -> usize {
    debug_assert!(n.is_power_of_two());
    n.trailing_zeros() as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_moves_everything_in_equal_chunks() {
        let s = CollectiveSchedule::new(ScheduleKind::Ring, 4).unwrap();
        assert_eq!(s.steps(), 6);
        for step in 0..s.steps() {
            let ts = s.transfers(step, 8_000_000);
            assert_eq!(ts.len(), 4);
            for t in &ts {
                assert_eq!(t.bytes, 2_000_000);
                assert_eq!(t.dst, (t.src + 1) % 4);
            }
        }
        assert!(!s.is_allgather(2));
        assert!(s.is_allgather(3));
    }

    #[test]
    fn ring_busiest_link_matches_analytic_bound() {
        // 2S(N-1)/N for S divisible by N.
        let s = CollectiveSchedule::new(ScheduleKind::Ring, 8).unwrap();
        assert_eq!(s.busiest_link_bytes(8_000_000), 2 * 8_000_000 * 7 / 8);
    }

    #[test]
    fn halving_doubling_halves_then_doubles() {
        let s = CollectiveSchedule::new(ScheduleKind::HalvingDoubling, 8).unwrap();
        assert_eq!(s.steps(), 6);
        let sizes: Vec<u64> = (0..6)
            .map(|st| s.transfers(st, 8_000_000)[0].bytes)
            .collect();
        assert_eq!(
            sizes,
            vec![4_000_000, 2_000_000, 1_000_000, 1_000_000, 2_000_000, 4_000_000]
        );
        // Step 0 pairs neighbours; the mirrored final step pairs them again.
        let first = s.transfers(0, 8);
        assert_eq!(first[0].dst, 1);
        assert_eq!(first[1].dst, 0);
        assert!(!s.is_allgather(2));
        assert!(s.is_allgather(3));
    }

    #[test]
    fn halving_doubling_partners_are_symmetric() {
        let s = CollectiveSchedule::new(ScheduleKind::HalvingDoubling, 4).unwrap();
        for step in 0..s.steps() {
            let ts = s.transfers(step, 1000);
            for t in &ts {
                // The partner's transfer points straight back.
                assert!(ts.iter().any(|u| u.src == t.dst && u.dst == t.src));
            }
        }
    }

    #[test]
    fn halving_doubling_total_matches_ring_total() {
        // Both are bandwidth-optimal: S(N-1)/N per phase through each NIC.
        let ring = CollectiveSchedule::new(ScheduleKind::Ring, 8).unwrap();
        let hd = CollectiveSchedule::new(ScheduleKind::HalvingDoubling, 8).unwrap();
        assert_eq!(
            ring.busiest_link_bytes(8_000_000),
            hd.busiest_link_bytes(8_000_000)
        );
    }

    #[test]
    fn single_machine_has_no_steps() {
        let s = CollectiveSchedule::new(ScheduleKind::Ring, 1).unwrap();
        assert_eq!(s.steps(), 0);
        assert_eq!(s.busiest_link_bytes(1_000_000), 0);
    }

    #[test]
    fn non_power_of_two_halving_doubling_is_rejected() {
        let err = CollectiveSchedule::new(ScheduleKind::HalvingDoubling, 6).unwrap_err();
        assert!(err.contains("power-of-two"), "{err}");
    }

    #[test]
    fn zero_machines_rejected() {
        assert!(CollectiveSchedule::new(ScheduleKind::Ring, 0).is_err());
    }

    #[test]
    fn chunk_sizes_round_up_so_no_bytes_are_lost() {
        let s = CollectiveSchedule::new(ScheduleKind::Ring, 3).unwrap();
        let ts = s.transfers(0, 10);
        assert_eq!(ts[0].bytes, 4); // ceil(10/3)
    }
}
