//! The tuner's configuration space: what a search **cell** is (the
//! deployment you cannot choose — model, cluster size, bandwidth,
//! topology, fault class) and what a **candidate** is (the knobs you can
//! — slice size, priority policy, backend, collective channels, shard
//! placement), plus the [`SearchSpace`] the grid and genetic stages draw
//! candidates from.

use p3_cluster::{BackendKind, FaultPlan, StragglerEpisode, WorkerCrash};
use p3_core::{PriorityMode, SyncStrategy};
use p3_des::{SimDuration, SimTime, SplitMix64};
use p3_models::ModelSpec;
use p3_topo::{Placement, Topology};

/// Smallest slice size the genetic stage will mutate down to.
pub const MIN_SLICE: u64 = 1_000;
/// Largest slice size the genetic stage will mutate up to.
pub const MAX_SLICE: u64 = 64_000_000;

/// How slice priorities are assigned — the tuner's named subset of
/// [`PriorityMode`] (random order is excluded: it exists as an ablation,
/// not a configuration anyone would deploy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PriorityPolicy {
    /// Forward-pass consumption order (the P3 policy).
    Consumption,
    /// Gradient generation order (what plain FIFO achieves).
    Generation,
    /// All slices equal.
    Uniform,
}

impl PriorityPolicy {
    /// Every policy, in the tuner's canonical order.
    pub const ALL: [PriorityPolicy; 3] = [
        PriorityPolicy::Consumption,
        PriorityPolicy::Generation,
        PriorityPolicy::Uniform,
    ];

    /// Stable lower-case name.
    pub fn name(self) -> &'static str {
        match self {
            PriorityPolicy::Consumption => "consumption",
            PriorityPolicy::Generation => "generation",
            PriorityPolicy::Uniform => "uniform",
        }
    }

    /// Parses a name produced by [`PriorityPolicy::name`].
    ///
    /// # Errors
    ///
    /// A message listing the valid names on unknown input.
    pub fn parse(name: &str) -> Result<PriorityPolicy, String> {
        match name {
            "consumption" => Ok(PriorityPolicy::Consumption),
            "generation" => Ok(PriorityPolicy::Generation),
            "uniform" => Ok(PriorityPolicy::Uniform),
            other => Err(format!(
                "unknown priority policy `{other}` (expected consumption|generation|uniform)"
            )),
        }
    }

    /// The engine-level priority mode this policy maps to.
    pub fn mode(self) -> PriorityMode {
        match self {
            PriorityPolicy::Consumption => PriorityMode::Consumption,
            PriorityPolicy::Generation => PriorityMode::Generation,
            PriorityPolicy::Uniform => PriorityMode::Uniform,
        }
    }
}

/// A named fault environment a cell is tuned under. Each class expands to
/// a fixed, deterministic [`FaultPlan`] so two runs of the same cell see
/// identical fault schedules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultClass {
    /// Fault-free.
    None,
    /// 0.5% uniform message loss (arms the retransmit machinery).
    Loss,
    /// The last worker computes at 2/3 speed for the whole run.
    Straggler,
    /// The last worker crashes 200 ms in and rejoins 300 ms later.
    Crash,
}

impl FaultClass {
    /// Stable lower-case name.
    pub fn name(self) -> &'static str {
        match self {
            FaultClass::None => "none",
            FaultClass::Loss => "loss",
            FaultClass::Straggler => "straggler",
            FaultClass::Crash => "crash",
        }
    }

    /// Parses a name produced by [`FaultClass::name`].
    ///
    /// # Errors
    ///
    /// A message listing the valid names on unknown input.
    pub fn parse(name: &str) -> Result<FaultClass, String> {
        match name {
            "none" => Ok(FaultClass::None),
            "loss" => Ok(FaultClass::Loss),
            "straggler" => Ok(FaultClass::Straggler),
            "crash" => Ok(FaultClass::Crash),
            other => Err(format!(
                "unknown fault class `{other}` (expected none|loss|straggler|crash)"
            )),
        }
    }

    /// The concrete fault schedule for a `machines`-machine cell.
    pub fn plan(self, machines: usize) -> FaultPlan {
        let victim = machines.saturating_sub(1);
        match self {
            FaultClass::None => FaultPlan::none(),
            FaultClass::Loss => FaultPlan {
                loss_probability: 0.005,
                ..FaultPlan::none()
            },
            FaultClass::Straggler => FaultPlan {
                stragglers: vec![StragglerEpisode {
                    worker: victim,
                    start: SimTime::ZERO,
                    duration: SimDuration::from_secs(3600),
                    slowdown: 1.5,
                }],
                ..FaultPlan::none()
            },
            FaultClass::Crash => FaultPlan {
                crashes: vec![WorkerCrash {
                    worker: victim,
                    at: SimTime::ZERO + SimDuration::from_millis(200),
                    rejoin_after: Some(SimDuration::from_millis(300)),
                }],
                ..FaultPlan::none()
            },
        }
    }
}

/// One deployment the tuner searches a configuration for: the facts you
/// cannot choose. Everything here is fixed across every candidate
/// evaluated in the cell.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Workload.
    pub model: ModelSpec,
    /// Cluster size (workers, and co-located PS shards under `ps`).
    pub machines: usize,
    /// Per-machine NIC bandwidth in Gbit/s.
    pub gbps: f64,
    /// Rack-level fabric, or `None` for the flat switch.
    pub topology: Option<Topology>,
    /// Fault environment.
    pub fault: FaultClass,
}

impl Cell {
    /// Stable display name, e.g. `resnet50/m8/10gbps/flat/none`.
    pub fn name(&self) -> String {
        let topo = match &self.topology {
            None => "flat".to_string(),
            Some(t) => format!("racks{}x{}o{}", t.racks(), t.rack_size(), t.oversub()),
        };
        format!(
            "{}/m{}/{}gbps/{}/{}",
            self.model.name(),
            self.machines,
            self.gbps,
            topo,
            self.fault.name()
        )
    }
}

/// One point in the configuration space: the knobs the tuner turns.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// P3 slice size (max parameters per slice).
    pub slice: u64,
    /// Priority assignment policy.
    pub policy: PriorityPolicy,
    /// Transport backend.
    pub backend: BackendKind,
    /// Parallel flows per collective transfer (collective backends only).
    pub channels: usize,
    /// PS-shard placement (meaningful only on a rack topology).
    pub placement: Placement,
}

impl Candidate {
    /// Stable sort/dedup key, also the report's candidate label, e.g.
    /// `backend=ps,slice=50000,policy=consumption,channels=4,placement=spread`.
    pub fn key(&self) -> String {
        format!(
            "backend={},slice={},policy={},channels={},placement={}",
            self.backend.name(),
            self.slice,
            self.policy.name(),
            self.channels,
            self.placement.name()
        )
    }

    /// The sync strategy this candidate configures.
    pub fn strategy(&self) -> SyncStrategy {
        SyncStrategy::p3_custom(self.slice, self.policy.mode())
    }

    /// Collapses knobs that do nothing in `cell` onto canonical values so
    /// the grid does not evaluate behaviourally identical duplicates:
    /// `channels` is a collective-only knob (forced to `base_channels`
    /// under `ps`), and `placement` needs a rack topology (forced to
    /// `Spread` on the flat fabric).
    pub fn normalized_for(&self, cell: &Cell, base_channels: usize) -> Candidate {
        let mut c = self.clone();
        if !c.backend.is_collective() {
            c.channels = base_channels;
        }
        if cell.topology.is_none() {
            c.placement = Placement::Spread;
        }
        c
    }
}

/// The axes candidates are drawn from. The grid stage takes the cross
/// product; the genetic stage treats the categorical axes as gene pools
/// and additionally mutates `slice` off-grid (halving/doubling within
/// [`MIN_SLICE`]..=[`MAX_SLICE`]).
#[derive(Debug, Clone)]
pub struct SearchSpace {
    /// Slice sizes.
    pub slices: Vec<u64>,
    /// Priority policies.
    pub policies: Vec<PriorityPolicy>,
    /// Backends.
    pub backends: Vec<BackendKind>,
    /// Collective channel counts.
    pub channels: Vec<usize>,
    /// Placements.
    pub placements: Vec<Placement>,
}

impl SearchSpace {
    /// The default space: the paper's slice sweep anchors, every priority
    /// policy, `ps` vs `ring`, NCCL-style 4 channels, spread placement.
    pub fn default_space() -> SearchSpace {
        SearchSpace {
            slices: vec![25_000, 50_000, 400_000, 1_600_000],
            policies: PriorityPolicy::ALL.to_vec(),
            backends: vec![BackendKind::Ps, BackendKind::Ring],
            channels: vec![4],
            placements: vec![Placement::Spread],
        }
    }

    /// Parses a `--grid` spec: semicolon-separated axes, each
    /// `name=v1,v2,...`, e.g.
    /// `slice=25000,50000;policy=consumption,uniform;backend=ps,ring;channels=2,4;placement=spread`.
    /// Omitted axes keep the default space's values.
    ///
    /// # Errors
    ///
    /// A message naming the offending axis or value.
    pub fn parse(spec: &str) -> Result<SearchSpace, String> {
        let mut space = SearchSpace::default_space();
        for axis in spec.split(';').filter(|a| !a.trim().is_empty()) {
            let (name, values) = axis
                .split_once('=')
                .ok_or_else(|| format!("grid axis `{axis}` is not name=v1,v2,..."))?;
            let values: Vec<&str> = values.split(',').map(str::trim).collect();
            if values.is_empty() || values.iter().any(|v| v.is_empty()) {
                return Err(format!("grid axis `{name}` has an empty value"));
            }
            match name.trim() {
                "slice" => {
                    space.slices = values
                        .iter()
                        .map(|v| {
                            v.parse::<u64>()
                                .map_err(|_| format!("bad slice size `{v}`"))
                        })
                        .collect::<Result<_, _>>()?;
                }
                "policy" => {
                    space.policies = values
                        .iter()
                        .map(|v| PriorityPolicy::parse(v))
                        .collect::<Result<_, _>>()?;
                }
                "backend" => {
                    space.backends = values
                        .iter()
                        .map(|v| {
                            BackendKind::from_name(v).ok_or_else(|| {
                                format!("unknown backend `{v}` (expected ps|ring|halving-doubling)")
                            })
                        })
                        .collect::<Result<_, _>>()?;
                }
                "channels" => {
                    space.channels = values
                        .iter()
                        .map(|v| {
                            v.parse::<usize>()
                                .map_err(|_| format!("bad channel count `{v}`"))
                        })
                        .collect::<Result<_, _>>()?;
                }
                "placement" => {
                    space.placements = values
                        .iter()
                        .map(|v| Placement::parse(v))
                        .collect::<Result<_, _>>()?;
                }
                other => {
                    return Err(format!(
                        "unknown grid axis `{other}` \
                         (expected slice|policy|backend|channels|placement)"
                    ));
                }
            }
        }
        space.validate()?;
        Ok(space)
    }

    /// Rejects empty or out-of-range axes.
    ///
    /// # Errors
    ///
    /// A message naming the offending axis.
    pub fn validate(&self) -> Result<(), String> {
        if self.slices.is_empty()
            || self.policies.is_empty()
            || self.backends.is_empty()
            || self.channels.is_empty()
            || self.placements.is_empty()
        {
            return Err("every grid axis needs at least one value".into());
        }
        if let Some(s) = self
            .slices
            .iter()
            .find(|&&s| !(MIN_SLICE..=MAX_SLICE).contains(&s))
        {
            return Err(format!("slice size {s} outside [{MIN_SLICE}, {MAX_SLICE}]"));
        }
        Ok(())
    }

    /// The full cross product, in deterministic axis order.
    pub fn grid(&self) -> Vec<Candidate> {
        let mut out = Vec::new();
        for &backend in &self.backends {
            for &slice in &self.slices {
                for &policy in &self.policies {
                    for &channels in &self.channels {
                        for &placement in &self.placements {
                            out.push(Candidate {
                                slice,
                                policy,
                                backend,
                                channels,
                                placement,
                            });
                        }
                    }
                }
            }
        }
        out
    }

    /// A uniform random candidate from the listed axis values.
    pub fn sample(&self, rng: &mut SplitMix64) -> Candidate {
        Candidate {
            slice: *pick(&self.slices, rng),
            policy: *pick(&self.policies, rng),
            backend: *pick(&self.backends, rng),
            channels: *pick(&self.channels, rng),
            placement: *pick(&self.placements, rng),
        }
    }

    /// Genetic crossover: each gene from one parent, 50/50.
    pub fn crossover(&self, a: &Candidate, b: &Candidate, rng: &mut SplitMix64) -> Candidate {
        Candidate {
            slice: if rng.next_u64() & 1 == 0 {
                a.slice
            } else {
                b.slice
            },
            policy: if rng.next_u64() & 1 == 0 {
                a.policy
            } else {
                b.policy
            },
            backend: if rng.next_u64() & 1 == 0 {
                a.backend
            } else {
                b.backend
            },
            channels: if rng.next_u64() & 1 == 0 {
                a.channels
            } else {
                b.channels
            },
            placement: if rng.next_u64() & 1 == 0 {
                a.placement
            } else {
                b.placement
            },
        }
    }

    /// Genetic mutation. The slice axis is continuous: besides resampling
    /// from the listed values it can halve or double off-grid (clamped to
    /// [`MIN_SLICE`]..=[`MAX_SLICE`]), which is how the genetic stage
    /// escapes the grid. The categorical axes resample from their pools.
    pub fn mutate(&self, c: &Candidate, rng: &mut SplitMix64) -> Candidate {
        let mut m = c.clone();
        // Always perturb the slice: it is the paper's most sensitive knob.
        match rng.next_u64() % 3 {
            0 => m.slice = (m.slice / 2).clamp(MIN_SLICE, MAX_SLICE),
            1 => m.slice = m.slice.saturating_mul(2).clamp(MIN_SLICE, MAX_SLICE),
            _ => m.slice = *pick(&self.slices, rng),
        }
        if rng.next_f64() < 0.3 {
            m.policy = *pick(&self.policies, rng);
        }
        if rng.next_f64() < 0.3 {
            m.backend = *pick(&self.backends, rng);
        }
        if rng.next_f64() < 0.3 {
            m.channels = *pick(&self.channels, rng);
        }
        if rng.next_f64() < 0.3 {
            m.placement = *pick(&self.placements, rng);
        }
        m
    }
}

fn pick<'a, T>(values: &'a [T], rng: &mut SplitMix64) -> &'a T {
    &values[(rng.next_u64() % values.len() as u64) as usize]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_is_the_cross_product() {
        let space = SearchSpace::default_space();
        assert_eq!(
            space.grid().len(),
            space.slices.len() * space.policies.len() * space.backends.len()
        );
    }

    #[test]
    fn parse_overrides_only_named_axes() {
        let space = SearchSpace::parse("slice=10000;backend=ring").unwrap();
        assert_eq!(space.slices, vec![10_000]);
        assert_eq!(space.backends, vec![BackendKind::Ring]);
        assert_eq!(space.policies, SearchSpace::default_space().policies);
    }

    #[test]
    fn parse_rejects_junk() {
        assert!(SearchSpace::parse("slice=abc").is_err());
        assert!(SearchSpace::parse("warp=9").is_err());
        assert!(SearchSpace::parse("slice=").is_err());
        assert!(SearchSpace::parse("slice=5").is_err(), "below MIN_SLICE");
    }

    #[test]
    fn normalization_collapses_inert_knobs() {
        let cell = Cell {
            model: ModelSpec::resnet50(),
            machines: 4,
            gbps: 10.0,
            topology: None,
            fault: FaultClass::None,
        };
        let c = Candidate {
            slice: 50_000,
            policy: PriorityPolicy::Consumption,
            backend: BackendKind::Ps,
            channels: 8,
            placement: Placement::Packed,
        };
        let n = c.normalized_for(&cell, 4);
        assert_eq!(n.channels, 4);
        assert_eq!(n.placement, Placement::Spread);
    }

    #[test]
    fn mutation_stays_in_bounds() {
        let space = SearchSpace::default_space();
        let mut rng = SplitMix64::new(7);
        let mut c = space.sample(&mut rng);
        for _ in 0..200 {
            c = space.mutate(&c, &mut rng);
            assert!((MIN_SLICE..=MAX_SLICE).contains(&c.slice));
        }
    }
}
