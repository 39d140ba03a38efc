//! Parameter slicing (§4.2): splitting layers into bounded-size slices that
//! synchronize independently, placed round-robin across servers.
//!
//! This differs from KVStore's sharding in two ways the paper calls out:
//! the threshold bounds the **maximum slice size** (KVStore's threshold
//! decides *whether* to split, into exactly one part per server), and
//! placement is round-robin over slices rather than equal-split per array,
//! which load-balances even when one array dominates the model.

use p3_pserver::{ServerId, ShardPlan};

/// The slice-size threshold found optimal in the paper's sweep (§5.7,
/// Fig. 12): 50,000 parameters (200 kB of f32 payload).
pub const DEFAULT_SLICE_PARAMS: u64 = 50_000;

/// Builds P3's shard plan: every parameter array is split into slices of at
/// most `max_slice_params` parameters (balanced within one parameter), and
/// slices are assigned to servers round-robin in forward order.
///
/// # Panics
///
/// Panics if `servers == 0`, `max_slice_params == 0`, or any array is
/// empty.
///
/// # Examples
///
/// ```
/// use p3_core::p3_plan;
///
/// // A 120k array and a 30k array on 2 servers with 50k slices.
/// let plan = p3_plan(&[120_000, 30_000], 2, 50_000);
/// // 120k -> 3 slices of 40k; 30k -> 1 slice.
/// assert_eq!(plan.num_keys(), 4);
/// assert_eq!(plan.slices()[0].params, 40_000);
/// // Round-robin placement: servers 0,1,0,1.
/// let servers: Vec<usize> = plan.slices().iter().map(|s| s.server.0).collect();
/// assert_eq!(servers, vec![0, 1, 0, 1]);
/// ```
pub fn p3_plan(array_params: &[u64], servers: usize, max_slice_params: u64) -> ShardPlan {
    assert!(servers > 0, "at least one server required");
    assert!(max_slice_params > 0, "zero slice size");
    let mut slices = Vec::new();
    let mut next_server = 0usize;
    for (array, &params) in array_params.iter().enumerate() {
        assert!(params > 0, "array {array} has zero parameters");
        let parts = params.div_ceil(max_slice_params);
        let base = params / parts;
        let rem = (params % parts) as usize;
        for part in 0..parts as usize {
            let p = base + u64::from(part < rem);
            slices.push((array, part, p, ServerId(next_server)));
            next_server = (next_server + 1) % servers;
        }
    }
    ShardPlan::from_slices(slices, servers)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_array_is_one_slice() {
        let plan = p3_plan(&[10_000], 4, 50_000);
        assert_eq!(plan.num_keys(), 1);
        assert_eq!(plan.slices()[0].params, 10_000);
    }

    #[test]
    fn exact_multiple_splits_evenly() {
        let plan = p3_plan(&[150_000], 4, 50_000);
        let sizes: Vec<u64> = plan.slices().iter().map(|s| s.params).collect();
        assert_eq!(sizes, vec![50_000, 50_000, 50_000]);
    }

    #[test]
    fn no_slice_exceeds_threshold() {
        let plan = p3_plan(&[102_760_448], 4, 50_000); // VGG fc6
        assert!(plan.slices().iter().all(|s| s.params <= 50_000));
        assert_eq!(plan.total_params(), 102_760_448);
        // ceil(102760448 / 50000) = 2056 slices.
        assert_eq!(plan.num_keys(), 2056);
    }

    #[test]
    fn round_robin_balances_heavy_arrays() {
        // One dominant array: KVStore-style equal split would also balance,
        // but round-robin must balance across *arrays* too.
        let plan = p3_plan(&[500_000, 30_000, 30_000, 30_000], 4, 50_000);
        let loads = plan.server_loads();
        let max = *loads.iter().max().unwrap() as f64;
        let min = *loads.iter().min().unwrap() as f64;
        assert!(max / min < 1.5, "unbalanced {loads:?}");
    }

    #[test]
    fn vgg19_plan_statistics() {
        let model = p3_models::ModelSpec::vgg19();
        let arrays: Vec<u64> = model.param_arrays().map(|a| a.params).collect();
        let plan = p3_plan(&arrays, 4, DEFAULT_SLICE_PARAMS);
        assert_eq!(plan.total_params(), model.total_params());
        // VGG-19 at 50k slices: roughly 143.7M / 50k ≈ 2900+ keys.
        assert!(plan.num_keys() > 2_800, "got {}", plan.num_keys());
        // Perfectly reasonable balance.
        let loads = plan.server_loads();
        let max = *loads.iter().max().unwrap() as f64;
        let min = *loads.iter().min().unwrap() as f64;
        assert!(max / min < 1.1, "unbalanced {loads:?}");
    }

    #[test]
    #[should_panic(expected = "zero slice size")]
    fn zero_slice_rejected() {
        p3_plan(&[10], 1, 0);
    }
}

#[cfg(test)]
mod properties {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Slicing conserves parameters, respects the size bound, and keeps
        /// slices balanced within one parameter per array.
        #[test]
        fn slicing_invariants(
            arrays in prop::collection::vec(1u64..3_000_000, 1..30),
            servers in 1usize..9,
            max_slice in 1_000u64..200_000,
        ) {
            let plan = p3_plan(&arrays, servers, max_slice);
            prop_assert_eq!(plan.total_params(), arrays.iter().sum::<u64>());
            for s in plan.slices() {
                prop_assert!(s.params <= max_slice);
            }
            for (a, _) in arrays.iter().enumerate() {
                let sizes: Vec<u64> = plan.slices_of_array(a).iter()
                    .map(|&i| plan.slices()[i].params).collect();
                let min = *sizes.iter().min().unwrap();
                let max = *sizes.iter().max().unwrap();
                prop_assert!(max - min <= 1, "array {} sizes {:?}", a, sizes);
            }
        }

        /// Round-robin placement never loads one server with more than a
        /// slice-size above the ideal share... within tolerance for small
        /// inputs: assert max load ≤ ideal + max_slice.
        #[test]
        fn round_robin_balance(
            arrays in prop::collection::vec(50_000u64..5_000_000, 1..12),
            servers in 1usize..9,
        ) {
            let max_slice = 50_000u64;
            let plan = p3_plan(&arrays, servers, max_slice);
            let loads = plan.server_loads();
            let ideal = plan.total_params() as f64 / servers as f64;
            for &l in &loads {
                prop_assert!((l as f64) <= ideal + max_slice as f64,
                    "load {} vs ideal {}", l, ideal);
            }
        }
    }
}
