//! Every workload, built at 4 machines through the benchmark's own
//! configuration functions, runs clean and emits every metric of both
//! tables.

use p3_ledger::layers::traced_pass;
use p3_ledger::measure::{run_loop, Inputs, Tally};
use p3_ledger::spec::{DEFAULT_SEED, END_TO_END, PER_LAYER, WORKLOADS};

#[test]
fn every_workload_emits_every_metric_at_four_machines() {
    for w in WORKLOADS {
        let mut inputs = Inputs::new(w, DEFAULT_SEED, 4);
        assert!(!inputs.configs.is_empty(), "{}", w.name);
        assert!(inputs.configs.iter().all(|c| c.machines == 4));
        assert_eq!(
            inputs.pin.is_some(),
            w.machines == 4,
            "pins hold only at the nominal size"
        );
        // One run per rep keeps the unoptimised test build quick; the
        // metric set does not depend on the run count. A shorter rep has
        // another digest, so only the cross-rep check remains.
        inputs.configs.truncate(1);
        inputs.pin = None;
        let mut tally = Tally::default();
        let measured = run_loop(&inputs, 0.0, 2, &mut tally);
        assert_eq!(measured.reps.len(), 2);
        let e2e = measured.end_to_end();
        let layers = traced_pass(&inputs, &measured, &mut tally);
        assert_eq!(tally.failed, 0, "{}: {tally:?}", w.name);

        let names = |vs: &[p3_ledger::report::Value]| -> Vec<String> {
            vs.iter().map(|v| v.name.clone()).collect()
        };
        let want = |ms: &[p3_ledger::spec::Metric]| -> Vec<String> {
            ms.iter().map(|m| m.name.to_string()).collect()
        };
        assert_eq!(names(&e2e), want(END_TO_END), "{}", w.name);
        assert_eq!(names(&layers), want(PER_LAYER), "{}", w.name);
        for v in &e2e {
            assert!(v.value > 0.0 && v.value.is_finite(), "{}: {v:?}", w.name);
        }
        for v in &layers {
            assert!(v.value.is_finite(), "{}: {v:?}", w.name);
        }
    }
}
