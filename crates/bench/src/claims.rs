//! The paper's claims as data: one row per checked number.

use crate::Scale;

/// Where a claim holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Holds {
    /// At both scales: the tier-1 test and CI check it.
    Quick,
    /// Only at full scale: checked when `results/figures.txt` is made.
    Full,
}

/// One row of the claims table.
#[derive(Debug, Clone, Copy)]
pub struct Claim {
    /// Row id.
    pub id: &'static str,
    /// The figure whose metric the row reads.
    pub figure: &'static str,
    /// The metric's name in that figure.
    pub metric: &'static str,
    /// What is claimed, in words.
    pub claim: &'static str,
    /// The paper's value.
    pub paper: &'static str,
    /// Inclusive band the measured value must fall in.
    pub band: (f64, f64),
    /// The scale the band holds at.
    pub holds: Holds,
    /// The paper's value lies outside the band: a known deviation.
    pub deviation: bool,
}

/// A number as the table prints it: integers bare, else three decimals.
fn num(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e12 {
        format!("{v:.0}")
    } else {
        format!("{v:.3}")
    }
}

impl Claim {
    /// The band as printed.
    pub(crate) fn band_text(&self) -> String {
        let (lo, hi) = self.band;
        let band = if lo == hi {
            num(lo)
        } else {
            format!("{} – {}", num(lo), num(hi))
        };
        match self.holds {
            Holds::Quick => band,
            Holds::Full => format!("{band} (full scale)"),
        }
    }

    /// `(measured, status)` for the metric's value at `scale`; `error` is
    /// the first failed run of the figure, which fails every row it feeds.
    pub(crate) fn check(
        &self,
        scale: Scale,
        value: Option<f64>,
        error: Option<&str>,
    ) -> (String, String) {
        if scale == Scale::Quick && self.holds == Holds::Full {
            return ("–".into(), "full scale only".into());
        }
        let Some(v) = value else {
            return ("–".into(), "MISS: the figure reports no such metric".into());
        };
        let status = match error {
            Some(e) => format!("MISS: {}", e.replace(['|', '\n'], " ")),
            None if !(self.band.0 <= v && v <= self.band.1) => "MISS".into(),
            None if self.deviation => "ok (known deviation)".into(),
            None => "ok".into(),
        };
        (num(v), status)
    }
}

#[allow(clippy::too_many_arguments)] // one table row
const fn row(
    id: &'static str,
    figure: &'static str,
    metric: &'static str,
    band: (f64, f64),
    holds: Holds,
    deviation: bool,
    claim: &'static str,
    paper: &'static str,
) -> Claim {
    Claim {
        id,
        figure,
        metric,
        claim,
        paper,
        band,
        holds,
        deviation,
    }
}

use Holds::{Full, Quick};

/// Every checked claim, in figure order. Bands are set around the
/// measured values at both scales.
#[rustfmt::skip]
pub static CLAIMS: &[Claim] = &[
    row("fig4-fifo", "fig4", "fifo_gap", (4.0, 4.0), Quick, false, "FIFO sync: inter-iteration delay (units)", "4"),
    row("fig4-p3", "fig4", "p3_gap", (2.0, 2.0), Quick, false, "priority sync halves that delay (units)", "2"),
    row("fig5-vgg", "fig5", "vgg_heaviest_share", (0.71, 0.72), Quick, false, "VGG-19: share of parameters in its heaviest array (fc6)", "0.715"),
    row("fig5-sockeye", "fig5", "sockeye_heaviest_block", (0.0, 0.0), Quick, false, "Sockeye: forward index of its heaviest block", "0 (the embedding comes first)"),
    row("fig5-resnet", "fig5", "resnet_arrays", (151.0, 165.0), Quick, false, "ResNet-50: parameter arrays", "~160"),
    row("fig6-layer", "fig6", "layer_makespan", (11.0, 11.0), Quick, false, "layer-level pipeline makespan (units)", "11"),
    row("fig6-saving", "fig6", "saving", (0.30, 0.40), Quick, false, "slicing's saving in communication time", "~0.30"),
    row("fig7-resnet-4g", "fig7", "resnet_4g", (1.15, 1.60), Quick, false, "ResNet-50 @ 4 Gbps: P3 / Baseline", "1.26"),
    row("fig7-resnet-tie", "fig7", "resnet_top", (0.96, 1.04), Quick, false, "ResNet-50 at the sweep's top bandwidth (compute-bound): P3 / Baseline", "1 (all tie)"),
    row("fig7-resnet-rise", "fig7", "resnet_rise", (1.03, 1.12), Quick, false, "ResNet-50: P3 at the top bandwidth / P3 @ 4 Gbps", "> 1"),
    row("fig7-resnet-slicing", "fig7", "resnet_slicing_8g", (0.98, 1.05), Quick, false, "ResNet-50 @ 8 Gbps: Slicing / Baseline", "≈ 1 (no benefit)"),
    row("fig7-resnet-knee", "fig7", "resnet_knee", (5.0, 8.0), Full, false, "ResNet-50: lowest Gbps where Baseline is within 1% of its plateau", "6"),
    row("fig7-vgg-slicing-20g", "fig7", "vgg_slicing_20g", (1.30, 1.55), Quick, false, "VGG-19 @ 20 Gbps: Slicing / Baseline", "> 1"),
    row("fig7-vgg-slicing-30g", "fig7", "vgg_slicing_30g", (1.35, 1.55), Full, false, "VGG-19 @ 30 Gbps: Slicing / Baseline", "1.49"),
    row("fig7-vgg-peak", "fig7", "vgg_peak", (1.35, 1.55), Full, true, "VGG-19: peak P3 / Baseline over the sweep", "1.66 (@ 15 Gbps)"),
    row("fig7-inception-peak", "fig7", "inception_peak", (1.40, 1.80), Full, true, "InceptionV3: peak P3 / Baseline over the sweep", "1.18"),
    row("fig7-sockeye-peak", "fig7", "sockeye_peak", (1.08, 1.25), Full, true, "Sockeye: peak P3 / Baseline over the sweep", "1.38"),
    row("fig7-sockeye-shrink", "fig7", "sockeye_shrink", (1.03, 1.25), Quick, false, "Sockeye: P3's gain @ 4 Gbps / its gain @ 30 Gbps", "> 1"),
    row("fig7-order", "fig7", "order", (0.99, 1.01), Quick, false, "P3 ≥ Slicing ≥ Baseline at every point: worst of P3/Slicing, Slicing/Baseline", "≥ 1"),
    row("fig8-resnet-idle", "fig8_9", "resnet_idle_drop", (0.15, 0.30), Quick, false, "ResNet-50 @ 4 Gbps: outbound idle fraction, Baseline − P3", "> 0 (bursty vs smooth)"),
    row("fig9-resnet-overlap", "fig8_9", "resnet_overlap_gain", (0.45, 0.70), Quick, false, "ResNet-50 @ 4 Gbps: in/outbound overlap, P3 − Baseline", "> 0"),
    row("fig8-idle", "fig8_9", "idle_drop", (0.02, 0.30), Full, false, "all three workloads: smallest idle-fraction drop, Baseline − P3", "> 0"),
    row("fig9-overlap", "fig8_9", "overlap_gain", (0.005, 0.70), Full, false, "all three workloads: smallest overlap gain, P3 − Baseline", "> 0"),
    row("fig10-resnet-parity", "fig10", "resnet_off_parity", (0.0, 0.02), Full, false, "ResNet-50 @ 10 Gbps, 2–8 machines: largest distance of P3 / Baseline from 1", "0 (parity)"),
    row("fig10-vgg-gain", "fig10", "vgg_gain_4_8", (1.15, 1.35), Full, true, "VGG-19 @ 10 Gbps, 4 and 8 machines: smaller P3 / Baseline", "1.61 (8 machines)"),
    row("fig10-sockeye-8", "fig10", "sockeye_8", (1.0, 1.05), Full, true, "Sockeye @ 10 Gbps, 8 machines: P3 / Baseline", "1.18"),
    row("fig11-drop", "fig11", "drop_pp", (0.2, 2.0), Full, false, "mean final accuracy, P3 − DGC (pp)", "0.4"),
    row("fig12-resnet-1k", "fig12", "resnet_50k_over_1k", (1.5, 2.5), Quick, false, "ResNet-50 @ 4 Gbps: P3 with 50k slices / with 1k", "> 1"),
    row("fig12-resnet-1m", "fig12", "resnet_peak_over_1m", (1.10, 1.35), Full, false, "ResNet-50 @ 4 Gbps: best slice size / 1M", "> 1"),
    row("fig12-resnet-knee", "fig12", "resnet_knee", (5e3, 1e4), Full, true, "ResNet-50: best slice size (parameters)", "50000"),
    row("fig12-vgg-knee", "fig12", "vgg_knee", (5e3, 1e4), Full, true, "VGG-19: best slice size (parameters)", "50000"),
    row("fig12-sockeye-knee", "fig12", "sockeye_knee", (5e3, 1e4), Full, true, "Sockeye: best slice size (parameters)", "50000"),
    row("fig13-tf-idle", "fig13_14", "tf_idle", (0.20, 0.45), Quick, false, "TensorFlow-style, ResNet-50 @ 4 Gbps: outbound idle fraction", "bursty"),
    row("fig14-poseidon-idle", "fig13_14", "poseidon_idle", (0.35, 0.60), Quick, false, "Poseidon WFBP, InceptionV3 @ 1 Gbps: outbound idle fraction", "bursty"),
    row("fig15-final", "fig15", "final_gap_pp", (10.0, 30.0), Full, true, "final accuracy, P3 − ASGD (pp)", "5 (93% vs 88%)"),
    row("fig15-time", "fig15", "time_to_target", (3.0, 8.0), Full, false, "time to 80% of the best accuracy, ASGD / P3", "~6"),
    row("abl-consumption", "ablations", "resnet_consumption_over_generation", (1.05, 1.50), Quick, false, "ResNet-50: P3 / P3 with generation-order priorities", "> 1"),
    row("abl-resnet-priority", "ablations", "resnet_priority_over_slicing", (1.02, 1.15), Quick, false, "ResNet-50 @ 4 Gbps: priority alone / slicing alone", "> 1"),
    row("abl-vgg-slicing", "ablations", "vgg_slicing_over_priority", (1.03, 1.20), Full, false, "VGG-19 @ 15 Gbps: slicing alone / priority alone", "> 1"),
    row("ar-resnet", "allreduce", "resnet_ar_gain_4g", (1.10, 1.45), Full, false, "ring, ResNet-50 @ 4 Gbps: sliced priority / layer-wise FIFO", "> 1 (§6, untested)"),
    row("ar-vgg", "allreduce", "vgg_ar_gain_10g", (1.10, 1.35), Full, false, "ring, VGG-19 @ 10 Gbps: sliced priority / layer-wise FIFO", "> 1 (§6, untested)"),
    row("ar-plateau", "allreduce", "vgg_ar_2m_over_50k", (2.0, 3.5), Full, false, "ring, VGG-19 @ 10 Gbps: 2M-parameter slices / 50k", "n/a"),
    row("ar-fusion", "allreduce", "vgg_ar_50m_over_2m", (1.0, 1.10), Full, false, "ring, VGG-19 @ 10 Gbps: 50M-parameter slices / 2M", "n/a"),
    row("dgc-tight", "dgc_p3", "p3_over_dgc_tight", (1.25, 1.60), Full, false, "ResNet-50 @ 0.2 Gbps, 95% DGC: P3 + DGC / DGC alone", "> 1 (§6, untested)"),
    row("dgc-vgg", "dgc_p3", "vgg_dgc_over_baseline", (5.0, 9.0), Full, false, "VGG-19 @ 2 Gbps, 99.9% DGC: DGC / Baseline", "n/a"),
    row("tr-8g", "transformer", "p3_over_baseline_8g", (1.10, 1.30), Full, false, "Transformer @ 8 Gbps: P3 / Baseline", "n/a"),
    row("tr-bound", "transformer", "p3_bound_share_4g", (0.75, 0.95), Full, false, "Transformer @ 4 Gbps: P3's share of the analytic bound", "n/a"),
    row("tr-bound-gap", "transformer", "p3_minus_baseline_bound_share", (0.05, 0.20), Full, false, "Transformer @ 4 Gbps: that share, P3 − Baseline", "n/a"),
    row("rob-clean", "robustness", "clean_p3_gain", (1.08, 1.25), Full, false, "ResNet-50 @ 5 Gbps, no faults: P3 / Baseline", "n/a"),
    row("rob-straggler", "robustness", "straggler_spread", (1.0, 1.02), Full, false, "2.5x straggler: fastest / slowest strategy", "n/a"),
    row("rob-degraded", "robustness", "degraded_p3_gain", (0.75, 0.95), Full, false, "one NIC at 25%: P3 / Baseline", "n/a"),
    row("rob-lossy", "robustness", "lossy_p3_gain", (1.08, 1.30), Full, false, "3% message loss: P3 / Baseline", "n/a"),
    row("rob-crash", "robustness", "crash_p3_gain", (1.03, 1.20), Full, false, "a worker crash: P3 / Baseline", "n/a"),
    row("os-flat", "oversub", "resnet_flat_gain", (1.30, 1.60), Full, false, "8 machines, ResNet-50 @ 4 Gbps, flat fabric: P3 / Baseline", "n/a"),
    row("os-fade", "oversub", "edge_fade", (0.60, 0.90), Full, false, "P3's gain at 8:1 oversubscription / on the flat fabric (larger of two models)", "n/a"),
];
