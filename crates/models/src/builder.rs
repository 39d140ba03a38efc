//! A small builder for assembling convolutional networks while tracking
//! spatial dimensions, so per-block FLOP counts stay honest.

use crate::layer::{BlockKind, ComputeBlock, ParamArray};

/// Incrementally builds the block list of a CNN, tracking the activation
/// shape `(channels, height, width)` after each operation.
///
/// FLOP conventions (per sample, multiply + add = 2 FLOPs):
/// * convolution: `2 · k_h·k_w·C_in · H_out·W_out · C_out`
/// * dense: `2 · in · out`
/// * batch-norm: `4 · C·H·W`
///
/// # Examples
///
/// ```
/// use p3_models::ConvStack;
///
/// let mut net = ConvStack::new(3, 32, 32);
/// net.conv("c1", 16, 3, 1, 1, true);
/// net.max_pool(2, 2);
/// net.flatten();
/// net.dense("fc", 10, true);
/// let blocks = net.finish();
/// assert_eq!(blocks.len(), 2); // pooling is stateless and not emitted
/// ```
#[derive(Debug, Clone)]
pub struct ConvStack {
    blocks: Vec<ComputeBlock>,
    c: u64,
    h: u64,
    w: u64,
    flattened: Option<u64>,
}

impl ConvStack {
    /// Starts a network whose input activations are `c × h × w`.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(c: u64, h: u64, w: u64) -> Self {
        assert!(
            c > 0 && h > 0 && w > 0,
            "degenerate input shape {c}x{h}x{w}"
        );
        ConvStack {
            blocks: Vec::new(),
            c,
            h,
            w,
            flattened: None,
        }
    }

    /// Current activation shape `(channels, height, width)`.
    pub fn shape(&self) -> (u64, u64, u64) {
        (self.c, self.h, self.w)
    }

    /// Adds a `k×k` convolution with `out_c` output channels, given stride
    /// and symmetric padding. Emits one compute block with a weight array
    /// and, if `bias`, a bias array.
    pub fn conv(&mut self, name: &str, out_c: u64, k: u64, stride: u64, pad: u64, bias: bool) {
        self.conv2d(name, out_c, k, k, stride, pad, pad, bias);
    }

    /// Adds a possibly-asymmetric convolution (`kh×kw`, pads `(ph, pw)`),
    /// as used by InceptionV3's 1×7 / 7×1 factorized convolutions.
    ///
    /// # Panics
    ///
    /// Panics if the kernel does not fit the current activation.
    #[allow(clippy::too_many_arguments)]
    pub fn conv2d(
        &mut self,
        name: &str,
        out_c: u64,
        kh: u64,
        kw: u64,
        stride: u64,
        ph: u64,
        pw: u64,
        bias: bool,
    ) {
        assert!(self.flattened.is_none(), "cannot convolve after flatten()");
        assert!(stride > 0, "zero stride in {name}");
        let h_in = self.h + 2 * ph;
        let w_in = self.w + 2 * pw;
        assert!(
            h_in >= kh && w_in >= kw,
            "kernel {kh}x{kw} does not fit {name}"
        );
        let h_out = (h_in - kh) / stride + 1;
        let w_out = (w_in - kw) / stride + 1;
        let weight = kh * kw * self.c * out_c;
        let flops = 2 * kh * kw * self.c * h_out * w_out * out_c;
        let mut arrays = vec![ParamArray::new(format!("{name}.weight"), weight)];
        if bias {
            arrays.push(ParamArray::new(format!("{name}.bias"), out_c));
        }
        self.blocks
            .push(ComputeBlock::new(name, BlockKind::Conv, flops, arrays));
        self.c = out_c;
        self.h = h_out;
        self.w = w_out;
    }

    /// Adds a batch-norm block over the current channels (two arrays:
    /// gamma and beta; running statistics are not synchronized).
    pub fn batch_norm(&mut self, name: &str) {
        assert!(
            self.flattened.is_none(),
            "cannot batch-norm after flatten()"
        );
        let flops = 4 * self.c * self.h * self.w;
        let arrays = vec![
            ParamArray::new(format!("{name}.gamma"), self.c),
            ParamArray::new(format!("{name}.beta"), self.c),
        ];
        self.blocks
            .push(ComputeBlock::new(name, BlockKind::BatchNorm, flops, arrays));
    }

    /// Applies max/avg pooling: spatial reduction only, no block emitted
    /// (pooling owns no parameters and its FLOPs are negligible).
    pub fn max_pool(&mut self, k: u64, stride: u64) {
        assert!(self.flattened.is_none(), "cannot pool after flatten()");
        assert!(stride > 0 && k > 0, "degenerate pooling");
        assert!(
            self.h >= k && self.w >= k,
            "pool {k} does not fit {}x{}",
            self.h,
            self.w
        );
        self.h = (self.h - k) / stride + 1;
        self.w = (self.w - k) / stride + 1;
    }

    /// Global average pooling: collapses spatial dims to 1×1.
    pub fn global_avg_pool(&mut self) {
        self.h = 1;
        self.w = 1;
    }

    /// Flattens activations ahead of dense layers.
    pub fn flatten(&mut self) {
        if self.flattened.is_none() {
            self.flattened = Some(self.c * self.h * self.w);
        }
    }

    /// Adds a dense (fully-connected) layer. Requires [`ConvStack::flatten`]
    /// first (or a previous dense layer).
    #[expect(
        clippy::expect_used,
        reason = "dense() after flatten() is the documented builder contract"
    )]
    pub fn dense(&mut self, name: &str, out: u64, bias: bool) {
        let input = self.flattened.expect("dense() requires flatten() first");
        let weight = input * out;
        let flops = 2 * input * out;
        let mut arrays = vec![ParamArray::new(format!("{name}.weight"), weight)];
        if bias {
            arrays.push(ParamArray::new(format!("{name}.bias"), out));
        }
        self.blocks
            .push(ComputeBlock::new(name, BlockKind::Dense, flops, arrays));
        self.flattened = Some(out);
    }

    /// Number of blocks emitted so far.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// True when no blocks have been emitted yet.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Overrides the tracked spatial dimensions, for adopting the output
    /// shape of parallel branches after a concatenation.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn force_shape(&mut self, h: u64, w: u64) {
        assert!(h > 0 && w > 0, "degenerate spatial shape {h}x{w}");
        self.h = h;
        self.w = w;
    }

    /// Overrides the tracked channel count, for joining parallel branches
    /// (e.g. Inception modules build each branch on a clone and then
    /// concatenate).
    pub fn set_channels(&mut self, c: u64) {
        assert!(c > 0, "degenerate channel count");
        self.c = c;
    }

    /// Appends blocks built elsewhere (e.g. a parallel branch).
    pub fn append(&mut self, blocks: Vec<ComputeBlock>) {
        self.blocks.extend(blocks);
    }

    /// Consumes the builder, returning the block list in forward order.
    pub fn finish(self) -> Vec<ComputeBlock> {
        self.blocks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv_shapes_and_flops() {
        let mut s = ConvStack::new(3, 224, 224);
        s.conv("conv1", 64, 7, 2, 3, false);
        assert_eq!(s.shape(), (64, 112, 112));
        let b = &s.finish()[0];
        assert_eq!(b.params(), 7 * 7 * 3 * 64);
        assert_eq!(b.fwd_flops, 2 * 7 * 7 * 3 * 112 * 112 * 64);
    }

    #[test]
    fn bias_adds_an_array() {
        let mut s = ConvStack::new(3, 8, 8);
        s.conv("c", 4, 3, 1, 1, true);
        let b = &s.finish()[0];
        assert_eq!(b.arrays.len(), 2);
        assert_eq!(b.arrays[1].params, 4);
    }

    #[test]
    fn pooling_halves_spatial() {
        let mut s = ConvStack::new(64, 112, 112);
        s.max_pool(3, 2);
        assert_eq!(s.shape(), (64, 55, 55));
        s.global_avg_pool();
        assert_eq!(s.shape(), (64, 1, 1));
    }

    #[test]
    fn dense_after_flatten() {
        let mut s = ConvStack::new(512, 7, 7);
        s.flatten();
        s.dense("fc6", 4096, true);
        s.dense("fc7", 4096, true);
        let blocks = s.finish();
        assert_eq!(blocks[0].arrays[0].params, 25088 * 4096);
        assert_eq!(blocks[1].arrays[0].params, 4096 * 4096);
    }

    #[test]
    #[should_panic(expected = "requires flatten")]
    fn dense_without_flatten_panics() {
        let mut s = ConvStack::new(3, 8, 8);
        s.dense("fc", 10, true);
    }

    #[test]
    fn asymmetric_conv_keeps_shape() {
        let mut s = ConvStack::new(192, 17, 17);
        s.conv2d("c17", 192, 1, 7, 1, 0, 3, false);
        assert_eq!(s.shape(), (192, 17, 17));
        s.conv2d("c71", 192, 7, 1, 1, 3, 0, false);
        assert_eq!(s.shape(), (192, 17, 17));
    }

    #[test]
    fn batch_norm_emits_two_arrays() {
        let mut s = ConvStack::new(64, 10, 10);
        s.batch_norm("bn");
        let b = &s.finish()[0];
        assert_eq!(b.arrays.len(), 2);
        assert_eq!(b.params(), 128);
        assert_eq!(b.kind, BlockKind::BatchNorm);
    }
}
