//! Individual DNN layer kinds with parameter / MAC / activation accounting.

use std::fmt;

use serde::Serialize;

use crate::shapes::TensorShape;

/// Identifier of a layer inside a [`crate::LayerGraph`]. Dense: ranges over
/// `0..graph.layer_count()` in topological order.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct LayerId(pub u32);

impl LayerId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for LayerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

impl fmt::Display for LayerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

/// The operator a layer performs.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Serialize)]
#[non_exhaustive]
pub enum LayerKind {
    /// 2D convolution.
    Conv2d {
        /// Input channels.
        in_c: u32,
        /// Output channels.
        out_c: u32,
        /// Square kernel size.
        kernel: u32,
        /// Stride.
        stride: u32,
        /// Zero padding.
        padding: u32,
        /// Whether a bias vector is present.
        bias: bool,
    },
    /// Fully-connected layer.
    Linear {
        /// Input features.
        in_f: u32,
        /// Output features.
        out_f: u32,
        /// Whether a bias vector is present.
        bias: bool,
    },
    /// Max pooling.
    MaxPool {
        /// Square window.
        kernel: u32,
        /// Stride.
        stride: u32,
        /// Zero padding.
        padding: u32,
    },
    /// Average pooling.
    AvgPool {
        /// Square window.
        kernel: u32,
        /// Stride.
        stride: u32,
        /// Zero padding.
        padding: u32,
    },
    /// Global average pooling down to 1x1.
    GlobalAvgPool,
    /// Batch normalization (folded into inference as scale+shift).
    BatchNorm {
        /// Normalized channels.
        channels: u32,
    },
    /// Elementwise activation (ReLU family); parameter-free.
    Activation,
    /// Elementwise addition of two branches (residual join).
    Add,
    /// Channel-wise concatenation of two or more branches (dense join).
    Concat,
    /// Input pseudo-layer.
    Input,
}

impl LayerKind {
    /// Short operator mnemonic.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            LayerKind::Conv2d { .. } => "conv",
            LayerKind::Linear { .. } => "fc",
            LayerKind::MaxPool { .. } => "maxpool",
            LayerKind::AvgPool { .. } => "avgpool",
            LayerKind::GlobalAvgPool => "gap",
            LayerKind::BatchNorm { .. } => "bn",
            LayerKind::Activation => "act",
            LayerKind::Add => "add",
            LayerKind::Concat => "concat",
            LayerKind::Input => "input",
        }
    }

    /// Whether this layer holds trainable weights that occupy PIM crossbar
    /// storage (convolutions and fully-connected layers).
    pub fn is_weighted(&self) -> bool {
        matches!(self, LayerKind::Conv2d { .. } | LayerKind::Linear { .. })
    }
}

/// One layer instance: operator, name and inferred output shape.
#[derive(Clone, PartialEq, Eq, Debug, Serialize)]
pub struct Layer {
    /// Dense id (topological order).
    pub id: LayerId,
    /// Human-readable name, e.g. `"layer2.0.conv1"`.
    pub name: String,
    /// Operator.
    pub kind: LayerKind,
    /// Output feature-map shape.
    pub out_shape: TensorShape,
}

impl Layer {
    /// Number of trainable parameters (weights + biases; BatchNorm counts
    /// its affine scale/shift pair, matching `torchvision` conventions).
    pub fn params(&self) -> u64 {
        match self.kind {
            LayerKind::Conv2d {
                in_c,
                out_c,
                kernel,
                bias,
                ..
            } => {
                let w = out_c as u64 * in_c as u64 * (kernel as u64).pow(2);
                w + if bias { out_c as u64 } else { 0 }
            }
            LayerKind::Linear { in_f, out_f, bias } => {
                in_f as u64 * out_f as u64 + if bias { out_f as u64 } else { 0 }
            }
            LayerKind::BatchNorm { channels } => 2 * channels as u64,
            _ => 0,
        }
    }

    /// Multiply-accumulate operations for one inference pass.
    pub fn macs(&self) -> u64 {
        match self.kind {
            LayerKind::Conv2d {
                in_c,
                out_c,
                kernel,
                ..
            } => {
                let spatial = self.out_shape.h as u64 * self.out_shape.w as u64;
                debug_assert_eq!(self.out_shape.c, out_c);
                spatial * out_c as u64 * in_c as u64 * (kernel as u64).pow(2)
            }
            LayerKind::Linear { in_f, out_f, .. } => in_f as u64 * out_f as u64,
            _ => 0,
        }
    }

    /// Elements produced by one inference pass.
    pub fn output_activations(&self) -> u64 {
        self.out_shape.numel()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conv(in_c: u32, out_c: u32, kernel: u32, out: TensorShape) -> Layer {
        Layer {
            id: LayerId(0),
            name: "t".into(),
            kind: LayerKind::Conv2d {
                in_c,
                out_c,
                kernel,
                stride: 1,
                padding: kernel / 2,
                bias: false,
            },
            out_shape: out,
        }
    }

    #[test]
    fn conv_params() {
        // 64 -> 64 3x3: 36864 weights.
        let l = conv(64, 64, 3, TensorShape::new(64, 56, 56));
        assert_eq!(l.params(), 36_864);
    }

    #[test]
    fn conv_macs() {
        let l = conv(64, 64, 3, TensorShape::new(64, 56, 56));
        assert_eq!(l.macs(), 36_864 * 56 * 56);
    }

    #[test]
    fn linear_params_with_bias() {
        let l = Layer {
            id: LayerId(0),
            name: "fc".into(),
            kind: LayerKind::Linear {
                in_f: 512,
                out_f: 1000,
                bias: true,
            },
            out_shape: TensorShape::features(1000),
        };
        assert_eq!(l.params(), 512 * 1000 + 1000);
        assert_eq!(l.macs(), 512 * 1000);
    }

    #[test]
    fn parameter_free_layers() {
        let l = Layer {
            id: LayerId(0),
            name: "relu".into(),
            kind: LayerKind::Activation,
            out_shape: TensorShape::new(64, 8, 8),
        };
        assert_eq!(l.params(), 0);
        assert_eq!(l.macs(), 0);
        assert_eq!(l.output_activations(), 64 * 64);
    }

    #[test]
    fn batchnorm_counts_affine_pair() {
        let l = Layer {
            id: LayerId(0),
            name: "bn".into(),
            kind: LayerKind::BatchNorm { channels: 64 },
            out_shape: TensorShape::new(64, 8, 8),
        };
        assert_eq!(l.params(), 128);
    }

    #[test]
    fn weighted_classification() {
        assert!(LayerKind::Conv2d {
            in_c: 1,
            out_c: 1,
            kernel: 1,
            stride: 1,
            padding: 0,
            bias: false
        }
        .is_weighted());
        assert!(!LayerKind::Add.is_weighted());
        assert!(!LayerKind::BatchNorm { channels: 4 }.is_weighted());
    }
}
