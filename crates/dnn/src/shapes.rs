//! Tensor shapes and datasets for DNN workload modelling.

use std::fmt;

use serde::Serialize;

/// Dataset a model is configured for; determines input resolution and
/// class count (Table I pairs each model with ImageNet or CIFAR-10).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Serialize)]
pub enum Dataset {
    /// 224x224x3 inputs, 1000 classes.
    ImageNet,
    /// 32x32x3 inputs, 10 classes.
    Cifar10,
}

impl Dataset {
    /// Input feature-map shape for this dataset.
    pub fn input_shape(self) -> TensorShape {
        match self {
            Dataset::ImageNet => TensorShape::new(3, 224, 224),
            Dataset::Cifar10 => TensorShape::new(3, 32, 32),
        }
    }

    /// Number of output classes.
    pub fn classes(self) -> u32 {
        match self {
            Dataset::ImageNet => 1000,
            Dataset::Cifar10 => 10,
        }
    }
}

impl fmt::Display for Dataset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Dataset::ImageNet => f.write_str("ImageNet"),
            Dataset::Cifar10 => f.write_str("CIFAR-10"),
        }
    }
}

/// Shape of a CHW feature map flowing between layers. Fully-connected
/// feature vectors use `h = w = 1`.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Serialize)]
pub struct TensorShape {
    /// Channels (or features for FC layers).
    pub c: u32,
    /// Height.
    pub h: u32,
    /// Width.
    pub w: u32,
}

impl TensorShape {
    /// Creates a CHW shape.
    pub fn new(c: u32, h: u32, w: u32) -> Self {
        TensorShape { c, h, w }
    }

    /// Creates a flat feature-vector shape.
    pub fn features(c: u32) -> Self {
        TensorShape { c, h: 1, w: 1 }
    }

    /// Total element count.
    pub fn numel(self) -> u64 {
        self.c as u64 * self.h as u64 * self.w as u64
    }

    /// Output spatial size of a convolution/pool with the given geometry.
    pub fn conv_out(self, kernel: u32, stride: u32, padding: u32) -> (u32, u32) {
        debug_assert!(stride > 0);
        let out = |dim: u32| (dim + 2 * padding).saturating_sub(kernel) / stride + 1;
        (out(self.h), out(self.w))
    }
}

impl fmt::Display for TensorShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}x{}", self.c, self.h, self.w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numel() {
        assert_eq!(TensorShape::new(3, 224, 224).numel(), 150_528);
        assert_eq!(TensorShape::features(1000).numel(), 1000);
    }

    #[test]
    fn conv_out_standard_cases() {
        // 7x7 stride-2 pad-3 on 224 -> 112 (ResNet stem).
        let s = TensorShape::new(3, 224, 224);
        assert_eq!(s.conv_out(7, 2, 3), (112, 112));
        // 3x3 stride-1 pad-1 preserves size.
        let s = TensorShape::new(64, 56, 56);
        assert_eq!(s.conv_out(3, 1, 1), (56, 56));
        // 3x3 stride-2 pad-1 halves (rounding up).
        assert_eq!(s.conv_out(3, 2, 1), (28, 28));
        // 2x2 stride-2 pooling.
        assert_eq!(s.conv_out(2, 2, 0), (28, 28));
    }

    #[test]
    fn dataset_shapes() {
        assert_eq!(Dataset::ImageNet.input_shape().numel(), 3 * 224 * 224);
        assert_eq!(Dataset::Cifar10.classes(), 10);
    }
}
