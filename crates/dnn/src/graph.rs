//! The layer-graph representation: a DAG of layers with typed edges
//! (sequential, skip, dense) and whole-network statistics.

use std::fmt;

use serde::Serialize;

use crate::layer::{Layer, LayerId, LayerKind};
use crate::shapes::{Dataset, TensorShape};

/// How an edge connects two layers; used to split activation traffic into
/// the linear/skip classes discussed in Section II of the paper.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Serialize)]
pub enum EdgeKind {
    /// Main-path edge: data flows from layer `l_i` to `l_(i+1)`.
    Sequential,
    /// Residual shortcut (ResNet identity/projection skip).
    Skip,
    /// Dense connectivity edge (DenseNet concat re-use, inception branches).
    Dense,
}

/// A directed activation edge between two layers.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Serialize)]
pub struct Edge {
    /// Producer layer.
    pub src: LayerId,
    /// Consumer layer.
    pub dst: LayerId,
    /// Edge class.
    pub kind: EdgeKind,
}

/// Error produced while assembling a [`LayerGraph`].
#[derive(Clone, PartialEq, Eq, Debug)]
#[non_exhaustive]
pub enum GraphError {
    /// Referenced layer id does not exist yet.
    UnknownLayer(LayerId),
    /// Two branches that must agree in shape do not.
    ShapeMismatch {
        /// What was being joined.
        context: String,
        /// First shape.
        a: TensorShape,
        /// Second shape.
        b: TensorShape,
    },
    /// Concat called with fewer than two inputs.
    NotEnoughInputs(usize),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::UnknownLayer(l) => write!(f, "unknown layer {l}"),
            GraphError::ShapeMismatch { context, a, b } => {
                write!(f, "shape mismatch in {context}: {a} vs {b}")
            }
            GraphError::NotEnoughInputs(n) => {
                write!(f, "join needs at least two inputs, got {n}")
            }
        }
    }
}

impl std::error::Error for GraphError {}

/// Split of activation traffic volume by edge class, in elements.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default, Serialize)]
pub struct ActivationSplit {
    /// Volume over sequential (main-path) edges.
    pub sequential: u64,
    /// Volume over residual skip edges.
    pub skip: u64,
    /// Volume over dense/branch edges.
    pub dense: u64,
}

impl ActivationSplit {
    /// Total volume across all edge classes.
    pub fn total(&self) -> u64 {
        self.sequential + self.skip + self.dense
    }

    /// Fraction of total volume carried by skip edges.
    pub fn skip_fraction(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.skip as f64 / self.total() as f64
        }
    }
}

/// An immutable DNN layer graph in topological order.
///
/// Build with [`GraphBuilder`]; obtain ready-made networks from
/// [`crate::build_model`].
#[derive(Clone, PartialEq, Debug, Serialize)]
pub struct LayerGraph {
    name: String,
    dataset: Dataset,
    layers: Vec<Layer>,
    edges: Vec<Edge>,
}

impl LayerGraph {
    /// Model name, e.g. `"resnet34"`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Dataset the model is configured for.
    pub fn dataset(&self) -> Dataset {
        self.dataset
    }

    /// All layers in topological order.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Number of layers (including the input pseudo-layer).
    pub fn layer_count(&self) -> usize {
        self.layers.len()
    }

    /// All activation edges.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// The layer with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn layer(&self, id: LayerId) -> &Layer {
        &self.layers[id.index()]
    }

    /// Total trainable parameters.
    pub fn total_params(&self) -> u64 {
        self.layers.iter().map(Layer::params).sum()
    }

    /// Total multiply-accumulate operations per inference.
    pub fn total_macs(&self) -> u64 {
        self.layers.iter().map(Layer::macs).sum()
    }

    /// Total activations produced per inference (input excluded).
    pub fn total_activations(&self) -> u64 {
        self.layers
            .iter()
            .filter(|l| !matches!(l.kind, LayerKind::Input))
            .map(Layer::output_activations)
            .sum()
    }

    /// Number of weight-bearing (conv/fc) layers.
    pub fn weighted_layer_count(&self) -> usize {
        self.layers.iter().filter(|l| l.kind.is_weighted()).count()
    }

    /// Activation elements carried by one edge: the producer's full output.
    pub fn edge_volume(&self, e: &Edge) -> u64 {
        self.layer(e.src).output_activations()
    }

    /// Activation traffic split by edge class (Section II: in ResNet-34 the
    /// skip class carries ~19% of propagated activations, and linear
    /// activations are ~4.5x the skip activations).
    ///
    /// BatchNorm is folded into its producing layer at inference time
    /// (standard PIM practice), so edges *into* a BatchNorm do not count as
    /// propagated activations — only the BatchNorm's outgoing edge does.
    pub fn activation_split(&self) -> ActivationSplit {
        let mut split = ActivationSplit::default();
        for e in &self.edges {
            if matches!(self.layer(e.dst).kind, LayerKind::BatchNorm { .. }) {
                continue;
            }
            let v = self.edge_volume(e);
            match e.kind {
                EdgeKind::Sequential => split.sequential += v,
                EdgeKind::Skip => split.skip += v,
                EdgeKind::Dense => split.dense += v,
            }
        }
        split
    }
}

/// Incremental builder for [`LayerGraph`] with shape inference and
/// validation.
///
/// # Examples
///
/// ```
/// use dnn::{Dataset, GraphBuilder};
///
/// let mut g = GraphBuilder::new("toy", Dataset::Cifar10);
/// let x = g.input();
/// let c = g.conv(x, "conv1", 16, 3, 1, 1, false)?;
/// let b = g.batchnorm(c, "bn1")?;
/// let r = g.relu(b, "relu1")?;
/// let p = g.global_avg_pool(r, "gap")?;
/// let f = g.linear(p, "fc", 10, true)?;
/// let net = g.build();
/// assert_eq!(net.layer(f).out_shape.c, 10);
/// assert!(net.total_params() > 0);
/// # Ok::<(), dnn::GraphError>(())
/// ```
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    name: String,
    dataset: Dataset,
    layers: Vec<Layer>,
    edges: Vec<Edge>,
}

impl GraphBuilder {
    /// Starts a new graph whose input layer matches the dataset shape.
    pub fn new(name: impl Into<String>, dataset: Dataset) -> Self {
        let input = Layer {
            id: LayerId(0),
            name: "input".into(),
            kind: LayerKind::Input,
            out_shape: dataset.input_shape(),
        };
        GraphBuilder {
            name: name.into(),
            dataset,
            layers: vec![input],
            edges: Vec::new(),
        }
    }

    /// The input pseudo-layer id.
    pub fn input(&self) -> LayerId {
        LayerId(0)
    }

    fn shape_of(&self, id: LayerId) -> Result<TensorShape, GraphError> {
        self.layers
            .get(id.index())
            .map(|l| l.out_shape)
            .ok_or(GraphError::UnknownLayer(id))
    }

    fn push(
        &mut self,
        from: &[(LayerId, EdgeKind)],
        name: impl Into<String>,
        kind: LayerKind,
        out_shape: TensorShape,
    ) -> LayerId {
        let id = LayerId(u32::try_from(self.layers.len()).expect("layer count fits a u32 id"));
        self.layers.push(Layer {
            id,
            name: name.into(),
            kind,
            out_shape,
        });
        for &(src, ek) in from {
            self.edges.push(Edge {
                src,
                dst: id,
                kind: ek,
            });
        }
        id
    }

    /// Appends a 2D convolution reading from `from`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::UnknownLayer`] if `from` does not exist.
    #[allow(clippy::too_many_arguments)]
    pub fn conv(
        &mut self,
        from: LayerId,
        name: &str,
        out_c: u32,
        kernel: u32,
        stride: u32,
        padding: u32,
        bias: bool,
    ) -> Result<LayerId, GraphError> {
        let in_shape = self.shape_of(from)?;
        let (oh, ow) = in_shape.conv_out(kernel, stride, padding);
        Ok(self.push(
            &[(from, EdgeKind::Sequential)],
            name,
            LayerKind::Conv2d {
                in_c: in_shape.c,
                out_c,
                kernel,
                stride,
                padding,
                bias,
            },
            TensorShape::new(out_c, oh, ow),
        ))
    }

    /// Appends a fully-connected layer; the input is flattened.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::UnknownLayer`] if `from` does not exist.
    pub fn linear(
        &mut self,
        from: LayerId,
        name: &str,
        out_f: u32,
        bias: bool,
    ) -> Result<LayerId, GraphError> {
        let in_shape = self.shape_of(from)?;
        let in_f = u32::try_from(in_shape.numel()).expect("feature count fits a u32");
        Ok(self.push(
            &[(from, EdgeKind::Sequential)],
            name,
            LayerKind::Linear { in_f, out_f, bias },
            TensorShape::features(out_f),
        ))
    }

    /// Appends a max-pooling layer.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::UnknownLayer`] if `from` does not exist.
    pub fn max_pool(
        &mut self,
        from: LayerId,
        name: &str,
        kernel: u32,
        stride: u32,
        padding: u32,
    ) -> Result<LayerId, GraphError> {
        let s = self.shape_of(from)?;
        let (oh, ow) = s.conv_out(kernel, stride, padding);
        Ok(self.push(
            &[(from, EdgeKind::Sequential)],
            name,
            LayerKind::MaxPool {
                kernel,
                stride,
                padding,
            },
            TensorShape::new(s.c, oh, ow),
        ))
    }

    /// Appends an average-pooling layer.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::UnknownLayer`] if `from` does not exist.
    pub fn avg_pool(
        &mut self,
        from: LayerId,
        name: &str,
        kernel: u32,
        stride: u32,
        padding: u32,
    ) -> Result<LayerId, GraphError> {
        let s = self.shape_of(from)?;
        let (oh, ow) = s.conv_out(kernel, stride, padding);
        Ok(self.push(
            &[(from, EdgeKind::Sequential)],
            name,
            LayerKind::AvgPool {
                kernel,
                stride,
                padding,
            },
            TensorShape::new(s.c, oh, ow),
        ))
    }

    /// Appends a global average pooling layer (output 1x1 spatial).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::UnknownLayer`] if `from` does not exist.
    pub fn global_avg_pool(&mut self, from: LayerId, name: &str) -> Result<LayerId, GraphError> {
        let s = self.shape_of(from)?;
        Ok(self.push(
            &[(from, EdgeKind::Sequential)],
            name,
            LayerKind::GlobalAvgPool,
            TensorShape::new(s.c, 1, 1),
        ))
    }

    /// Appends a batch-normalization layer.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::UnknownLayer`] if `from` does not exist.
    pub fn batchnorm(&mut self, from: LayerId, name: &str) -> Result<LayerId, GraphError> {
        let s = self.shape_of(from)?;
        Ok(self.push(
            &[(from, EdgeKind::Sequential)],
            name,
            LayerKind::BatchNorm { channels: s.c },
            s,
        ))
    }

    /// Appends an elementwise activation (ReLU).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::UnknownLayer`] if `from` does not exist.
    pub fn relu(&mut self, from: LayerId, name: &str) -> Result<LayerId, GraphError> {
        let s = self.shape_of(from)?;
        Ok(self.push(
            &[(from, EdgeKind::Sequential)],
            name,
            LayerKind::Activation,
            s,
        ))
    }

    /// Joins a main branch and a residual shortcut with elementwise
    /// addition. The edge from `skip` is classed [`EdgeKind::Skip`].
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::ShapeMismatch`] when the branch shapes differ
    /// and [`GraphError::UnknownLayer`] for invalid ids.
    pub fn add(&mut self, main: LayerId, skip: LayerId, name: &str) -> Result<LayerId, GraphError> {
        let sm = self.shape_of(main)?;
        let ss = self.shape_of(skip)?;
        if sm != ss {
            return Err(GraphError::ShapeMismatch {
                context: format!("residual add '{name}'"),
                a: sm,
                b: ss,
            });
        }
        Ok(self.push(
            &[(main, EdgeKind::Sequential), (skip, EdgeKind::Skip)],
            name,
            LayerKind::Add,
            sm,
        ))
    }

    /// Concatenates branches along the channel dimension. The first edge is
    /// classed [`EdgeKind::Sequential`] (main path), the rest
    /// [`EdgeKind::Dense`].
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NotEnoughInputs`] for fewer than two inputs,
    /// [`GraphError::ShapeMismatch`] when spatial dims differ, and
    /// [`GraphError::UnknownLayer`] for invalid ids.
    pub fn concat(&mut self, inputs: &[LayerId], name: &str) -> Result<LayerId, GraphError> {
        if inputs.len() < 2 {
            return Err(GraphError::NotEnoughInputs(inputs.len()));
        }
        let first = self.shape_of(inputs[0])?;
        let mut channels = first.c;
        for &i in &inputs[1..] {
            let s = self.shape_of(i)?;
            if (s.h, s.w) != (first.h, first.w) {
                return Err(GraphError::ShapeMismatch {
                    context: format!("concat '{name}'"),
                    a: first,
                    b: s,
                });
            }
            channels += s.c;
        }
        let from: Vec<(LayerId, EdgeKind)> = inputs
            .iter()
            .enumerate()
            .map(|(i, &src)| {
                (
                    src,
                    if i == 0 {
                        EdgeKind::Sequential
                    } else {
                        EdgeKind::Dense
                    },
                )
            })
            .collect();
        Ok(self.push(
            &from,
            name,
            LayerKind::Concat,
            TensorShape::new(channels, first.h, first.w),
        ))
    }

    /// Convenience: conv → batchnorm → ReLU, returning the ReLU id.
    ///
    /// # Errors
    ///
    /// Propagates the conditions of [`GraphBuilder::conv`].
    #[allow(clippy::too_many_arguments)]
    pub fn conv_bn_relu(
        &mut self,
        from: LayerId,
        name: &str,
        out_c: u32,
        kernel: u32,
        stride: u32,
        padding: u32,
    ) -> Result<LayerId, GraphError> {
        let c = self.conv(
            from,
            &format!("{name}.conv"),
            out_c,
            kernel,
            stride,
            padding,
            false,
        )?;
        let b = self.batchnorm(c, &format!("{name}.bn"))?;
        self.relu(b, &format!("{name}.relu"))
    }

    /// Finalizes the graph.
    pub fn build(self) -> LayerGraph {
        LayerGraph {
            name: self.name,
            dataset: self.dataset,
            layers: self.layers,
            edges: self.edges,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_residual() -> LayerGraph {
        let mut g = GraphBuilder::new("toy-res", Dataset::Cifar10);
        let x = g.input();
        let c1 = g.conv(x, "c1", 16, 3, 1, 1, false).unwrap();
        let r1 = g.relu(c1, "r1").unwrap();
        let c2 = g.conv(r1, "c2", 16, 3, 1, 1, false).unwrap();
        let a = g.add(c2, r1, "add").unwrap();
        let p = g.global_avg_pool(a, "gap").unwrap();
        g.linear(p, "fc", 10, true).unwrap();
        g.build()
    }

    #[test]
    fn residual_shapes_and_edges() {
        let net = toy_residual();
        assert_eq!(net.layer_count(), 7);
        let skips: Vec<&Edge> = net
            .edges()
            .iter()
            .filter(|e| e.kind == EdgeKind::Skip)
            .collect();
        assert_eq!(skips.len(), 1);
        // The skip edge carries the relu output: 16*32*32 elements.
        assert_eq!(net.edge_volume(skips[0]), 16 * 32 * 32);
    }

    #[test]
    fn add_rejects_shape_mismatch() {
        let mut g = GraphBuilder::new("bad", Dataset::Cifar10);
        let x = g.input();
        let c1 = g.conv(x, "c1", 16, 3, 1, 1, false).unwrap();
        let c2 = g.conv(x, "c2", 32, 3, 1, 1, false).unwrap();
        assert!(matches!(
            g.add(c1, c2, "bad-add"),
            Err(GraphError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn concat_sums_channels() {
        let mut g = GraphBuilder::new("cat", Dataset::Cifar10);
        let x = g.input();
        let a = g.conv(x, "a", 8, 3, 1, 1, false).unwrap();
        let b = g.conv(x, "b", 24, 1, 1, 0, false).unwrap();
        let c = g.concat(&[a, b], "cat").unwrap();
        let net = g.build();
        assert_eq!(net.layer(c).out_shape.c, 32);
        let dense = net
            .edges()
            .iter()
            .filter(|e| e.kind == EdgeKind::Dense)
            .count();
        assert_eq!(dense, 1);
    }

    #[test]
    fn concat_rejects_single_input() {
        let mut g = GraphBuilder::new("cat", Dataset::Cifar10);
        let x = g.input();
        assert!(matches!(
            g.concat(&[x], "solo"),
            Err(GraphError::NotEnoughInputs(1))
        ));
    }

    #[test]
    fn concat_rejects_spatial_mismatch() {
        let mut g = GraphBuilder::new("cat", Dataset::Cifar10);
        let x = g.input();
        let a = g.conv(x, "a", 8, 3, 1, 1, false).unwrap();
        let b = g.conv(x, "b", 8, 3, 2, 1, false).unwrap();
        assert!(matches!(
            g.concat(&[a, b], "bad"),
            Err(GraphError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn unknown_layer_rejected() {
        let mut g = GraphBuilder::new("u", Dataset::Cifar10);
        assert!(matches!(
            g.relu(LayerId(42), "r"),
            Err(GraphError::UnknownLayer(LayerId(42)))
        ));
    }

    #[test]
    fn activation_split_accounts_all_edges() {
        let net = toy_residual();
        let split = net.activation_split();
        let manual: u64 = net.edges().iter().map(|e| net.edge_volume(e)).sum();
        assert_eq!(split.total(), manual);
        assert!(split.skip > 0);
        assert!(split.skip_fraction() > 0.0 && split.skip_fraction() < 0.5);
    }

    #[test]
    fn builder_linear_flattens() {
        let mut g = GraphBuilder::new("f", Dataset::Cifar10);
        let x = g.input();
        let p = g.avg_pool(x, "p", 2, 2, 0).unwrap();
        let f = g.linear(p, "fc", 10, true).unwrap();
        let net = g.build();
        // 3 channels * 16 * 16 inputs flattened.
        match net.layer(f).kind {
            LayerKind::Linear { in_f, .. } => assert_eq!(in_f, 3 * 16 * 16),
            _ => panic!("expected linear"),
        }
    }

    #[test]
    fn graph_totals_are_sums() {
        let net = toy_residual();
        let p: u64 = net.layers().iter().map(Layer::params).sum();
        assert_eq!(net.total_params(), p);
        assert!(net.total_macs() > 0);
        assert!(net.total_activations() > 0);
        assert_eq!(net.weighted_layer_count(), 3);
    }
}
