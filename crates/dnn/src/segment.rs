//! Compression of a full [`LayerGraph`] into a *segment graph* of
//! weight-bearing layers.
//!
//! The paper maps "neural layers" onto chiplets; parameter-free operators
//! (BN, ReLU, pooling, joins) execute in the peripheral logic of the PIM
//! chiplet that holds the preceding weighted layer. A segment therefore
//! aggregates one conv/fc layer with its trailing parameter-free ops, and
//! segment edges carry the activation volumes that must cross chiplets.

use serde::Serialize;

use crate::graph::{EdgeKind, LayerGraph};
use crate::layer::LayerId;

/// Identifier of a segment inside a [`SegmentGraph`].
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Serialize)]
pub struct SegmentId(pub u32);

impl SegmentId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One mappable unit: a weighted layer plus its trailing parameter-free
/// operators.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct Segment {
    /// Dense id in topological order.
    pub id: SegmentId,
    /// Name of the anchoring weighted layer (or `"input"`).
    pub name: String,
    /// Trainable parameters stored on the PIM chiplet(s) for this segment.
    pub params: u64,
    /// MAC operations per inference.
    pub macs: u64,
    /// Activation elements this segment emits per inference (the output of
    /// its last fused operator).
    pub out_activations: u64,
    /// Rows of the anchoring weight matrix as unrolled for a crossbar
    /// (conv: `in_c * k^2`; fc: `in_f`; 0 for the input pseudo-segment).
    pub weight_rows: u32,
    /// Columns of the anchoring weight matrix (output channels/features).
    pub weight_cols: u32,
    /// Ids of the fused full-graph layers.
    pub members: Vec<LayerId>,
}

/// A directed inter-segment activation transfer.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Serialize)]
pub struct SegmentEdge {
    /// Producer segment.
    pub src: SegmentId,
    /// Consumer segment.
    pub dst: SegmentId,
    /// Elements transferred per inference.
    pub volume: u64,
    /// Edge class inherited from the underlying layer edge.
    pub kind: EdgeKind,
}

/// The compressed dataflow graph consumed by the chiplet mapper.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct SegmentGraph {
    name: String,
    segments: Vec<Segment>,
    edges: Vec<SegmentEdge>,
}

impl SegmentGraph {
    /// Model name this graph was compressed from.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Segments in topological order. The first segment is the input
    /// pseudo-segment (zero parameters).
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Number of segments.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Inter-segment edges (deduplicated, volumes summed).
    pub fn edges(&self) -> &[SegmentEdge] {
        &self.edges
    }

    /// The segment with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn segment(&self, id: SegmentId) -> &Segment {
        &self.segments[id.index()]
    }

    /// Total parameters across all segments.
    pub fn total_params(&self) -> u64 {
        self.segments.iter().map(|s| s.params).sum()
    }

    /// Total inter-segment traffic per inference, in elements.
    pub fn total_traffic(&self) -> u64 {
        self.edges.iter().map(|e| e.volume).sum()
    }

    /// Compresses a full layer graph.
    ///
    /// Every weighted layer anchors a new segment; every parameter-free
    /// layer joins the segment of its primary (first-listed) producer. The
    /// input layer anchors segment 0 so that networks always have a
    /// traffic source.
    pub fn from_layer_graph(g: &LayerGraph) -> SegmentGraph {
        let n = g.layer_count();
        // owner[layer] = segment index.
        let mut owner: Vec<u32> = vec![u32::MAX; n];
        let mut segments: Vec<Segment> = Vec::new();

        // Primary producer of each layer (first incoming edge).
        let mut primary: Vec<Option<LayerId>> = vec![None; n];
        for e in g.edges() {
            let d = e.dst.index();
            if primary[d].is_none() || e.kind == EdgeKind::Sequential {
                // Prefer the sequential (main-path) input as primary.
                if primary[d].is_none() {
                    primary[d] = Some(e.src);
                }
            }
        }

        for layer in g.layers() {
            let li = layer.id.index();
            let anchors = layer.kind.is_weighted() || primary[li].is_none();
            if anchors {
                let sid =
                    SegmentId(u32::try_from(segments.len()).expect("segment count fits a u32 id"));
                owner[li] = sid.0;
                let (weight_rows, weight_cols) = match layer.kind {
                    crate::layer::LayerKind::Conv2d {
                        in_c,
                        out_c,
                        kernel,
                        ..
                    } => (in_c * kernel * kernel, out_c),
                    crate::layer::LayerKind::Linear { in_f, out_f, .. } => (in_f, out_f),
                    _ => (0, 0),
                };
                segments.push(Segment {
                    id: sid,
                    name: layer.name.clone(),
                    params: layer.params(),
                    macs: layer.macs(),
                    out_activations: layer.output_activations(),
                    weight_rows,
                    weight_cols,
                    members: vec![layer.id],
                });
            } else {
                let p = primary[li].expect("non-anchor layer has a producer");
                let sid = owner[p.index()];
                debug_assert_ne!(sid, u32::MAX, "producers precede consumers");
                owner[li] = sid;
                let seg = &mut segments[sid as usize];
                seg.params += layer.params();
                seg.macs += layer.macs();
                // The segment's emission is the output of its last member.
                seg.out_activations = layer.output_activations();
                seg.members.push(layer.id);
            }
        }

        // Cross-segment edges, deduplicated by (src, dst) with volumes
        // accumulated; the edge kind keeps the "most interesting" class
        // (skip/dense win over sequential).
        let mut edge_map: std::collections::BTreeMap<(u32, u32), (u64, EdgeKind)> =
            std::collections::BTreeMap::new();
        for e in g.edges() {
            let so = owner[e.src.index()];
            let d_o = owner[e.dst.index()];
            if so == d_o {
                continue;
            }
            let vol = g.edge_volume(e);
            let entry = edge_map.entry((so, d_o)).or_insert((0, e.kind));
            entry.0 += vol;
            if e.kind != EdgeKind::Sequential {
                entry.1 = e.kind;
            }
        }
        let edges = edge_map
            .into_iter()
            .map(|((s, d), (volume, kind))| SegmentEdge {
                src: SegmentId(s),
                dst: SegmentId(d),
                volume,
                kind,
            })
            .collect();

        SegmentGraph {
            name: g.name().to_string(),
            segments,
            edges,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{resnet18, resnet34, vgg11};
    use crate::shapes::Dataset;

    #[test]
    fn vgg_segments_form_a_chain() {
        let g = vgg11(Dataset::Cifar10).unwrap();
        let sg = SegmentGraph::from_layer_graph(&g);
        // input + 8 convs + 1 fc = 10 segments.
        assert_eq!(sg.segment_count(), 10);
        // A pure chain: segment i feeds segment i+1 only.
        for e in sg.edges() {
            assert_eq!(e.dst.0, e.src.0 + 1, "VGG must compress to a chain");
            assert_eq!(e.kind, EdgeKind::Sequential);
        }
        assert_eq!(sg.edges().len(), 9);
    }

    #[test]
    fn segment_params_are_preserved() {
        for g in [
            vgg11(Dataset::Cifar10).unwrap(),
            resnet18(Dataset::ImageNet).unwrap(),
        ] {
            let sg = SegmentGraph::from_layer_graph(&g);
            assert_eq!(sg.total_params(), g.total_params(), "{}", g.name());
        }
    }

    #[test]
    fn resnet_segments_have_skip_edges() {
        let g = resnet18(Dataset::ImageNet).unwrap();
        let sg = SegmentGraph::from_layer_graph(&g);
        let skips = sg
            .edges()
            .iter()
            .filter(|e| e.kind == EdgeKind::Skip)
            .count();
        assert!(skips >= 4, "resnet18 segment graph keeps skip edges");
    }

    #[test]
    fn resnet_segment_count_matches_weighted_layers() {
        let g = resnet34(Dataset::ImageNet).unwrap();
        let sg = SegmentGraph::from_layer_graph(&g);
        // input + weighted layers.
        assert_eq!(sg.segment_count(), 1 + g.weighted_layer_count());
    }

    #[test]
    fn members_partition_the_layer_set() {
        let g = resnet18(Dataset::ImageNet).unwrap();
        let sg = SegmentGraph::from_layer_graph(&g);
        let mut seen = vec![false; g.layer_count()];
        for s in sg.segments() {
            for m in &s.members {
                assert!(!seen[m.index()], "layer fused twice");
                seen[m.index()] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn weight_dims_multiply_to_params() {
        let g = vgg11(Dataset::Cifar10).unwrap();
        let sg = SegmentGraph::from_layer_graph(&g);
        for s in sg.segments().iter().skip(1) {
            let matrix = s.weight_rows as u64 * s.weight_cols as u64;
            // Conv weights have no bias here; fc adds out_f bias terms and
            // fused BN adds 2c, so matrix <= params < matrix + 3*cols.
            assert!(matrix <= s.params, "{}: {} > {}", s.name, matrix, s.params);
            assert!(s.params < matrix + 3 * s.weight_cols as u64 + 1);
        }
    }

    #[test]
    fn traffic_is_positive_and_bounded() {
        let g = resnet18(Dataset::ImageNet).unwrap();
        let sg = SegmentGraph::from_layer_graph(&g);
        let traffic = sg.total_traffic();
        assert!(traffic > 0);
        // Inter-segment traffic cannot exceed total edge volume.
        let full: u64 = g.edges().iter().map(|e| g.edge_volume(e)).sum();
        assert!(traffic <= full);
    }
}
