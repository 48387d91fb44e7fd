//! The Table I model zoo: thirteen DNN inference workloads `M1..M13` with
//! their datasets and the parameter counts printed in the paper.

use std::fmt;

use serde::Serialize;

use crate::graph::{GraphError, LayerGraph};
use crate::models;
use crate::shapes::Dataset;

/// Model architecture selector for [`build_model`].
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Serialize)]
#[non_exhaustive]
pub enum ModelKind {
    /// ResNet-18.
    ResNet18,
    /// ResNet-34.
    ResNet34,
    /// ResNet-50.
    ResNet50,
    /// ResNet-101.
    ResNet101,
    /// ResNet-20 (CIFAR 6n+2; ablations only, not in Table I).
    ResNet20,
    /// ResNet-56 (CIFAR 6n+2; ablations only, not in Table I).
    ResNet56,
    /// ResNet-110 (CIFAR 6n+2 micro-architecture).
    ResNet110,
    /// ResNet-152.
    ResNet152,
    /// VGG-11.
    Vgg11,
    /// VGG-19.
    Vgg19,
    /// DenseNet-169.
    DenseNet169,
    /// DenseNet-121 (ablations only; not in Table I).
    DenseNet121,
    /// GoogLeNet.
    GoogLeNet,
}

impl fmt::Display for ModelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ModelKind::ResNet18 => "ResNet18",
            ModelKind::ResNet34 => "ResNet34",
            ModelKind::ResNet50 => "ResNet50",
            ModelKind::ResNet101 => "ResNet101",
            ModelKind::ResNet20 => "ResNet20",
            ModelKind::ResNet56 => "ResNet56",
            ModelKind::ResNet110 => "ResNet110",
            ModelKind::ResNet152 => "ResNet152",
            ModelKind::Vgg11 => "VGG11",
            ModelKind::Vgg19 => "VGG19",
            ModelKind::DenseNet169 => "DenseNet169",
            ModelKind::DenseNet121 => "DenseNet121",
            ModelKind::GoogLeNet => "GoogLeNet",
        };
        f.write_str(s)
    }
}

/// Builds the layer graph for a model/dataset pair.
///
/// # Errors
///
/// Propagates [`GraphError`] from the constructors (cannot occur for the
/// shipped configurations; the error channel exists for custom variants).
///
/// # Examples
///
/// ```
/// use dnn::{build_model, Dataset, ModelKind};
///
/// let net = build_model(ModelKind::ResNet50, Dataset::ImageNet)?;
/// assert!((net.total_params() as f64 / 1e6 - 25.56).abs() < 0.1);
/// # Ok::<(), dnn::GraphError>(())
/// ```
pub fn build_model(kind: ModelKind, dataset: Dataset) -> Result<LayerGraph, GraphError> {
    match kind {
        ModelKind::ResNet18 => models::resnet18(dataset),
        ModelKind::ResNet34 => models::resnet34(dataset),
        ModelKind::ResNet50 => models::resnet50(dataset),
        ModelKind::ResNet101 => models::resnet101(dataset),
        ModelKind::ResNet20 => models::resnet20(dataset),
        ModelKind::ResNet56 => models::resnet56(dataset),
        ModelKind::ResNet110 => models::resnet110(dataset),
        ModelKind::ResNet152 => models::resnet152(dataset),
        ModelKind::Vgg11 => models::vgg11(dataset),
        ModelKind::Vgg19 => models::vgg19(dataset),
        ModelKind::DenseNet169 => models::densenet169(dataset),
        ModelKind::DenseNet121 => models::densenet121(dataset),
        ModelKind::GoogLeNet => models::googlenet(dataset),
    }
}

/// One row of Table I.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct Table1Entry {
    /// Workload id, `"M1"` .. `"M13"`.
    pub id: &'static str,
    /// Architecture.
    pub kind: ModelKind,
    /// Dataset.
    pub dataset: Dataset,
    /// Parameter count in millions as printed in the paper (several rows
    /// are inconsistent with the literature; see EXPERIMENTS.md).
    pub paper_params_m: f64,
}

/// The thirteen Table I workloads in order (`M1..M13`).
pub fn table1() -> Vec<Table1Entry> {
    use Dataset::{Cifar10, ImageNet};
    use ModelKind::*;
    vec![
        Table1Entry {
            id: "M1",
            kind: ResNet18,
            dataset: ImageNet,
            paper_params_m: 24.76,
        },
        Table1Entry {
            id: "M2",
            kind: ResNet34,
            dataset: ImageNet,
            paper_params_m: 36.5,
        },
        Table1Entry {
            id: "M3",
            kind: ResNet50,
            dataset: ImageNet,
            paper_params_m: 25.94,
        },
        Table1Entry {
            id: "M4",
            kind: ResNet101,
            dataset: ImageNet,
            paper_params_m: 9.42,
        },
        Table1Entry {
            id: "M5",
            kind: ResNet110,
            dataset: ImageNet,
            paper_params_m: 43.6,
        },
        Table1Entry {
            id: "M6",
            kind: ResNet152,
            dataset: ImageNet,
            paper_params_m: 54.84,
        },
        Table1Entry {
            id: "M7",
            kind: Vgg19,
            dataset: ImageNet,
            paper_params_m: 93.4,
        },
        Table1Entry {
            id: "M8",
            kind: DenseNet169,
            dataset: ImageNet,
            paper_params_m: 54.84,
        },
        Table1Entry {
            id: "M9",
            kind: ResNet18,
            dataset: Cifar10,
            paper_params_m: 11.22,
        },
        Table1Entry {
            id: "M10",
            kind: ResNet34,
            dataset: Cifar10,
            paper_params_m: 21.34,
        },
        Table1Entry {
            id: "M11",
            kind: Vgg11,
            dataset: Cifar10,
            paper_params_m: 9.62,
        },
        Table1Entry {
            id: "M12",
            kind: Vgg19,
            dataset: Cifar10,
            paper_params_m: 20.42,
        },
        Table1Entry {
            id: "M13",
            kind: GoogLeNet,
            dataset: Cifar10,
            paper_params_m: 6.16,
        },
    ]
}

/// Looks up a Table I entry by workload id (`"M1"`..`"M13"`).
pub fn table1_entry(id: &str) -> Option<Table1Entry> {
    table1().into_iter().find(|e| e.id == id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_has_thirteen_entries() {
        let t = table1();
        assert_eq!(t.len(), 13);
        assert_eq!(t[0].id, "M1");
        assert_eq!(t[12].id, "M13");
    }

    #[test]
    fn all_table1_models_build() {
        for e in table1() {
            let g = build_model(e.kind, e.dataset).unwrap();
            assert!(g.total_params() > 0, "{} has no params", e.id);
            assert!(g.total_macs() > 0, "{} has no macs", e.id);
        }
    }

    #[test]
    fn table1_lookup() {
        let e = table1_entry("M7").unwrap();
        assert_eq!(e.kind, ModelKind::Vgg19);
        assert_eq!(e.dataset, Dataset::ImageNet);
        assert!(table1_entry("M99").is_none());
    }

    #[test]
    fn cifar_rows_match_paper_within_5_percent() {
        // The CIFAR-10 rows of Table I are consistent with the standard
        // implementations; check our computed counts track them.
        for id in ["M9", "M10", "M11", "M12", "M13"] {
            let e = table1_entry(id).unwrap();
            let g = build_model(e.kind, e.dataset).unwrap();
            let ours = g.total_params() as f64 / 1e6;
            let rel = (ours - e.paper_params_m).abs() / e.paper_params_m;
            assert!(
                rel < 0.06,
                "{id}: ours {ours}M vs paper {}M ({}%)",
                e.paper_params_m,
                (rel * 100.0).round()
            );
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(ModelKind::ResNet50.to_string(), "ResNet50");
        assert_eq!(ModelKind::GoogLeNet.to_string(), "GoogLeNet");
    }
}
