//! Temperature-dependent ReRAM inference accuracy model (Section III).
//!
//! ReRAM cells store weights as conductance states. Following Shin, Kang &
//! Kim (ICCAD 2020), the usable conductance window — the gap between the
//! lowest and highest programmable state — shrinks exponentially once the
//! device temperature exceeds ~330 K. A narrower window compresses the
//! level separation, so read noise misclassifies stored levels and the
//! effective weight error grows, degrading DNN top-1 accuracy (the paper
//! reports up to an 11% drop for a performance-only 3D mapping).

use serde::Serialize;

/// Parameters of the conductance-window / accuracy degradation model.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct ThermalNoiseModel {
    /// Temperature above which the window starts collapsing, K.
    pub onset_k: f64,
    /// Exponential window-shrink constant, K.
    pub window_tau_k: f64,
    /// Maximum achievable top-1 accuracy drop, in accuracy points
    /// (0.25 = 25 points), as the window fully collapses.
    pub max_drop: f64,
    /// Shape constant converting window loss into accuracy loss.
    pub drop_tau: f64,
}

impl Default for ThermalNoiseModel {
    fn default() -> Self {
        ThermalNoiseModel {
            onset_k: 330.0,
            window_tau_k: 45.0,
            max_drop: 0.16,
            drop_tau: 0.45,
        }
    }
}

impl ThermalNoiseModel {
    /// Relative conductance window at temperature `t_k` (1.0 below onset,
    /// decaying exponentially above it).
    pub fn conductance_window(&self, t_k: f64) -> f64 {
        if t_k <= self.onset_k {
            1.0
        } else {
            (-(t_k - self.onset_k) / self.window_tau_k).exp()
        }
    }

    /// Effective relative weight-error standard deviation induced by the
    /// window collapse at `t_k` (0 below onset).
    pub fn weight_noise_sigma(&self, t_k: f64) -> f64 {
        1.0 - self.conductance_window(t_k)
    }

    /// Top-1 accuracy drop (in accuracy points, e.g. `0.11` = 11 points)
    /// for a DNN whose hottest crossbars sit at `peak_t_k`.
    ///
    /// The loss grows quadratically in the weight noise near the onset
    /// (DNNs tolerate small perturbations) and saturates at
    /// [`ThermalNoiseModel::max_drop`] as the window collapses.
    pub fn accuracy_drop(&self, peak_t_k: f64) -> f64 {
        let sigma = self.weight_noise_sigma(peak_t_k);
        let x = (sigma / self.drop_tau).powi(2);
        self.max_drop * (1.0 - (-x).exp())
    }

    /// Accuracy that remains from a `baseline` top-1 accuracy at `peak_t_k`.
    pub fn degraded_accuracy(&self, baseline: f64, peak_t_k: f64) -> f64 {
        (baseline - self.accuracy_drop(peak_t_k)).max(0.0)
    }
}

/// Baseline (noise-free) top-1 accuracies used for the Fig. 6(c) workloads,
/// from the standard training recipes.
pub fn baseline_top1(model: dnn::ModelKind, dataset: dnn::Dataset) -> f64 {
    use dnn::Dataset::*;
    use dnn::ModelKind::*;
    match (model, dataset) {
        (ResNet18, ImageNet) => 0.698,
        (ResNet34, ImageNet) => 0.733,
        (ResNet50, ImageNet) => 0.761,
        (ResNet101, ImageNet) => 0.774,
        (ResNet110, ImageNet) => 0.720,
        (ResNet152, ImageNet) => 0.783,
        (Vgg11, ImageNet) => 0.690,
        (Vgg19, ImageNet) => 0.724,
        (DenseNet169, ImageNet) => 0.756,
        (DenseNet121, ImageNet) => 0.744,
        (GoogLeNet, ImageNet) => 0.698,
        (ResNet18, Cifar10) => 0.950,
        (ResNet34, Cifar10) => 0.953,
        (ResNet110, Cifar10) => 0.937,
        (Vgg11, Cifar10) => 0.921,
        (Vgg19, Cifar10) => 0.936,
        (GoogLeNet, Cifar10) => 0.948,
        _ => 0.90,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_is_full_below_onset() {
        let m = ThermalNoiseModel::default();
        assert_eq!(m.conductance_window(300.0), 1.0);
        assert_eq!(m.conductance_window(330.0), 1.0);
        assert_eq!(m.accuracy_drop(320.0), 0.0);
    }

    #[test]
    fn window_shrinks_exponentially() {
        let m = ThermalNoiseModel::default();
        let w1 = m.conductance_window(340.0);
        let w2 = m.conductance_window(350.0);
        let w3 = m.conductance_window(360.0);
        assert!(w1 > w2 && w2 > w3);
        // Exponential: equal ratios for equal steps.
        assert!(((w2 / w1) - (w3 / w2)).abs() < 1e-9);
    }

    #[test]
    fn paper_scale_drop_around_360k() {
        // Fig. 6(c): up to 11 points of degradation for hotspot-heavy
        // mappings (peak temps in the 355-370 K regime).
        let m = ThermalNoiseModel::default();
        let drop = m.accuracy_drop(365.0);
        assert!(
            (0.06..=0.18).contains(&drop),
            "drop at 365K = {drop}, expected ~0.11"
        );
    }

    #[test]
    fn moderate_temps_cost_little() {
        let m = ThermalNoiseModel::default();
        assert!(m.accuracy_drop(338.0) < 0.04);
    }

    #[test]
    fn degraded_accuracy_clamps_at_zero() {
        let m = ThermalNoiseModel {
            max_drop: 2.0,
            ..ThermalNoiseModel::default()
        };
        assert_eq!(m.degraded_accuracy(0.5, 10_000.0), 0.0);
    }

    #[test]
    fn baselines_are_probabilities() {
        for e in dnn::table1() {
            let b = baseline_top1(e.kind, e.dataset);
            assert!((0.5..1.0).contains(&b), "{}", e.id);
        }
    }

    #[test]
    fn drop_monotonic_in_temperature() {
        let m = ThermalNoiseModel::default();
        let mut last = -1.0;
        for t in (300..400).step_by(5) {
            let d = m.accuracy_drop(t as f64);
            assert!(d >= last);
            last = d;
        }
    }
}
