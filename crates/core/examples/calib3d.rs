use pim_core::{default_threads, experiments, ScenarioError, SystemConfig};

fn main() -> Result<(), ScenarioError> {
    let cfg = SystemConfig::stacked_3d();
    let sa = experiments::joint_sa_config();
    let rows = experiments::fig6_rows(&cfg, &sa, default_threads())?;
    for r in &rows {
        println!(
            "{} {} edp_F={:.3e} edp_J={:.3e} pk_F={:.1} pk_J={:.1} dT={:.1} accF={:.3} accJ={:.3} edpJ/F={:.3}",
            r.id, r.model, r.floret.edp_js, r.joint.edp_js,
            r.floret.peak_k, r.joint.peak_k, r.floret.peak_k - r.joint.peak_k,
            r.floret.accuracy_drop, r.joint.accuracy_drop,
            r.joint.edp_js / r.floret.edp_js
        );
    }
    let f7 = experiments::fig7_maps(&cfg, &sa)?;
    println!(
        "fig7: floret_peak={:.1} joint_peak={:.1} dT={:.1} hotspots {} vs {}",
        f7.floret_peak_k,
        f7.joint_peak_k,
        f7.floret_peak_k - f7.joint_peak_k,
        f7.floret_hotspots,
        f7.joint_hotspots
    );
    Ok(())
}
