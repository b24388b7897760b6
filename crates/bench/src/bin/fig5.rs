//! Figure 5 — Q-M-PX trained on the three data-scaling routes.
//!
//! Regenerates: (a) the SSIM-vs-MSE scatter of final models, (b) the
//! SSIM convergence series, (c) the MSE convergence series.
//!
//! ```text
//! cargo run --release -p qugeo-bench --bin fig5 [--smoke|--full]
//! ```
//!
//! Paper's shape to match: the physics-guided routes (Q-D-FW, Q-D-CNN)
//! clearly dominate D-Sample on both metrics; final SSIM ≈ 0.800 /
//! 0.859 / 0.862 for D-Sample / Q-D-FW / Q-D-CNN.

use qugeo::model::{QuGeoVqc, VqcConfig};
use qugeo::train::{MiniBatchVqc, TrainConfig, Trainer};
use qugeo_bench::{build_scaled_triple, header, rule, Preset};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let preset = Preset::from_args();
    header("Figure 5 — data scaling comparison with the Q-M-PX VQC", &preset);

    let triple = build_scaled_triple(&preset)?;
    let model = QuGeoVqc::new(VqcConfig::paper_pixel_wise())?;
    println!(
        "model: Q-M-PX ({} qubits, {} parameters)\n",
        model.data_qubits(),
        model.num_params()
    );

    let train_cfg = TrainConfig {
        epochs: preset.epochs,
        initial_lr: 0.1,
        seed: preset.seed,
        eval_every: (preset.epochs / 10).max(1),
    };

    let mut finals = Vec::new();
    for (label, scaled) in [
        ("D-Sample", &triple.d_sample),
        ("Q-D-FW", &triple.fw),
        ("Q-D-CNN", &triple.cnn),
    ] {
        eprintln!("[fig5] training Q-M-PX on {label}…");
        let (train, test) = scaled.try_split(preset.train_count)?;
        let outcome =
            Trainer::new(train_cfg).fit(&mut MiniBatchVqc::new(&model, &train, &test, 1)?)?;

        println!("convergence on {label} (Figures 5b/5c):");
        println!("  epoch   train loss   test SSIM   test MSE");
        for s in outcome.history.iter().filter(|s| s.test_ssim.is_some()) {
            println!(
                "  {:>5}   {:>10.5}   {:>9.4}   {:>8.6}",
                s.epoch,
                s.train_loss,
                s.test_ssim.expect("evaluated"),
                s.test_mse.expect("evaluated")
            );
        }
        println!();
        finals.push((label, outcome.final_ssim, outcome.final_mse));
    }

    rule();
    println!("Figure 5(a) — final models (SSIM up, MSE down is better):");
    println!("  dataset    SSIM     MSE        paper SSIM");
    let paper = [0.800, 0.859, 0.862];
    for ((label, ssim, mse), p) in finals.iter().zip(paper) {
        println!("  {label:<9} {ssim:>7.4}  {mse:>9.6}  {p:>9.3}");
    }
    rule();
    let d = finals[0];
    let best_physics = if finals[1].1 > finals[2].1 { finals[1] } else { finals[2] };
    println!(
        "shape check: physics-guided ({}) beats D-Sample by {:+.1}% SSIM (paper: +7.4%..+7.8%)",
        best_physics.0,
        (best_physics.1 - d.1) / d.1 * 100.0
    );
    Ok(())
}
