//! Figure 8 — Q-M-PX vs Q-M-LY across all three data-scaling routes.
//!
//! Regenerates the SSIM and MSE bar groups.
//!
//! ```text
//! cargo run --release -p qugeo-bench --bin fig8 [--smoke|--full]
//! ```
//!
//! Paper numbers (SSIM, PX → LY): D-Sample 0.800 → 0.842; Q-D-FW
//! 0.859 → 0.892; Q-D-CNN 0.862 → 0.905. Average +4.5% SSIM and
//! −33.23% MSE from the layer-wise decoder; end-to-end (D-Sample+PX →
//! Q-D-CNN+LY): +11.6% SSIM, −61.69% MSE.

use qugeo::model::{QuGeoVqc, VqcConfig};
use qugeo::train::{MiniBatchVqc, TrainConfig, Trainer};
use qugeo_bench::{build_scaled_triple, header, improvement_pct, rule, Preset};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let preset = Preset::from_args();
    header("Figure 8 — pixel-wise vs layer-wise decoder", &preset);

    let triple = build_scaled_triple(&preset)?;
    let px = QuGeoVqc::new(VqcConfig::paper_pixel_wise())?;
    let ly = QuGeoVqc::new(VqcConfig::paper_layer_wise())?;
    let train_cfg = TrainConfig {
        epochs: preset.epochs,
        initial_lr: 0.1,
        seed: preset.seed,
        eval_every: 0,
    };

    // results[dataset][model] = (ssim, mse)
    let mut results = Vec::new();
    for (label, scaled) in [
        ("D-Sample", &triple.d_sample),
        ("Q-D-FW", &triple.fw),
        ("Q-D-CNN", &triple.cnn),
    ] {
        let (train, test) = scaled.try_split(preset.train_count)?;
        eprintln!("[fig8] training Q-M-PX on {label}…");
        let px_out = Trainer::new(train_cfg).fit(&mut MiniBatchVqc::new(&px, &train, &test, 1)?)?;
        eprintln!("[fig8] training Q-M-LY on {label}…");
        let ly_out = Trainer::new(train_cfg).fit(&mut MiniBatchVqc::new(&ly, &train, &test, 1)?)?;
        results.push((
            label,
            (px_out.final_ssim, px_out.final_mse),
            (ly_out.final_ssim, ly_out.final_mse),
        ));
    }

    rule();
    println!("Figure 8(a) — SSIM (paper: PX → LY):");
    let paper_ssim = [(0.800, 0.842), (0.859, 0.892), (0.862, 0.905)];
    for ((label, (px_s, _), (ly_s, _)), (pp, pl)) in results.iter().zip(paper_ssim) {
        println!(
            "  {label:<9}  Q-M-PX {px_s:.4}   Q-M-LY {ly_s:.4}   (paper {pp:.3} → {pl:.3})"
        );
    }
    println!("\nFigure 8(b) — MSE:");
    for (label, (_, px_m), (_, ly_m)) in &results {
        println!("  {label:<9}  Q-M-PX {px_m:.6}   Q-M-LY {ly_m:.6}");
    }
    rule();

    let avg_ssim_gain: f64 = results
        .iter()
        .map(|(_, (px_s, _), (ly_s, _))| improvement_pct(*ly_s, *px_s, true))
        .sum::<f64>()
        / results.len() as f64;
    let avg_mse_gain: f64 = results
        .iter()
        .map(|(_, (_, px_m), (_, ly_m))| improvement_pct(*ly_m, *px_m, false))
        .sum::<f64>()
        / results.len() as f64;
    println!(
        "layer-wise decoder average gain: {avg_ssim_gain:+.1}% SSIM (paper +4.5%), {avg_mse_gain:+.1}% MSE (paper +33.2%)"
    );

    let worst = results[0].1; // D-Sample + PX: the naive implementation
    let best = results
        .iter()
        .map(|(_, _, ly)| *ly)
        .fold((f64::MIN, f64::MAX), |acc, (s, m)| (acc.0.max(s), acc.1.min(m)));
    println!(
        "end-to-end QuGeo gain over naive (D-Sample + PX): {:+.1}% SSIM (paper +11.6%), {:+.1}% MSE (paper +61.7%)",
        improvement_pct(best.0, worst.0, true),
        improvement_pct(best.1, worst.1, false)
    );
    let ly_wins = results.iter().filter(|(_, px, ly)| ly.0 > px.0).count();
    println!("shape check: LY beats PX on {ly_wins}/3 datasets (paper: 3/3)");
    Ok(())
}
