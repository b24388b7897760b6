//! Figure 7 — predicted velocity maps and vertical velocity profiles
//! for the Q-M-PX model across the three data-scaling routes.
//!
//! Regenerates: per-dataset velocity-map SSIM plus the x = 400 m
//! vertical-profile analysis (profile SSIM and interface recovery).
//!
//! ```text
//! cargo run --release -p qugeo-bench --bin fig7 [--smoke|--full]
//! ```
//!
//! Paper numbers (profile SSIM at x = 400 m): D-Sample 0.9613,
//! Q-D-CNN 0.9742, Q-D-FW 0.9772; D-Sample misses 5 of 7 interface
//! points where the physics-guided routes recover 3 interfaces each.

use qugeo::model::{QuGeoVqc, VqcConfig};
use qugeo::train::{MiniBatchVqc, TrainConfig, Trainer};
use qugeo_bench::report::{analyze, print as print_report};
use qugeo_bench::{build_scaled_triple, header, rule, Preset};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let preset = Preset::from_args();
    header("Figure 7 — Q-M-PX predictions and vertical profiles", &preset);

    let triple = build_scaled_triple(&preset)?;
    let model = QuGeoVqc::new(VqcConfig::paper_pixel_wise())?;
    let train_cfg = TrainConfig {
        epochs: preset.epochs,
        initial_lr: 0.1,
        seed: preset.seed,
        eval_every: 0,
    };
    let extent = preset.grid.extent_x();

    let mut summary = Vec::new();
    for (label, scaled, paper_ssim) in [
        ("D-Sample", &triple.d_sample, 0.9613),
        ("Q-D-FW", &triple.fw, 0.9772),
        ("Q-D-CNN", &triple.cnn, 0.9742),
    ] {
        eprintln!("[fig7] training Q-M-PX on {label}…");
        let (train, test) = scaled.try_split(preset.train_count)?;
        let outcome =
            Trainer::new(train_cfg).fit(&mut MiniBatchVqc::new(&model, &train, &test, 1)?)?;

        // The paper visualises one representative test sample.
        let report = analyze(
            &format!("Q-M-PX on {label} (map SSIM {:.4})", outcome.final_ssim),
            &model,
            &outcome.params,
            &test[0],
            extent,
        )?;
        print_report(&report);
        summary.push((label, outcome.final_ssim, report, paper_ssim));
    }

    rule();
    println!("profile summary at x = 400 m:");
    println!("  dataset    profile SSIM   paper   matched/true interfaces (correct order)");
    for (label, _, report, paper) in &summary {
        println!(
            "  {label:<9}  {:>11.4}   {paper:.4}   {}/{} ({})",
            report.profile_ssim, report.matched, report.true_interfaces, report.correct_order
        );
    }
    rule();
    let ds = &summary[0].2;
    let fw = &summary[1].2;
    println!(
        "shape check: physics-guided recovers ≥ as many interfaces as D-Sample: {}",
        if fw.matched >= ds.matched { "YES" } else { "NO" }
    );
    Ok(())
}
