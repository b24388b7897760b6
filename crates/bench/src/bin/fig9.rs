//! Figure 9 — velocity-map visualisation and vertical profiles for the
//! layer-wise model.
//!
//! Regenerates the three-way comparison: Q-M-LY on D-Sample, Q-M-PX on
//! Q-D-FW, and Q-M-LY on Q-D-FW, with the x = 400 m profile analysis.
//!
//! ```text
//! cargo run --release -p qugeo-bench --bin fig9 [--smoke|--full]
//! ```
//!
//! Paper numbers (profile SSIM): D-Sample + Q-M-LY 0.9606, Q-D-FW +
//! Q-M-PX 0.9492, Q-D-FW + Q-M-LY 0.9854 — only the full QuGeo stack
//! (physics data + layer decoder) recovers every interface with correct
//! layer ordering.

use qugeo::model::{QuGeoVqc, VqcConfig};
use qugeo::train::{MiniBatchVqc, TrainConfig, Trainer};
use qugeo_bench::report::{analyze, print as print_report};
use qugeo_bench::{build_scaled_triple, header, rule, Preset};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let preset = Preset::from_args();
    header("Figure 9 — layer-wise model predictions and profiles", &preset);

    let triple = build_scaled_triple(&preset)?;
    let px = QuGeoVqc::new(VqcConfig::paper_pixel_wise())?;
    let ly = QuGeoVqc::new(VqcConfig::paper_layer_wise())?;
    let train_cfg = TrainConfig {
        epochs: preset.epochs,
        initial_lr: 0.1,
        seed: preset.seed,
        eval_every: 0,
    };
    let extent = preset.grid.extent_x();

    let combos: [(&str, &QuGeoVqc, &qugeo::pipeline::ScaledDataset, f64); 3] = [
        ("D-Sample + Q-M-LY", &ly, &triple.d_sample, 0.9606),
        ("Q-D-FW + Q-M-PX", &px, &triple.fw, 0.9492),
        ("Q-D-FW + Q-M-LY", &ly, &triple.fw, 0.9854),
    ];

    let mut reports = Vec::new();
    for (label, model, scaled, paper) in combos {
        eprintln!("[fig9] training {label}…");
        let (train, test) = scaled.try_split(preset.train_count)?;
        let outcome =
            Trainer::new(train_cfg).fit(&mut MiniBatchVqc::new(model, &train, &test, 1)?)?;
        let report = analyze(
            &format!("{label} (map SSIM {:.4})", outcome.final_ssim),
            model,
            &outcome.params,
            &test[0],
            extent,
        )?;
        print_report(&report);
        reports.push((label, report, paper));
    }

    rule();
    println!("profile summary at x = 400 m:");
    println!("  combination          profile SSIM   paper    matched (correct order)");
    for (label, r, paper) in &reports {
        println!(
            "  {label:<20} {:>11.4}   {paper:.4}   {}/{} ({})",
            r.profile_ssim, r.matched, r.true_interfaces, r.correct_order
        );
    }
    rule();
    let full_stack = &reports[2].1;
    println!(
        "shape check: the full QuGeo stack (Q-D-FW + Q-M-LY) has the best profile SSIM: {}",
        if reports
            .iter()
            .all(|(_, r, _)| r.profile_ssim <= full_stack.profile_ssim + 1e-12)
        {
            "YES"
        } else {
            "NO"
        }
    );
    Ok(())
}
