//! Full-waveform inversion with physics-guided scaling — the paper's
//! headline scenario: the vertical-profile / interface-recovery analysis
//! of Figures 7 and 9 (Q-D-FW data scaling + Q-M-LY model).
//!
//! ```text
//! cargo run --release --example fwi_inversion
//! ```
//!
//! A geophysicist wants the subsurface layer structure under a survey
//! line (energy exploration, infrastructure siting). This example:
//!
//! 1. synthesises layered ground truth and surface seismic records,
//! 2. rescales the data with **Q-D-FW** (coarsen the model, re-run
//!    forward modelling at 8 Hz instead of the raw 15 Hz),
//! 3. trains the **Q-M-LY** layer-wise quantum model,
//! 4. reads out the vertical velocity profile at x = 400 m and counts
//!    recovered layer interfaces — the paper's Figure 7/9 analysis.

use qugeo::model::{QuGeoVqc, VqcConfig};
use qugeo::pipeline::{scale_forward_model, FwScalingConfig};
use qugeo::profile::{column_for_distance, compare_interfaces, profile_similarity, vertical_profile};
use qugeo::train::{MiniBatchVqc, TrainConfig, Trainer};
use qugeo_geodata::scaling::{denormalize_velocity, normalize_velocity, ScaledLayout};
use qugeo_geodata::{Dataset, DatasetConfig};
use qugeo_wavesim::{Grid, SpaceOrder, Survey};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("QuGeo FWI — physics-guided inversion scenario");
    println!("=============================================");

    // Ground truth + raw seismic records.
    let config = DatasetConfig {
        num_samples: 10,
        grid: Grid::new(32, 32, 10.0, 0.001, 128)?,
        survey: Survey::surface(32, 5, 32, 1)?,
        wavelet_hz: 15.0,
        space_order: SpaceOrder::Order4,
        seed: 99,
    };
    println!("synthesising {} surveys…", config.num_samples);
    let dataset = Dataset::generate(&config)?;

    // Physics-guided rescaling: coarsen the model to 8x8, re-model at
    // 8 Hz, decimate to 4 sources x 8 time steps x 8 receivers.
    let layout = ScaledLayout::paper_default();
    let fw = FwScalingConfig {
        extent_m: config.grid.extent_x(),
        ..FwScalingConfig::default()
    };
    println!(
        "rescaling with Q-D-FW ({} Hz wavelet on the {}x{} coarse model)…",
        fw.wavelet_hz, layout.velocity_side, layout.velocity_side
    );
    let scaled = scale_forward_model(&dataset, &layout, &fw)?;
    let (train, test) = scaled.try_split(7)?;

    // Train the layer-wise quantum model.
    let model = QuGeoVqc::new(VqcConfig::paper_layer_wise())?;
    let outcome = Trainer::new(TrainConfig {
        epochs: 50,
        initial_lr: 0.1,
        seed: 11,
        eval_every: 0,
    })
    .fit(&mut MiniBatchVqc::new(&model, &train, &test, 1)?)?;
    println!(
        "trained Q-M-LY: test SSIM {:.4}, MSE {:.6}",
        outcome.final_ssim, outcome.final_mse
    );

    // Vertical-profile analysis at x = 400 m for one held-out survey.
    let sample = &test[0];
    let truth_norm = normalize_velocity(&sample.velocity);
    let pred_norm = model.predict(&sample.seismic, &outcome.params)?;
    let pred = denormalize_velocity(&pred_norm);

    let col = column_for_distance(layout.velocity_side, 400.0, fw.extent_m);
    let truth_profile = vertical_profile(&sample.velocity, col)?;
    let pred_profile = vertical_profile(&pred, col)?;

    println!("\nvertical profile at x = 400 m (column {col}):");
    println!("  depth   truth (m/s)   predicted (m/s)");
    for (i, (t, p)) in truth_profile.iter().zip(&pred_profile).enumerate() {
        println!("  {:>5}   {:>10.0}   {:>14.0}", i, t, p);
    }

    let threshold = 200.0; // m/s step that counts as an interface
    let cmp = compare_interfaces(&truth_profile, &pred_profile, threshold);
    println!(
        "\ninterfaces: {} true, {} predicted, {} matched ({} with correct layer order)",
        cmp.true_interfaces.len(),
        cmp.predicted_interfaces.len(),
        cmp.matched,
        cmp.correct_order
    );
    println!(
        "profile SSIM {:.4} (map SSIM {:.4})",
        profile_similarity(&truth_profile, &pred_profile)?,
        qugeo_metrics::ssim(&pred_norm, &truth_norm)?,
    );
    Ok(())
}
