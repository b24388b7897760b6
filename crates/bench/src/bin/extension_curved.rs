//! Extension experiment — curved subsurfaces (the paper's Section 3.2.3
//! generalisation).
//!
//! The layer-wise decoder assumes flat layers; the paper argues it "can
//! be generalized for the non-flat subsurface, such as curve structures"
//! because the medium between curves is uniform. This experiment
//! quantifies that claim on OpenFWI-CurveVel-style data:
//!
//! * Q-M-LY trained/evaluated on flat data (the paper's setting),
//! * Q-M-LY trained/evaluated on curved data (the generalisation),
//! * Q-M-PX on curved data (no flat prior, for reference).
//!
//! ```text
//! cargo run --release -p qugeo-bench --bin extension_curved [--smoke|--full]
//! ```

use qugeo::model::{QuGeoVqc, VqcConfig};
use qugeo::pipeline::fw_scale_seismic;
use qugeo::train::{MiniBatchVqc, TrainConfig, Trainer};
use qugeo_bench::{header, rule, Preset};
use qugeo_geodata::curved::CurvedLayerGenerator;
use qugeo_geodata::scaling::{ScaledLayout, ScaledSample};
use qugeo_geodata::FlatLayerGenerator;
use qugeo_tensor::{resample, Array2};

/// Builds physics-scaled samples from arbitrary velocity maps (flat or
/// curved) using the Q-D-FW route, which only needs the map itself.
fn scaled_samples_from_maps(
    maps: &[Array2],
    layout: &ScaledLayout,
    extent_m: f64,
) -> Result<Vec<ScaledSample>, qugeo::QuGeoError> {
    let fw = qugeo::pipeline::FwScalingConfig {
        extent_m,
        ..Default::default()
    };
    maps.iter()
        .map(|map| {
            let seismic = fw_scale_seismic(map, layout, &fw)?;
            let velocity =
                resample::nearest2(map, layout.velocity_side, layout.velocity_side);
            Ok(ScaledSample { seismic, velocity })
        })
        .collect()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let preset = Preset::from_args();
    header("Extension — curved subsurfaces (paper §3.2.3 generalisation)", &preset);

    let layout = ScaledLayout::paper_default();
    let (nz, nx) = (preset.grid.nz(), preset.grid.nx());
    let extent = preset.grid.extent_x();
    let n = preset.num_samples.min(60); // FW scaling per map is cheap but bounded

    eprintln!("[curved] generating {n} flat + {n} curved models and FW-scaling them…");
    let flat_gen = FlatLayerGenerator::new(nz, nx)?;
    let curve_gen = CurvedLayerGenerator::new(nz, nx, (nz / 10).max(2))?;
    let flat_maps: Vec<Array2> = (0..n)
        .map(|i| flat_gen.sample(preset.seed + i as u64).into_map())
        .collect();
    let curved_maps: Vec<Array2> = (0..n)
        .map(|i| curve_gen.sample(preset.seed + i as u64).into_map())
        .collect();

    let flat = scaled_samples_from_maps(&flat_maps, &layout, extent)?;
    let curved = scaled_samples_from_maps(&curved_maps, &layout, extent)?;
    let split = n * 3 / 4;
    let (flat_train, flat_test) = (flat[..split].to_vec(), flat[split..].to_vec());
    let (curv_train, curv_test) = (curved[..split].to_vec(), curved[split..].to_vec());

    let ly = QuGeoVqc::new(VqcConfig::paper_layer_wise())?;
    let px = QuGeoVqc::new(VqcConfig::paper_pixel_wise())?;
    let cfg = TrainConfig {
        epochs: preset.epochs,
        initial_lr: 0.1,
        seed: preset.seed,
        eval_every: 0,
    };

    eprintln!("[curved] training Q-M-LY on flat…");
    let ly_flat =
        Trainer::new(cfg).fit(&mut MiniBatchVqc::new(&ly, &flat_train, &flat_test, 1)?)?;
    eprintln!("[curved] training Q-M-LY on curved…");
    let ly_curv =
        Trainer::new(cfg).fit(&mut MiniBatchVqc::new(&ly, &curv_train, &curv_test, 1)?)?;
    eprintln!("[curved] training Q-M-PX on curved…");
    let px_curv =
        Trainer::new(cfg).fit(&mut MiniBatchVqc::new(&px, &curv_train, &curv_test, 1)?)?;

    rule();
    println!("setting                         SSIM      MSE");
    println!(
        "Q-M-LY on flat (paper setting)  {:>7.4}   {:.6}",
        ly_flat.final_ssim, ly_flat.final_mse
    );
    println!(
        "Q-M-LY on curved (extension)    {:>7.4}   {:.6}",
        ly_curv.final_ssim, ly_curv.final_mse
    );
    println!(
        "Q-M-PX on curved (no prior)     {:>7.4}   {:.6}",
        px_curv.final_ssim, px_curv.final_mse
    );
    rule();
    println!("expected shape: LY keeps most of its advantage on gently curved data");
    println!("(uniform medium between curves), degrading gracefully vs the flat case.");
    Ok(())
}
