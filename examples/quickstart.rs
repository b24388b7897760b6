//! Quickstart: train the paper's Q-M-LY quantum model (the Table 2
//! layer-wise configuration) on a small synthetic FlatVelA-style
//! dataset, end to end in under a minute.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Pipeline: synthesise layered velocity models + seismic data → scale
//! them to the 16-qubit budget with the D-Sample baseline → train the
//! 576-parameter U3+CU3 VQC → report SSIM / MSE on held-out samples.

use qugeo::model::{QuGeoVqc, VqcConfig};
use qugeo::pipeline::scale_d_sample;
use qugeo::train::{MetricsRecorder, MiniBatchVqc, TrainConfig, Trainer};
use qugeo_geodata::scaling::ScaledLayout;
use qugeo_geodata::{Dataset, DatasetConfig};
use qugeo_wavesim::{Grid, SpaceOrder, Survey};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("QuGeo quickstart — quantum learning for full-waveform inversion");
    println!("================================================================");

    // 1. Synthesise a small FlatVelA-style dataset (the full experiments
    //    use 500 samples on the 70x70 OpenFWI geometry; this quickstart
    //    shrinks the geometry to stay interactive).
    let config = DatasetConfig {
        num_samples: 12,
        grid: Grid::new(32, 32, 10.0, 0.001, 128)?,
        survey: Survey::surface(32, 5, 32, 1)?,
        wavelet_hz: 15.0,
        space_order: SpaceOrder::Order4,
        seed: 2024,
    };
    println!(
        "generating {} samples on a {}x{} grid ({} sources, {} receivers)…",
        config.num_samples,
        config.grid.nz(),
        config.grid.nx(),
        config.survey.sources().len(),
        config.survey.receivers().len(),
    );
    let dataset = Dataset::generate(&config)?;

    // 2. Scale to the quantum budget: 256 seismic values, 8x8 velocity.
    let layout = ScaledLayout::paper_default();
    let scaled = scale_d_sample(&dataset, &layout)?;
    let (train, test) = scaled.try_split(9)?;
    println!(
        "scaled to {} seismic values / {}x{} velocity maps ({} train / {} test)",
        layout.seismic_len(),
        layout.velocity_side,
        layout.velocity_side,
        train.len(),
        test.len()
    );

    // 3. The paper's Q-M-LY model: 8 qubits, 12 blocks, 576 parameters.
    let model = QuGeoVqc::new(VqcConfig::paper_layer_wise())?;
    println!(
        "model: {} qubits, {} parameters, layer-wise decoder",
        model.data_qubits(),
        model.num_params()
    );

    // 4. Train with the paper's recipe (shortened for a quickstart).
    let train_cfg = TrainConfig {
        epochs: 40,
        initial_lr: 0.1,
        seed: 7,
        eval_every: 10,
    };
    println!("training for {} epochs…", train_cfg.epochs);
    // The unified engine: paper defaults (Adam + cosine annealing) with a
    // metrics callback recording per-epoch wall-clock and gradient norm.
    let outcome = Trainer::new(train_cfg)
        .callback(MetricsRecorder)
        .fit(&mut MiniBatchVqc::new(&model, &train, &test, 1)?)?;

    for stats in outcome.history.iter().filter(|s| s.test_ssim.is_some()) {
        println!(
            "  epoch {:>3}  train loss {:.5}  test mse {:.5}  test ssim {:.4}  |grad| {:.4}  {:.2}s",
            stats.epoch,
            stats.train_loss,
            stats.test_mse.expect("evaluated"),
            stats.test_ssim.expect("evaluated"),
            stats.grad_norm.expect("recorded"),
            stats.wall_clock_secs.expect("recorded"),
        );
    }
    println!("----------------------------------------------------------------");
    println!(
        "final: SSIM {:.4}, MSE {:.6} on {} held-out samples",
        outcome.final_ssim,
        outcome.final_mse,
        test.len()
    );
    println!("(the full paper-scale run lives in `cargo run -p qugeo-bench --bin fig5`)");
    Ok(())
}
