//! Evaluate a trained QuGeo model under NISQ-device conditions — the
//! "near-term noisy quantum computers" deployment target the paper's
//! Section 1 motivates (depolarizing noise, readout error, finite shots).
//!
//! ```text
//! cargo run --release --example noisy_hardware
//! ```
//!
//! The paper targets "near-term noisy quantum computers"; this example
//! measures how prediction quality degrades when the trained Q-M-LY
//! circuit runs with (a) depolarizing gate noise + readout error, and
//! (b) finite measurement shots instead of exact expectation values.
//! Both run through the ordinary `predict_many_with` entry point with a
//! [`qugeo_qsim::NoisyBackend`] or [`qugeo_qsim::ShotSamplerBackend`];
//! gate noise is inserted once per fused op of the compiled circuit
//! (see `qugeo_qsim::noise`).

use qugeo::model::{QuGeoVqc, VqcConfig};
use qugeo::pipeline::{normalized_target, scale_d_sample};
use qugeo::train::{MiniBatchVqc, TrainConfig, Trainer};
use qugeo_geodata::scaling::ScaledLayout;
use qugeo_geodata::{Dataset, DatasetConfig};
use qugeo_metrics::ssim;
use qugeo_qsim::noise::NoiseModel;
use qugeo_qsim::{NoisyBackend, ShotSamplerBackend};
use qugeo_tensor::Array2;
use qugeo_wavesim::{Grid, SpaceOrder, Survey};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("QuGeo under NISQ noise");
    println!("======================");

    // Train a model on clean simulation first.
    let config = DatasetConfig {
        num_samples: 10,
        grid: Grid::new(32, 32, 10.0, 0.001, 128)?,
        survey: Survey::surface(32, 5, 32, 1)?,
        wavelet_hz: 15.0,
        space_order: SpaceOrder::Order4,
        seed: 13,
    };
    println!("synthesising data and training Q-M-LY (clean)…");
    let dataset = Dataset::generate(&config)?;
    let layout = ScaledLayout::paper_default();
    let scaled = scale_d_sample(&dataset, &layout)?;
    let (train, test) = scaled.try_split(7)?;
    let model = QuGeoVqc::new(VqcConfig::paper_layer_wise())?;
    let outcome = Trainer::new(TrainConfig {
        epochs: 40,
        initial_lr: 0.1,
        seed: 5,
        eval_every: 0,
    })
    .fit(&mut MiniBatchVqc::new(&model, &train, &test, 1)?)?;
    println!("clean test SSIM: {:.4}\n", outcome.final_ssim);

    // (a) gate + readout noise sweep. Each test sample is replicated
    // across 64 batch members, and each member is one independent noise
    // trajectory. Q-M-LY's decoder is affine in the probabilities, so the
    // mean of the decoded maps is the map of the mean distribution.
    const TRAJECTORIES: usize = 64;
    println!("depolarizing-noise sweep ({TRAJECTORIES} trajectories, readout flip 1%):");
    println!("  gate error   mean SSIM");
    for p in [0.0, 0.001, 0.005, 0.02, 0.05] {
        let noise = NoiseModel::uniform_depolarizing(p)?.with_readout_flip(0.01)?;
        let backend = NoisyBackend::new(noise, 77);
        let mut total = 0.0;
        for s in &test {
            let replicas = vec![s.seismic.as_slice(); TRAJECTORIES];
            let maps = model.predict_many_with(&replicas, &outcome.params, &backend)?;
            let (rows, cols) = maps[0].shape();
            let pred = Array2::from_fn(rows, cols, |r, c| {
                maps.iter().map(|m| m[(r, c)]).sum::<f64>() / TRAJECTORIES as f64
            });
            total += ssim(&pred, &normalized_target(s))?;
        }
        println!("  {:>10.3}   {:.4}", p, total / test.len() as f64);
    }

    // (b) finite-shot sweep.
    println!("\nfinite-shot sweep (ideal circuit, sampled readout):");
    println!("  shots     mean SSIM");
    let seismic: Vec<&[f64]> = test.iter().map(|s| s.seismic.as_slice()).collect();
    for shots in [64usize, 256, 1024, 8192, 65536] {
        let backend = ShotSamplerBackend::new(shots, 100);
        let preds = model.predict_many_with(&seismic, &outcome.params, &backend)?;
        let mut total = 0.0;
        for (s, pred) in test.iter().zip(&preds) {
            total += ssim(pred, &normalized_target(s))?;
        }
        println!("  {:>6}    {:.4}", shots, total / test.len() as f64);
    }
    println!("\nshape: quality degrades smoothly with gate error and recovers with shots —");
    println!("the regime the paper targets (≤16 qubits, shallow ansatz) stays usable.");
    Ok(())
}
