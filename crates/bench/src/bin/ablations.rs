//! Ablations over the design choices DESIGN.md calls out.
//!
//! ```text
//! cargo run --release -p qugeo-bench --bin ablations [--smoke|--full]
//! ```
//!
//! Sweeps (all Q-M-LY on the Q-D-FW dataset unless noted):
//!
//! 1. ansatz depth — number of `U3+CU3` blocks (the paper fixes 12),
//! 2. encoder grouping — 1 group (8 qubits) vs 2 groups (14 qubits),
//! 3. rescaling wavelet frequency — the paper's 8 Hz choice vs keeping
//!    the raw 15 Hz (Section 3.1.1 / Figure 6 discussion),
//! 4. QuBatch batch size beyond Table 1 (1–8).

use qugeo::model::{QuGeoVqc, VqcConfig};
use qugeo::pipeline::{scale_forward_model, FwScalingConfig};
use qugeo::train::{MiniBatchVqc, QuBatchVqc, TrainConfig, Trainer};
use qugeo_bench::{build_scaled_triple, cached_dataset, header, rule, Preset};
use qugeo_geodata::scaling::ScaledLayout;
use qugeo_qsim::ansatz::EntangleOrder;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let preset = Preset::from_args();
    header("Ablations — ansatz depth, grouping, wavelet frequency, batch size", &preset);

    let layout = ScaledLayout::paper_default();
    let triple = build_scaled_triple(&preset)?;
    let (train, test) = triple.fw.try_split(preset.train_count)?;
    let train_cfg = TrainConfig {
        epochs: preset.epochs,
        initial_lr: 0.1,
        seed: preset.seed,
        eval_every: 0,
    };

    // 1. Ansatz depth sweep.
    println!("\n[1] ansatz depth (Q-M-LY on Q-D-FW; paper uses 12 blocks = 576 params):");
    println!("  blocks   params   SSIM      MSE");
    for blocks in [4usize, 8, 12, 16] {
        let model = QuGeoVqc::new(VqcConfig {
            num_blocks: blocks,
            ..VqcConfig::paper_layer_wise()
        })?;
        let out = Trainer::new(train_cfg).fit(&mut MiniBatchVqc::new(&model, &train, &test, 1)?)?;
        println!(
            "  {blocks:>6}   {:>6}   {:>7.4}   {:.6}",
            model.num_params(),
            out.final_ssim,
            out.final_mse
        );
    }

    // 2. Encoder grouping.
    println!("\n[2] encoder grouping (Section 3.2.2 hyper-parameter):");
    println!("  groups   qubits   params   SSIM      MSE");
    for (groups, blocks, mixing) in [(1usize, 12usize, 0usize), (2, 5, 2)] {
        let model = QuGeoVqc::new(VqcConfig {
            num_groups: groups,
            num_blocks: blocks,
            mixing_blocks: mixing,
            entangle: EntangleOrder::Ring,
            ..VqcConfig::paper_layer_wise()
        })?;
        let out = Trainer::new(train_cfg).fit(&mut MiniBatchVqc::new(&model, &train, &test, 1)?)?;
        println!(
            "  {groups:>6}   {:>6}   {:>6}   {:>7.4}   {:.6}",
            model.data_qubits(),
            model.num_params(),
            out.final_ssim,
            out.final_mse
        );
    }

    // 3. Rescaling wavelet frequency.
    println!("\n[3] Q-D-FW wavelet frequency (paper lowers 15 Hz → 8 Hz when shrinking):");
    println!("  wavelet   SSIM      MSE");
    let dataset = cached_dataset("eval", &preset.dataset_config())?;
    for hz in [8.0f64, 15.0] {
        let fw_cfg = FwScalingConfig {
            wavelet_hz: hz,
            extent_m: preset.grid.extent_x(),
            ..FwScalingConfig::default()
        };
        let scaled = scale_forward_model(&dataset, &layout, &fw_cfg)?;
        let (tr, te) = scaled.try_split(preset.train_count)?;
        let model = QuGeoVqc::new(VqcConfig::paper_layer_wise())?;
        let out = Trainer::new(train_cfg).fit(&mut MiniBatchVqc::new(&model, &tr, &te, 1)?)?;
        println!("  {hz:>4.0} Hz   {:>7.4}   {:.6}", out.final_ssim, out.final_mse);
    }

    // 4. Batch-size sweep (extends Table 1).
    println!("\n[4] QuBatch batch size (Q-M-LY on Q-D-FW):");
    println!("  batch   extra qubits   SSIM      MSE");
    let model = QuGeoVqc::new(VqcConfig::paper_layer_wise())?;
    for batch in [1usize, 2, 4, 8] {
        let out = if batch == 1 {
            Trainer::new(train_cfg).fit(&mut MiniBatchVqc::new(&model, &train, &test, 1)?)?
        } else {
            Trainer::new(train_cfg).fit(&mut QuBatchVqc::new(&model, &train, &test, batch)?)?
        };
        println!(
            "  {batch:>5}   {:>12}   {:>7.4}   {:.6}",
            qugeo_qsim::complexity::log2_ceil(batch),
            out.final_ssim,
            out.final_mse
        );
    }

    rule();
    println!("done — see EXPERIMENTS.md for the recorded sweep results");
    Ok(())
}
