//! Table 1 — QuBatch evaluation: batch size vs extra qubits vs SSIM.
//!
//! Trains Q-M-LY on the Q-D-FW dataset with QuBatch batch sizes 1, 2
//! and 4, reporting extra qubits and final SSIM degradation against the
//! unbatched baseline.
//!
//! ```text
//! cargo run --release -p qugeo-bench --bin table1 [--smoke|--full]
//! ```
//!
//! Paper's Table 1: batch 1/2/4 ⇒ 0/1/2 extra qubits, SSIM
//! 0.8926 / 0.8864 / 0.8678 (0.69% / 2.77% degradation) — batching is
//! nearly free in quality while sharing one circuit execution.

use qugeo::model::{QuGeoVqc, VqcConfig};
use qugeo::qubatch::QuBatch;
use qugeo::train::{MiniBatchVqc, QuBatchVqc, TrainConfig, Trainer};
use qugeo_bench::{build_scaled_triple, header, rule, Preset};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let preset = Preset::from_args();
    header("Table 1 — QuBatch with different batch sizes (Q-M-LY on Q-D-FW)", &preset);

    let triple = build_scaled_triple(&preset)?;
    let (train, test) = triple.fw.try_split(preset.train_count)?;
    let model = QuGeoVqc::new(VqcConfig::paper_layer_wise())?;
    let qubatch = QuBatch::new(&model)?;
    let train_cfg = TrainConfig {
        epochs: preset.epochs,
        initial_lr: 0.1,
        seed: preset.seed,
        eval_every: 0,
    };

    let mut rows = Vec::new();
    for batch in [1usize, 2, 4] {
        eprintln!("[table1] training with batch size {batch}…");
        let outcome = if batch == 1 {
            Trainer::new(train_cfg).fit(&mut MiniBatchVqc::new(&model, &train, &test, 1)?)?
        } else {
            Trainer::new(train_cfg).fit(&mut QuBatchVqc::new(&model, &train, &test, batch)?)?
        };
        rows.push((batch, qubatch.extra_qubits(batch), outcome.final_ssim));
    }

    rule();
    println!("Model   Dataset   Batch   Extra Qubits   SSIM      vs BL      paper SSIM");
    let baseline = rows[0].2;
    let paper = [(0.8926, "BL"), (0.8864, "0.69%"), (0.8678, "2.77%")];
    for ((batch, extra, ssim), (p_ssim, p_deg)) in rows.iter().zip(paper) {
        let vs = if *batch == 1 {
            "BL".to_string()
        } else {
            format!("{:.2}%", (baseline - ssim) / baseline * 100.0)
        };
        println!(
            "Q-M-LY  Q-D-FW    {batch:>5}   {extra:>12}   {ssim:>7.4}   {vs:>7}    {p_ssim:.4} ({p_deg})"
        );
    }
    rule();
    println!(
        "shape check: degradation grows with batch size but stays graceful: {}",
        if rows[1].2 <= rows[0].2 + 0.02 && rows[2].2 <= rows[1].2 + 0.02 {
            "YES"
        } else {
            "NO"
        }
    );
    println!("(root cause per the paper: amplitude-norm sharing reduces data precision)");
    Ok(())
}
