//! Shot-budget study: how much measurement do you have to pay for?
//!
//! ```text
//! cargo run --release --example shot_budget
//! ```
//!
//! Real quantum hardware never returns exact expectation values — every
//! number is estimated from a finite number of measurement shots, and
//! related hybrid-QNN FWI work (arXiv:2503.05009) runs exactly this
//! regime. This example serves the paper's Q-M-LY model through an
//! [`qugeo::session::InferenceSession`] on four execution backends — the
//! exact statevector backend and [`qugeo_qsim::ShotSamplerBackend`] at
//! 1k / 10k / 100k shots — and reports how prediction quality (SSIM /
//! MSE against the normalised targets) degrades as the shot budget
//! shrinks, plus how close each budget gets to the exact prediction.
//!
//! The session compiles the trained circuit **once per backend** and
//! recycles its batch buffers across every request, which is the shape a
//! deployed inference service would run.

use qugeo::model::{QuGeoVqc, VqcConfig};
use qugeo::pipeline::{normalized_target, scale_d_sample};
use qugeo::session::InferenceSession;
use qugeo::train::{MiniBatchVqc, TrainConfig, Trainer};
use qugeo_geodata::scaling::ScaledLayout;
use qugeo_geodata::{Dataset, DatasetConfig};
use qugeo_metrics::{mse, ssim};
use qugeo_qsim::{QuantumBackend, ShotSamplerBackend, StatevectorBackend};
use qugeo_wavesim::{Grid, SpaceOrder, Survey};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("QuGeo inference under a finite shot budget");
    println!("==========================================");

    // Train Q-M-LY on clean simulation first (small synthetic set).
    let config = DatasetConfig {
        num_samples: 10,
        grid: Grid::new(32, 32, 10.0, 0.001, 128)?,
        survey: Survey::surface(32, 5, 32, 1)?,
        wavelet_hz: 15.0,
        space_order: SpaceOrder::Order4,
        seed: 29,
    };
    println!("synthesising data and training Q-M-LY (exact simulation)…");
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

    // Exact reference predictions through a statevector session.
    let requests: Vec<&[f64]> = test.iter().map(|s| s.seismic.as_slice()).collect();
    let mut exact_session = InferenceSession::with_backend(
        model.clone(),
        &outcome.params,
        StatevectorBackend::default(),
    )?;
    let exact_preds = exact_session.predict_many(&requests)?;
    println!(
        "exact backend ({}): compiled {} time(s) for {} requests\n",
        exact_session.backend().name(),
        exact_session.compilations(),
        exact_session.requests(),
    );

    println!("  backend            shots   mean SSIM   mean MSE    |Δ| vs exact");
    let report = |name: &str, shots: &str, preds: &[qugeo_tensor::Array2]| {
        let mut ssim_total = 0.0;
        let mut mse_total = 0.0;
        let mut drift = 0.0;
        for ((s, pred), exact) in test.iter().zip(preds).zip(&exact_preds) {
            let target = normalized_target(s);
            ssim_total += ssim(pred, &target).expect("same shapes");
            mse_total += mse(pred, &target).expect("same shapes");
            drift += pred
                .iter()
                .zip(exact.iter())
                .map(|(a, b)| (a - b).abs())
                .sum::<f64>()
                / pred.iter().count() as f64;
        }
        let n = test.len() as f64;
        println!(
            "  {name:<16} {shots:>7}   {:>9.4}   {:>8.5}   {:>12.5}",
            ssim_total / n,
            mse_total / n,
            drift / n
        );
    };

    report(exact_session.backend().name(), "exact", &exact_preds);
    for shots in [1_000usize, 10_000, 100_000] {
        let backend = ShotSamplerBackend::new(shots, 1234);
        // Sampling backends advertise themselves as non-deterministic:
        // the same request measured twice gives two different estimates,
        // so a serving layer must not cache their responses.
        assert!(!backend.is_deterministic());
        let mut session =
            InferenceSession::with_backend(model.clone(), &outcome.params, backend)?;
        let preds = session.predict_many(&requests)?;
        assert_eq!(session.compilations(), 1); // compile-once, even when sampling
        report(session.backend().name(), &shots.to_string(), &preds);
    }

    println!("\nshape: the sampled predictions converge onto the exact ones as the");
    println!("shot budget grows (statistical error ∝ 1/√shots) — at 100k shots the");
    println!("≤16-qubit, shallow-ansatz regime the paper targets is already stable.");
    Ok(())
}
