//! End-to-end integration tests: the full QuGeo pipeline from dataset
//! synthesis through scaling, training and evaluation, at smoke scale.

use qugeo::decoder::Decoder;
use qugeo::model::{QuGeoVqc, VqcConfig};
use qugeo::pipeline::{
    scale_cnn, scale_d_sample, scale_forward_model, train_cnn_scaler, CnnScalingConfig,
    FwScalingConfig,
};
use qugeo::train::{evaluate_vqc, MiniBatchVqc, QuBatchVqc, TrainConfig, Trainer};
use qugeo_geodata::scaling::ScaledLayout;
use qugeo_geodata::{Dataset, DatasetConfig};
use qugeo_wavesim::{Grid, SpaceOrder, Survey};

fn smoke_dataset(num_samples: usize, seed: u64) -> Dataset {
    let config = DatasetConfig {
        num_samples,
        grid: Grid::new(28, 28, 10.0, 0.001, 100).expect("grid"),
        survey: Survey::surface(28, 5, 24, 1).expect("survey"),
        wavelet_hz: 15.0,
        space_order: SpaceOrder::Order4,
        seed,
    };
    Dataset::generate(&config).expect("dataset generation")
}

fn fw_config() -> FwScalingConfig {
    FwScalingConfig {
        extent_m: 280.0,
        sim_steps: 48,
        ..FwScalingConfig::default()
    }
}

#[test]
fn d_sample_pipeline_trains_and_improves() {
    let dataset = smoke_dataset(8, 1);
    let layout = ScaledLayout::paper_default();
    let scaled = scale_d_sample(&dataset, &layout).expect("scaling");
    let (train, test) = scaled.try_split(6).expect("split within dataset");

    let model = QuGeoVqc::new(VqcConfig::paper_layer_wise()).expect("model");
    // Untrained baseline.
    let init = model.init_params(7);
    let (mse_before, _) = evaluate_vqc(&model, &init, &test).expect("eval");

    let outcome = Trainer::new(TrainConfig::smoke(12))
        .fit(&mut MiniBatchVqc::new(&model, &train, &test, 1).expect("strategy"))
        .expect("training");
    assert!(
        outcome.final_mse < mse_before,
        "training must improve MSE: {mse_before} -> {}",
        outcome.final_mse
    );
    assert!(outcome.final_ssim > -1.0 && outcome.final_ssim <= 1.0);
}

#[test]
fn fw_pipeline_runs_end_to_end() {
    let dataset = smoke_dataset(6, 2);
    let layout = ScaledLayout::paper_default();
    let scaled = scale_forward_model(&dataset, &layout, &fw_config()).expect("fw scaling");
    assert_eq!(scaled.len(), 6);
    let (train, test) = scaled.try_split(4).expect("split within dataset");

    let model = QuGeoVqc::new(VqcConfig::paper_pixel_wise()).expect("model");
    let outcome = Trainer::new(TrainConfig::smoke(8))
        .fit(&mut MiniBatchVqc::new(&model, &train, &test, 1).expect("strategy"))
        .expect("training");
    let first = outcome.history.first().expect("history").train_loss;
    let last = outcome.history.last().expect("history").train_loss;
    assert!(last < first, "loss should fall: {first} -> {last}");
}

#[test]
fn cnn_pipeline_runs_end_to_end() {
    let dataset = smoke_dataset(4, 3);
    let aux = smoke_dataset(4, 77);
    let layout = ScaledLayout::paper_default();
    let compressor = train_cnn_scaler(
        &aux,
        &layout,
        &fw_config(),
        &CnnScalingConfig {
            epochs: 8,
            initial_lr: 0.02,
            seed: 9,
        },
    )
    .expect("compressor training");
    let scaled = scale_cnn(&dataset, &compressor, &layout).expect("cnn scaling");
    assert_eq!(scaled.len(), 4);
    for s in &scaled.samples {
        assert_eq!(s.seismic.len(), 256);
        assert!(s.seismic.iter().any(|v| v.abs() > 0.0));
    }
}

#[test]
fn batched_and_unbatched_training_agree_at_batch_one() {
    let dataset = smoke_dataset(5, 4);
    let layout = ScaledLayout::paper_default();
    let scaled = scale_d_sample(&dataset, &layout).expect("scaling");
    let (train, test) = scaled.try_split(4).expect("split within dataset");

    let model = QuGeoVqc::new(VqcConfig::paper_layer_wise()).expect("model");
    let cfg = TrainConfig::smoke(4);
    let solo = Trainer::new(cfg)
        .fit(&mut MiniBatchVqc::new(&model, &train, &test, 1).expect("strategy"))
        .expect("solo");
    let batched = Trainer::new(cfg)
        .fit(&mut QuBatchVqc::new(&model, &train, &test, 1).expect("strategy"))
        .expect("batched");
    // Batch size 1 follows the same sample order and gradients, so the
    // trajectories coincide.
    assert!(
        (solo.final_mse - batched.final_mse).abs() < 1e-9,
        "batch-1 training must match unbatched: {} vs {}",
        solo.final_mse,
        batched.final_mse
    );
}

#[test]
fn decoders_share_the_same_pipeline() {
    let dataset = smoke_dataset(4, 5);
    let layout = ScaledLayout::paper_default();
    let scaled = scale_d_sample(&dataset, &layout).expect("scaling");
    let (train, test) = scaled.try_split(3).expect("split within dataset");

    for decoder in [Decoder::paper_pixel_wise(), Decoder::paper_layer_wise()] {
        let model = QuGeoVqc::new(VqcConfig {
            decoder,
            ..VqcConfig::paper_pixel_wise()
        })
        .expect("model");
        let outcome = Trainer::new(TrainConfig::smoke(3))
            .fit(&mut MiniBatchVqc::new(&model, &train, &test, 1).expect("strategy"))
            .expect("training");
        assert!(outcome.final_mse.is_finite());
        assert_eq!(outcome.params.len(), 576);
    }
}

#[test]
fn dataset_roundtrip_preserves_training_behaviour() {
    let dataset = smoke_dataset(4, 6);
    let dir = std::env::temp_dir().join("qugeo_e2e");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join("ds.bin");
    dataset.save_bin(&path).expect("save");
    let loaded = Dataset::load_bin(&path).expect("load");
    assert_eq!(dataset, loaded);
    std::fs::remove_file(&path).ok();

    let layout = ScaledLayout::paper_default();
    let a = scale_d_sample(&dataset, &layout).expect("scale original");
    let b = scale_d_sample(&loaded, &layout).expect("scale loaded");
    assert_eq!(a.samples, b.samples);
}
