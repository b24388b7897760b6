//! Shared experiment harness for the per-figure/per-table binaries.
//!
//! Every binary follows the same pattern:
//!
//! 1. parse a [`Preset`] from the command line (`--smoke`, default, or
//!    `--full` = the paper's exact scale, plus `--samples`/`--epochs`
//!    overrides),
//! 2. obtain the synthetic FlatVelA-style dataset (cached on disk under
//!    `target/qugeo-cache/` so repeated experiment runs skip the FDTD
//!    cost),
//! 3. build the scaled datasets and models it needs,
//! 4. print the table/series the paper reports, with the paper's own
//!    numbers alongside for shape comparison.

use std::path::PathBuf;

use qugeo::pipeline::{
    scale_cnn, scale_d_sample, scale_forward_model, train_cnn_scaler, CnnScalingConfig,
    FwScalingConfig, ScaledDataset,
};
use qugeo::QuGeoError;
use qugeo_geodata::scaling::ScaledLayout;
use qugeo_geodata::{Dataset, DatasetConfig};
use qugeo_nn::models::CnnCompressor;
use qugeo_wavesim::{Grid, SpaceOrder, Survey};

/// Scale of an experiment run.
#[derive(Debug, Clone, PartialEq)]
pub struct Preset {
    /// Human-readable name printed in headers.
    pub name: &'static str,
    /// Total FlatVelA-style samples (paper: 500).
    pub num_samples: usize,
    /// Leading samples used for training (paper: 400).
    pub train_count: usize,
    /// Training epochs (paper: 500).
    pub epochs: usize,
    /// Auxiliary samples for the Q-D-CNN compressor (paper: 500 extra).
    pub aux_samples: usize,
    /// Compressor training epochs.
    pub cnn_epochs: usize,
    /// Model grid (paper: OpenFWI 70×70, 1000 steps).
    pub grid: Grid,
    /// Acquisition geometry (paper: 5 sources, 70 receivers).
    pub survey: Survey,
    /// Master seed.
    pub seed: u64,
}

impl Preset {
    /// The default preset: the paper's geometry at reduced sample/epoch
    /// counts, sized to finish in minutes.
    pub fn default_scale() -> Self {
        Self {
            name: "default",
            num_samples: 80,
            train_count: 60,
            epochs: 80,
            aux_samples: 60,
            cnn_epochs: 80,
            grid: Grid::openfwi_default(),
            survey: Survey::openfwi_default(),
            seed: 2024,
        }
    }

    /// A seconds-scale smoke preset on a shrunken geometry.
    pub fn smoke() -> Self {
        Self {
            name: "smoke",
            num_samples: 12,
            train_count: 9,
            epochs: 15,
            aux_samples: 6,
            cnn_epochs: 10,
            grid: Grid::new(32, 32, 10.0, 0.001, 128).expect("static grid"),
            survey: Survey::surface(32, 5, 32, 1).expect("static survey"),
            seed: 2024,
        }
    }

    /// The paper's full scale: 500 samples (400/100), 500 epochs.
    pub fn full() -> Self {
        Self {
            name: "full",
            num_samples: 500,
            train_count: 400,
            epochs: 500,
            aux_samples: 500,
            cnn_epochs: 200,
            ..Self::default_scale()
        }
    }

    /// Parses `--smoke` / `--full` / `--samples N` / `--epochs N` from
    /// the process arguments.
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().collect();
        let mut preset = if args.iter().any(|a| a == "--smoke") {
            Self::smoke()
        } else if args.iter().any(|a| a == "--full") {
            Self::full()
        } else {
            Self::default_scale()
        };
        let grab = |flag: &str| -> Option<usize> {
            args.iter()
                .position(|a| a == flag)
                .and_then(|i| args.get(i + 1))
                .and_then(|v| v.parse().ok())
        };
        if let Some(n) = grab("--samples") {
            preset.num_samples = n;
            preset.train_count = n * 4 / 5;
        }
        if let Some(e) = grab("--epochs") {
            preset.epochs = e;
        }
        if let Some(s) = grab("--seed") {
            preset.seed = s as u64;
        }
        preset
    }

    /// The forward-modelling rescaling configuration matching this
    /// preset's physical extent.
    pub fn fw_config(&self) -> FwScalingConfig {
        FwScalingConfig {
            extent_m: self.grid.extent_x(),
            ..FwScalingConfig::default()
        }
    }

    /// Dataset configuration for the evaluation samples.
    pub fn dataset_config(&self) -> DatasetConfig {
        DatasetConfig {
            num_samples: self.num_samples,
            grid: self.grid,
            survey: self.survey.clone(),
            wavelet_hz: 15.0,
            space_order: SpaceOrder::Order4,
            seed: self.seed,
        }
    }

    /// Dataset configuration for the auxiliary (compressor-training)
    /// samples — disjoint seed range from the evaluation set.
    pub fn aux_config(&self) -> DatasetConfig {
        DatasetConfig {
            num_samples: self.aux_samples,
            seed: self.seed.wrapping_add(0xA0_000),
            ..self.dataset_config()
        }
    }
}

/// Location of the on-disk dataset cache.
pub fn cache_dir() -> PathBuf {
    let root = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
    let dir = PathBuf::from(root).join("qugeo-cache");
    std::fs::create_dir_all(&dir).ok();
    dir
}

/// Generates a dataset or loads it from the cache.
///
/// # Errors
///
/// Propagates generation errors; cache corruption falls back to
/// regeneration.
pub fn cached_dataset(tag: &str, config: &DatasetConfig) -> Result<Dataset, QuGeoError> {
    let key = format!(
        "{tag}-{}x{}-n{}-s{}-nt{}.bin",
        config.grid.nz(),
        config.grid.nx(),
        config.num_samples,
        config.seed,
        config.grid.nt()
    );
    let path = cache_dir().join(key);
    if path.exists() {
        if let Ok(ds) = Dataset::load_bin(&path) {
            if ds.len() == config.num_samples {
                return Ok(ds);
            }
        }
    }
    let ds = Dataset::generate(config)?;
    ds.save_bin(&path).ok(); // cache failures are non-fatal
    Ok(ds)
}

/// The three scaled datasets of the paper's comparison, in the order
/// (D-Sample, Q-D-FW, Q-D-CNN), plus the trained compressor.
pub struct ScaledTriple {
    /// Nearest-neighbour baseline.
    pub d_sample: ScaledDataset,
    /// Physics-guided forward modelling.
    pub fw: ScaledDataset,
    /// CNN compression.
    pub cnn: ScaledDataset,
    /// The compressor behind `cnn`.
    pub compressor: CnnCompressor,
}

/// Builds all three scaled datasets for a preset.
///
/// The raw sets are held one at a time: the auxiliary set is loaded,
/// trains the compressor and is dropped before the evaluation set is
/// loaded and scaled three ways.
///
/// # Errors
///
/// Propagates scaling and training errors.
pub fn build_scaled_triple(preset: &Preset) -> Result<ScaledTriple, QuGeoError> {
    let layout = ScaledLayout::paper_default();
    let fw_cfg = preset.fw_config();

    let aux = cached_dataset("aux", &preset.aux_config())?;
    eprintln!(
        "[harness] training Q-D-CNN compressor ({} aux samples, {} epochs)…",
        preset.aux_samples, preset.cnn_epochs
    );
    let compressor = train_cnn_scaler(
        &aux,
        &layout,
        &fw_cfg,
        &CnnScalingConfig {
            epochs: preset.cnn_epochs,
            initial_lr: 0.01,
            seed: preset.seed ^ 0x5A5A,
        },
    )?;
    drop(aux);

    let dataset = cached_dataset("eval", &preset.dataset_config())?;
    eprintln!("[harness] scaling with D-Sample…");
    let d_sample = scale_d_sample(&dataset, &layout)?;
    eprintln!("[harness] scaling with Q-D-FW…");
    let fw = scale_forward_model(&dataset, &layout, &fw_cfg)?;
    eprintln!("[harness] scaling with Q-D-CNN…");
    let cnn = scale_cnn(&dataset, &compressor, &layout)?;

    Ok(ScaledTriple {
        d_sample,
        fw,
        cnn,
        compressor,
    })
}

/// Prints a horizontal rule sized to the harness' tables.
pub fn rule() {
    println!("{}", "-".repeat(72));
}

/// Prints the standard experiment header.
pub fn header(title: &str, preset: &Preset) {
    println!("{}", "=".repeat(72));
    println!("{title}");
    println!(
        "preset: {} ({} samples = {} train / {} test, {} epochs, seed {})",
        preset.name,
        preset.num_samples,
        preset.train_count,
        preset.num_samples - preset.train_count,
        preset.epochs,
        preset.seed
    );
    println!("{}", "=".repeat(72));
}

/// Formats a relative improvement in percent, as the paper's "vs BL"
/// columns do (positive = better than baseline).
pub fn improvement_pct(value: f64, baseline: f64, higher_is_better: bool) -> f64 {
    if baseline == 0.0 {
        return 0.0;
    }
    if higher_is_better {
        (value - baseline) / baseline * 100.0
    } else {
        (baseline - value) / baseline * 100.0
    }
}

/// Vertical-profile reporting shared by the `fig7` and `fig9` binaries.
pub mod report {
    use qugeo::model::QuGeoVqc;
    use qugeo::profile::{
        column_for_distance, compare_interfaces, profile_similarity, vertical_profile,
    };
    use qugeo::QuGeoError;
    use qugeo_geodata::scaling::{denormalize_velocity, ScaledSample};

    /// The paper profiles at x = 400 m.
    pub const PROFILE_DISTANCE_M: f64 = 400.0;
    /// Velocity step (m/s) that counts as a layer interface.
    pub const INTERFACE_THRESHOLD: f64 = 200.0;

    /// One row of the Figure 7/9 profile analysis.
    #[derive(Debug, Clone)]
    pub struct ProfileReport {
        /// Label of the (model, dataset) combination.
        pub label: String,
        /// SSIM between true and predicted profile.
        pub profile_ssim: f64,
        /// True interface count.
        pub true_interfaces: usize,
        /// Matched interface count (±1 cell).
        pub matched: usize,
        /// Matched interfaces with the correct layer ordering.
        pub correct_order: usize,
        /// The predicted profile in m/s.
        pub predicted: Vec<f64>,
        /// The true profile in m/s.
        pub truth: Vec<f64>,
    }

    /// Runs the profile analysis of one trained model on one sample.
    ///
    /// # Errors
    ///
    /// Propagates prediction failures.
    pub fn analyze(
        label: &str,
        model: &QuGeoVqc,
        params: &[f64],
        sample: &ScaledSample,
        extent_m: f64,
    ) -> Result<ProfileReport, QuGeoError> {
        let pred_norm = model.predict(&sample.seismic, params)?;
        let pred = denormalize_velocity(&pred_norm);
        let side = sample.velocity.cols();
        let col = column_for_distance(side, PROFILE_DISTANCE_M, extent_m);
        let truth = vertical_profile(&sample.velocity, col)?;
        let predicted = vertical_profile(&pred, col)?;
        let cmp = compare_interfaces(&truth, &predicted, INTERFACE_THRESHOLD);
        Ok(ProfileReport {
            label: label.to_string(),
            profile_ssim: profile_similarity(&truth, &predicted)?,
            true_interfaces: cmp.true_interfaces.len(),
            matched: cmp.matched,
            correct_order: cmp.correct_order,
            predicted,
            truth,
        })
    }

    /// Prints one report as a table block.
    pub fn print(report: &ProfileReport) {
        println!("\n{}", report.label);
        println!("  depth   truth (m/s)   predicted (m/s)");
        for (i, (t, p)) in report.truth.iter().zip(&report.predicted).enumerate() {
            println!("  {:>5}   {:>11.0}   {:>15.0}", i, t, p);
        }
        println!(
            "  profile SSIM {:.4} | interfaces: {} true, {} matched, {} correct order",
            report.profile_ssim, report.true_interfaces, report.matched, report.correct_order
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_scale_sensibly() {
        let smoke = Preset::smoke();
        let default = Preset::default_scale();
        let full = Preset::full();
        assert!(smoke.num_samples < default.num_samples);
        assert!(default.num_samples < full.num_samples);
        assert_eq!(full.num_samples, 500);
        assert_eq!(full.train_count, 400);
        assert_eq!(full.epochs, 500);
        assert!(smoke.train_count < smoke.num_samples);
    }

    #[test]
    fn fw_config_tracks_extent() {
        let p = Preset::smoke();
        assert_eq!(p.fw_config().extent_m, p.grid.extent_x());
    }

    #[test]
    fn improvement_signs() {
        // Higher-is-better (SSIM): 0.9 vs 0.8 baseline = +12.5%.
        assert!((improvement_pct(0.9, 0.8, true) - 12.5).abs() < 1e-9);
        // Lower-is-better (MSE): 0.5 vs 1.0 baseline = +50%.
        assert!((improvement_pct(0.5, 1.0, false) - 50.0).abs() < 1e-9);
        assert_eq!(improvement_pct(1.0, 0.0, true), 0.0);
    }

    #[test]
    fn cache_dir_exists() {
        assert!(cache_dir().exists());
    }

    #[test]
    fn aux_config_uses_disjoint_seed() {
        let p = Preset::smoke();
        assert_ne!(p.aux_config().seed, p.dataset_config().seed);
    }
}
