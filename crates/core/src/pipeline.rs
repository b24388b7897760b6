//! QuGeoData: scaling raw FlatVelA-sized samples to the quantum budget.
//!
//! Three scaling routes, compared throughout the paper's evaluation:
//!
//! * [`ScalingMethod::DSample`] — nearest-neighbour resampling of the
//!   raw waveform (the baseline; loses physical coherence, Figure 6),
//! * [`ScalingMethod::ForwardModel`] (`Q-D-FW`) — coarsen the *velocity
//!   model* instead, then re-run acoustic forward modelling at the small
//!   scale with the source wavelet lowered from 15 Hz to 8 Hz so the
//!   coarse sampling still resolves it (Section 3.1.1),
//! * [`ScalingMethod::CnnCompress`] (`Q-D-CNN`) — a CNN trained on
//!   ⟨raw gather, physics-scaled group⟩ pairs compresses raw data
//!   directly; used when no velocity model exists, i.e. on field data
//!   (Section 3.1.2).

use qugeo_geodata::scaling::{
    self, coarsen_velocity, d_sample, select_source_indices, ScaledLayout, ScaledSample,
};
use qugeo_geodata::Dataset;
use qugeo_nn::models::{CnnCompressor, CompressorConfig};
use qugeo_nn::optim::{Adam, CosineAnnealing, LrSchedule, Optimizer};
use qugeo_nn::Model;
use qugeo_tensor::norm::l2_normalized;
use qugeo_tensor::{resample, Array2};
use qugeo_wavesim::{model_shots, Grid, RickerWavelet, SpaceOrder, Survey};

use crate::QuGeoError;

/// Which QuGeoData scaling route produced a [`ScaledDataset`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalingMethod {
    /// Nearest-neighbour baseline ("D-Sample").
    DSample,
    /// Physics-guided forward modelling ("Q-D-FW").
    ForwardModel,
    /// CNN compression ("Q-D-CNN").
    CnnCompress,
}

impl ScalingMethod {
    /// The label used in the paper's tables and figures.
    pub fn label(&self) -> &'static str {
        match self {
            Self::DSample => "D-Sample",
            Self::ForwardModel => "Q-D-FW",
            Self::CnnCompress => "Q-D-CNN",
        }
    }
}

/// A dataset scaled to the quantum layout.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaledDataset {
    /// The scaled samples, in the source dataset's order.
    pub samples: Vec<ScaledSample>,
    /// The route that produced them.
    pub method: ScalingMethod,
    /// The layout they follow.
    pub layout: ScaledLayout,
}

impl ScaledDataset {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` when no samples are present.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Splits into `(first n, rest)`.
    ///
    /// # Errors
    ///
    /// Returns [`QuGeoError::Config`] if `n > self.len()` — an oversized
    /// train split is a recoverable configuration mistake (e.g. a preset
    /// applied to a smoke-sized dataset), not a programming error.
    pub fn try_split(&self, n: usize) -> Result<(Vec<ScaledSample>, Vec<ScaledSample>), QuGeoError> {
        if n > self.samples.len() {
            return Err(QuGeoError::Config {
                reason: format!(
                    "cannot take a train split of {n} from {} samples",
                    self.samples.len()
                ),
            });
        }
        Ok((
            self.samples[..n].to_vec(),
            self.samples[n..].to_vec(),
        ))
    }
}

/// Configuration of the physics-guided (`Q-D-FW`) rescaling.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FwScalingConfig {
    /// Source wavelet frequency for the small-scale modelling (8 Hz in
    /// the paper, down from the raw data's 15 Hz).
    pub wavelet_hz: f64,
    /// Time steps of the small-scale simulation before decimation.
    pub sim_steps: usize,
    /// Time step of the small-scale simulation in seconds.
    pub sim_dt: f64,
    /// Physical extent of the model in metres (OpenFWI: 700 m).
    pub extent_m: f64,
    /// Spatial stencil order.
    pub space_order: SpaceOrder,
}

impl Default for FwScalingConfig {
    fn default() -> Self {
        Self {
            wavelet_hz: 8.0,
            sim_steps: 96,
            sim_dt: 0.01,
            extent_m: 700.0,
            space_order: SpaceOrder::Order4,
        }
    }
}

/// Scales every sample with the D-Sample baseline.
///
/// # Errors
///
/// Returns an error if any sample has fewer sources than the layout, or
/// the layout keeps none.
pub fn scale_d_sample(
    dataset: &Dataset,
    layout: &ScaledLayout,
) -> Result<ScaledDataset, QuGeoError> {
    let samples = dataset
        .iter()
        .map(|s| d_sample(s, layout))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(ScaledDataset {
        samples,
        method: ScalingMethod::DSample,
        layout: *layout,
    })
}

/// Physics-guided scaling of one velocity map: coarsen the model, re-run
/// forward modelling at the coarse scale with a low-frequency wavelet,
/// then decimate the synthetic gathers to the layout.
///
/// Returns the grouped 256-value seismic vector.
///
/// # Errors
///
/// Propagates forward-modelling failures (e.g. CFL violations from an
/// overly aggressive `sim_dt`).
pub fn fw_scale_seismic(
    velocity_full: &Array2,
    layout: &ScaledLayout,
    config: &FwScalingConfig,
) -> Result<Vec<f64>, QuGeoError> {
    let side = layout.velocity_side;
    let coarse = coarsen_velocity(velocity_full, side);

    // `sim_dt` is a *requested* step; clamp it to CFL stability for the
    // coarse model's fastest layer and stretch the step count so the
    // total simulated duration is preserved.
    let dx = config.extent_m / side as f64;
    let vmax = coarse.max();
    let dt_stable = 0.8 * config.space_order.cfl_limit() * dx / vmax.max(1.0);
    let (sim_dt, sim_steps) = if config.sim_dt <= dt_stable {
        (config.sim_dt, config.sim_steps)
    } else {
        let duration = config.sim_dt * config.sim_steps as f64;
        (dt_stable, (duration / dt_stable).ceil() as usize)
    };

    let grid = Grid::new(side, side, dx, sim_dt, sim_steps)?;
    let survey = Survey::surface(side, layout.num_sources, layout.receivers, 1)?;
    let wavelet = RickerWavelet::new(config.wavelet_hz, sim_dt)?;
    let cube = model_shots(&coarse, &grid, &survey, &wavelet, config.space_order)?;

    let mut seismic = Vec::with_capacity(layout.seismic_len());
    for s in 0..layout.num_sources {
        let gather = cube.slice(s); // sim_steps × receivers
        let small = resample::bilinear2(&gather, layout.time_steps, layout.receivers);
        seismic.extend_from_slice(small.as_slice());
    }
    Ok(seismic)
}

/// Scales every sample with physics-guided forward modelling (`Q-D-FW`).
///
/// The velocity *target* stays the nearest-neighbour-scaled map so all
/// three routes regress onto identical ground truth.
///
/// # Errors
///
/// Propagates modelling failures.
pub fn scale_forward_model(
    dataset: &Dataset,
    layout: &ScaledLayout,
    config: &FwScalingConfig,
) -> Result<ScaledDataset, QuGeoError> {
    let mut samples = Vec::with_capacity(dataset.len());
    for s in dataset.iter() {
        let seismic = fw_scale_seismic(s.velocity.map(), layout, config)?;
        let velocity = resample::nearest2(
            s.velocity.map(),
            layout.velocity_side,
            layout.velocity_side,
        );
        samples.push(ScaledSample { seismic, velocity });
    }
    Ok(ScaledDataset {
        samples,
        method: ScalingMethod::ForwardModel,
        layout: *layout,
    })
}

/// Configuration for training the `Q-D-CNN` compressor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CnnScalingConfig {
    /// Training epochs over the auxiliary dataset (paper: 500).
    pub epochs: usize,
    /// Initial Adam learning rate (cosine-annealed).
    pub initial_lr: f64,
    /// Weight-initialisation / shuffling seed.
    pub seed: u64,
}

impl Default for CnnScalingConfig {
    fn default() -> Self {
        Self {
            epochs: 60,
            initial_lr: 0.01,
            seed: 17,
        }
    }
}

/// Trains the CNN compressor of `Q-D-CNN` on an *auxiliary* dataset
/// (the paper uses 500 extra FlatVelA samples): inputs are raw per-source
/// gathers, targets are the ℓ₂-normalised physics-scaled groups.
///
/// One compressor is shared across sources. Training reads the gathers
/// in place: past `aux` itself it holds, per (sample, picked source)
/// pair, the gather's mean and standard deviation and its target, plus
/// one recycled `nt × nr` buffer that each step standardises into.
///
/// # Errors
///
/// Returns an error for empty datasets, samples whose seismic shapes
/// differ, a layout that keeps no sources or more than the data has, or
/// modelling/network failures.
pub fn train_cnn_scaler(
    aux: &Dataset,
    layout: &ScaledLayout,
    fw_config: &FwScalingConfig,
    cnn_config: &CnnScalingConfig,
) -> Result<CnnCompressor, QuGeoError> {
    let first = aux.samples().first().ok_or(QuGeoError::Config {
        reason: "auxiliary dataset is empty".into(),
    })?;
    let (num_sources, nt, nr) = first.seismic.shape();
    if num_sources < layout.num_sources {
        return Err(QuGeoError::Config {
            reason: format!(
                "auxiliary samples have {num_sources} sources, layout needs {}",
                layout.num_sources
            ),
        });
    }

    // Build the ⟨gather, physics-scaled group⟩ training pairs. A pair
    // borrows its raw gather and keeps only the gather's z-score
    // statistics; each step standardises it into one recycled buffer, so
    // no copy of a gather outlives its step.
    let picks = select_source_indices(num_sources, layout.num_sources)?;
    let group_len = layout.group_len();
    let mut inputs: Vec<Gather<'_>> = Vec::with_capacity(aux.len() * picks.len());
    let mut targets: Vec<Vec<f64>> = Vec::with_capacity(aux.len() * picks.len());
    for (i, s) in aux.iter().enumerate() {
        if s.seismic.shape() != (num_sources, nt, nr) {
            return Err(QuGeoError::Config {
                reason: format!(
                    "auxiliary sample {i} has shape {:?}, the first has {:?}",
                    s.seismic.shape(),
                    (num_sources, nt, nr)
                ),
            });
        }
        let fw = fw_scale_seismic(s.velocity.map(), layout, fw_config)?;
        for (gi, &src) in picks.iter().enumerate() {
            inputs.push(Gather::new(s.seismic.plane(src)));
            targets.push(l2_normalized(&fw[gi * group_len..(gi + 1) * group_len]));
        }
    }

    let mut compressor = CnnCompressor::new(
        CompressorConfig {
            input_h: nt,
            input_w: nr,
            out_features: group_len,
        },
        cnn_config.seed,
    )?;

    let mut params = compressor.params();
    let mut adam = Adam::new(params.len(), cnn_config.initial_lr);
    let schedule = CosineAnnealing::new(cnn_config.initial_lr, cnn_config.epochs);
    let mut x = Array2::zeros(nt, nr);
    for epoch in 0..cnn_config.epochs {
        adam.set_learning_rate(schedule.lr_at(epoch));
        for (gather, t) in inputs.iter().zip(&targets) {
            gather.standardize_into(&mut x);
            let (_, grad) = compressor.loss_and_grad(&x, t)?;
            adam.step(&mut params, &grad);
            compressor.set_params(&params);
        }
    }
    Ok(compressor)
}

/// Applies a trained compressor to every sample (`Q-D-CNN`).
///
/// # Errors
///
/// Returns an error if gather shapes disagree with the compressor, or if
/// the layout keeps no sources or more than a sample has.
pub fn scale_cnn(
    dataset: &Dataset,
    compressor: &CnnCompressor,
    layout: &ScaledLayout,
) -> Result<ScaledDataset, QuGeoError> {
    let input = (compressor.config().input_h, compressor.config().input_w);
    let mut x = Array2::zeros(input.0, input.1);
    let mut samples = Vec::with_capacity(dataset.len());
    for s in dataset.iter() {
        let (num_sources, nt, nr) = s.seismic.shape();
        if num_sources < layout.num_sources {
            return Err(QuGeoError::Config {
                reason: format!(
                    "sample has {num_sources} sources, layout needs {}",
                    layout.num_sources
                ),
            });
        }
        let picks = select_source_indices(num_sources, layout.num_sources)?;
        if (nt, nr) != input {
            return Err(QuGeoError::Config {
                reason: format!("sample gathers are {nt}x{nr}, the compressor takes {input:?}"),
            });
        }
        let mut seismic = Vec::with_capacity(layout.seismic_len());
        for &src in &picks {
            Gather::new(s.seismic.plane(src)).standardize_into(&mut x);
            seismic.extend(compressor.forward(&x)?);
        }
        let velocity = resample::nearest2(
            s.velocity.map(),
            layout.velocity_side,
            layout.velocity_side,
        );
        samples.push(ScaledSample { seismic, velocity });
    }
    Ok(ScaledDataset {
        samples,
        method: ScalingMethod::CnnCompress,
        layout: *layout,
    })
}

/// Renders a scaled seismic vector as a stacked image
/// (`sources·time_steps × receivers`) for the waveform-similarity
/// analysis of Figure 6.
///
/// # Errors
///
/// Returns [`QuGeoError::Config`] if the vector does not match the
/// layout.
pub fn scaled_waveform_image(
    seismic: &[f64],
    layout: &ScaledLayout,
) -> Result<Array2, QuGeoError> {
    if seismic.len() != layout.seismic_len() {
        return Err(QuGeoError::Config {
            reason: format!(
                "seismic length {} != layout {}",
                seismic.len(),
                layout.seismic_len()
            ),
        });
    }
    Array2::from_vec(
        layout.num_sources * layout.time_steps,
        layout.receivers,
        seismic.to_vec(),
    )
    .map_err(QuGeoError::from)
}

/// The quantum-encoder view of a scaled waveform: each source group
/// ℓ₂-normalised, as amplitude encoding enforces (Figure 6b).
///
/// # Errors
///
/// Returns [`QuGeoError::Config`] if the vector does not match the
/// layout.
pub fn quantum_normalized_waveform(
    seismic: &[f64],
    layout: &ScaledLayout,
) -> Result<Vec<f64>, QuGeoError> {
    if seismic.len() != layout.seismic_len() {
        return Err(QuGeoError::Config {
            reason: format!(
                "seismic length {} != layout {}",
                seismic.len(),
                layout.seismic_len()
            ),
        });
    }
    let g = layout.group_len();
    let mut out = Vec::with_capacity(seismic.len());
    for chunk in seismic.chunks(g) {
        out.extend(l2_normalized(chunk));
    }
    Ok(out)
}

/// Normalises the velocity target of a scaled sample into `[0, 1]`.
pub fn normalized_target(sample: &ScaledSample) -> Array2 {
    scaling::normalize_velocity(&sample.velocity)
}

/// A raw gather borrowed from its dataset, with the statistics that
/// z-score it (zero mean, unit variance) — the standard input
/// normalisation for the CNN compressor.
struct Gather<'a> {
    values: &'a [f64],
    mean: f64,
    /// Standard deviation, floored at `1e-12` so a constant gather maps
    /// to zeros rather than NaN.
    sd: f64,
}

impl<'a> Gather<'a> {
    /// Computes the statistics once, in `Array2::mean` and
    /// `Array2::variance`'s expressions and order.
    fn new(values: &'a [f64]) -> Self {
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let variance = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
        Self {
            values,
            mean,
            sd: variance.sqrt().max(1e-12),
        }
    }

    /// Writes the z-scored gather into `out`, which has its length.
    fn standardize_into(&self, out: &mut Array2) {
        debug_assert_eq!(out.as_slice().len(), self.values.len());
        for (o, &v) in out.as_mut_slice().iter_mut().zip(self.values) {
            *o = (v - self.mean) / self.sd;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qugeo_geodata::DatasetConfig;

    fn tiny_dataset(n: usize) -> Dataset {
        // 5 sources so the default layout's 4-source pick works.
        let cfg = DatasetConfig {
            num_samples: n,
            grid: Grid::new(24, 24, 10.0, 0.001, 80).unwrap(),
            // 24 receivers: wide enough for the compressor's strided convs.
            survey: Survey::surface(24, 5, 24, 1).unwrap(),
            wavelet_hz: 15.0,
            space_order: SpaceOrder::Order4,
            seed: 31,
        };
        Dataset::generate(&cfg).unwrap()
    }

    fn fast_fw() -> FwScalingConfig {
        FwScalingConfig {
            sim_steps: 48,
            ..FwScalingConfig::default()
        }
    }

    #[test]
    fn d_sample_scaling_end_to_end() {
        let ds = tiny_dataset(2);
        let layout = ScaledLayout::paper_default();
        let scaled = scale_d_sample(&ds, &layout).unwrap();
        assert_eq!(scaled.len(), 2);
        assert_eq!(scaled.method, ScalingMethod::DSample);
        for s in &scaled.samples {
            assert_eq!(s.seismic.len(), 256);
            assert_eq!(s.velocity.shape(), (8, 8));
        }
    }

    #[test]
    fn fw_scaling_produces_wave_signal() {
        let ds = tiny_dataset(1);
        let layout = ScaledLayout::paper_default();
        let scaled = scale_forward_model(&ds, &layout, &fast_fw()).unwrap();
        let s = &scaled.samples[0];
        assert_eq!(s.seismic.len(), 256);
        let energy: f64 = s.seismic.iter().map(|v| v * v).sum();
        assert!(energy > 0.0, "forward-modelled seismic has no signal");
        // Every group must carry signal (each source fired).
        for g in 0..4 {
            let ge: f64 = s.seismic[g * 64..(g + 1) * 64].iter().map(|v| v * v).sum();
            assert!(ge > 0.0, "group {g} silent");
        }
    }

    #[test]
    fn fw_and_d_sample_share_velocity_targets() {
        let ds = tiny_dataset(1);
        let layout = ScaledLayout::paper_default();
        let a = scale_d_sample(&ds, &layout).unwrap();
        let b = scale_forward_model(&ds, &layout, &fast_fw()).unwrap();
        assert_eq!(a.samples[0].velocity, b.samples[0].velocity);
    }

    #[test]
    fn cnn_scaler_learns_to_approximate_fw() {
        let ds = tiny_dataset(3);
        let layout = ScaledLayout::paper_default();
        let fw_cfg = fast_fw();
        let compressor = train_cnn_scaler(
            &ds,
            &layout,
            &fw_cfg,
            &CnnScalingConfig {
                epochs: 25,
                initial_lr: 0.02,
                seed: 3,
            },
        )
        .unwrap();

        // Compare CNN-scaled output against FW-scaled reference, group by
        // group, after the quantum normalisation both would get anyway.
        let fw = scale_forward_model(&ds, &layout, &fw_cfg).unwrap();
        let cnn = scale_cnn(&ds, &compressor, &layout).unwrap();
        let mut cos_total = 0.0;
        let mut count = 0;
        for (f, c) in fw.samples.iter().zip(&cnn.samples) {
            for g in 0..4 {
                let fg = l2_normalized(&f.seismic[g * 64..(g + 1) * 64]);
                let cg = l2_normalized(&c.seismic[g * 64..(g + 1) * 64]);
                cos_total += fg.iter().zip(&cg).map(|(a, b)| a * b).sum::<f64>();
                count += 1;
            }
        }
        let mean_cosine = cos_total / count as f64;
        assert!(
            mean_cosine > 0.5,
            "CNN compression failed to track physics scaling (cosine {mean_cosine:.3})"
        );
    }

    /// FNV-1a over the bit patterns of `values`.
    fn bits_digest(values: &[f64]) -> u64 {
        values.iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
            v.to_bits()
                .to_le_bytes()
                .iter()
                .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
        })
    }

    #[test]
    fn classical_pipeline_is_pinned_bit_for_bit() {
        // Compressor training, Q-D-CNN scaling and a CNN-LY fit on the
        // compressed data, end to end. The digests are those of the plain
        // scalar loops the `qugeo-nn` kernels replaced; any change to a
        // conv, ReLU, linear or Adam accumulation order moves them.
        use crate::train::{RegressorStep, TrainConfig, Trainer};
        use qugeo_nn::models::{CnnRegressor, RegressorConfig};

        let ds = tiny_dataset(3);
        let layout = ScaledLayout::paper_default();
        let compressor = train_cnn_scaler(
            &ds,
            &layout,
            &fast_fw(),
            &CnnScalingConfig {
                epochs: 3,
                initial_lr: 0.02,
                seed: 3,
            },
        )
        .unwrap();
        let cnn = scale_cnn(&ds, &compressor, &layout).unwrap();
        let (train, test) = cnn.try_split(2).unwrap();
        let mut model = CnnRegressor::new(RegressorConfig::layer_wise(), 5).unwrap();
        let outcome = Trainer::new(TrainConfig {
            epochs: 4,
            initial_lr: 0.02,
            seed: 1,
            eval_every: 0,
        })
        .fit(&mut RegressorStep::new(&mut model, &train, &test, layout.group_len()).unwrap())
        .unwrap();

        let features: Vec<f64> = cnn.samples.iter().flat_map(|s| s.seismic.clone()).collect();
        let digests = [
            bits_digest(&compressor.params()),
            bits_digest(&features),
            bits_digest(&outcome.params),
        ];
        assert_eq!(
            digests,
            [
                0xb329_e816_1f93_ff64,
                0xc364_1be2_36a8_2220,
                0xa798_2962_f5ef_6f32
            ],
            "compressor params, Q-D-CNN features, CNN-LY params"
        );
    }

    /// The compressor loop as it was before training streamed its
    /// inputs: every picked gather z-scored once into its own copy, all
    /// of them kept for the whole of training. Frozen as the oracle for
    /// the streamed [`train_cnn_scaler`].
    fn frozen_train_cnn_scaler(
        aux: &Dataset,
        layout: &ScaledLayout,
        fw_config: &FwScalingConfig,
        cnn_config: &CnnScalingConfig,
    ) -> CnnCompressor {
        let (num_sources, nt, nr) = aux.samples()[0].seismic.shape();
        let picks = select_source_indices(num_sources, layout.num_sources).unwrap();
        let group_len = layout.group_len();
        let mut inputs: Vec<Array2> = Vec::new();
        let mut targets: Vec<Vec<f64>> = Vec::new();
        for s in aux.iter() {
            let fw = fw_scale_seismic(s.velocity.map(), layout, fw_config).unwrap();
            for (gi, &src) in picks.iter().enumerate() {
                inputs.push(frozen_standardize_gather(&s.seismic.slice(src)));
                targets.push(l2_normalized(&fw[gi * group_len..(gi + 1) * group_len]));
            }
        }
        let mut compressor = CnnCompressor::new(
            CompressorConfig {
                input_h: nt,
                input_w: nr,
                out_features: group_len,
            },
            cnn_config.seed,
        )
        .unwrap();
        let mut params = compressor.params();
        let mut adam = Adam::new(params.len(), cnn_config.initial_lr);
        let schedule = CosineAnnealing::new(cnn_config.initial_lr, cnn_config.epochs);
        for epoch in 0..cnn_config.epochs {
            adam.set_learning_rate(schedule.lr_at(epoch));
            for (x, t) in inputs.iter().zip(&targets) {
                let (_, grad) = compressor.loss_and_grad(x, t).unwrap();
                adam.step(&mut params, &grad);
                compressor.set_params(&params);
            }
        }
        compressor
    }

    /// The frozen `scale_cnn` features: each picked gather copied out,
    /// z-scored into a second copy and compressed.
    fn frozen_cnn_features(
        dataset: &Dataset,
        compressor: &CnnCompressor,
        layout: &ScaledLayout,
    ) -> Vec<f64> {
        let mut features = Vec::new();
        for s in dataset.iter() {
            let picks = select_source_indices(s.seismic.shape().0, layout.num_sources).unwrap();
            for &src in &picks {
                let gather = frozen_standardize_gather(&s.seismic.slice(src));
                features.extend(compressor.forward(&gather).unwrap());
            }
        }
        features
    }

    fn frozen_standardize_gather(gather: &Array2) -> Array2 {
        let mean = gather.mean();
        let sd = gather.variance().sqrt().max(1e-12);
        gather.map(|v| (v - mean) / sd)
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// `tiny_dataset(3)` with one picked gather of its second sample set
    /// to a constant, whose standard deviation falls under the `1e-12`
    /// floor.
    fn dataset_with_a_constant_gather() -> Dataset {
        let mut samples = tiny_dataset(3).samples().to_vec();
        let cube = &mut samples[1].seismic;
        let (num_sources, nt, nr) = cube.shape();
        let src = select_source_indices(num_sources, 4).unwrap()[2];
        let constant = Array2::filled(nt, nr, 0.1);
        assert!(constant.variance().sqrt() < 1e-12, "the floor must apply");
        cube.set_slice(src, &constant).unwrap();
        Dataset::from_samples(samples)
    }

    #[test]
    fn streamed_compressor_matches_the_frozen_materialised_loop_bit_for_bit() {
        let layout = ScaledLayout::paper_default();
        let fw_cfg = fast_fw();
        for (ds, runs) in [
            (tiny_dataset(3), [(3, 1), (11, 2), (2024, 4)]),
            (dataset_with_a_constant_gather(), [(3, 2), (7, 3), (17, 1)]),
        ] {
            for (seed, epochs) in runs {
                let cfg = CnnScalingConfig {
                    epochs,
                    initial_lr: 0.02,
                    seed,
                };
                let streamed = train_cnn_scaler(&ds, &layout, &fw_cfg, &cfg).unwrap();
                let frozen = frozen_train_cnn_scaler(&ds, &layout, &fw_cfg, &cfg);
                assert_eq!(
                    bits(&streamed.params()),
                    bits(&frozen.params()),
                    "compressor params at seed {seed}, {epochs} epochs"
                );
                let features: Vec<f64> = scale_cnn(&ds, &streamed, &layout)
                    .unwrap()
                    .samples
                    .iter()
                    .flat_map(|s| s.seismic.clone())
                    .collect();
                assert_eq!(
                    bits(&features),
                    bits(&frozen_cnn_features(&ds, &frozen, &layout)),
                    "Q-D-CNN features at seed {seed}, {epochs} epochs"
                );
            }
        }
    }

    #[test]
    fn compressor_rejects_mismatched_gather_shapes() {
        let layout = ScaledLayout::paper_default();
        let mut samples = tiny_dataset(2).samples().to_vec();
        let (num_sources, nt, nr) = samples[1].seismic.shape();
        samples[1].seismic = qugeo_tensor::Array3::zeros(num_sources, nt, nr - 1);
        let mixed = Dataset::from_samples(samples);
        let result = train_cnn_scaler(&mixed, &layout, &fast_fw(), &CnnScalingConfig::default());
        assert!(matches!(result, Err(QuGeoError::Config { .. })), "{result:?}");

        let compressor = CnnCompressor::new(
            CompressorConfig {
                input_h: nt,
                input_w: nr,
                out_features: layout.group_len(),
            },
            0,
        )
        .unwrap();
        let result = scale_cnn(&mixed, &compressor, &layout);
        assert!(matches!(result, Err(QuGeoError::Config { .. })), "{result:?}");
    }

    fn sourceless_layout() -> ScaledLayout {
        ScaledLayout {
            num_sources: 0,
            ..ScaledLayout::paper_default()
        }
    }

    #[test]
    fn cnn_scaler_training_rejects_a_layout_without_sources() {
        let ds = tiny_dataset(1);
        let result = train_cnn_scaler(
            &ds,
            &sourceless_layout(),
            &fast_fw(),
            &CnnScalingConfig::default(),
        );
        assert!(matches!(result, Err(QuGeoError::Data(_))), "{result:?}");
    }

    #[test]
    fn cnn_scaling_rejects_a_layout_without_sources() {
        let ds = tiny_dataset(1);
        let (_, nt, nr) = ds.samples()[0].seismic.shape();
        let compressor = CnnCompressor::new(
            CompressorConfig {
                input_h: nt,
                input_w: nr,
                out_features: 64,
            },
            0,
        )
        .unwrap();
        let result = scale_cnn(&ds, &compressor, &sourceless_layout());
        assert!(matches!(result, Err(QuGeoError::Data(_))), "{result:?}");
    }

    #[test]
    fn d_sample_scaling_rejects_a_layout_without_sources() {
        let result = scale_d_sample(&tiny_dataset(1), &sourceless_layout());
        assert!(matches!(result, Err(QuGeoError::Data(_))), "{result:?}");
    }

    #[test]
    fn waveform_image_and_normalisation() {
        let layout = ScaledLayout::paper_default();
        let seismic: Vec<f64> = (0..256).map(|i| i as f64).collect();
        let img = scaled_waveform_image(&seismic, &layout).unwrap();
        assert_eq!(img.shape(), (32, 8));
        assert!(scaled_waveform_image(&seismic[..100], &layout).is_err());

        let qn = quantum_normalized_waveform(&seismic, &layout).unwrap();
        for chunk in qn.chunks(64) {
            let norm: f64 = chunk.iter().map(|v| v * v).sum();
            assert!((norm - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn split_partitions_scaled() {
        let ds = tiny_dataset(3);
        let layout = ScaledLayout::paper_default();
        let scaled = scale_d_sample(&ds, &layout).unwrap();
        let (train, test) = scaled.try_split(2).unwrap();
        assert_eq!(train.len(), 2);
        assert_eq!(test.len(), 1);
        assert!(scaled.try_split(3).is_ok());
        assert!(matches!(
            scaled.try_split(4),
            Err(QuGeoError::Config { .. })
        ));
    }

    #[test]
    fn method_labels() {
        assert_eq!(ScalingMethod::DSample.label(), "D-Sample");
        assert_eq!(ScalingMethod::ForwardModel.label(), "Q-D-FW");
        assert_eq!(ScalingMethod::CnnCompress.label(), "Q-D-CNN");
    }
}
