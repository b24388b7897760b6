//! Epoch callbacks: observe (and optionally stop) a training run.
//!
//! Callbacks run after every epoch, in the order they were added to the
//! [`Trainer`](super::Trainer). Each one may enrich the epoch's
//! [`EpochStats`] record before it enters the history, and may request
//! an early stop. Three ship:
//!
//! * [`EarlyStopping`] — stop when test MSE stops improving;
//! * [`PeriodicCheckpoint`] — capture + save a
//!   [`Checkpoint`](crate::checkpoint::Checkpoint) every N epochs;
//! * [`MetricsRecorder`] — record per-epoch wall-clock and gradient
//!   norm into [`EpochStats`].

use std::path::{Path, PathBuf};

use crate::checkpoint::Checkpoint;
use crate::model::QuGeoVqc;
use crate::QuGeoError;

use super::EpochStats;

/// What a callback tells the engine to do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallbackFlow {
    /// Keep training.
    Continue,
    /// Stop after this epoch; the history is truncated here and the
    /// final evaluation runs on the current parameters.
    Stop,
}

/// Read-only view of the training state handed to callbacks each epoch.
#[derive(Debug, Clone, Copy)]
pub struct EpochContext<'a> {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Current parameter vector (after this epoch's updates).
    pub params: &'a [f64],
    /// History of all *prior* epochs (this epoch's stats are the
    /// mutable argument of [`Callback::on_epoch_end`]).
    pub prior_history: &'a [EpochStats],
    /// Mean gradient ℓ₂ norm over this epoch's optimiser steps.
    pub grad_norm: f64,
    /// Wall-clock seconds this epoch took (updates + evaluation).
    pub wall_clock_secs: f64,
    /// The optimiser's serialised moment state after this epoch's
    /// updates ([`Optimizer::state`](qugeo_nn::optim::Optimizer::state)),
    /// so checkpoint callbacks can capture everything a bit-identical
    /// resume needs.
    pub opt_state: &'a [f64],
}

/// An observer of training epochs.
pub trait Callback {
    /// Runs after each epoch, before its stats enter the history. May
    /// mutate `stats` (e.g. attach extra metrics) and may stop the run.
    ///
    /// # Errors
    ///
    /// A callback error aborts training (e.g. a failed checkpoint
    /// write).
    fn on_epoch_end(
        &mut self,
        stats: &mut EpochStats,
        ctx: &EpochContext<'_>,
    ) -> Result<CallbackFlow, QuGeoError>;
}

/// Records per-epoch wall-clock time and mean gradient norm into
/// [`EpochStats::wall_clock_secs`] / [`EpochStats::grad_norm`].
///
/// Kept out of the default stack so that runs without it reproduce the
/// legacy history records field-for-field.
#[derive(Debug, Clone, Copy, Default)]
pub struct MetricsRecorder;

impl Callback for MetricsRecorder {
    fn on_epoch_end(
        &mut self,
        stats: &mut EpochStats,
        ctx: &EpochContext<'_>,
    ) -> Result<CallbackFlow, QuGeoError> {
        stats.grad_norm = Some(ctx.grad_norm);
        stats.wall_clock_secs = Some(ctx.wall_clock_secs);
        Ok(CallbackFlow::Continue)
    }
}

/// Stops training when test MSE has not improved for `patience`
/// consecutive evaluations.
///
/// Only epochs that evaluate count (see
/// [`TrainConfig::eval_every`](super::TrainConfig::eval_every)); an
/// improvement is a drop of more than `min_delta` below the best MSE
/// seen so far.
#[derive(Debug, Clone)]
pub struct EarlyStopping {
    patience: usize,
    min_delta: f64,
    best: Option<f64>,
    strikes: usize,
}

impl EarlyStopping {
    /// Stop after `patience` consecutive non-improving evaluations;
    /// improvements smaller than `min_delta` don't count.
    ///
    /// # Errors
    ///
    /// Returns [`QuGeoError::Config`] when `patience == 0`, or when
    /// `min_delta` is NaN or negative: either makes the improvement test
    /// pass on (almost) every evaluation, so the callback would silently
    /// never stop the run.
    pub fn new(patience: usize, min_delta: f64) -> Result<Self, QuGeoError> {
        if patience == 0 {
            return Err(QuGeoError::Config {
                reason: "early-stopping patience must be >= 1".into(),
            });
        }
        if min_delta.is_nan() || min_delta < 0.0 {
            return Err(QuGeoError::Config {
                reason: format!("early-stopping min_delta must be >= 0, got {min_delta}"),
            });
        }
        Ok(Self {
            patience,
            min_delta,
            best: None,
            strikes: 0,
        })
    }

    /// Best (lowest) test MSE observed so far, if any epoch evaluated.
    pub fn best_mse(&self) -> Option<f64> {
        self.best
    }
}

impl Callback for EarlyStopping {
    fn on_epoch_end(
        &mut self,
        stats: &mut EpochStats,
        _ctx: &EpochContext<'_>,
    ) -> Result<CallbackFlow, QuGeoError> {
        let Some(mse) = stats.test_mse else {
            return Ok(CallbackFlow::Continue);
        };
        match self.best {
            Some(best) if mse >= best - self.min_delta => {
                self.strikes += 1;
                if self.strikes >= self.patience {
                    return Ok(CallbackFlow::Stop);
                }
            }
            _ => {
                self.best = Some(mse);
                self.strikes = 0;
            }
        }
        Ok(CallbackFlow::Continue)
    }
}

/// Captures and saves a [`Checkpoint`] of the current parameters every
/// `every` epochs, wiring the engine to `checkpoint.rs` so long runs can
/// be resumed or evaluated mid-flight.
///
/// Files land in `dir` as `<label>-epoch<NNNN>.ckpt`.
#[derive(Debug, Clone)]
pub struct PeriodicCheckpoint {
    model: QuGeoVqc,
    dir: PathBuf,
    every: usize,
    label: String,
}

impl PeriodicCheckpoint {
    /// Checkpoint `model`'s parameters into `dir` every `every` epochs.
    /// The model is cloned so the callback can outlive the borrow the
    /// training strategy holds.
    ///
    /// # Errors
    ///
    /// Returns [`QuGeoError::Config`] if `every == 0` or `dir` cannot be
    /// created.
    pub fn new(
        model: &QuGeoVqc,
        dir: &Path,
        every: usize,
        label: &str,
    ) -> Result<Self, QuGeoError> {
        if every == 0 {
            return Err(QuGeoError::Config {
                reason: "checkpoint interval must be positive".into(),
            });
        }
        std::fs::create_dir_all(dir).map_err(|e| QuGeoError::Config {
            reason: format!("cannot create checkpoint dir {}: {e}", dir.display()),
        })?;
        Ok(Self {
            model: model.clone(),
            dir: dir.to_path_buf(),
            every,
            label: label.to_string(),
        })
    }

    /// The path a given epoch's checkpoint is written to.
    pub fn path_for_epoch(&self, epoch: usize) -> PathBuf {
        self.dir.join(format!("{}-epoch{epoch:04}.ckpt", self.label))
    }

    /// Scans `dir` for the most advanced *valid* resume checkpoint
    /// written by a [`PeriodicCheckpoint`] with this `label`, for
    /// [`Trainer::fit_resuming`](super::Trainer::fit_resuming).
    ///
    /// Artifacts that fail to load (torn by a crash mid-write, CRC
    /// mismatch), don't match `model`, or carry no resume metadata
    /// (legacy v1 files, plain [`Checkpoint::capture`] snapshots) are
    /// skipped, so a corrupted latest file falls back to the newest
    /// intact one. Returns `Ok(None)` when no usable checkpoint exists —
    /// including when `dir` itself is missing, so cold starts need no
    /// special casing.
    ///
    /// # Errors
    ///
    /// Returns [`QuGeoError::Config`] only if `dir` exists but cannot be
    /// read (permissions, not a directory).
    pub fn latest_valid(
        dir: &Path,
        label: &str,
        model: &QuGeoVqc,
    ) -> Result<Option<Checkpoint>, QuGeoError> {
        if !dir.exists() {
            return Ok(None);
        }
        let entries = std::fs::read_dir(dir).map_err(|e| QuGeoError::Config {
            reason: format!("cannot scan checkpoint dir {}: {e}", dir.display()),
        })?;
        let prefix = format!("{label}-epoch");
        let mut best: Option<Checkpoint> = None;
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if !name.starts_with(&prefix) || !name.ends_with(".ckpt") {
                continue;
            }
            // Damaged or foreign artifacts are skipped, not fatal: the
            // whole point of the scan is surviving a torn latest file.
            let Ok(ckpt) = Checkpoint::load(&entry.path()) else {
                continue;
            };
            if ckpt.label != label || ckpt.epoch.is_none() || ckpt.restore_into(model).is_err() {
                continue;
            }
            if best.as_ref().is_none_or(|b| ckpt.epoch > b.epoch) {
                best = Some(ckpt);
            }
        }
        Ok(best)
    }
}

impl Callback for PeriodicCheckpoint {
    fn on_epoch_end(
        &mut self,
        _stats: &mut EpochStats,
        ctx: &EpochContext<'_>,
    ) -> Result<CallbackFlow, QuGeoError> {
        if (ctx.epoch + 1).is_multiple_of(self.every) {
            let ckpt = Checkpoint::capture_training(
                &self.model,
                ctx.params,
                &self.label,
                ctx.epoch,
                ctx.opt_state,
            )?;
            ckpt.save(&self.path_for_epoch(ctx.epoch))?;
        }
        Ok(CallbackFlow::Continue)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(epoch: usize, test_mse: Option<f64>) -> EpochStats {
        EpochStats {
            epoch,
            train_loss: 1.0,
            test_mse,
            test_ssim: test_mse.map(|_| 0.5),
            grad_norm: None,
            wall_clock_secs: None,
        }
    }

    fn ctx<'a>(epoch: usize, params: &'a [f64], prior: &'a [EpochStats]) -> EpochContext<'a> {
        EpochContext {
            epoch,
            params,
            prior_history: prior,
            grad_norm: 0.25,
            wall_clock_secs: 0.125,
            opt_state: &[],
        }
    }

    #[test]
    fn metrics_recorder_fills_optional_fields() {
        let mut s = stats(0, None);
        let p = [0.0];
        let flow = MetricsRecorder.on_epoch_end(&mut s, &ctx(0, &p, &[])).unwrap();
        assert_eq!(flow, CallbackFlow::Continue);
        assert_eq!(s.grad_norm, Some(0.25));
        assert_eq!(s.wall_clock_secs, Some(0.125));
    }

    #[test]
    fn early_stopping_waits_for_patience() {
        let mut es = EarlyStopping::new(2, 0.0).unwrap();
        let p = [0.0];
        // First evaluation sets the best.
        let mut s = stats(0, Some(1.0));
        assert_eq!(es.on_epoch_end(&mut s, &ctx(0, &p, &[])).unwrap(), CallbackFlow::Continue);
        // Non-evaluating epochs never count as strikes.
        let mut s = stats(1, None);
        assert_eq!(es.on_epoch_end(&mut s, &ctx(1, &p, &[])).unwrap(), CallbackFlow::Continue);
        // One stagnant evaluation: strike, keep going.
        let mut s = stats(2, Some(1.0));
        assert_eq!(es.on_epoch_end(&mut s, &ctx(2, &p, &[])).unwrap(), CallbackFlow::Continue);
        // Second consecutive stagnation: stop.
        let mut s = stats(3, Some(1.2));
        assert_eq!(es.on_epoch_end(&mut s, &ctx(3, &p, &[])).unwrap(), CallbackFlow::Stop);
        assert_eq!(es.best_mse(), Some(1.0));
    }

    #[test]
    fn early_stopping_resets_on_improvement() {
        let mut es = EarlyStopping::new(2, 0.0).unwrap();
        let p = [0.0];
        for (epoch, mse) in [(0, 1.0), (1, 1.0), (2, 0.5), (3, 0.6)] {
            let mut s = stats(epoch, Some(mse));
            assert_eq!(
                es.on_epoch_end(&mut s, &ctx(epoch, &p, &[])).unwrap(),
                CallbackFlow::Continue,
                "epoch {epoch} must not stop"
            );
        }
        assert_eq!(es.best_mse(), Some(0.5));
    }

    #[test]
    fn early_stopping_min_delta_counts_tiny_gains_as_stagnation() {
        let mut es = EarlyStopping::new(1, 0.1).unwrap();
        let p = [0.0];
        let mut s = stats(0, Some(1.0));
        assert_eq!(es.on_epoch_end(&mut s, &ctx(0, &p, &[])).unwrap(), CallbackFlow::Continue);
        // 1.0 -> 0.95 is an improvement, but smaller than min_delta.
        let mut s = stats(1, Some(0.95));
        assert_eq!(es.on_epoch_end(&mut s, &ctx(1, &p, &[])).unwrap(), CallbackFlow::Stop);
    }

    #[test]
    fn early_stopping_rejects_degenerate_settings() {
        for (patience, min_delta) in [(0, 0.0), (2, f64::NAN), (2, -0.1)] {
            assert!(
                matches!(
                    EarlyStopping::new(patience, min_delta),
                    Err(QuGeoError::Config { .. })
                ),
                "patience {patience}, min_delta {min_delta} must be rejected"
            );
        }
        assert!(EarlyStopping::new(1, 0.0).is_ok());
    }

    #[test]
    fn periodic_checkpoint_writes_on_interval() {
        use crate::model::VqcConfig;
        let model = QuGeoVqc::new(VqcConfig::paper_layer_wise()).unwrap();
        let dir = std::env::temp_dir().join("qugeo_cb_ckpt_test");
        let mut cb = PeriodicCheckpoint::new(&model, &dir, 2, "cb-test").unwrap();
        let params = model.init_params(3);

        for epoch in 0..4 {
            let mut s = stats(epoch, None);
            cb.on_epoch_end(&mut s, &ctx(epoch, &params, &[])).unwrap();
        }
        // Epochs 1 and 3 are the interval hits ((epoch+1) % 2 == 0).
        assert!(!cb.path_for_epoch(0).exists());
        assert!(cb.path_for_epoch(1).exists());
        assert!(!cb.path_for_epoch(2).exists());
        assert!(cb.path_for_epoch(3).exists());

        let restored = Checkpoint::load(&cb.path_for_epoch(3))
            .unwrap()
            .restore_into(&model)
            .unwrap();
        assert_eq!(restored, params);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn latest_valid_skips_corrupt_and_foreign_artifacts() {
        use crate::model::VqcConfig;
        let model = QuGeoVqc::new(VqcConfig::paper_layer_wise()).unwrap();
        let dir = std::env::temp_dir().join("qugeo_cb_latest_valid");
        std::fs::remove_dir_all(&dir).ok();

        // Missing directory: a cold start, not an error.
        assert!(PeriodicCheckpoint::latest_valid(&dir, "run", &model)
            .unwrap()
            .is_none());

        let mut cb = PeriodicCheckpoint::new(&model, &dir, 1, "run").unwrap();
        let params = model.init_params(11);
        let opt_state = [3.0, 0.5, 0.25];
        for epoch in 0..3 {
            let mut s = stats(epoch, None);
            let mut c = ctx(epoch, &params, &[]);
            c.opt_state = &opt_state;
            cb.on_epoch_end(&mut s, &c).unwrap();
        }
        // A resume-less snapshot with a later-looking name is ignored.
        Checkpoint::capture(&model, &params, "run")
            .unwrap()
            .save(&dir.join("run-epoch0009.ckpt"))
            .unwrap();
        // Corrupt the newest periodic artifact: truncate past the CRC.
        let newest = cb.path_for_epoch(2);
        let bytes = std::fs::read(&newest).unwrap();
        std::fs::write(&newest, &bytes[..bytes.len() - 7]).unwrap();

        // The scan falls back to the newest intact resume checkpoint.
        let best = PeriodicCheckpoint::latest_valid(&dir, "run", &model)
            .unwrap()
            .expect("epoch 1 artifact is intact");
        assert_eq!(best.epoch, Some(1));
        assert_eq!(best.params, params);
        assert_eq!(best.opt_state, opt_state);

        // A different label sees nothing.
        assert!(PeriodicCheckpoint::latest_valid(&dir, "other", &model)
            .unwrap()
            .is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn periodic_checkpoint_rejects_zero_interval() {
        use crate::model::VqcConfig;
        let model = QuGeoVqc::new(VqcConfig::paper_layer_wise()).unwrap();
        let dir = std::env::temp_dir().join("qugeo_cb_ckpt_zero");
        assert!(PeriodicCheckpoint::new(&model, &dir, 0, "x").is_err());
    }
}
