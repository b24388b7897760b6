//! `vqc_train`: Q-M-LY training at the paper's data scale (400 train /
//! 100 test Q-D-FW samples) with the three batching shapes the engine
//! specialises on. After set-up, `qsim` adjoint and bind plus
//! `nn::optim` do nearly all the work; conv and FDTD do none.

use std::sync::Arc;
use std::time::Instant;

use qugeo::model::{QuGeoVqc, VqcConfig};
use qugeo::pipeline::{scale_forward_model, FwScalingConfig, ScaledDataset};
use qugeo::train::TrainConfig;
use qugeo::QuGeoError;
use qugeo_geodata::scaling::{ScaledLayout, ScaledSample};
use qugeo_geodata::{Dataset, FlatLayerGenerator, Sample};
use qugeo_tensor::Array3;

use crate::calib::{normalise, Meter};
use crate::env::{Stopwatch, Times};
use crate::fit::{fit_vqc, Shape, VqcFit};
use crate::report::{digest, fit_problem, Outcome};
use crate::stats::median;
use crate::trace::{span, timed, Recorder};
use crate::Args;

/// Velocity maps drawn per run (the paper's 500 FlatVelA samples).
const MAPS: usize = 500;
/// Leading samples used for training; the other 100 are the test split.
const TRAIN_SAMPLES: usize = 400;
/// Epochs of every fit; all three shapes run the same count and seed.
const EPOCHS: usize = 10;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Fewest timed rounds (one fit per shape) per run.
const MIN_ROUNDS: usize = 3;

/// Q-D-FW-scales `maps` with the program's `scale_forward_model`, which
/// reads only each sample's velocity map.
pub fn scale_maps(
    maps: &Dataset,
    rec: Option<&Arc<Recorder>>,
) -> Result<ScaledDataset, QuGeoError> {
    timed(rec, span::QDFW, 0, maps.len(), || {
        scale_forward_model(
            maps,
            &ScaledLayout::paper_default(),
            &FwScalingConfig::default(),
        )
    })
}

/// Velocity maps for a run, drawn from `seed`, as a dataset without raw
/// seismic (Q-D-FW scaling re-models the seismic from the maps).
pub fn velocity_maps(seed: u64, count: usize) -> Result<Dataset, QuGeoError> {
    let generator = FlatLayerGenerator::new(70, 70).map_err(QuGeoError::from)?;
    let base = seed.wrapping_mul(1_000_003);
    Ok(Dataset::from_samples(
        (0..count as u64)
            .map(|i| Sample {
                velocity: generator.sample(base.wrapping_add(i)),
                seismic: Array3::zeros(0, 0, 0),
            })
            .collect(),
    ))
}

fn fit_digest(fit: &VqcFit) -> u64 {
    let o = &fit.outcome;
    digest(o.params.iter().copied().chain([o.final_mse, o.final_ssim]))
}

/// Runs the workload.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let rec = args.trace.then(Recorder::new);
    let Some(maps) = out.op("velocity maps", velocity_maps(args.seed, MAPS)) else {
        return out;
    };

    // Set-up: Q-D-FW scaling of every map, several times.
    let mut setup_times = Times::default();
    let mut scaled: Option<ScaledDataset> = None;
    for _ in 0..SETUP_REPS {
        let started = Stopwatch::start();
        let result = scale_maps(&maps, rec.as_ref());
        setup_times.push(&started);
        let Some(ds) = out.op("Q-D-FW scaling", result) else {
            return out;
        };
        if let Some(prev) = &scaled {
            out.check(prev.samples == ds.samples, || {
                "repeated Q-D-FW scaling differs".into()
            });
        }
        scaled = Some(ds);
    }
    let Some(scaled) = scaled else { return out };
    setup_times.log("set-up");
    out.set("setup_s", median(&setup_times.cpu));
    let Some((train, test)) = out.op("train/test split", scaled.try_split(TRAIN_SAMPLES)) else {
        return out;
    };
    let Some(model) = out.op("Q-M-LY model", QuGeoVqc::new(VqcConfig::paper_layer_wise())) else {
        return out;
    };
    let config = TrainConfig {
        epochs: EPOCHS,
        initial_lr: 0.1,
        seed: args.seed,
        eval_every: 0,
    };

    // Timed: rounds of one fit per shape, interleaved, until the run's
    // time is spent, on one core shared with the reference loop.
    eprintln!("pinned to CPU {:?}", crate::env::pin_to_current_cpu());
    let mut meter = Meter::new();
    let run_started = Instant::now();
    let mut fit_times: [Times; 3] = Default::default();
    let mut rounds = 0usize;
    let mut firsts: Vec<VqcFit> = Vec::new();
    while rounds < MIN_ROUNDS || run_started.elapsed().as_secs_f64() < args.seconds {
        for (k, shape) in Shape::ALL.into_iter().enumerate() {
            meter.probe();
            let started = Stopwatch::start();
            let result = fit_vqc(&model, &train, &test, shape, config, None);
            fit_times[k].push(&started);
            let Some(fit) = out.op(shape.tag(), result) else {
                return out;
            };
            match firsts.get(k) {
                None => {
                    if let Some(problem) = fit_problem(shape.tag(), &fit.outcome) {
                        out.problem(problem);
                    }
                    firsts.push(fit);
                }
                Some(first) => out.check(fit_digest(first) == fit_digest(&fit), || {
                    format!(
                        "a repeated {} fit trained different parameters",
                        shape.tag()
                    )
                }),
            }
        }
        rounds += 1;
    }
    meter.probe();
    for (shape, times) in Shape::ALL.into_iter().zip(&fit_times) {
        times.log(&format!("{} fit", shape.tag()));
    }
    // One round: each shape's median fit, summed.
    let round =
        |clock: fn(&Times) -> &[f64]| -> f64 { fit_times.iter().map(|t| median(clock(t))).sum() };
    let reference_s = meter.phase_reference_s();
    out.set("cpu_s", normalise(round(|t| &t.cpu), reference_s));
    out.set("host.ref_loop_us", reference_s * 1e6);
    let wall_s = round(|t| &t.wall);
    let samples = (TRAIN_SAMPLES * EPOCHS) as f64;
    for (k, name) in ["train_sps_b1", "train_sps_mb16", "train_sps_qb16"]
        .into_iter()
        .enumerate()
    {
        out.set(name, samples / median(&fit_times[k].wall));
    }
    let b1 = &firsts[0].outcome;
    out.set("quality.ssim", b1.final_ssim);
    out.set("peak_rss_mb", crate::env::peak_rss_mb());

    if let Some(rec) = rec {
        traced_round(
            &rec, &model, &train, &test, config, &firsts, wall_s, &mut out,
        );
        crate::write_trace(&rec, "vqc_train", args.seed);
    }
    out
}

/// One more round with the strategy, optimiser and backend wrapped in
/// tracing delegates; per-layer metrics, the bit-identity check against
/// the untraced fits, and the overhead against the untraced round's
/// median wall time `untraced_s`.
#[allow(clippy::too_many_arguments)]
fn traced_round(
    rec: &Arc<Recorder>,
    model: &QuGeoVqc,
    train: &[ScaledSample],
    test: &[ScaledSample],
    config: TrainConfig,
    untraced: &[VqcFit],
    untraced_s: f64,
    out: &mut Outcome,
) {
    let started = Instant::now();
    let mut fits = Vec::new();
    for shape in Shape::ALL {
        let result = fit_vqc(model, train, test, shape, config, Some((rec, shape.run())));
        let Some(fit) = out.op(shape.tag(), result) else {
            return;
        };
        fits.push(fit);
    }
    let traced_s = started.elapsed().as_secs_f64();
    let summary = rec.summarize();
    let get = |name: &'static str, run: u32| summary.get(&(name, run)).copied().unwrap_or_default();
    for (shape, (fit, plain)) in Shape::ALL.into_iter().zip(fits.iter().zip(untraced)) {
        out.check(fit.outcome.params == plain.outcome.params, || {
            format!(
                "the traced {} fit trained different parameters",
                shape.tag()
            )
        });
        let (run, tag) = (shape.run(), shape.tag());
        let epoch = get(span::EPOCH, run);
        let adjoint = get(span::ADJOINT, run);
        let optim = get(span::OPTIM_STEP, run);
        let epoch_self_ms = if epoch.count == 0 {
            0.0
        } else {
            epoch.self_ns as f64 / epoch.count as f64 / 1e6
        };
        out.set(format!("train.{tag}.epoch_ms"), epoch.mean_us() / 1e3);
        out.set(
            format!("train.{tag}.eval_ms"),
            get(span::EVAL, run).mean_us() / 1e3,
        );
        out.set(format!("train.{tag}.self_ms"), epoch_self_ms);
        out.set(format!("qsim.{tag}.adjoint_calls"), adjoint.count as f64);
        out.set(format!("qsim.{tag}.adjoint_us"), adjoint.mean_us());
        out.set(format!("qsim.{tag}.recompiles"), fit.recompiles as f64);
        out.set(format!("qsim.{tag}.rebinds"), fit.rebinds as f64);
        out.set(format!("nn.optim.{tag}.steps"), optim.count as f64);
        out.set(format!("nn.optim.{tag}.step_us"), optim.mean_us());
    }
    out.set(
        "pipeline.qdfw_ms_per_sample",
        rec.total(span::QDFW).ms_per_item(),
    );
    out.set(
        "qsim.forward_calls",
        rec.total(span::RUN_BATCH).count as f64,
    );
    out.set("trace.overhead_pct", (traced_s / untraced_s - 1.0) * 100.0);
}
