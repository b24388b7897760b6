//! `serve`: `QuServe` in Batched mode serving the paper Q-M-LY model —
//! forward-only `qsim` plus the serve queue; the adjoint path is unused.
//!
//! Phase A is an open loop: seeded Poisson arrivals, each request timed
//! from the moment it was due, with hot-swaps of the same checkpoint at
//! a fixed cadence so rebinds run beside reads. Phase B is a closed
//! loop: one client keeps a fixed number of requests outstanding.

use std::collections::VecDeque;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use qugeo::checkpoint::Checkpoint;
use qugeo::model::{QuGeoVqc, VqcConfig};
use qugeo::pipeline::normalized_target;
use qugeo::serve::{
    CoalesceMode, ModelRegistry, PredictHandle, QuServe, ServeConfig, ServeError, ServeStats,
};
use qugeo::session::InferenceSession;
use qugeo::train::TrainConfig;
use qugeo_qsim::{BackendConfig, StatevectorBackend};
use qugeo_tensor::Array2;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::calib::{normalise, Meter};
use crate::env::{Stopwatch, Times};
use crate::fit::{fit_vqc, Shape};
use crate::report::{fit_problem, Outcome};
use crate::stats::{count_above, mean, median, quantile_sorted, sorted};
use crate::trace::{span, Recorder, Span, TracedBackend};
use crate::vqc::{scale_maps, velocity_maps};
use crate::Args;

/// Distinct request payloads (Q-D-FW-scaled velocity maps).
const POOL: usize = 256;
/// Pool samples the served checkpoint is trained on.
const CHECKPOINT_TRAIN: usize = 224;
/// Epochs of the served checkpoint's training.
const CHECKPOINT_EPOCHS: usize = 10;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 41;
/// Requests of the warm-up that closes each set-up.
const WARMUP_REQUESTS: usize = 256;
/// Share of the run's seconds given to phase A; phase B, which
/// `cpu_s` comes from, gets the rest.
const OPEN_SHARE: f64 = 1.0 / 3.0;
/// Phase A arrival rate.
const RATE_PER_S: f64 = 20_000.0;
/// Phase A hot-swap cadence.
const SWAP_EVERY: Duration = Duration::from_millis(10);
/// Phase B outstanding requests: four full batches, so the worker
/// always finds a full batch queued and the loop measures its capacity
/// rather than how fast the client thread is woken.
const OUTSTANDING: usize = 64;
/// Requests per phase B burst; `cpu_s` is the median burst's.
const BURST: usize = 8192;
/// Fewest phase B bursts per run.
const MIN_BURSTS: usize = 3;
/// Queue depth: deep enough that a host stall of most of a second never
/// sheds a phase A request.
const QUEUE_DEPTH: usize = 1 << 14;
/// Registry name of the served checkpoint.
const CHECKPOINT: &str = "q-m-ly@1";

/// Client-side data, made before set-up: payloads, their reference
/// answers and ground truth, and the checkpoint to serve.
struct Client {
    model: QuGeoVqc,
    payloads: Vec<Vec<f64>>,
    /// Sequential `InferenceSession::predict` answer per payload.
    reference: Vec<Array2>,
    /// SSIM of each reference answer against its normalised truth.
    reference_ssim: Vec<f64>,
    checkpoint: Checkpoint,
}

fn client(seed: u64, out: &mut Outcome) -> Option<Client> {
    let maps = out.op("velocity maps", velocity_maps(seed ^ 0x5E12_7E00, POOL))?;
    let scaled = out.op("Q-D-FW scaling", scale_maps(&maps, None))?;
    let model = out.op("Q-M-LY model", QuGeoVqc::new(VqcConfig::paper_layer_wise()))?;
    let (train, test) = out.op("train/test split", scaled.try_split(CHECKPOINT_TRAIN))?;
    let config = TrainConfig {
        epochs: CHECKPOINT_EPOCHS,
        initial_lr: 0.1,
        seed,
        eval_every: 0,
    };
    let fitted = out.op(
        "checkpoint fit",
        fit_vqc(&model, &train, &test, Shape::Mb16, config, None),
    )?;
    if let Some(problem) = fit_problem("served checkpoint", &fitted.outcome) {
        out.problem(problem);
    }
    let params = fitted.outcome.params;
    let checkpoint = out.op(
        "checkpoint capture",
        Checkpoint::capture(&model, &params, CHECKPOINT),
    )?;
    let mut session = out.op(
        "reference session",
        InferenceSession::new(model.clone(), &params),
    )?;
    let mut reference = Vec::with_capacity(POOL);
    let mut reference_ssim = Vec::with_capacity(POOL);
    for s in &scaled.samples {
        let map = out.op("reference prediction", session.predict(&s.seismic))?;
        let score = out.op(
            "reference SSIM",
            qugeo_metrics::ssim(&map, &normalized_target(s)),
        )?;
        reference.push(map);
        reference_ssim.push(score);
    }
    Some(Client {
        model,
        payloads: scaled.samples.into_iter().map(|s| s.seismic).collect(),
        reference,
        reference_ssim,
        checkpoint,
    })
}

/// Starts a one-worker, one-thread Batched service on the blank model,
/// registers and deploys the checkpoint, and warms it up.
fn set_up(
    c: &Client,
    registry: &ModelRegistry,
    rec: Option<&Arc<Recorder>>,
    out: &mut Outcome,
) -> Option<QuServe> {
    let config = ServeConfig {
        workers: 1,
        max_batch: 16,
        queue_depth: QUEUE_DEPTH,
        coalesce: CoalesceMode::Batched,
        ..ServeConfig::default()
    };
    let blank = c.model.init_params(0);
    let backend = || StatevectorBackend::with_config(BackendConfig::with_threads(1));
    let started = match rec {
        None => QuServe::start_with(c.model.clone(), &blank, config, move |_| backend()),
        Some(rec) => {
            let rec = Arc::clone(rec);
            QuServe::start_with(c.model.clone(), &blank, config, move |_| {
                TracedBackend::new(backend(), Arc::clone(&rec), 0)
            })
        }
    };
    let server = out.op("service start", started)?;
    out.op("deploy", server.deploy_from(registry, CHECKPOINT))?;
    closed_loop(&server, c, WARMUP_REQUESTS, 0, out);
    Some(server)
}

/// Keeps [`OUTSTANDING`] requests in flight until `count` have been
/// answered, checking every answer against its reference.
fn closed_loop(server: &QuServe, c: &Client, count: usize, offset: usize, out: &mut Outcome) {
    let mut in_flight: VecDeque<(usize, PredictHandle)> = VecDeque::with_capacity(OUTSTANDING);
    let mut sent = 0usize;
    let mut mismatches = 0usize;
    while sent < count || !in_flight.is_empty() {
        if sent < count && in_flight.len() < OUTSTANDING {
            let k = (offset + sent) % POOL;
            out.attempted += 1;
            match server.predict(c.payloads[k].clone()) {
                Ok(handle) => in_flight.push_back((k, handle)),
                Err(e) => out.fail("request", e),
            }
            sent += 1;
        } else if let Some((k, handle)) = in_flight.pop_front() {
            match handle.wait() {
                Ok(map) => mismatches += usize::from(map != c.reference[k]),
                Err(e) => out.fail("request", e),
            }
        }
    }
    out.check(mismatches == 0, || {
        format!("{mismatches} closed-loop answers differ from sequential prediction")
    });
}

/// Phase A's arrival schedule: offsets from the phase start and payload
/// indices, drawn from `seed`.
fn schedule(seed: u64, seconds: f64) -> (Vec<Duration>, Vec<usize>) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xA441_7A15);
    let mut t = 0.0f64;
    let mut due = Vec::new();
    let mut which = Vec::new();
    loop {
        let u: f64 = rng.gen();
        t += -(1.0 - u).ln() / RATE_PER_S;
        if t >= seconds {
            break;
        }
        due.push(Duration::from_secs_f64(t));
        which.push(rng.gen_range(0..POOL));
    }
    (due, which)
}

/// What phase A measured, per request in arrival order.
struct OpenLoop {
    /// Due time → answer, ms, of answered requests.
    latency_ms: Vec<f64>,
    /// Due time → submission, ms.
    lateness_ms: Vec<f64>,
    /// Submission instants of accepted requests, in queue order.
    submitted: Vec<Instant>,
    /// Answer instants, aligned with `submitted`.
    answered: Vec<Instant>,
    /// Mean SSIM of the served answers against the payloads' truth.
    ssim: f64,
    elapsed_s: f64,
}

/// Phase A: one thread submits on the schedule (and hot-swaps), one
/// thread collects answers in queue order.
fn open_loop(
    server: &QuServe,
    registry: &ModelRegistry,
    c: &Client,
    due: &[Duration],
    which: &[usize],
    out: &mut Outcome,
) -> OpenLoop {
    type Sent = (usize, Result<PredictHandle, ServeError>, Instant);
    let (tx, rx) = mpsc::channel::<Sent>();
    let started = Instant::now() + Duration::from_millis(1);
    let (swaps, collected) = std::thread::scope(|scope| {
        let submitter = scope.spawn(move || {
            let mut swaps: Vec<Result<u64, ServeError>> = Vec::new();
            let mut next_swap = started + SWAP_EVERY;
            let mut i = 0;
            while i < due.len() {
                let now = Instant::now();
                let next = started + due[i];
                if next > now {
                    std::thread::sleep(next - now);
                }
                let now = Instant::now();
                while i < due.len() && started + due[i] <= now {
                    let sent = server.predict(c.payloads[which[i]].clone());
                    if tx.send((i, sent, Instant::now())).is_err() {
                        return swaps;
                    }
                    i += 1;
                }
                if now >= next_swap {
                    swaps.push(server.deploy_from(registry, CHECKPOINT));
                    next_swap += SWAP_EVERY;
                }
            }
            swaps
        });
        let collector = scope.spawn(move || {
            // Answers are checked as they arrive, so none are kept.
            let mut answers: Vec<(usize, Result<bool, ServeError>, Instant, Instant)> =
                Vec::with_capacity(due.len());
            for (i, sent, submitted) in rx {
                let answer = sent.and_then(PredictHandle::wait);
                let answered = Instant::now();
                let matches = answer.map(|map| map == c.reference[which[i]]);
                answers.push((i, matches, submitted, answered));
            }
            answers
        });
        let swaps = submitter.join().expect("submit thread panicked");
        let collected = collector.join().expect("collector thread panicked");
        (swaps, collected)
    });
    for swap in swaps {
        out.op("hot-swap", swap);
    }
    let mut result = OpenLoop {
        latency_ms: Vec::with_capacity(collected.len()),
        lateness_ms: Vec::with_capacity(collected.len()),
        submitted: Vec::with_capacity(collected.len()),
        answered: Vec::with_capacity(collected.len()),
        ssim: 0.0,
        elapsed_s: 0.0,
    };
    let mut mismatches = 0usize;
    let mut ssim_sum = 0.0;
    let mut last = started;
    for (i, answer, submitted, answered) in collected {
        let due_at = started + due[i];
        let ms = |later: Instant| later.saturating_duration_since(due_at).as_secs_f64() * 1e3;
        result.lateness_ms.push(ms(submitted));
        last = last.max(answered);
        // A refused or failed request has no latency; it counts as failed.
        let Some(matches) = out.op("request", answer) else {
            continue;
        };
        result.latency_ms.push(ms(answered));
        result.submitted.push(submitted);
        result.answered.push(answered);
        mismatches += usize::from(!matches);
        ssim_sum += c.reference_ssim[which[i]];
    }
    out.check(mismatches == 0, || {
        format!("{mismatches} open-loop answers differ from sequential prediction")
    });
    result.ssim = ssim_sum / result.submitted.len().max(1) as f64;
    result.elapsed_s = last.duration_since(started).as_secs_f64();
    result
}

/// Phase B: closed-loop bursts until `seconds` are spent, each after a
/// probe of the reference loop; burst times.
fn bursts(
    server: &QuServe,
    c: &Client,
    seconds: f64,
    meter: &mut Meter,
    out: &mut Outcome,
) -> Times {
    let started = Instant::now();
    let mut times = Times::default();
    while times.len() < MIN_BURSTS || started.elapsed().as_secs_f64() < seconds {
        meter.probe();
        let t = Stopwatch::start();
        closed_loop(server, c, BURST, times.len(), out);
        times.push(&t);
    }
    times
}

fn mean_batch(before: &ServeStats, after: &ServeStats) -> f64 {
    let batches = after.batches - before.batches;
    if batches == 0 {
        0.0
    } else {
        (after.coalesced - before.coalesced) as f64 / batches as f64
    }
}

/// Runs the workload.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let Some(c) = client(args.seed, &mut out) else {
        return out;
    };
    // From here the service, the load threads and the reference loop
    // share one core.
    eprintln!("pinned to CPU {:?}", crate::env::pin_to_current_cpu());
    let mut registry = ModelRegistry::new();
    if out
        .op(
            "register",
            registry.register(CHECKPOINT, c.checkpoint.clone()),
        )
        .is_none()
    {
        return out;
    }
    let (due, which) = schedule(args.seed, args.seconds * OPEN_SHARE);

    let mut meter = Meter::new();
    let mut setup_times = Times::default();
    let mut server = None;
    for _ in 0..SETUP_REPS {
        if let Some(previous) = server.take() {
            QuServe::shutdown(previous);
        }
        let started = Stopwatch::start();
        server = set_up(&c, &registry, None, &mut out);
        setup_times.push(&started);
    }
    let Some(server) = server else { return out };
    setup_times.log("set-up");
    out.set("setup_s", median(&setup_times.cpu));

    let s0 = server.stats();
    let open = open_loop(&server, &registry, &c, &due, &which, &mut out);
    let s1 = server.stats();
    let burst_times = bursts(
        &server,
        &c,
        args.seconds * (1.0 - OPEN_SHARE),
        &mut meter,
        &mut out,
    );
    meter.probe();
    burst_times.log("burst");
    let s2 = server.stats();
    server.shutdown();

    let lat = sorted(&open.latency_ms);
    let reference_s = meter.phase_reference_s();
    out.set("cpu_s", normalise(median(&burst_times.cpu), reference_s));
    out.set("host.ref_loop_us", reference_s * 1e6);
    let wall_s = median(&burst_times.wall);
    out.set("serve.latency_p50_ms", quantile_sorted(&lat, 0.5));
    out.set("serve.latency_p90_ms", quantile_sorted(&lat, 0.9));
    out.set("quality.ssim", open.ssim);
    out.set("peak_rss_mb", crate::env::peak_rss_mb());
    out.set("serve.throughput_per_s", BURST as f64 / wall_s);
    out.set("serve.open.mean_batch", mean_batch(&s0, &s1));
    out.set("serve.closed.mean_batch", mean_batch(&s1, &s2));
    for (q, name, beyond) in [
        (0.99, "serve.latency_p99_ms", "serve.latency_p99_beyond"),
        (0.999, "serve.latency_p999_ms", "serve.latency_p999_beyond"),
    ] {
        let v = quantile_sorted(&lat, q);
        out.set(name, v);
        out.set(beyond, count_above(&lat, v) as f64);
    }
    let late = sorted(&open.lateness_ms);
    out.set("loadgen.lateness_p50_ms", quantile_sorted(&late, 0.5));
    out.set("loadgen.lateness_p99_ms", quantile_sorted(&late, 0.99));

    if args.trace {
        let rec = Recorder::new();
        traced(
            &rec,
            &c,
            &registry,
            &due,
            &which,
            args.seconds,
            wall_s,
            &mut out,
        );
        crate::write_trace(&rec, "serve", args.seed);
    }
    out
}

/// A second, traced service runs both phases again; per-layer metrics
/// come from its backend spans, mapped onto requests in queue order
/// (one worker, so the queue is FIFO).
#[allow(clippy::too_many_arguments)]
fn traced(
    rec: &Arc<Recorder>,
    c: &Client,
    registry: &ModelRegistry,
    due: &[Duration],
    which: &[usize],
    seconds: f64,
    wall_s: f64,
    out: &mut Outcome,
) {
    let Some(server) = set_up(c, registry, Some(rec), out) else {
        return;
    };
    let warm_members: u64 = batches(rec).iter().map(|b| u64::from(b.items)).sum();
    let open = open_loop(&server, registry, c, due, which, out);
    let open_batches: Vec<Span> = batches(rec);
    for (i, (&sub, &ans)) in open.submitted.iter().zip(&open.answered).enumerate() {
        rec.record(
            span::REQUEST,
            sub,
            ans,
            u32::try_from(i).unwrap_or(u32::MAX),
            1,
        );
    }
    let burst_times = bursts(
        &server,
        c,
        seconds * (1.0 - OPEN_SHARE),
        &mut Meter::new(),
        out,
    );
    let stats = server.stats();
    server.shutdown();

    // Execute = run_batch + probabilities of one engine call.
    let spans = rec.spans();
    let probabilities: Vec<&Span> = spans
        .iter()
        .filter(|s| s.name == span::PROBABILITIES)
        .collect();
    let executes: Vec<(u64, u64, u32)> = spans
        .iter()
        .filter(|s| s.name == span::RUN_BATCH)
        .zip(&probabilities)
        .map(|(run, probs)| (run.start_ns, probs.end_ns, run.items))
        .collect();
    let exec_us: Vec<f64> = executes
        .iter()
        .map(|(s, e, _)| (e - s) as f64 / 1e3)
        .collect();
    out.set("serve.execute_us_per_batch", mean(&exec_us));
    out.set("qsim.forward_calls", executes.len() as f64);

    // Map phase A requests (queue order) onto its engine calls.
    let mut skip = warm_members;
    let mut waits = Vec::with_capacity(open.submitted.len());
    let mut replies = Vec::with_capacity(open.submitted.len());
    let mut busy_ns = 0u64;
    let mut request = 0usize;
    for &(start, end, items) in &executes[..open_batches.len().min(executes.len())] {
        let members = u64::from(items);
        if skip >= members {
            skip -= members;
            continue;
        }
        busy_ns += end - start;
        for _ in skip..members {
            if let (Some(&sub), Some(&ans)) =
                (open.submitted.get(request), open.answered.get(request))
            {
                waits.push(start.saturating_sub(rec.ns_at(sub)) as f64 / 1e3);
                replies.push(rec.ns_at(ans).saturating_sub(end) as f64 / 1e3);
            }
            request += 1;
        }
        skip = 0;
    }
    out.check(request == open.submitted.len(), || {
        format!(
            "engine calls account for {request} of {} phase A requests",
            open.submitted.len()
        )
    });
    out.set(
        "serve.busy_share",
        busy_ns as f64 / 1e9 / open.elapsed_s.max(f64::MIN_POSITIVE),
    );
    out.set("serve.queue_wait_us_p50", median(&waits));
    out.set("serve.reply_us_p50", median(&replies));
    out.set("serve.swaps", stats.swaps as f64);
    out.set("serve.session_rebinds", stats.session_rebinds as f64);
    out.set(
        "serve.session_compilations",
        stats.session_compilations as f64,
    );
    out.set("serve.rejected", stats.rejected as f64);
    out.set("serve.failed", stats.failed as f64);
    out.set(
        "trace.overhead_pct",
        (median(&burst_times.wall) / wall_s - 1.0) * 100.0,
    );
}

/// The engine-call (`run_batch`) spans recorded so far.
fn batches(rec: &Recorder) -> Vec<Span> {
    rec.spans()
        .into_iter()
        .filter(|s| s.name == span::RUN_BATCH)
        .collect()
}
