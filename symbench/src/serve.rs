//! The serving workloads: warm-restarted fused images served through
//! `QueryServer` at the production `Layout::default()`, with `nproc`
//! workers and one submitting thread.
//!
//! * `serve_short` — one query per `submit`. Engine set-up (allocating
//!   and zeroing the whole layout) dominates each query.
//! * `serve_deep` — search-heavy programs as `submit_batch` requests
//!   on the workers' pooled arenas. Emulation dominates each query.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use symbol_core::pipeline::Compiled;
use symbol_intcode::{ArenaPool, ExecConfig, Layout, Outcome};
use symbol_obs::{QuantileView, Registry};
use symbol_serve::{ArtifactCache, QueryAnswer, QueryResult, QueryServer, ServerConfig};

use crate::common::{
    front_end, geomean, median, ms, nproc, programs, quantile, reference_steps, sequential_run,
    speedup3, Draw, Tally,
};
use crate::trace::Tracer;
use crate::{Args, Metrics};

pub struct Spec {
    pub programs: &'static [&'static str],
    /// Queries per `submit_batch` request; 1 means one `submit` per
    /// query.
    pub batch: usize,
    /// Requests each image's server is given per turn.
    pub requests_per_turn: u64,
}

pub const SHORT: Spec = Spec {
    programs: &[
        "conc30",
        "crypt",
        "divide10",
        "log10",
        "mu",
        "nreverse",
        "ops8",
        "prover",
        "qsort",
        "queens_8",
        "query",
        "serialise",
        "times10",
    ],
    batch: 1,
    requests_per_turn: 16,
};

pub const DEEP: Spec = Spec {
    programs: &["tak", "zebra", "sendmore"],
    batch: 4,
    requests_per_turn: 8,
};

/// Warm restarts per run; `setup_s` is their median.
const SETUP_REPEATS: u64 = 5;

/// Idle-server service-time samples per run, at least: p90 then has
/// ten samples beyond it.
const MIN_SAMPLES: usize = 100;

/// Service-time samples taken after each serving turn.
const SAMPLES_PER_TURN: usize = 4;

/// Turns each program is served per run, at least.
const MIN_TURNS: usize = 3;

pub fn run(
    spec: &Spec,
    args: &Args,
    work: &Path,
    tr: &mut Tracer,
    m: &mut Metrics,
    tally: &mut Tally,
) -> Result<(), String> {
    let benches = programs(spec.programs);
    let n = benches.len();
    let mut draw = Draw::new(args.seed, n);

    // Untimed: compile every program through the front end, take the
    // oracle's reference steps from the legacy interpreter, and the
    // paper's 3-unit speed-up of each served image.
    let images = tr.span("untimed.analysis", 0, None, |tr, root| {
        benches
            .iter()
            .enumerate()
            .map(|(i, b)| front_end(b.source, i as u64, root, tr))
            .collect::<Result<Vec<Compiled>, String>>()
    })?;
    let refs = reference_steps(&images, tally);
    let mut speedups = Vec::with_capacity(n);
    let mut cycles = 0;
    let (mut growth, mut region) = (Vec::new(), Vec::new());
    tr.span("untimed.analysis", 1, None, |tr, root| {
        for (i, c) in images.iter().enumerate() {
            let (s, sim) = speedup3(c, i as u64, root, tr)?;
            speedups.push(s);
            cycles += sim.result.cycles;
            growth.push(sim.stats.code_growth());
            region.push(sim.stats.avg_region_len);
        }
        Ok::<(), String>(())
    })?;
    m.e2e("speedup3_geomean", geomean(&speedups));
    m.layer("vliw.cycles", cycles as f64);
    m.layer("compactor.code_growth", geomean(&growth));
    m.layer("compactor.avg_region_len", geomean(&region));
    m.layer("intcode.steps", refs.iter().sum::<u64>() as f64);
    if tr.enabled() {
        let simulate_ns = tr.phases()[&("untimed.analysis", "vliw.simulate")];
        m.layer(
            "vliw.mcycles_per_s",
            cycles as f64 * 1e3 / simulate_ns as f64,
        );
        fuse_layer(images, tr, m)?;
    }

    // Untimed cold pass: compile, profile and fuse every program into
    // the benchmark's own artifact cache.
    let cache_dir = work.join("artifacts");
    let cold = ArtifactCache::new(&cache_dir, Registry::disabled())
        .map_err(|e| format!("artifact cache: {e}"))?;
    for b in &benches {
        cold.load_compiled_fused(b.source, Layout::default())
            .map_err(|e| format!("cold pass for {}: {e}", b.name))?;
    }

    // setup_s: a warm restart of every image from the cache.
    let mut setup = Vec::new();
    let mut served: Vec<Arc<Compiled>> = Vec::new();
    for r in 0..SETUP_REPEATS {
        let t = Instant::now();
        served = tr.span("phase.setup", r, None, |tr, root| {
            let cache = ArtifactCache::new(&cache_dir, Registry::disabled())
                .map_err(|e| format!("artifact cache: {e}"))?;
            benches
                .iter()
                .enumerate()
                .map(|(i, b)| {
                    tr.span("serve.cache.load", i as u64, root, |_, _| {
                        cache.load_compiled_fused(b.source, Layout::default())
                    })
                    .map(Arc::new)
                    .map_err(|e| format!("warm load of {}: {e}", b.name))
                })
                .collect::<Result<Vec<_>, String>>()
        })?;
        setup.push(t.elapsed().as_secs_f64());
    }
    m.e2e("setup_s", median(&setup));
    for (img, b) in served.iter().zip(&benches) {
        tally.check(if img.fused.is_none() {
            Err(format!("{}: warm restart lost the fused tier", b.name))
        } else if img.layout != Layout::default() {
            Err(format!(
                "{}: served layout is not Layout::default()",
                b.name
            ))
        } else {
            Ok(())
        });
    }
    timed_loop(spec, args, &served, &refs, &mut draw, tr, m, tally);
    Ok(())
}

/// The timed phase. Each step serves one drawn image through its own
/// `QueryServer` for a turn, then takes [`SAMPLES_PER_TURN`] idle-server
/// service-time samples of the same image: the call a worker makes
/// (`run_sequential_fast`), one client, no server running. Interleaving
/// spreads both measurements over the whole run.
///
/// The traced run repeats each sample as the worker's two calls (engine
/// set-up, emulation) under spans and, on `serve_deep`, a pooled
/// `run_batch`, so the per-layer split is measured where the work
/// happens; its server records into an enabled registry.
#[allow(clippy::too_many_arguments)]
fn timed_loop(
    spec: &Spec,
    args: &Args,
    served: &[Arc<Compiled>],
    refs: &[u64],
    draw: &mut Draw,
    tr: &mut Tracer,
    m: &mut Metrics,
    tally: &mut Tally,
) {
    let obs = if tr.enabled() {
        Registry::new()
    } else {
        Registry::disabled()
    };
    let cfg = ServerConfig {
        workers: nproc(),
        ..ServerConfig::default()
    };
    let budget = Duration::from_secs_f64(args.seconds);
    // Per program: the wall time of each of its turns.
    let mut turn_secs: Vec<Vec<f64>> = vec![Vec::new(); served.len()];
    let mut plain = Vec::new();
    let mut per_program: Vec<Vec<f64>> = vec![Vec::new(); served.len()];
    let mut traced = Vec::new();
    let mut steps = 0u64;
    let mut pool = ArenaPool::new();
    let batch = vec![ExecConfig::default(); spec.batch];
    let (mut turn, mut q) = (0u64, 0u64);
    let t0 = Instant::now();
    while t0.elapsed() < budget
        || plain.len() < MIN_SAMPLES
        || turn_secs.iter().any(|t| t.len() < MIN_TURNS)
    {
        let i = draw.next();
        let img = &served[i];
        let t = Instant::now();
        let results = tr.span("phase.serve", turn, None, |tr, root| {
            let server = tr.span("serve.start", turn, root, |_, _| {
                QueryServer::start(Arc::clone(img), &cfg, &obs)
            });
            for id in 0..spec.requests_per_turn {
                tr.span("serve.submit", id, root, |_, _| {
                    if spec.batch == 1 {
                        server.submit(id);
                    } else {
                        server.submit_batch(id, spec.batch);
                    }
                });
            }
            tr.span("serve.finish", turn, root, |_, _| server.finish())
        });
        turn_secs[i].push(t.elapsed().as_secs_f64());
        check_answers(spec, &results, refs[i], tally);
        turn += 1;

        for _ in 0..SAMPLES_PER_TURN {
            let t = Instant::now();
            let got = img.run_sequential_fast();
            let dt = ms(t);
            plain.push(dt);
            per_program[i].push(dt);
            tally.expect_eq(
                "service query steps",
                got.map(|r| r.steps).ok(),
                Some(refs[i]),
            );
            if !tr.enabled() {
                continue;
            }
            let t = Instant::now();
            let got = tr.span("service.query", q, None, |tr, root| {
                sequential_run(img.serving_program(), &img.layout, q, root, tr)
            });
            traced.push(ms(t));
            steps += refs[i];
            tally.expect_eq(
                "traced query steps",
                got.map(|r| r.steps).ok(),
                Some(refs[i]),
            );
            if spec.batch > 1 {
                let outs = tr.span("intcode.batch_query", q, None, |_, _| {
                    img.run_batch(&batch, &mut pool)
                });
                for out in outs {
                    tally.expect_eq(
                        "batch query",
                        (out.result, out.steps),
                        (Ok(Outcome::Success), refs[i]),
                    );
                }
            }
            q += 1;
        }
    }

    // Rates for an equal mix of the workload's programs, each from the
    // median of its turns: the seed orders the turns without weighting
    // the programs, and a burst of noise moves one turn, not the rate.
    let secs_per_request = turn_secs
        .iter()
        .map(|t| median(t) / spec.requests_per_turn as f64)
        .sum::<f64>()
        / served.len() as f64;
    m.e2e("results_per_s", 1.0 / secs_per_request);
    m.e2e("qps", spec.batch as f64 / secs_per_request);
    for (name, (samples, turns)) in spec.programs.iter().zip(per_program.iter().zip(&turn_secs)) {
        m.note(format!(
            "  {name:<10} idle service p50 {:>9.3} ms over {:>3} samples; turn median {:.3} s over {} turns",
            median(samples),
            samples.len(),
            median(turns),
            turns.len()
        ));
    }
    plain.sort_by(f64::total_cmp);
    m.e2e("latency_p50_ms", quantile(&plain, 0.5));
    m.e2e("latency_p90_ms", quantile(&plain, 0.9));
    m.note(format!(
        "served {turn} turns x {} requests x {} queries on {} workers; \
         idle service time: {} samples, p50 {:.3} ms, p90 {:.3} ms",
        spec.requests_per_turn,
        spec.batch,
        cfg.workers,
        plain.len(),
        quantile(&plain, 0.5),
        quantile(&plain, 0.9)
    ));
    if !tr.enabled() {
        return;
    }
    let emulate_ns = tr.phases()[&("service.query", "intcode.emulate")];
    m.layer(
        "intcode.msteps_per_s",
        steps as f64 * 1e3 / emulate_ns as f64,
    );
    let plain_p50 = quantile(&plain, 0.5);
    m.layer(
        "trace.overhead_pct",
        (median(&traced) - plain_p50) * 100.0 / plain_p50,
    );
    if let Some(b) = tr.layers().get("intcode.batch_query") {
        m.layer("intcode.batch_query_ms", b.mean_ms() / spec.batch as f64);
    }
    let snap = obs.snapshot();
    let stage_p50_ms = |stage: &str| {
        QuantileView::from_samples(snap.histograms.iter().filter(|h| {
            h.name == "serve.stage.ns" && h.labels.iter().any(|(k, v)| k == "stage" && v == stage)
        }))
        .map_or(0.0, |v| v.p50 / 1e6)
    };
    m.layer("serve.stage.queue_wait_p50_ms", stage_p50_ms("queue_wait"));
    m.layer("serve.stage.execute_p50_ms", stage_p50_ms("execute"));
    let steals: u64 = snap
        .counters
        .iter()
        .filter(|c| c.name == "serve.shard.steals")
        .map(|c| c.value)
        .sum();
    m.layer("serve.shard.steals", steals as f64);
}

/// Every request of a turn must come back once, with every query's
/// step count equal to the oracle's.
fn check_answers(spec: &Spec, results: &[QueryResult], want: u64, tally: &mut Tally) {
    for id in 0..spec.requests_per_turn {
        let answer = results.iter().find(|r| r.id == id).map(|r| &r.outcome);
        let ok = match answer {
            None => Err(format!("request {id}: no answer")),
            Some(Err(e)) => Err(format!("request {id}: {e}")),
            Some(Ok(QueryAnswer::Steps(s))) if spec.batch == 1 && *s == want => Ok(()),
            Some(Ok(QueryAnswer::Batch(v)))
                if spec.batch > 1 && v.len() == spec.batch && v.iter().all(|s| *s == want) =>
            {
                Ok(())
            }
            Some(Ok(other)) => Err(format!("request {id}: {other:?}, oracle says {want} steps")),
        };
        // One operation per query the request carried.
        for _ in 0..spec.batch {
            tally.check(ok.clone());
        }
    }
    tally.expect_eq(
        "answers per turn",
        results.len() as u64,
        spec.requests_per_turn,
    );
}

/// Traced run only: the fusion pass the cold pass ran inside the
/// artifact cache, repeated through its public calls.
fn fuse_layer(images: Vec<Compiled>, tr: &mut Tracer, m: &mut Metrics) -> Result<(), String> {
    let (mut pairs, mut fused, mut total) = (0u64, 0u64, 0u64);
    tr.span("untimed.analysis", 2, None, |tr, root| {
        for (i, mut c) in images.into_iter().enumerate() {
            let (stats, profile, _) = tr
                .span("intcode.profile", i as u64, root, |_, _| c.profile())
                .map_err(|e| format!("profile: {e}"))?;
            let tier = tr.span("intcode.fuse", i as u64, root, |_, _| {
                c.attach_fused_from_profile(&stats, &profile)
            });
            pairs += tier.report.pairs;
            fused += tier.report.ops_fused;
            total += tier.report.total_ops;
        }
        Ok::<(), String>(())
    })?;
    m.layer("intcode.fuse.pairs", pairs as f64);
    m.layer(
        "intcode.fuse.coverage_permille",
        fused as f64 * 1000.0 / total as f64,
    );
    Ok(())
}
