//! `arch_eval`: the paper's evaluation path. For every program of the
//! suite, `experiments::measure` compiles, profiles, compacts for the 8
//! paper (mode, machine) configurations and simulates each, with every
//! answer self-checked. The server is never touched.

use std::time::Instant;

use symbol_core::benchmarks::{self, paper, Benchmark};
use symbol_core::experiments::{self, BenchResult};
use symbol_core::pipeline::{Compiled, CompiledCache};
use symbol_vliw::{SimConfig, SimOutcome, VliwSim};

use crate::common::{
    front_end, geomean, median, ms, quantile, seq_cycles, sequential_run, simulate, Draw, Tally,
    PAPER_CONFIGS, TRACE_U3,
};
use crate::trace::Tracer;
use crate::{Args, Metrics};

/// Suite set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: u64 = 5;

/// Per-result latency samples per run (whole passes over the suite).
const MIN_SAMPLES: usize = 100;

/// What the oracle says one program must produce.
struct Reference {
    steps: u64,
    seq_cycles: u64,
    /// 3-unit trace-scheduled cycles from the legacy `VliwSim`.
    cycles3: u64,
}

/// Self-checked query answers behind one `BenchResult`: the profiling
/// run plus one simulation per paper configuration.
const QUERIES_PER_RESULT: f64 = 1.0 + PAPER_CONFIGS.len() as f64;

pub fn run(args: &Args, tr: &mut Tracer, m: &mut Metrics, tally: &mut Tally) -> Result<(), String> {
    let benches: Vec<&'static Benchmark> = benchmarks::ALL.iter().collect();
    let mut draw = Draw::new(args.seed, benches.len());

    // setup_s: what the evaluation needs before its first compaction,
    // the suite compiled at `Layout::default()` and profiled once
    // (`CompiledCache`, the input every configuration consumes).
    let mut setup = Vec::new();
    let mut images = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        images = benches
            .iter()
            .map(|b| Compiled::from_source(b.source).map_err(|e| format!("{}: {e}", b.name)))
            .collect::<Result<Vec<_>, String>>()?;
        for (c, b) in images.iter().zip(&benches) {
            CompiledCache::new(c).map_err(|e| format!("{}: profile run: {e}", b.name))?;
        }
        setup.push(t.elapsed().as_secs_f64());
    }
    m.e2e("setup_s", median(&setup));
    let refs = images
        .iter()
        .map(reference)
        .collect::<Result<Vec<_>, String>>()?;
    drop(images);

    if tr.enabled() {
        traced_passes(args, &benches, &refs, &mut draw, tr, m, tally)
    } else {
        measured_passes(args, &benches, &refs, &mut draw, m, tally);
        Ok(())
    }
}

/// The oracle, outside every timed section: the legacy interpreter's
/// run, and the legacy `VliwSim` on the 3-unit trace-scheduled program.
/// The traced run checks every configuration against `VliwSim`.
fn reference(c: &Compiled) -> Result<Reference, String> {
    let run = c
        .run_sequential_legacy()
        .map_err(|e| format!("legacy oracle run: {e}"))?;
    let config = &PAPER_CONFIGS[TRACE_U3];
    let sim = simulate(c, &run, config, 0, None, &mut Tracer::new(false))?;
    Ok(Reference {
        steps: run.steps,
        seq_cycles: seq_cycles(c, &run),
        cycles3: legacy_cycles(c, &sim.program, config)?,
    })
}

fn legacy_cycles(
    c: &Compiled,
    program: &symbol_vliw::VliwProgram,
    config: &crate::common::PaperConfig,
) -> Result<u64, String> {
    let r = VliwSim::new(program, config.machine(), &c.layout)
        .run(&SimConfig::default())
        .map_err(|e| format!("legacy simulation: {e}"))?;
    if r.outcome != SimOutcome::Success {
        return Err("legacy simulation failed its self-check".to_string());
    }
    Ok(r.cycles)
}

/// The untraced run: whole passes of `experiments::measure` over the
/// suite in drawn order, until `--seconds` and [`MIN_SAMPLES`] are both
/// reached.
fn measured_passes(
    args: &Args,
    benches: &[&'static Benchmark],
    refs: &[Reference],
    draw: &mut Draw,
    m: &mut Metrics,
    tally: &mut Tally,
) {
    let mut first: Vec<Option<BenchResult>> = vec![None; benches.len()];
    // Per program: the time of each of its `measure` calls.
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); benches.len()];
    let mut latency = Vec::new();
    let t0 = Instant::now();
    while latency.len() < MIN_SAMPLES || t0.elapsed().as_secs_f64() < args.seconds {
        for i in draw.next_round() {
            let t = Instant::now();
            let got = experiments::measure(benches[i]);
            let dt = ms(t);
            latency.push(dt);
            times[i].push(dt / 1e3);
            let r = match got {
                Ok(r) => r,
                Err(e) => {
                    tally.check(Err(format!("{}: {e}", benches[i].name)));
                    continue;
                }
            };
            tally.expect_eq(
                benches[i].name,
                (r.seq_cycles, r.unit_cycles[2]),
                (refs[i].seq_cycles, refs[i].cycles3),
            );
            match &first[i] {
                None => first[i] = Some(r),
                Some(f) => tally.check(if *f == r {
                    Ok(())
                } else {
                    Err(format!(
                        "{}: result differs between passes",
                        benches[i].name
                    ))
                }),
            }
        }
    }
    // One pass over the suite at each program's median time, so a burst
    // of noise moves one sample, not the rate.
    let pass_secs: f64 = times.iter().map(|t| median(t)).sum();
    for (b, t) in benches.iter().zip(&times) {
        m.note(format!(
            "  {:<10} measure median {:>9.3} ms over {} passes",
            b.name,
            median(t) * 1e3,
            t.len()
        ));
    }
    let results_per_s = benches.len() as f64 / pass_secs;
    m.e2e("results_per_s", results_per_s);
    m.e2e("qps", results_per_s * QUERIES_PER_RESULT);
    latency.sort_by(f64::total_cmp);
    m.e2e("latency_p50_ms", quantile(&latency, 0.5));
    m.e2e("latency_p90_ms", quantile(&latency, 0.9));
    m.note(format!(
        "time to one BenchResult: {} samples, p50 {:.3} ms, p90 {:.3} ms",
        latency.len(),
        quantile(&latency, 0.5),
        quantile(&latency, 0.9)
    ));
    let speedups: Vec<f64> = first.iter().flatten().map(|r| r.unit_speedup(3)).collect();
    if speedups.len() == benches.len() {
        m.e2e("speedup3_geomean", geomean(&speedups));
        paper_note(m, geomean(&speedups));
    }
}

/// The paper's own reference beside the model's figure.
fn paper_note(m: &mut Metrics, ours: f64) {
    let (_, theirs) = paper::TABLE3_AVG_SPEEDUPS
        .iter()
        .find(|(k, _)| *k == "3 units")
        .expect("Table 3 has a 3-unit average");
    m.note(format!(
        "speedup3_geomean {ours:.4} vs paper Table 3 average (3 units) {theirs:.2}: \
         difference {:+.4}. The model is checked against the paper's suite averages only.",
        ours - theirs
    ));
}

/// One program of the evaluation path through its public calls, one
/// span per layer: the front end, the profiling run, and for each paper
/// configuration compaction, VLIW decode, simulator set-up and
/// simulation. Returns the profiled run's steps and sequential cycles
/// with the simulations.
fn program_pass(
    b: &Benchmark,
    id: u64,
    tr: &mut Tracer,
) -> Result<(u64, u64, Vec<crate::common::Sim>, Compiled), String> {
    tr.span("arch.program", id, None, |tr, root| {
        let c = front_end(b.source, id, root, tr)?;
        let run = sequential_run(&c.decoded, &c.layout, id, root, tr)?;
        let sims = PAPER_CONFIGS
            .iter()
            .map(|config| simulate(&c, &run, config, id, root, tr))
            .collect::<Result<Vec<_>, String>>()?;
        Ok((run.steps, seq_cycles(&c, &run), sims, c))
    })
}

/// The traced run: passes of [`program_pass`], each program run once on
/// a disabled tracer and once traced, so the tracing overhead is
/// measured. Every decoded simulation is checked against the legacy
/// `VliwSim` on the same compacted program, outside the spans.
#[allow(clippy::too_many_arguments)]
fn traced_passes(
    args: &Args,
    benches: &[&'static Benchmark],
    refs: &[Reference],
    draw: &mut Draw,
    tr: &mut Tracer,
    m: &mut Metrics,
    tally: &mut Tally,
) -> Result<(), String> {
    let (mut traced_s, mut plain_s) = (Vec::new(), Vec::new());
    let (mut steps, mut cycles) = (0u64, 0u64);
    let t0 = Instant::now();
    while traced_s.is_empty() || t0.elapsed().as_secs_f64() < args.seconds {
        // Each program runs untraced, then traced, back to back, so
        // drift in the machine's speed cancels out of the overhead.
        let (mut plain, mut traced) = (0.0, 0.0);
        let mut pass = Vec::new();
        for i in draw.next_round() {
            let t = Instant::now();
            program_pass(benches[i], i as u64, &mut Tracer::new(false))?;
            plain += t.elapsed().as_secs_f64();
            let t = Instant::now();
            pass.push((i, program_pass(benches[i], i as u64, tr)?));
            traced += t.elapsed().as_secs_f64();
        }
        plain_s.push(plain);
        traced_s.push(traced);
        let mut speedups = vec![0.0; benches.len()];
        let (mut growth, mut region) = (Vec::new(), Vec::new());
        steps = 0;
        cycles = 0;
        for (i, (run_steps, seq, sims, c)) in pass {
            tally.expect_eq(
                benches[i].name,
                (run_steps, seq),
                (refs[i].steps, refs[i].seq_cycles),
            );
            for (sim, config) in sims.iter().zip(&PAPER_CONFIGS) {
                let legacy = legacy_cycles(&c, &sim.program, config);
                tally.expect_eq(config.compact_span, Ok(sim.result.cycles), legacy);
                cycles += sim.result.cycles;
            }
            steps += run_steps;
            let u3 = &sims[TRACE_U3];
            speedups[i] = seq as f64 / u3.result.cycles as f64;
            growth.push(u3.stats.code_growth());
            region.push(u3.stats.avg_region_len);
        }
        m.layer("compactor.code_growth", geomean(&growth));
        m.layer("compactor.avg_region_len", geomean(&region));
        if plain_s.len() == 1 {
            paper_note(m, geomean(&speedups));
        }
    }
    // Exact counts of one pass over the suite.
    m.layer("intcode.steps", steps as f64);
    m.layer("vliw.cycles", cycles as f64);
    let phases = tr.phases();
    let passes = traced_s.len() as f64;
    m.layer(
        "intcode.msteps_per_s",
        steps as f64 * passes * 1e3 / phases[&("arch.program", "intcode.emulate")] as f64,
    );
    m.layer(
        "vliw.mcycles_per_s",
        cycles as f64 * passes * 1e3 / phases[&("arch.program", "vliw.simulate")] as f64,
    );
    let (traced, plain) = (median(&traced_s), median(&plain_s));
    m.layer("trace.overhead_pct", (traced - plain) * 100.0 / plain);
    Ok(())
}
