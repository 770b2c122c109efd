//! `symbench`: the repository benchmark.
//!
//! ```text
//! symbench --workload <serve_short|serve_deep|arch_eval> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one seeded workload at the production `Layout::default()`,
//! checks every answer against an independent oracle, prints a report
//! and, as the last line of standard output, one JSON object with the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics of the
//! traced run (`--trace 1`). Exits 1 if any answer was wrong. See
//! `README.md` beside this package for the workloads and metrics.

mod arch;
mod common;
mod serve;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

use common::{nproc, peak_rss_mb, Tally};
use trace::{LayerTime, Tracer};

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const WORKLOADS: [&str; 3] = ["serve_short", "serve_deep", "arch_eval"];

/// End-to-end metrics, printed by every untraced run.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("qps", "1/s"),
    ("results_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("speedup3_geomean", "x"),
    ("peak_rss_mb", "MiB"),
];

/// Spans whose mean call time is a per-layer metric, with the metric's
/// name.
const SPAN_METRICS: &[(&str, &str)] = &[
    ("prolog.parse", "prolog.parse_ms"),
    ("bam.compile", "bam.compile_ms"),
    ("intcode.translate", "intcode.translate_ms"),
    ("intcode.decode", "intcode.decode_ms"),
    ("intcode.engine_new", "intcode.engine_new_ms"),
    ("intcode.emulate", "intcode.emulate_ms"),
    ("intcode.profile", "intcode.profile_ms"),
    ("intcode.fuse", "intcode.fuse_ms"),
    ("compactor.compact", "compactor.compact_ms"),
    ("compactor.compact.bam", "compactor.compact_ms.bam"),
    (
        "compactor.compact.bb_unbounded",
        "compactor.compact_ms.bb_unbounded",
    ),
    (
        "compactor.compact.trace_unbounded",
        "compactor.compact_ms.trace_unbounded",
    ),
    (
        "compactor.compact.trace_u1",
        "compactor.compact_ms.trace_u1",
    ),
    (
        "compactor.compact.trace_u2",
        "compactor.compact_ms.trace_u2",
    ),
    (
        "compactor.compact.trace_u3",
        "compactor.compact_ms.trace_u3",
    ),
    (
        "compactor.compact.trace_u4",
        "compactor.compact_ms.trace_u4",
    ),
    (
        "compactor.compact.trace_u5",
        "compactor.compact_ms.trace_u5",
    ),
    ("vliw.decode", "vliw.decode_ms"),
    ("vliw.sim_new", "vliw.sim_new_ms"),
    ("vliw.simulate", "vliw.simulate_ms"),
    ("serve.cache.load", "serve.cache.load_ms"),
    ("serve.start", "serve.start_ms"),
    ("serve.submit", "serve.submit_blocked_ms"),
    ("serve.finish", "serve.finish_ms"),
];

/// Spans whose share of the timed phases is a per-layer metric
/// (`<span>.share_pct`).
const SHARE_SPANS: &[&str] = &[
    "prolog.parse",
    "bam.compile",
    "intcode.translate",
    "intcode.decode",
    "intcode.engine_new",
    "intcode.emulate",
    "compactor.compact",
    "vliw.decode",
    "vliw.sim_new",
    "vliw.simulate",
    "serve.cache.load",
    "serve.start",
    "serve.submit",
    "serve.finish",
];

/// Per-layer metrics the workloads set directly, with units.
const LAYER_COUNTS: &[(&str, &str)] = &[
    ("intcode.steps", "count"),
    ("intcode.msteps_per_s", "Msteps/s"),
    ("intcode.batch_query_ms", "ms"),
    ("intcode.fuse.pairs", "count"),
    ("intcode.fuse.coverage_permille", "permille"),
    ("intcode.engine_bytes", "bytes"),
    ("compactor.code_growth", "x"),
    ("compactor.avg_region_len", "ops"),
    ("vliw.cycles", "count"),
    ("vliw.mcycles_per_s", "Mcycles/s"),
    ("serve.stage.queue_wait_p50_ms", "ms"),
    ("serve.stage.execute_p50_ms", "ms"),
    ("serve.shard.steals", "count"),
    ("fail_ratio", "ratio"),
    ("trace.overhead_pct", "%"),
];

/// Every per-layer metric, in print order. A layer the workload does
/// not exercise reads 0.
fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = SPAN_METRICS
        .iter()
        .map(|(_, metric)| (metric.to_string(), "ms"))
        .collect();
    out.extend(SHARE_SPANS.iter().map(|s| (format!("{s}.share_pct"), "%")));
    out.extend(LAYER_COUNTS.iter().map(|(n, u)| (n.to_string(), *u)));
    out
}

#[derive(Default)]
pub struct Metrics {
    e2e: BTreeMap<&'static str, f64>,
    layer: BTreeMap<String, f64>,
    notes: Vec<String>,
}

impl Metrics {
    pub fn e2e(&mut self, name: &'static str, v: f64) {
        self.e2e.insert(name, v);
    }

    pub fn layer(&mut self, name: &str, v: f64) {
        self.layer.insert(name.to_string(), v);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// A scratch directory inside the working directory, removed when the
/// run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Merges the per-configuration compaction spans into one layer.
fn merged(layers: &BTreeMap<&'static str, LayerTime>, prefix: &str) -> LayerTime {
    layers
        .iter()
        .filter(|(name, _)| name.starts_with(prefix))
        .fold(LayerTime::default(), |acc, (_, l)| LayerTime {
            calls: acc.calls + l.calls,
            total_ns: acc.total_ns + l.total_ns,
            timed_self_ns: acc.timed_self_ns + l.timed_self_ns,
            // Every configuration runs under the same program roots.
            phase_ns: acc.phase_ns.max(l.phase_ns),
        })
}

/// Per-layer metrics derived from the spans, and the per-phase
/// self-time table of the report.
fn span_metrics(tr: &Tracer, m: &mut Metrics) {
    let mut layers = tr.layers();
    let compact = merged(&layers, "compactor.compact.");
    layers.insert("compactor.compact", compact);
    for (span, metric) in SPAN_METRICS {
        if let Some(l) = layers.get(span) {
            m.layer(metric, l.mean_ms());
        }
    }
    for span in SHARE_SPANS {
        if let Some(l) = layers.get(span) {
            m.layer(&format!("{span}.share_pct"), l.share_pct());
        }
    }
    let phases = tr.phases();
    let mut table = String::from("self time per phase (ms, share of phase):");
    for (&(phase, _), &total) in phases.iter().filter(|((p, l), _)| p == l) {
        let _ = write!(table, "\n  {phase}: {:.3} ms total", total as f64 / 1e6);
        for (&(_, layer), &ns) in phases
            .range((phase, "")..)
            .take_while(|((p, _), _)| *p == phase)
        {
            if layer != phase {
                let _ = write!(
                    table,
                    "\n    {layer:<36} {:>12.3} ms {:>7.2}%",
                    ns as f64 / 1e6,
                    ns as f64 * 100.0 / total as f64
                );
            }
        }
    }
    m.note(table);
}

fn json_metrics(values: &[(String, f64, &str)]) -> String {
    let body: Vec<String> = values
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("symbench: {e}");
            eprintln!(
                "usage: symbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let out_dir = PathBuf::from(".symbench");
    let work = WorkDir(out_dir.join(format!("work-{}", std::process::id())));
    let mut tr = Tracer::new(args.trace);
    let mut m = Metrics::default();
    let mut tally = Tally::default();
    println!(
        "symbench {} seed {} seconds {} trace {} workers {}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        nproc()
    );
    let ran = match args.workload.as_str() {
        "serve_short" => serve::run(&serve::SHORT, &args, &work.0, &mut tr, &mut m, &mut tally),
        "serve_deep" => serve::run(&serve::DEEP, &args, &work.0, &mut tr, &mut m, &mut tally),
        _ => arch::run(&args, &mut tr, &mut m, &mut tally),
    };
    if let Err(e) = ran {
        tally.check(Err(e));
    }
    drop(work);
    match peak_rss_mb() {
        Some(mb) => m.e2e("peak_rss_mb", mb),
        None => tally.check(Err("VmHWM unavailable".to_string())),
    }
    m.layer(
        "intcode.engine_bytes",
        (symbol_intcode::Layout::default().total() * std::mem::size_of::<symbol_intcode::Word>())
            as f64,
    );
    m.layer(
        "fail_ratio",
        tally.failed as f64 / tally.attempted.max(1) as f64,
    );
    if args.trace {
        span_metrics(&tr, &mut m);
        let path = out_dir.join(format!("trace-{}-seed{}.json", args.workload, args.seed));
        match tr.write_chrome_trace(&path) {
            Ok(()) => m.note(format!("{} spans written to {}", tr.len(), path.display())),
            Err(e) => m.note(format!("could not write spans to {}: {e}", path.display())),
        }
    }

    let mut values: Vec<(String, f64, &str)> = if args.trace {
        per_layer()
            .into_iter()
            .map(|(name, unit)| {
                let v = m.layer.get(&name).copied().unwrap_or(0.0);
                (name, v, unit)
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .filter_map(|(name, unit)| m.e2e.get(name).map(|v| (name.to_string(), *v, *unit)))
            .collect()
    };
    if !args.trace && values.len() != END_TO_END.len() && tally.failed == 0 {
        tally.check(Err("an end-to-end metric was not measured".to_string()));
    }
    for (name, v, _) in &mut values {
        if !v.is_finite() {
            tally.check(Err(format!("{name} is not finite")));
            *v = 0.0;
        }
    }
    for line in &m.notes {
        println!("{line}");
    }
    for (name, v, unit) in &values {
        println!("  {name:<40} {v:>16.4} {unit}");
    }
    println!(
        "operations attempted {}, failed {} (fail_ratio {})",
        tally.attempted,
        tally.failed,
        tally.failed as f64 / tally.attempted.max(1) as f64
    );
    for why in &tally.notes {
        println!("FAILED: {why}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.failed == 0,
        tally.attempted.max(1),
        tally.failed,
        json_metrics(&values)
    );
    if tally.failed > 0 {
        std::process::exit(1);
    }
}
