//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <multiview_hot|scan_1m|ingest_durable> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. It draws the workload's inputs from the
//! seed, drives the library through its public APIs, checks answers
//! against a reference path, and prints detail lines, a stamp line, and as
//! the last line one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` (the end-to-end metrics untraced, the per-layer metrics with
//! `--trace 1`). Results and spans are also written under `.bench_out/`.
//! README.md describes every workload and metric.

mod bench;
mod loadgen;
mod stats;
mod storage;
mod sys;
mod trace;
mod workload;

use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: sys::CountingAlloc = sys::CountingAlloc;

/// Where results, spans and the durable store's files go, relative to the
/// directory the benchmark runs from.
const OUT_DIR: &str = ".bench_out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn json_metrics<'m>(metrics: impl IntoIterator<Item = &'m bench::Metric>) -> String {
    let fields: Vec<String> = metrics
        .into_iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// A JSON number with all its digits (JSON has no NaN or infinity).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(params) = workload::by_name(&args.workload) else {
        eprintln!(
            "perfbench: unknown workload {:?}; expected one of {:?}",
            args.workload,
            workload::NAMES
        );
        return ExitCode::from(2);
    };
    let out_dir = Path::new(OUT_DIR);
    if let Err(e) = std::fs::create_dir_all(out_dir) {
        eprintln!("perfbench: cannot create {OUT_DIR}: {e}");
        return ExitCode::from(1);
    }

    let stamp = sys::Stamp::collect();
    let outcome = bench::Bench::new(&params, args.seed, args.seconds, args.trace, out_dir).run();

    let correct = outcome.failed == 0;
    for line in &outcome.lines {
        println!("{line}");
    }
    // Per-layer metrics come from spans, so only a traced run has them.
    let per_layer: &[bench::Metric] = if args.trace { &outcome.per_layer } else { &[] };
    for (title, metrics) in [("end-to-end", &outcome.end_to_end[..]), ("per-layer", per_layer)] {
        println!("{title}:");
        for m in metrics {
            let mark = if m.gated { "" } else { "   (not gated)" };
            println!("  {:<28} {:>16.4} {}{mark}", m.name, m.value, m.unit);
        }
    }
    let stamp_json = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"git_rev\": {}, \"source_digest\": {}, \"rustc\": {}, \"nproc\": {}, \"llc\": {}}}",
        json_str(params.name),
        args.seed,
        json_num(args.seconds),
        u8::from(args.trace),
        json_str(&stamp.git_rev),
        json_str(&stamp.source_digest),
        json_str(&stamp.rustc),
        stamp.nproc,
        json_str(&stamp.llc),
    );
    println!("stamp: {stamp_json}");

    let shown = if args.trace { &outcome.per_layer } else { &outcome.end_to_end };
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted,
        outcome.failed,
        json_metrics(shown.iter().filter(|m| m.gated))
    );
    let tag = format!("{}-seed{}-trace{}", params.name, args.seed, u8::from(args.trace));
    let record = format!(
        "{{\"stamp\": {stamp_json}, \"result\": {result}, \"end_to_end\": {}, \"per_layer\": {}, \"lines\": [{}]}}\n",
        json_metrics(&outcome.end_to_end),
        json_metrics(per_layer),
        outcome.lines.iter().map(|l| json_str(l)).collect::<Vec<_>>().join(", ")
    );
    if let Err(e) = std::fs::write(out_dir.join(format!("{tag}.json")), record) {
        eprintln!("perfbench: cannot write the result file: {e}");
    }
    if let Some(csv) = &outcome.spans_csv {
        // One span file per workload: the latest traced run's.
        let path = out_dir.join(format!("spans-{}.csv", params.name));
        if let Err(e) = std::fs::write(&path, csv) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
    }
    println!("{result}");
    ExitCode::SUCCESS
}
