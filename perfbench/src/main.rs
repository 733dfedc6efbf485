//! perfbench — the repository's benchmark: every user path of phpsafe
//! (batch CLI cold and warm, warm daemon, edit → fresh answer), checked
//! for correctness, with a separate traced run for per-layer attribution.
//!
//! ```text
//! perfbench --phpsafe <BIN> --workload <NAME> --seed <N> --seconds <S> --trace <0|1>
//! perfbench --phpsafe <BIN> --selftest
//! ```
//!
//! The last stdout line is one JSON object:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{name:{"value":..,"unit":..}}}`.
//! `--trace 0` reports the end-to-end metrics of the shipped binaries run
//! as child processes; `--trace 1` runs an untraced window, then the
//! workload in process (alternately with operation spans only and with
//! every span), and reports the per-layer metrics. The benchmark, and so
//! every process it starts, runs pinned to one CPU (see
//! [`util::pin_to_one_cpu`]). Run context (commit, cores, pinned CPU,
//! profile, rustc, seed) goes to stderr and into the span file under
//! `.bench_work/`.

mod e2e;
mod fixture;
mod serve;
mod trace;
mod traced;
mod util;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

use e2e::{Bench, Window};
use fixture::Fixture;
use trace::{Layers, Recorder};
use util::Rng;

pub const WORKLOADS: [&str; 4] = ["batch_cold", "batch_warm", "serve_warm", "serve_edit"];

/// End-to-end metrics (`--trace 0`), with units.
pub const END_TO_END: [(&str, &str); 6] = [
    ("throughput_kloc_s", "kloc/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("cpu_ms_per_op", "ms"),
];

/// Per-layer metrics (`--trace 1`), per operation, with units.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("php-lexer.busy_ms", "ms"),
    ("php-lexer.tokens", "count"),
    ("php-ast.busy_ms", "ms"),
    ("php-ast.nodes", "count"),
    ("core.symbols.busy_ms", "ms"),
    ("core.analyzer.busy_ms", "ms"),
    ("core.analyzer.summary_hit_ratio", "ratio"),
    ("core.analyzer.failed_files", "count"),
    ("core.report.render_us", "us"),
    ("core.project.load_us", "us"),
    ("core.project.bytes_hashed", "bytes"),
    ("core.caching.ast_load_us", "us"),
    ("core.caching.ast_hit_ratio", "ratio"),
    ("core.caching.persist_us", "us"),
    ("engine.disk.open_us", "us"),
    ("engine.disk.probe_us", "us"),
    ("engine.disk.hits", "count"),
    ("engine.disk.misses", "count"),
    ("engine.disk.bytes_read", "bytes"),
    ("engine.disk.bytes_written", "bytes"),
    ("engine.disk.store_failed", "count"),
    ("engine.depgraph.dependents_us", "us"),
    ("engine.depgraph.affected_files", "count"),
    ("core.server.analyze_us", "us"),
    ("core.server.invalidate_us", "us"),
    ("core.server.reparsed_files", "count"),
    ("serve.dispatch_us", "us"),
    ("serve.queue_wait_us", "us"),
    ("serve.transport_us", "us"),
    ("serve.outside_service_share", "ratio"),
    ("unattributed_us", "us"),
    ("trace.e2e_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.attributed_share", "ratio"),
    ("disk_growth_kb_per_op", "kB"),
    ("error_frac", "ratio"),
    ("sample_count", "count"),
    ("traced_sample_count", "count"),
    ("setup_samples", "count"),
];

struct Args {
    phpsafe: PathBuf,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    selftest: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        phpsafe: PathBuf::new(),
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        selftest: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--selftest" {
            a.selftest = true;
            continue;
        }
        let v = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--phpsafe" => a.phpsafe = PathBuf::from(v),
            "--workload" => a.workload = v,
            "--seed" => a.seed = v.parse().map_err(|_| format!("bad --seed `{v}`"))?,
            "--seconds" => a.seconds = v.parse().map_err(|_| format!("bad --seconds `{v}`"))?,
            "--trace" => a.trace = v == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !a.phpsafe.is_file() {
        return Err(format!("--phpsafe {} is not a file", a.phpsafe.display()));
    }
    if !a.selftest && !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    Ok(a)
}

/// Where run inputs live: `.bench_work/run` under the current directory
/// (the checkout root), emptied before and after each run.
fn work_dir() -> PathBuf {
    PathBuf::from(".bench_work").join("run")
}

fn prepare(phpsafe: &Path, seconds: f64, seed: u64) -> Result<Bench, String> {
    let work = std::env::current_dir()
        .map_err(|e| e.to_string())?
        .join(work_dir());
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).map_err(|e| e.to_string())?;
    let fixture = Fixture::dump(&work.join("corpus"))?;
    let references = fixture
        .plugins
        .iter()
        .map(|p| fixture::reference_report(&p.project))
        .collect();
    Ok(Bench {
        bin: std::fs::canonicalize(phpsafe).map_err(|e| e.to_string())?,
        work,
        fixture,
        seconds,
        seed,
        references,
    })
}

fn untraced(b: &Bench, workload: &str, seconds: f64, rng: &mut Rng) -> Window {
    match workload {
        "batch_cold" => b.batch(false, seconds, rng),
        "batch_warm" => b.batch(true, seconds, rng),
        "serve_warm" => b.serve(false, seconds, rng),
        _ => b.serve(true, seconds, rng),
    }
}

/// Runs one workload; returns `(attempted, failed, metrics)`.
fn run(b: &Bench, workload: &str, trace: bool) -> (u64, u64, Vec<(&'static str, f64)>) {
    let mut rng = Rng::new(b.seed);
    if !trace {
        let w = untraced(b, workload, b.seconds, &mut rng);
        report_error(&w);
        let m = w.metrics();
        eprintln!(
            "perfbench: {workload}: {} ops, {} failed, setup samples {}",
            w.ops,
            w.failed,
            w.setup_s.len()
        );
        let metrics = END_TO_END.iter().map(|(n, _)| (*n, m[n])).collect();
        return (w.ops.max(1), w.failed, metrics);
    }
    let w = untraced(b, workload, b.seconds / 3.0, &mut rng);
    report_error(&w);
    let (mut attempted, mut failed) = (w.ops, w.failed);
    // The rest of the run is in process, in four windows: operation spans
    // only, every span, every span, operation spans only. A drift in host
    // speed during the run then falls on both sides of the tracing
    // overhead alike.
    let window = b.seconds / 6.0;
    let roots = Arc::new(Recorder::roots_only());
    let rec = Arc::new(Recorder::new());
    let (mut baseline, mut layers) = (Layers::default(), Layers::default());
    let mut traced_spans = Vec::new();
    for traced in [false, true, true, false] {
        let (r, l) = if traced {
            (&rec, &mut layers)
        } else {
            (&roots, &mut baseline)
        };
        let t = match workload {
            "batch_cold" => traced::batch(b, false, window, &mut rng, r, l),
            "batch_warm" => traced::batch(b, true, window, &mut rng, r, l),
            "serve_warm" => traced::serve_warm(b, window, &mut rng, r, l),
            _ => traced::serve_edit(b, window, &mut rng, r, l),
        };
        report_error(&t);
        attempted += t.ops;
        failed += t.failed;
        let spans = r.take();
        l.absorb(&spans);
        if traced {
            traced_spans.push(spans);
        }
    }
    let attempted = attempted.max(1);
    let spans_path =
        Path::new(".bench_work").join(format!("spans-{workload}-seed{}.jsonl", b.seed));
    if let Err(e) = rec.write(&spans_path, &stamp(b.seed), &traced_spans) {
        eprintln!("perfbench: cannot write {}: {e}", spans_path.display());
    }
    let mut metrics = layers.metrics(util::median(&baseline.e2e_us));
    metrics.push((
        "disk_growth_kb_per_op",
        w.disk_growth as f64 / 1024.0 / w.ops.max(1) as f64,
    ));
    metrics.push(("error_frac", failed as f64 / attempted as f64));
    metrics.push(("sample_count", w.latency_ms.len() as f64));
    metrics.push(("traced_sample_count", layers.e2e_us.len() as f64));
    metrics.push(("setup_samples", w.setup_s.len() as f64));
    explain(workload, &metrics);
    (attempted, failed, metrics)
}

fn report_error(w: &Window) {
    if let Some(e) = &w.first_error {
        eprintln!("perfbench: correctness failure ({} total): {e}", w.failed);
    }
}

/// Human-readable attribution summary on stderr.
fn explain(workload: &str, metrics: &[(&str, f64)]) {
    let get = |n: &str| {
        metrics
            .iter()
            .find(|(k, _)| *k == n)
            .map_or(0.0, |(_, v)| *v)
    };
    eprintln!(
        "perfbench: {workload}: traced e2e {:.3} ms/op, attributed {:.1}%, unattributed {:.1} us/op, tracing overhead {:.3} ms/op",
        get("trace.e2e_ms"),
        100.0 * get("trace.attributed_share"),
        get("unattributed_us"),
        get("trace.overhead_ms"),
    );
    if workload.starts_with("serve") {
        eprintln!(
            "perfbench: {workload}: outside service {:.1}% of client latency (transport {:.1} us, dispatch {:.1} us, queue {:.1} us)",
            100.0 * get("serve.outside_service_share"),
            get("serve.transport_us"),
            get("serve.dispatch_us"),
            get("serve.queue_wait_us"),
        );
    }
}

fn stamp(seed: u64) -> String {
    let cmd = |prog: &str, args: &[&str]| {
        std::process::Command::new(prog)
            .args(args)
            .output()
            .ok()
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".into())
    };
    let cores = util::cpus();
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let pinned = util::pinned_cpu().map_or("none".to_string(), |c| c.to_string());
    format!(
        "commit={} nproc={cores} pinned_cpu={pinned} profile={profile} rustc=\"{}\" seed={seed}",
        std::env::var("PERFBENCH_COMMIT").unwrap_or_else(|_| "unknown".into()),
        cmd("rustc", &["--version"]),
    )
}

fn json_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64)],
    units: &[(&str, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v)| {
            let unit = units.iter().find(|(k, _)| k == n).map_or("", |(_, u)| *u);
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(*v)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if util::pin_to_one_cpu().is_none() {
        eprintln!("perfbench: cannot pin to one CPU; figures will be noisier");
    }
    if args.selftest {
        return selftest(&args.phpsafe);
    }
    eprintln!("perfbench: {}", stamp(args.seed));
    let bench = match prepare(&args.phpsafe, args.seconds, args.seed) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("perfbench: set-up failed: {e}");
            return ExitCode::from(1);
        }
    };
    eprintln!(
        "perfbench: corpus: {} plugin snapshots, {} LOC",
        bench.fixture.plugins.len(),
        bench.fixture.total_loc
    );
    let (attempted, failed, metrics) = run(&bench, &args.workload, args.trace);
    let _ = std::fs::remove_dir_all(&bench.work);
    let units: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    println!(
        "{}",
        json_line(failed == 0, attempted, failed, &metrics, units)
    );
    ExitCode::SUCCESS
}

/// Smoke-runs every workload briefly, untraced and traced, and checks that
/// each prints exactly the metrics `BENCHMARK.json` names, with their
/// units, and no failures; then checks that wrong references make the
/// correctness checks fail.
fn selftest(phpsafe: &Path) -> ExitCode {
    let mut problems = Vec::new();
    let declared = match declared_metrics() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("perfbench selftest: {e}");
            return ExitCode::from(1);
        }
    };
    let bench = match prepare(phpsafe, 1.0, 1) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("perfbench selftest: set-up failed: {e}");
            return ExitCode::from(1);
        }
    };
    for workload in WORKLOADS {
        for trace in [false, true] {
            let (attempted, failed, metrics) = run(&bench, workload, trace);
            let units: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
            let line = json_line(failed == 0, attempted, failed, &metrics, units);
            let printed = printed_metrics(&line);
            let want = if trace { &declared.1 } else { &declared.0 };
            if &printed != want {
                problems.push(format!(
                    "{workload} trace={trace}: printed {printed:?}, BENCHMARK.json declares {want:?}"
                ));
            }
            if failed != 0 {
                problems.push(format!(
                    "{workload} trace={trace}: {failed} failed operations"
                ));
            }
            eprintln!("perfbench selftest: {workload} trace={trace}: {attempted} ops");
        }
    }
    problems.extend(wrong_references_fail(&bench));
    let _ = std::fs::remove_dir_all(&bench.work);
    if problems.is_empty() {
        eprintln!("perfbench selftest: ok");
        ExitCode::SUCCESS
    } else {
        for p in &problems {
            eprintln!("perfbench selftest: FAIL: {p}");
        }
        ExitCode::from(1)
    }
}

type NameUnits = Vec<(String, String)>;

/// `(end_to_end, per_layer)` names and units from `BENCHMARK.json`.
fn declared_metrics() -> Result<(NameUnits, NameUnits), String> {
    let text =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let doc = phpsafe_serve::parse(&text)?;
    let list = |key: &str| -> NameUnits {
        doc.get(key)
            .and_then(phpsafe_serve::Json::as_arr)
            .unwrap_or_default()
            .iter()
            .map(|m| {
                let s = |k: &str| {
                    m.get(k)
                        .and_then(phpsafe_serve::Json::as_str)
                        .unwrap_or("")
                        .to_string()
                };
                (s("name"), s("unit"))
            })
            .collect()
    };
    Ok((list("end_to_end"), list("per_layer")))
}

fn printed_metrics(line: &str) -> NameUnits {
    let doc = phpsafe_serve::parse(line).expect("result line is JSON");
    match doc.get("metrics") {
        Some(phpsafe_serve::Json::Obj(fields)) => fields
            .iter()
            .map(|(k, v)| {
                let unit = v
                    .get("unit")
                    .and_then(phpsafe_serve::Json::as_str)
                    .unwrap_or("");
                (k.clone(), unit.to_string())
            })
            .collect(),
        _ => Vec::new(),
    }
}

/// A broken checker must not pass silently: each check is fed a wrong
/// reference and must reject the program's (correct) output.
fn wrong_references_fail(b: &Bench) -> Vec<String> {
    let mut problems = Vec::new();
    let order = b.dirs_of(None);
    let out = std::process::Command::new(&b.bin)
        .args(["--jobs", "1", "--json"])
        .args(order.iter().map(|&i| &b.fixture.plugins[i].dir))
        .output();
    let stdout = out
        .map(|o| String::from_utf8_lossy(&o.stdout).into_owned())
        .unwrap_or_default();
    if fixture::BatchChecker::new(&b.fixture)
        .check(&order, &stdout)
        .is_err()
    {
        problems.push("batch checker rejects correct output".into());
    }
    let mut wrong = fixture::TABLE_I;
    wrong[1].1 += 1;
    if fixture::BatchChecker::with_table(&b.fixture, wrong)
        .check(&order, &stdout)
        .is_ok()
    {
        problems.push("batch checker accepts a wrong Table I".into());
    }
    let (pi, plugin) = b
        .fixture
        .of_version(phpsafe_corpus::Version::V2014)
        .next()
        .expect("2014 plugins");
    let smoke = match serve_once(b, plugin) {
        Ok(r) => r,
        Err(e) => return vec![format!("daemon smoke: {e}")],
    };
    if serve::ReplyChecker::new(b.references.clone())
        .check(pi, &smoke.analyze)
        .is_err()
    {
        problems.push("reply checker rejects a correct reply".into());
    }
    let mut refs = b.references.clone();
    refs[pi] = refs[pi].replacen("\"line\": ", "\"line\": 1", 1);
    if serve::ReplyChecker::new(refs.clone())
        .check(pi, &smoke.analyze)
        .is_ok()
    {
        problems.push("reply checker accepts a reply that differs from its reference".into());
    }
    // serve_edit's checks: the invalidate reply must name a dirty file, and
    // the analyze reply must match the reference of the content it saw.
    if serve::check_invalidate(&smoke.invalidate_edited).is_err() {
        problems.push("invalidate check rejects a reply after a real edit".into());
    }
    if serve::check_invalidate(&smoke.invalidate_unchanged).is_ok() {
        problems.push("invalidate check accepts a reply with no dirty file".into());
    }
    let edit_check = |reference: &str| {
        let key = e2e::snapshot_key(pi, &Vec::new());
        let refs = std::collections::HashMap::from([(key, reference.to_owned())]);
        let mut w = Window::default();
        e2e::check_edit_replies(
            &mut w,
            vec![(pi, Vec::new(), Ok(smoke.analyze.clone()))],
            &refs,
        );
        w.failed
    };
    if edit_check(&b.references[pi]) != 0 {
        problems.push("edit checker rejects a reply equal to its fresh reference".into());
    }
    if edit_check(&refs[pi]) == 0 {
        problems.push("edit checker accepts a reply that differs from its fresh reference".into());
    }
    problems
}

/// Replies of a short daemon session on `plugin`: one `analyze`, an
/// `invalidate` of an unchanged file, and one after editing that file.
struct Smoke {
    analyze: String,
    invalidate_unchanged: String,
    invalidate_edited: String,
}

fn serve_once(b: &Bench, plugin: &fixture::Plugin) -> Result<Smoke, String> {
    let daemon = serve::DaemonProc::spawn(&b.bin, &b.work.join("selftest-cache"))?;
    let mut client = serve::Client::connect(&daemon.addr)?;
    let analyze = client.call(&serve::analyze_request(&plugin.dir))?;
    let file = &plugin.project.files()[0];
    let path = plugin.dir.join(&file.path);
    let invalidate_unchanged = client.call(&serve::invalidate_request(&path))?;
    let edited = fixture::apply_edit(&file.content, fixture::Edit::Comment, 1);
    std::fs::write(&path, edited).map_err(|e| format!("write: {e}"))?;
    let invalidate_edited = client.call(&serve::invalidate_request(&path));
    std::fs::write(&path, &file.content).map_err(|e| format!("restore: {e}"))?;
    daemon.shutdown(&mut client)?;
    Ok(Smoke {
        analyze,
        invalidate_unchanged,
        invalidate_edited: invalidate_edited?,
    })
}
