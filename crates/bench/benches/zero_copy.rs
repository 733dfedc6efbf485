//! `zero_copy` — what the ZAST v2 warm path and per-function parallel
//! pre-summarization buy:
//!
//! 1. **Load paths**: on the largest 2014-corpus file, a cold
//!    lex-and-parse vs [`php_ast::zast::decode_file`] (one checked pass
//!    that decodes every record once). Both must produce the same
//!    [`php_ast::ParsedFile`].
//! 2. **Warm daemon request**: a fresh server process (cold memory) over a
//!    populated `--cache-dir` answers one analyze request from the
//!    outcome tier; best-of-N must stay under 5 ms.
//! 3. **Per-function scaling**: the corpus plugin owning the largest
//!    single file, analyzed at `function_jobs` 1 / 2 / all cores. The
//!    outcome JSON must be byte-identical at every count, and at any
//!    count above 1 the largest file's analysis must split into many
//!    sub-file jobs (`engine.presummarize_jobs`) — the structural win;
//!    the wall-clock win on top of it requires more than one core.
//!
//! Results land in `BENCH_zero_copy.json` (smoke mode writes to a temp
//! dir instead).
//!
//! Run: `cargo bench -p phpsafe-bench --bench zero_copy [-- --smoke]`

use phpsafe::{AnalysisServer, EngineCaches, PhpSafe, PluginProject};
use phpsafe_corpus::{Corpus, Version};
use phpsafe_engine::DiskCache;
use phpsafe_obs::write_atomic;
use phpsafe_serve::{AnalyzeRequest, Json, RequestCtx, Service};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Median wall time of `iters` runs of `f`, in microseconds.
fn time_us(iters: usize, mut f: impl FnMut()) -> u64 {
    let mut samples: Vec<u64> = (0..iters)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_micros() as u64
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// The largest source file (by bytes) across the 2014 corpus.
fn largest_corpus_file() -> (String, String) {
    let corpus = Corpus::generate();
    let mut best: Option<(String, String)> = None;
    for plugin in corpus.plugins() {
        for f in plugin.project(Version::V2014).files() {
            if best.as_ref().is_none_or(|(_, c)| f.content.len() > c.len()) {
                best = Some((f.path.clone(), f.content.clone()));
            }
        }
    }
    best.expect("corpus has files")
}

/// The corpus plugin whose largest single file is the largest across the
/// whole 2014 corpus — the file per-file jobs cannot split any further.
fn largest_file_plugin() -> PluginProject {
    let corpus = Corpus::generate();
    corpus
        .plugins()
        .iter()
        .map(|p| p.project(Version::V2014))
        .max_by_key(|proj| {
            proj.files()
                .iter()
                .map(|f| f.content.len())
                .max()
                .unwrap_or(0)
        })
        .expect("corpus has plugins")
        .clone()
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let root = std::env::temp_dir().join(format!("phpsafe-zero-copy-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).unwrap();

    let iters = if smoke { 20 } else { 200 };

    // --- 1. load paths on the largest corpus file ---
    let (path, src) = largest_corpus_file();
    let parsed = php_ast::parse(&src);
    let zast = php_ast::zast::encode_file(&parsed);
    assert_eq!(
        php_ast::zast::decode_file(&zast).expect("ZAST decodes"),
        parsed,
        "ZAST decode must reproduce the parse"
    );

    let parse_us = time_us(iters, || {
        std::hint::black_box(php_ast::parse(&src));
    });
    let decode_us = time_us(iters, || {
        std::hint::black_box(php_ast::zast::decode_file(&zast).unwrap());
    });
    println!(
        "load paths ({path}, {} bytes, {} nodes): parse={parse_us}us zast_decode={decode_us}us",
        src.len(),
        parsed.arena.node_count(),
    );

    // --- 2. warm daemon request: cold memory, warm disk ---
    let cache_dir = root.join("cache");
    let plugin_dir = root.join("plugin");
    {
        let corpus = Corpus::generate();
        let project = corpus.plugins()[0].project(Version::V2014);
        for f in project.files() {
            let p = plugin_dir.join(&f.path);
            std::fs::create_dir_all(p.parent().unwrap()).unwrap();
            std::fs::write(&p, &f.content).unwrap();
        }
    }
    let req = AnalyzeRequest {
        paths: vec![plugin_dir.display().to_string()],
        tools: Vec::new(),
        jobs: Some(1),
        buffers: Vec::new(),
    };
    let open_server = || {
        let disk = Arc::new(DiskCache::open(&cache_dir).unwrap());
        AnalysisServer::with_caches(EngineCaches::with_disk(disk)).with_default_jobs(1)
    };
    // Seed the outcome/AST/summary tiers and keep the cold reports.
    let cold_response = open_server()
        .analyze(&RequestCtx::detached(), &req)
        .unwrap();
    let mut warm_samples_us: Vec<u64> = Vec::new();
    let warm_iters = if smoke { 5 } else { 20 };
    for _ in 0..warm_iters {
        let server = open_server(); // fresh process-equivalent: cold memory
        let t = Instant::now();
        let warm = server.analyze(&RequestCtx::detached(), &req).unwrap();
        warm_samples_us.push(t.elapsed().as_micros() as u64);
        assert_eq!(
            warm.get("fully_cached"),
            Some(&Json::Bool(true)),
            "warm request must answer from the outcome tier"
        );
        assert_eq!(
            warm.get("reports"),
            cold_response.get("reports"),
            "warm reports diverged from cold"
        );
    }
    warm_samples_us.sort_unstable();
    let warm_best_us = warm_samples_us[0];
    let warm_median_us = warm_samples_us[warm_samples_us.len() / 2];
    println!("warm daemon request: best={warm_best_us}us median={warm_median_us}us");
    assert!(
        warm_best_us < 5_000,
        "cold-memory/warm-disk request must answer in under 5ms, took {warm_best_us}us"
    );

    // --- 3. per-function scaling on the largest-file plugin ---
    phpsafe_obs::set_enabled(true);
    let subject = largest_file_plugin();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let job_counts: Vec<usize> = if cores > 2 {
        vec![1, 2, cores]
    } else {
        vec![1, 2]
    };
    let scale_iters = if smoke { 3 } else { 9 };
    let reference = PhpSafe::new()
        .analyze_with_caches(&subject, Some(&EngineCaches::new()))
        .to_json()
        .unwrap();
    let mut scaling = Vec::new();
    for &jobs in &job_counts {
        let tool = PhpSafe::new().with_function_jobs(jobs);
        let before = phpsafe_obs::snapshot();
        let us = time_us(scale_iters, || {
            // Fresh caches per run: a warm summary cache would make every
            // job count instant and measure nothing.
            let caches = EngineCaches::new();
            let out = tool
                .analyze_with_caches(&subject, Some(&caches))
                .to_json()
                .unwrap();
            assert_eq!(out, reference, "function_jobs={jobs} changed the outcome");
            caches.record();
        });
        let delta = phpsafe_obs::snapshot().since(&before);
        let split = delta.counter("engine.presummarize_jobs") / scale_iters as u64;
        let replays = delta.counter("cache.summary.hits") / scale_iters as u64;
        if jobs > 1 {
            // The structural gate: the file per-file jobs could never
            // split must now fan out into many sub-file units.
            assert!(
                split >= 2,
                "function_jobs={jobs} must split the plugin into sub-file jobs, got {split}"
            );
        }
        println!("function_jobs={jobs}: {us}us split={split} replays={replays}");
        scaling.push((jobs, us, split, replays));
    }

    // --- render the artifact ---
    let mut doc = String::new();
    let _ = writeln!(doc, "{{");
    let _ = writeln!(doc, "  \"bench\": \"zero_copy\",");
    let _ = writeln!(doc, "  \"smoke\": {smoke},");
    let _ = writeln!(
        doc,
        "  \"machine\": {{\"cores\": {cores}, \"note\": \"median of {iters} iterations per load path; warm daemon timed over a fresh server per request (cold memory, warm disk)\"}},"
    );
    let _ = writeln!(
        doc,
        "  \"load_paths\": {{\"file\": \"{path}\", \"bytes\": {}, \"nodes\": {}, \"cold_parse_us\": {parse_us}, \"zast_decode_us\": {decode_us}, \"decode_vs_parse\": {:.2}}},",
        src.len(),
        parsed.arena.node_count(),
        parse_us as f64 / decode_us.max(1) as f64,
    );
    let _ = writeln!(
        doc,
        "  \"warm_daemon_request\": {{\"samples\": {warm_iters}, \"best_us\": {warm_best_us}, \"median_us\": {warm_median_us}, \"under_5ms\": {}}},",
        warm_best_us < 5_000
    );
    let _ = writeln!(
        doc,
        "  \"function_jobs_scaling\": {{\"subject\": \"largest-file 2014 corpus plugin\", \"note\": \"sub_file_jobs is the structural win (the largest file's analysis becomes divisible); the wall-clock win on top requires >1 core\", \"runs\": ["
    );
    for (i, (jobs, us, split, replays)) in scaling.iter().enumerate() {
        let _ = writeln!(
            doc,
            "    {{\"function_jobs\": {jobs}, \"median_us\": {us}, \"speedup_vs_serial\": {:.2}, \"sub_file_jobs\": {split}, \"summary_replays\": {replays}}}{}",
            scaling[0].1 as f64 / (*us).max(1) as f64,
            if i + 1 < scaling.len() { "," } else { "" }
        );
    }
    let _ = writeln!(doc, "  ]}}");
    let _ = writeln!(doc, "}}");

    let out = if smoke {
        root.join("BENCH_zero_copy.json")
    } else {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_zero_copy.json")
    };
    write_atomic(&out, doc.as_bytes()).expect("write BENCH_zero_copy.json");
    println!("wrote {}", out.display());

    let _ = std::fs::remove_dir_all(&root);
}
