//! Traced windows: the same workloads run in-process through the
//! libraries' public calls, with spans (see [`crate::trace`]).

use std::sync::Arc;
use std::time::Instant;

use phpsafe::{load_project, EngineCaches, PluginProject};
use phpsafe_corpus::Version;
use phpsafe_engine::DiskCache;

use crate::e2e::{Bench, EditCycle, Window};
use crate::fixture::analyzer;
use crate::serve::{analyze_request, Client, ReplyChecker, SHUTDOWN};
use crate::trace::{
    add_disk, probe_outcome, probe_parse, probe_symbols, req_id, InProcessDaemon, Layers, Recorder,
};
use crate::util::Rng;

fn load(
    rec: &Recorder,
    layers: &mut Layers,
    op: u64,
    parent: u64,
    dir: &std::path::Path,
) -> PluginProject {
    let name = "core.project.load";
    let body = || {
        let p = load_project(dir).expect("dumped plugin loads");
        std::hint::black_box(p.content_key());
        p
    };
    let p = if parent == 0 {
        rec.probe(op, name, body)
    } else {
        rec.leaf(op, parent, name, body)
    };
    layers.add(
        "bytes_hashed",
        p.files().iter().map(|f| f.content.len()).sum::<usize>() as f64,
    );
    p
}

fn add_summaries(layers: &mut Layers, before: &EngineCaches, snapshot: phpsafe::CacheTotals) {
    let after = before.totals().summary;
    layers.add("summary_hits", (after.hits - snapshot.summary.hits) as f64);
    layers.add(
        "summary_lookups",
        (after.lookups() - snapshot.summary.lookups()) as f64,
    );
}

/// Batch passes in-process: per plugin `load_project` + `content_key`,
/// `AstCache::parse` of every file (cold: lex + parse; warm: a restarted
/// disk-backed cache set, so ZAST loads), `analyze_with_caches` over the
/// ready ASTs, `to_json`; then one `EngineCaches::persist`. Lexer, parser
/// and symbol-table probes follow each pass.
pub fn batch(
    b: &Bench,
    warm: bool,
    seconds: f64,
    rng: &mut Rng,
    rec: &Recorder,
    layers: &mut Layers,
) -> Window {
    let mut w = Window::default();
    let cache = b.work.join("cache");
    let tool = analyzer();
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < seconds {
        let mut order = b.dirs_of(None);
        rng.shuffle(&mut order);
        let op = rec.new_id();
        let start = Instant::now();
        let caches = if warm {
            let disk = rec.leaf(op, op, "engine.disk.open", || DiskCache::open(&cache));
            EngineCaches::with_disk(Arc::new(disk.expect("cache dir opens")))
        } else {
            EngineCaches::new()
        };
        let disk0 = caches.disk().map(|d| d.counters());
        let totals0 = caches.totals();
        let mut reports = Vec::with_capacity(order.len());
        let mut projects = Vec::with_capacity(order.len());
        for &pi in &order {
            let project = load(rec, layers, op, op, &b.fixture.plugins[pi].dir);
            let parse0 = caches.ast().counters();
            let disk_hits0 = caches.disk().map_or(0, |d| d.counters().hits);
            rec.leaf(op, op, "core.caching.ast", || {
                for f in project.files() {
                    std::hint::black_box(caches.ast().parse(&f.content));
                }
            });
            let parse1 = caches.ast().counters();
            let disk_hits = caches.disk().map_or(0, |d| d.counters().hits) - disk_hits0;
            layers.add("ast_lookups", (parse1.lookups() - parse0.lookups()) as f64);
            layers.add(
                "ast_unparsed",
                (parse1.hits - parse0.hits + disk_hits) as f64,
            );
            let outcome = rec.leaf(op, op, "core.analyzer", || {
                tool.analyze_with_caches(&project, Some(&caches))
            });
            layers.add("failed_files", outcome.failed_files() as f64);
            reports.push(rec.leaf(op, op, "core.report", || outcome.to_json()));
            projects.push(project);
        }
        rec.leaf(op, op, "core.caching.persist", || caches.persist());
        rec.record(op, 0, op, "pass", false, start, Instant::now());
        add_summaries(layers, &caches, totals0);
        if let (Some(d0), Some(disk)) = (disk0, caches.disk()) {
            add_disk(layers, d0, disk.counters());
        }
        w.ops += 1;
        for (&pi, report) in order.iter().zip(&reports) {
            match report {
                Ok(r) if *r == b.references[pi] => {}
                _ => w.fail(format!("plugin #{pi}: in-process report differs")),
            }
        }
        // Probes: the batch program lexes and parses only when cold; it
        // builds symbol tables on every pass.
        for project in &projects {
            if !warm {
                for f in project.files() {
                    probe_parse(rec, layers, op, &f.content);
                }
            }
            probe_symbols(rec, op, project, &caches);
        }
    }
    layers.ops += w.ops;
    w
}

/// Starts the in-process daemon on the run's cache dir and warms it with
/// one request per 2014 plugin. Returns the daemon, the client and the
/// number of lines sent so far on the connection.
fn start_daemon(
    b: &Bench,
    rec: &Arc<Recorder>,
    checker: &mut ReplyChecker,
    w: &mut Window,
) -> Result<(InProcessDaemon, Client, u64), String> {
    let daemon = InProcessDaemon::start(&b.work.join("cache"), Arc::clone(rec))?;
    let mut client = Client::connect(&daemon.addr)?;
    let mut k = 0;
    for (pi, p) in b.fixture.of_version(Version::V2014) {
        let reply = client.call(&analyze_request(&p.dir))?;
        k += 1;
        if let Err(e) = checker.check(pi, &reply) {
            w.fail(e);
        }
    }
    Ok((daemon, client, k))
}

fn stop_daemon(daemon: InProcessDaemon, mut client: Client, w: &mut Window) {
    for (name, (sum, n)) in daemon.service.marks.lock().expect("marks lock").iter() {
        eprintln!(
            "perfbench: cross-check: daemon mark {name} mean {:.1} over {n} requests",
            *sum as f64 / (*n).max(1) as f64
        );
    }
    if let Err(e) = client.call(SHUTDOWN).and_then(|_| daemon.join()) {
        w.fail(e);
    }
}

/// `serve_warm` against the in-process daemon. Per request, after the
/// reply: probes of `load_project` + `content_key`, the outcome-tier
/// `DiskCache::load` and `EngineCaches::persist`.
pub fn serve_warm(
    b: &Bench,
    seconds: f64,
    rng: &mut Rng,
    rec: &Arc<Recorder>,
    layers: &mut Layers,
) -> Window {
    let mut w = Window::default();
    let mut checker = ReplyChecker::new(b.references.clone());
    let (daemon, mut client, mut k) = match start_daemon(b, rec, &mut checker, &mut w) {
        Ok(x) => x,
        Err(e) => {
            w.fail(e);
            return w;
        }
    };
    rec.clear();
    daemon.service.marks.lock().expect("marks lock").clear();
    let probe_disk = DiskCache::open(b.work.join("cache")).expect("cache dir opens");
    let server_disk = Arc::clone(daemon.service.inner.caches().disk().expect("disk tier"));
    let disk0 = server_disk.counters();
    let mut on_request = |pi: usize, start: Instant, end: Instant| {
        let op = req_id(k);
        rec.record(op, 0, op, "client.request", false, start, end);
        k += 1;
        let project = load(rec, layers, op, 0, &b.fixture.plugins[pi].dir);
        probe_outcome(rec, op, &probe_disk, &project);
        rec.probe(op, "core.caching.persist", || {
            daemon.service.inner.caches().persist()
        });
    };
    b.warm_window(
        &mut w,
        &mut client,
        &mut checker,
        seconds,
        rng,
        Some(&mut on_request),
    );
    add_disk(layers, disk0, server_disk.counters());
    layers.ops += w.ops;
    stop_daemon(daemon, client, &mut w);
    w
}

/// `serve_edit` against the in-process daemon. Per cycle, after the
/// analyze reply: probes of the edited project's load, the edited file's
/// lex and parse, its symbol table, `DepGraph::dependents_of` on the
/// pre-edit graph, `analyze_with_caches` over ready ASTs, `to_json`, the
/// outcome-tier probe and `persist`.
pub fn serve_edit(
    b: &Bench,
    seconds: f64,
    rng: &mut Rng,
    rec: &Arc<Recorder>,
    layers: &mut Layers,
) -> Window {
    let mut w = Window::default();
    let mut checker = ReplyChecker::new(b.references.clone());
    let (daemon, mut client, mut k) = match start_daemon(b, rec, &mut checker, &mut w) {
        Ok(x) => x,
        Err(e) => {
            w.fail(e);
            return w;
        }
    };
    rec.clear();
    daemon.service.marks.lock().expect("marks lock").clear();
    let probe_disk = DiskCache::open(b.work.join("cache")).expect("cache dir opens");
    let server = &daemon.service.inner;
    let server_disk = Arc::clone(server.caches().disk().expect("disk tier"));
    let disk0 = server_disk.counters();
    let caches = EngineCaches::new();
    let tool = analyzer();
    let mut on_cycle = |c: &EditCycle| {
        let op = rec.new_id();
        rec.record(op, 0, op, "cycle", false, c.start, c.end);
        for &(start, end) in &c.requests {
            rec.record(req_id(k), op, op, "client.request", false, start, end);
            k += 1;
        }
        layers.add("reparsed", c.reparsed as f64);
        let plugin = &b.fixture.plugins[c.plugin];
        let project = load(rec, layers, op, 0, &plugin.dir);
        let edited = project.find_file(&c.file).expect("edited file exists");
        probe_parse(rec, layers, op, &edited.content);
        probe_symbols(rec, op, &project, &caches);
        let affected = rec.probe(op, "engine.depgraph", || {
            server
                .caches()
                .lookup_depgraph(c.prev_key)
                .map_or(0, |g| g.dependents_of(&[c.file.as_str()]).len())
        });
        layers.add("affected_files", affected as f64);
        let totals0 = caches.totals();
        let outcome = rec.probe(op, "core.analyzer", || {
            tool.analyze_with_caches(&project, Some(&caches))
        });
        add_summaries(layers, &caches, totals0);
        layers.add("failed_files", outcome.failed_files() as f64);
        let _ = std::hint::black_box(rec.probe(op, "core.report", || outcome.to_json()));
        probe_outcome(rec, op, &probe_disk, &project);
        rec.probe(op, "core.caching.persist", || server.caches().persist());
    };
    b.edit_window(&mut w, &mut client, seconds, rng, None, Some(&mut on_cycle));
    add_disk(layers, disk0, server_disk.counters());
    layers.ops += w.ops;
    stop_daemon(daemon, client, &mut w);
    w
}
