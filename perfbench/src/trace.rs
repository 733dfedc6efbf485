//! The traced run: spans recorded in the benchmark's own code around calls
//! into each layer's public functions. Nothing is added inside the
//! program.
//!
//! A span has an id, a parent (0 for a root), the operation it belongs to,
//! a name, a start and an end. Roots are operations (a batch pass, a
//! request, an edit cycle); a layer's self time is its span's duration
//! minus its children's. Layers whose work happens inside an opaque public
//! call (lexing inside `AstCache::parse`, symbols inside the analyzer) are
//! measured by *probe* spans: the same public call on the same input, run
//! right after the operation, outside its end-to-end time.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use phpsafe::server::OUTCOME_NAMESPACE;
use phpsafe::symbols::SymbolTable;
use phpsafe::{AnalysisServer, EngineCaches, PluginProject};
use phpsafe_engine::{DiskCache, DiskCounters};
use phpsafe_serve::{
    AnalyzeRequest, Control, Daemon, InvalidateRequest, Json, RequestCtx, ServerConfig, Service,
};

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub op: u64,
    pub name: &'static str,
    pub probe: bool,
    pub start: Instant,
    pub end: Instant,
}

/// In-memory span store shared by the client, transport and worker
/// threads; written out once when the run ends.
pub struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    next: AtomicU64,
    /// Keep only operation spans: the same code path with its layer spans
    /// off, the baseline of the tracing overhead.
    roots_only: bool,
}

/// Request spans use fixed ids so the client, transport and worker
/// threads agree on parents without talking: request `k` (0-based line
/// number on the one connection) owns ids `REQ + 4k .. REQ + 4k + 3`.
const REQ: u64 = 1 << 40;

pub fn req_id(k: u64) -> u64 {
    REQ + 4 * k
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            next: AtomicU64::new(1),
            roots_only: false,
        }
    }

    /// A recorder that keeps only operation (root) spans.
    pub fn roots_only() -> Recorder {
        Recorder {
            roots_only: true,
            ..Recorder::new()
        }
    }

    pub fn new_id(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &self,
        id: u64,
        parent: u64,
        op: u64,
        name: &'static str,
        probe: bool,
        start: Instant,
        end: Instant,
    ) {
        if self.roots_only && (parent != 0 || probe) {
            return;
        }
        self.spans.lock().expect("recorder lock").push(Span {
            id,
            parent,
            op,
            name,
            probe,
            start,
            end,
        });
    }

    /// Times `f` as a leaf span.
    pub fn leaf<R>(&self, op: u64, parent: u64, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let r = f();
        self.record(
            self.new_id(),
            parent,
            op,
            name,
            false,
            start,
            Instant::now(),
        );
        r
    }

    /// Times `f` as a probe span (outside the operation's e2e time).
    pub fn probe<R>(&self, op: u64, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let r = f();
        self.record(self.new_id(), 0, op, name, true, start, Instant::now());
        r
    }

    /// Drops spans recorded so far (warm-up traffic before the window).
    pub fn clear(&self) {
        self.spans.lock().expect("recorder lock").clear();
    }

    /// Takes the spans recorded so far.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("recorder lock"))
    }

    /// Writes the run's stamp, then every span of every window as one
    /// JSON line (times in µs from the run's start). Each in-process
    /// daemon numbers its requests from 0, so a span's ids are unique
    /// within its `window` only.
    pub fn write(&self, path: &Path, stamp: &str, windows: &[Vec<Span>]) -> std::io::Result<()> {
        let mut out = format!("{{\"stamp\":{}}}\n", Json::Str(stamp.to_owned()).emit());
        for (window, spans) in windows.iter().enumerate() {
            // Daemon-side spans do not know their operation; inherit it
            // from the parent chain so every span of an operation shares
            // its id.
            let by_id: BTreeMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
            fn op_of<'a>(by_id: &BTreeMap<u64, &'a Span>, mut s: &'a Span) -> u64 {
                while s.op == 0 {
                    match by_id.get(&s.parent) {
                        Some(p) => s = p,
                        None => break,
                    }
                }
                s.op
            }
            for s in spans {
                out.push_str(&format!(
                    "{{\"window\":{window},\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"probe\":{},\"start_us\":{:.3},\"end_us\":{:.3}}}\n",
                    s.id,
                    s.parent,
                    op_of(&by_id, s),
                    s.name,
                    s.probe,
                    crate::util::us(s.start - self.epoch),
                    crate::util::us(s.end - self.epoch)
                ));
            }
        }
        std::fs::write(path, out)
    }
}

/// Per-layer totals over the traced operations (counts are added to
/// `counts` by the workload code as it goes).
#[derive(Default)]
pub struct Layers {
    pub ops: u64,
    pub counts: BTreeMap<&'static str, f64>,
    /// Traced end-to-end time of each operation (µs).
    pub e2e_us: Vec<f64>,
    pub self_us: BTreeMap<&'static str, f64>,
    pub unattributed_us: f64,
}

impl Layers {
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.counts.entry(name).or_default() += v;
    }

    /// Folds the recorded spans into per-layer self times. A root's own
    /// self time is unattributed, except a client request's, which is by
    /// definition transport (round trip minus `handle_line`).
    pub fn absorb(&mut self, spans: &[Span]) {
        let mut child_us: BTreeMap<u64, f64> = BTreeMap::new();
        for s in spans.iter().filter(|s| s.parent != 0) {
            *child_us.entry(s.parent).or_default() += crate::util::us(s.end - s.start);
        }
        for s in spans {
            let dur = crate::util::us(s.end - s.start);
            let own = (dur - child_us.get(&s.id).copied().unwrap_or(0.0)).max(0.0);
            if s.parent == 0 && !s.probe {
                self.e2e_us.push(dur);
                if s.name != "client.request" {
                    self.unattributed_us += own;
                    continue;
                }
            }
            *self.self_us.entry(layer_of(s.name)).or_default() += own;
        }
    }

    fn per_op(&self, v: f64) -> f64 {
        v / self.ops.max(1) as f64
    }

    fn busy_us(&self, layer: &str) -> f64 {
        self.per_op(self.self_us.get(layer).copied().unwrap_or(0.0))
    }

    fn count(&self, name: &str) -> f64 {
        self.per_op(self.counts.get(name).copied().unwrap_or(0.0))
    }

    fn ratio(&self, hits: &str, lookups: &str) -> f64 {
        let l = self.counts.get(lookups).copied().unwrap_or(0.0);
        if l == 0.0 {
            0.0
        } else {
            self.counts.get(hits).copied().unwrap_or(0.0) / l
        }
    }

    /// The per-layer metrics, per operation. `untraced_e2e_us` is the
    /// median operation time of the same in-process code path run with
    /// only operation spans recorded.
    pub fn metrics(&self, untraced_e2e_us: f64) -> Vec<(&'static str, f64)> {
        let e2e = crate::util::median(&self.e2e_us);
        let mean_e2e = self.e2e_us.iter().sum::<f64>() / self.e2e_us.len().max(1) as f64;
        let unattributed = self.per_op(self.unattributed_us);
        let outside = self.busy_us("serve.transport")
            + self.busy_us("serve.dispatch")
            + self.busy_us("serve.queue_wait");
        let is_serve = self.self_us.contains_key("serve.transport");
        vec![
            ("php-lexer.busy_ms", self.busy_us("php-lexer") / 1e3),
            ("php-lexer.tokens", self.count("tokens")),
            ("php-ast.busy_ms", self.busy_us("php-ast") / 1e3),
            ("php-ast.nodes", self.count("nodes")),
            ("core.symbols.busy_ms", self.busy_us("core.symbols") / 1e3),
            ("core.analyzer.busy_ms", self.busy_us("core.analyzer") / 1e3),
            (
                "core.analyzer.summary_hit_ratio",
                self.ratio("summary_hits", "summary_lookups"),
            ),
            ("core.analyzer.failed_files", self.count("failed_files")),
            ("core.report.render_us", self.busy_us("core.report")),
            ("core.project.load_us", self.busy_us("core.project.load")),
            ("core.project.bytes_hashed", self.count("bytes_hashed")),
            ("core.caching.ast_load_us", self.busy_us("core.caching.ast")),
            (
                "core.caching.ast_hit_ratio",
                self.ratio("ast_unparsed", "ast_lookups"),
            ),
            (
                "core.caching.persist_us",
                self.busy_us("core.caching.persist"),
            ),
            ("engine.disk.open_us", self.busy_us("engine.disk.open")),
            ("engine.disk.probe_us", self.busy_us("engine.disk.probe")),
            ("engine.disk.hits", self.count("disk_hits")),
            ("engine.disk.misses", self.count("disk_misses")),
            ("engine.disk.bytes_read", self.count("disk_bytes_read")),
            (
                "engine.disk.bytes_written",
                self.count("disk_bytes_written"),
            ),
            ("engine.disk.store_failed", self.count("disk_store_failed")),
            (
                "engine.depgraph.dependents_us",
                self.busy_us("engine.depgraph"),
            ),
            (
                "engine.depgraph.affected_files",
                self.count("affected_files"),
            ),
            (
                "core.server.analyze_us",
                self.busy_us("core.server.analyze"),
            ),
            (
                "core.server.invalidate_us",
                self.busy_us("core.server.invalidate"),
            ),
            ("core.server.reparsed_files", self.count("reparsed")),
            ("serve.dispatch_us", self.busy_us("serve.dispatch")),
            ("serve.queue_wait_us", self.busy_us("serve.queue_wait")),
            ("serve.transport_us", self.busy_us("serve.transport")),
            (
                "serve.outside_service_share",
                if is_serve {
                    outside / mean_e2e.max(1e-9)
                } else {
                    0.0
                },
            ),
            ("unattributed_us", unattributed),
            ("trace.e2e_ms", e2e / 1e3),
            ("trace.overhead_ms", (e2e - untraced_e2e_us) / 1e3),
            (
                "trace.attributed_share",
                1.0 - unattributed / mean_e2e.max(1e-9),
            ),
        ]
    }
}

/// Span name → layer. Client request self time is transport; the
/// daemon's `handle_line` self time (minus its queue-wait child) is
/// dispatch.
fn layer_of(name: &'static str) -> &'static str {
    match name {
        "client.request" => "serve.transport",
        "serve.handle_line" => "serve.dispatch",
        other => other,
    }
}

/// Adds the delta of a disk cache's counters to `layers`.
pub fn add_disk(layers: &mut Layers, before: DiskCounters, after: DiskCounters) {
    layers.add("disk_hits", (after.hits - before.hits) as f64);
    layers.add("disk_misses", (after.misses - before.misses) as f64);
    layers.add(
        "disk_bytes_read",
        (after.bytes_read - before.bytes_read) as f64,
    );
    layers.add(
        "disk_bytes_written",
        (after.bytes_written - before.bytes_written) as f64,
    );
    layers.add(
        "disk_store_failed",
        (after.store_failed - before.store_failed) as f64,
    );
}

/// Lexes and parses `src` under probe spans, counting tokens and nodes.
pub fn probe_parse(rec: &Recorder, layers: &mut Layers, op: u64, src: &str) -> php_ast::ParsedFile {
    let toks = rec.probe(op, "php-lexer", || php_lexer::tokenize(src));
    layers.add("tokens", toks.len() as f64);
    let file = rec.probe(op, "php-ast", || php_ast::parse_tokens(toks));
    layers.add("nodes", file.arena.node_count() as f64);
    file
}

/// Builds the symbol table of `project` under a probe span, taking ASTs
/// from `caches` (already warm, so only the build is timed).
pub fn probe_symbols(rec: &Recorder, op: u64, project: &PluginProject, caches: &EngineCaches) {
    let asts: Vec<(String, Arc<php_ast::ParsedFile>)> = project
        .files()
        .iter()
        .map(|f| (f.path.clone(), caches.ast().parse(&f.content)))
        .collect();
    let table = rec.probe(op, "core.symbols", || {
        SymbolTable::build(asts.iter().map(|(p, a)| (p.as_str(), a)))
    });
    std::hint::black_box(table);
}

/// Times `DiskCache::load` of a project's rendered outcome.
pub fn probe_outcome(rec: &Recorder, op: u64, disk: &DiskCache, project: &PluginProject) -> bool {
    let key = project.content_key();
    let fp = crate::fixture::analyzer().fingerprint();
    rec.probe(op, "engine.disk.probe", || {
        disk.load(OUTCOME_NAMESPACE, key, fp).is_some()
    })
}

/// The daemon's service with spans around `Service::analyze` and
/// `Service::invalidate`, plus each request's queue wait as the
/// daemon measured it.
pub struct TracedService {
    pub inner: AnalysisServer,
    pub rec: Arc<Recorder>,
    /// The daemon's own wide-event stage marks (`load_us`, ...), summed,
    /// with the number of requests: a cross-check for the probes.
    pub marks: Mutex<BTreeMap<&'static str, (u64, u64)>>,
}

impl TracedService {
    fn timed(
        &self,
        ctx: &RequestCtx,
        name: &'static str,
        f: impl FnOnce() -> Result<Json, String>,
    ) -> Result<Json, String> {
        let start = Instant::now();
        let r = f();
        let end = Instant::now();
        let mut marks = self.marks.lock().expect("marks lock");
        for (name, us) in ctx.marks() {
            let m = marks.entry(name).or_default();
            m.0 += us;
            m.1 += 1;
        }
        drop(marks);
        let req = req_id(ctx.seq.saturating_sub(1));
        self.rec
            .record(req + 2, req + 1, 0, name, false, start, end);
        let wait = Duration::from_micros(ctx.queue_wait_us());
        let queued = start.checked_sub(wait).unwrap_or(start);
        self.rec.record(
            req + 3,
            req + 1,
            0,
            "serve.queue_wait",
            false,
            queued,
            start,
        );
        r
    }
}

impl Service for TracedService {
    fn analyze(&self, ctx: &RequestCtx, request: &AnalyzeRequest) -> Result<Json, String> {
        self.timed(ctx, "core.server.analyze", || {
            self.inner.analyze(ctx, request)
        })
    }

    fn invalidate(&self, ctx: &RequestCtx, request: &InvalidateRequest) -> Result<Json, String> {
        self.timed(ctx, "core.server.invalidate", || {
            self.inner.invalidate(ctx, request)
        })
    }

    fn status(&self) -> Vec<(String, Json)> {
        self.inner.status()
    }
}

/// An in-process daemon behind a loopback listener whose one connection
/// is served like the shipped transport (`TCP_NODELAY`, one line in, one
/// line out), with a span around each `Daemon::handle_line`.
pub struct InProcessDaemon {
    pub addr: String,
    pub service: Arc<TracedService>,
    conn: Option<std::thread::JoinHandle<Result<(), String>>>,
}

impl InProcessDaemon {
    pub fn start(cache_dir: &Path, rec: Arc<Recorder>) -> Result<InProcessDaemon, String> {
        let disk = DiskCache::open(cache_dir).map_err(|e| e.to_string())?;
        let mut server = AnalysisServer::with_caches(EngineCaches::with_disk(Arc::new(disk)))
            .with_default_jobs(1);
        server.register("phpSAFE", Box::new(crate::fixture::analyzer()));
        let service = Arc::new(TracedService {
            inner: server,
            rec: Arc::clone(&rec),
            marks: Mutex::new(BTreeMap::new()),
        });
        let daemon = Daemon::start(
            Arc::clone(&service) as Arc<dyn Service>,
            ServerConfig {
                workers: 1,
                ..ServerConfig::default()
            },
        );
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
        let addr = listener
            .local_addr()
            .map_err(|e| e.to_string())?
            .to_string();
        let conn = std::thread::spawn(move || -> Result<(), String> {
            let (stream, _) = listener.accept().map_err(|e| e.to_string())?;
            stream.set_nodelay(true).map_err(|e| e.to_string())?;
            let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
            for (k, line) in (0u64..).zip(BufReader::new(stream).lines()) {
                let line = line.map_err(|e| e.to_string())?;
                let start = Instant::now();
                let (response, control) = daemon.handle_line(&line);
                let end = Instant::now();
                rec.record(
                    req_id(k) + 1,
                    req_id(k),
                    0,
                    "serve.handle_line",
                    false,
                    start,
                    end,
                );
                writeln!(writer, "{response}").map_err(|e| e.to_string())?;
                writer.flush().map_err(|e| e.to_string())?;
                if control == Control::Shutdown {
                    break;
                }
            }
            daemon.shutdown();
            daemon.join();
            Ok(())
        });
        Ok(InProcessDaemon {
            addr,
            service,
            conn: Some(conn),
        })
    }

    /// Waits for the transport thread after a `shutdown` request.
    pub fn join(mut self) -> Result<(), String> {
        match self.conn.take().expect("joined once").join() {
            Ok(r) => r,
            Err(_) => Err("daemon transport thread panicked".into()),
        }
    }
}
