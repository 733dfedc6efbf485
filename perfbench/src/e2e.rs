//! Untraced end-to-end runs of the shipped binaries as child processes.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use phpsafe_corpus::Version;
use phpsafe_serve::Json;

use crate::fixture::{apply_edit, edited_project, reference_report, BatchChecker, Edit, Fixture};
use crate::serve::{
    analyze_request, check_invalidate, invalidate_request, Client, DaemonProc, ReplyChecker,
};
use crate::util::{self, Rng};

/// What a run needs: the program, its inputs and the run's settings.
pub struct Bench {
    pub bin: PathBuf,
    pub work: PathBuf,
    pub fixture: Fixture,
    pub seconds: f64,
    pub seed: u64,
    /// In-process reports of the 2014 plugins, indexed like `fixture`.
    pub references: Vec<String>,
}

/// Set-up repetitions; `setup_s` is their median. Half run before the
/// window and half after it, so one phase of host contention cannot
/// set every sample.
pub const SETUPS: usize = 10;

/// `serve_edit` reads the daemon's peak RSS after this many cycles.
pub const EDIT_RSS_CYCLES: u64 = 1000;

/// The window is cut into this many equal time slices; throughput,
/// latency percentiles and CPU per operation are the median over slices,
/// so a burst of host contention in one slice does not move a run's
/// figures. A slice's throughput is its lines of code over the summed
/// latency of its operations, so the benchmark's own work between
/// operations (checking replies, picking edits) is not charged to the
/// program.
pub const SLICES: usize = 5;

/// Result of one measured window.
#[derive(Default)]
pub struct Window {
    pub ops: u64,
    pub failed: u64,
    pub first_error: Option<String>,
    /// Client-observed latency of every operation, in ms.
    pub latency_ms: Vec<f64>,
    /// When each operation ended, parallel to `latency_ms`.
    pub ends: Vec<Instant>,
    /// Lines of code each operation analyzed, parallel to `latency_ms`.
    pub locs: Vec<f64>,
    /// Program CPU (user+sys) each operation used, in ms, parallel to
    /// `latency_ms`.
    pub cpu_ms: Vec<f64>,
    /// With a daemon's pid, [`Window::sample`] charges each operation the
    /// daemon CPU used since the previous sample (`/proc` tick resolution;
    /// exact when summed over a slice).
    daemon: Option<u32>,
    cpu_seen: Duration,
    pub start: Option<Instant>,
    pub wall: Duration,
    pub setup_s: Vec<f64>,
    pub peak_rss_kb: u64,
    pub disk_growth: i64,
}

impl Window {
    pub fn fail(&mut self, err: String) {
        self.failed += 1;
        if self.first_error.is_none() {
            self.first_error = Some(err);
        }
    }

    /// Starts charging operations the CPU of daemon `pid`.
    pub fn watch_daemon(&mut self, pid: u32) {
        self.daemon = Some(pid);
        self.cpu_seen = util::proc_cpu(pid);
    }

    /// Records one completed operation; its CPU is read from the watched
    /// daemon, if any.
    pub fn sample(&mut self, end: Instant, latency: Duration, loc: f64) {
        let cpu = self.daemon.map_or(Duration::ZERO, |pid| {
            let now = util::proc_cpu(pid);
            let used = now.saturating_sub(self.cpu_seen);
            self.cpu_seen = now;
            used
        });
        self.sample_with_cpu(end, latency, loc, cpu);
    }

    /// Records one completed operation that used `cpu` of program CPU.
    pub fn sample_with_cpu(&mut self, end: Instant, latency: Duration, loc: f64, cpu: Duration) {
        self.ops += 1;
        self.latency_ms.push(util::ms(latency));
        self.ends.push(end);
        self.locs.push(loc);
        self.cpu_ms.push(util::ms(cpu));
    }

    /// Throughput, p50, p90 and CPU per operation of each time slice of
    /// the window.
    fn slices(&self) -> Vec<[f64; 4]> {
        let Some(start) = self.start else {
            return Vec::new();
        };
        let width = self.wall.as_secs_f64().max(1e-9) / SLICES as f64;
        let mut lat = vec![Vec::new(); SLICES];
        let mut loc = [0.0; SLICES];
        let mut cpu = [0.0; SLICES];
        for i in 0..self.latency_ms.len() {
            let at = (self.ends[i] - start).as_secs_f64() / width;
            let k = (at as usize).min(SLICES - 1);
            lat[k].push(self.latency_ms[i]);
            loc[k] += self.locs[i];
            cpu[k] += self.cpu_ms[i];
        }
        (0..SLICES)
            .filter(|&k| !lat[k].is_empty())
            .map(|k| {
                let busy_ms: f64 = lat[k].iter().sum();
                [
                    loc[k] / busy_ms.max(1e-9),
                    util::median(&lat[k]),
                    util::quantile(&lat[k], 0.9),
                    cpu[k] / lat[k].len() as f64,
                ]
            })
            .collect()
    }

    pub fn metrics(&self) -> BTreeMap<&'static str, f64> {
        let mut m = BTreeMap::new();
        let slices = self.slices();
        let over = |i: usize| util::median(&slices.iter().map(|s| s[i]).collect::<Vec<_>>());
        m.insert("throughput_kloc_s", over(0));
        m.insert("latency_p50_ms", over(1));
        m.insert("latency_p90_ms", over(2));
        m.insert("setup_s", util::median(&self.setup_s));
        m.insert("peak_rss_mb", self.peak_rss_kb as f64 / 1024.0);
        m.insert("cpu_ms_per_op", over(3));
        m
    }
}

impl Bench {
    pub fn dirs_of(&self, version: Option<Version>) -> Vec<usize> {
        (0..self.fixture.plugins.len())
            .filter(|&i| version.is_none_or(|v| self.fixture.plugins[i].version == v))
            .collect()
    }

    /// One `phpsafe --jobs 1 --json` pass over `order`; returns its wall
    /// time, its stdout and the process's own CPU and peak RSS. Exit code 1
    /// means "vulnerabilities found", which every pass over this corpus
    /// must report.
    pub fn batch_pass(
        &self,
        order: &[usize],
        cache: Option<&Path>,
    ) -> Result<(Duration, util::Finished), String> {
        let mut cmd = Command::new(&self.bin);
        cmd.args(["--jobs", "1", "--json"]);
        if let Some(dir) = cache {
            cmd.arg("--cache-dir").arg(dir);
        }
        cmd.args(order.iter().map(|&i| &self.fixture.plugins[i].dir));
        cmd.stdin(Stdio::null());
        let t0 = Instant::now();
        let out = util::run_measured(&mut cmd).map_err(|e| format!("spawn: {e}"))?;
        let wall = t0.elapsed();
        if out.code != Some(1) {
            return Err(format!(
                "phpsafe exited with {:?}: {}",
                out.code,
                String::from_utf8_lossy(&out.stderr).trim()
            ));
        }
        Ok((wall, out))
    }

    /// `batch_cold` (no cache dir) and `batch_warm` (`--cache-dir` filled
    /// in set-up): every pass is a fresh process over all 70 snapshots.
    pub fn batch(&self, warm: bool, seconds: f64, rng: &mut Rng) -> Window {
        let mut w = Window::default();
        let mut checker = BatchChecker::new(&self.fixture);
        let cache = self.work.join("cache");
        let cache_arg = warm.then_some(cache.as_path());
        let all = self.dirs_of(None);
        let mut run_pass = |w: &mut Window, rng: &mut Rng, timed: bool| -> Option<Duration> {
            let mut order = all.clone();
            rng.shuffle(&mut order);
            match self.batch_pass(&order, cache_arg) {
                Ok((wall, out)) => {
                    if timed {
                        w.peak_rss_kb = w.peak_rss_kb.max(out.max_rss_kb);
                        let loc = self.fixture.total_loc as f64;
                        w.sample_with_cpu(Instant::now(), wall, loc, out.cpu);
                    }
                    match String::from_utf8(out.stdout) {
                        Ok(stdout) => {
                            if let Err(e) = checker.check(&order, &stdout) {
                                w.fail(e);
                            }
                        }
                        Err(e) => w.fail(format!("stdout is not UTF-8: {e}")),
                    }
                    Some(wall)
                }
                Err(e) => {
                    if timed {
                        w.ops += 1;
                    }
                    w.fail(e);
                    None
                }
            }
        };
        // Set-up: cold runs are the discarded first passes; warm runs fill
        // a fresh cache dir each time and keep the last one.
        let setup = |w: &mut Window, rng: &mut Rng, run_pass: &mut dyn FnMut(&mut Window, &mut Rng, bool) -> Option<Duration>| {
            for _ in 0..SETUPS / 2 {
                let _ = std::fs::remove_dir_all(&cache);
                if let Some(wall) = run_pass(w, rng, false) {
                    w.setup_s.push(wall.as_secs_f64());
                }
            }
        };
        setup(&mut w, rng, &mut run_pass);
        if warm {
            // One unmeasured restart, so the window sees steady warm state.
            run_pass(&mut w, rng, false);
        }
        let bytes0 = util::dir_bytes(&cache) as i64;
        let t0 = Instant::now();
        w.start = Some(t0);
        while t0.elapsed().as_secs_f64() < seconds {
            run_pass(&mut w, rng, true);
        }
        w.wall = t0.elapsed();
        w.disk_growth = util::dir_bytes(&cache) as i64 - bytes0;
        setup(&mut w, rng, &mut run_pass);
        w
    }

    /// Spawns a daemon on a fresh cache dir and analyzes every 2014
    /// plugin once (cold), checking each reply. Returns the daemon, its
    /// connection and the set-up time.
    fn serve_setup(
        &self,
        w: &mut Window,
        checker: &mut ReplyChecker,
        rng: &mut Rng,
    ) -> Result<(DaemonProc, Client), String> {
        let cache = self.work.join("cache");
        let _ = std::fs::remove_dir_all(&cache);
        let t0 = Instant::now();
        let daemon = DaemonProc::spawn(&self.bin, &cache)?;
        let mut client = Client::connect(&daemon.addr)?;
        let mut order = self.dirs_of(Some(Version::V2014));
        rng.shuffle(&mut order);
        for pi in order {
            let reply = client.call(&analyze_request(&self.fixture.plugins[pi].dir))?;
            if let Err(e) = checker.check(pi, &reply) {
                w.fail(e);
            }
        }
        w.setup_s.push(t0.elapsed().as_secs_f64());
        Ok((daemon, client))
    }

    /// `serve_warm` (`edit == false`) and `serve_edit`.
    pub fn serve(&self, edit: bool, seconds: f64, rng: &mut Rng) -> Window {
        let mut w = Window::default();
        let mut checker = ReplyChecker::new(self.references.clone());
        let mut kept = None;
        for i in 0..SETUPS / 2 {
            match self.serve_setup(&mut w, &mut checker, rng) {
                Ok((daemon, mut client)) if i + 1 < SETUPS / 2 => {
                    if let Err(e) = daemon.shutdown(&mut client) {
                        w.fail(e);
                    }
                }
                Ok(pair) => kept = Some(pair),
                Err(e) => w.fail(e),
            }
        }
        let Some((daemon, mut client)) = kept else {
            w.ops = 1;
            return w;
        };
        let cache = self.work.join("cache");
        let bytes0 = util::dir_bytes(&cache) as i64;
        w.watch_daemon(daemon.pid());
        if edit {
            self.edit_window(&mut w, &mut client, seconds, rng, Some(daemon.pid()), None);
        } else {
            self.warm_window(&mut w, &mut client, &mut checker, seconds, rng, None);
        }
        if w.peak_rss_kb == 0 {
            w.peak_rss_kb = util::proc_peak_rss_kb(daemon.pid());
        }
        w.disk_growth = util::dir_bytes(&cache) as i64 - bytes0;
        if let Err(e) = daemon.shutdown(&mut client) {
            w.fail(e);
        }
        for _ in 0..SETUPS / 2 {
            match self.serve_setup(&mut w, &mut checker, rng) {
                Ok((daemon, mut client)) => {
                    if let Err(e) = daemon.shutdown(&mut client) {
                        w.fail(e);
                    }
                }
                Err(e) => w.fail(e),
            }
        }
        w
    }

    /// Closed-loop warm `analyze` requests over the 2014 plugins in seeded
    /// order. `tracer` (traced runs only) records each request's span.
    pub fn warm_window(
        &self,
        w: &mut Window,
        client: &mut Client,
        checker: &mut ReplyChecker,
        seconds: f64,
        rng: &mut Rng,
        mut tracer: Option<&mut dyn FnMut(usize, Instant, Instant)>,
    ) {
        let plugins = self.dirs_of(Some(Version::V2014));
        let mut order = Vec::new();
        let t0 = Instant::now();
        w.start = Some(t0);
        while t0.elapsed().as_secs_f64() < seconds {
            if order.is_empty() {
                order = plugins.clone();
                rng.shuffle(&mut order);
            }
            let pi = order.pop().expect("refilled above");
            let plugin = &self.fixture.plugins[pi];
            let start = Instant::now();
            let reply = client.call(&analyze_request(&plugin.dir));
            let end = Instant::now();
            w.sample(end, end - start, plugin.project.total_loc() as f64);
            if let Some(t) = tracer.as_mut() {
                t(pi, start, end);
            }
            match reply {
                Ok(reply) => {
                    if let Err(e) = checker.check(pi, &reply) {
                        w.fail(e);
                    }
                }
                Err(e) => {
                    w.fail(e);
                    break;
                }
            }
        }
        w.wall = t0.elapsed();
    }

    /// Edit → invalidate → analyze cycles. Each reply is checked after the
    /// window against a fresh uncached analysis of the edited content;
    /// edited files are restored before returning. `tracer` (traced runs
    /// only) sees each finished cycle.
    ///
    /// Every cycle adds new content to the daemon's unbounded caches, so
    /// its memory grows with the number of cycles a window fits. With
    /// `daemon_pid`, peak RSS is read after a fixed [`EDIT_RSS_CYCLES`],
    /// so a faster program is not charged for doing more cycles.
    pub fn edit_window(
        &self,
        w: &mut Window,
        client: &mut Client,
        seconds: f64,
        rng: &mut Rng,
        daemon_pid: Option<u32>,
        mut tracer: Option<&mut dyn FnMut(&EditCycle)>,
    ) {
        let plugins = self.dirs_of(Some(Version::V2014));
        // Per plugin: the files currently differing from pristine.
        let mut edited: HashMap<usize, BTreeMap<String, String>> = HashMap::new();
        let mut cycles: Vec<CycleReply> = Vec::new();
        let t0 = Instant::now();
        w.start = Some(t0);
        let mut n = 0u64;
        while t0.elapsed().as_secs_f64() < seconds {
            n += 1;
            if n == EDIT_RSS_CYCLES {
                if let Some(pid) = daemon_pid {
                    w.peak_rss_kb = util::proc_peak_rss_kb(pid);
                }
            }
            let pi = plugins[rng.below(plugins.len())];
            let plugin = &self.fixture.plugins[pi];
            let files = plugin.project.files();
            let file = &files[rng.below(files.len())];
            let state = edited.entry(pi).or_default();
            let kind = match rng.below(3) {
                2 if state.contains_key(&file.path) => Edit::Restore,
                0 | 2 => Edit::Comment,
                _ => Edit::Sink,
            };
            let content = apply_edit(&file.content, kind, n);
            let path = plugin.dir.join(&file.path);
            let prev_key = tracer
                .is_some()
                .then(|| edited_project(&plugin.project, &overrides(state)).content_key());
            let mut requests = Vec::with_capacity(2);
            let start = Instant::now();
            let result = (|| {
                std::fs::write(&path, &content).map_err(|e| format!("write: {e}"))?;
                let t = Instant::now();
                let inv = client.call(&invalidate_request(&path));
                requests.push((t, Instant::now()));
                let reparsed = check_invalidate(&inv?)?;
                let t = Instant::now();
                let reply = client.call(&analyze_request(&plugin.dir));
                requests.push((t, Instant::now()));
                Ok((reply?, reparsed))
            })();
            let end = Instant::now();
            if kind == Edit::Restore {
                state.remove(&file.path);
            } else {
                state.insert(file.path.clone(), content);
            }
            w.sample(end, end - start, plugin.project.total_loc() as f64);
            let snapshot = overrides(state);
            if let Some(t) = tracer.as_mut() {
                t(&EditCycle {
                    plugin: pi,
                    file: file.path.clone(),
                    prev_key: prev_key.expect("computed when traced"),
                    reparsed: result.as_ref().map_or(0, |(_, r)| *r),
                    requests: requests.clone(),
                    start,
                    end,
                });
            }
            let failed_transport = result.is_err();
            cycles.push((pi, snapshot, result.map(|(reply, _)| reply)));
            if failed_transport && client.call(r#"{"cmd":"status"}"#).is_err() {
                break;
            }
        }
        w.wall = t0.elapsed();
        for (&pi, state) in &edited {
            let plugin = &self.fixture.plugins[pi];
            for path in state.keys() {
                let pristine = plugin.project.find_file(path).expect("edited file exists");
                if let Err(e) = std::fs::write(plugin.dir.join(path), &pristine.content) {
                    w.fail(format!("restore {path}: {e}"));
                }
            }
        }
        let refs = self.fresh_references(&cycles);
        check_edit_replies(w, cycles, &refs);
    }

    /// Fresh uncached reports, one per distinct edited content, computed
    /// on every core once the window is over.
    fn fresh_references(&self, cycles: &[CycleReply]) -> HashMap<(usize, u64), String> {
        let mut jobs: Vec<((usize, u64), &Snapshot)> = Vec::new();
        let mut seen = HashSet::new();
        for (pi, snapshot, _) in cycles {
            let key = snapshot_key(*pi, snapshot);
            if seen.insert(key) {
                jobs.push((key, snapshot));
            }
        }
        let threads = util::cpus();
        let chunk = jobs.len().div_ceil(threads).max(1);
        std::thread::scope(|s| {
            let handles: Vec<_> = jobs
                .chunks(chunk)
                .map(|part| {
                    s.spawn(move || {
                        util::unpin_thread();
                        part.iter()
                            .map(|&((pi, h), snapshot)| {
                                let project =
                                    edited_project(&self.fixture.plugins[pi].project, snapshot);
                                ((pi, h), reference_report(&project))
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("reference worker panicked"))
                .collect()
        })
    }
}

/// One `serve_edit` cycle's plugin, its edited files when the analyze
/// request was sent, and the reply (or the transport error).
pub type CycleReply = (usize, Snapshot, Result<String, String>);

/// Edited files of one plugin as `(path, content)`, sorted by path.
pub type Snapshot = Vec<(String, String)>;

pub fn snapshot_key(plugin: usize, snapshot: &Snapshot) -> (usize, u64) {
    (plugin, util::fnv(format!("{snapshot:?}").as_bytes()))
}

/// Fails `w` once for every cycle whose analyze reply is not
/// byte-identical to the fresh reference of the content it was made on.
pub fn check_edit_replies(
    w: &mut Window,
    cycles: Vec<CycleReply>,
    refs: &HashMap<(usize, u64), String>,
) {
    for (pi, snapshot, reply) in cycles {
        let reply = match reply {
            Ok(r) => r,
            Err(e) => {
                w.fail(e);
                continue;
            }
        };
        let Some(expected) = refs.get(&snapshot_key(pi, &snapshot)) else {
            w.fail(format!("plugin #{pi}: no reference for the edited content"));
            continue;
        };
        // Fast path: the reference, escaped as the daemon escapes it, is
        // the reply's report field byte for byte. Otherwise parse the reply
        // and compare the report itself.
        let field = format!("\"report\":{}", Json::Str(expected.clone()).emit());
        if reply.contains(&field) && reply.matches("\"report\":").count() == 1 {
            continue;
        }
        match crate::serve::reply_report(&reply) {
            Ok(report) if report == *expected => {}
            Ok(_) => w.fail(format!(
                "plugin #{pi}: post-invalidate report differs from a fresh analysis"
            )),
            Err(e) => w.fail(e),
        }
    }
}

fn overrides(state: &BTreeMap<String, String>) -> Snapshot {
    state.iter().map(|(k, v)| (k.clone(), v.clone())).collect()
}

/// One finished `serve_edit` cycle, for the traced run's probes.
pub struct EditCycle {
    pub plugin: usize,
    pub file: String,
    /// Content key of the plugin before this cycle's edit.
    pub prev_key: phpsafe_engine::ContentKey,
    /// Files the daemon re-parsed, as its invalidate reply reports.
    pub reparsed: u64,
    /// Send → reply interval of each request the cycle made.
    pub requests: Vec<(Instant, Instant)>,
    pub start: Instant,
    pub end: Instant,
}
