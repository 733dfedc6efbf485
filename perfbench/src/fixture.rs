//! The benchmark's inputs and correctness oracles.
//!
//! The corpus is always `Corpus::generate()` (the seed never changes it),
//! dumped as `<dir>/<version>/<plugin>/...` plus `ground_truth.json`, the
//! layout `corpus-dump` writes.

use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};

use phpsafe::{load_project, AnalysisOutcome, PhpSafe, PluginProject};
use phpsafe_corpus::{Corpus, GroundTruthEntry, Version};

/// phpSAFE's Table I totals on this corpus (EXPERIMENTS.md): true
/// positives, false positives and failed files per version.
pub const TABLE_I: [(Version, usize, usize, usize); 2] =
    [(Version::V2012, 319, 65, 1), (Version::V2014, 401, 62, 3)];

/// One plugin snapshot on disk.
pub struct Plugin {
    pub version: Version,
    pub dir: PathBuf,
    pub project: PluginProject,
}

pub struct Fixture {
    /// 2012 snapshots first, then 2014, each in corpus order.
    pub plugins: Vec<Plugin>,
    pub truth: Vec<GroundTruthEntry>,
    pub total_loc: usize,
}

fn version_dir(v: Version) -> &'static str {
    match v {
        Version::V2012 => "2012",
        Version::V2014 => "2014",
    }
}

impl Fixture {
    /// Generates and dumps the corpus under `dir`, then loads it back the
    /// way the CLI does.
    pub fn dump(dir: &Path) -> Result<Fixture, String> {
        let corpus = Corpus::generate();
        let mut truth = Vec::new();
        let mut plugins = Vec::new();
        for version in Version::ALL {
            for plugin in corpus.plugins() {
                let root = dir.join(version_dir(version)).join(&plugin.name);
                for f in plugin.project(version).files() {
                    let path = root.join(&f.path);
                    std::fs::create_dir_all(path.parent().expect("file has a parent"))
                        .map_err(|e| format!("mkdir {}: {e}", path.display()))?;
                    std::fs::write(&path, &f.content)
                        .map_err(|e| format!("write {}: {e}", path.display()))?;
                }
                let project = load_project(&root)?;
                plugins.push(Plugin {
                    version,
                    dir: root,
                    project,
                });
            }
        }
        for plugin in corpus.plugins() {
            truth.extend(plugin.truth.iter().cloned());
        }
        let gt = serde_json::to_string_pretty(&truth).map_err(|e| e.to_string())?;
        std::fs::write(dir.join("ground_truth.json"), gt).map_err(|e| e.to_string())?;
        let text =
            std::fs::read_to_string(dir.join("ground_truth.json")).map_err(|e| e.to_string())?;
        let truth: Vec<GroundTruthEntry> =
            serde_json::from_str(&text).map_err(|e| format!("ground_truth.json: {e}"))?;
        let total_loc = plugins.iter().map(|p| p.project.total_loc()).sum();
        Ok(Fixture {
            plugins,
            truth,
            total_loc,
        })
    }

    pub fn of_version(&self, v: Version) -> impl Iterator<Item = (usize, &Plugin)> {
        self.plugins
            .iter()
            .enumerate()
            .filter(move |(_, p)| p.version == v)
    }
}

/// The analyzer the shipped binaries run by default (WordPress profile,
/// default options).
pub fn analyzer() -> PhpSafe {
    PhpSafe::new()
}

/// In-process `--json` report of a project: the byte-level reference for
/// daemon replies.
pub fn reference_report(project: &PluginProject) -> String {
    analyzer()
        .analyze(project)
        .to_json()
        .expect("reports serialize")
}

/// Scores batch `--json` output against ground truth with the evaluation
/// oracle's rule (same class, ±1 line).
///
/// `stdout` holds one pretty-printed report per requested plugin, in
/// request order. Reports already scored (same plugin, same bytes) are
/// not parsed again, so checking every pass stays cheap. Returns an error
/// naming the first mismatch with Table I.
pub struct BatchChecker<'a> {
    fixture: &'a Fixture,
    table: [(Version, usize, usize, usize); 2],
    /// (plugin index, report hash) → (tp, fp, failed files).
    scored: HashMap<(usize, u64), (usize, usize, usize)>,
}

impl<'a> BatchChecker<'a> {
    pub fn new(fixture: &'a Fixture) -> BatchChecker<'a> {
        BatchChecker::with_table(fixture, TABLE_I)
    }

    pub fn with_table(
        fixture: &'a Fixture,
        table: [(Version, usize, usize, usize); 2],
    ) -> BatchChecker<'a> {
        BatchChecker {
            fixture,
            table,
            scored: HashMap::new(),
        }
    }

    pub fn check(&mut self, order: &[usize], stdout: &str) -> Result<(), String> {
        let docs = split_reports(stdout);
        if docs.len() != order.len() {
            return Err(format!(
                "expected {} reports, got {}",
                order.len(),
                docs.len()
            ));
        }
        let mut totals: HashMap<Version, (usize, usize, usize)> = HashMap::new();
        for (&pi, doc) in order.iter().zip(docs) {
            let key = (pi, crate::util::fnv(doc.as_bytes()));
            let score = match self.scored.get(&key) {
                Some(s) => *s,
                None => {
                    let s = self.score(pi, doc)?;
                    self.scored.insert(key, s);
                    s
                }
            };
            let t = totals.entry(self.fixture.plugins[pi].version).or_default();
            t.0 += score.0;
            t.1 += score.1;
            t.2 += score.2;
        }
        let requested: HashSet<Version> = order
            .iter()
            .map(|&pi| self.fixture.plugins[pi].version)
            .collect();
        for (v, tp, fp, failed) in self.table {
            if !requested.contains(&v) {
                continue;
            }
            let got = totals.get(&v).copied().unwrap_or_default();
            if got != (tp, fp, failed) {
                return Err(format!(
                    "{v:?}: TP/FP/failed files {}/{}/{}, expected {tp}/{fp}/{failed}",
                    got.0, got.1, got.2
                ));
            }
        }
        Ok(())
    }

    fn score(&self, pi: usize, doc: &str) -> Result<(usize, usize, usize), String> {
        let plugin = &self.fixture.plugins[pi];
        let outcome: AnalysisOutcome =
            serde_json::from_str(doc).map_err(|e| format!("unparseable report: {e}"))?;
        if outcome.plugin != plugin.project.name() {
            return Err(format!(
                "report for `{}` where `{}` was requested",
                outcome.plugin,
                plugin.project.name()
            ));
        }
        let truth: Vec<&GroundTruthEntry> = self
            .fixture
            .truth
            .iter()
            .filter(|t| t.version == plugin.version && t.plugin == outcome.plugin)
            .collect();
        let m = phpsafe_eval::oracle::verify(&outcome, &truth);
        Ok((m.tp(), m.fp(), outcome.failed_files()))
    }
}

/// Splits concatenated pretty-printed JSON documents: each top-level
/// object closes with a `}` alone on its line.
pub fn split_reports(stdout: &str) -> Vec<&str> {
    let mut docs = Vec::new();
    let mut start = 0;
    let mut pos = 0;
    for line in stdout.split_inclusive('\n') {
        pos += line.len();
        if line.trim_end() == "}" {
            docs.push(stdout[start..pos].trim());
            start = pos;
        }
    }
    if !stdout[start..].trim().is_empty() {
        docs.push(stdout[start..].trim());
    }
    docs
}

/// The edits `serve_edit` applies, always to the pristine text of one
/// file so the edited working set stays bounded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Edit {
    /// A comment after the opening tag: same lines, same findings.
    Comment,
    /// A new reflected-XSS sink on the opening tag's line.
    Sink,
    /// Back to the pristine text.
    Restore,
}

/// Applies `edit` (tagged with the cycle number `n`, so every comment or
/// sink edit is new content the program must re-parse) to `pristine`.
pub fn apply_edit(pristine: &str, edit: Edit, n: u64) -> String {
    let insert = match edit {
        Edit::Comment => format!(" /* perfbench edit {n} */ "),
        Edit::Sink => format!(" echo $_GET['perfbench_{n}']; "),
        Edit::Restore => return pristine.to_owned(),
    };
    match pristine.find("<?php") {
        Some(at) => {
            let at = at + "<?php".len();
            format!("{}{insert}{}", &pristine[..at], &pristine[at..])
        }
        None => format!("<?php{insert}?>{pristine}"),
    }
}

/// A plugin with some files replaced, for the fresh uncached reference.
pub fn edited_project(pristine: &PluginProject, overrides: &[(String, String)]) -> PluginProject {
    let mut p = pristine.clone();
    for (path, content) in overrides {
        p.overlay_file(path, content);
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_reports_keeps_each_document() {
        let out = "{\n  \"a\": {\n    \"b\": 1\n  }\n}\n{\n  \"c\": 2\n}\n";
        assert_eq!(
            split_reports(out),
            ["{\n  \"a\": {\n    \"b\": 1\n  }\n}", "{\n  \"c\": 2\n}"]
        );
    }

    #[test]
    fn edits_keep_line_numbers() {
        let src = "<?php\necho 1;\n";
        for edit in [Edit::Comment, Edit::Sink] {
            let e = apply_edit(src, edit, 7);
            assert_eq!(e.lines().count(), src.lines().count());
            assert_ne!(e, src);
        }
        assert_eq!(apply_edit(src, Edit::Restore, 7), src);
    }
}
