//! The run report: metrics, per-input rows, deterministic counts and the
//! run's identity (seed, revision, available parallelism).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use crate::corpus::repo_root;
use crate::stats::Row;

/// Minimal JSON value for the report files and the result line.
pub enum Json {
    Num(f64),
    Int(u64),
    Bool(bool),
    Str(String),
    Null,
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    pub fn encode(&self) -> String {
        match self {
            // Rust's shortest round-trip formatting keeps every digit.
            Json::Num(v) if v.is_finite() => format!("{v:?}"),
            Json::Num(_) | Json::Null => "null".to_string(),
            Json::Int(v) => v.to_string(),
            Json::Bool(b) => b.to_string(),
            Json::Str(s) => quote(s),
            Json::Arr(items) => format!(
                "[{}]",
                items
                    .iter()
                    .map(Json::encode)
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
            Json::Obj(fields) => format!(
                "{{{}}}",
                fields
                    .iter()
                    .map(|(k, v)| format!("{}: {}", quote(k), v.encode()))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        }
    }
}

fn quote(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Counts that must repeat exactly for the same code and inputs, keyed
/// `input/counter`.
#[derive(Default)]
pub struct Counts {
    values: BTreeMap<String, u64>,
    /// Disagreements between passes of this run.
    pub mismatches: Vec<String>,
}

impl Counts {
    /// Records a count; a second record of the same key must agree.
    pub fn record(&mut self, input: &str, counter: &str, value: u64) {
        let key = format!("{input}/{counter}");
        match self.values.get(&key) {
            Some(&old) if old != value => self
                .mismatches
                .push(format!("count {key}: {old} then {value} in one run")),
            Some(_) => {}
            None => {
                self.values.insert(key, value);
            }
        }
    }

    /// Sum of `counter` over inputs (one pass's worth).
    pub fn total(&self, counter: &str) -> u64 {
        let suffix = format!("/{counter}");
        self.values
            .iter()
            .filter(|(k, _)| k.ends_with(&suffix))
            .map(|(_, v)| v)
            .sum()
    }

    fn render(&self) -> String {
        self.values
            .iter()
            .map(|(k, v)| format!("{k} {v}\n"))
            .collect()
    }

    /// Compares against the counts an earlier run of the same source
    /// digest saved under `dir`, or saves them if none did. A mismatch is
    /// returned as an error.
    pub fn compare_with_previous(
        &self,
        dir: &Path,
        workload: &str,
        digest: &str,
    ) -> Result<bool, String> {
        let path = dir.join(format!("counts-{workload}-{digest}.txt"));
        let mine = self.render();
        match std::fs::read_to_string(&path) {
            Ok(previous) if previous == mine => Ok(true),
            Ok(previous) => {
                let diff: Vec<String> = previous
                    .lines()
                    .zip(mine.lines())
                    .filter(|(a, b)| a != b)
                    .map(|(a, b)| format!("{a} -> {b}"))
                    .take(5)
                    .collect();
                Err(format!(
                    "deterministic counts differ from an earlier run of the same code ({}): {}",
                    path.display(),
                    diff.join("; ")
                ))
            }
            Err(_) => {
                std::fs::write(&path, mine)
                    .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
                Ok(false)
            }
        }
    }

    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.values
                .iter()
                .map(|(k, v)| (k.clone(), Json::Int(*v)))
                .collect(),
        )
    }
}

pub fn rows_json(rows: &[Row]) -> Json {
    Json::Arr(
        rows.iter()
            .map(|r| {
                Json::obj(vec![
                    ("input", Json::Str(r.input.clone())),
                    ("samples", Json::Int(r.samples as u64)),
                    ("median_ms", Json::Num(r.median_ms)),
                    ("p90_ms", r.p90_ms.map_or(Json::Null, Json::Num)),
                ])
            })
            .collect(),
    )
}

/// FNV-1a digest of the sources that determine the program's behaviour:
/// the workspace crates, specs, manifests and this benchmark. It names
/// the code in checkouts that are not git repositories.
pub fn source_digest() -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            if path.is_dir() {
                if name != "target" {
                    walk(&path, out);
                }
            } else if path
                .extension()
                .is_some_and(|e| e == "rs" || e == "toml" || e == "arm" || e == "txt")
            {
                out.push(path);
            }
        }
    }
    let root = repo_root();
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    for dir in ["crates", "specs", "perfbench"] {
        walk(&root.join(dir), &mut files);
    }
    files.sort();
    let mut h = armada_runtime::Fnv64::new();
    for file in files {
        let rel = file.strip_prefix(&root).unwrap_or(&file);
        h.write_str(&rel.to_string_lossy());
        h.write(&std::fs::read(&file).unwrap_or_default());
    }
    format!("{:016x}", h.finish())
}

/// The git revision, when the checkout itself is a git repository.
pub fn git_revision() -> Option<String> {
    if !repo_root().join(".git").exists() {
        return None;
    }
    let out = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(repo_root())
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}
