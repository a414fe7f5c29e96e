//! The benchmark's inputs and their hand-written known answers.
//!
//! Inputs are the four specs, the five case-study models and three
//! refuted mutants that this module derives from the case sources with
//! the same rewrites the case studies' own tests use. The known answers
//! live in `expected.txt` beside this crate and never come from the code
//! under test.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

use armada::sm::{Exploration, Program};
use armada::PipelineReport;

/// One named verifier input.
pub struct Input {
    pub name: String,
    pub source: String,
}

/// The repository root (the benchmark crate's parent directory).
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark crate sits inside the repository")
        .to_path_buf()
}

/// The nine corpus modules: four specs and five case-study models.
pub fn modules() -> Result<Vec<Input>, String> {
    let mut inputs = Vec::new();
    for spec in ["counter", "handoff", "spinlock", "tracepoint"] {
        let path = repo_root().join("specs").join(format!("{spec}.arm"));
        let source = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        inputs.push(Input {
            name: spec.to_string(),
            source,
        });
    }
    for (name, source) in [
        ("barrier", armada_cases::barrier::MODEL),
        ("pointers", armada_cases::pointers::MODEL),
        ("mcslock", armada_cases::mcs_lock::MODEL),
        ("queue", armada_cases::queue::MODEL),
        ("tsp", armada_cases::tsp::MODEL),
    ] {
        inputs.push(Input {
            name: name.to_string(),
            source: source.to_string(),
        });
    }
    Ok(inputs)
}

/// Rewrites every occurrence of each `(from, to)` pair; a rewrite that
/// matches nothing means the case source drifted and the mutant would be
/// the unmodified model.
fn mutant(name: &str, base: &str, rewrites: &[(&str, &str)]) -> Result<Input, String> {
    let mut source = base.to_string();
    for (from, to) in rewrites {
        if !source.contains(from) {
            return Err(format!("mutant {name}: rewrite target not found"));
        }
        source = source.replace(from, to);
    }
    Ok(Input {
        name: name.to_string(),
        source,
    })
}

/// The three known-refuted mutants.
pub fn mutants() -> Result<Vec<Input>, String> {
    Ok(vec![
        // The barrier publishes its flag before the data.
        mutant(
            "mut-barrier-order",
            armada_cases::barrier::MODEL,
            &[(
                "        data1 := 1;\n        wrote1 := true;\n        flag1 := 1;",
                "        flag1 := 1;\n        data1 := 1;\n        wrote1 := true;",
            )],
        )?,
        // The MCS lock drops the fence after its buffered write.
        mutant(
            "mut-mcslock-nofence",
            armada_cases::mcs_lock::MODEL,
            &[
                ("        x := t;\n        fence;", "        x := t;"),
                ("        x ::= t;\n        fence;", "        x ::= t;"),
            ],
        )?,
        // The pointer reordering loses its region analysis.
        mutant(
            "mut-pointers-noregions",
            armada_cases::pointers::MODEL,
            &[("    use_regions\n", "")],
        )?,
    ])
}

/// Lowers the `Implementation` level of a single-level subject.
pub fn lower_subject(source: &str) -> Result<Program, String> {
    let pipeline = armada::Pipeline::from_source(source).map_err(|e| e.to_string())?;
    armada::sm::lower(pipeline.typed(), "Implementation").map_err(|e| e.to_string())
}

/// The symmetric exploration subjects.
pub fn subjects() -> Vec<Input> {
    [
        ("barrier", 4),
        ("queue", 4),
        ("spinlock", 5),
        ("barrier", 5),
    ]
    .into_iter()
    .map(|(shape, k)| {
        let subject = armada_cases::symmetric::subject(shape, k).expect("known shape");
        Input {
            name: subject.name,
            source: subject.source,
        }
    })
    .collect()
}

/// A module's known verdict and per-recipe statuses, in declaration order.
pub struct Verdict {
    pub verified: bool,
    pub recipes: Vec<(String, String)>,
}

/// Everything `expected.txt` states.
pub struct Expected {
    verdicts: BTreeMap<String, Verdict>,
    exits: BTreeMap<String, String>,
}

impl Expected {
    pub fn load() -> Result<Expected, String> {
        let text = include_str!("../expected.txt");
        let mut verdicts = BTreeMap::new();
        let mut exits = BTreeMap::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let bad = || format!("expected.txt:{}: malformed line", n + 1);
            let words: Vec<&str> = line.split_whitespace().collect();
            match words.as_slice() {
                ["verdict", input, verdict, recipes @ ..] => {
                    let recipes = recipes
                        .iter()
                        .map(|r| {
                            r.split_once('=')
                                .map(|(a, b)| (a.to_string(), b.to_string()))
                                .ok_or_else(bad)
                        })
                        .collect::<Result<Vec<_>, _>>()?;
                    let verified = match *verdict {
                        "verified" => true,
                        "refuted" => false,
                        _ => return Err(bad()),
                    };
                    verdicts.insert(input.to_string(), Verdict { verified, recipes });
                }
                ["explore", subject, "exit", printed] => {
                    exits.insert(subject.to_string(), printed.to_string());
                }
                _ => return Err(bad()),
            }
        }
        Ok(Expected { verdicts, exits })
    }

    pub fn verdict(&self, input: &str) -> Result<&Verdict, String> {
        self.verdicts
            .get(input)
            .ok_or_else(|| format!("{input}: no known answer"))
    }

    /// Checks a pipeline report against the known answer.
    pub fn check_report(&self, input: &str, report: &PipelineReport) -> Result<(), String> {
        let want = self.verdict(input)?;
        let got: Vec<(String, String)> = report
            .outcomes
            .iter()
            .map(|o| (o.recipe.clone(), o.status.label().to_string()))
            .collect();
        if report.verified() != want.verified || got != want.recipes {
            return Err(format!(
                "{input}: verdict {} {got:?}, expected {} {:?}",
                report.verified(),
                want.verified,
                want.recipes
            ));
        }
        Ok(())
    }

    /// Checks a served verdict against the known answer. `Ok(Some(_))`
    /// names a recipe that was right but missed the cert cache.
    pub fn check_render(
        &self,
        input: &str,
        verified: bool,
        render: &str,
    ) -> Result<Option<String>, String> {
        let want = self.verdict(input)?;
        if verified != want.verified {
            return Err(format!("{input}: served verified={verified}"));
        }
        let mut miss = None;
        for (recipe, status) in &want.recipes {
            let line = format!("recipe {recipe}: {status}");
            if !render.contains(&line) {
                return Err(format!("{input}: no `{line}` in the served report"));
            }
            if !render.contains(&format!("{line} (cert cache hit)")) {
                miss = Some(format!("{input}: recipe {recipe} missed the cert cache"));
            }
        }
        Ok(miss)
    }

    /// Checks an exploration: every exit state prints the known value,
    /// and no assertion failure, UB, stuck state or truncation occurs.
    pub fn check_exploration(&self, subject: &str, run: &Exploration) -> Result<(), String> {
        let want = self
            .exits
            .get(subject)
            .ok_or_else(|| format!("{subject}: no known answer"))?;
        let printed: BTreeSet<String> = run
            .exited
            .iter()
            .map(|s| {
                s.log
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join(",")
            })
            .collect();
        if printed.len() != 1
            || !printed.contains(want)
            || !run.assert_failures.is_empty()
            || !run.ub_states.is_empty()
            || !run.stuck.is_empty()
            || run.truncated
        {
            return Err(format!(
                "{subject}: exits print {printed:?}, {} assertion failures, {} UB, {} stuck, truncated {}; expected only {want}",
                run.assert_failures.len(),
                run.ub_states.len(),
                run.stuck.len(),
                run.truncated
            ));
        }
        Ok(())
    }
}
