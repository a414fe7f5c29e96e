//! Spans around the benchmark's calls into each layer, and a traced
//! replay of `Pipeline::from_source` + `Pipeline::run`.
//!
//! The replay makes the same public calls, in the same order, that
//! `Pipeline::run` makes for one recipe at a time with `jobs = 1`, so its
//! layer self times can be reconciled against an untraced run of the same
//! input.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use armada::lang::{check_module, parse_module};
use armada::proof::relation::StandardRelation;
use armada::verify::store::CertKey;
use armada::verify::tier::TieredStore;
use armada::verify::{check_refinement, SimConfig};
use armada::RecipeStatus;

/// One timed call: name, start and end (ns since the tracer's epoch), the
/// enclosing span and the request it belongs to.
pub struct Span {
    pub name: &'static str,
    pub request: u32,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Spans kept in memory until [`Tracer::write`].
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u32,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    /// Starts a new request; later spans carry its id.
    pub fn next_request(&mut self) -> u32 {
        self.request += 1;
        self.request
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            request: self.request,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(id);
        id
    }

    pub fn end(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close in LIFO order");
        self.spans[id].end_ns = self.now_ns();
    }

    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Self time (ms) per span name within `request`: each span's duration
    /// minus the time its children cover.
    pub fn self_ms(&self, request: u32) -> BTreeMap<&'static str, f64> {
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        let mut child_ns: BTreeMap<usize, u64> = BTreeMap::new();
        for (id, span) in self.spans.iter().enumerate().rev() {
            if span.request != request {
                continue;
            }
            let total = span.end_ns - span.start_ns;
            let own = total - child_ns.get(&id).copied().unwrap_or(0);
            *out.entry(span.name).or_default() += own as f64 / 1e6;
            if let Some(parent) = span.parent {
                *child_ns.entry(parent).or_default() += total;
            }
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> Result<(), String> {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{id},\"name\":\"{}\",\"request\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}\n",
                s.name, s.request, s.start_ns, s.end_ns
            ));
        }
        std::fs::File::create(path)
            .and_then(|mut f| f.write_all(out.as_bytes()))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))
    }
}

/// What one traced replay of a module produced.
#[derive(Default)]
pub struct Replay {
    pub verified: bool,
    /// `(recipe, status label)` in declaration order.
    pub recipes: Vec<(String, String)>,
    pub misses: usize,
    pub product_nodes: u64,
    pub low_transitions: u64,
    pub obligations: u64,
    pub failed_obligations: u64,
    pub record_bytes: u64,
    pub rechecked_obligations: u64,
}

/// Replays `from_source` + `run` of `source` against `store`, recording a
/// `request` span and one span per layer call. `load_span` names the
/// store lookup (`store.load` for a disk store, `tier.load` for a
/// hierarchy); `recheck` replays warm witnesses as `with_recheck` does.
pub fn replay_pipeline(
    tracer: &mut Tracer,
    source: &str,
    store: &TieredStore,
    load_span: &'static str,
    recheck: bool,
) -> Result<Replay, String> {
    let root = tracer.begin("request");
    let module = tracer
        .time("lang.parse", || parse_module(source))
        .map_err(|e| e.to_string())?;
    let typed = tracer
        .time("lang.typeck", || check_module(&module))
        .map_err(|e| e.to_string())?;
    let sim = SimConfig::default();
    let relation = StandardRelation::new(typed.module.relation());
    let mut out = Replay {
        verified: true,
        ..Replay::default()
    };
    for recipe in &typed.module.recipes {
        let report = tracer.time("strategies.run", || {
            armada::strategies::run_recipe(&typed, recipe, sim.clone())
        })?;
        out.obligations += report.obligations.len() as u64;
        out.failed_obligations += report.failures().len() as u64;
        let lowered = tracer.time("sm.lower", || {
            Ok::<_, String>((
                armada::sm::lower(&typed, &recipe.low).map_err(|e| e.to_string())?,
                armada::sm::lower(&typed, &recipe.high).map_err(|e| e.to_string())?,
            ))
        });
        let (low, high) = lowered?;
        let key = CertKey::compute(source, &recipe.low, &recipe.high, &sim);
        let subject = armada::recheck::subject_digest(source, &recipe.low, &recipe.high);
        let mut cert = tracer.time(load_span, || store.load(&key, &recipe.low, &recipe.high));
        if recheck {
            if let Some(c) = &cert {
                let valid = tracer.time("recheck.validate", || {
                    c.witness
                        .validate(c.product_nodes, c.low_transitions, Some(subject))
                        .is_ok()
                });
                let replayed = valid
                    && tracer.time("recheck.replay", || {
                        armada::recheck::replay(&c.witness, &low).is_ok()
                    });
                if replayed {
                    out.rechecked_obligations += c.witness.obligations.len() as u64;
                } else {
                    cert = None;
                }
            }
        }
        let status = match cert {
            Some(cert) => {
                out.product_nodes += cert.product_nodes as u64;
                out.low_transitions += cert.low_transitions as u64;
                if report.success() {
                    RecipeStatus::Verified
                } else {
                    RecipeStatus::Refuted
                }
            }
            None => {
                out.misses += 1;
                match tracer.time("verify.check", || {
                    check_refinement(&low, &high, &relation, &sim)
                }) {
                    Ok(mut cert) => {
                        cert.witness.bind_subject(subject);
                        // Best-effort, as in the pipeline.
                        let _ = tracer.time("store.save", || store.save(&key, &cert));
                        out.product_nodes += cert.product_nodes as u64;
                        out.low_transitions += cert.low_transitions as u64;
                        if report.success() {
                            RecipeStatus::Verified
                        } else {
                            RecipeStatus::Refuted
                        }
                    }
                    Err(ce) if ce.kind.is_budget() => RecipeStatus::BudgetExhausted,
                    Err(_) => RecipeStatus::Refuted,
                }
            }
        };
        if let Some(disk) = store.disk_store() {
            out.record_bytes += std::fs::metadata(disk.path_for(&key)).map_or(0, |m| m.len());
        }
        out.verified &= status == RecipeStatus::Verified;
        out.recipes
            .push((recipe.name.clone(), status.label().to_string()));
    }
    tracer.end(root);
    Ok(out)
}
