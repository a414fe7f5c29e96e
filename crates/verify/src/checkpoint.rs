//! Wave-boundary checkpointing for the refinement search.
//!
//! Like [`armada_sm::checkpoint`] for exploration, a product-search wave
//! boundary is a complete description of progress — but the product state
//! is richer: the node table (low state, match-set id, parent edge with
//! its machine steps and their pre-state pcs, tid renaming), the
//! interned match sets, the memoized *high-level* arena prefix (match-set
//! ids index into it, so its interning order must survive a restart), the
//! depth-bucketed pending queue, and the transition counter. The antichain
//! seen-set and the hash-cons and set-id tables are *derived* — from the
//! node table and the sets log, in id order — so they are rebuilt on
//! resume rather than persisted.
//!
//! Storage is log-structured with the same crash discipline as the
//! exploration checkpoint: three append-only logs (`nodes.log`,
//! `high.log`, `sets.log`; one checksummed record per item) appended and
//! synced *before* the small `manifest.bin` is atomically rewritten
//! ([`codec::write_atomic`]). A crash leaves either the old manifest
//! (whose log prefixes are intact; torn tails are truncated on resume) or
//! the new one. Any defect — torn manifest, bad record checksum, guard
//! mismatch, dangling index — clears the directory and the search starts
//! cold, which is always sound.

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::fs;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::Arc;

use armada_sm::codec::{self, Dec, Enc};
use armada_sm::{Pc, ProgState, StateArena, StateId, Tid};

use crate::{MatchSet, Node};

/// Node-record layout version, folded into the checkpoint guard. Version 2
/// records each edge step's pre-state pc instead of its rendered text.
pub(crate) const FORMAT: u32 = 2;

const MANIFEST: &str = "manifest.bin";
const NODES_LOG: &str = "nodes.log";
const HIGH_LOG: &str = "high.log";
const SETS_LOG: &str = "sets.log";

/// Everything a resumed search needs to continue at a wave boundary.
pub(crate) struct ResumeState {
    /// The product-node table, in admission order.
    pub nodes: Vec<Node>,
    /// Interned match sets by id (dense, admission order).
    pub sets: Vec<MatchSet>,
    /// High-level states in their original interning order.
    pub high_states: Vec<ProgState>,
    /// Pending node ids, bucketed by micro-depth.
    pub pending: BTreeMap<usize, Vec<usize>>,
    pub low_transitions: usize,
    pub wave_index: usize,
}

/// One append-only log with per-record checksums and a manifest-tracked
/// valid prefix.
struct Log {
    path: PathBuf,
    /// Records already appended.
    saved: usize,
    /// Valid byte length.
    bytes: u64,
}

impl Log {
    fn new(path: PathBuf) -> Log {
        Log {
            path,
            saved: 0,
            bytes: 0,
        }
    }

    /// Appends pre-encoded records (each wrapped as `bytes + fnv`) and
    /// syncs. Panics on I/O failure, like the exploration checkpoint: a
    /// checkpoint directory that stops accepting writes is an operator
    /// problem, and a silently stale checkpoint is worse than a crash.
    fn append(&mut self, records: &[Vec<u8>]) {
        if records.is_empty() {
            return;
        }
        let mut enc = Enc::new();
        for record in records {
            enc.bytes(record);
            enc.u64(codec::fnv1a_64(record));
        }
        let chunk = enc.into_bytes();
        let mut file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)
            .unwrap_or_else(|err| panic!("checkpoint: opening {}: {err}", self.path.display()));
        file.write_all(&chunk)
            .and_then(|()| file.sync_all())
            .unwrap_or_else(|err| panic!("checkpoint: appending {}: {err}", self.path.display()));
        self.saved += records.len();
        self.bytes += chunk.len() as u64;
    }

    /// Reads and verifies the first `count` records of the `bytes`-long
    /// valid prefix.
    fn read(&mut self, count: usize, bytes: u64) -> Option<Vec<Vec<u8>>> {
        let raw = if count == 0 {
            Vec::new()
        } else {
            fs::read(&self.path).ok()?
        };
        if (raw.len() as u64) < bytes {
            return None;
        }
        let mut d = Dec::new(&raw[..bytes as usize]);
        let mut records = Vec::with_capacity(count);
        for _ in 0..count {
            let record = d.bytes().ok()?;
            let checksum = d.u64().ok()?;
            if codec::fnv1a_64(&record) != checksum {
                return None;
            }
            records.push(record);
        }
        if !d.at_end() {
            return None;
        }
        self.saved = count;
        self.bytes = bytes;
        Some(records)
    }

    /// Drops any torn tail past the valid prefix so future appends extend
    /// clean bytes.
    fn truncate_to_valid(&self) {
        if let Ok(file) = fs::OpenOptions::new().write(true).open(&self.path) {
            let _ = file.set_len(self.bytes);
        }
    }

    fn clear(&mut self) {
        let _ = fs::remove_file(&self.path);
        self.saved = 0;
        self.bytes = 0;
    }
}

/// The refinement-search checkpoint writer/loader for one check.
pub(crate) struct VerifyCheckpoint {
    dir: PathBuf,
    guard: u64,
    nodes: Log,
    high: Log,
    sets: Log,
}

impl VerifyCheckpoint {
    pub fn new(dir: PathBuf, guard: u64) -> std::io::Result<VerifyCheckpoint> {
        fs::create_dir_all(&dir)?;
        Ok(VerifyCheckpoint {
            guard,
            nodes: Log::new(dir.join(NODES_LOG)),
            high: Log::new(dir.join(HIGH_LOG)),
            sets: Log::new(dir.join(SETS_LOG)),
            dir,
        })
    }

    fn manifest_path(&self) -> PathBuf {
        self.dir.join(MANIFEST)
    }

    /// Attempts to load a checkpoint left by a previous run; any defect
    /// clears the directory for a cold start.
    pub fn try_resume(&mut self) -> Option<ResumeState> {
        match self.load() {
            Some(state) => {
                self.nodes.truncate_to_valid();
                self.high.truncate_to_valid();
                self.sets.truncate_to_valid();
                Some(state)
            }
            None => {
                self.clear();
                None
            }
        }
    }

    fn load(&mut self) -> Option<ResumeState> {
        let payload = codec::read_verified(&self.manifest_path()).ok()?;
        let mut d = Dec::new(&payload);
        if d.u64().ok()? != self.guard {
            return None;
        }
        let node_count = d.len_of().ok()?;
        let nodes_bytes = d.u64().ok()?;
        let high_count = d.len_of().ok()?;
        let high_bytes = d.u64().ok()?;
        let set_count = d.len_of().ok()?;
        let sets_bytes = d.u64().ok()?;
        let bucket_count = d.len_of().ok()?;
        let mut pending: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for _ in 0..bucket_count {
            let depth = d.len_of().ok()?;
            let n = d.len_of().ok()?;
            let mut ids = Vec::with_capacity(n);
            for _ in 0..n {
                let id = d.len_of().ok()?;
                if id >= node_count {
                    return None;
                }
                ids.push(id);
            }
            pending.insert(depth, ids);
        }
        let low_transitions = d.len_of().ok()?;
        let wave_index = d.len_of().ok()?;
        if !d.at_end() {
            return None;
        }

        let high_records = self.high.read(high_count, high_bytes)?;
        let mut high_states = Vec::with_capacity(high_count);
        for record in &high_records {
            high_states.push(codec::state_from_bytes(record).ok()?);
        }

        let set_records = self.sets.read(set_count, sets_bytes)?;
        let mut sets: Vec<MatchSet> = Vec::with_capacity(set_count);
        for record in &set_records {
            let mut d = Dec::new(record);
            let n = d.len_of().ok()?;
            let mut set = BTreeSet::new();
            for _ in 0..n {
                let id = d.u32().ok()?;
                if id as usize >= high_count {
                    return None;
                }
                set.insert(id);
            }
            if !d.at_end() {
                return None;
            }
            sets.push(Arc::new(set));
        }
        // Saved sets are hash-consed, hence distinct; a duplicate would
        // alias two set ids onto one canonical set on resume.
        if sets.iter().collect::<HashSet<_>>().len() != set_count {
            return None;
        }

        let node_records = self.nodes.read(node_count, nodes_bytes)?;
        let mut nodes: Vec<Node> = Vec::with_capacity(node_count);
        for (i, record) in node_records.iter().enumerate() {
            let mut d = Dec::new(record);
            let state = codec::state_from_bytes(&d.bytes().ok()?).ok()?;
            let set_id = d.u32().ok()?;
            if set_id as usize >= set_count {
                return None;
            }
            let depth = d.len_of().ok()?;
            let parent = match d.u8().ok()? {
                0 => None,
                1 => {
                    let parent = d.len_of().ok()?;
                    // Parents precede children in admission order.
                    if parent >= i {
                        return None;
                    }
                    Some(parent)
                }
                _ => return None,
            };
            let n = d.len_of().ok()?;
            let mut edge_steps = Vec::with_capacity(n);
            let mut edge_pcs = Vec::with_capacity(n);
            for _ in 0..n {
                edge_steps.push(codec::dec_step(&mut d).ok()?);
                edge_pcs.push(match d.u8().ok()? {
                    0 => None,
                    1 => Some(Pc::new(d.u32().ok()?, d.u32().ok()?)),
                    _ => return None,
                });
            }
            let orig = match d.u8().ok()? {
                0 => None,
                1 => {
                    let n = d.len_of().ok()?;
                    let mut map: Vec<Tid> = Vec::with_capacity(n);
                    for _ in 0..n {
                        map.push(d.u64().ok()?);
                    }
                    Some(Arc::new(map))
                }
                _ => return None,
            };
            if !d.at_end() {
                return None;
            }
            nodes.push(Node {
                low: Arc::new(state),
                set_id,
                matches: Arc::clone(&sets[set_id as usize]),
                depth,
                parent,
                edge_steps,
                edge_pcs,
                orig,
            });
        }

        Some(ResumeState {
            nodes,
            sets,
            high_states,
            pending,
            low_transitions,
            wave_index,
        })
    }

    /// Removes all checkpoint files (cold start, or cleanup after a
    /// definitive verdict).
    pub fn clear(&mut self) {
        let _ = fs::remove_file(self.manifest_path());
        self.nodes.clear();
        self.high.clear();
        self.sets.clear();
    }

    /// Persists the wave boundary: appends new nodes, high states, and
    /// match sets (`sets`, indexed by set id) to their logs, syncs them,
    /// then atomically rewrites the manifest. `high_arena` access is
    /// faulting (`&mut`) because the high side may itself be spilled.
    pub fn save(
        &mut self,
        nodes: &[Node],
        sets: &[MatchSet],
        high_arena: &mut StateArena,
        pending: &BTreeMap<usize, Vec<usize>>,
        low_transitions: usize,
        wave_index: usize,
    ) {
        let mut records = Vec::new();
        for node in &nodes[self.nodes.saved..] {
            let mut e = Enc::new();
            e.bytes(&codec::state_to_bytes(&node.low));
            e.u32(node.set_id);
            e.len_of(node.depth);
            match node.parent {
                None => e.u8(0),
                Some(parent) => {
                    e.u8(1);
                    e.len_of(parent);
                }
            }
            e.len_of(node.edge_steps.len());
            for (step, pc) in node.edge_steps.iter().zip(&node.edge_pcs) {
                codec::enc_step(&mut e, step);
                match pc {
                    None => e.u8(0),
                    Some(pc) => {
                        e.u8(1);
                        e.u32(pc.routine);
                        e.u32(pc.instr);
                    }
                }
            }
            match &node.orig {
                None => e.u8(0),
                Some(map) => {
                    e.u8(1);
                    e.len_of(map.len());
                    for tid in map.iter() {
                        e.u64(*tid);
                    }
                }
            }
            records.push(e.into_bytes());
        }
        self.nodes.append(&records);

        let mut records = Vec::new();
        for id in self.high.saved..high_arena.len() {
            let state = high_arena.get_arc_mut(StateId(id as u32));
            records.push(codec::state_to_bytes(&state));
        }
        self.high.append(&records);

        let mut records = Vec::new();
        for set in &sets[self.sets.saved..] {
            let mut e = Enc::new();
            e.len_of(set.len());
            for id in set.iter() {
                e.u32(*id);
            }
            records.push(e.into_bytes());
        }
        self.sets.append(&records);

        let mut e = Enc::new();
        e.u64(self.guard);
        e.len_of(self.nodes.saved);
        e.u64(self.nodes.bytes);
        e.len_of(self.high.saved);
        e.u64(self.high.bytes);
        e.len_of(self.sets.saved);
        e.u64(self.sets.bytes);
        e.len_of(pending.len());
        for (depth, ids) in pending {
            e.len_of(*depth);
            e.len_of(ids.len());
            for id in ids {
                e.len_of(*id);
            }
        }
        e.len_of(low_transitions);
        e.len_of(wave_index);
        codec::write_atomic(&self.manifest_path(), &e.into_bytes())
            .unwrap_or_else(|err| panic!("checkpoint: writing manifest: {err}"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_checkpoint_with_duplicate_match_sets_starts_cold() {
        let dir = std::env::temp_dir().join(format!("armada-verify-ck-dup-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let empty: MatchSet = Arc::new(BTreeSet::new());
        for (sets, resumes) in [
            (vec![Arc::clone(&empty)], true),
            (vec![Arc::clone(&empty), Arc::new(BTreeSet::new())], false),
        ] {
            let mut ck = VerifyCheckpoint::new(dir.clone(), 7).expect("checkpoint dir");
            ck.clear();
            ck.save(&[], &sets, &mut StateArena::new(), &BTreeMap::new(), 0, 0);
            let mut reopened = VerifyCheckpoint::new(dir.clone(), 7).expect("checkpoint dir");
            assert_eq!(
                reopened.try_resume().is_some(),
                resumes,
                "{} sets",
                sets.len()
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
