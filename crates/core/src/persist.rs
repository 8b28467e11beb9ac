//! Model persistence: the JSON export, the one binary model container, and
//! the content-addressed characterization cache.
//!
//! Characterization costs thousands of transient analyses; the resulting
//! [`ProximityModel`] is plain data (tables, thresholds, VTC curves), so a
//! library can be characterized once and shipped — the moral equivalent of
//! a `.lib` file in a conventional flow. It is written two ways:
//!
//! - **JSON** ([`ProximityModel::to_json`], [`ProximityModel::save`]) is
//!   the export format: canonical, diffable, hand-inspectable.
//! - **The container** ([`ProximityModel::to_bytes`]) is what programs
//!   load: the same serde tree in the `serde_json::binary` rendering
//!   (floats as raw little-endian bits, float arrays as packed runs),
//!   wrapped in checksummed sections. A load is read → checksum → binary
//!   decode → `validate()`, with no text parsing, and is bit-exact.
//!
//! ```text
//! magic  "PXMSTOR2"                     8 bytes
//! u32    section count                  little-endian, 1..=16
//! per section:
//!   u32  section id                     (1 = meta, 2 = model)
//!   u64  payload length in bytes        at most MAX_SECTION_BYTES
//!   u64  FNV-1a 64 of the payload
//!   [u8] payload
//! ```
//!
//! Every model container has a model section. The `proxim-serve` store
//! adds a meta section (format, name, input count) to each entry; the
//! cache writes the model section alone. Unknown section ids are skipped
//! once their checksum passes. A container of another generation (the
//! retired `PXMSTOR1`, whose model section was JSON) is refused with an
//! error that names its magic; there is no fallback reader.
//!
//! [`ModelCache`] sits on top: it keys stored models by a hash of the cell
//! topology, the technology, and every result-affecting characterization
//! option, so repeated [`ModelCache::characterize`] calls for the same
//! inputs are served from disk with zero simulations — and any change to
//! cell, technology, or grids misses and re-characterizes.

use crate::characterize::CharacterizeOptions;
use crate::error::ModelError;
use crate::jobs::{metric, CharStats};
use crate::model::ProximityModel;
use proxim_cells::{Cell, Technology};
use proxim_obs as obs;
use std::fs;
use std::path::{Path, PathBuf};

/// Books one cache lookup outcome: a trace event for the timeline and a
/// process-global counter (the caller's [`CharStats`] keeps its own
/// per-call copy).
fn note_cache(outcome: &str, counter: &str, key: u64) {
    if obs::metrics_enabled() {
        obs::Registry::global().counter(counter).incr();
    }
    let _ = obs::event("char.cache")
        .arg("outcome", outcome)
        .arg("key", format_args!("{key:016x}"));
}

impl ProximityModel {
    /// Serializes the model to a JSON string.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Persist`] if serialization fails (it cannot for
    /// a well-formed model; the variant exists for forward compatibility).
    pub fn to_json(&self) -> Result<String, ModelError> {
        serde_json::to_string(self).map_err(|e| ModelError::Persist {
            detail: e.to_string(),
        })
    }

    /// Deserializes a model from JSON produced by [`ProximityModel::to_json`].
    ///
    /// The input is untrusted: beyond parsing, the text must fit
    /// [`MAX_MODEL_JSON_BYTES`] and the decoded model must pass
    /// [`ProximityModel::validate`] — serde fills table fields directly,
    /// so without the post-parse walk a hand-edited or bit-rotted file
    /// could smuggle NaN/Inf entries or malformed axes into the query
    /// path. (JSON `1e999` parses as `+inf`, so overflow is a validation
    /// concern, not just a syntax one.)
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Persist`] on oversized or malformed input and
    /// [`ModelError::Audit`] when the decoded model fails validation.
    pub fn from_json(text: &str) -> Result<Self, ModelError> {
        if text.len() > MAX_MODEL_JSON_BYTES {
            return Err(ModelError::Persist {
                detail: format!(
                    "model JSON is {} bytes, over the {MAX_MODEL_JSON_BYTES}-byte limit",
                    text.len()
                ),
            });
        }
        let model: Self = serde_json::from_str(text).map_err(|e| ModelError::Persist {
            detail: e.to_string(),
        })?;
        model.validate()?;
        Ok(model)
    }

    /// Writes the model to a file, atomically: the JSON is staged in a
    /// same-directory temp file, fsync'd, and renamed into place, so a
    /// crash mid-save never leaves a half-written model at `path`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Persist`] on serialization or I/O failure.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), ModelError> {
        atomic_write(path.as_ref(), self.to_json()?.as_bytes())
    }

    /// Loads a model from a file written by [`ProximityModel::save`].
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Persist`] on I/O or parse failure.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, ModelError> {
        let text = fs::read_to_string(path.as_ref()).map_err(|e| ModelError::Persist {
            detail: e.to_string(),
        })?;
        Self::from_json(&text)
    }

    /// Serializes the model into a container holding its model section
    /// alone (the layout is in the `persist` module docs).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Persist`] if serialization fails.
    pub fn to_bytes(&self) -> Result<Vec<u8>, ModelError> {
        Ok(encode_container(&[(SECTION_MODEL, &self.to_section()?)]))
    }

    /// Decodes a model from any container that holds a model section —
    /// [`ProximityModel::to_bytes`] output or a store entry.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Persist`] when the container or the section
    /// fails to decode, and [`ModelError::Audit`] when the decoded model
    /// fails validation.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ModelError> {
        let sections = decode_container(bytes)?;
        Self::from_section(section(&sections, SECTION_MODEL)?)
    }

    /// The model-section payload: the model's serde tree in the
    /// `serde_json::binary` rendering.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Persist`] if serialization fails.
    pub fn to_section(&self) -> Result<Vec<u8>, ModelError> {
        serde_json::binary::to_vec(self).map_err(persist_err)
    }

    /// Decodes a model-section payload and validates the model. The
    /// decoder enforces the JSON parser's limits (nesting depth, finite
    /// floats, no trailing bytes, counts bounded by the input); `validate()`
    /// then applies the same structural gate as [`ProximityModel::from_json`].
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Persist`] on undecodable bytes and
    /// [`ModelError::Audit`] when the decoded model fails validation.
    pub fn from_section(payload: &[u8]) -> Result<Self, ModelError> {
        let model: Self = serde_json::binary::from_slice(payload).map_err(persist_err)?;
        model.validate()?;
        Ok(model)
    }
}

/// On-disk model format version, part of every cache key. Bump whenever
/// [`ProximityModel`]'s serialized shape changes so stale entries from an
/// older build miss (and re-characterize) instead of failing to parse.
/// v2: models carry the `degraded` slice provenance list.
/// v3: cache entries are wrapped in a checksummed envelope and written
/// atomically (tmp + fsync + rename), so torn entries are detectable.
/// v4: cache entries are binary model containers (`<key>.pxm`).
const MODEL_FORMAT_VERSION: u32 = 4;

/// Upper bound on accepted model-JSON size. A characterized model is a few
/// hundred kilobytes; anything near this limit is not one of ours, and
/// bounding the input keeps a hostile cache entry from ballooning memory
/// before the parser even sees a structural problem.
pub const MAX_MODEL_JSON_BYTES: usize = 64 * 1024 * 1024;

/// Upper bound on one container section's advertised length, checked
/// before the payload is touched — the binary counterpart of
/// [`MAX_MODEL_JSON_BYTES`].
pub const MAX_SECTION_BYTES: usize = MAX_MODEL_JSON_BYTES;

/// First bytes of every model container.
pub const CONTAINER_MAGIC: &[u8; 8] = b"PXMSTOR2";

/// File extension of a model container on disk.
pub const CONTAINER_EXT: &str = "pxm";

/// Section id of the store's metadata section.
pub const SECTION_META: u32 = 1;
/// Section id of the model section.
pub const SECTION_MODEL: u32 = 2;

/// Upper bound on sections per container; ours have one or two, and a
/// hostile header must not be able to request millions.
const MAX_SECTIONS: u32 = 16;

/// FNV-1a 64-bit — tiny, dependency-free, and stable across platforms and
/// runs (unlike `std`'s `DefaultHasher`, whose output is unspecified).
///
/// Public because every checksummed on-disk format in the workspace (model
/// containers, checkpoint journals, quarantine names) uses this same
/// function, so readers and writers cannot drift apart.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn persist_err(e: impl std::fmt::Display) -> ModelError {
    ModelError::Persist {
        detail: e.to_string(),
    }
}

/// Monotonic discriminator for temp-file names, so two writer *threads* in
/// one process never collide (two *processes* are separated by pid).
static TMP_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Crash-consistent file write: the bytes land in a same-directory temp
/// file, are fsync'd, and are atomically renamed over `path` (then the
/// directory entry is fsync'd, best effort). A reader — or a crash at any
/// instant — sees either the complete old file or the complete new file,
/// never an interleaving or a prefix. Concurrent writers race only at the
/// rename, so the last *complete* write wins intact.
///
/// Public so other persistence layers (the `proxim-serve` binary model
/// store) share the exact same crash-consistency path instead of
/// reimplementing it.
///
/// # Errors
///
/// Returns [`ModelError::Persist`] on any I/O failure; the staged temp
/// file is removed best-effort so failures leave no debris.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> Result<(), ModelError> {
    use std::io::Write;
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let file_name = path
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or_else(|| persist_err(format!("unusable path {}", path.display())))?;
    let tmp = path.with_file_name(format!(
        ".{file_name}.tmp.{}.{}",
        std::process::id(),
        TMP_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ));
    let result = (|| {
        let mut f = fs::File::create(&tmp).map_err(persist_err)?;
        f.write_all(bytes).map_err(persist_err)?;
        f.sync_all().map_err(persist_err)?;
        fs::rename(&tmp, path).map_err(persist_err)?;
        // Make the rename itself durable. Failure here (exotic
        // filesystems) costs durability of the *name*, not atomicity.
        if let Some(dir) = dir {
            if let Ok(d) = fs::File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(())
    })();
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    result
}

/// The file name an [`atomic_write`] temp file was staging, or `None` when
/// `file` is not one. Temp files are named `.<target>.tmp.<pid>.<seq>`;
/// this is the one rule every directory owner uses to recognise the debris
/// a killed writer leaves.
pub fn atomic_write_target(file: &str) -> Option<&str> {
    let (target, tail) = file.strip_prefix('.')?.rsplit_once(".tmp.")?;
    let (pid, seq) = tail.split_once('.')?;
    let numeric = |s: &str| !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit());
    (numeric(pid) && numeric(seq) && !target.is_empty()).then_some(target)
}

/// Why a byte string is not a valid model container. Every variant is a
/// typed outcome: corrupt bytes become an error the caller can quarantine
/// on, never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ContainerError {
    /// The bytes do not start with a container magic at all.
    BadMagic,
    /// A container of another generation, named by its magic (`PXMSTOR1`
    /// entries carried a JSON model section; there is no reader for them).
    Unsupported {
        /// The magic found, e.g. `PXMSTOR1`.
        format: String,
    },
    /// The bytes ended before the advertised structure did — a torn write
    /// or truncation at rest.
    Truncated {
        /// What was being read when the bytes ran out.
        detail: String,
    },
    /// A section's payload does not match its checksum envelope.
    Checksum {
        /// The section id whose envelope failed.
        section: u32,
    },
    /// The structure is inconsistent: a section count or length out of
    /// bounds, a duplicate or missing section, trailing bytes.
    Malformed {
        /// What was inconsistent.
        detail: String,
    },
}

impl std::fmt::Display for ContainerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::BadMagic => write!(f, "not a model container (bad magic)"),
            Self::Unsupported { format } => write!(
                f,
                "model container format {format} is not supported (expected {})",
                String::from_utf8_lossy(CONTAINER_MAGIC)
            ),
            Self::Truncated { detail } => write!(f, "model container truncated: {detail}"),
            Self::Checksum { section } => {
                write!(f, "model container section {section} failed its checksum")
            }
            Self::Malformed { detail } => write!(f, "model container malformed: {detail}"),
        }
    }
}

impl std::error::Error for ContainerError {}

impl From<ContainerError> for ModelError {
    fn from(e: ContainerError) -> Self {
        persist_err(e)
    }
}

/// Serializes `(id, payload)` sections into one container.
pub fn encode_container(sections: &[(u32, &[u8])]) -> Vec<u8> {
    let len = sections.iter().map(|(_, p)| p.len() + 20).sum::<usize>();
    let mut out = Vec::with_capacity(len + 12);
    out.extend_from_slice(CONTAINER_MAGIC);
    out.extend_from_slice(&(sections.len() as u32).to_le_bytes());
    for (id, payload) in sections {
        out.extend_from_slice(&id.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&fnv1a_64(payload).to_le_bytes());
        out.extend_from_slice(payload);
    }
    out
}

fn take<'a>(
    bytes: &'a [u8],
    pos: &mut usize,
    n: usize,
    what: &str,
) -> Result<&'a [u8], ContainerError> {
    let end = pos
        .checked_add(n)
        .filter(|&e| e <= bytes.len())
        .ok_or_else(|| ContainerError::Truncated {
            detail: format!("{what} needs {n} more bytes"),
        })?;
    let slice = &bytes[*pos..end];
    *pos = end;
    Ok(slice)
}

fn le_u32(bytes: &[u8], pos: &mut usize, what: &str) -> Result<u32, ContainerError> {
    let mut w = [0u8; 4];
    w.copy_from_slice(take(bytes, pos, 4, what)?);
    Ok(u32::from_le_bytes(w))
}

fn le_u64(bytes: &[u8], pos: &mut usize, what: &str) -> Result<u64, ContainerError> {
    let mut w = [0u8; 8];
    w.copy_from_slice(take(bytes, pos, 8, what)?);
    Ok(u64::from_le_bytes(w))
}

/// Splits a container into its `(id, payload)` sections, verifying the
/// magic, the section count and size caps, every checksum, that no id
/// repeats, and that nothing trails the last section.
///
/// # Errors
///
/// A typed [`ContainerError`] for every way the bytes can be wrong.
pub fn decode_container(bytes: &[u8]) -> Result<Vec<(u32, &[u8])>, ContainerError> {
    let mut pos = 0usize;
    let magic = take(bytes, &mut pos, CONTAINER_MAGIC.len(), "magic")
        .map_err(|_| ContainerError::BadMagic)?;
    if magic != CONTAINER_MAGIC {
        let family = &CONTAINER_MAGIC[..CONTAINER_MAGIC.len() - 1];
        return Err(if magic.starts_with(family) && magic[7].is_ascii_digit() {
            ContainerError::Unsupported {
                format: String::from_utf8_lossy(magic).into_owned(),
            }
        } else {
            ContainerError::BadMagic
        });
    }
    let count = le_u32(bytes, &mut pos, "section count")?;
    if count == 0 || count > MAX_SECTIONS {
        return Err(ContainerError::Malformed {
            detail: format!("section count {count} outside 1..={MAX_SECTIONS}"),
        });
    }
    let mut sections: Vec<(u32, &[u8])> = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let id = le_u32(bytes, &mut pos, "section id")?;
        let len = le_u64(bytes, &mut pos, "section length")?;
        if len > MAX_SECTION_BYTES as u64 {
            return Err(ContainerError::Malformed {
                detail: format!("section {id} advertises {len} bytes, over the section cap"),
            });
        }
        let sum = le_u64(bytes, &mut pos, "section checksum")?;
        let payload = take(bytes, &mut pos, len as usize, "section payload")?;
        if fnv1a_64(payload) != sum {
            return Err(ContainerError::Checksum { section: id });
        }
        if sections.iter().any(|&(seen, _)| seen == id) {
            return Err(ContainerError::Malformed {
                detail: format!("duplicate section {id}"),
            });
        }
        sections.push((id, payload));
    }
    if pos != bytes.len() {
        return Err(ContainerError::Malformed {
            detail: format!(
                "{} trailing bytes after the last section",
                bytes.len() - pos
            ),
        });
    }
    Ok(sections)
}

/// The payload of section `id`.
///
/// # Errors
///
/// [`ContainerError::Malformed`] when the container has no such section.
pub fn section<'a>(sections: &[(u32, &'a [u8])], id: u32) -> Result<&'a [u8], ContainerError> {
    sections
        .iter()
        .find(|&&(s, _)| s == id)
        .map(|&(_, payload)| payload)
        .ok_or_else(|| ContainerError::Malformed {
            detail: format!("missing section {id}"),
        })
}

/// A content-addressed on-disk cache of characterized models.
///
/// Each entry is one model container ([`ProximityModel::to_bytes`]) named
/// `<key>.pxm` by the hex cache key under the cache root. The key hashes the serialized cell, the serialized technology, and
/// [`CharacterizeOptions::cache_key_string`] — everything that affects the
/// characterized result, and nothing that doesn't (the `jobs` worker count
/// is deliberately excluded, since the pipeline is deterministic in it).
#[derive(Debug, Clone)]
pub struct ModelCache {
    root: PathBuf,
}

impl ModelCache {
    /// Opens (and lazily creates) a cache rooted at `root`.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        Self { root: root.into() }
    }

    /// The cache directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The cache key for one `(cell, tech, opts)` triple.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Persist`] if the cell or technology cannot be
    /// serialized.
    pub fn key(
        cell: &Cell,
        tech: &Technology,
        opts: &CharacterizeOptions,
    ) -> Result<u64, ModelError> {
        let cell_json = serde_json::to_string(cell).map_err(|e| ModelError::Persist {
            detail: e.to_string(),
        })?;
        let tech_json = serde_json::to_string(tech).map_err(|e| ModelError::Persist {
            detail: e.to_string(),
        })?;
        let blob = format!(
            "fmt={MODEL_FORMAT_VERSION}\ncell={cell_json}\ntech={tech_json}\nopts={}",
            opts.cache_key_string()
        );
        Ok(fnv1a_64(blob.as_bytes()))
    }

    /// The on-disk path an entry would live at.
    pub fn entry_path(&self, key: u64) -> PathBuf {
        self.root.join(format!("{key:016x}.{CONTAINER_EXT}"))
    }

    /// The path a corrupt entry with the given content hash is quarantined
    /// at: the entry path plus the FNV-1a hash of the corrupt bytes and a
    /// `.quarantined` suffix.
    ///
    /// The content hash keeps *repeated* corruption events at the same key
    /// from overwriting each other: each distinct set of corrupt bytes
    /// lands in its own file, so no evidence is lost between post-mortems.
    /// (Identical corrupt bytes dedupe onto one file, which loses nothing.)
    pub fn quarantined_path(&self, key: u64, content_hash: u64) -> PathBuf {
        self.root.join(format!(
            "{key:016x}.{CONTAINER_EXT}.{content_hash:016x}.quarantined"
        ))
    }

    /// Characterizes through the cache: a stored model for the same cell,
    /// technology, and options is loaded with **zero** simulations;
    /// otherwise the model is characterized (honoring `opts.jobs`) and
    /// stored. `stats` accumulates hit/miss counters and, on a miss, the
    /// characterization telemetry.
    ///
    /// Entries are checksummed containers written atomically (temp file +
    /// fsync + rename), so a concurrent writer or a crash mid-store can
    /// never leave interleaved or truncated bytes at the entry path:
    /// readers see a complete old entry, a complete new entry, or a
    /// detectably corrupt one.
    ///
    /// A corrupt (present but undecodable, torn, or checksum-failing)
    /// cache entry counts as a miss: it is quarantined aside — renamed to
    /// `.pxm.<content-hash>.quarantined` for post-mortem, counted in
    /// [`CharStats::cache_quarantined`] — and the model is
    /// re-characterized and stored fresh.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] on characterization failure or when the cache
    /// directory cannot be written.
    pub fn characterize(
        &self,
        cell: &Cell,
        tech: &Technology,
        opts: &CharacterizeOptions,
        stats: &mut CharStats,
    ) -> Result<ProximityModel, ModelError> {
        self.characterize_controlled(
            cell,
            tech,
            opts,
            stats,
            &crate::checkpoint::RunControl::new(),
        )
    }

    /// [`ModelCache::characterize`] under a [`RunControl`]: the run honors
    /// the control's cancellation token, and — when a checkpoint journal is
    /// configured — journals completed jobs so an interrupted run resumed
    /// with the same control skips finished work
    /// ([`CharStats::checkpoint_skipped`]) and still produces the exact
    /// bytes of an uninterrupted run.
    ///
    /// [`RunControl`]: crate::checkpoint::RunControl
    ///
    /// # Errors
    ///
    /// As [`ModelCache::characterize`], plus a typed cancellation error
    /// ([`ModelError::is_cancellation`]) when the token trips mid-run.
    pub fn characterize_controlled(
        &self,
        cell: &Cell,
        tech: &Technology,
        opts: &CharacterizeOptions,
        stats: &mut CharStats,
        control: &crate::checkpoint::RunControl,
    ) -> Result<ProximityModel, ModelError> {
        let key = Self::key(cell, tech, opts)?;
        let path = self.entry_path(key);
        let cached = fs::read(&path).map_err(persist_err);
        match cached.and_then(|bytes| ProximityModel::from_bytes(&bytes)) {
            Ok(model) => {
                stats.cache_hits += 1;
                note_cache("hit", metric::CACHE_HITS, key);
                return Ok(model);
            }
            // The entry exists but does not decode or fails its checksum:
            // move it aside (best effort) so the bad bytes survive for
            // inspection and cannot be mistaken for a valid entry again.
            // The event is counted unconditionally — a quarantine whose
            // rename failed is still a corrupt entry the operator must
            // hear about, and the content-hashed name keeps repeated
            // corruption at the same key from overwriting earlier
            // evidence.
            Err(_) if path.exists() => {
                let content_hash = fnv1a_64(&fs::read(&path).unwrap_or_default());
                let _ = fs::rename(&path, self.quarantined_path(key, content_hash));
                stats.cache_quarantined += 1;
                note_cache("quarantined", metric::CACHE_QUARANTINED, key);
            }
            Err(_) => {}
        }
        stats.cache_misses += 1;
        note_cache("miss", metric::CACHE_MISSES, key);
        let (model, run) = ProximityModel::characterize_controlled(cell, tech, opts, control)?;
        stats.sims_run += run.sims_run;
        stats.threads = run.threads;
        stats.workers_engaged = stats.workers_engaged.max(run.workers_engaged);
        stats.phases = run.phases;
        stats.enumerated_jobs += run.enumerated_jobs;
        stats.succeeded_jobs += run.succeeded_jobs;
        stats.checkpoint_skipped += run.checkpoint_skipped;
        stats.recoveries += run.recoveries;
        stats.recovery_seconds += run.recovery_seconds;
        stats.failed_jobs += run.failed_jobs;
        stats.degraded_slices += run.degraded_slices;
        stats.audit_findings += run.audit_findings;
        fs::create_dir_all(&self.root).map_err(persist_err)?;
        atomic_write(&path, &model.to_bytes()?)?;
        Ok(model)
    }

    /// Deletes every cache entry (`*.pxm`), every leftover entry of the
    /// retired v3 text format (`*.json`), every quarantined entry
    /// (`*.quarantined`), and the atomic-write temp files a killed writer
    /// left staging any of those. Other files are left alone; a missing
    /// root is fine.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Persist`] if an entry cannot be removed.
    pub fn wipe(&self) -> Result<(), ModelError> {
        let entries = match fs::read_dir(&self.root) {
            Ok(e) => e,
            Err(_) => return Ok(()),
        };
        let cache_file = |file: &str| {
            Path::new(file)
                .extension()
                .is_some_and(|e| e == CONTAINER_EXT || e == "json" || e == "quarantined")
        };
        for entry in entries.flatten() {
            let p = entry.path();
            let Some(file) = p.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            if cache_file(file) || atomic_write_target(file).is_some_and(cache_file) {
                fs::remove_file(&p).map_err(persist_err)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::characterize::CharacterizeOptions;
    use crate::measure::InputEvent;
    use proxim_cells::{Cell, Technology};
    use proxim_numeric::pwl::Edge;

    /// A glitch-enabled fast NAND2: the round-trip subject.
    fn nand2_glitch() -> ProximityModel {
        let opts = CharacterizeOptions {
            glitch: true,
            ..CharacterizeOptions::fast()
        };
        ProximityModel::characterize(&Cell::nand(2), &Technology::demo_5v(), &opts).unwrap()
    }

    /// The two-input probes both round-trip tests query: three proximity
    /// configurations at both input edges.
    fn probe_events() -> Vec<[InputEvent; 2]> {
        let mut out = Vec::new();
        for &(s, tau_a, tau_b) in &[
            (0.0, 400e-12, 400e-12),
            (150e-12, 800e-12, 200e-12),
            (-300e-12, 120e-12, 1700e-12),
        ] {
            for edge in [Edge::Rising, Edge::Falling] {
                out.push([
                    InputEvent::new(0, edge, 0.0, tau_a),
                    InputEvent::new(1, edge, s, tau_b),
                ]);
            }
        }
        out
    }

    #[test]
    fn json_roundtrip_preserves_every_answer() {
        let model = nand2_glitch();

        let json = model.to_json().unwrap();
        let back = ProximityModel::from_json(&json).unwrap();

        assert_eq!(model.thresholds(), back.thresholds());
        assert_eq!(model.table_entries(), back.table_entries());
        for events in probe_events() {
            let a = model.gate_timing(&events).unwrap();
            let b = back.gate_timing(&events).unwrap();
            // JSON float parsing may differ in the last ULP.
            let close = |x: f64, y: f64| (x - y).abs() <= 1e-12 * x.abs().max(y.abs());
            assert!(
                close(a.delay, b.delay),
                "{events:?}: {} vs {}",
                a.delay,
                b.delay
            );
            assert!(close(a.output_transition, b.output_transition));
            assert_eq!(a.reference_pin, b.reference_pin);
        }
        // Glitch model survives too.
        assert_eq!(
            model.glitch_model(Edge::Rising).is_some(),
            back.glitch_model(Edge::Rising).is_some()
        );
    }

    #[test]
    fn container_roundtrip_is_bit_exact() {
        let model = nand2_glitch();

        // save → load → save through a file is byte-identical.
        let dir = std::env::temp_dir().join(format!("proxim_container_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("nand2.pxm");
        let bytes = model.to_bytes().unwrap();
        atomic_write(&path, &bytes).unwrap();
        let back = ProximityModel::from_bytes(&std::fs::read(&path).unwrap()).unwrap();
        assert_eq!(back.to_bytes().unwrap(), bytes);
        assert_eq!(back.to_json().unwrap(), model.to_json().unwrap());
        std::fs::remove_dir_all(&dir).ok();

        // Binary floats have no last-ULP excuse: every answer is identical
        // to the bit.
        for events in probe_events() {
            let a = model.gate_timing(&events).unwrap();
            let b = back.gate_timing(&events).unwrap();
            assert_eq!(a.delay.to_bits(), b.delay.to_bits(), "{events:?}");
            assert_eq!(
                a.output_transition.to_bits(),
                b.output_transition.to_bits(),
                "{events:?}"
            );
            assert_eq!(a.reference_pin, b.reference_pin);
        }
        assert!(back.glitch_model(Edge::Rising).is_some());
    }

    #[test]
    fn every_container_corruption_is_a_typed_error() {
        let tech = Technology::demo_5v();
        let model = ProximityModel::characterize(&Cell::inv(), &tech, &CharacterizeOptions::fast())
            .unwrap();
        let good = model.to_bytes().unwrap();
        let section = model.to_section().unwrap();
        let reseal = |payload: &[u8]| encode_container(&[(SECTION_MODEL, payload)]);
        assert_eq!(reseal(&section), good);

        // Truncation at every byte offset.
        for cut in 0..good.len() {
            assert!(matches!(
                ProximityModel::from_bytes(&good[..cut]),
                Err(ModelError::Persist { .. })
            ));
        }

        // NaN and the infinities inside a float run: the ramp-stretch pair
        // is a two-float run (tag 9, count 2, raw bits).
        let [a, b] = model.ramp_stretch;
        let mut run = vec![9u8];
        run.extend_from_slice(&2u32.to_le_bytes());
        run.extend_from_slice(&a.to_le_bytes());
        run.extend_from_slice(&b.to_le_bytes());
        let at = section
            .windows(run.len())
            .position(|w| w == run.as_slice())
            .expect("ramp_stretch is one float run");
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut poisoned = section.clone();
            poisoned[at + 5 + 8..at + run.len()].copy_from_slice(&bad.to_le_bytes());
            let e = ProximityModel::from_bytes(&reseal(&poisoned)).unwrap_err();
            assert!(matches!(e, ModelError::Persist { .. }), "{e}");
            assert!(e.to_string().contains("non-finite"), "{e}");
        }

        // Trailing bytes, inside the section and after the container.
        let mut long = section.clone();
        long.push(0);
        let e = ProximityModel::from_bytes(&reseal(&long)).unwrap_err();
        assert!(e.to_string().contains("trailing"), "{e}");
        let mut long = good.clone();
        long.push(0);
        let e = ProximityModel::from_bytes(&long).unwrap_err();
        assert!(e.to_string().contains("trailing"), "{e}");

        // The retired text-era container is named, not just refused.
        let mut old = good.clone();
        old[..8].copy_from_slice(b"PXMSTOR1");
        assert_eq!(
            decode_container(&old).unwrap_err(),
            ContainerError::Unsupported {
                format: "PXMSTOR1".into()
            }
        );
        assert_eq!(
            decode_container(b"{\"cell\":").unwrap_err(),
            ContainerError::BadMagic
        );
    }

    #[test]
    fn atomic_write_temp_files_are_recognised() {
        assert_eq!(atomic_write_target(".m.pxm.tmp.123.0"), Some("m.pxm"));
        assert_eq!(atomic_write_target(".a.json.tmp.9.17"), Some("a.json"));
        for not_temp in [
            "m.pxm",
            ".m.pxm",
            ".m.pxm.tmp.",
            ".m.pxm.tmp.1",
            ".x.tmp.a.1",
        ] {
            assert_eq!(atomic_write_target(not_temp), None, "{not_temp}");
        }
    }

    #[test]
    fn save_and_load_via_file() {
        let tech = Technology::demo_5v();
        let cell = Cell::inv();
        let model =
            ProximityModel::characterize(&cell, &tech, &CharacterizeOptions::fast()).unwrap();
        let dir = std::env::temp_dir().join("proxim_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("inv_model.json");
        model.save(&path).unwrap();
        let back = ProximityModel::load(&path).unwrap();
        assert_eq!(model.thresholds(), back.thresholds());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn malformed_json_is_reported() {
        let e = ProximityModel::from_json("{not json").unwrap_err();
        assert!(matches!(e, ModelError::Persist { .. }));
        assert!(e.to_string().contains("persist"));
    }

    #[test]
    fn load_missing_file_is_reported() {
        let e = ProximityModel::load("/nonexistent/path/model.json").unwrap_err();
        assert!(matches!(e, ModelError::Persist { .. }));
    }

    #[test]
    fn non_finite_values_in_valid_json_are_rejected_as_audit_errors() {
        let tech = Technology::demo_5v();
        let cell = Cell::inv();
        let model =
            ProximityModel::characterize(&cell, &tech, &CharacterizeOptions::fast()).unwrap();
        let json = model.to_json().unwrap();

        // `1e999` is syntactically valid JSON that saturates to +inf when
        // parsed into an f64 — the classic route past a syntax-only loader.
        // The on-load validation must catch it as a typed audit error, not
        // hand back a model that poisons every downstream interpolation.
        let field = "\"c_ref\":";
        let start = json.find(field).expect("c_ref field present") + field.len();
        let end = start + json[start..].find([',', '}']).expect("field terminated");
        let poisoned = format!("{}1e999{}", &json[..start], &json[end..]);
        let e = ProximityModel::from_json(&poisoned).unwrap_err();
        assert!(matches!(e, ModelError::Audit { .. }), "{e}");
        assert!(e.to_string().contains("audit"), "{e}");
    }

    #[test]
    fn oversized_json_is_rejected_before_parsing() {
        // A multi-gigabyte "model" must be refused up front, not parsed.
        let mut huge = String::from("{\"pad\": \"");
        huge.reserve(MAX_MODEL_JSON_BYTES + 16);
        while huge.len() <= MAX_MODEL_JSON_BYTES {
            huge.push_str("xxxxxxxxxxxxxxxx");
        }
        huge.push_str("\"}");
        let e = ProximityModel::from_json(&huge).unwrap_err();
        assert!(matches!(e, ModelError::Persist { .. }), "{e}");
        assert!(e.to_string().contains("limit"), "{e}");
    }

    fn fresh_cache(name: &str) -> ModelCache {
        let dir = std::env::temp_dir().join(name);
        std::fs::remove_dir_all(&dir).ok();
        ModelCache::new(dir)
    }

    #[test]
    fn second_characterize_is_a_pure_cache_hit() {
        let tech = Technology::demo_5v();
        let cell = Cell::inv();
        let opts = CharacterizeOptions::fast();
        let cache = fresh_cache("proxim_cache_test_hit");

        let mut first = CharStats::default();
        let m1 = cache.characterize(&cell, &tech, &opts, &mut first).unwrap();
        assert_eq!((first.cache_hits, first.cache_misses), (0, 1));
        assert!(first.sims_run > 0, "a miss must simulate");

        let mut second = CharStats::default();
        let m2 = cache
            .characterize(&cell, &tech, &opts, &mut second)
            .unwrap();
        assert_eq!((second.cache_hits, second.cache_misses), (1, 0));
        assert_eq!(second.sims_run, 0, "a hit must not simulate at all");
        assert_eq!(m1.to_json().unwrap(), m2.to_json().unwrap());

        std::fs::remove_dir_all(cache.root()).ok();
    }

    #[test]
    fn changed_options_miss_but_worker_count_does_not() {
        let tech = Technology::demo_5v();
        let cell = Cell::inv();
        let opts = CharacterizeOptions::fast();
        let cache = fresh_cache("proxim_cache_test_miss");

        let mut stats = CharStats::default();
        cache.characterize(&cell, &tech, &opts, &mut stats).unwrap();

        // Any result-affecting knob changes the key.
        let tighter = CharacterizeOptions {
            dv_max: 0.06,
            ..opts.clone()
        };
        let mut stats = CharStats::default();
        cache
            .characterize(&cell, &tech, &tighter, &mut stats)
            .unwrap();
        assert_eq!((stats.cache_hits, stats.cache_misses), (0, 1));
        assert!(stats.sims_run > 0);

        // The worker count is not part of the identity: a model
        // characterized at jobs = 1 is a hit when asked for at jobs = 4.
        let parallel = CharacterizeOptions {
            jobs: 4,
            ..opts.clone()
        };
        assert_eq!(
            ModelCache::key(&cell, &tech, &opts).unwrap(),
            ModelCache::key(&cell, &tech, &parallel).unwrap(),
        );
        let mut stats = CharStats::default();
        cache
            .characterize(&cell, &tech, &parallel, &mut stats)
            .unwrap();
        assert_eq!((stats.cache_hits, stats.cache_misses), (1, 0));

        // A different cell misses.
        let nand = Cell::nand(2);
        assert_ne!(
            ModelCache::key(&cell, &tech, &opts).unwrap(),
            ModelCache::key(&nand, &tech, &opts).unwrap(),
        );

        std::fs::remove_dir_all(cache.root()).ok();
    }

    #[test]
    fn corrupt_entry_is_quarantined_and_recharacterized() {
        let tech = Technology::demo_5v();
        let cell = Cell::inv();
        let opts = CharacterizeOptions::fast();
        let cache = fresh_cache("proxim_cache_test_corrupt");

        let key = ModelCache::key(&cell, &tech, &opts).unwrap();
        let path = cache.entry_path(key);
        std::fs::create_dir_all(cache.root()).unwrap();
        std::fs::write(&path, "{definitely not a model").unwrap();

        let mut stats = CharStats::default();
        cache.characterize(&cell, &tech, &opts, &mut stats).unwrap();
        assert_eq!((stats.cache_hits, stats.cache_misses), (0, 1));
        assert_eq!(stats.cache_quarantined, 1);

        // The entry was replaced with a loadable model, and the corrupt
        // bytes were moved aside rather than destroyed.
        assert!(ProximityModel::from_bytes(&std::fs::read(&path).unwrap()).is_ok());
        let quarantined = cache.quarantined_path(key, fnv1a_64(b"{definitely not a model"));
        assert_eq!(
            std::fs::read_to_string(&quarantined).unwrap(),
            "{definitely not a model"
        );

        // A wipe removes quarantined entries along with live ones.
        cache.wipe().unwrap();
        assert!(!path.exists() && !quarantined.exists());

        std::fs::remove_dir_all(cache.root()).ok();
    }

    #[test]
    fn repeated_corruption_keeps_every_piece_of_evidence() {
        // Regression for the quarantine-name collision: two *different*
        // corrupt payloads at the same key must land in two different
        // quarantine files, and every event must be counted.
        let tech = Technology::demo_5v();
        let cell = Cell::inv();
        let opts = CharacterizeOptions::fast();
        let cache = fresh_cache("proxim_cache_test_requarantine");

        let key = ModelCache::key(&cell, &tech, &opts).unwrap();
        let path = cache.entry_path(key);
        std::fs::create_dir_all(cache.root()).unwrap();

        let mut total = 0;
        for corrupt in ["{first corruption", "{second, different corruption"] {
            std::fs::write(&path, corrupt).unwrap();
            let mut stats = CharStats::default();
            cache.characterize(&cell, &tech, &opts, &mut stats).unwrap();
            assert_eq!(stats.cache_quarantined, 1, "every event is counted");
            total += stats.cache_quarantined;
        }
        assert_eq!(total, 2);

        for corrupt in ["{first corruption", "{second, different corruption"] {
            let q = cache.quarantined_path(key, fnv1a_64(corrupt.as_bytes()));
            assert_eq!(
                std::fs::read_to_string(&q).unwrap(),
                corrupt,
                "each corruption keeps its own evidence file"
            );
        }

        std::fs::remove_dir_all(cache.root()).ok();
    }

    #[test]
    fn torn_entry_fails_its_checksum_and_is_quarantined() {
        let tech = Technology::demo_5v();
        let cell = Cell::inv();
        let opts = CharacterizeOptions::fast();
        let cache = fresh_cache("proxim_cache_test_torn");

        let mut stats = CharStats::default();
        cache.characterize(&cell, &tech, &opts, &mut stats).unwrap();

        // Simulate a torn write: the container header survives but the
        // payload is cut short.
        let key = ModelCache::key(&cell, &tech, &opts).unwrap();
        let path = cache.entry_path(key);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(
            ProximityModel::from_bytes(&std::fs::read(&path).unwrap()).is_err(),
            "torn entry must not load"
        );

        let torn: Vec<u8> = bytes[..bytes.len() / 2].to_vec();
        let mut stats = CharStats::default();
        cache.characterize(&cell, &tech, &opts, &mut stats).unwrap();
        assert_eq!((stats.cache_hits, stats.cache_misses), (0, 1));
        assert_eq!(stats.cache_quarantined, 1);
        assert!(cache.quarantined_path(key, fnv1a_64(&torn)).exists());

        std::fs::remove_dir_all(cache.root()).ok();
    }

    #[test]
    fn concurrent_writers_never_leave_a_torn_entry() {
        // Two writers hammer the same entry path with *different* complete
        // payloads while a reader polls it. The atomic-rename path must
        // guarantee every successful read is one of the complete payloads —
        // interleaved or truncated bytes would fail the section checksum
        // (and this assertion).
        let dir = std::env::temp_dir().join(format!("proxim_cache_race_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("entry.pxm");

        let payload_a = vec![b'a'; 256 * 1024];
        let payload_b = vec![b'b'; 256 * 1024];
        let entry = |payload: &[u8]| encode_container(&[(SECTION_MODEL, payload)]);
        atomic_write(&path, &entry(&payload_a)).unwrap();

        const ROUNDS: usize = 40;
        std::thread::scope(|scope| {
            for payload in [&payload_a, &payload_b] {
                let (path, bytes) = (&path, entry(payload));
                scope.spawn(move || {
                    for _ in 0..ROUNDS {
                        atomic_write(path, &bytes).unwrap();
                    }
                });
            }
            let reads: Vec<Vec<u8>> = (0..ROUNDS * 4)
                .map(|_| {
                    let bytes = std::fs::read(&path).unwrap();
                    let sections = decode_container(&bytes).expect("entry must never be torn");
                    section(&sections, SECTION_MODEL).unwrap().to_vec()
                })
                .collect();
            for payload in reads {
                assert!(
                    payload == payload_a || payload == payload_b,
                    "read neither complete payload (len {})",
                    payload.len()
                );
            }
        });

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wipe_clears_entries_and_forces_recharacterization() {
        let tech = Technology::demo_5v();
        let cell = Cell::inv();
        let opts = CharacterizeOptions::fast();
        let cache = fresh_cache("proxim_cache_test_wipe");

        let mut stats = CharStats::default();
        cache.characterize(&cell, &tech, &opts, &mut stats).unwrap();
        cache.wipe().unwrap();

        let mut stats = CharStats::default();
        cache.characterize(&cell, &tech, &opts, &mut stats).unwrap();
        assert_eq!((stats.cache_hits, stats.cache_misses), (0, 1));

        // Wiping a nonexistent root is fine.
        ModelCache::new("/nonexistent/proxim/cache").wipe().unwrap();

        std::fs::remove_dir_all(cache.root()).ok();
    }

    #[test]
    fn wipe_removes_entries_leftovers_and_temp_debris_only() {
        let tech = Technology::demo_5v();
        let cell = Cell::inv();
        let opts = CharacterizeOptions::fast();
        let cache = fresh_cache("proxim_cache_test_wipe_debris");
        let mut stats = CharStats::default();
        cache.characterize(&cell, &tech, &opts, &mut stats).unwrap();
        let live = cache.entry_path(ModelCache::key(&cell, &tech, &opts).unwrap());

        // What a killed writer and an older build leave behind.
        let debris = [
            ".00000000000000aa.json.tmp.4242.7",
            ".00000000000000bb.pxm.tmp.4242.8",
            "00000000000000cc.json",
            "00000000000000dd.pxm.00000000000000ee.quarantined",
        ];
        let foreign = ["README", ".hidden", "notes.tmp.1.2"];
        for file in debris.iter().chain(&foreign) {
            std::fs::write(cache.root().join(file), b"x").unwrap();
        }
        cache.wipe().unwrap();
        assert!(!live.exists(), "the live entry is wiped");
        for file in debris {
            assert!(
                !cache.root().join(file).exists(),
                "{file} survived the wipe"
            );
        }
        for file in foreign {
            assert!(
                cache.root().join(file).exists(),
                "{file} is not the cache's"
            );
        }

        std::fs::remove_dir_all(cache.root()).ok();
    }
}
