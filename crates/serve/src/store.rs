//! The checksummed binary model store.
//!
//! A served library must load fast and fail *loud*: a torn or bit-rotted
//! entry has to be detected before a single query is answered from it.
//! Each entry is one `<name>.pxm` file in the workspace's one model
//! container (`PXMSTOR2`, defined in [`proxim_model::persist`]): sections
//! that each carry their own length and FNV-1a checksum envelope.
//!
//! An entry has two sections:
//!
//! - *meta* (id 1), fixed little-endian binary fields that can be read
//!   without decoding the model:
//!
//!   ```text
//!   u32  store format (2)
//!   u32  cell input count
//!   u32  name length, then the name bytes
//!   ```
//!
//! - *model* (id 2), the model's serde tree in the `serde_json::binary`
//!   rendering, decoded by [`ProximityModel::from_section`] (nesting cap,
//!   non-finite rejection, counts bounded by the bytes present, no
//!   trailing bytes, then the structural `validate()`).
//!
//! A cold load is therefore read → checksum → binary decode → validate,
//! with no text parsing anywhere; the checksummed framing detects torn and
//! corrupt files before the payload decoder ever runs. Entries written by
//! older builds (`PXMSTOR1`, whose model section was JSON) fail with a
//! typed [`StoreError::Unsupported`] naming their format and are
//! quarantined like any other bad entry. `proxim_serve export` prints an
//! entry's canonical JSON when the bytes need reading by a person.
//!
//! Writes go through the crash-consistent
//! [`atomic_write`](proxim_model::persist::atomic_write) path (same-dir
//! temp file + fsync + rename), so a crash — including `SIGKILL` mid-write,
//! which `tests/chaos.rs` fires for real — leaves either the complete old
//! entry or the complete new entry, never a prefix. Entries that fail any
//! check at load are quarantined aside under the model-cache convention:
//! renamed to `<file>.<content-hash>.quarantined` so the evidence survives
//! (and repeated corruption events cannot overwrite each other), counted,
//! and the rest of the library keeps serving.

use crate::diskfault::{self, DiskError, DiskFaultKind};
use proxim_model::persist::{
    atomic_write_target, decode_container, encode_container, fnv1a_64, section, ContainerError,
    CONTAINER_EXT, SECTION_META, SECTION_MODEL,
};
use proxim_model::{ModelError, ProximityModel};
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

pub use proxim_model::persist::CONTAINER_MAGIC as STORE_MAGIC;

/// Store format version, recorded in the meta section.
const STORE_FORMAT: u32 = 2;

/// File extension of a live store entry.
pub const ENTRY_EXT: &str = CONTAINER_EXT;

/// What went wrong while reading or writing a store entry.
///
/// Every variant is a *typed* outcome: corrupt bytes become an error the
/// caller can quarantine on, never a panic.
#[derive(Debug, Clone, PartialEq)]
pub enum StoreError {
    /// Filesystem failure.
    Io {
        /// The rendered I/O error.
        detail: String,
    },
    /// The device is out of space (`ENOSPC`): a *typed* write failure the
    /// daemon degrades on — reads and already-loaded models keep serving.
    DiskFull {
        /// The rendered I/O error.
        detail: String,
    },
    /// The model name is not storable (empty, too long, or containing
    /// characters outside `[A-Za-z0-9_-]`).
    BadName {
        /// The offending name.
        name: String,
    },
    /// The file does not start with [`STORE_MAGIC`].
    BadMagic,
    /// The file is a model container of another generation (a `PXMSTOR1`
    /// entry from an older build): there is no reader for it.
    Unsupported {
        /// The container magic found, e.g. `PXMSTOR1`.
        format: String,
    },
    /// The file ended before the advertised structure did — the signature
    /// of a torn write (which the atomic path prevents) or truncation at
    /// rest.
    Truncated {
        /// What was being read when the bytes ran out.
        detail: String,
    },
    /// A section's payload does not match its checksum envelope.
    Checksum {
        /// The section id whose envelope failed.
        section: u32,
    },
    /// The container structure is inconsistent (unknown section layout,
    /// oversized advertisement, duplicate or missing sections, meta that
    /// does not decode or disagrees with the model).
    Malformed {
        /// What was inconsistent.
        detail: String,
    },
    /// The model section failed the model codec's own gates (binary
    /// decode limits, non-finite entries, structural validation).
    Model(ModelError),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io { detail } => write!(f, "store I/O error: {detail}"),
            Self::DiskFull { detail } => write!(f, "store disk full: {detail}"),
            Self::BadName { name } => write!(
                f,
                "unstorable model name {name:?} (want 1-64 chars of [A-Za-z0-9_-])"
            ),
            Self::BadMagic => write!(f, "not a proxim model store entry (bad magic)"),
            Self::Unsupported { format } => write!(
                f,
                "store entry is in unsupported format {format} (this build reads {})",
                String::from_utf8_lossy(STORE_MAGIC)
            ),
            Self::Truncated { detail } => write!(f, "store entry truncated: {detail}"),
            Self::Checksum { section } => {
                write!(f, "store entry section {section} failed its checksum")
            }
            Self::Malformed { detail } => write!(f, "store entry malformed: {detail}"),
            Self::Model(e) => write!(f, "store entry model rejected: {e}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Model(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ModelError> for StoreError {
    fn from(e: ModelError) -> Self {
        Self::Model(e)
    }
}

impl From<ContainerError> for StoreError {
    fn from(e: ContainerError) -> Self {
        match e {
            ContainerError::BadMagic => Self::BadMagic,
            ContainerError::Unsupported { format } => Self::Unsupported { format },
            ContainerError::Truncated { detail } => Self::Truncated { detail },
            ContainerError::Checksum { section } => Self::Checksum { section },
            ContainerError::Malformed { detail } => Self::Malformed { detail },
        }
    }
}

impl From<DiskError> for StoreError {
    fn from(e: DiskError) -> Self {
        match e.kind {
            DiskFaultKind::NoSpace => Self::DiskFull { detail: e.detail },
            DiskFaultKind::Io => Self::Io { detail: e.detail },
        }
    }
}

fn io_err(e: impl fmt::Display) -> StoreError {
    StoreError::Io {
        detail: e.to_string(),
    }
}

/// Whether `name` may name a store entry: 1–64 characters, each
/// alphanumeric, `_`, or `-`. Names arrive from the untrusted wire (query
/// routing) and from operator CLIs (imports), so the same bound guards
/// both paths — and keeps every entry a plain single-component filename.
pub fn valid_name(name: &str) -> bool {
    (1..=64).contains(&name.len())
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-')
}

/// The meta section: store format, cell input count, and the name.
fn encode_meta(name: &str, inputs: usize) -> Vec<u8> {
    let mut meta = Vec::with_capacity(12 + name.len());
    meta.extend_from_slice(&STORE_FORMAT.to_le_bytes());
    meta.extend_from_slice(&(inputs as u32).to_le_bytes());
    meta.extend_from_slice(&(name.len() as u32).to_le_bytes());
    meta.extend_from_slice(name.as_bytes());
    meta
}

/// Decodes the meta section into `(name, input count)`.
fn decode_meta(meta: &[u8]) -> Result<(&str, usize), StoreError> {
    let malformed = |detail: String| StoreError::Malformed { detail };
    let field = |i: usize| {
        meta.get(4 * i..4 * i + 4).map(|b| {
            let mut w = [0u8; 4];
            w.copy_from_slice(b);
            u32::from_le_bytes(w)
        })
    };
    let (Some(format), Some(inputs), Some(name_len)) = (field(0), field(1), field(2)) else {
        return Err(malformed(format!("meta section is {} bytes", meta.len())));
    };
    if format != STORE_FORMAT {
        return Err(malformed(format!(
            "meta records store format {format}, expected {STORE_FORMAT}"
        )));
    }
    if meta.len() - 12 != name_len as usize {
        return Err(malformed(format!(
            "meta name length {name_len} does not match its {} bytes",
            meta.len() - 12
        )));
    }
    let name =
        std::str::from_utf8(&meta[12..]).map_err(|_| malformed("meta name is not UTF-8".into()))?;
    Ok((name, inputs as usize))
}

/// Serializes one `(name, model)` pair into a store entry: a model
/// container with a meta and a model section.
///
/// # Errors
///
/// Returns [`StoreError::BadName`] for unstorable names and
/// [`StoreError::Model`] if the model cannot serialize.
pub fn encode_entry(name: &str, model: &ProximityModel) -> Result<Vec<u8>, StoreError> {
    if !valid_name(name) {
        return Err(StoreError::BadName { name: name.into() });
    }
    let meta = encode_meta(name, model.cell().input_count());
    Ok(encode_container(&[
        (SECTION_META, &meta),
        (SECTION_MODEL, &model.to_section()?),
    ]))
}

/// Decodes a store entry produced by [`encode_entry`], verifying every
/// section envelope, the meta fields, and the model section.
///
/// # Errors
///
/// A typed [`StoreError`] for every way the bytes can be wrong; callers
/// quarantine on any of them.
pub fn decode_entry(bytes: &[u8]) -> Result<(String, ProximityModel), StoreError> {
    let sections = decode_container(bytes)?;
    let (name, inputs) = decode_meta(section(&sections, SECTION_META)?)?;
    if !valid_name(name) {
        return Err(StoreError::BadName { name: name.into() });
    }
    let model = ProximityModel::from_section(section(&sections, SECTION_MODEL)?)?;
    if model.cell().input_count() != inputs {
        return Err(StoreError::Malformed {
            detail: format!(
                "meta records {inputs} inputs, the model's cell has {}",
                model.cell().input_count()
            ),
        });
    }
    Ok((name.to_owned(), model))
}

/// A quarantine that could not complete: the rename failed, so the corrupt
/// entry is still at its original path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantineFailure {
    /// The corrupt entry, still in place.
    pub entry: PathBuf,
    /// Where the evidence was supposed to go.
    pub intended: PathBuf,
    /// The typed rename failure.
    pub error: DiskError,
}

impl fmt::Display for QuarantineFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "quarantine of {} failed ({}); corrupt entry left in place",
            self.entry.display(),
            self.error
        )
    }
}

/// A directory of checksummed binary model entries.
#[derive(Debug, Clone)]
pub struct ModelStore {
    root: PathBuf,
}

impl ModelStore {
    /// Opens (and lazily creates on first save) a store rooted at `root`.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        Self { root: root.into() }
    }

    /// The store directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The on-disk path of the entry `name`.
    pub fn entry_path(&self, name: &str) -> PathBuf {
        self.root.join(format!("{name}.{ENTRY_EXT}"))
    }

    /// The path a corrupt entry file is quarantined at: the file name plus
    /// the FNV-1a hash of the corrupt bytes and a `.quarantined` suffix —
    /// the model-cache convention, collision-proofed by content.
    pub fn quarantined_path(&self, entry: &Path, content_hash: u64) -> PathBuf {
        let file = entry
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        self.root
            .join(format!("{file}.{content_hash:016x}.quarantined"))
    }

    /// Writes (or replaces) the entry `name` atomically: the container is
    /// staged in a same-directory temp file, fsync'd, and renamed into
    /// place, so a crash at any instant — `SIGKILL` included — leaves the
    /// old complete entry or the new complete entry, never a torn one.
    ///
    /// # Errors
    ///
    /// [`StoreError::BadName`] for unstorable names, [`StoreError::Model`]
    /// on serialization failure, and a typed [`StoreError::DiskFull`] /
    /// [`StoreError::Io`] on write failure (every store write goes through
    /// the [`diskfault`]-guarded atomic path).
    pub fn save(&self, name: &str, model: &ProximityModel) -> Result<(), StoreError> {
        let bytes = encode_entry(name, model)?;
        fs::create_dir_all(&self.root).map_err(io_err)?;
        diskfault::checked_write(&self.entry_path(name), &bytes).map_err(StoreError::from)
    }

    /// Loads and fully validates the entry `name`.
    ///
    /// # Errors
    ///
    /// A typed [`StoreError`] on missing, torn, corrupt, or invalid
    /// entries. Loading never quarantines; that policy belongs to
    /// [`crate::library::ModelLibrary`], which owns the degraded-start
    /// decision.
    pub fn load(&self, name: &str) -> Result<ProximityModel, StoreError> {
        if !valid_name(name) {
            return Err(StoreError::BadName { name: name.into() });
        }
        let bytes = fs::read(self.entry_path(name)).map_err(io_err)?;
        let (stored_name, model) = decode_entry(&bytes)?;
        if stored_name != name {
            return Err(StoreError::Malformed {
                detail: format!("entry {name:?} carries meta name {stored_name:?}"),
            });
        }
        Ok(model)
    }

    /// Quarantines the entry file at `path` aside and returns where the
    /// evidence went.
    ///
    /// # Errors
    ///
    /// A [`QuarantineFailure`] when the rename itself failed (read-only or
    /// full disk): the corrupt entry is still *in place*, and reporting
    /// the intended destination as evidence would be a lie — callers must
    /// surface the rename error distinctly and count it under
    /// `serve.store.quarantine_failed`.
    pub fn quarantine(&self, path: &Path) -> Result<PathBuf, QuarantineFailure> {
        let content_hash = fnv1a_64(&fs::read(path).unwrap_or_default());
        let to = self.quarantined_path(path, content_hash);
        match diskfault::checked_rename(path, &to) {
            Ok(()) => Ok(to),
            Err(error) => Err(QuarantineFailure {
                entry: path.to_path_buf(),
                intended: to,
                error,
            }),
        }
    }

    /// Every live entry name in the store, sorted. Quarantined files,
    /// stale atomic-write temp files, and foreign files are skipped.
    pub fn list(&self) -> Vec<String> {
        let mut names = Vec::new();
        if let Ok(entries) = fs::read_dir(&self.root) {
            for entry in entries.flatten() {
                if let Some(name) = entry_name(&entry.path()) {
                    names.push(name);
                }
            }
        }
        names.sort_unstable();
        names
    }

    /// Removes stale atomic-write temp files (crash debris from a killed
    /// writer) and returns how many were reclaimed. Live entries and
    /// quarantined evidence are never touched.
    pub fn reclaim_temp_files(&self) -> usize {
        let Ok(entries) = fs::read_dir(&self.root) else {
            return 0;
        };
        let mut reclaimed = 0;
        for entry in entries.flatten() {
            let path = entry.path();
            let Some(file) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            if atomic_write_target(file).is_some_and(|t| t.ends_with(&format!(".{ENTRY_EXT}")))
                && fs::remove_file(&path).is_ok()
            {
                reclaimed += 1;
            }
        }
        reclaimed
    }
}

/// The entry name of a live store file (`<name>.pxm` with a storable
/// name), or `None` for anything else.
pub(crate) fn entry_name(path: &Path) -> Option<String> {
    let file = path.file_name()?.to_str()?;
    if file.starts_with('.') {
        return None;
    }
    let name = file.strip_suffix(&format!(".{ENTRY_EXT}"))?;
    valid_name(name).then(|| name.to_owned())
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
pub(crate) mod tests {
    use super::*;
    use proxim_cells::{Cell, Technology};
    use proxim_model::characterize::CharacterizeOptions;
    use std::sync::OnceLock;

    /// One shared fast model; characterization is the expensive part of
    /// these tests, so it runs once.
    pub(crate) fn shared_model() -> &'static ProximityModel {
        static MODEL: OnceLock<ProximityModel> = OnceLock::new();
        MODEL.get_or_init(|| {
            let tech = Technology::demo_5v();
            let cell = Cell::inv();
            ProximityModel::characterize(&cell, &tech, &CharacterizeOptions::fast())
                .expect("test model characterizes")
        })
    }

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("proxim_store_{}_{name}", std::process::id()));
        fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn round_trips_byte_identically() {
        let store = ModelStore::new(scratch("roundtrip"));
        let model = shared_model();
        store.save("inv_fast", model).unwrap();
        let back = store.load("inv_fast").unwrap();
        assert_eq!(model.to_json().unwrap(), back.to_json().unwrap());
        // Saving the same model again produces the same bytes — the
        // property the SIGKILL chaos test relies on.
        let bytes1 = fs::read(store.entry_path("inv_fast")).unwrap();
        store.save("inv_fast", model).unwrap();
        let bytes2 = fs::read(store.entry_path("inv_fast")).unwrap();
        assert_eq!(bytes1, bytes2);
        assert_eq!(store.list(), vec!["inv_fast".to_string()]);
        fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn rejects_unstorable_names() {
        let store = ModelStore::new(scratch("badname"));
        for bad in ["", "a/b", "../etc", "name with spaces", &"x".repeat(65)] {
            assert!(
                matches!(
                    store.save(bad, shared_model()),
                    Err(StoreError::BadName { .. })
                ),
                "{bad:?} must be rejected"
            );
            assert!(matches!(store.load(bad), Err(StoreError::BadName { .. })));
        }
        fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn every_corruption_is_a_typed_error() {
        let store = ModelStore::new(scratch("corrupt"));
        let model = shared_model();
        store.save("m", model).unwrap();
        let good = fs::read(store.entry_path("m")).unwrap();

        // Bad magic.
        let mut bad = good.clone();
        bad[0] ^= 0xff;
        assert_eq!(decode_entry(&bad).unwrap_err(), StoreError::BadMagic);

        // Truncations at every structural boundary.
        for cut in [4, STORE_MAGIC.len() + 2, good.len() / 2, good.len() - 1] {
            let e = decode_entry(&good[..cut]).unwrap_err();
            assert!(
                matches!(
                    e,
                    StoreError::Truncated { .. }
                        | StoreError::BadMagic
                        | StoreError::Checksum { .. }
                ),
                "cut at {cut}: {e}"
            );
        }

        // A flipped payload byte fails its section checksum.
        let mut bad = good.clone();
        let n = bad.len();
        bad[n - 10] ^= 0x01;
        assert!(matches!(
            decode_entry(&bad).unwrap_err(),
            StoreError::Checksum { .. }
        ));

        // Trailing garbage is malformed, not ignored.
        let mut bad = good.clone();
        bad.extend_from_slice(b"junk");
        assert!(matches!(
            decode_entry(&bad).unwrap_err(),
            StoreError::Malformed { .. }
        ));

        // A hostile section count is refused before any allocation.
        let mut bad = good[..12].to_vec();
        bad[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_entry(&bad).unwrap_err(),
            StoreError::Malformed { .. }
        ));

        // Truncation at every byte offset, not just the boundaries.
        for cut in 0..good.len() {
            assert!(decode_entry(&good[..cut]).is_err(), "cut at {cut}");
        }

        // Hostile model sections behind valid checksums, so the binary
        // decoder itself is what refuses them.
        let resealed = |model_section: &[u8]| {
            encode_container(&[
                (SECTION_META, &encode_meta("m", 1)),
                (SECTION_MODEL, model_section),
            ])
        };
        let section_of = |tag: u8, count: u32, rest: &[u8]| {
            let mut b = vec![tag];
            b.extend_from_slice(&count.to_le_bytes());
            b.extend_from_slice(rest);
            b
        };
        let floats = |xs: &[f64]| xs.iter().flat_map(|x| x.to_le_bytes()).collect::<Vec<u8>>();
        let mut bomb = Vec::new();
        for _ in 0..100_000 {
            bomb.extend_from_slice(&section_of(7, 1, &[]));
        }
        bomb.push(0);
        let model_section = shared_model().to_section().unwrap();
        let mut trailing = model_section.clone();
        trailing.push(0);
        let hostile: Vec<(&str, Vec<u8>)> = vec![
            ("u32::MAX array count", section_of(7, u32::MAX, &[0; 64])),
            ("u32::MAX run length", section_of(9, u32::MAX, &[0; 64])),
            (
                "NaN in a run",
                section_of(9, 3, &floats(&[1.0, f64::NAN, 2.0])),
            ),
            (
                "+Inf in a run",
                section_of(9, 2, &floats(&[f64::INFINITY, 2.0])),
            ),
            (
                "-Inf in a run",
                section_of(9, 2, &floats(&[1.0, f64::NEG_INFINITY])),
            ),
            ("100 000-deep nesting", bomb),
            ("trailing bytes", trailing),
        ];
        assert!(decode_entry(&resealed(&model_section)).is_ok());
        for (what, model_section) in hostile {
            let e = decode_entry(&resealed(&model_section)).unwrap_err();
            assert!(
                matches!(e, StoreError::Model(ModelError::Persist { .. })),
                "{what}: {e}"
            );
        }

        // A previous-generation entry is refused by name, not as garbage.
        let mut old = good.clone();
        old[..8].copy_from_slice(b"PXMSTOR1");
        let e = decode_entry(&old).unwrap_err();
        assert_eq!(
            e,
            StoreError::Unsupported {
                format: "PXMSTOR1".into()
            }
        );
        assert!(e.to_string().contains("PXMSTOR1"), "{e}");

        fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn quarantine_preserves_distinct_evidence() {
        let store = ModelStore::new(scratch("quarantine"));
        fs::create_dir_all(store.root()).unwrap();
        let path = store.entry_path("bad");
        for corrupt in [b"garbage one".as_slice(), b"garbage two".as_slice()] {
            fs::write(&path, corrupt).unwrap();
            let to = store.quarantine(&path).unwrap();
            assert_eq!(fs::read(&to).unwrap(), corrupt);
        }
        assert!(store.list().is_empty(), "quarantined files are not entries");
        fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn reclaims_only_stale_temp_files() {
        let store = ModelStore::new(scratch("reclaim"));
        store.save("live", shared_model()).unwrap();
        let tmp = store.root().join(format!(".live.{ENTRY_EXT}.tmp.123.0"));
        fs::write(&tmp, b"half a write").unwrap();
        assert_eq!(store.reclaim_temp_files(), 1);
        assert!(!tmp.exists());
        assert!(store.load("live").is_ok());
        fs::remove_dir_all(store.root()).ok();
    }
}
