//! Persistent on-disk characterization cache.
//!
//! Characterizing one driver cell costs tens of transient simulations, and
//! every process used to pay that cost from scratch: [`crate::Library`] was
//! in-memory only. This module persists characterized cells in a cache
//! directory so warm processes skip the simulations entirely.
//!
//! [`CharCache`] is a typed view over [`rlc_numeric::codec::BlobStore`],
//! which owns the entry envelope (magic `RLCCHAR\0`, [`FORMAT_VERSION`],
//! echoed key, length-prefixed payload, FNV-1a checksum), verify-on-load
//! and the atomic temp-file-then-rename write. This module owns the rest:
//!
//! * **Content-addressed keys.** A cell's cache key is the FNV-1a hash of
//!   the *complete* characterization request: the format version, every
//!   field of the inverter description (widths, supply, both transistor
//!   models) and every knob of the [`CharacterizationGrid`] (both axes, the
//!   transient time step — the accuracy tolerance of the characterization —
//!   and the output transition). Changing any of them changes the key, so a
//!   stale entry can never be returned for a new request; invalidation is
//!   automatic and needs no manifest.
//! * **The payload** ([`CharCache::payload`]): the inverter description and
//!   the exact IEEE-754 bit patterns of the timing table and on-resistance,
//!   in the [`rlc_numeric::codec`] encoding. A load checks the stored
//!   description against the request and the table axes before building
//!   the cell; any mismatch, like any envelope damage, makes the load
//!   return `None` and the caller silently re-characterizes.
//!
//! Because the payload stores raw `f64` bit patterns, a warm load returns
//! tables **bit-identical** to the cold characterization that produced them.

use std::path::{Path, PathBuf};

use rlc_numeric::codec::{fnv1a, BlobStore, Decoder, Encoder};
use rlc_spice::mosfet::{MosfetParams, MosfetType};
use rlc_spice::testbench::{InverterSpec, OutputTransition};

use crate::cell::DriverCell;
use crate::characterize::CharacterizationGrid;
use crate::table::TimingTable;
use crate::CharlibError;

/// Magic bytes identifying a characterization cache entry.
const MAGIC: &[u8; 8] = b"RLCCHAR\0";

/// On-disk format version. Bump on any layout change: the version is hashed
/// into the content key *and* checked in the header, so old files are
/// silently ignored (and eventually overwritten) rather than misparsed.
pub const FORMAT_VERSION: u32 = 1;

/// A directory of persisted characterization results.
///
/// Opened by [`crate::Library::open_cached`]; usable directly when a flow
/// manages its own lookups.
#[derive(Debug, Clone)]
pub struct CharCache {
    store: BlobStore,
}

impl CharCache {
    /// Opens (creating if necessary) a cache directory.
    ///
    /// # Errors
    /// Returns [`CharlibError::Cache`] when the directory cannot be created.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, CharlibError> {
        let dir = dir.as_ref();
        let store = BlobStore::open(dir, MAGIC, FORMAT_VERSION, "cell").map_err(|e| {
            CharlibError::Cache(format!(
                "cannot create cache directory {}: {e}",
                dir.display()
            ))
        })?;
        Ok(CharCache { store })
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        self.store.dir()
    }

    /// The content key of a characterization request: format version, full
    /// inverter description, and full grid (axes, time step, transition).
    ///
    /// The key is the FNV-1a hash of the *serialized* request — the same
    /// `encode_spec` used for the payload — so the keyed field list and the
    /// stored field list cannot silently diverge when fields are added.
    pub fn key(spec: &InverterSpec, grid: &CharacterizationGrid) -> u64 {
        let mut e = Encoder::new();
        e.u32(FORMAT_VERSION);
        encode_spec(&mut e, spec);
        e.f64s(&grid.slew_axis);
        e.f64s(&grid.load_axis);
        e.f64(grid.time_step);
        e.u8(match grid.transition {
            OutputTransition::Rising => 0,
            OutputTransition::Falling => 1,
        });
        fnv1a(&e.finish())
    }

    /// The one byte encoding of a characterized cell: its inverter
    /// description, timing table and on-resistance. It is the payload of the
    /// cell's cache entry, and its FNV-1a hash is the cell's fingerprint in
    /// stage-result cache keys.
    pub fn payload(cell: &DriverCell) -> Vec<u8> {
        let mut e = Encoder::new();
        encode_spec(&mut e, cell.spec());
        let table = cell.table();
        e.f64s(table.slew_axis());
        e.f64s(table.load_axis());
        for row in table.delay_rows().iter().chain(table.transition_rows()) {
            e.f64s(row);
        }
        e.f64(cell.on_resistance());
        e.finish()
    }

    /// Path of the entry for a key.
    pub fn entry_path(&self, key: u64) -> PathBuf {
        self.store.entry_path(key)
    }

    /// Loads the cell persisted for this characterization request, or `None`
    /// when there is no entry or the entry fails any validation (missing,
    /// truncated, stale format version, foreign key, corrupt payload). A
    /// `None` simply means "characterize and store again" — the cache never
    /// turns disk problems into analysis failures.
    pub fn load(&self, spec: &InverterSpec, grid: &CharacterizationGrid) -> Option<DriverCell> {
        self.store
            .load(Self::key(spec, grid), |payload| decode_cell(payload, spec))
    }

    /// Persists a characterized cell under the key of the request that
    /// produced it, atomically (write to a unique temporary file in the cache
    /// directory, then rename into place).
    ///
    /// # Errors
    /// Returns [`CharlibError::Cache`] on I/O failures. Callers that treat
    /// the cache as an optimization (the [`crate::Library`]) ignore the
    /// error; the characterized cell is still returned to the analysis.
    pub fn store(
        &self,
        cell: &DriverCell,
        grid: &CharacterizationGrid,
    ) -> Result<(), CharlibError> {
        let key = Self::key(cell.spec(), grid);
        self.store.store(key, &Self::payload(cell)).map_err(|e| {
            CharlibError::Cache(format!(
                "cannot persist cache entry {}: {e}",
                self.entry_path(key).display()
            ))
        })
    }
}

/// Serializes the full inverter description — the single authoritative field
/// list shared by the content key and the payload.
fn encode_spec(e: &mut Encoder, spec: &InverterSpec) {
    e.f64(spec.nmos_width);
    e.f64(spec.pmos_width);
    e.f64(spec.vdd);
    encode_params(e, &spec.nmos);
    encode_params(e, &spec.pmos);
}

fn encode_params(e: &mut Encoder, params: &MosfetParams) {
    e.u8(match params.mos_type {
        MosfetType::Nmos => 0,
        MosfetType::Pmos => 1,
    });
    for v in [
        params.vth,
        params.alpha,
        params.k_sat,
        params.k_v,
        params.lambda,
        params.c_gate_per_width,
        params.c_junction_per_width,
    ] {
        e.f64(v);
    }
}

fn decode_params(d: &mut Decoder) -> Option<MosfetParams> {
    let mos_type = match d.u8()? {
        0 => MosfetType::Nmos,
        1 => MosfetType::Pmos,
        _ => return None,
    };
    Some(MosfetParams {
        mos_type,
        vth: d.f64()?,
        alpha: d.f64()?,
        k_sat: d.f64()?,
        k_v: d.f64()?,
        lambda: d.f64()?,
        c_gate_per_width: d.f64()?,
        c_junction_per_width: d.f64()?,
    })
}

/// Parses and validates a [`CharCache::payload`]; `None` on any
/// inconsistency.
fn decode_cell(payload: &[u8], expected_spec: &InverterSpec) -> Option<DriverCell> {
    let mut d = Decoder::new(payload);
    let nmos_width = d.f64()?;
    let pmos_width = d.f64()?;
    let vdd = d.f64()?;
    let nmos = decode_params(&mut d)?;
    let pmos = decode_params(&mut d)?;
    let spec = InverterSpec {
        nmos_width,
        pmos_width,
        nmos,
        pmos,
        vdd,
    };
    // The 64-bit key is not collision-proof; the stored description must
    // also match the request field-for-field, so a colliding entry can never
    // hand back another cell's tables.
    if spec != *expected_spec {
        return None;
    }
    let slew_axis = d.f64s()?;
    let load_axis = d.f64s()?;
    if slew_axis.len() < 2 || load_axis.len() < 2 {
        return None;
    }
    let read_grid = |d: &mut Decoder| -> Option<Vec<Vec<f64>>> {
        (0..slew_axis.len())
            .map(|_| {
                let row = d.f64s()?;
                (row.len() == load_axis.len()).then_some(row)
            })
            .collect()
    };
    let delay = read_grid(&mut d)?;
    let transition_grid = read_grid(&mut d)?;
    let on_resistance = d.f64()?;
    if !d.done() {
        return None;
    }
    // TimingTable::new asserts on malformed axes; a corrupt-but-checksummed
    // entry must still degrade to a silent miss, never a panic. The
    // partial_cmp form also rejects NaN bit patterns.
    for axis in [&slew_axis, &load_axis] {
        let strictly_increasing = axis
            .windows(2)
            .all(|w| matches!(w[0].partial_cmp(&w[1]), Some(std::cmp::Ordering::Less)));
        if !strictly_increasing {
            return None;
        }
    }
    let table = TimingTable::new(slew_axis, load_axis, delay, transition_grid);
    // `from_parts` re-derives the resistance-extraction load from the table's
    // largest load, exactly as `characterize_spec` did when the entry was
    // written, so the reconstructed cell compares equal to the original.
    Some(DriverCell::from_parts(spec, table, on_resistance))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlc_numeric::units::{ff, pf, ps};
    use std::fs;

    fn dummy_cell(size: f64) -> DriverCell {
        let slews = vec![ps(50.0), ps(100.0)];
        let loads = vec![ff(100.0), pf(1.0)];
        let grid = vec![vec![ps(10.0), ps(50.0)], vec![ps(12.0), ps(55.0)]];
        DriverCell::from_parts(
            InverterSpec::sized_018(size),
            TimingTable::new(slews, loads, grid.clone(), grid),
            33.0,
        )
    }

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rlc-charcache-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn round_trip_is_bit_identical() {
        let dir = tmp_dir("roundtrip");
        let cache = CharCache::open(&dir).unwrap();
        let grid = CharacterizationGrid::coarse_for_tests();
        let cell = dummy_cell(75.0);
        assert!(cache.load(cell.spec(), &grid).is_none());
        cache.store(&cell, &grid).unwrap();
        let loaded = cache.load(cell.spec(), &grid).expect("entry must load");
        assert_eq!(loaded, cell);
        // Bit-level identity of every table entry.
        for (a, b) in cell
            .table()
            .slew_axis()
            .iter()
            .zip(loaded.table().slew_axis())
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn key_covers_cell_grid_and_tolerance() {
        let grid = CharacterizationGrid::coarse_for_tests();
        let spec = InverterSpec::sized_018(75.0);
        let base = CharCache::key(&spec, &grid);
        // Different cell.
        assert_ne!(base, CharCache::key(&InverterSpec::sized_018(50.0), &grid));
        // Different supply on the same geometry.
        let mut lv = spec;
        lv.vdd = 1.2;
        assert_ne!(base, CharCache::key(&lv, &grid));
        // Different grid axes.
        let mut g = grid.clone();
        g.load_axis.push(pf(5.0));
        assert_ne!(base, CharCache::key(&spec, &g));
        // Different tolerance (transient time step).
        let mut g = grid.clone();
        g.time_step *= 0.5;
        assert_ne!(base, CharCache::key(&spec, &g));
        // Different transition direction.
        let mut g = grid.clone();
        g.transition = OutputTransition::Falling;
        assert_ne!(base, CharCache::key(&spec, &g));
        // Same request, same key.
        assert_eq!(
            base,
            CharCache::key(&spec, &CharacterizationGrid::coarse_for_tests())
        );
    }

    #[test]
    fn corrupt_entries_degrade_to_misses() {
        let dir = tmp_dir("corrupt");
        let cache = CharCache::open(&dir).unwrap();
        let grid = CharacterizationGrid::coarse_for_tests();
        let cell = dummy_cell(60.0);
        cache.store(&cell, &grid).unwrap();
        let path = cache.entry_path(CharCache::key(cell.spec(), &grid));
        let good = fs::read(&path).unwrap();

        // Truncated anywhere: miss.
        for cut in [0, 4, MAGIC.len() + 3, good.len() / 2, good.len() - 1] {
            fs::write(&path, &good[..cut]).unwrap();
            assert!(cache.load(cell.spec(), &grid).is_none(), "cut at {cut}");
        }
        // Stale format version: miss.
        let mut stale = good.clone();
        stale[MAGIC.len()] = FORMAT_VERSION as u8 + 1;
        fs::write(&path, &stale).unwrap();
        assert!(cache.load(cell.spec(), &grid).is_none());
        // Payload bit flip: checksum catches it.
        let mut flipped = good.clone();
        let payload_byte = MAGIC.len() + 4 + 8 + 8 + 10;
        flipped[payload_byte] ^= 0x40;
        fs::write(&path, &flipped).unwrap();
        assert!(cache.load(cell.spec(), &grid).is_none());
        // Trailing garbage: miss.
        let mut long = good.clone();
        long.push(0);
        fs::write(&path, &long).unwrap();
        assert!(cache.load(cell.spec(), &grid).is_none());
        // The intact bytes still load.
        fs::write(&path, &good).unwrap();
        assert_eq!(cache.load(cell.spec(), &grid).unwrap(), cell);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn entry_under_a_foreign_key_is_rejected() {
        let dir = tmp_dir("foreign");
        let cache = CharCache::open(&dir).unwrap();
        let grid = CharacterizationGrid::coarse_for_tests();
        let cell = dummy_cell(60.0);
        cache.store(&cell, &grid).unwrap();
        // Pretend the 60X entry were the 75X one: the echoed key inside the
        // file no longer matches the derived key, so the load must miss
        // rather than hand back the wrong cell.
        let other = InverterSpec::sized_018(75.0);
        fs::rename(
            cache.entry_path(CharCache::key(cell.spec(), &grid)),
            cache.entry_path(CharCache::key(&other, &grid)),
        )
        .unwrap();
        assert!(cache.load(&other, &grid).is_none());
        assert!(cache.load(cell.spec(), &grid).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn key_collision_cannot_return_another_cells_tables() {
        // Simulate a 64-bit key collision: re-stamp a 60X entry's echoed key
        // (and file name) with the 75X key, leaving the payload intact. The
        // echoed-key check then passes, so only the stored-spec comparison
        // stands between the request and the wrong cell's tables.
        let dir = tmp_dir("collision");
        let cache = CharCache::open(&dir).unwrap();
        let grid = CharacterizationGrid::coarse_for_tests();
        let cell = dummy_cell(60.0);
        cache.store(&cell, &grid).unwrap();

        let other = InverterSpec::sized_018(75.0);
        let other_key = CharCache::key(&other, &grid);
        let mut bytes = fs::read(cache.entry_path(CharCache::key(cell.spec(), &grid))).unwrap();
        bytes[MAGIC.len() + 4..MAGIC.len() + 12].copy_from_slice(&other_key.to_le_bytes());
        fs::write(cache.entry_path(other_key), &bytes).unwrap();
        assert!(cache.load(&other, &grid).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_rejects_an_unusable_directory() {
        // A path through an existing *file* cannot become a directory.
        let blocker =
            std::env::temp_dir().join(format!("rlc-charcache-blocker-{}", std::process::id()));
        fs::write(&blocker, b"x").unwrap();
        let err = CharCache::open(blocker.join("sub")).unwrap_err();
        assert!(matches!(err, CharlibError::Cache(_)));
        assert!(err.to_string().contains("cache"));
        let _ = fs::remove_file(&blocker);
    }
}
