//! Pins the persisted byte formats of both disk caches: content keys and
//! whole entries, each entry as its length plus its FNV-1a hash. The
//! constants were captured from builds that wrote entries in the same
//! format, so a failure here means caches on disk would stop loading —
//! bump the store's `FORMAT_VERSION` instead of editing the constants.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use rlc_ceff_suite::ceff::SingleRampModel;
use rlc_ceff_suite::charlib::cache::CharCache;
use rlc_ceff_suite::charlib::CharacterizationGrid;
use rlc_ceff_suite::fixtures::synthetic_cell_75x;
use rlc_ceff_suite::numeric::codec::fnv1a;
use rlc_ceff_suite::numeric::units::{ff, ps};
use rlc_ceff_suite::{
    driver_fingerprint, stage_key, Diagnostic, DistributedRlcLoad, EngineConfig, InputFingerprint,
    SessionOptions, Severity, Stage, StageReport, StageResultCache,
};

mod common;
use common::paper_line;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rlc-pins-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// A blob as `(length, FNV-1a)`.
fn blob(bytes: &[u8]) -> (usize, u64) {
    (bytes.len(), fnv1a(bytes))
}

#[test]
fn characterization_cache_key_and_entry_are_pinned() {
    let cell = synthetic_cell_75x();
    let grid = CharacterizationGrid::coarse_for_tests();
    let key = CharCache::key(cell.spec(), &grid);
    assert_eq!(key, 0xae80_33b8_000c_2a7f);

    let dir = tmp_dir("char");
    let cache = CharCache::open(&dir).unwrap();
    cache.store(&cell, &grid).unwrap();
    let entry = fs::read(cache.entry_path(key)).unwrap();
    assert_eq!(blob(&entry), (550, 0x587d_d575_ed78_17c7));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn stage_cache_keys_and_entry_are_pinned() {
    let cell = synthetic_cell_75x();
    assert_eq!(driver_fingerprint(&cell), 0x4691_657d_2982_7f5b);

    let stage = Stage::builder(
        cell,
        DistributedRlcLoad::new(paper_line(), ff(10.0)).unwrap(),
    )
    .label("pin")
    .input_slew(ps(100.0))
    .build()
    .unwrap();
    let key = stage_key(
        &stage,
        InputFingerprint::Fixed(stage.input()),
        &EngineConfig::default(),
        &SessionOptions::default(),
    )
    .unwrap();
    assert_eq!(key.value(), 0x1c28_cc5f_6cd4_d2c4);

    // Every field of the report is fixed by hand, so the entry bytes depend
    // on the format alone.
    let report = StageReport {
        label: "pin".into(),
        backend: "analytic",
        delay: ps(42.5),
        slew: ps(61.25),
        input_t50: ps(70.0),
        vdd: 1.8,
        used_two_ramp: false,
        waveform: Arc::new(SingleRampModel::new(1.8, ps(76.5), ps(41.0))),
        simulated_far_end: None,
        analytic: None,
        lints: vec![Diagnostic::new(
            "L023",
            Severity::Warning,
            "R7",
            "near-zero resistance",
        )],
        elapsed_seconds: 0.125,
        cache_hit: false,
    };
    let dir = tmp_dir("stage");
    let cache = StageResultCache::open(&dir).unwrap();
    cache.store(&key, &report).unwrap();
    let entry = fs::read(cache.entry_path(key.value())).unwrap();
    assert_eq!(blob(&entry), (217, 0x06cb_6075_14cc_cdbb));
    let _ = fs::remove_dir_all(&dir);
}
