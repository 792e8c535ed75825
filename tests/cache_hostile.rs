//! Both disk caches against entries that pass every envelope check but
//! carry a damaged or hostile payload: a re-sealed entry with a valid
//! checksum must still read as a miss (or as a value), never as a panic or
//! a wrong hit. Mutations are seeded, so a failure reproduces exactly.

use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use rlc_ceff_suite::ceff::validation::GoldenOptions;
use rlc_ceff_suite::charlib::cache::CharCache;
use rlc_ceff_suite::charlib::CharacterizationGrid;
use rlc_ceff_suite::fixtures::synthetic_cell_75x;
use rlc_ceff_suite::moments::PiModel;
use rlc_ceff_suite::numeric::codec::fnv1a;
use rlc_ceff_suite::numeric::stats::Rng;
use rlc_ceff_suite::numeric::units::{ff, ps};
use rlc_ceff_suite::{
    stage_key, BackendChoice, DistributedRlcLoad, EngineConfig, InputFingerprint, PiModelLoad,
    SessionOptions, Stage, StageKey, StageResultCache, TimingEngine,
};

mod common;
use common::paper_line;

/// Bytes before the payload: magic (8), format version (4), echoed key (8)
/// and payload length (8).
const HEAD: usize = 28;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rlc-hostile-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// The payload of a sealed entry.
fn payload_of(entry: &[u8]) -> &[u8] {
    &entry[HEAD..entry.len() - 8]
}

/// `entry`'s magic, version and key around a new payload, with a length
/// and checksum that match it.
fn reseal(entry: &[u8], payload: &[u8]) -> Vec<u8> {
    let mut out = entry[..HEAD - 8].to_vec();
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&fnv1a(payload).to_le_bytes());
    out
}

const MUTATIONS: usize = 2000;

/// Calls `check` with `MUTATIONS` seeded mutations of `payload`, in turn
/// single-byte flips, truncations and inflated length prefixes.
fn for_each_mutation(payload: &[u8], seed: u64, mut check: impl FnMut(usize, &[u8])) {
    let mut rng = Rng::new(seed);
    let mut below = move |n: usize| (rng.next_u64() % n as u64) as usize;
    // Every 8-byte window holding a value no larger than the payload may be
    // a length prefix; the real ones are all among them.
    let prefixes: Vec<usize> = (0..=payload.len() - 8)
        .filter(|&at| {
            let v = u64::from_le_bytes(payload[at..at + 8].try_into().unwrap());
            v > 0 && v <= payload.len() as u64
        })
        .collect();
    assert!(!prefixes.is_empty());
    for round in 0..MUTATIONS {
        let mut m = payload.to_vec();
        match round % 4 {
            0 | 1 => {
                let at = below(m.len());
                m[at] ^= (below(255) + 1) as u8;
            }
            2 => m.truncate(below(m.len())),
            _ => {
                let at = prefixes[below(prefixes.len())];
                let v = u64::from_le_bytes(m[at..at + 8].try_into().unwrap());
                let inflated = [v + 1, 2 * v + 7, 1 << 40, u64::MAX][below(4)];
                m[at..at + 8].copy_from_slice(&inflated.to_le_bytes());
            }
        }
        check(round, &m);
    }
}

/// Tallies load outcomes and turns a panic into a failure naming the round.
#[derive(Default)]
struct Tally {
    misses: usize,
    values: usize,
}

impl Tally {
    fn record<T>(&mut self, round: usize, load: impl FnOnce() -> Option<T>) {
        match catch_unwind(AssertUnwindSafe(load)) {
            Ok(None) => self.misses += 1,
            Ok(Some(_)) => self.values += 1,
            Err(_) => panic!("mutation round {round} panicked inside load"),
        }
    }
}

fn cached_engine(dir: &Path) -> TimingEngine {
    TimingEngine::new(
        EngineConfig::builder()
            .extract_rs_per_case(false)
            .golden_fidelity(GoldenOptions::coarse_for_tests())
            .result_cache_dir(dir)
            .build(),
    )
}

fn key_of(stage: &Stage, engine: &TimingEngine) -> StageKey {
    stage_key(
        stage,
        InputFingerprint::Fixed(stage.input()),
        engine.config(),
        &SessionOptions::default(),
    )
    .unwrap()
}

/// Custom backends are never cached, so an entry naming any backend but the
/// three built-ins is damaged or foreign: it reads as a miss, and the
/// session re-simulates and heals it.
#[test]
fn an_unknown_backend_name_is_damage_not_a_hit() {
    let dir = tmp_dir("backend");
    let engine = cached_engine(&dir);
    let stage = Stage::builder(
        synthetic_cell_75x(),
        DistributedRlcLoad::new(paper_line(), ff(10.0)).unwrap(),
    )
    .label("renamed")
    .input_slew(ps(100.0))
    .build()
    .unwrap();
    let key = key_of(&stage, &engine);
    let mut session = engine.session();
    session.submit(stage.clone()).unwrap();
    assert!(session.wait_all()[0].1.is_ok());

    let cache = StageResultCache::open(&dir).unwrap();
    let path = cache.entry_path(key.value());
    let entry = fs::read(&path).unwrap();
    let mut forged = payload_of(&entry).to_vec();
    let at = forged
        .windows(8)
        .position(|w| w == b"analytic")
        .expect("the entry names its backend");
    forged[at..at + 8].copy_from_slice(b"analytix");
    fs::write(&path, reseal(&entry, &forged)).unwrap();
    assert!(cache.load(&key, "renamed").is_none());

    let mut session = engine.session();
    session.submit(stage).unwrap();
    let report = session.wait_all()[0].1.clone().unwrap();
    assert_eq!(
        (session.stages_simulated(), session.result_cache_hits()),
        (1, 0)
    );
    assert_eq!(report.backend, "analytic");
    let healed = cache
        .load(&key, "renamed")
        .expect("the session healed the entry");
    assert_eq!(healed.backend, "analytic");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn hostile_stage_payloads_never_panic() {
    let dir = tmp_dir("stage");
    let engine = cached_engine(&dir);
    // A SPICE report: its payload carries two sampled waveforms, the driver
    // output and the simulated far end.
    let pi = PiModel {
        c_near: ff(200.0),
        resistance: 150.0,
        c_far: ff(700.0),
    };
    let stage = Stage::builder(synthetic_cell_75x(), PiModelLoad::new(pi).unwrap())
        .label("hostile")
        .input_slew(ps(100.0))
        .backend(BackendChoice::Spice)
        .build()
        .unwrap();
    let key = key_of(&stage, &engine);
    let report = engine.analyze(&stage).unwrap();
    assert!(report.simulated_far_end.is_some());
    let cache = StageResultCache::open(&dir).unwrap();
    cache.store(&key, &report).unwrap();
    let path = cache.entry_path(key.value());
    let entry = fs::read(&path).unwrap();

    let mut tally = Tally::default();
    for_each_mutation(payload_of(&entry), 0x5eed_0001, |round, payload| {
        fs::write(&path, reseal(&entry, payload)).unwrap();
        tally.record(round, || cache.load(&key, "hostile"));
    });
    assert!(tally.misses > 0 && tally.values > 0);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn hostile_characterization_payloads_never_panic() {
    let dir = tmp_dir("char");
    let cell = synthetic_cell_75x();
    let grid = CharacterizationGrid::coarse_for_tests();
    let cache = CharCache::open(&dir).unwrap();
    cache.store(&cell, &grid).unwrap();
    let path = cache.entry_path(CharCache::key(cell.spec(), &grid));
    let entry = fs::read(&path).unwrap();

    let mut tally = Tally::default();
    for_each_mutation(payload_of(&entry), 0x5eed_0002, |round, payload| {
        fs::write(&path, reseal(&entry, payload)).unwrap();
        tally.record(round, || cache.load(cell.spec(), &grid));
    });
    assert!(tally.misses > 0 && tally.values > 0);
    let _ = fs::remove_dir_all(&dir);
}
