//! A damaged file in the recording store is never trusted: the loader
//! rejects it, the store counts it `stale`, records the pair again and
//! overwrites the file, and the sweep reports exactly what it reported
//! from a fresh recording. (This suite owns the process-global store,
//! so it runs in its own test binary.)

use penny_bench::conformance::run_conformance;
use penny_bench::json::report_to_json;
use penny_bench::{recstore, SchemeId};

#[test]
fn a_damaged_store_file_is_stale_and_recorded_again() {
    let dir =
        std::env::temp_dir().join(format!("penny-recstore-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    recstore::set_recording_store(&dir).expect("create the store");
    let sweep = || report_to_json(&run_conformance("MT", SchemeId::Penny, 300));

    let fresh = sweep();
    let files: Vec<_> = std::fs::read_dir(&dir)
        .expect("list the store")
        .map(|e| e.expect("store entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "bin"))
        .collect();
    assert_eq!(files.len(), 1, "one recording stored: {files:?}");
    let path = &files[0];
    let good = std::fs::read(path).expect("read the recording");
    let mut bad = good.clone();
    bad[good.len() / 2] ^= 0x10;
    std::fs::write(path, &bad).expect("damage the recording");

    let before = recstore::stats();
    assert_eq!(sweep(), fresh, "the sweep over a damaged store changed its report");
    let after = recstore::stats();
    assert_eq!(after.stale - before.stale, 1, "the damaged file is counted stale");
    assert_eq!(after.misses - before.misses, 1, "the pair is recorded again");
    assert_eq!(after.hits, before.hits, "the damaged file must not load");
    assert_eq!(std::fs::read(path).expect("read it back"), good, "the file is overwritten");

    assert_eq!(sweep(), fresh);
    assert_eq!(recstore::stats().hits - after.hits, 1, "the mended file loads");
    recstore::clear_recording_store();
    let _ = std::fs::remove_dir_all(&dir);
}
