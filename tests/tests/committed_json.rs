//! Every JSON document committed to the repository must parse with the
//! workspace's JSON reader: the gates read these files back as
//! baselines, so a document the reader rejects would break them.

use bdb_telemetry::json::{parse, Json};
use std::path::Path;

#[test]
fn every_committed_json_file_parses() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap();
    for rel in ["BENCH_RESULTS.json", "charmap.json", "tests/golden/charmap.json"] {
        let text = std::fs::read_to_string(root.join(rel)).expect("committed file present");
        let doc = parse(&text).unwrap_or_else(|e| panic!("{rel}: {e}"));
        assert!(doc.get("schema_version").and_then(Json::as_u64).is_some(), "{rel}: versioned");
        assert!(doc.get("machine").and_then(Json::as_str).is_some(), "{rel}: names its machine");
    }
}
