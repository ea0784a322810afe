//! Format pin for the `JSON ` rows of `results/*.txt`.
//!
//! The rows were first written by `serde_json`; `bench::json_line` now
//! writes them through `trace::json`, the workspace's one JSON
//! implementation. This test holds the hand emitter to the committed
//! files: every row is parsed, every number re-derived from its *value*
//! (so float tokens such as `0.0` and `0.17544639052799998` are checked,
//! not copied), the keys shuffled, and the result must re-render to the
//! committed line byte for byte.

use bench::json_line;
use trace::json::Json;

/// The value with every number token re-emitted from its parsed value.
fn reemit(value: &Json) -> Json {
    match value {
        Json::Num(tok) if tok.contains(['.', 'e', 'E']) => {
            Json::f64(tok.parse().expect("float token"))
        }
        Json::Num(tok) => Json::u64(tok.parse().expect("integer token")),
        Json::Arr(items) => Json::Arr(items.iter().map(reemit).collect()),
        Json::Obj(fields) => Json::Obj(
            fields
                .iter()
                .map(|(key, value)| (key.clone(), reemit(value)))
                .collect(),
        ),
        other => other.clone(),
    }
}

#[test]
fn committed_json_rows_rerender_byte_for_byte() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
    let mut rows = 0;
    for entry in std::fs::read_dir(dir).expect("results/ exists") {
        let path = entry.expect("directory entry").path();
        let text = std::fs::read_to_string(&path).expect("readable results file");
        for line in text.lines().filter(|line| line.starts_with("JSON ")) {
            let row = Json::parse(&line["JSON ".len()..])
                .unwrap_or_else(|e| panic!("{}: {e}: {line}", path.display()));
            let row = reemit(&row);
            let Some(Json::Obj(point)) = row.get("point") else {
                panic!("{}: row has no point object: {line}", path.display());
            };
            // Reversed, so `json_line` has to restore the key order.
            let point = point.iter().rev().map(|(k, v)| (k.as_str(), v.clone()));
            let figure = row.get_str("figure").expect("figure name");
            assert_eq!(
                json_line(figure, point.collect()),
                line,
                "{}",
                path.display()
            );
            rows += 1;
        }
    }
    assert!(rows > 0, "no JSON rows found under {dir}");
}

/// `netproxy_load --sweep` is the one committed live-socket throughput
/// record: it must say what box and revision it is from and hold all
/// three sections (its `JSON ` rows are re-rendered by the test above).
#[test]
fn netproxy_load_record_is_stamped_and_whole() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/netproxy_load.txt"
    );
    let text = std::fs::read_to_string(path).expect("results/netproxy_load.txt exists");
    assert!(
        text.lines()
            .any(|line| line.starts_with("stamp: git ") && line.ends_with(" cores")),
        "no stamp line in {path}"
    );
    for section in ["ceiling", "shard_scaling", "proxy_comparison"] {
        let tag = format!("\"section\":\"{section}\"");
        assert!(text.contains(&tag), "{path} has no {section} row");
    }
}
