//! Golden strings for the serializer: every derive shape and primitive
//! the workspace writes, compact and pretty. The expected strings are
//! the bytes trace files, reports and `BENCH_search.json` already hold,
//! so a change to the writer that moves one byte fails here. The reader
//! derive reads the shapes it supports back, by the one read rule.

use serde::{FromJson, Serialize};
use serde_json::FromJson;

#[derive(Serialize)]
struct Named {
    id: u64,
    label: Option<String>,
    scores: Vec<f64>,
}

#[derive(Serialize)]
struct Empty {}

#[derive(Serialize)]
struct Pair(i64, String);

#[derive(Serialize)]
struct Wrapper(f64);

#[derive(Serialize)]
enum Shape {
    Unit,
    Newtype(u64),
    Tuple(i64, bool),
    Struct { x: f64, label: String },
}

#[derive(Serialize)]
struct Nested {
    name: String,
    shapes: Vec<Shape>,
    empty_seq: Vec<u64>,
    inner: Named,
    none: Option<Named>,
    pair: Pair,
}

fn nested() -> Nested {
    Nested {
        name: "n".to_string(),
        shapes: vec![
            Shape::Unit,
            Shape::Newtype(7),
            Shape::Tuple(-3, true),
            Shape::Struct {
                x: 0.5,
                label: "s".to_string(),
            },
        ],
        empty_seq: Vec::new(),
        inner: Named {
            id: 1,
            label: None,
            scores: vec![1.0, 0.25],
        },
        none: None,
        pair: Pair(2, "b".to_string()),
    }
}

fn compact<T: Serialize + ?Sized>(value: &T) -> String {
    serde_json::to_string(value).unwrap()
}

fn pretty<T: Serialize + ?Sized>(value: &T) -> String {
    serde_json::to_string_pretty(value).unwrap()
}

#[test]
fn serializer_output_matches_golden_strings() {
    let cases: Vec<(&str, String, &str)> = vec![
        // Floats: integer-valued below 1e16 keep one decimal; larger and
        // fractional ones use Rust's shortest round-trip form.
        ("float zero", compact(&0.0f64), "0.0"),
        ("float negative zero", compact(&-0.0f64), "-0.0"),
        ("float integer", compact(&-42.0f64), "-42.0"),
        ("float fraction", compact(&2.5f64), "2.5"),
        ("float below 1e16", compact(&9_999_999_999_999_998.0f64), "9999999999999998.0"),
        ("float 1e16", compact(&1e16f64), "10000000000000000"),
        ("float above 1e16", compact(&1.5e20f64), "150000000000000000000"),
        ("float tiny", compact(&1e-7f64), "0.0000001"),
        ("float nan", compact(&f64::NAN), "null"),
        ("float inf", compact(&f64::INFINITY), "null"),
        ("float neg inf", compact(&f64::NEG_INFINITY), "null"),
        // Integers, including u64 above i64::MAX.
        ("i64 min", compact(&i64::MIN), "-9223372036854775808"),
        ("u32 max", compact(&u32::MAX), "4294967295"),
        ("u64 at i64 max", compact(&(i64::MAX as u64)), "9223372036854775807"),
        ("u64 above i64 max", compact(&(i64::MAX as u64 + 1)), "9223372036854775808"),
        ("u64 max", compact(&u64::MAX), "18446744073709551615"),
        ("usize", compact(&12usize), "12"),
        ("bool", compact(&vec![true, false]), "[true,false]"),
        // Strings: the five named escapes, other control characters as
        // \u00XX, everything else (DEL, non-ASCII) verbatim.
        ("escapes", compact("q\" b\\ n\n r\r t\t"), "\"q\\\" b\\\\ n\\n r\\r t\\t\""),
        ("control chars", compact("\u{0}\u{1}\u{8}\u{c}\u{1f}\u{7f}"), "\"\\u0000\\u0001\\u0008\\u000c\\u001f\u{7f}\""),
        ("unicode", compact("héllo µs → ok"), "\"héllo µs → ok\""),
        ("char", compact(&'x'), "\"x\""),
        ("string", compact(&"s".to_string()), "\"s\""),
        // Containers.
        ("option some", compact(&Some(3u64)), "3"),
        ("option none", compact(&None::<u64>), "null"),
        ("empty seq", compact(&Vec::<u64>::new()), "[]"),
        ("pair", compact(&(1u64, "a")), "[1,\"a\"]"),
        ("triple", compact(&(1u64, "a", 2.5f64)), "[1,\"a\",2.5]"),
        ("boxed ref", compact(&Box::new(&5i64)), "5"),
        // Derive shapes.
        ("named struct", compact(&Named { id: 9, label: Some("x".to_string()), scores: vec![] }), "{\"id\":9,\"label\":\"x\",\"scores\":[]}"),
        ("empty named struct", compact(&Empty {}), "{}"),
        ("tuple struct", compact(&Pair(-1, "p".to_string())), "[-1,\"p\"]"),
        ("newtype struct", compact(&Wrapper(3.0)), "3.0"),
        ("unit variant", compact(&Shape::Unit), "\"Unit\""),
        ("newtype variant", compact(&Shape::Newtype(4)), "{\"Newtype\":4}"),
        ("tuple variant", compact(&Shape::Tuple(1, false)), "{\"Tuple\":[1,false]}"),
        ("struct variant", compact(&Shape::Struct { x: 1.0, label: "l".to_string() }), "{\"Struct\":{\"x\":1.0,\"label\":\"l\"}}"),
        ("nested compact", compact(&nested()), "{\"name\":\"n\",\"shapes\":[\"Unit\",{\"Newtype\":7},{\"Tuple\":[-3,true]},{\"Struct\":{\"x\":0.5,\"label\":\"s\"}}],\"empty_seq\":[],\"inner\":{\"id\":1,\"label\":null,\"scores\":[1.0,0.25]},\"none\":null,\"pair\":[2,\"b\"]}"),
        // Pretty: two-space indent, "key": value, empty containers inline.
        ("pretty scalar", pretty(&1.5f64), "1.5"),
        ("pretty empty seq", pretty(&Vec::<u64>::new()), "[]"),
        ("pretty nested", pretty(&nested()), "{\n  \"name\": \"n\",\n  \"shapes\": [\n    \"Unit\",\n    {\n      \"Newtype\": 7\n    },\n    {\n      \"Tuple\": [\n        -3,\n        true\n      ]\n    },\n    {\n      \"Struct\": {\n        \"x\": 0.5,\n        \"label\": \"s\"\n      }\n    }\n  ],\n  \"empty_seq\": [],\n  \"inner\": {\n    \"id\": 1,\n    \"label\": null,\n    \"scores\": [\n      1.0,\n      0.25\n    ]\n  },\n  \"none\": null,\n  \"pair\": [\n    2,\n    \"b\"\n  ]\n}"),
    ];
    let failures: Vec<String> = cases
        .iter()
        .filter(|(_, got, want)| got != want)
        .map(|(name, got, want)| format!("{name}: got {got:?}, want {want:?}"))
        .collect();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[derive(Debug, PartialEq, Serialize, FromJson)]
enum Fate {
    Kept,
    Dropped { at: u64, why: String },
}

#[derive(Debug, PartialEq, Serialize, FromJson)]
struct Inner {
    n: usize,
}

#[derive(Debug, PartialEq, Serialize, FromJson)]
struct Readable {
    id: u64,
    share: f64,
    ok: bool,
    label: Option<String>,
    fates: Vec<Fate>,
    inner: Inner,
}

#[derive(Debug, PartialEq, Serialize, FromJson)]
struct Holder {
    fate: Fate,
}

fn read<T: FromJson>(text: &str) -> Option<T> {
    T::from_json(&serde_json::from_str(text).unwrap())
}

#[test]
fn from_json_reads_back_what_serialize_wrote_by_one_rule() {
    let value = Readable {
        id: u64::from(u32::MAX) + 1,
        share: 0.1 + 0.2,
        ok: true,
        label: Some("l".to_string()),
        fates: vec![
            Fate::Kept,
            Fate::Dropped {
                at: 3,
                why: "q\"\n".to_string(),
            },
        ],
        inner: Inner { n: 7 },
    };
    assert_eq!(read::<Readable>(&compact(&value)), Some(value));
    // Absent, null and ill-typed fields read as defaults (a negative count
    // as 0), elements that do not read are dropped, unknown keys ignored.
    let lenient = r#"{"id":-3,"share":"x","label":null,"fates":["Kept","Gone",{"Dropped":{}},7],"inner":5,"extra":1}"#;
    let expected = Readable {
        id: 0,
        share: 0.0,
        ok: false,
        label: None,
        fates: vec![
            Fate::Kept,
            Fate::Dropped {
                at: 0,
                why: String::new(),
            },
        ],
        inner: Inner { n: 0 },
    };
    assert_eq!(read::<Readable>(lenient), Some(expected));
    // An enum has no default: a struct whose enum field does not read does
    // not read, and neither does a non-object.
    assert_eq!(read::<Holder>(r#"{"fate":"Kept"}"#), Some(Holder { fate: Fate::Kept }));
    assert_eq!(read::<Holder>(r#"{"fate":"Gone"}"#), None);
    assert_eq!(read::<Holder>("{}"), None);
    assert_eq!(read::<Readable>("[1]"), None);
}
