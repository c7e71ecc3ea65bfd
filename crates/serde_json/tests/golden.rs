//! Golden strings for the serializer: every derive shape and primitive
//! the workspace writes, compact and pretty. The expected strings are
//! the bytes trace files, reports and `BENCH_search.json` already hold,
//! so a change to the writer that moves one byte fails here.

use serde::Serialize;
use std::collections::{BTreeMap, HashMap};

#[derive(Serialize)]
struct Named {
    id: u64,
    label: Option<String>,
    scores: Vec<f64>,
}

#[derive(Serialize)]
struct Empty {}

#[derive(Serialize)]
struct Pair(i32, String);

#[derive(Serialize)]
struct Wrapper(f64);

#[derive(Serialize)]
struct Marker;

#[derive(Serialize)]
enum Shape {
    Unit,
    Newtype(u64),
    Tuple(i8, bool),
    Struct { x: f32, label: String },
}

#[derive(Serialize)]
struct Nested {
    name: String,
    shapes: Vec<Shape>,
    empty_seq: Vec<u8>,
    empty_map: BTreeMap<String, u8>,
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
        empty_map: BTreeMap::new(),
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
    let mut unsorted = HashMap::new();
    unsorted.insert("zeta".to_string(), 1u32);
    unsorted.insert("alpha".to_string(), 2);
    unsorted.insert("mid".to_string(), 3);
    let mut ordered = BTreeMap::new();
    ordered.insert("b".to_string(), vec![true]);
    ordered.insert("a".to_string(), vec![]);
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
        ("f32 widened", compact(&0.1f32), "0.10000000149011612"),
        // Integers, including u64 above i64::MAX.
        ("i8 min", compact(&i8::MIN), "-128"),
        ("i64 min", compact(&i64::MIN), "-9223372036854775808"),
        ("u32 max", compact(&u32::MAX), "4294967295"),
        ("u64 at i64 max", compact(&(i64::MAX as u64)), "9223372036854775807"),
        ("u64 above i64 max", compact(&(i64::MAX as u64 + 1)), "9223372036854775808"),
        ("u64 max", compact(&u64::MAX), "18446744073709551615"),
        ("usize", compact(&12usize), "12"),
        ("bool", compact(&[true, false]), "[true,false]"),
        ("unit", compact(&()), "null"),
        // Strings: the five named escapes, other control characters as
        // \u00XX, everything else (DEL, non-ASCII) verbatim.
        ("escapes", compact("q\" b\\ n\n r\r t\t"), "\"q\\\" b\\\\ n\\n r\\r t\\t\""),
        ("control chars", compact("\u{0}\u{1}\u{8}\u{c}\u{1f}\u{7f}"), "\"\\u0000\\u0001\\u0008\\u000c\\u001f\u{7f}\""),
        ("unicode", compact("héllo µs → ok"), "\"héllo µs → ok\""),
        ("char", compact(&'x'), "\"x\""),
        ("string", compact(&"s".to_string()), "\"s\""),
        // Containers.
        ("option some", compact(&Some(3u8)), "3"),
        ("option none", compact(&None::<u8>), "null"),
        ("hashmap keys sorted", compact(&unsorted), "{\"alpha\":2,\"mid\":3,\"zeta\":1}"),
        ("btreemap", compact(&ordered), "{\"a\":[],\"b\":[true]}"),
        ("empty seq", compact(&Vec::<u8>::new()), "[]"),
        ("empty map", compact(&HashMap::<String, u8>::new()), "{}"),
        ("tuple", compact(&(1u8, "a", 2.5f64)), "[1,\"a\",2.5]"),
        ("array", compact(&[1u8, 2, 3]), "[1,2,3]"),
        ("boxed ref", compact(&Box::new(&5i16)), "5"),
        // Derive shapes.
        ("named struct", compact(&Named { id: 9, label: Some("x".to_string()), scores: vec![] }), "{\"id\":9,\"label\":\"x\",\"scores\":[]}"),
        ("empty named struct", compact(&Empty {}), "{}"),
        ("tuple struct", compact(&Pair(-1, "p".to_string())), "[-1,\"p\"]"),
        ("newtype struct", compact(&Wrapper(3.0)), "3.0"),
        ("unit struct", compact(&Marker), "null"),
        ("unit variant", compact(&Shape::Unit), "\"Unit\""),
        ("newtype variant", compact(&Shape::Newtype(4)), "{\"Newtype\":4}"),
        ("tuple variant", compact(&Shape::Tuple(1, false)), "{\"Tuple\":[1,false]}"),
        ("struct variant", compact(&Shape::Struct { x: 1.0, label: "l".to_string() }), "{\"Struct\":{\"x\":1.0,\"label\":\"l\"}}"),
        ("nested compact", compact(&nested()), "{\"name\":\"n\",\"shapes\":[\"Unit\",{\"Newtype\":7},{\"Tuple\":[-3,true]},{\"Struct\":{\"x\":0.5,\"label\":\"s\"}}],\"empty_seq\":[],\"empty_map\":{},\"inner\":{\"id\":1,\"label\":null,\"scores\":[1.0,0.25]},\"none\":null,\"pair\":[2,\"b\"]}"),
        // Pretty: two-space indent, "key": value, empty containers inline.
        ("pretty scalar", pretty(&1.5f64), "1.5"),
        ("pretty empty seq", pretty(&Vec::<u8>::new()), "[]"),
        ("pretty nested", pretty(&nested()), "{\n  \"name\": \"n\",\n  \"shapes\": [\n    \"Unit\",\n    {\n      \"Newtype\": 7\n    },\n    {\n      \"Tuple\": [\n        -3,\n        true\n      ]\n    },\n    {\n      \"Struct\": {\n        \"x\": 0.5,\n        \"label\": \"s\"\n      }\n    }\n  ],\n  \"empty_seq\": [],\n  \"empty_map\": {},\n  \"inner\": {\n    \"id\": 1,\n    \"label\": null,\n    \"scores\": [\n      1.0,\n      0.25\n    ]\n  },\n  \"none\": null,\n  \"pair\": [\n    2,\n    \"b\"\n  ]\n}"),
        ("pretty map", pretty(&unsorted), "{\n  \"alpha\": 2,\n  \"mid\": 3,\n  \"zeta\": 1\n}"),
    ];
    let failures: Vec<String> = cases
        .iter()
        .filter(|(_, got, want)| got != want)
        .map(|(name, got, want)| format!("{name}: got {got:?}, want {want:?}"))
        .collect();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
