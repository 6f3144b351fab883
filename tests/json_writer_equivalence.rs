//! The JSON renderer: `serde_json::to_string(x)` renders `x`'s `serde::Value`
//! tree to compact text. It writes the bench and result files, whose bytes
//! must not change, so this pins its output: the shortest round-trip form
//! of every float, escapes and a derived struct's field order.
//! A non-finite float, which JSON cannot represent, is refused wherever it
//! sits.

use serde::Serialize;

/// A derived struct of the shape the result files hold.
#[derive(Serialize)]
struct Row {
    name: String,
    weight: f64,
    hops: Vec<u32>,
}

/// Floats the shortest round-trip form treats specially, with their text:
/// signed zeros, subnormals, the normal range's ends, and integral values.
const EDGE_FLOATS: [(f64, &str); 12] = [
    (0.0, "0.0"),
    (-0.0, "-0.0"),
    (5e-324, "5e-324"),
    (-5e-324, "-5e-324"),
    (2.225_073_858_507_201e-308, "2.225073858507201e-308"),
    (f64::MIN_POSITIVE, "2.2250738585072014e-308"),
    (f64::EPSILON, "2.220446049250313e-16"),
    (f64::MAX, "1.7976931348623157e308"),
    (f64::MIN, "-1.7976931348623157e308"),
    (1.0, "1.0"),
    (-3.0, "-3.0"),
    (1e21, "1e21"),
];

#[test]
fn edge_floats_render_as_their_tree() {
    for (f, text) in EDGE_FLOATS {
        assert_eq!(serde_json::to_string(&f).unwrap(), text);
        // The text parses back to the tree it was rendered from, bit for bit.
        let back = serde_json::from_str_value(text).unwrap();
        let serde_json::Value::Float(g) = back else {
            panic!("{text} parsed as {back:?}");
        };
        assert_eq!(g.to_bits(), f.to_bits(), "{text}");
    }
}

#[test]
fn a_non_finite_float_is_refused_either_way() {
    // At top level, in a list, and in a derived struct.
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        assert!(serde_json::to_string(&bad).is_err(), "{bad}");
        assert!(
            serde_json::to_string(&vec![1.0, bad]).is_err(),
            "{bad} in a list"
        );
        let row = Row {
            name: "r".into(),
            weight: bad,
            hops: Vec::new(),
        };
        assert!(serde_json::to_string(&row).is_err(), "{bad} in a struct");
    }
    assert!(serde_json::to_string(&f32::NAN).is_err());
}

#[test]
fn a_derived_struct_and_escapes_render_as_before() {
    let row = Row {
        name: "fleet".into(),
        weight: 0.5,
        hops: vec![2, 5],
    };
    assert_eq!(
        serde_json::to_string(&row).unwrap(),
        "{\"name\":\"fleet\",\"weight\":0.5,\"hops\":[2,5]}"
    );
    assert_eq!(
        serde_json::to_string("a\"b\\c\n\u{1}").unwrap(),
        "\"a\\\"b\\\\c\\n\\u0001\""
    );
}
