//! The strictness oracle of the one-read request path.
//!
//! A request line used to be read into a full `Value` tree; its `model`
//! object was then written back to compact text, and that text was
//! parsed into a network. [`reference_request`] keeps that path, and the
//! tests hold the production path to it: on every corpus line both
//! accept or both reject, with the same error text, and an accepted
//! inline model has the same content hash. Two kinds of line differ on
//! purpose, each pinned by its own test: a model literal out of `f64`
//! range (the old write-back turned it into `null`; now the network
//! loader rejects it), and an integer field spelled `-0` (the old
//! write-back turned it into `0`; now it is rejected inline as it always
//! was from a model file).

use crate::fuzz::request_line;
use crate::hash::model_hash;
use crate::protocol::{parse_request, request_from_document, ModelRef, Request};
use crate::server::{Server, ServerConfig};
use abonn_check::fuzz::generate_case;
use abonn_nn::{Conv2d, Layer, Network, Shape};
use abonn_tensor::Matrix;
use serde_json::{Document, Member, Value};
use std::path::Path;

/// The request path before the raw model span: the full `Value` tree,
/// then the model object written back to text.
fn reference_request(line: &str) -> Result<Request, String> {
    let value: Value = serde_json::from_str(line).map_err(|e| format!("invalid JSON: {e}"))?;
    let Value::Object(entries) = value else {
        return request_from_document(Document::Other(value));
    };
    let texts: Vec<Option<String>> = entries
        .iter()
        .map(|(key, v)| {
            (key == "model" && matches!(v, Value::Object(_)))
                .then(|| serde_json::to_string(v).unwrap())
        })
        .collect();
    let members = entries
        .into_iter()
        .zip(&texts)
        .map(|((key, v), text)| match text {
            Some(text) => (key, Member::Raw(text)),
            None => (key, Member::Value(v)),
        })
        .collect();
    request_from_document(Document::Object(members))
}

/// Parses an inline model as the server does on a model-cache miss, and
/// swaps its text for its content hash: spellings are compared by what
/// they load, not by their bytes.
fn resolve(request: Result<Request, String>) -> Result<(Request, Option<u64>), String> {
    let mut request = request?;
    let Request::Verify(verify) = &mut request else {
        return Ok((request, None));
    };
    let ModelRef::Inline(text) = &verify.model else {
        return Ok((request, None));
    };
    let network = abonn_nn::io::from_json(text).map_err(|e| format!("invalid model: {e}"))?;
    verify.model = ModelRef::Inline(String::new());
    Ok((request, Some(model_hash(&network))))
}

fn assert_same(line: &str) {
    let new = resolve(parse_request(line));
    let old = resolve(reference_request(line));
    assert_eq!(new, old, "the two paths differ on {line}");
}

fn workspace_file(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// The 2 → ReLU(4) → 3 network of the committed session, with its
/// weights scaled so that each `scale` is a distinct model.
fn demo_net(scale: f64) -> Network {
    let w1 = [1.0, 0.5, -0.5, 1.0, 0.8, -1.0, -1.0, -0.3];
    let w2 = [
        1.0, 0.2, -0.3, 0.1, -0.4, 1.1, 0.2, -0.2, 0.3, -0.5, 0.9, 0.4,
    ];
    let scaled = |w: &[f64]| w.iter().map(|x| x * scale).collect::<Vec<f64>>();
    Network::new(
        Shape::Flat(2),
        vec![
            Layer::dense(
                Matrix::from_vec(4, 2, scaled(&w1)),
                vec![0.1, -0.2, 0.0, 0.3],
            ),
            Layer::relu(),
            Layer::dense(Matrix::from_vec(3, 4, scaled(&w2)), vec![0.05, 0.0, -0.05]),
        ],
    )
    .unwrap()
}

fn compact(net: &Network) -> String {
    serde_json::to_string(net).unwrap()
}

/// A verify request around `model`, whatever text that is.
fn verify_with(model: &str, epsilon: f64) -> String {
    let property = abonn_vnnlib::write_robustness(&[0.6, 0.4], epsilon, 0, 3);
    request_line(model, &property, &[0.6, 0.4], epsilon, 200)
}

#[test]
fn committed_sessions_resolve_as_the_full_parse_did() {
    for file in [
        "scripts/serve-session.jsonl",
        "scripts/serve-client-a.jsonl",
        "scripts/serve-client-b.jsonl",
    ] {
        let text = workspace_file(file);
        for line in text.lines() {
            assert_same(line);
        }
    }
}

#[test]
fn served_fuzz_lines_resolve_as_the_full_parse_did() {
    // The first, repeated and dominated requests of the served fuzz
    // smoke (`fuzz --served --seed 2025 --count 12`).
    for index in 0..12 {
        let case = generate_case(2025, index);
        let network = case.net.build();
        let model = abonn_nn::io::to_json(&network).unwrap();
        let property = abonn_vnnlib::write_robustness(
            &case.input,
            case.epsilon,
            case.label,
            network.output_dim(),
        );
        for epsilon in [case.epsilon, case.epsilon * 0.5, case.epsilon * 1.5] {
            let line = request_line(&model, &property, &case.input, epsilon, case.budget_calls);
            assert_same(&line);
            let (_, hash) = resolve(parse_request(&line)).unwrap();
            assert_eq!(hash, Some(model_hash(&network)));
        }
    }
}

#[test]
fn hand_made_lines_resolve_as_the_full_parse_did() {
    let model = compact(&demo_net(1.0));
    let pretty = abonn_nn::io::to_json(&demo_net(1.0)).unwrap();
    assert!(pretty.contains('\n'));
    let with = |from: &str, to: &str| {
        assert!(model.contains(from), "{from}");
        verify_with(&model.replacen(from, to, 1), 0.02)
    };
    let base = verify_with(&model, 0.02);
    let end = base.len() - 1;
    let lines = [
        base.clone(),
        verify_with(&pretty, 0.02),
        verify_with(&pretty.replace('\n', " "), 0.02),
        // One weight as `1.5`, `1.50` and `15e-1`, or as the integer
        // `1`; then the sign of a zero bias.
        with("\"data\":[1.0,", "\"data\":[1.5,"),
        with("\"data\":[1.0,", "\"data\":[1.50,"),
        with("\"data\":[1.0,", "\"data\":[15e-1,"),
        with("\"data\":[1.0,", "\"data\":[1,"),
        with("-0.2,0.0,0.3", "-0.2,-0.0,0.3"),
        // Other spellings of the same members.
        with("\"rows\"", "\"\\u0072ows\""),
        with("\"Relu\"", "\"\\u0052elu\""),
        with(":", " : "),
        with("{\"input_shape\"", "{\"note\":[{}],\"input_shape\""),
        // Grammar errors inside the model.
        with("\"data\":[1.0,", "\"data\":[1e,"),
        with("\"data\":[1.0,", "\"data\":[-,"),
        with("\"data\":[1.0,", "\"data\":[1.0,,"),
        with("\"Relu\",", "\"Relu\",,"),
        with("0.3]}}", "0.3],}}"),
        with("\"Relu\"", "\"Re\\lu\""),
        with("\"Relu\"", "\"Re\\ud800lu\""),
        with("\"Relu\"", "nul"),
        "{\"cmd\":\"verify\",\"model\":{\"input_shape\":{\"Fl".to_string(),
        format!("{{\"cmd\":\"verify\",\"model\":{}", model),
        // Valid JSON, invalid network.
        with("\"bias\":[0.1,-0.2,0.0,0.3]", "\"bias\":[0.1,-0.2,0.0]"),
        with("\"Relu\"", "\"Sigmoid\""),
        with("{\"Flat\":2}", "{\"Flat\":\"2\"}"),
        verify_with("{}", 0.02),
        // Not an object: built, and rejected or named.
        verify_with("[1]", 0.02),
        verify_with("true", 0.02),
        verify_with("null", 0.02),
        verify_with("1.5", 0.02),
        verify_with("\"\"", 0.02),
        verify_with("\"net.json\"", 0.02),
        // Duplicate models, bytes after a brace, a broken rest of line.
        base.replacen("\"model\":", &format!("\"model\":{model},\"model\":"), 1),
        base.replacen("\"model\":", "\"model\":\"net.json\",\"model\":", 1),
        format!("{base}x"),
        format!("{base} }}"),
        format!("{base}\t "),
        base.replacen(&format!("{model},"), &format!("{model} x,"), 1),
        format!("{},\"calls\":-1}}", &base[..end]),
        format!("{},\"bogus\":1}}", &base[..end]),
        base.replacen("\"cmd\":\"verify\"", "\"cmd\":\"launch\"", 1),
        "{\"id\":3,\"cmd\":\"stats\"}".to_string(),
        "[1,2]".to_string(),
        String::new(),
    ];
    for line in &lines {
        assert_same(line);
    }
}

#[test]
fn out_of_range_literals_fail_validation_instead_of_becoming_null() {
    let model = compact(&demo_net(1.0));
    for (from, to) in [
        ("\"data\":[1.0,", "\"data\":[1e400,"),
        ("-0.2,0.0,0.3", "-0.2,-1e400,0.3"),
    ] {
        let line = verify_with(&model.replacen(from, to, 1), 0.02);
        let new = resolve(parse_request(&line)).unwrap_err();
        let old = resolve(reference_request(&line)).unwrap_err();
        assert!(
            new.starts_with("invalid model:") && new.contains("is not finite"),
            "{new}"
        );
        assert!(old.contains("got null"), "{old}");
    }
}

#[test]
fn an_integer_spelled_minus_zero_is_rejected_inline_as_from_a_file() {
    let conv = Conv2d::new(1, 1, 2, 2, 1, 0, vec![0.5; 4], vec![0.0]);
    let net = Network::new(
        Shape::Image { c: 1, h: 3, w: 3 },
        vec![Layer::Conv2d(conv), Layer::flatten()],
    )
    .unwrap();
    let text = compact(&net).replacen("\"padding\":0", "\"padding\":-0", 1);
    assert!(text.contains("-0"));
    assert!(
        abonn_nn::io::from_json(&text).is_err(),
        "a model file never took -0"
    );
    let line = verify_with(&text, 0.02);
    assert!(
        resolve(reference_request(&line)).is_ok(),
        "the write-back made it 0"
    );
    let err = resolve(parse_request(&line)).unwrap_err();
    assert!(err.contains("expected usize"), "{err}");
}

fn model_counters(server: &Server) -> (usize, usize, usize) {
    let c = server.models.counters();
    (c.hits, c.misses, c.evictions)
}

#[test]
fn out_of_range_weights_are_rejected_inline_and_by_name_cold_and_warm() {
    let good = compact(&demo_net(1.0));
    let bad = good.replacen("\"data\":[1.0,", "\"data\":[1e400,", 1);
    let dir = std::env::temp_dir().join(format!("abonn-serve-oracle-inf-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("good.json"), &good).unwrap();
    std::fs::write(dir.join("bad.json"), &bad).unwrap();
    let mut server = Server::new(ServerConfig {
        model_dir: Some(dir.clone()),
        ..ServerConfig::default()
    });
    let rejected = |server: &mut Server, model: &str| {
        let response = server.handle_line(&verify_with(model, 0.02)).unwrap();
        assert!(
            response.contains("\"status\":\"error\"") && response.contains("is not finite"),
            "{response}"
        );
    };
    // Cold: nothing cached yet.
    rejected(&mut server, &bad);
    rejected(&mut server, "\"bad.json\"");
    assert_eq!(model_counters(&server), (0, 0, 0));
    // Warm: the finite model is cached, by inline text and by file text.
    for model in [good.as_str(), "\"good.json\""] {
        let response = server.handle_line(&verify_with(model, 0.02)).unwrap();
        assert!(response.contains("\"status\":\"ok\""), "{response}");
    }
    for _ in 0..2 {
        rejected(&mut server, &bad);
        rejected(&mut server, "\"bad.json\"");
    }
    assert_eq!(model_counters(&server), (1, 1, 0));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn two_spellings_of_one_model_meet_at_one_store_key() {
    let model = compact(&demo_net(1.0));
    let respelled = abonn_nn::io::to_json(&demo_net(1.0))
        .unwrap()
        .replace('\n', " ")
        .replacen("1.0", "1e0", 1);
    assert_ne!(model, respelled);
    let mut server = Server::new(ServerConfig::default());
    let first = server.handle_line(&verify_with(&model, 0.02)).unwrap();
    let second = server.handle_line(&verify_with(&respelled, 0.02)).unwrap();
    let third = server.handle_line(&verify_with(&model, 0.02)).unwrap();
    assert!(first.contains("\"store\":\"miss\""), "{first}");
    assert!(second.contains("\"store\":\"exact\""), "{second}");
    assert!(third.contains("\"store\":\"exact\""), "{third}");
    // The respelling parsed to a cached model; the third request found
    // no kept text (the entry now keeps the respelling) and parsed too.
    assert_eq!(model_counters(&server), (2, 1, 0));
}

/// The stats line that the server before the raw model span (full parse
/// and write-back on every request) answered after the session in
/// [`capacity_one_serves_no_evicted_model_from_its_text`].
const CAPACITY_ONE_STATS: &str = concat!(
    r#"{"id":"end","status":"ok","queries":7,"appver_calls_total":2,"#,
    r#""store":{"families":2,"entries":2,"exact_hits":3,"reuse_unsat":2,"reuse_sat":0,"#,
    r#""reuse_cross":0,"misses":2,"inserts":2,"evicted_families":0,"evicted_entries":0,"#,
    r#""expunged":0},"models":{"cached":1,"hits":1,"misses":6,"evictions":5}}"#
);

#[test]
fn capacity_one_serves_no_evicted_model_from_its_text() {
    let (a, b) = (compact(&demo_net(1.0)), compact(&demo_net(0.5)));
    // (model, epsilon, model-cache hits, misses and evictions after it):
    // every return of an evicted model is a miss; only the repeat of the
    // resident model is a hit.
    let session = [
        (&a, 0.02, (0, 1, 0)),
        (&b, 0.02, (0, 2, 1)),
        (&a, 0.02, (0, 3, 2)),
        (&b, 0.01, (0, 4, 3)),
        (&a, 0.01, (0, 5, 4)),
        (&a, 0.02, (1, 5, 4)),
        (&b, 0.02, (1, 6, 5)),
    ];
    let mut tight = Server::new(ServerConfig {
        model_cache_capacity: 1,
        ..ServerConfig::default()
    });
    let mut roomy = Server::new(ServerConfig::default());
    for (i, (model, epsilon, counters)) in session.into_iter().enumerate() {
        let line = verify_with(model, epsilon);
        let response = tight.handle_line(&line);
        assert_eq!(response, roomy.handle_line(&line), "request {i}");
        assert_eq!(model_counters(&tight), counters, "request {i}");
    }
    let stats = tight
        .handle_line("{\"id\":\"end\",\"cmd\":\"stats\"}")
        .unwrap();
    assert_eq!(stats, CAPACITY_ONE_STATS);
}
