//! Nesting-depth hardening of every JSON decoder that reads untrusted
//! bytes: request and response lines off a socket, and model files.
//!
//! The JSON parser is recursive, so without a depth cap a ~20 KB line of
//! nested brackets overflows a connection thread's stack and aborts the
//! whole process. Each check runs on a thread with the same 2 MiB stack
//! a connection thread gets; in a debug build (the test profile) the
//! frames are at their largest, so a missing cap aborts the test binary.

use serde_json::{Value, MAX_DEPTH};
use udt_serve::protocol::{Request, Response};
use udt_serve::ServeError;
use udt_tree::counts::ClassCounts;
use udt_tree::{persist, DecisionTree, Node};

/// Runs `f` on a thread with a connection-sized (2 MiB) stack.
fn on_connection_stack(f: impl FnOnce() + Send + 'static) {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(f)
        .expect("spawn")
        .join()
        .expect("no panic, no abort");
}

/// `{"<key>":<value>,"x":[[…]]}` with `depth` containers in total.
fn nested_line(key: &str, value: &str, depth: usize) -> String {
    let inner = depth - 1;
    format!(
        "{{\"{key}\":{value},\"x\":{}{}}}",
        "[".repeat(inner),
        "]".repeat(inner)
    )
}

#[test]
fn a_value_at_the_depth_cap_parses() {
    on_connection_stack(|| {
        let text = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(serde_json::from_str::<Value>(&text).is_ok());
        // A request line at the cap is well-formed JSON; `stats` ignores
        // the extra field.
        let line = nested_line("cmd", "\"stats\"", MAX_DEPTH);
        assert!(Request::parse(&line).is_ok(), "{}", line.len());
    });
}

#[test]
fn deeper_values_are_typed_errors_from_every_decoder() {
    on_connection_stack(|| {
        for depth in [MAX_DEPTH + 1, 10_000] {
            let err = Request::parse(&nested_line("cmd", "\"stats\"", depth)).unwrap_err();
            assert!(matches!(err, ServeError::Protocol(_)), "{err}");
            assert_eq!(err.code(), "bad_request");
            assert!(err.to_string().contains("nesting"), "{err}");

            let err = Response::parse(&nested_line("ok", "true", depth)).unwrap_err();
            assert!(matches!(err, ServeError::Protocol(_)), "{err}");

            let err = persist::from_json(&nested_line("root", "null", depth)).unwrap_err();
            assert!(err.to_string().contains("nesting"), "{err}");
        }
    });
}

#[test]
fn deep_legacy_boxed_models_still_load() {
    // The legacy format nests two JSON levels per tree level; a chain of
    // 100 splits is four times the builder's default depth cap.
    on_connection_stack(|| {
        let leaf = |a: f64| Node::Leaf {
            distribution: vec![a, 1.0 - a],
            counts: ClassCounts::from_vec(vec![a, 1.0 - a]),
        };
        let mut root = leaf(0.5);
        for level in 0..100 {
            root = Node::Split {
                attribute: 0,
                split: level as f64,
                counts: ClassCounts::from_vec(vec![1.0, 1.0]),
                left: Box::new(leaf(0.25)),
                right: Box::new(root),
            };
        }
        let tree = DecisionTree::new(root, 1, vec!["A".into(), "B".into()]);
        let json = persist::to_legacy_json(&tree).expect("legacy writer");
        let restored = persist::from_json(&json).expect("a deep legacy model loads");
        assert_eq!(restored.flat(), tree.flat());
    });
}
