//! Model persistence: JSON save/load for [`Network`].
//!
//! The benchmark harness trains models deterministically, but training is
//! the slowest part of every experiment binary's startup; persisting the
//! trained weights lets binaries (and downstream users) share one model
//! zoo on disk. Loaded models are re-validated through [`Network::new`],
//! so a corrupted file can never produce a shape-inconsistent network.

use crate::network::Network;
use std::fs;
use std::io;
use std::path::Path;

/// Serialises a network to pretty-printed JSON.
///
/// # Errors
///
/// Returns any serialisation error (I/O never fails here).
pub fn to_json(net: &Network) -> Result<String, serde_json::Error> {
    serde_json::to_string_pretty(net)
}

/// Deserialises a network from JSON, re-validating all invariants.
///
/// # Errors
///
/// Returns a [`serde_json::Error`] on malformed JSON, dimension mismatches
/// inside a layer, or incompatible layer shapes.
pub fn from_json(text: &str) -> Result<Network, serde_json::Error> {
    serde_json::from_str(text)
}

/// Saves a network to `path` as JSON.
///
/// # Errors
///
/// Returns an I/O error from file creation or a serialisation failure
/// (wrapped into [`io::Error`]).
pub fn save_network(net: &Network, path: &Path) -> io::Result<()> {
    let json = to_json(net).map_err(io::Error::other)?;
    fs::write(path, json)
}

/// Loads a network from a JSON file written by [`save_network`].
///
/// # Errors
///
/// Returns an I/O error when the file is unreadable, or a wrapped
/// deserialisation error when its contents are invalid.
pub fn load_network(path: &Path) -> io::Result<Network> {
    let text = fs::read_to_string(path)?;
    from_json(&text).map_err(io::Error::other)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{Layer, Shape};
    use crate::{init, Conv2d};
    use abonn_tensor::Matrix;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn sample_net() -> Network {
        let mut rng = SmallRng::seed_from_u64(5);
        Network::new(
            Shape::Image { c: 1, h: 4, w: 4 },
            vec![
                init::conv_xavier(1, 2, 3, 1, 1, &mut rng),
                Layer::relu(),
                Layer::flatten(),
                init::dense_xavier(32, 3, &mut rng),
            ],
        )
        .unwrap()
    }

    #[test]
    fn json_roundtrip_preserves_network_exactly() {
        let net = sample_net();
        let json = to_json(&net).unwrap();
        let back = from_json(&json).unwrap();
        assert_eq!(net, back);
        // And behaviourally identical.
        let x = vec![0.3; 16];
        assert_eq!(net.forward(&x), back.forward(&x));
    }

    #[test]
    fn file_roundtrip() {
        let net = sample_net();
        let path = std::env::temp_dir().join("abonn-nn-io-test.json");
        save_network(&net, &path).unwrap();
        let back = load_network(&path).unwrap();
        assert_eq!(net, back);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn corrupted_dense_bias_is_rejected() {
        let net = Network::new(
            Shape::Flat(2),
            vec![Layer::dense(Matrix::identity(2), vec![0.0; 2])],
        )
        .unwrap();
        let json = to_json(&net).unwrap();
        // Truncate the bias array through the JSON value tree.
        let mut v: serde_json::Value = serde_json::from_str(&json).unwrap();
        let bias = &mut v["layers"][0]["Dense"]["bias"];
        *bias = serde_json::json!([0.0]);
        let bad = v.to_string();
        assert!(from_json(&bad).is_err(), "bias mismatch must be rejected");
    }

    #[test]
    fn incompatible_layer_shapes_are_rejected() {
        // Hand-craft a repr whose layers do not chain.
        let bad = serde_json::json!({
            "input_shape": {"Flat": 3},
            "layers": [
                {"Dense": {"weight": {"rows": 2, "cols": 2,
                                       "data": [1.0, 0.0, 0.0, 1.0]},
                            "bias": [0.0, 0.0]}}
            ]
        });
        let text = bad.to_string();
        assert!(from_json(&text).is_err());
    }

    #[test]
    fn conv_weight_length_is_validated() {
        let conv = Conv2d::new(1, 1, 2, 2, 1, 0, vec![0.5; 4], vec![0.0]);
        let net = Network::new(
            Shape::Image { c: 1, h: 3, w: 3 },
            vec![Layer::Conv2d(conv), Layer::flatten()],
        )
        .unwrap();
        let json = to_json(&net).unwrap();
        let bad = json.replacen("\"kh\": 2", "\"kh\": 3", 1);
        assert!(from_json(&bad).is_err());
    }

    #[test]
    fn out_of_range_literals_are_rejected() {
        // `1e400` parses to an infinity: a weight or bias spelled that way
        // must fail to load, in dense and conv layers alike.
        let dense = Network::new(
            Shape::Flat(2),
            vec![Layer::dense(Matrix::identity(2), vec![0.5, 0.25])],
        )
        .unwrap();
        let json = to_json(&dense).unwrap();
        for bad in [
            json.replacen("1.0", "1e400", 1),
            json.replacen("0.25", "-1e400", 1),
        ] {
            assert_ne!(bad, json);
            let err = from_json(&bad).unwrap_err().to_string();
            assert!(err.contains("is not finite"), "{err}");
        }
        let conv = Conv2d::new(1, 1, 2, 2, 1, 0, vec![0.5; 4], vec![0.125]);
        let net = Network::new(
            Shape::Image { c: 1, h: 3, w: 3 },
            vec![Layer::Conv2d(conv), Layer::flatten()],
        )
        .unwrap();
        let json = to_json(&net).unwrap();
        for bad in [
            json.replacen("0.5", "1e400", 1),
            json.replacen("0.125", "1e999", 1),
        ] {
            assert_ne!(bad, json);
            let err = from_json(&bad).unwrap_err().to_string();
            assert!(
                err.contains("conv layer") && err.contains("is not finite"),
                "{err}"
            );
        }
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let err = load_network(Path::new("/nonexistent/abonn.json")).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::NotFound);
    }
}
