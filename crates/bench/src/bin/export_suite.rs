//! Exports the benchmark suite in interchange formats: one JSON model per
//! benchmark network and one VNN-LIB property file per instance, so other
//! verification tools can run the exact same problems.
//!
//! Output layout (under `--out-dir`, default `target/experiments`):
//!
//! ```text
//! suite/
//!   MNIST_L2/model.json
//!   MNIST_L2/instance_000.vnnlib
//!   …
//! ```

use abonn_bench::scenario::prepare_model_cached;
use abonn_bench::Args;
use abonn_data::zoo::ModelKind;
use abonn_nn::io as nn_io;
use abonn_vnnlib::write_robustness;
use std::fs;

fn main() {
    let args = Args::from_env();
    let root = args.out_dir.join("suite");
    let mut total = 0usize;
    for kind in ModelKind::ALL {
        let prepared = prepare_model_cached(kind, args.scale.per_model(), args.seed, &args.out_dir);
        let dir = root.join(kind.paper_name());
        fs::create_dir_all(&dir).expect("create suite directory");
        nn_io::save_network(&prepared.network, &dir.join("model.json")).expect("write model");
        for inst in &prepared.instances {
            let text = write_robustness(
                &inst.input,
                inst.epsilon,
                inst.label,
                prepared.network.output_dim(),
            );
            let path = dir.join(format!("instance_{:03}.vnnlib", inst.id));
            fs::write(path, text).expect("write property");
            total += 1;
        }
        println!(
            "{}: model.json + {} properties",
            kind.paper_name(),
            prepared.instances.len()
        );
    }
    println!("exported {total} instances under {}", root.display());
}
