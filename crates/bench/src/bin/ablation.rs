//! Ablation study over ABONN's design choices (extension).

use abonn_bench::{experiments, Args};

fn main() {
    let args = Args::from_env();
    print!("{}", experiments::ablation(&args));
}
