//! Regenerates Fig. 5 (RQ2: hyperparameter heatmaps).

use abonn_bench::{experiments, Args};

fn main() {
    let args = Args::from_env();
    print!("{}", experiments::fig5(&args));
}
