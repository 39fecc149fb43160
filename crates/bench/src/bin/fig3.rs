//! Regenerates Fig. 3 (BaB-baseline tree-size distribution).

use abonn_bench::{experiments, Args};

fn main() {
    let args = Args::from_env();
    let records = experiments::rq1_records(&args);
    print!("{}", experiments::fig3(&args, &records));
}
