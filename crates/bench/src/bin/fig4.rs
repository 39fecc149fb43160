//! Regenerates Fig. 4 (RQ1: per-instance speedup scatter).

use abonn_bench::{experiments, Args};

fn main() {
    let args = Args::from_env();
    let records = experiments::rq1_records(&args);
    print!("{}", experiments::fig4(&args, &records));
}
