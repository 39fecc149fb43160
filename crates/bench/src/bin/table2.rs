//! Regenerates Table II (RQ1: solved instances and average cost).

use abonn_bench::{experiments, Args};

fn main() {
    let args = Args::from_env();
    let records = experiments::rq1_records(&args);
    print!("{}", experiments::table2(&args, &records));
}
