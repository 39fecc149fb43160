//! Regenerates Fig. 6 (RQ3: violated vs certified breakdown).

use abonn_bench::{experiments, Args};

fn main() {
    let args = Args::from_env();
    let records = experiments::rq1_records(&args);
    print!("{}", experiments::fig6(&args, &records));
}
