//! Regenerates Table I (benchmark details).

use abonn_bench::{experiments, Args};

fn main() {
    let args = Args::from_env();
    print!("{}", experiments::table1(&args));
}
