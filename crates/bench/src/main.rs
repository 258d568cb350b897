//! Rewrites every archived report, `results/<name>.txt`, from
//! [`mproxy_bench::reports::ALL`]. Takes no flags; `git diff results/`
//! shows what a change moved.

use std::fs;
use std::path::Path;
use std::time::Instant;

fn main() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    for (name, report) in mproxy_bench::reports::ALL {
        let start = Instant::now();
        let path = dir.join(format!("{name}.txt"));
        fs::write(&path, report()).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        println!("results/{name}.txt  {:.2} s", start.elapsed().as_secs_f64());
    }
}
