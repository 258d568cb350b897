//! Overload sweep: four MP1 compute processors drive one proxy in open
//! loop at six target utilisations; the measured command-queue delay is
//! laid beside the §5.4 M/M/1 curve and the peak queue occupancy beside
//! the credit bound. Output is deterministic (seeded arrivals on the
//! bit-deterministic simulator).
//!
//! Thin wrapper over [`mproxy_bench::overload::overload_sweep`] so the
//! unit test that gates the model agreement runs the same code.

use mproxy_bench::overload::{overload_rows, overload_sweep};

fn main() {
    print!("{}", overload_rows(&overload_sweep(false)));
}
