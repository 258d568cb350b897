//! Regenerates Figure 8: self-relative speedups of the ten applications
//! on 1–16 processors (one compute processor per node), for all six
//! design points. Speedups are relative to single-processor execution on
//! HW1, exactly as the paper plots them. Each block is headed by the
//! application's name and programming style (Table 5).

use mproxy_apps::{run_app_flat, AppId, AppSize};
use mproxy_model::{ALL_DESIGN_POINTS, HW1};

const PROCS: [usize; 5] = [1, 2, 4, 8, 16];

fn main() {
    for app in AppId::ALL {
        let t1 = run_app_flat(app, HW1, 1, AppSize::Small).elapsed_us;
        println!(
            "\n{} ({}), T(1) on HW1 = {:.0} us — speedups:",
            app.name(),
            app.style(),
            t1
        );
        print!("{:<6}", "procs");
        for d in ALL_DESIGN_POINTS {
            print!(" {:>7}", d.name);
        }
        println!();
        for procs in PROCS {
            print!("{procs:<6}");
            for d in ALL_DESIGN_POINTS {
                let t = run_app_flat(app, d, procs, AppSize::Small).elapsed_us;
                print!(" {:>7.2}", t1 / t);
            }
            println!();
        }
    }
}
