//! Regenerates **every table and figure** of the paper's evaluation
//! section and prints them in paper layout:
//!
//! * Table 2 / Figure 4 — baseline cycle counts per machine mode
//! * Figure 5 — function-unit utilizations
//! * Table 3 — thread interference under priority arbitration
//! * Figure 6 — restricted communication schemes (+ area model)
//! * Figure 7 — variable memory latency
//! * Figure 8 — number and mix of function units
//!
//! ```sh
//! cargo run --release --example paper_tables          # everything
//! cargo run --release --example paper_tables table2   # one artifact
//! ```

use coupling::experiments::{baseline, comm, interference, latency, mix};
use coupling::{benchmarks, default_jobs, MachineMode};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let filter = std::env::args().nth(1).unwrap_or_default();
    let want = |k: &str| filter.is_empty() || filter == k;
    let (suite, jobs) = (benchmarks::all(), default_jobs());

    if want("table2") || want("fig4") || want("fig5") {
        let r = baseline::run(&suite, jobs)?;
        println!("{}", r.table2().render());
        println!("{}", r.fig5().render());
        let avg = |mode: MachineMode| {
            let benches = ["Matrix", "FFT", "LUD", "Model"];
            let mut acc = 0.0;
            let mut n = 0;
            for b in benches {
                if let Some(x) = r.vs_coupled(b, mode) {
                    acc += x;
                    n += 1;
                }
            }
            acc / n as f64
        };
        println!(
            "mean cycles vs Coupled: SEQ {:.2}  STS {:.2}  TPE {:.2}  Ideal {:.2}",
            avg(MachineMode::Seq),
            avg(MachineMode::Sts),
            avg(MachineMode::Tpe),
            avg(MachineMode::Ideal),
        );
        println!();
    }

    if want("table3") {
        let r = interference::run()?;
        println!("{}", r.render());
    }

    if want("fig6") {
        let r = comm::run(&suite, jobs)?;
        println!("{}", r.render());
        for s in pc_isa::InterconnectScheme::all() {
            println!(
                "  mean cycle overhead {}: {:.3}",
                s.label(),
                r.mean_overhead(s)
            );
        }
        println!();
    }

    if want("fig7") {
        let r = latency::run(&suite, jobs)?;
        println!("{}", r.render());
        for mode in latency::modes() {
            println!(
                "  mean Mem2/Min slowdown {}: {:.2}",
                mode.label(),
                r.mean_mem2_slowdown(mode)
            );
        }
        println!();
    }

    if want("fig8") {
        let r = mix::run(&suite, 4, jobs)?;
        println!("{}", r.render());
    }

    Ok(())
}
