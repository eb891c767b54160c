//! Reproduces the paper's **Figures 1 and 2**: the dynamic interleaving
//! of statically scheduled instruction streams over the function units,
//! and the cycle-by-cycle mapping of units to threads.
//!
//! ```sh
//! cargo run --release --example interleaving
//! ```
//!
//! Three threads (A, B, C — here t1, t2, t3) are compiled separately and
//! run concurrently; the trace shows operations from different threads
//! sharing the units within single cycles, with some operations delayed
//! by unit conflicts and intra-row slip.

use pc_compiler::{compile, ScheduleMode};
use pc_isa::MachineConfig;
use pc_sim::{trace, Machine, RingSink};
use std::cell::RefCell;
use std::rc::Rc;

const SRC: &str = r#"
(global xs (array float 32))
(global done (array int 3))

;; Three threads with different amounts of instruction-level parallelism,
;; like threads A, B, C of Figure 1.
(defun main ()
  (fork ; thread A: wide float work
    (aset xs 0 (+ (* (aref xs 8) 2.0) (* (aref xs 9) 3.0)))
    (aset xs 1 (+ (* (aref xs 10) 4.0) (* (aref xs 11) 5.0)))
    (produce done 0 1))
  (fork ; thread B: serial integer chain
    (let ((acc 1))
      (for (i 0 4) (set acc (* (+ acc 3) 2)))
      (aset xs 2 (float acc)))
    (produce done 1 1))
  (fork ; thread C: memory-heavy
    (aset xs 3 (+ (aref xs 12) (aref xs 13)))
    (aset xs 4 (+ (aref xs 14) (aref xs 15)))
    (produce done 2 1))
  (for (q 0 3) (consume done q)))
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = MachineConfig::baseline();
    let out = compile(SRC, &config, ScheduleMode::Unrestricted)?;
    let mut m = Machine::new(config.clone(), out.program)?;
    let xs: Vec<pc_isa::Value> = (0..32)
        .map(|i| pc_isa::Value::Float(i as f64 * 0.5))
        .collect();
    m.write_global("xs", &xs)?;
    m.set_global_empty("done")?;
    // The issue trace is the ring sink's issue events (unbounded ring).
    let ring = Rc::new(RefCell::new(RingSink::new(usize::MAX)));
    m.attach_probe(Box::new(Rc::clone(&ring)));
    let stats = m.run(10_000)?;
    let events = ring.borrow().issue_events();

    println!("Figure 1 — runtime interleaving of the threads' schedules:\n");
    let last = events.iter().map(|e| e.cycle).max().unwrap_or(0);
    println!(
        "{}",
        trace::render_interleaving(&config, &events, 0..last + 1)
    );

    println!("Figure 2 — mapping of function units to threads, first cycles:\n");
    for c in 0..6.min(last + 1) {
        println!("  {}", trace::render_unit_mapping(&config, &events, c));
    }

    println!("\nsharing summary (unit class, thread, ops issued):");
    for (class, thread, n) in trace::sharing_summary(&config, &events) {
        println!("  {:>3}  t{thread}  {n}", class.label());
    }
    println!(
        "\n{} operations over {} cycles from {} threads",
        stats.ops_issued, stats.cycles, stats.threads_spawned
    );
    Ok(())
}
