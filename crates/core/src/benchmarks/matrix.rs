//! **Matrix**: a 9×9 floating-point matrix multiply with the inner (k)
//! loop unrolled completely (paper §4). The threaded variant executes all
//! iterations of the outer loop in parallel; the ideal variant unrolls
//! everything.

use super::{check_close, read_floats, write_floats, Benchmark};
use pc_sim::Machine;

fn globals() -> String {
    "(const n 9)
     (global ma (array float 81))
     (global mb (array float 81))
     (global mc (array float 81))
     (global done (array int 9))"
        .to_string()
}

/// The inner-product body shared by all variants (k loop unrolled, as in
/// the paper).
fn body(i: &str, j: &str) -> String {
    format!(
        "(let ((s 0.0))
           (for (k 0 n) :unroll full
             (set s (+ s (* (aref ma (+ (* {i} n) k)) (aref mb (+ (* k n) {j})))) ))
           (aset mc (+ (* {i} n) {j}) s))"
    )
}

/// Deterministic `n × n` input matrices.
fn inputs(n: usize) -> (Vec<f64>, Vec<f64>) {
    let a: Vec<f64> = (0..n * n).map(|x| 0.25 * ((x % 7) as f64) - 0.75).collect();
    let b: Vec<f64> = (0..n * n).map(|x| 0.5 * ((x % 5) as f64) - 1.0).collect();
    (a, b)
}

/// Reference `n × n` matmul.
fn reference(n: usize) -> Vec<f64> {
    let (a, b) = inputs(n);
    let mut c = vec![0.0; n * n];
    for i in 0..n {
        for j in 0..n {
            let mut s = 0.0;
            for k in 0..n {
                s += a[i * n + k] * b[k * n + j];
            }
            c[i * n + j] = s;
        }
    }
    c
}

/// The side `n` of the `n × n` multiply loaded in `m`, read from the
/// length of its `ma` global, so the hooks serve every problem size.
fn side(m: &Machine) -> usize {
    let len = m.program().symbol("ma").map_or(0, |s| s.len);
    (len as f64).sqrt().round() as usize
}

/// Writes the inputs and empties the `done` cells.
pub(crate) fn setup(m: &mut Machine) -> Result<(), pc_sim::SimError> {
    let (a, b) = inputs(side(m));
    write_floats(m, "ma", &a)?;
    write_floats(m, "mb", &b)?;
    m.set_global_empty("done")?;
    Ok(())
}

/// Checks `mc` against the reference product.
pub(crate) fn check(m: &mut Machine) -> Result<(), String> {
    let got = read_floats(m, "mc")?;
    check_close("mc", &got, &reference(side(m)), 1e-9)
}

/// Builds the Matrix benchmark.
pub fn matrix() -> Benchmark {
    let seq_src = format!(
        "{}
         (defun main ()
           (for (i 0 n)
             (for (j 0 n)
               {})))",
        globals(),
        body("i", "j")
    );
    let threaded_src = format!(
        "{}
         (defun main ()
           (forall (i 0 n)
             (for (j 0 n)
               {})
             (produce done i 1))
           (for (i2 0 n) (consume done i2)))",
        globals(),
        body("i", "j")
    );
    let ideal_src = format!(
        "{}
         (defun main ()
           (for (i 0 n) :unroll full
             (for (j 0 n) :unroll full
               {})))",
        globals(),
        body("i", "j")
    );
    Benchmark {
        name: "Matrix",
        seq_src,
        threaded_src,
        ideal_src: Some(ideal_src),
        setup,
        check,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_is_consistent() {
        let c = reference(9);
        assert_eq!(c.len(), 81);
        // Spot-check one entry by hand.
        let (a, b) = inputs(9);
        let mut s = 0.0;
        for k in 0..9 {
            s += a[2 * 9 + k] * b[k * 9 + 5];
        }
        assert!((c[2 * 9 + 5] - s).abs() < 1e-12);
    }

    #[test]
    fn sources_parse() {
        let b = matrix();
        pc_compiler::front::expand(&b.seq_src).unwrap();
        pc_compiler::front::expand(&b.threaded_src).unwrap();
        pc_compiler::front::expand(b.ideal_src.as_ref().unwrap()).unwrap();
    }
}
