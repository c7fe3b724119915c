//! Reproduces **Fig. 1(b)**: prediction quality of the Neural Kernel versus
//! single primitive kernels on the 180 nm two-stage amplifier (100 training,
//! 50 test points), as in paper §3.1.

use kato_bench::write_csv;
use kato_circuits::{opamp2, random_design, SizingProblem, TechNode};
use kato_gp::{Gp, GpConfig, KernelSpec, NeukSpec, PrimitiveKernel};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn single_primitive(dim: usize, prim: PrimitiveKernel) -> KernelSpec {
    KernelSpec::Neuk(NeukSpec {
        input_dim: dim,
        primitives: vec![prim],
        mix_dim: 1,
    })
}

fn main() {
    let problem = opamp2(TechNode::n180());
    let gain_idx = problem.metric_index("gain_db").expect("gain metric");
    let mut rng = StdRng::seed_from_u64(2024);
    let n_train = 100;
    let n_test = 50;
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for _ in 0..(n_train + n_test) {
        let x = random_design(problem.dim(), &mut rng);
        ys.push(problem.evaluate(&x).get(gain_idx));
        xs.push(x);
    }
    let (x_train, x_test) = xs.split_at(n_train);
    let (y_train, y_test) = ys.split_at(n_train);

    let kernels: Vec<(&str, KernelSpec)> = vec![
        ("Neuk", KernelSpec::neuk(problem.dim())),
        ("ARD-RBF", KernelSpec::ard_rbf(problem.dim())),
        (
            "RBF-only",
            single_primitive(problem.dim(), PrimitiveKernel::Rbf),
        ),
        (
            "RQ-only",
            single_primitive(problem.dim(), PrimitiveKernel::RationalQuadratic),
        ),
        (
            "PER-only",
            single_primitive(problem.dim(), PrimitiveKernel::Periodic),
        ),
    ];

    println!("=== Fig. 1(b): kernel assessment on opamp2_180nm gain (100 train / 50 test) ===");
    let cfg = GpConfig {
        train_iters: 80,
        ..GpConfig::default()
    };
    let mut rows = Vec::new();
    for (name, kernel) in kernels {
        match Gp::fit(kernel, x_train, y_train, &cfg) {
            Ok(gp) => {
                let mut sse = 0.0;
                let mut nll = 0.0;
                for ((m, v), &y) in gp.predict_batch(x_test).into_iter().zip(y_test) {
                    sse += (m - y) * (m - y);
                    let vt = v.max(1e-9);
                    nll += 0.5 * ((2.0 * std::f64::consts::PI * vt).ln() + (y - m) * (y - m) / vt);
                }
                let rmse = (sse / n_test as f64).sqrt();
                let nll = nll / n_test as f64;
                println!("{name:>10}: test RMSE = {rmse:8.3} dB   mean NLL = {nll:8.3}");
                rows.push(format!("{name},{rmse:.4},{nll:.4}"));
            }
            Err(e) => println!("{name:>10}: fit failed: {e}"),
        }
    }
    write_csv("fig1_neuk.csv", "kernel,rmse_db,nll", &rows);
    println!("\nExpected shape (paper Fig. 1b): Neuk at or below every single-primitive kernel.");
}
