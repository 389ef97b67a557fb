//! Fixture: the bench class may read wall clocks and unwrap.

use std::time::Instant;

pub fn measure<F: FnMut()>(mut f: F) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64()
}

pub fn report(samples: Vec<f64>) -> f64 {
    samples.into_iter().next().unwrap()
}
