//! Numerical-kernel microbenchmarks: the SVD/eigen primitives the
//! Grassmann pipeline leans on, plus homography estimation and RANSAC.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use eecs_geometry::homography::Homography;
use eecs_geometry::point::Point2;
use eecs_geometry::ransac::{ransac_homography, RansacConfig};
use eecs_linalg::eig::symmetric_eigen;
use eecs_linalg::svd::thin_svd;
use eecs_linalg::Mat;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::hint::black_box;

fn random_mat(rows: usize, cols: usize, seed: u64) -> Mat {
    let mut rng = StdRng::seed_from_u64(seed);
    Mat::from_fn(rows, cols, |_, _| rng.random_range(-1.0..1.0))
}

fn kernel_benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("linalg");
    for &n in &[8usize, 16, 32] {
        let a = random_mat(n, n, n as u64);
        group.bench_with_input(BenchmarkId::new("svd", n), &a, |b, a| {
            b.iter(|| black_box(thin_svd(black_box(a))))
        });
        let sym = a.transpose_matmul(&a).unwrap();
        group.bench_with_input(BenchmarkId::new("eigen", n), &sym, |b, s| {
            b.iter(|| black_box(symmetric_eigen(black_box(s)).unwrap()))
        });
    }
    group.finish();

    let mut geo = c.benchmark_group("geometry");
    let mut rng = StdRng::seed_from_u64(3);
    let src: Vec<Point2> = (0..40)
        .map(|_| Point2::new(rng.random_range(0.0..100.0), rng.random_range(0.0..100.0)))
        .collect();
    let dst: Vec<Point2> = src
        .iter()
        .map(|p| Point2::new(0.9 * p.x - 0.1 * p.y + 3.0, 0.2 * p.x + 1.1 * p.y - 5.0))
        .collect();
    geo.bench_function("homography_dlt_40pts", |b| {
        b.iter(|| black_box(Homography::estimate(black_box(&src), black_box(&dst)).unwrap()))
    });
    let mut noisy = dst.clone();
    for i in (0..noisy.len()).step_by(5) {
        noisy[i] = Point2::new(noisy[i].x + 300.0, noisy[i].y);
    }
    geo.bench_function("ransac_homography_40pts_20pct_outliers", |b| {
        b.iter(|| {
            black_box(
                ransac_homography(
                    black_box(&src),
                    black_box(&noisy),
                    &RansacConfig {
                        iterations: 200,
                        ..Default::default()
                    },
                )
                .unwrap(),
            )
        })
    });
    geo.finish();
}

criterion_group!(benches, kernel_benches);
criterion_main!(benches);
