//! Principal component analysis, implemented from scratch.
//!
//! The analyzer only needs PCA for dimensionality reduction of step
//! vectors (at most a few hundred dimensions), so a dense covariance
//! matrix plus a cyclic Jacobi eigensolver is plenty.

// Dense matrix math reads clearest with explicit indices.
#![allow(clippy::needless_range_loop)]

/// Fixed number of accumulation chunks for mean and covariance. The chunk
/// structure depends only on the row count, and partials are merged in
/// chunk order, so the floating-point result is a function of the input
/// alone.
const COV_CHUNKS: usize = 64;

/// Splits `0..n` into the fixed [`COV_CHUNKS`] structure and folds `f`'s
/// per-chunk partials with `merge`, in chunk order.
fn chunked_accumulate<R>(
    n: usize,
    f: impl Fn(std::ops::Range<usize>) -> R,
    mut acc: R,
    mut merge: impl FnMut(&mut R, R),
) -> R {
    let chunk_len = n.div_ceil(COV_CHUNKS).max(1);
    for c in 0..n.div_ceil(chunk_len) {
        merge(&mut acc, f(c * chunk_len..((c + 1) * chunk_len).min(n)));
    }
    acc
}

/// Projects row vectors onto their top `k` principal components.
///
/// Centers the data, forms the covariance matrix, diagonalizes it with
/// Jacobi rotations, and projects onto the eigenvectors with the largest
/// eigenvalues. Components with (numerically) zero variance are dropped,
/// so the output may have fewer than `k` columns.
///
/// # Panics
///
/// Panics if rows have unequal lengths.
pub fn project(rows: &[Vec<f64>], k: usize) -> Vec<Vec<f64>> {
    let n = rows.len();
    if n == 0 || k == 0 {
        return vec![Vec::new(); n];
    }
    let d = rows[0].len();
    assert!(
        rows.iter().all(|r| r.len() == d),
        "all rows must share one dimensionality"
    );
    if d == 0 {
        return vec![Vec::new(); n];
    }

    // Center.
    let mut mean = chunked_accumulate(
        n,
        |range| {
            let mut sum = vec![0.0; d];
            for row in &rows[range] {
                for (m, x) in sum.iter_mut().zip(row) {
                    *m += x;
                }
            }
            sum
        },
        vec![0.0; d],
        |acc, partial| {
            for (m, x) in acc.iter_mut().zip(&partial) {
                *m += x;
            }
        },
    );
    for m in &mut mean {
        *m /= n as f64;
    }

    // Covariance (d × d, symmetric).
    let mut cov = chunked_accumulate(
        n,
        |range| {
            let mut cov = vec![vec![0.0; d]; d];
            for row in &rows[range] {
                for i in 0..d {
                    let xi = row[i] - mean[i];
                    if xi == 0.0 {
                        continue;
                    }
                    for j in i..d {
                        cov[i][j] += xi * (row[j] - mean[j]);
                    }
                }
            }
            cov
        },
        vec![vec![0.0; d]; d],
        |acc, partial| {
            for (ai, pi) in acc.iter_mut().zip(&partial) {
                for (a, p) in ai.iter_mut().zip(pi) {
                    *a += p;
                }
            }
        },
    );
    let denom = (n.max(2) - 1) as f64;
    for i in 0..d {
        for j in i..d {
            cov[i][j] /= denom;
            cov[j][i] = cov[i][j];
        }
    }

    let (eigenvalues, eigenvectors) = jacobi_eigen(cov);

    // Order components by descending eigenvalue; keep top-k informative.
    // `total_cmp` gives a total order even if a degenerate input (e.g. a
    // constant feature column, or non-finite covariance entries) yields a
    // NaN eigenvalue; NaN maps to -inf so it sorts last rather than
    // stealing a top-k slot from a real component.
    let mut order: Vec<usize> = (0..d).collect();
    let sort_key = |c: usize| {
        let e = eigenvalues[c];
        if e.is_nan() {
            f64::NEG_INFINITY
        } else {
            e
        }
    };
    order.sort_by(|&a, &b| sort_key(b).total_cmp(&sort_key(a)));
    let kept: Vec<usize> = order
        .into_iter()
        .take(k)
        .filter(|&c| eigenvalues[c] > 1e-12)
        .collect();

    rows.iter()
        .map(|row| {
            kept.iter()
                .map(|&c| {
                    (0..d)
                        .map(|i| (row[i] - mean[i]) * eigenvectors[i][c])
                        .sum()
                })
                .collect()
        })
        .collect()
}

/// Cyclic Jacobi eigendecomposition of a symmetric matrix. Returns
/// `(eigenvalues, eigenvector_columns)` where column `c` of the returned
/// matrix is the eigenvector for `eigenvalues[c]`.
pub(crate) fn jacobi_eigen(mut a: Vec<Vec<f64>>) -> (Vec<f64>, Vec<Vec<f64>>) {
    let d = a.len();
    let mut v: Vec<Vec<f64>> = (0..d)
        .map(|i| (0..d).map(|j| if i == j { 1.0 } else { 0.0 }).collect())
        .collect();
    for _sweep in 0..64 {
        let mut off = 0.0;
        for i in 0..d {
            for j in (i + 1)..d {
                off += a[i][j] * a[i][j];
            }
        }
        if off < 1e-18 {
            break;
        }
        for p in 0..d {
            for q in (p + 1)..d {
                if a[p][q].abs() < 1e-15 {
                    continue;
                }
                let theta = (a[q][q] - a[p][p]) / (2.0 * a[p][q]);
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                for i in 0..d {
                    let aip = a[i][p];
                    let aiq = a[i][q];
                    a[i][p] = c * aip - s * aiq;
                    a[i][q] = s * aip + c * aiq;
                }
                for j in 0..d {
                    let apj = a[p][j];
                    let aqj = a[q][j];
                    a[p][j] = c * apj - s * aqj;
                    a[q][j] = s * apj + c * aqj;
                }
                for i in 0..d {
                    let vip = v[i][p];
                    let viq = v[i][q];
                    v[i][p] = c * vip - s * viq;
                    v[i][q] = s * vip + c * viq;
                }
            }
        }
    }
    let eigenvalues = (0..d).map(|i| a[i][i]).collect();
    (eigenvalues, v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn projects_2d_line_onto_one_component() {
        // Points along y = 2x: one informative direction.
        let rows: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64, 2.0 * i as f64]).collect();
        let projected = project(&rows, 2);
        // Second component has zero variance and is dropped.
        assert!(projected.iter().all(|r| r.len() == 1));
        // Projection preserves ordering along the line.
        for pair in projected.windows(2) {
            assert!((pair[1][0] - pair[0][0]).abs() > 0.1);
        }
    }

    #[test]
    fn preserves_pairwise_distances_when_keeping_all_components() {
        let rows = vec![
            vec![1.0, 0.0, 3.0],
            vec![2.0, 1.0, 0.0],
            vec![0.0, 5.0, 1.0],
            vec![4.0, 2.0, 2.0],
        ];
        let projected = project(&rows, 3);
        let d =
            |a: &[f64], b: &[f64]| -> f64 { a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum() };
        for i in 0..rows.len() {
            for j in 0..rows.len() {
                let before = d(&rows[i], &rows[j]);
                let after = d(&projected[i], &projected[j]);
                assert!(
                    (before - after).abs() < 1e-6,
                    "distance {i}-{j}: {before} vs {after}"
                );
            }
        }
    }

    #[test]
    fn top_component_captures_dominant_variance() {
        // Variance 100 along x, 1 along y.
        let rows: Vec<Vec<f64>> = (0..50)
            .map(|i| {
                let t = (i as f64 - 25.0) / 2.5;
                vec![10.0 * t, t.sin()]
            })
            .collect();
        let projected = project(&rows, 1);
        assert!(projected.iter().all(|r| r.len() == 1));
        let var: f64 = {
            let mean: f64 = projected.iter().map(|r| r[0]).sum::<f64>() / projected.len() as f64;
            projected.iter().map(|r| (r[0] - mean).powi(2)).sum::<f64>() / projected.len() as f64
        };
        assert!(var > 900.0, "kept component variance {var}");
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        assert!(project(&[], 5).is_empty());
        let constant = vec![vec![3.0, 3.0]; 4];
        let projected = project(&constant, 2);
        // All components have zero variance: rows become empty.
        assert!(projected.iter().all(|r| r.is_empty()));
    }

    #[test]
    fn constant_column_never_panics_the_eigenvalue_sort() {
        // A constant feature column yields a zero-variance direction;
        // composed with non-finite inputs it can surface NaN eigenvalues.
        // The sort must stay total (no `partial_cmp(..).unwrap()` panic)
        // and real components must still win the top-k slots.
        let rows: Vec<Vec<f64>> = (0..32)
            .map(|i| {
                let t = i as f64;
                vec![7.0, t.sin() * 3.0, 7.0, t * 0.5]
            })
            .collect();
        let projected = project(&rows, 4);
        assert_eq!(projected.len(), rows.len());
        // Only the two varying directions carry variance.
        assert!(projected.iter().all(|r| r.len() <= 2), "{projected:?}");
        assert!(projected.iter().all(|r| r.iter().all(|v| v.is_finite())));

        // NaN cells poison the covariance into NaN eigenvalues; the sort
        // and projection must survive rather than panic.
        let mut poisoned = rows;
        poisoned[3][1] = f64::NAN;
        let projected = project(&poisoned, 2);
        assert_eq!(projected.len(), poisoned.len());
    }

    #[test]
    fn jacobi_diagonalizes_known_matrix() {
        // [[2, 1], [1, 2]] has eigenvalues 1 and 3.
        let (mut vals, _) = jacobi_eigen(vec![vec![2.0, 1.0], vec![1.0, 2.0]]);
        vals.sort_by(f64::total_cmp);
        assert!((vals[0] - 1.0).abs() < 1e-9);
        assert!((vals[1] - 3.0).abs() < 1e-9);
    }
}
