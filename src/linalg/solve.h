// Direct solvers and matrix inverses for small dense complex systems.
#pragma once

#include "linalg/matrix.h"

namespace flexcore::linalg {

/// Inverse of a square matrix by Gauss-Jordan elimination with partial
/// pivoting.  Throws std::runtime_error if the matrix is (numerically)
/// singular.
CMat inverse(const CMat& a);

/// Cholesky factor L (lower triangular, real positive diagonal) of a
/// Hermitian positive-definite matrix: a = L L^H.  Throws if not PD.
CMat cholesky(const CMat& a);

/// Zero-forcing (pseudo-inverse) receive filter:  W = (H^H H)^-1 H^H.
CMat zf_filter(const CMat& h);

/// MMSE receive filter:  W = (H^H H + noise_var I)^-1 H^H.
/// `noise_var` is the per-receive-antenna complex noise variance, assuming
/// unit average symbol energy.
CMat mmse_filter(const CMat& h, double noise_var);

}  // namespace flexcore::linalg
