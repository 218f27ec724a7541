// Quickstart: build a sparse system, factorise it with PanguLU, solve, and
// check the residual. This is the smallest end-to-end use of the public API.
#include <iostream>
#include <vector>

#include "matgen/generators.hpp"
#include "solver/solver.hpp"
#include "sparse/ops.hpp"

int main() {
  using namespace pangulu;

  // A 3D Poisson problem on a 12^3 grid (1728 unknowns).
  Csc a = matgen::grid3d_laplacian(12, 12, 12);
  std::cout << "matrix: n=" << a.n_cols() << " nnz=" << a.nnz() << "\n";

  // Right-hand side with a known solution of all-ones.
  std::vector<value_t> x_true(static_cast<std::size_t>(a.n_cols()), 1.0);
  std::vector<value_t> b(static_cast<std::size_t>(a.n_rows()));
  a.spmv(x_true, b);

  // Factorise: reordering (MC64 + nested dissection or AMD), symbolic
  // factorisation, 2D blocking, numeric factorisation. Default options run
  // a single simulated rank with adaptive kernel selection.
  solver::Solver solver;
  solver.factorize(a, {}).check();

  const auto& st = solver.stats();
  std::cout << "factorised: nnz(L+U)=" << st.nnz_lu << " block size="
            << st.block_size << " (" << st.nb << "x" << st.nb
            << " blocks), " << st.n_tasks << " kernel tasks\n";
  std::cout << "phase times: reorder=" << st.reorder_seconds
            << "s symbolic=" << st.symbolic_seconds
            << "s preprocess=" << st.preprocess_seconds
            << "s numeric(wall)=" << st.numeric_wall_seconds << "s\n";

  // Solve and verify.
  std::vector<value_t> x(static_cast<std::size_t>(a.n_cols()));
  solver.solve(b, x).check();
  std::cout << "relative residual: " << relative_residual(a, x, b) << "\n";
  std::cout << "x[0]=" << x[0] << " (expect 1.0)\n";
  return 0;
}
