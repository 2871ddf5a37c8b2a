/// Domain example: scaling the block-asynchronous iteration across
/// multiple (simulated) GPUs with the three communication schemes of
/// the paper's Section 3.4, on the Trefethen_20000 system.
///
///   build/examples/multigpu_scaling [n]   (default 20000)

#include <cstdlib>
#include <iostream>

#include "core/block_async.hpp"
#include "matrices/generators.hpp"

int main(int argc, char** argv) {
  using namespace bars;
  const index_t n = argc > 1 ? std::atoll(argv[1]) : 20000;
  const Csr a = trefethen(n);
  const Vector b(static_cast<std::size_t>(n), 1.0);
  std::cout << "Trefethen_" << n << ": nnz = " << a.nnz() << "\n\n";

  for (auto scheme :
       {gpusim::TransferScheme::kAMC, gpusim::TransferScheme::kDC,
        gpusim::TransferScheme::kDK}) {
    std::cout << to_string(scheme) << ":";
    double t1 = 0.0;
    for (index_t devices = 1; devices <= 4; ++devices) {
      BlockAsyncOptions o;
      o.num_devices = devices;
      o.scheme = scheme;
      o.block_size = 448;
      o.local_iters = 5;
      o.matrix_name = n == 20000 ? "Trefethen_20000" : "Trefethen_2000";
      o.solve.tol = 1e-10;
      o.solve.max_iters = 1000;
      const BlockAsyncResult r = block_async_solve(a, b, o);
      if (devices == 1) t1 = r.virtual_time;
      std::cout << "  " << devices << " GPU"
                << (devices > 1 ? "s" : " ") << " "
                << r.virtual_time << "s ("
                << (t1 > 0 ? t1 / r.virtual_time : 0.0) << "x)";
    }
    std::cout << '\n';
  }
  std::cout << "\nAMC uses per-device PCIe links (scales); DC/DK serialize "
               "on the master GPU's link (the paper's Fig. 11).\n";
  return 0;
}
