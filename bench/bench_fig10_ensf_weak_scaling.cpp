// Fig. 10 reproduction: weak scaling of EnSF on Frontier up to 1024 GPUs for
// state dimensions 1e6 / 1e7 / 1e8, from the calibrated hpc::EnsfScalingModel
// (anchored to the paper's 0.4 s and 28 s per-step measurements). The real
// EnSF analysis's thread scaling on this host is measured by
// bench_ablation_ensf and recorded in BENCH_ensf.json.
#include <iostream>

#include "hpc/scaling_sim.hpp"
#include "io/table.hpp"

using namespace turbda;

int main() {
  std::cout << "=== Fig. 10: EnSF weak scaling on Frontier (model) ===\n";
  std::cout << "Time per filter step [s]; ensemble members are rank-parallel, so lines are "
               "flat:\n";
  hpc::EnsfScalingModel model;
  io::Table t({"GPUs", "dim 1e6", "dim 1e7", "dim 1e8"});
  for (int n : {8, 16, 32, 64, 128, 256, 512, 1024}) {
    t.add_row({std::to_string(n), io::Table::num(model.step_seconds(1e6, n), 3),
               io::Table::num(model.step_seconds(1e7, n), 3),
               io::Table::num(model.step_seconds(1e8, n), 3)});
  }
  t.print();
  std::cout << "Paper anchors: ~0.4 s/step at 1M dimensions, ~28 s at 100M.\n";
  return 0;
}
