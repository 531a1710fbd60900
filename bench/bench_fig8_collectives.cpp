// Fig. 8 reproduction: RCCL collective bus bandwidth on Frontier
// (AllReduce / AllGather / ReduceScatter) vs GPU count, for 64 MB and 1 GB
// messages, plus the AllReduce message-size curve showing the ~256 MB
// protocol dip — all from the calibrated hpc::CollectiveModel.
#include <iostream>

#include "hpc/collective_model.hpp"
#include "io/table.hpp"

using namespace turbda;
using hpc::Collective;

int main() {
  hpc::CollectiveModel cm;

  std::cout << "=== Fig. 8: RCCL collectives bus bandwidth on Frontier (model) ===\n";
  for (double mb : {64.0, 1024.0}) {
    std::cout << "\nMessage size " << mb << " MB (busbw, GB/s):\n";
    io::Table t({"GPUs", "AllReduce", "AllGather", "ReduceScatter"});
    for (int n : {8, 16, 32, 64, 128, 256, 512, 1024}) {
      const double bytes = mb * 1048576.0;
      t.add_row({std::to_string(n),
                 io::Table::num(cm.bus_bandwidth(Collective::AllReduce, bytes, n), 1),
                 io::Table::num(cm.bus_bandwidth(Collective::AllGather, bytes, n), 1),
                 io::Table::num(cm.bus_bandwidth(Collective::ReduceScatter, bytes, n), 1)});
    }
    t.print();
  }

  std::cout << "\nAllReduce bandwidth vs message size at 512 GPUs (protocol dip ~256 MB):\n";
  io::Table d({"message [MB]", "busbw [GB/s]"});
  for (double mb : {16.0, 32.0, 64.0, 128.0, 192.0, 256.0, 384.0, 512.0, 768.0, 1024.0}) {
    d.add_row({io::Table::num(mb, 0),
               io::Table::num(cm.bus_bandwidth(Collective::AllReduce, mb * 1048576.0, 512), 1)});
  }
  d.print();
  return 0;
}
