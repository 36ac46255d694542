// The overhead gates (bench/overhead_gate.hpp): what each optional
// subsystem costs a busy random-access run when off and when on.
//
//   build/bench/bench_overhead [GATE...] [--out-dir DIR]
#include "bench/overhead_gate.hpp"

int main(int argc, char** argv) {
  return hmcsim::bench::run_main(argc, argv);
}
