// Must not compile: a capture one byte larger than Simulator::Action's
// inline buffer. The ctest `sim_rejects_oversized_capture` builds this
// file and passes only when the compiler stops at the kernel's
// static_assert, so an oversized capture can never silently allocate.
#include <array>

#include "sim/simulator.hpp"

int main() {
  lagover::Simulator sim;
  std::array<unsigned char, lagover::Simulator::Action::kCapacity + 1> big{};
  sim.schedule_after(1.0, [big] { (void)big; });
  return static_cast<int>(sim.run());
}
