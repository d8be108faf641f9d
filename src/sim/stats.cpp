#include "sim/stats.hpp"

#include <sstream>

#include "sim/world.hpp"

namespace efd {

std::string format_run_report(const World& w) {
  const RunStats& s = w.run_stats();
  const RegisterFile& m = w.memory();
  std::ostringstream os;
  os << "run report\n";
  os << "  steps          : " << s.steps << " (reads " << s.reads << ", writes " << s.writes
     << ", queries " << s.queries << ", yields " << s.yields << ", decides " << s.decides
     << ", null " << s.null_steps << ")\n";
  os << "  crashed steps  : " << s.crashed_attempts << " refused (no time advance)\n";
  if (s.injected_crashes > 0) {
    os << "  fault injection: " << s.injected_crashes << " crash points applied\n";
  }
  os << "  registers      : " << m.footprint() << " written\n";
  int decided = 0;
  for (int i = 0; i < w.num_c(); ++i) {
    if (w.exists(cpid(i)) && w.decided(cpid(i))) ++decided;
  }
  os << "  decided        : " << decided << "/" << w.num_c() << " C-processes\n";
  return os.str();
}

}  // namespace efd
