// E13 (memory addressing): old string-keyed store vs interned RegId store.
//
// The seed's RegisterFile was an unordered_map<std::string, Value> and every
// access built the register name ("base[i]") and hashed it; its content hash
// rehashed the whole footprint per call. That legacy store is reproduced
// locally here and driven next to the RegId-indexed flat-vector store of
// sim/memory.hpp through the four hot operations of the simulator: write,
// read, a collect-style sweep, and the exploration-dedup content hash. The
// allocation probe checks the tentpole claim that register access does no
// string construction: interned ops allocate nothing, legacy ops allocate
// once per register name that outgrows the small-string buffer.
// perfbench's memory.*_ns layers time the interned store.
#include "bench_common.hpp"

#include <string>
#include <unordered_map>

EFD_BENCH_ALLOC_PROBE()

namespace efd {
namespace {

constexpr int kRegs = 256;           // footprint per store, matching mid-size runs
constexpr int kOps = 16 * kRegs;     // counted operations per variant

/// Keeps the reads' results observable so the read loops are not elided.
volatile std::int64_t g_sink = 0;

/// Runs `ops` (kOps counted operations, after the caller's warm-up fill)
/// once and records its heap allocations per operation.
template <class Ops>
void count_allocs(const char* name, Ops ops) {
  const std::uint64_t a0 = bench::alloc_count();
  ops();
  bench::record(name, {},
                {{"allocs_per_step", bench::per_step(bench::alloc_count() - a0, kOps)},
                 {"ops", kOps}});
}

/// The seed's string-keyed register file, verbatim semantics: name built and
/// hashed on every access, content hash recomputed over the whole footprint.
class LegacyRegisterFile {
 public:
  [[nodiscard]] Value read(const std::string& addr) const {
    const auto it = cells_.find(addr);
    return it == cells_.end() ? Value{} : it->second;
  }
  void write(const std::string& addr, Value v) { cells_[addr] = std::move(v); }
  [[nodiscard]] std::uint64_t content_hash() const {
    std::uint64_t acc = 0;
    for (const auto& [k, v] : cells_) {
      acc += cell_content_hash(std::hash<std::string>{}(k), v.hash());
    }
    return cell_content_hash(0x9AE16A3B2F90404FULL, acc);
  }

 private:
  std::unordered_map<std::string, Value> cells_;
};

/// The two stores behind one addressing interface: `at(i)` names register
/// base[i] the way each store's callers do.
struct Legacy {
  LegacyRegisterFile m;
  std::string base;
  [[nodiscard]] std::string at(int i) const { return base + "[" + std::to_string(i) + "]"; }
};

struct Interned {
  RegisterFile m;
  Sym base;
  [[nodiscard]] RegAddr at(int i) const { return reg(base, i); }
};

/// Every variant first fills the store (the warm-up pass: first inserts and
/// interning allocate), then counts kOps operations.
template <class Store>
void fill(Store& s) {
  for (int i = 0; i < kRegs; ++i) s.m.write(s.at(i), Value(i));
}

template <class Store>
void write_ops(const char* name, Store s) {
  fill(s);
  count_allocs(name, [&] {
    for (int op = 0; op < kOps; ++op) s.m.write(s.at(op % kRegs), Value(op % kRegs));
  });
}

template <class Store>
void read_ops(const char* name, Store s) {
  fill(s);
  count_allocs(name, [&] {
    std::int64_t sink = 0;
    for (int op = 0; op < kOps; ++op) sink += s.m.read(s.at(op % kRegs)).int_or(0);
    g_sink = sink;
  });
}

// A collect()-style sweep: read base[0..n-1] in one pass, as every snapshot
// and double-collect in the algorithm layer does.
template <class Store>
void snapshot_ops(const char* name, Store s) {
  fill(s);
  count_allocs(name, [&] {
    std::int64_t sink = 0;
    for (int sweep = 0; sweep < kOps / kRegs; ++sweep) {
      for (int i = 0; i < kRegs; ++i) sink += s.m.read(s.at(i)).int_or(0);
    }
    g_sink = sink;
  });
}

// Exploration dedup pattern (corridor DFS): one write, then a signature of
// the whole store. Legacy pays O(footprint) per signature; the incremental
// hash is O(1).
template <class Store>
void content_hash_ops(const char* name, Store s) {
  fill(s);
  count_allocs(name, [&] {
    std::uint64_t sink = 0;
    for (int op = 0; op < kOps; ++op) {
      s.m.write(s.at(op % kRegs), Value(op % kRegs + 1));
      sink ^= s.m.content_hash();
    }
    g_sink = static_cast<std::int64_t>(sink);
  });
}

void run() {
  write_ops("E13_WriteLegacy", Legacy{{}, "e13/legacy/W"});
  write_ops("E13_WriteInterned", Interned{{}, sym("e13/interned/W")});
  read_ops("E13_ReadLegacy", Legacy{{}, "e13/legacy/R"});
  read_ops("E13_ReadInterned", Interned{{}, sym("e13/interned/R")});
  snapshot_ops("E13_SnapshotLegacy", Legacy{{}, "e13/legacy/S"});
  snapshot_ops("E13_SnapshotInterned", Interned{{}, sym("e13/interned/S")});
  content_hash_ops("E13_ContentHashLegacy", Legacy{{}, "e13/legacy/H"});
  content_hash_ops("E13_ContentHashInterned", Interned{{}, sym("e13/interned/H")});
}

}  // namespace
}  // namespace efd

int main(int argc, char** argv) { return efd::bench::main_of("E13", efd::run, argc, argv); }
