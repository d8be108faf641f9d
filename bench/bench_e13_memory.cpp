// E13 (memory addressing): old string-keyed store vs interned RegId store.
//
// The seed's RegisterFile was an unordered_map<std::string, Value> and every
// access built the register name ("base[i]") and hashed it; its content hash
// rehashed the whole footprint per call. That legacy store is reproduced
// locally here and measured against the RegId-indexed flat-vector store of
// sim/memory.hpp on the four hot operations of the simulator: write, read,
// a collect-style sweep, and the exploration-dedup content hash. Verifies
// the tentpole claim that register access does no string construction or
// hashing: RegId ops must not scale with name length and must beat the
// string path by a wide margin.
#include "bench_common.hpp"

#include <string>
#include <unordered_map>

EFD_BENCH_JSON("E13")
EFD_BENCH_ALLOC_PROBE()

namespace efd {
namespace {

constexpr int kRegs = 256;  // footprint per store, matching mid-size runs

/// Counter + JSON epilogue shared by every E13 variant: `ops` mirrors
/// items-processed as an explicit counter so the emitted JSON is
/// self-contained (SetItemsProcessed only feeds the stdout report).
void e13_finish(benchmark::State& state, const char* name, std::int64_t items_per_iter,
                std::uint64_t allocs_delta) {
  const auto ops = static_cast<double>(state.iterations() * items_per_iter);
  state.SetItemsProcessed(state.iterations() * items_per_iter);
  state.counters["ops"] = ops;
  state.counters["ops_per_s"] = benchmark::Counter(ops, benchmark::Counter::kIsRate);
  bench::alloc_counter(state, allocs_delta, ops);
  bench::json_run(state, name);
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

std::string legacy_reg(const std::string& base, int i) {
  return base + "[" + std::to_string(i) + "]";
}

// The write variants fill the store once before counting, like the others:
// first inserts allocate, and amortized over google-benchmark's calibrated
// iteration count they would make allocs_per_step depend on the run length.
void E13_WriteLegacy(benchmark::State& state) {
  LegacyRegisterFile m;
  const std::string base = "e13/legacy/W";
  for (int i = 0; i < kRegs; ++i) m.write(legacy_reg(base, i), Value(i));
  int i = 0;
  const std::uint64_t a0 = bench::alloc_count();
  for (auto _ : state) {
    m.write(legacy_reg(base, i), Value(i));
    i = (i + 1) % kRegs;
  }
  e13_finish(state, "E13_WriteLegacy", 1, bench::alloc_count() - a0);
}

void E13_WriteInterned(benchmark::State& state) {
  RegisterFile m;
  const Sym base = sym("e13/interned/W");
  for (int i = 0; i < kRegs; ++i) m.write(reg(base, i), Value(i));
  int i = 0;
  const std::uint64_t a0 = bench::alloc_count();
  for (auto _ : state) {
    m.write(reg(base, i), Value(i));
    i = (i + 1) % kRegs;
  }
  e13_finish(state, "E13_WriteInterned", 1, bench::alloc_count() - a0);
}

void E13_ReadLegacy(benchmark::State& state) {
  LegacyRegisterFile m;
  const std::string base = "e13/legacy/R";
  for (int i = 0; i < kRegs; ++i) m.write(legacy_reg(base, i), Value(i));
  int i = 0;
  std::int64_t sink = 0;
  const std::uint64_t a0 = bench::alloc_count();
  for (auto _ : state) {
    sink += m.read(legacy_reg(base, i)).int_or(0);
    i = (i + 1) % kRegs;
  }
  benchmark::DoNotOptimize(sink);
  e13_finish(state, "E13_ReadLegacy", 1, bench::alloc_count() - a0);
}

void E13_ReadInterned(benchmark::State& state) {
  RegisterFile m;
  const Sym base = sym("e13/interned/R");
  for (int i = 0; i < kRegs; ++i) m.write(reg(base, i), Value(i));
  int i = 0;
  std::int64_t sink = 0;
  const std::uint64_t a0 = bench::alloc_count();
  for (auto _ : state) {
    sink += m.read(reg(base, i)).int_or(0);
    i = (i + 1) % kRegs;
  }
  benchmark::DoNotOptimize(sink);
  e13_finish(state, "E13_ReadInterned", 1, bench::alloc_count() - a0);
}

// A collect()-style sweep: read base[0..n-1] in one pass, as every snapshot
// and double-collect in the algorithm layer does.
void E13_SnapshotLegacy(benchmark::State& state) {
  LegacyRegisterFile m;
  const std::string base = "e13/legacy/S";
  for (int i = 0; i < kRegs; ++i) m.write(legacy_reg(base, i), Value(i));
  std::int64_t sink = 0;
  const std::uint64_t a0 = bench::alloc_count();
  for (auto _ : state) {
    for (int i = 0; i < kRegs; ++i) sink += m.read(legacy_reg(base, i)).int_or(0);
  }
  benchmark::DoNotOptimize(sink);
  e13_finish(state, "E13_SnapshotLegacy", kRegs, bench::alloc_count() - a0);
}

void E13_SnapshotInterned(benchmark::State& state) {
  RegisterFile m;
  const Sym base = sym("e13/interned/S");
  for (int i = 0; i < kRegs; ++i) m.write(reg(base, i), Value(i));
  std::int64_t sink = 0;
  const std::uint64_t a0 = bench::alloc_count();
  for (auto _ : state) {
    for (int i = 0; i < kRegs; ++i) sink += m.read(reg(base, i)).int_or(0);
  }
  benchmark::DoNotOptimize(sink);
  e13_finish(state, "E13_SnapshotInterned", kRegs, bench::alloc_count() - a0);
}

// Exploration dedup pattern (corridor DFS): one write, then a signature of
// the whole store. Legacy pays O(footprint) per signature; the incremental
// hash is O(1).
void E13_ContentHashLegacy(benchmark::State& state) {
  LegacyRegisterFile m;
  const std::string base = "e13/legacy/H";
  for (int i = 0; i < kRegs; ++i) m.write(legacy_reg(base, i), Value(i));
  int i = 0;
  std::uint64_t sink = 0;
  const std::uint64_t a0 = bench::alloc_count();
  for (auto _ : state) {
    m.write(legacy_reg(base, i), Value(i + 1));
    sink ^= m.content_hash();
    i = (i + 1) % kRegs;
  }
  benchmark::DoNotOptimize(sink);
  e13_finish(state, "E13_ContentHashLegacy", 1, bench::alloc_count() - a0);
}

void E13_ContentHashInterned(benchmark::State& state) {
  RegisterFile m;
  const Sym base = sym("e13/interned/H");
  for (int i = 0; i < kRegs; ++i) m.write(reg(base, i), Value(i));
  int i = 0;
  std::uint64_t sink = 0;
  const std::uint64_t a0 = bench::alloc_count();
  for (auto _ : state) {
    m.write(reg(base, i), Value(i + 1));
    sink ^= m.content_hash();
    i = (i + 1) % kRegs;
  }
  benchmark::DoNotOptimize(sink);
  e13_finish(state, "E13_ContentHashInterned", 1, bench::alloc_count() - a0);
}

}  // namespace
}  // namespace efd

BENCHMARK(efd::E13_WriteLegacy);
BENCHMARK(efd::E13_WriteInterned);
BENCHMARK(efd::E13_ReadLegacy);
BENCHMARK(efd::E13_ReadInterned);
BENCHMARK(efd::E13_SnapshotLegacy);
BENCHMARK(efd::E13_SnapshotInterned);
BENCHMARK(efd::E13_ContentHashLegacy);
BENCHMARK(efd::E13_ContentHashInterned);
