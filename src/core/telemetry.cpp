#include "core/telemetry.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace efd {

void ExploreStats::merge(const ExploreStats& o) {
  states += o.states;
  terminal_runs += o.terminal_runs;
  dedup_queries += o.dedup_queries;
  dedup_misses += o.dedup_misses;
  blocked_runs += o.blocked_runs;
  dedup_hits += o.dedup_hits;
  max_undo_depth = std::max(max_undo_depth, o.max_undo_depth);
  respawns += o.respawns;
  redelivers += o.redelivers;
  ghost_hits += o.ghost_hits;
  pool_steals += o.pool_steals;
  threads = std::max(threads, o.threads);
  elapsed_s += o.elapsed_s;
  states_per_s = std::max(states_per_s, o.states_per_s);
  dedup_recent_hits += o.dedup_recent_hits;
  dedup_mem_hits += o.dedup_mem_hits;
  dedup_cold_probes += o.dedup_cold_probes;
  dedup_bloom_skips += o.dedup_bloom_skips;
  dedup_cold_hits += o.dedup_cold_hits;
  dedup_spills += o.dedup_spills;
  dedup_spilled_sigs += o.dedup_spilled_sigs;
  dedup_spill_bytes += o.dedup_spill_bytes;
  dedup_merges += o.dedup_merges;
}

namespace telemetry {
namespace {

void append_escaped(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void append_number(std::string& out, double v) {
  if (!std::isfinite(v)) {  // JSON has no inf/nan; emit null
    out += "null";
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

}  // namespace

void Json::push_back(Json v) {
  if (kind_ == Kind::kNull) kind_ = Kind::kArray;
  if (kind_ != Kind::kArray) throw std::logic_error("Json::push_back on non-array");
  arr_.push_back(std::move(v));
}

Json& Json::operator[](const std::string& key) {
  if (kind_ == Kind::kNull) kind_ = Kind::kObject;
  if (kind_ != Kind::kObject) throw std::logic_error("Json::operator[] on non-object");
  for (auto& [k, v] : obj_) {
    if (k == key) return v;
  }
  obj_.emplace_back(key, Json{});
  return obj_.back().second;
}

const Json* Json::find(const std::string& key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [k, v] : obj_) {
    if (k == key) return &v;
  }
  return nullptr;
}

void Json::dump_to(std::string& out, int indent, int depth) const {
  const auto newline = [&](int d) {
    if (indent <= 0) return;
    out += '\n';
    out.append(static_cast<std::size_t>(indent * d), ' ');
  };
  switch (kind_) {
    case Kind::kNull:
      out += "null";
      break;
    case Kind::kBool:
      out += bool_ ? "true" : "false";
      break;
    case Kind::kInt: {
      char buf[24];
      std::snprintf(buf, sizeof(buf), "%" PRId64, int_);
      out += buf;
      break;
    }
    case Kind::kDouble:
      append_number(out, dbl_);
      break;
    case Kind::kString:
      append_escaped(out, str_);
      break;
    case Kind::kArray: {
      if (arr_.empty()) {
        out += "[]";
        break;
      }
      out += '[';
      for (std::size_t i = 0; i < arr_.size(); ++i) {
        if (i > 0) out += ',';
        newline(depth + 1);
        arr_[i].dump_to(out, indent, depth + 1);
      }
      newline(depth);
      out += ']';
      break;
    }
    case Kind::kObject: {
      if (obj_.empty()) {
        out += "{}";
        break;
      }
      out += '{';
      for (std::size_t i = 0; i < obj_.size(); ++i) {
        if (i > 0) out += ',';
        newline(depth + 1);
        append_escaped(out, obj_[i].first);
        out += indent > 0 ? ": " : ":";
        obj_[i].second.dump_to(out, indent, depth + 1);
      }
      newline(depth);
      out += '}';
      break;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

std::string git_describe() {
#if defined(_WIN32)
  return "unknown";
#else
  FILE* pipe = ::popen("git describe --always --dirty 2>/dev/null", "r");
  if (pipe == nullptr) return "unknown";
  char buf[128] = {0};
  std::string out;
  while (std::fgets(buf, sizeof(buf), pipe) != nullptr) out += buf;
  ::pclose(pipe);
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) out.pop_back();
  return out.empty() ? "unknown" : out;
#endif
}

BenchEmitter& BenchEmitter::instance() {
  static BenchEmitter e;
  return e;
}

void BenchEmitter::set_experiment(std::string name) {
  const std::lock_guard<std::mutex> lk(mu_);
  experiment_ = std::move(name);
}

std::string BenchEmitter::experiment() const {
  const std::lock_guard<std::mutex> lk(mu_);
  return experiment_;
}

void BenchEmitter::add_table(const std::string& title, const std::string& columns) {
  const std::lock_guard<std::mutex> lk(mu_);
  tables_.push_back(Table{title, columns, {}});
  current_table_ = tables_.size() - 1;
}

void BenchEmitter::add_row(const std::string& row) {
  const std::lock_guard<std::mutex> lk(mu_);
  if (current_table_ >= tables_.size()) return;
  std::string r = row;
  while (!r.empty() && r.back() == '\n') r.pop_back();
  tables_[current_table_].rows.push_back(std::move(r));
}

void BenchEmitter::record_benchmark(const std::string& name,
                                    std::map<std::string, double> counters) {
  const std::lock_guard<std::mutex> lk(mu_);
  benches_.push_back(Bench{name, std::move(counters)});
}

Json BenchEmitter::to_json() const {
  const std::lock_guard<std::mutex> lk(mu_);
  Json doc = Json::object();
  doc["schema"] = "efd-bench-v1";
  doc["experiment"] = experiment_;
  doc["git"] = git_describe();
  Json benches = Json::array();
  for (const Bench& b : benches_) {
    Json jb = Json::object();
    jb["name"] = b.name;
    Json counters = Json::object();
    for (const auto& [k, v] : b.counters) counters[k] = v;
    jb["counters"] = std::move(counters);
    benches.push_back(std::move(jb));
  }
  doc["benchmarks"] = std::move(benches);
  Json tables = Json::array();
  for (const Table& t : tables_) {
    Json jt = Json::object();
    jt["title"] = t.title;
    jt["columns"] = t.columns;
    Json rows = Json::array();
    for (const std::string& r : t.rows) rows.push_back(r);
    jt["rows"] = std::move(rows);
    tables.push_back(std::move(jt));
  }
  doc["tables"] = std::move(tables);
  return doc;
}

bool BenchEmitter::write_file(const std::string& dir) const {
  std::string exp;
  bool empty = true;
  {
    const std::lock_guard<std::mutex> lk(mu_);
    exp = experiment_;
    empty = benches_.empty() && tables_.empty();
  }
  if (exp.empty() || empty) return false;
  const std::string path = dir + "/BENCH_" + exp + ".json";
  std::ofstream os(path);
  if (!os) return false;
  os << to_json().dump(2) << "\n";
  return static_cast<bool>(os);
}

}  // namespace telemetry
}  // namespace efd
