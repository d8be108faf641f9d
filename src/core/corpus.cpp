#include "core/corpus.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>

#include "sim/hash.hpp"

namespace efd {
namespace {

namespace fs = std::filesystem;

std::uint64_t mix(std::uint64_t h, std::uint64_t x) {
  return splitmix64_finalize(h ^ (x + kGoldenGamma + (h << 6) + (h >> 2)));
}

std::string key_hex(std::uint64_t key) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(key));
  return buf;
}

}  // namespace

std::uint64_t corpus_key(const ScheduleTape& tape) {
  std::uint64_t h = fnv1a(tape.scenario);
  h = mix(h, fnv1a(tape.finding));
  // The replay trace hash is the content identity of the run; tapes that
  // never stamped one (foreign / hand-built) fall back to their full text so
  // distinct artifacts never silently collide on (scenario, finding).
  h = mix(h, tape.expect_hash ? *tape.expect_hash : fnv1a(tape.serialize()));
  return h;
}

CorpusStore::LoadReport CorpusStore::scan(const std::string& dir, bool quarantine) {
  LoadReport rep;
  std::error_code ec;
  fs::directory_iterator it(dir, ec);
  if (ec) throw CorpusIoError("corpus: cannot scan " + dir + ": " + ec.message());
  for (const auto& ent : it) {
    if (!ent.is_regular_file() || ent.path().extension() != ".tape") continue;
    const std::string path = ent.path().string();
    try {
      const ScheduleTape tape = load_tape(path);
      entries_.emplace(corpus_key(tape), path);
      ++rep.loaded;
    } catch (const TapeError&) {
      if (!quarantine) {
        ++rep.quarantined;
        continue;
      }
      const fs::path qdir = fs::path(dir) / "quarantine";
      fs::create_directories(qdir, ec);
      fs::rename(ent.path(), qdir / ent.path().filename(), ec);
      // A rename failure (read-only dir) leaves the entry in place; it stays
      // unindexed either way, which is all correctness needs.
      ++rep.quarantined;
    }
  }
  return rep;
}

CorpusStore::LoadReport CorpusStore::open(const std::string& dir) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) throw CorpusIoError("corpus: cannot create " + dir + ": " + ec.message());
  if (!fs::is_directory(dir)) {
    throw CorpusIoError("corpus: " + dir + " is not a directory");
  }
  dir_ = dir;
  LoadReport rep = scan(dir, /*quarantine=*/true);

  // Restore raw-tape aliases. The index is append-only and best-effort: a
  // malformed line (torn final append from a crash) is skipped, and aliases
  // whose stored key is gone (entry quarantined) are dropped.
  std::ifstream idx(fs::path(dir) / "aliases.idx");
  std::string line;
  while (std::getline(idx, line)) {
    std::istringstream ls(line);
    std::uint64_t alias = 0;
    std::uint64_t target = 0;
    if (!(ls >> std::hex >> alias >> target)) continue;
    if (entries_.count(target) == 0) continue;
    if (aliases_.emplace(alias, target).second) ++rep.aliases;
  }
  return rep;
}

CorpusStore::LoadReport CorpusStore::absorb(const std::string& dir) {
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) return {};
  return scan(dir, /*quarantine=*/false);
}

bool CorpusStore::insert(std::uint64_t key, const ScheduleTape& tape, const std::string& stem,
                         std::string* path_out) {
  if (path_out) path_out->clear();
  if (contains(key)) return false;
  std::string path;
  if (!dir_.empty()) {
    const fs::path final_path = fs::path(dir_) / (stem + "_" + key_hex(key) + ".tape");
    const fs::path tmp_path = fs::path(dir_) / (".tmp_" + key_hex(key) + ".tape");
    try {
      save_tape(tape, tmp_path.string());
    } catch (const TapeIoError& e) {
      throw CorpusIoError(std::string("corpus: ") + e.what());
    }
    std::error_code ec;
    fs::rename(tmp_path, final_path, ec);
    if (ec) {
      fs::remove(tmp_path, ec);
      throw CorpusIoError("corpus: cannot publish " + final_path.string() + ": " + ec.message());
    }
    path = final_path.string();
  }
  entries_.emplace(key, path);
  if (path_out) *path_out = path;
  return true;
}

void CorpusStore::add_alias(std::uint64_t alias, std::uint64_t target) {
  if (contains(alias)) return;
  aliases_.emplace(alias, target);
  if (dir_.empty()) return;
  std::ofstream idx(fs::path(dir_) / "aliases.idx", std::ios::app);
  idx << key_hex(alias) << ' ' << key_hex(target) << '\n';
  // Best-effort: a failed append costs one re-shrink after the next restart,
  // never correctness.
}

std::string CorpusStore::path_of(std::uint64_t key) const {
  const auto it = entries_.find(key);
  if (it != entries_.end()) return it->second;
  const auto al = aliases_.find(key);
  if (al != aliases_.end()) {
    const auto tgt = entries_.find(al->second);
    if (tgt != entries_.end()) return tgt->second;
  }
  return "";
}

}  // namespace efd
