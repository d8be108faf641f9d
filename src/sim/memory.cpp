#include "sim/memory.hpp"

#include <stdexcept>

namespace efd {

void RegisterFile::write(RegAddr addr, Value v) {
  if (!addr.valid()) throw std::logic_error("RegisterFile::write: invalid register address");
  const RegId id = addr.id();
  if (static_cast<std::size_t>(id) >= cells_.size()) {
    // Grow to the process-wide interned id: ids are dense, so this bounds
    // the store by the number of distinct registers the process ever named.
    const std::size_t need = static_cast<std::size_t>(id) + 1;
    cells_.resize(need);
    written_.resize(need, 0);
    cell_hash_.resize(need, 0);
  }
  const std::uint64_t h = cell_content_hash(reg_name_hash(id), v.hash());
  if (written_[id] != 0) {
    hash_acc_ -= cell_hash_[id];
  } else {
    written_[id] = 1;
    ++footprint_;
  }
  hash_acc_ += h;
  cell_hash_[id] = h;
  cells_[id] = std::move(v);
}

void RegisterFile::undo_write(RegAddr addr, const Value& prev, bool was_written) {
  const RegId id = addr.id();
  if (static_cast<std::size_t>(id) >= cells_.size() || written_[id] == 0) {
    throw std::logic_error("RegisterFile::undo_write: cell was not written");
  }
  hash_acc_ -= cell_hash_[id];
  if (was_written) {
    const std::uint64_t h = cell_content_hash(reg_name_hash(id), prev.hash());
    hash_acc_ += h;
    cell_hash_[id] = h;
    cells_[id] = prev;
  } else {
    written_[id] = 0;
    cell_hash_[id] = 0;
    cells_[id] = Value{};
    --footprint_;
  }
}

std::uint64_t RegisterFile::content_hash_slow() const noexcept {
  std::uint64_t acc = 0;
  for (std::size_t id = 0; id < cells_.size(); ++id) {
    if (written_[id] != 0) {
      acc += cell_content_hash(reg_name_hash(static_cast<RegId>(id)), cells_[id].hash());
    }
  }
  return cell_content_hash(0x9AE16A3B2F90404FULL, acc);
}

}  // namespace efd
