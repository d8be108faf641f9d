#include "fd/emulations.hpp"

#include <memory>

namespace efd {

HistoryPtr MappedDetector::history(const FailurePattern& f, std::uint64_t seed) const {
  auto src = source_->history(f, seed);
  auto map = map_;
  return std::make_shared<FnHistory>(
      [src, map](int qi, Time t) { return map(qi, t, src->at(qi, t)); });
}

DetectorPtr omega_from_diamond_p(DetectorPtr diamond_p, int n) {
  return std::make_shared<MappedDetector>(
      std::move(diamond_p), "Omega(from diamondP)",
      [n](int, Time, const Value& suspects) {
        std::vector<bool> bad(static_cast<std::size_t>(n), false);
        for (std::size_t j = 0; j < suspects.size(); ++j) {
          const auto id = suspects.at(j).int_or(-1);
          if (id >= 0 && id < n) bad[static_cast<std::size_t>(id)] = true;
        }
        for (int i = 0; i < n; ++i) {
          if (!bad[static_cast<std::size_t>(i)]) return Value(i);
        }
        return Value(0);  // everyone suspected (pre-stabilization noise)
      });
}

DetectorPtr vec_omega_from_omega(DetectorPtr omega, int n, int k) {
  return std::make_shared<MappedDetector>(
      std::move(omega), "vecOmega" + std::to_string(k) + "(from Omega)",
      [n, k](int qi, Time t, const Value& leader) {
        ValueVec out;
        out.reserve(static_cast<std::size_t>(k));
        out.push_back(leader);
        for (int j = 1; j < k; ++j) {
          out.emplace_back(static_cast<std::int64_t>((t + j + qi) % n));
        }
        return Value(std::move(out));
      });
}

DetectorPtr anti_omega_from_vec_omega(DetectorPtr vec_omega, int n, int k) {
  return std::make_shared<MappedDetector>(
      std::move(vec_omega), "antiOmega" + std::to_string(k) + "(from vecOmega)",
      [n, k](int, Time, const Value& slots) { return vec_omega_complement(slots, n, k); });
}

}  // namespace efd
