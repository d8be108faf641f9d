#include "fd/faulty.hpp"

#include <algorithm>
#include <stdexcept>

namespace efd {

const char* to_string(FdFaultKind k) {
  switch (k) {
    case FdFaultKind::kNone: return "none";
    case FdFaultKind::kLying: return "lying";
    case FdFaultKind::kOmissive: return "omissive";
    case FdFaultKind::kStuttering: return "stuttering";
  }
  return "none";
}

FdFaultKind fd_fault_kind_from(const std::string& name) {
  if (name == "none") return FdFaultKind::kNone;
  if (name == "lying") return FdFaultKind::kLying;
  if (name == "omissive") return FdFaultKind::kOmissive;
  if (name == "stuttering") return FdFaultKind::kStuttering;
  throw std::invalid_argument("fd_fault_kind_from: unknown kind '" + name + "'");
}

FaultyFdBase::FaultyFdBase(DetectorPtr inner, Time corrupt_until)
    : inner_(std::move(inner)), until_(corrupt_until) {
  if (!inner_) throw std::invalid_argument("FaultyFdBase: null inner detector");
  if (until_ < 0) until_ = 0;
}

Time FaultyFdBase::stabilization_time(const FailurePattern& f) const {
  return std::max(until_, inner_->stabilization_time(f));
}

// ----------------------------------------------------------------- lying

std::string LyingFd::name() const {
  return "lying(" + inner_->name() + ")@" + std::to_string(until_);
}

HistoryPtr LyingFd::history(const FailurePattern& f, std::uint64_t seed) const {
  const HistoryPtr inner_h = inner_->history(f, seed);
  if (until_ == 0) return inner_h;
  const int n = f.n();
  const Time until = until_;
  // Lies sample the inner history across a window that covers both the
  // chaotic prefix and the stabilized suffix, so pre-GST output includes
  // truthful-looking-but-misplaced values as well as noise.
  const Time lie_span =
      std::max<Time>(Time{1}, sat_add(sat_add(until, inner_->stabilization_time(f)), 8));
  return std::make_shared<FnHistory>([inner_h, n, until, lie_span, seed](int qi, Time t) {
    if (t >= until) return inner_h->at(qi, t);
    const int fake_q =
        n > 0 ? static_cast<int>(detector_noise(seed, qi, t, 11) % static_cast<std::uint64_t>(n))
              : qi;
    const Time fake_t =
        static_cast<Time>(detector_noise(seed, qi, t, 13) % static_cast<std::uint64_t>(lie_span));
    return inner_h->at(fake_q, fake_t);
  });
}

// -------------------------------------------------------------- omissive

std::string OmissiveFd::name() const {
  return "omissive(" + inner_->name() + ")@" + std::to_string(until_);
}

HistoryPtr OmissiveFd::history(const FailurePattern& f, std::uint64_t seed) const {
  const HistoryPtr inner_h = inner_->history(f, seed);
  if (until_ == 0) return inner_h;
  const Time until = until_;
  const auto period = static_cast<std::uint64_t>(drop_period_);
  // A sample time refreshes when its hash falls in the keep bucket; the
  // module start (t = 0) always delivers, so outputs are always some inner
  // sample (type preservation). The back-scan is capped: past the cap the
  // module falls back to the initial sample, which is still a legal omissive
  // behaviour (every update since start was dropped).
  const auto refreshes = [seed, period](int qi, Time t) {
    return t == 0 || detector_noise(seed, qi, t, 17) % period == 0;
  };
  return std::make_shared<FnHistory>([inner_h, until, refreshes](int qi, Time t) {
    if (t >= until) return inner_h->at(qi, t);
    const Time scan_floor = std::max<Time>(Time{0}, t - 256);
    for (Time s = t; s >= scan_floor; --s) {
      if (refreshes(qi, s)) return inner_h->at(qi, s);
    }
    return inner_h->at(qi, 0);
  });
}

// ------------------------------------------------------------ stuttering

std::string StutteringFd::name() const {
  return "stuttering(" + inner_->name() + ")@" + std::to_string(until_);
}

HistoryPtr StutteringFd::history(const FailurePattern& f, std::uint64_t seed) const {
  const HistoryPtr inner_h = inner_->history(f, seed);
  if (until_ == 0) return inner_h;
  const Time until = until_;
  const auto period = static_cast<Time>(period_);
  return std::make_shared<FnHistory>([inner_h, until, period](int qi, Time t) {
    if (t >= until) return inner_h->at(qi, t);
    return inner_h->at(qi, (t / period) * period);
  });
}

// --------------------------------------------------------------- factory

DetectorPtr make_faulty(FdFaultKind kind, DetectorPtr inner, Time corrupt_until, int param) {
  switch (kind) {
    case FdFaultKind::kNone: return inner;
    case FdFaultKind::kLying: return std::make_shared<LyingFd>(std::move(inner), corrupt_until);
    case FdFaultKind::kOmissive:
      return std::make_shared<OmissiveFd>(std::move(inner), corrupt_until, param);
    case FdFaultKind::kStuttering:
      return std::make_shared<StutteringFd>(std::move(inner), corrupt_until, param);
  }
  return inner;
}

}  // namespace efd
