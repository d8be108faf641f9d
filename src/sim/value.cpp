#include "sim/value.hpp"

#include <sstream>

#include "sim/hash.hpp"

namespace efd {
namespace {

void hash_bytes(std::uint64_t& h, const void* data, std::size_t n) noexcept {
  h = fnv1a(std::string_view(static_cast<const char*>(data), n), h);
}

int kind_rank(const Value& v) noexcept {
  if (v.is_nil()) return 0;
  if (v.is_int()) return 1;
  if (v.is_str()) return 2;
  return 3;
}

/// True iff `v` packs into one int16 lane of an inline vector.
bool lane_packable(const Value& v, std::int16_t& lane) noexcept {
  if (v.is_nil()) {
    lane = -32768;  // Value::kNilLane
    return true;
  }
  if (!v.is_int()) return false;
  const std::int64_t x = v.int_or(0);
  if (x < -32767 || x > 32767) return false;
  lane = static_cast<std::int16_t>(x);
  return true;
}

}  // namespace

Value::Value(std::string_view v) {
  if (v.size() <= kMaxInlineStr) {
    tag_ = Tag::kStrInline;
    len_ = static_cast<std::uint8_t>(v.size());
    std::memcpy(rep_.str, v.data(), v.size());
  } else {
    tag_ = Tag::kStrHeap;
    len_ = 0;
    new (&rep_.sp) std::shared_ptr<const std::string>(std::make_shared<const std::string>(v));
  }
}

Value::Value(ValueVec v) {
  if (v.size() <= kMaxInlineVec) {
    std::int16_t lanes[kMaxInlineVec];
    bool ok = true;
    for (std::size_t i = 0; i < v.size() && ok; ++i) ok = lane_packable(v[i], lanes[i]);
    if (ok) {
      tag_ = Tag::kVecInline;
      len_ = static_cast<std::uint8_t>(v.size());
      for (std::size_t i = 0; i < v.size(); ++i) rep_.iv[i] = lanes[i];
      return;
    }
  }
  tag_ = Tag::kVecHeap;
  len_ = 0;
  new (&rep_.vp) std::shared_ptr<const ValueVec>(std::make_shared<const ValueVec>(std::move(v)));
}

Value::Value(const Value* first, const Value* last) {
  const std::size_t n = static_cast<std::size_t>(last - first);
  if (n <= kMaxInlineVec) {
    std::int16_t lanes[kMaxInlineVec];
    bool ok = true;
    for (std::size_t i = 0; i < n && ok; ++i) ok = lane_packable(first[i], lanes[i]);
    if (ok) {
      tag_ = Tag::kVecInline;
      len_ = static_cast<std::uint8_t>(n);
      for (std::size_t i = 0; i < n; ++i) rep_.iv[i] = lanes[i];
      return;
    }
  }
  tag_ = Tag::kVecHeap;
  len_ = 0;
  new (&rep_.vp) std::shared_ptr<const ValueVec>(std::make_shared<const ValueVec>(first, last));
}

ValueVec Value::as_vec() const {
  if (tag_ == Tag::kVecHeap) return *rep_.vp;
  if (tag_ != Tag::kVecInline) throw std::bad_variant_access{};
  ValueVec out;
  out.reserve(len_);
  for (std::size_t i = 0; i < len_; ++i) out.push_back(at(i));
  return out;
}

void Value::unpack_vec(ValueVec& out) const {
  out.clear();
  if (tag_ == Tag::kVecHeap) {
    out.assign(rep_.vp->begin(), rep_.vp->end());
    return;
  }
  if (tag_ != Tag::kVecInline) throw std::bad_variant_access{};
  out.reserve(len_);
  for (std::size_t i = 0; i < len_; ++i) out.push_back(at(i));
}

bool operator==(const Value& a, const Value& b) noexcept {
  return (a <=> b) == std::strong_ordering::equal;
}

std::strong_ordering operator<=>(const Value& a, const Value& b) noexcept {
  if (const int ra = kind_rank(a), rb = kind_rank(b); ra != rb) return ra <=> rb;
  if (a.is_nil()) return std::strong_ordering::equal;
  if (a.is_int()) return a.int_or(0) <=> b.int_or(0);
  if (a.is_str()) return a.as_str().compare(b.as_str()) <=> 0;
  if (a.tag_ == Value::Tag::kVecHeap && b.tag_ == Value::Tag::kVecHeap) {
    // Reference fast path: no per-element Value copies (refcount traffic).
    const ValueVec& va = *a.rep_.vp;
    const ValueVec& vb = *b.rep_.vp;
    const std::size_t n = std::min(va.size(), vb.size());
    for (std::size_t i = 0; i < n; ++i) {
      if (auto c = va[i] <=> vb[i]; c != std::strong_ordering::equal) return c;
    }
    return va.size() <=> vb.size();
  }
  const std::size_t na = a.size();
  const std::size_t nb = b.size();
  const std::size_t n = std::min(na, nb);
  for (std::size_t i = 0; i < n; ++i) {
    const Value ea = a.at(i);
    const Value eb = b.at(i);
    if (auto c = ea <=> eb; c != std::strong_ordering::equal) return c;
  }
  return na <=> nb;
}

std::string Value::to_string() const {
  if (is_nil()) return "nil";
  if (is_int()) return std::to_string(rep_.i);
  if (is_str()) return "\"" + std::string(as_str()) + "\"";
  std::ostringstream os;
  os << '[';
  const std::size_t n = size();
  for (std::size_t i = 0; i < n; ++i) {
    if (i != 0) os << ", ";
    os << at(i).to_string();
  }
  os << ']';
  return os.str();
}

// Structural: an inline vector/string hashes exactly like its heap twin
// (same canonical byte encoding as the pre-inlining variant representation).
void Value::hash_into(std::uint64_t& h) const noexcept {
  switch (tag_) {
    case Tag::kNil:
      hash_bytes(h, "N", 1);
      break;
    case Tag::kInt:
      hash_bytes(h, "I", 1);
      hash_bytes(h, &rep_.i, sizeof(rep_.i));
      break;
    case Tag::kStrInline:
    case Tag::kStrHeap: {
      const std::string_view s = as_str();
      hash_bytes(h, "S", 1);
      hash_bytes(h, s.data(), s.size());
      break;
    }
    case Tag::kVecInline:
      hash_bytes(h, "V", 1);
      for (std::size_t i = 0; i < len_; ++i) {
        if (rep_.iv[i] == kNilLane) {
          hash_bytes(h, "N", 1);
        } else {
          const std::int64_t x = rep_.iv[i];
          hash_bytes(h, "I", 1);
          hash_bytes(h, &x, sizeof(x));
        }
      }
      hash_bytes(h, "]", 1);
      break;
    case Tag::kVecHeap:
      hash_bytes(h, "V", 1);
      for (const Value& e : *rep_.vp) e.hash_into(h);
      hash_bytes(h, "]", 1);
      break;
  }
}

std::uint64_t Value::hash() const noexcept {
  std::uint64_t h = kFnv1aTruncatedBasis;
  hash_into(h);
  return h;
}

}  // namespace efd
