// Unit tests for the register file (sim/memory.hpp), the address
// interner (sim/regid.hpp) and the integer mixers they hash with
// (sim/hash.hpp).
#include "sim/memory.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <stdexcept>
#include <vector>

#include "sim/hash.hpp"
#include "sim/regid.hpp"

namespace efd {
namespace {

// Published reference vectors, checked at compile time and at run time.
static_assert(SplitMix64{0}.next() == 0xE220A8397B1DCDAFULL);
static_assert(fnv1a("a") == 0xAF63DC4C8601EC8CULL);
static_assert(fnv1a("") == kFnv1aOffsetBasis);

TEST(Mixers, MatchReferenceVectors) {
  SplitMix64 rng{0};
  EXPECT_EQ(rng.next(), 0xE220A8397B1DCDAFULL);
  EXPECT_EQ(rng.next(), 0x6E789E6AA1B965F4ULL);
  EXPECT_EQ(splitmix64_finalize(kGoldenGamma), 0xE220A8397B1DCDAFULL);
  EXPECT_EQ(fnv1a("foobar"), 0x85944171F73967E8ULL);
  // The generator's bounded draw is next() % n, and 0 for an empty range
  // without consuming a draw.
  SplitMix64 a{7};
  SplitMix64 b{7};
  EXPECT_EQ(a.below(0), 0u);
  EXPECT_EQ(a.below(10), b.next() % 10);
}

TEST(RegisterFile, UnwrittenReadsAsNil) {
  RegisterFile m;
  EXPECT_TRUE(m.read("nope").is_nil());
  EXPECT_EQ(m.footprint(), 0u);
}

TEST(RegisterFile, WriteThenRead) {
  RegisterFile m;
  m.write("a", Value(1));
  EXPECT_EQ(m.read("a").as_int(), 1);
  EXPECT_EQ(m.footprint(), 1u);
}

TEST(RegisterFile, OverwriteKeepsLatest) {
  RegisterFile m;
  m.write("a", Value(1));
  m.write("a", Value(2));
  EXPECT_EQ(m.read("a").as_int(), 2);
  EXPECT_EQ(m.footprint(), 1u);
}

TEST(RegisterFile, DistinctAddressesAreIndependent) {
  RegisterFile m;
  m.write("a", Value(1));
  m.write("b", Value("x"));
  EXPECT_EQ(m.read("a").as_int(), 1);
  EXPECT_EQ(m.read("b").as_str(), "x");
}

TEST(RegisterFile, IndexedNames) {
  EXPECT_EQ(reg("V", 0).name(), "V[0]");
  EXPECT_EQ(reg("V", 12).name(), "V[12]");
  EXPECT_EQ(reg2("cons", 1, 3).name(), "cons[1][3]");
  EXPECT_EQ(reg3("x", 1, 2, 3).name(), "x[1][2][3]");
}

TEST(Interning, RoundTripsThroughNames) {
  // Structured handle -> canonical name -> handle yields the same RegId.
  const Sym base = sym("it/V");
  const RegAddr structured = reg(base, 7);
  EXPECT_EQ(structured.name(), "it/V[7]");
  const RegAddr by_name{structured.name()};
  EXPECT_EQ(structured, by_name);
  EXPECT_EQ(structured.id(), by_name.id());
  // Literal string form unifies with the structured form.
  EXPECT_EQ(reg("it/V", 7), RegAddr{"it/V[7]"});
  EXPECT_EQ(reg2(base, 1, 2), RegAddr{"it/V[1][2]"});
  EXPECT_EQ(reg3(base, 1, 2, 3), RegAddr{"it/V[1][2][3]"});
  // Arity-0: the base symbol itself names a register.
  EXPECT_EQ(reg(sym("it/DEC")), RegAddr{"it/DEC"});
}

TEST(Interning, IsIdempotent) {
  const RegAddr a = reg(sym("it/W"), 3);
  const std::size_t count = interned_register_count();
  const RegAddr b = reg(sym("it/W"), 3);
  const RegAddr c{"it/W[3]"};
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, c);
  EXPECT_EQ(interned_register_count(), count);  // no new ids
  // Every id below the count is valid and resolvable.
  ASSERT_GT(count, 0u);
  EXPECT_EQ(RegAddr::from_id(a.id()).name(), "it/W[3]");
  EXPECT_EQ(reg_name_hash(a.id()), a.name_hash());
}

TEST(Interning, LargeIndicesBypassTheDenseCache) {
  const Sym base = sym("it/big");
  const RegAddr a = reg(base, 100000);  // beyond the dense child cache
  EXPECT_EQ(a.name(), "it/big[100000]");
  EXPECT_EQ(reg(base, 100000), a);
  EXPECT_EQ(RegAddr{"it/big[100000]"}, a);
}

TEST(RegisterFile, NeverWrittenInternedIdsReadAsNil) {
  RegisterFile m;
  // Intern addresses without writing them: both an id below any future
  // vector size and one far beyond it must read as Nil.
  const RegAddr lo = reg(sym("nil/A"), 0);
  const RegAddr hi = reg(sym("nil/A"), 999);
  EXPECT_TRUE(m.read(lo).is_nil());
  m.write(reg(sym("nil/B"), 1), Value(5));
  EXPECT_TRUE(m.read(lo).is_nil());
  EXPECT_TRUE(m.read(hi).is_nil());
  EXPECT_EQ(m.footprint(), 1u);
}

TEST(RegisterFile, FootprintCountsDistinctCells) {
  RegisterFile m;
  EXPECT_EQ(m.footprint(), 0u);
  const Sym base = sym("fw/R");
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 10; ++i) {
      m.write(reg(base, i), Value(round * 10 + i));
      // Overwrites leave the footprint alone.
      EXPECT_EQ(m.footprint(), round == 0 ? static_cast<std::size_t>(i + 1) : 10u);
    }
  }
  // An explicitly written Nil still counts as written.
  m.write(reg(base, 10), Value{});
  EXPECT_EQ(m.footprint(), 11u);
  EXPECT_TRUE(m.read(reg(base, 10)).is_nil());
}

TEST(RegisterFile, ContentHashIsOrderIndependent) {
  RegisterFile a;
  a.write("x", Value(1));
  a.write("y", Value(2));
  RegisterFile b;
  b.write("y", Value(2));
  b.write("x", Value(1));
  EXPECT_EQ(a.content_hash(), b.content_hash());
}

TEST(RegisterFile, ContentHashSeesValues) {
  RegisterFile a;
  a.write("x", Value(1));
  RegisterFile b;
  b.write("x", Value(2));
  EXPECT_NE(a.content_hash(), b.content_hash());
}

TEST(RegisterFile, ContentHashSeesAddresses) {
  RegisterFile a;
  a.write("x", Value(1));
  RegisterFile b;
  b.write("y", Value(1));
  EXPECT_NE(a.content_hash(), b.content_hash());
}

TEST(RegisterFile, IncrementalHashMatchesRecomputeUnderRandomWrites) {
  // Property test: after any sequence of writes (including overwrites and
  // explicit Nil writes), the incrementally maintained hash equals the
  // from-scratch recompute.
  std::mt19937 rng(20120716);  // PODC'12, for determinism
  const Sym base = sym("ph/R");
  RegisterFile m;
  EXPECT_EQ(m.content_hash(), m.content_hash_slow());
  for (int step = 0; step < 2000; ++step) {
    const int i = static_cast<int>(rng() % 64);
    const std::uint32_t kind = rng() % 4;
    Value v;
    switch (kind) {
      case 0: v = Value(static_cast<std::int64_t>(rng() % 16)); break;
      case 1: v = Value("s" + std::to_string(rng() % 8)); break;
      case 2: v = vec(Value(static_cast<std::int64_t>(rng() % 4)), Value(i)); break;
      default: break;  // explicit Nil write
    }
    m.write(reg(base, i), std::move(v));
    ASSERT_EQ(m.content_hash(), m.content_hash_slow()) << "after step " << step;
  }
  EXPECT_LE(m.footprint(), 64u);
}

TEST(RegisterFile, IncrementalHashIsWriteHistoryIndependent) {
  // Two stores whose final contents agree hash equally, no matter how many
  // intermediate overwrites each saw.
  const Sym base = sym("wh/R");
  RegisterFile a;
  for (int i = 0; i < 8; ++i) a.write(reg(base, i), Value(i));
  RegisterFile b;
  for (int round = 0; round < 5; ++round) {
    for (int i = 7; i >= 0; --i) b.write(reg(base, i), Value(round * 100 + i));
  }
  for (int i = 0; i < 8; ++i) b.write(reg(base, i), Value(i));
  EXPECT_EQ(a.content_hash(), b.content_hash());
}

TEST(RegisterFile, WriteToInvalidAddressThrows) {
  RegisterFile m;
  EXPECT_THROW(m.write(RegAddr{}, Value(1)), std::logic_error);
}

}  // namespace
}  // namespace efd
