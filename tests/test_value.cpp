// Unit tests for the Value algebra (sim/value.hpp).
#include "sim/value.hpp"

#include <gtest/gtest.h>

#include <unordered_set>

namespace efd {
namespace {

TEST(Value, DefaultIsNil) {
  Value v;
  EXPECT_TRUE(v.is_nil());
  EXPECT_FALSE(v.is_int());
  EXPECT_FALSE(v.is_str());
  EXPECT_FALSE(v.is_vec());
  EXPECT_EQ(v, kNil);
}

TEST(Value, IntRoundTrip) {
  Value v(42);
  EXPECT_TRUE(v.is_int());
  EXPECT_EQ(v.as_int(), 42);
  EXPECT_EQ(v.int_or(-1), 42);
  EXPECT_EQ(Value(-7).as_int(), -7);
}

TEST(Value, IntOrFallsBackOnNonInt) {
  EXPECT_EQ(kNil.int_or(99), 99);
  EXPECT_EQ(Value("x").int_or(5), 5);
  EXPECT_EQ(Value(ValueVec{}).int_or(3), 3);
}

TEST(Value, BoolConvertsToInt) {
  EXPECT_EQ(Value(true).as_int(), 1);
  EXPECT_EQ(Value(false).as_int(), 0);
}

TEST(Value, StringRoundTrip) {
  Value v("hello");
  EXPECT_TRUE(v.is_str());
  EXPECT_EQ(v.as_str(), "hello");
}

TEST(Value, VectorRoundTrip) {
  Value v = vec(Value(1), Value("a"), kNil);
  ASSERT_TRUE(v.is_vec());
  EXPECT_EQ(v.size(), 3u);
  EXPECT_EQ(v.at(0).as_int(), 1);
  EXPECT_EQ(v.at(1).as_str(), "a");
  EXPECT_TRUE(v.at(2).is_nil());
}

TEST(Value, AtOutOfRangeIsNil) {
  Value v = vec(Value(1));
  EXPECT_TRUE(v.at(5).is_nil());
  EXPECT_TRUE(Value(3).at(0).is_nil());  // non-vector
}

TEST(Value, SizeOfNonVectorIsZero) {
  EXPECT_EQ(kNil.size(), 0u);
  EXPECT_EQ(Value(7).size(), 0u);
  EXPECT_EQ(Value("abc").size(), 0u);
}

TEST(Value, StructuralEquality) {
  EXPECT_EQ(vec(Value(1), Value(2)), vec(Value(1), Value(2)));
  EXPECT_NE(vec(Value(1), Value(2)), vec(Value(2), Value(1)));
  EXPECT_EQ(Value("x"), Value(std::string("x")));
  EXPECT_NE(Value(1), Value("1"));
}

TEST(Value, DeepEqualityOnNestedVectors) {
  Value a = vec(vec(Value(1), kNil), Value("s"));
  Value b = vec(vec(Value(1), kNil), Value("s"));
  EXPECT_EQ(a, b);
}

TEST(Value, KindOrdering) {
  // Nil < Int < Str < Vec.
  EXPECT_LT(kNil, Value(0));
  EXPECT_LT(Value(123456), Value(""));
  EXPECT_LT(Value("zzz"), Value(ValueVec{}));
}

TEST(Value, IntOrdering) {
  EXPECT_LT(Value(-5), Value(3));
  EXPECT_LT(Value(3), Value(4));
}

TEST(Value, StringOrderingIsLexicographic) {
  EXPECT_LT(Value("abc"), Value("abd"));
  EXPECT_LT(Value("ab"), Value("abc"));
}

TEST(Value, VectorOrderingIsLexicographic) {
  EXPECT_LT(vec(Value(1)), vec(Value(1), Value(0)));
  EXPECT_LT(vec(Value(1), Value(2)), vec(Value(1), Value(3)));
  EXPECT_LT(vec(Value(0), Value(9)), vec(Value(1)));
}

TEST(Value, ToString) {
  EXPECT_EQ(kNil.to_string(), "nil");
  EXPECT_EQ(Value(5).to_string(), "5");
  EXPECT_EQ(Value("hi").to_string(), "\"hi\"");
  EXPECT_EQ(vec(Value(1), kNil).to_string(), "[1, nil]");
}

TEST(Value, HashIsStructural) {
  EXPECT_EQ(vec(Value(1), Value("a")).hash(), vec(Value(1), Value("a")).hash());
  EXPECT_NE(Value(1).hash(), Value(2).hash());
  EXPECT_NE(kNil.hash(), Value(0).hash());
  EXPECT_NE(Value("1").hash(), Value(1).hash());
}

TEST(Value, HashDistinguishesNestingShape) {
  EXPECT_NE(vec(vec(Value(1)), Value(2)).hash(), vec(Value(1), vec(Value(2))).hash());
}

TEST(Value, UsableInUnorderedSet) {
  std::unordered_set<Value> set;
  set.insert(Value(1));
  set.insert(vec(Value(1), Value(2)));
  set.insert(Value(1));  // duplicate
  EXPECT_EQ(set.size(), 2u);
  EXPECT_TRUE(set.count(vec(Value(1), Value(2))));
}

TEST(Value, CopyIsCheapAndShared) {
  Value big(ValueVec(1000, Value(7)));
  Value copy = big;  // shares payload
  EXPECT_EQ(copy.size(), 1000u);
  EXPECT_EQ(copy, big);
}

// Property sweep: ordering is a strict total order on a sample of values.
class ValueOrderProperty : public ::testing::TestWithParam<int> {};

TEST_P(ValueOrderProperty, TotalOrderAxioms) {
  const int seed = GetParam();
  std::vector<Value> vals = {
      kNil, Value(seed), Value(seed - 1), Value("s" + std::to_string(seed)),
      vec(Value(seed)), vec(Value(seed), kNil), vec(vec(Value(seed)))};
  for (const auto& a : vals) {
    EXPECT_EQ(a <=> a, std::strong_ordering::equal);
    for (const auto& b : vals) {
      // Antisymmetry & totality.
      const bool lt = a < b;
      const bool gt = b < a;
      const bool eq = a == b;
      EXPECT_EQ(lt + gt + eq, 1) << a.to_string() << " vs " << b.to_string();
      if (eq) {
        EXPECT_EQ(a.hash(), b.hash());
      }
      for (const auto& c : vals) {
        if (a < b && b < c) {
          EXPECT_LT(a, c);  // transitivity
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ValueOrderProperty, ::testing::Values(0, 1, 7, 42, 1000, -3));

}  // namespace
}  // namespace efd
