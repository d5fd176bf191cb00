#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "util/ring_buffer.h"
#include "util/rng.h"
#include "util/stats.h"

namespace realrate {
namespace {

TEST(RunningStatsTest, MeanVarianceMinMax) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.Add(x);
  }
  EXPECT_EQ(s.count(), 8);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);  // Known population variance of this set.
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStatsTest, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStatsTest, MergeMatchesSequential) {
  RunningStats all;
  RunningStats a;
  RunningStats b;
  Rng rng(99);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.NextDouble(-5, 5);
    all.Add(x);
    (i % 2 == 0 ? a : b).Add(x);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-10);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStatsTest, MergeWithEmptySides) {
  RunningStats a;
  RunningStats b;
  b.Add(3.0);
  a.Merge(b);  // Empty.Merge(nonempty).
  EXPECT_EQ(a.count(), 1);
  RunningStats c;
  a.Merge(c);  // nonempty.Merge(empty).
  EXPECT_EQ(a.count(), 1);
  EXPECT_DOUBLE_EQ(a.mean(), 3.0);
}

TEST(SampleSetTest, PercentilesInterpolate) {
  SampleSet s;
  for (double x : {10.0, 20.0, 30.0, 40.0}) {
    s.Add(x);
  }
  EXPECT_DOUBLE_EQ(s.Percentile(0), 10.0);
  EXPECT_DOUBLE_EQ(s.Percentile(100), 40.0);
  EXPECT_DOUBLE_EQ(s.Median(), 25.0);
  EXPECT_DOUBLE_EQ(s.Percentile(25), 17.5);
  EXPECT_DOUBLE_EQ(s.Mean(), 25.0);
}

TEST(SampleSetTest, SingleSample) {
  SampleSet s;
  s.Add(42.0);
  EXPECT_DOUBLE_EQ(s.Percentile(0), 42.0);
  EXPECT_DOUBLE_EQ(s.Percentile(50), 42.0);
  EXPECT_DOUBLE_EQ(s.Percentile(100), 42.0);
}

TEST(SampleSetTest, BoundaryPercentilesAreExtremes) {
  // p=0 and p=100 must be exactly min/max (rank 0 and rank n-1, no interpolation
  // step beyond the array), regardless of insertion order.
  SampleSet s;
  for (double x : {7.0, -3.0, 99.5, 0.0, 12.25}) {
    s.Add(x);
  }
  EXPECT_DOUBLE_EQ(s.Percentile(0), -3.0);
  EXPECT_DOUBLE_EQ(s.Percentile(100), 99.5);
}

TEST(SampleSetTest, TwoSampleTailInterpolation) {
  // With two samples the p99.9 rank is 0.999: a high percentile interpolates
  // between them instead of snapping to the max.
  SampleSet s;
  s.Add(10.0);
  s.Add(20.0);
  EXPECT_DOUBLE_EQ(s.Percentile(99.9), 10.0 + 0.999 * 10.0);
  EXPECT_DOUBLE_EQ(s.Percentile(0.1), 10.0 + 0.001 * 10.0);
}

TEST(SampleSetTest, AddAfterPercentileResorts) {
  // Interleaving Add and Percentile: every percentile reflects every sample added
  // so far, so a new minimum shows up at p=0 and shifts the median. (Regression
  // test: a sort memo once survived Add, and percentiles silently ignored
  // everything added after the first query.)
  SampleSet s;
  s.Add(30.0);
  s.Add(10.0);
  s.Add(20.0);
  EXPECT_DOUBLE_EQ(s.Median(), 20.0);  // {10, 20, 30}.
  s.Add(0.0);
  EXPECT_DOUBLE_EQ(s.Percentile(0), 0.0);
  EXPECT_DOUBLE_EQ(s.Median(), 15.0);  // {0, 10, 20, 30} -> (10+20)/2.
  s.Add(40.0);
  EXPECT_DOUBLE_EQ(s.Percentile(100), 40.0);
  EXPECT_DOUBLE_EQ(s.Median(), 20.0);  // {0, 10, 20, 30, 40}.
}

// The sorted-order definition Percentile must reproduce bit for bit.
double SortedPercentile(std::vector<double> samples, double p) {
  std::sort(samples.begin(), samples.end());
  if (samples.size() == 1) {
    return samples[0];
  }
  const double rank = p / 100.0 * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] * (1.0 - frac) + samples[hi] * frac;
}

TEST(SampleSetTest, SelectionMatchesSortedDefinition) {
  // Seeded sets with duplicates (values drawn from a small grid plus a
  // continuous tail), queried between Adds so each selection starts from the
  // order the previous one left behind.
  constexpr double kPercentiles[] = {0.0, 0.1, 50.0, 99.0, 99.9, 100.0};
  Rng rng(2024);
  for (size_t n : {size_t{1}, size_t{2}, size_t{3}, size_t{1000}}) {
    SampleSet set;
    std::vector<double> reference;
    for (size_t i = 0; i < n; ++i) {
      const double x = rng.NextBool(0.5) ? static_cast<double>(rng.NextBounded(8))
                                         : rng.NextExponential(3.0);
      set.Add(x);
      reference.push_back(x);
      if (i + 1 == n || rng.NextBool(0.05)) {
        for (double p : kPercentiles) {
          // Exact equality: the selection must find the very order statistics
          // the sort does and interpolate them with the same arithmetic.
          EXPECT_EQ(set.Percentile(p), SortedPercentile(reference, p))
              << "n=" << reference.size() << " p=" << p;
        }
      }
    }
    EXPECT_EQ(set.size(), n);
  }
}

TEST(SampleSetTest, BatchPercentilesMatchSingleCalls) {
  // One ascending pass gives, value for value, what one Percentile call per p
  // gives: on a random set, a duplicate-heavy one, and 1- and 2-sample sets
  // (where several p share one rank).
  const std::vector<double> ps = {0.0, 50.0, 99.0, 99.9, 100.0};
  Rng rng(77);
  std::vector<double> random;
  std::vector<double> duplicates;
  for (int i = 0; i < 5000; ++i) {
    random.push_back(rng.NextExponential(2.0));
    duplicates.push_back(static_cast<double>(rng.NextBounded(4)));
  }
  const std::vector<std::vector<double>> sets = {random, duplicates, {3.5}, {20.0, 10.0}};
  for (const std::vector<double>& values : sets) {
    SampleSet batch;
    SampleSet single;
    for (double x : values) {
      batch.Add(x);
      single.Add(x);
    }
    const std::vector<double> got = batch.Percentiles(ps);
    ASSERT_EQ(got.size(), ps.size());
    for (size_t i = 0; i < ps.size(); ++i) {
      EXPECT_EQ(got[i], single.Percentile(ps[i])) << "n=" << values.size() << " p=" << ps[i];
      EXPECT_EQ(got[i], SortedPercentile(values, ps[i]))
          << "n=" << values.size() << " p=" << ps[i];
    }
  }
  SampleSet s;
  s.Add(1.0);
  EXPECT_DEATH(s.Percentiles({99.0, 50.0}), "Precondition failed");  // Not ascending.
}

TEST(SampleSetTest, MergeAppendsEverySample) {
  SampleSet a;
  SampleSet b;
  for (double x : {5.0, 1.0}) {
    a.Add(x);
  }
  for (double x : {3.0, 9.0, 1.0}) {
    b.Add(x);
  }
  SampleSet merged;
  merged.Merge(std::move(a));
  merged.Merge(std::move(b));
  EXPECT_EQ(merged.size(), 5u);
  EXPECT_DOUBLE_EQ(merged.Percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(merged.Median(), 3.0);
  EXPECT_DOUBLE_EQ(merged.Percentile(100), 9.0);
  EXPECT_DOUBLE_EQ(merged.Mean(), 19.0 / 5.0);
}

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

// Seeded values with ties: half from a small grid, half from a continuous tail.
std::vector<double> DrawWithTies(Rng& rng, size_t n) {
  std::vector<double> values;
  for (size_t i = 0; i < n; ++i) {
    values.push_back(rng.NextBool(0.5) ? static_cast<double>(rng.NextBounded(16))
                                       : rng.NextExponential(5.0));
  }
  return values;
}

// The plain definition Mean must reproduce bit for bit: a sum in insertion order.
double InsertionOrderMean(const std::vector<double>& values) {
  double sum = 0.0;
  for (double x : values) {
    sum += x;
  }
  return sum / static_cast<double>(values.size());
}

TEST(SampleSetTest, BlockStorageMatchesASortedVector) {
  // Sizes around the 64-sample block boundary and well past it: the samples
  // span blocks, and the selection permutes them across block edges.
  const std::vector<double> ps = {0.0, 50.0, 99.0, 99.9, 100.0};
  Rng rng(30);
  for (const size_t n : {size_t{1}, size_t{63}, size_t{64}, size_t{65}, size_t{64 * 7 + 17},
                         size_t{64 * 1563 + 17}}) {
    const std::vector<double> values = DrawWithTies(rng, n);
    SampleSet set;
    for (double x : values) {
      set.Add(x);
    }
    ASSERT_EQ(set.size(), n);
    EXPECT_EQ(Bits(set.Mean()), Bits(InsertionOrderMean(values))) << "n=" << n;
    const std::vector<double> got = set.Percentiles(ps);
    for (size_t i = 0; i < ps.size(); ++i) {
      EXPECT_EQ(Bits(got[i]), Bits(SortedPercentile(values, ps[i])))
          << "n=" << n << " p=" << ps[i];
    }
  }
}

TEST(SampleSetTest, MergeConsumesItsSourceInOrder) {
  // Into an empty set and into a filled one, across several blocks each: the
  // source is left empty, and the merged set holds the concatenation in order,
  // so its Mean is the copy-order Mean bit for bit.
  Rng rng(31);
  for (const size_t into : {size_t{0}, size_t{1000}}) {
    const std::vector<double> first = DrawWithTies(rng, into);
    const std::vector<double> second = DrawWithTies(rng, 777);
    SampleSet merged;
    SampleSet source;
    for (double x : first) {
      merged.Add(x);
    }
    for (double x : second) {
      source.Add(x);
    }
    merged.Merge(std::move(source));
    EXPECT_TRUE(source.empty()) << "into=" << into;
    std::vector<double> concatenated = first;
    concatenated.insert(concatenated.end(), second.begin(), second.end());
    ASSERT_EQ(merged.size(), concatenated.size());
    EXPECT_EQ(Bits(merged.Mean()), Bits(InsertionOrderMean(concatenated))) << "into=" << into;
    EXPECT_EQ(Bits(merged.Percentile(99.0)), Bits(SortedPercentile(concatenated, 99.0)));
    // The emptied source is a usable set again.
    source.Add(2.5);
    EXPECT_EQ(source.Median(), 2.5);
  }
}

TEST(FitLineTest, ExactLine) {
  std::vector<double> xs;
  std::vector<double> ys;
  for (int i = 0; i <= 40; i += 5) {
    xs.push_back(i);
    ys.push_back(0.00066 * i + 0.00057);  // The paper's Fig. 5 fit.
  }
  const LinearFit fit = FitLine(xs, ys);
  EXPECT_NEAR(fit.slope, 0.00066, 1e-12);
  EXPECT_NEAR(fit.intercept, 0.00057, 1e-12);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
}

TEST(FitLineTest, NoisyLineHasHighButImperfectR2) {
  Rng rng(7);
  std::vector<double> xs;
  std::vector<double> ys;
  for (int i = 0; i < 100; ++i) {
    xs.push_back(i);
    ys.push_back(2.0 * i + 1.0 + rng.NextNormal(0, 3.0));
  }
  const LinearFit fit = FitLine(xs, ys);
  EXPECT_NEAR(fit.slope, 2.0, 0.1);
  EXPECT_GT(fit.r_squared, 0.99);
  EXPECT_LT(fit.r_squared, 1.0);
}

TEST(FitLineTest, ConstantYIsPerfectFlatFit) {
  const LinearFit fit = FitLine({1, 2, 3}, {5, 5, 5});
  EXPECT_DOUBLE_EQ(fit.slope, 0.0);
  EXPECT_DOUBLE_EQ(fit.intercept, 5.0);
  EXPECT_DOUBLE_EQ(fit.r_squared, 1.0);
}

TEST(RingBufferTest, EvictsOldest) {
  RingBuffer<int> rb(3);
  rb.Push(1);
  rb.Push(2);
  EXPECT_EQ(rb.size(), 2u);
  EXPECT_FALSE(rb.full());
  rb.Push(3);
  rb.Push(4);  // Evicts 1.
  EXPECT_TRUE(rb.full());
  EXPECT_EQ(rb.Front(), 2);
  EXPECT_EQ(rb.Back(), 4);
  EXPECT_EQ(rb[0], 2);
  EXPECT_EQ(rb[1], 3);
  EXPECT_EQ(rb[2], 4);
}

TEST(RingBufferTest, ClearResets) {
  RingBuffer<int> rb(2);
  rb.Push(1);
  rb.Push(2);
  rb.Clear();
  EXPECT_TRUE(rb.empty());
  rb.Push(9);
  EXPECT_EQ(rb.Front(), 9);
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, BoundedStaysInBounds) {
  Rng rng(5);
  for (int i = 0; i < 10'000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(6);
  for (int i = 0; i < 10'000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, ExponentialMeanApproximatelyCorrect) {
  Rng rng(8);
  RunningStats s;
  for (int i = 0; i < 100'000; ++i) {
    s.Add(rng.NextExponential(3.0));
  }
  EXPECT_NEAR(s.mean(), 3.0, 0.05);
  EXPECT_GE(s.min(), 0.0);
}

TEST(RngTest, NormalMomentsApproximatelyCorrect) {
  Rng rng(9);
  RunningStats s;
  for (int i = 0; i < 100'000; ++i) {
    s.Add(rng.NextNormal(10.0, 2.0));
  }
  EXPECT_NEAR(s.mean(), 10.0, 0.05);
  EXPECT_NEAR(s.stddev(), 2.0, 0.05);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(10);
  int hits = 0;
  for (int i = 0; i < 100'000; ++i) {
    hits += rng.NextBool(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(hits / 100'000.0, 0.3, 0.01);
}

}  // namespace
}  // namespace realrate
