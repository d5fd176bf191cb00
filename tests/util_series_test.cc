#include <sstream>

#include <gtest/gtest.h>

#include "util/csv.h"
#include "util/time_series.h"

namespace realrate {
namespace {

TimePoint At(int64_t ms) { return TimePoint::Origin() + Duration::Millis(ms); }

TEST(TimeSeriesTest, ValueAtStepInterpolates) {
  TimeSeries s("x");
  s.Add(At(10), 1.0);
  s.Add(At(20), 2.0);
  s.Add(At(30), 3.0);
  EXPECT_DOUBLE_EQ(s.ValueAt(At(5), -1.0), -1.0);  // Before first point: fallback.
  EXPECT_DOUBLE_EQ(s.ValueAt(At(10)), 1.0);
  EXPECT_DOUBLE_EQ(s.ValueAt(At(15)), 1.0);
  EXPECT_DOUBLE_EQ(s.ValueAt(At(20)), 2.0);
  EXPECT_DOUBLE_EQ(s.ValueAt(At(99)), 3.0);
}

TEST(TimeSeriesTest, MeanOverWindow) {
  TimeSeries s("x");
  for (int i = 0; i < 10; ++i) {
    s.Add(At(i * 10), i);
  }
  // Points at 20, 30, 40 => values 2, 3, 4.
  EXPECT_DOUBLE_EQ(s.MeanOver(At(20), At(50)), 3.0);
  EXPECT_DOUBLE_EQ(s.MeanOver(At(500), At(600)), 0.0);  // Empty window.
}

TEST(TimeSeriesTest, OscillationIsMaxMinusMin) {
  TimeSeries s("x");
  s.Add(At(0), 0.5);
  s.Add(At(10), 0.8);
  s.Add(At(20), 0.3);
  s.Add(At(30), 0.6);
  EXPECT_DOUBLE_EQ(s.OscillationOver(At(0), At(40)), 0.5);
  EXPECT_DOUBLE_EQ(s.OscillationOver(At(25), At(40)), 0.0);  // Single point.
}

TEST(TimeSeriesTest, FirstCrossingRisingAndFalling) {
  TimeSeries s("x");
  s.Add(At(0), 0.0);
  s.Add(At(10), 0.4);
  s.Add(At(20), 0.9);
  s.Add(At(30), 0.2);
  EXPECT_EQ(s.FirstCrossing(At(0), 0.5, /*rising=*/true), At(20));
  EXPECT_EQ(s.FirstCrossing(At(25), 0.3, /*rising=*/false), At(30));
  EXPECT_EQ(s.FirstCrossing(At(0), 5.0, /*rising=*/true), TimePoint::Max());
}

TEST(TimeSeriesTest, ResampleAverages) {
  TimeSeries s("x");
  s.Add(At(0), 1.0);
  s.Add(At(4), 3.0);
  s.Add(At(10), 10.0);
  const TimeSeries r = s.Resample(Duration::Millis(10));
  ASSERT_EQ(r.size(), 2u);
  EXPECT_DOUBLE_EQ(r.points()[0].value, 2.0);
  EXPECT_DOUBLE_EQ(r.points()[1].value, 10.0);
}

TEST(TimeSeriesTest, StatsCoverAllPoints) {
  TimeSeries s("x");
  s.Add(At(0), 2.0);
  s.Add(At(1), 4.0);
  const RunningStats stats = s.Stats();
  EXPECT_EQ(stats.count(), 2);
  EXPECT_DOUBLE_EQ(stats.mean(), 3.0);
}

TEST(CsvTest, AlignedSeriesMergesTimestamps) {
  TimeSeries a("a");
  a.Add(At(0), 1.5);
  a.Add(At(20), 2.5);
  TimeSeries b("b");
  b.Add(At(10), 5.0);
  std::ostringstream out;
  WriteAlignedSeries(out, {&a, &b});
  // One row per distinct timestamp; each series holds its last value (0 before its
  // first point).
  EXPECT_EQ(out.str(),
            "time_s,a,b\n"
            "0,1.5,0\n"
            "0.01,1.5,5\n"
            "0.02,2.5,5\n");
}

}  // namespace
}  // namespace realrate
