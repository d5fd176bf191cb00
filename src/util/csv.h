// CSV emission for experiment output. Benches print figure data as aligned text for
// the terminal and, when asked, as CSV files for plotting.
#ifndef REALRATE_UTIL_CSV_H_
#define REALRATE_UTIL_CSV_H_

#include <ostream>
#include <vector>

#include "util/time_series.h"

namespace realrate {

// Writes several series on a shared time axis (union of timestamps, step-interpolated):
// a `time_s,<name>...` header, then one comma-separated row per timestamp.
void WriteAlignedSeries(std::ostream& out, const std::vector<const TimeSeries*>& series);

}  // namespace realrate

#endif  // REALRATE_UTIL_CSV_H_
