#include "util/csv.h"

#include <set>

namespace realrate {

void WriteAlignedSeries(std::ostream& out, const std::vector<const TimeSeries*>& series) {
  out << "time_s";
  for (const TimeSeries* s : series) {
    out << ',' << s->name();
  }
  out << '\n';

  std::set<TimePoint> times;
  for (const TimeSeries* s : series) {
    for (const auto& p : s->points()) {
      times.insert(p.t);
    }
  }
  for (TimePoint t : times) {
    out << t.ToSeconds();
    for (const TimeSeries* s : series) {
      out << ',' << s->ValueAt(t);
    }
    out << '\n';
  }
}

}  // namespace realrate
