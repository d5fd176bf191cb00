// Server workloads: "Servers are essentially the consumer of a bounded buffer, where
// the producer may or may not be on the same machine." Requests arrive through an
// ArrivalProcess (network RX) into a bounded socket buffer; the server thread consumes
// one request at a time.
#ifndef REALRATE_WORKLOADS_SERVER_H_
#define REALRATE_WORKLOADS_SERVER_H_

#include "queue/bounded_buffer.h"
#include "queue/tty.h"
#include "sim/simulator.h"
#include "task/work_model.h"
#include "util/rng.h"

namespace realrate {

// Pops fixed-size requests and spends `cycles_per_request` on each. Blocks when no
// complete request is buffered.
class RequestServerWork : public WorkModel {
 public:
  RequestServerWork(BoundedBuffer* in, int64_t request_bytes, Cycles cycles_per_request);

  RunResult Run(TimePoint now, Cycles granted) override;

  int64_t requests_served() const { return served_; }

 private:
  BoundedBuffer* const in_;
  const int64_t request_bytes_;
  const Cycles cycles_per_request_;
  Cycles into_request_ = 0;
  bool request_in_hand_ = false;
  int64_t served_ = 0;
};

// A simulated human: injects tty input events at exponentially distributed intervals
// (think time). Drives InteractiveWork experiments.
class TypingProcess {
 public:
  struct Config {
    Duration mean_think = Duration::Millis(500);
    uint64_t seed = 7;
  };

  TypingProcess(Simulator& sim, TtyPort* tty, const Config& config);

  void Start();
  void Stop() { running_ = false; }
  int64_t keystrokes() const { return keystrokes_; }

 private:
  void ScheduleNext();

  Simulator& sim_;
  TtyPort* const tty_;
  Config config_;
  Rng rng_;
  bool running_ = false;
  int64_t keystrokes_ = 0;
};

}  // namespace realrate

#endif  // REALRATE_WORKLOADS_SERVER_H_
