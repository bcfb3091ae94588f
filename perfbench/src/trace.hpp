// Per-command spans of the traced run and their analysis.
//
// Every traced command carries its trace id (session, seq). The generator
// and the instrumented replica stamp it at the layer boundaries the
// benchmark can see from outside the program: due time, generator send,
// admission at the proposer, merged delivery, execution (with the state
// machine's apply inside it) and reply receipt. build_spans turns one
// command's stamps into a span tree:
//
//   e2e                      due -> reply receipt (the measured latency)
//     client.gen_lag         due -> generator handled the arrival
//     stage.client_to_admit  send -> proposer admitted the request
//     stage.admit_to_deliver admit -> merged delivery at the replier
//     stage.deliver_to_execute  delivery -> execution start (gather wait)
//     stage.execute          execution start -> end
//       sm.apply             the state machine's own apply
//     stage.execute_to_reply execution end -> reply receipt
//
// A span is recorded only when both its ends were stamped, so a missing
// stamp shows up as e2e self time (unattributed latency).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

constexpr std::int64_t kNoStamp = -1;

/// Stamps of one command on one timeline (ns on the shared steady clock).
/// Replica-side stamps are those of the replica whose reply arrived first.
struct CommandStamps {
  std::int64_t due = kNoStamp;
  std::int64_t arrived = kNoStamp;  // generator handled the arrival
  std::int64_t admit = kNoStamp;    // proposer's on_app_message
  std::int64_t deliver = kNoStamp;  // first merged delivery at the replier
  std::int64_t exec_start = kNoStamp;
  std::int64_t apply_start = kNoStamp;
  std::int64_t apply_end = kNoStamp;
  std::int64_t exec_end = kNoStamp;
  std::int64_t reply = kNoStamp;    // first reply received by the generator
};

struct Span {
  std::string name;
  std::int64_t start = 0;
  std::int64_t end = 0;
  int parent = -1;              ///< index of the parent span, -1 for a root
  std::uint64_t trace_id = 0;
};

/// Appends the spans of one command to `out` (parents index into `out`).
/// Nothing is appended when the command has no due or reply stamp.
void build_spans(std::uint64_t trace_id, const CommandStamps& s,
                 std::vector<Span>& out);

/// Self time of a span: its duration minus the part of its interval that
/// its direct children cover. Returned per span, parallel to `spans`.
std::vector<std::int64_t> self_times(const std::vector<Span>& spans);

struct SpanSummary {
  std::uint64_t count = 0;
  double total_ns = 0;
  double self_ns = 0;
  std::vector<double> durations_ns;
};

/// Per-name totals (count, total and self time, all durations).
std::map<std::string, SpanSummary> summarize(const std::vector<Span>& spans);

/// Share of the summed e2e latency not covered by stage spans.
double unattributed_frac(const std::vector<Span>& spans);

/// Writes spans as JSON lines (name, start, end, parent, trace id).
bool write_spans(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench
