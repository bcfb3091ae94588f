#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

void build_spans(std::uint64_t trace_id, const CommandStamps& s,
                 std::vector<Span>& out) {
  if (s.due == kNoStamp || s.reply == kNoStamp) return;
  const int root = static_cast<int>(out.size());
  out.push_back(Span{"e2e", s.due, s.reply, -1, trace_id});
  auto add = [&](const char* name, std::int64_t a, std::int64_t b,
                 int parent) {
    if (a == kNoStamp || b == kNoStamp || b < a) return -1;
    out.push_back(Span{name, a, b, parent, trace_id});
    return static_cast<int>(out.size()) - 1;
  };
  add("client.gen_lag", s.due, s.arrived, root);
  // The wait between handling the arrival and sending (no free session)
  // belongs to the client too; it joins client_to_admit.
  add("stage.client_to_admit", s.arrived, s.admit, root);
  add("stage.admit_to_deliver", s.admit, s.deliver, root);
  add("stage.deliver_to_execute", s.deliver, s.exec_start, root);
  const int exec = add("stage.execute", s.exec_start, s.exec_end, root);
  if (exec >= 0) add("sm.apply", s.apply_start, s.apply_end, exec);
  add("stage.execute_to_reply", s.exec_end, s.reply, root);
}

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans.size());
  for (const Span& sp : spans) {
    if (sp.parent >= 0) kids[sp.parent].emplace_back(sp.start, sp.end);
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    // Length of the union of child intervals, clipped to the parent.
    std::int64_t covered = 0;
    std::int64_t cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (auto [a, b] : iv) {
      a = std::max(a, spans[i].start);
      b = std::min(b, spans[i].end);
      if (b <= a) continue;
      if (open && a <= cur_hi) {
        cur_hi = std::max(cur_hi, b);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = a;
      cur_hi = b;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = (spans[i].end - spans[i].start) - covered;
  }
  return self;
}

std::map<std::string, SpanSummary> summarize(const std::vector<Span>& spans) {
  const std::vector<std::int64_t> self = self_times(spans);
  std::map<std::string, SpanSummary> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    SpanSummary& s = out[spans[i].name];
    const double d = static_cast<double>(spans[i].end - spans[i].start);
    ++s.count;
    s.total_ns += d;
    s.self_ns += static_cast<double>(self[i]);
    s.durations_ns.push_back(d);
  }
  return out;
}

double unattributed_frac(const std::vector<Span>& spans) {
  const std::vector<std::int64_t> self = self_times(spans);
  double total = 0, unattributed = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) continue;
    total += static_cast<double>(spans[i].end - spans[i].start);
    unattributed += static_cast<double>(self[i]);
  }
  return total > 0 ? unattributed / total : 0;
}

bool write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start\":%lld,\"end\":%lld,"
                 "\"parent\":%d,\"trace_id\":\"%llu:%llu\"}\n",
                 s.name.c_str(), static_cast<long long>(s.start),
                 static_cast<long long>(s.end), s.parent,
                 static_cast<unsigned long long>(s.trace_id >> 32),
                 static_cast<unsigned long long>(s.trace_id & 0xffffffffULL));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
