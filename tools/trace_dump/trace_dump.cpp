// trace_dump: inspect / validate Chrome trace-event JSON written by
// obs::export_chrome_trace (fig15/fig18 FLEXCORE_TRACE_OUT, tests).
//
//   trace_dump <trace.json>            per-stage & per-track summary table
//   trace_dump --validate <trace.json> checks only, exit 0/1
//   trace_dump --self-test             record a synthetic trace through the
//                                      obs API, export, re-parse, validate;
//                                      then feed the validator broken traces
//
//   --min-events N       at least N span events (ph "X" + "i")
//   --expect-track NAME  a track named NAME exists (repeatable)
//
// Validation (what CI's obs-smoke job relies on):
//   * top level is an object with a "traceEvents" array
//   * every event is an object with a string "ph"
//   * ph:"X" events carry name/ts/dur (numbers, dur >= 0) and pid/tid
//   * ph:"M" thread_name metadata names every tid used by an X/i event
//   * per tid, X events sorted by ts (the exporter emits them sorted)
//   * spans of the flight recorder (cat "flexcore") are named after an
//     obs::Stage; spans other writers add keep their own names
//   * the --min-events / --expect-track expectations
//
// The JSON parser below is deliberately minimal (objects, arrays, strings
// with escapes, numbers, true/false/null) — enough for the trace format,
// zero dependencies.
#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/obs.h"
#include "obs/trace_export.h"

namespace {

// ---------------------------------------------------------------------------
// Minimal JSON
// ---------------------------------------------------------------------------

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> items;
  std::vector<std::pair<std::string, JsonValue>> members;

  const JsonValue* find(const char* key) const {
    for (const auto& [k, v] : members) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  bool parse(JsonValue* out, std::string* error) {
    skip_ws();
    if (!value(out)) {
      char buf[96];
      std::snprintf(buf, sizeof buf, "parse error near offset %zu", pos_);
      *error = buf;
      return false;
    }
    skip_ws();
    if (pos_ != s_.size()) {
      *error = "trailing characters after the top-level value";
      return false;
    }
    return true;
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }
  bool consume(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool literal(const char* word) {
    const std::size_t n = std::strlen(word);
    if (s_.compare(pos_, n, word) != 0) return false;
    pos_ += n;
    return true;
  }

  bool value(JsonValue* out) {
    skip_ws();
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object(out);
      case '[': return array(out);
      case '"':
        out->type = JsonValue::Type::kString;
        return string(&out->str);
      case 't':
        out->type = JsonValue::Type::kBool;
        out->boolean = true;
        return literal("true");
      case 'f':
        out->type = JsonValue::Type::kBool;
        out->boolean = false;
        return literal("false");
      case 'n':
        out->type = JsonValue::Type::kNull;
        return literal("null");
      default: return number(out);
    }
  }

  bool object(JsonValue* out) {
    out->type = JsonValue::Type::kObject;
    if (!consume('{')) return false;
    skip_ws();
    if (consume('}')) return true;
    for (;;) {
      skip_ws();
      std::string key;
      if (!string(&key)) return false;
      skip_ws();
      if (!consume(':')) return false;
      JsonValue v;
      if (!value(&v)) return false;
      out->members.emplace_back(std::move(key), std::move(v));
      skip_ws();
      if (consume(',')) continue;
      return consume('}');
    }
  }

  bool array(JsonValue* out) {
    out->type = JsonValue::Type::kArray;
    if (!consume('[')) return false;
    skip_ws();
    if (consume(']')) return true;
    for (;;) {
      JsonValue v;
      if (!value(&v)) return false;
      out->items.push_back(std::move(v));
      skip_ws();
      if (consume(',')) continue;
      return consume(']');
    }
  }

  bool string(std::string* out) {
    if (!consume('"')) return false;
    out->clear();
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= s_.size()) return false;
      const char esc = s_[pos_++];
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          // Keep it simple: \uXXXX outside ASCII becomes '?'.
          if (pos_ + 4 > s_.size()) return false;
          const unsigned long cp = std::strtoul(s_.substr(pos_, 4).c_str(),
                                                nullptr, 16);
          pos_ += 4;
          out->push_back(cp < 0x80 ? static_cast<char>(cp) : '?');
          break;
        }
        default: return false;
      }
    }
    return false;  // unterminated
  }

  bool number(JsonValue* out) {
    const char* start = s_.c_str() + pos_;
    char* end = nullptr;
    const double v = std::strtod(start, &end);
    if (end == start) return false;
    out->type = JsonValue::Type::kNumber;
    out->number = v;
    pos_ += static_cast<std::size_t>(end - start);
    return true;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Validation + summary
// ---------------------------------------------------------------------------

struct TraceReport {
  std::size_t events = 0;
  std::size_t complete = 0;  ///< ph:"X"
  std::size_t instants = 0;  ///< ph:"i"
  std::map<std::string, std::string> track_names;  ///< tid -> thread_name
  struct StageAgg {
    std::size_t count = 0;
    double total_us = 0.0;
    double min_us = 1e300;
    double max_us = 0.0;
  };
  std::map<std::string, StageAgg> stages;
  std::map<std::string, std::size_t> per_track;  ///< tid -> event count
};

/// What the caller expects of a trace beyond its structure.
struct Expectations {
  std::size_t min_events = 0;       ///< --min-events
  std::vector<std::string> tracks;  ///< --expect-track
};

bool is_stage_name(const std::string& name) {
  namespace obs = flexcore::obs;
  for (std::size_t s = 0; s < obs::kStageCount; ++s) {
    if (name == obs::to_string(static_cast<obs::Stage>(s))) return true;
  }
  return false;
}

std::string tid_key(const JsonValue& ev) {
  const JsonValue* tid = ev.find("tid");
  if (tid == nullptr) return "?";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.0f", tid->number);
  return buf;
}

bool analyze(const JsonValue& root, TraceReport* report, std::string* error) {
  if (root.type != JsonValue::Type::kObject) {
    *error = "top level is not an object";
    return false;
  }
  const JsonValue* events = root.find("traceEvents");
  if (events == nullptr || events->type != JsonValue::Type::kArray) {
    *error = "missing \"traceEvents\" array";
    return false;
  }
  std::map<std::string, double> last_ts;  // per-tid sortedness check
  for (const JsonValue& ev : events->items) {
    if (ev.type != JsonValue::Type::kObject) {
      *error = "event is not an object";
      return false;
    }
    const JsonValue* ph = ev.find("ph");
    if (ph == nullptr || ph->type != JsonValue::Type::kString) {
      *error = "event without a string \"ph\"";
      return false;
    }
    ++report->events;
    const std::string tid = tid_key(ev);
    if (ph->str == "M") {
      const JsonValue* name = ev.find("name");
      const JsonValue* args = ev.find("args");
      if (name != nullptr && name->str == "thread_name" && args != nullptr) {
        if (const JsonValue* n = args->find("name")) {
          report->track_names[tid] = n->str;
        }
      }
      continue;
    }
    if (ph->str != "X" && ph->str != "i") {
      *error = "unexpected event phase \"" + ph->str + "\"";
      return false;
    }
    const JsonValue* name = ev.find("name");
    const JsonValue* ts = ev.find("ts");
    if (name == nullptr || name->type != JsonValue::Type::kString ||
        ts == nullptr || ts->type != JsonValue::Type::kNumber) {
      *error = "X/i event missing name or ts";
      return false;
    }
    const JsonValue* cat = ev.find("cat");
    if (cat != nullptr && cat->str == "flexcore" &&
        !is_stage_name(name->str)) {
      *error = "unknown stage name \"" + name->str + "\"";
      return false;
    }
    ++report->per_track[tid];
    auto [it, inserted] = last_ts.try_emplace(tid, ts->number);
    if (!inserted) {
      if (ts->number < it->second) {
        *error = "timestamps not sorted on tid " + tid;
        return false;
      }
      it->second = ts->number;
    }
    if (ph->str == "i") {
      ++report->instants;
      continue;
    }
    const JsonValue* dur = ev.find("dur");
    if (dur == nullptr || dur->type != JsonValue::Type::kNumber ||
        dur->number < 0.0) {
      *error = "X event with missing or negative dur";
      return false;
    }
    ++report->complete;
    auto& agg = report->stages[name->str];
    ++agg.count;
    agg.total_us += dur->number;
    agg.min_us = std::min(agg.min_us, dur->number);
    agg.max_us = std::max(agg.max_us, dur->number);
  }
  // Every tid that carries events must be named by thread_name metadata.
  for (const auto& [tid, count] : report->per_track) {
    if (report->track_names.find(tid) == report->track_names.end()) {
      *error = "tid " + tid + " has events but no thread_name metadata";
      return false;
    }
  }
  return true;
}

void print_summary(const TraceReport& report) {
  std::printf("events: %zu  (complete %zu, instant %zu, tracks %zu)\n\n",
              report.events, report.complete, report.instants,
              report.track_names.size());
  std::printf("%-18s %-8s %-12s %-12s %-12s %-12s\n", "stage", "count",
              "total us", "mean us", "min us", "max us");
  for (const auto& [stage, agg] : report.stages) {
    std::printf("%-18s %-8zu %-12.1f %-12.1f %-12.1f %-12.1f\n",
                stage.c_str(), agg.count, agg.total_us,
                agg.total_us / static_cast<double>(agg.count), agg.min_us,
                agg.max_us);
  }
  std::printf("\n%-8s %-16s %-8s\n", "tid", "track", "events");
  for (const auto& [tid, count] : report.per_track) {
    const auto it = report.track_names.find(tid);
    std::printf("%-8s %-16s %-8zu\n", tid.c_str(),
                it != report.track_names.end() ? it->second.c_str() : "?",
                count);
  }
}

bool meets(const TraceReport& report, const Expectations& want,
           std::string* error) {
  const std::size_t spans = report.complete + report.instants;
  if (spans < want.min_events) {
    *error = "only " + std::to_string(spans) + " span events (expected >= " +
             std::to_string(want.min_events) + ")";
    return false;
  }
  for (const std::string& track : want.tracks) {
    const bool found = std::any_of(
        report.track_names.begin(), report.track_names.end(),
        [&](const auto& named) { return named.second == track; });
    if (!found) {
      *error = "no track named \"" + track + "\"";
      return false;
    }
  }
  return true;
}

bool validate_text(const std::string& text, const Expectations& want,
                   TraceReport* report, std::string* error) {
  JsonValue root;
  JsonParser parser(text);
  return parser.parse(&root, error) && analyze(root, report, error) &&
         meets(*report, want, error);
}

// ---------------------------------------------------------------------------
// Self test: synthesize a trace through the real recorder, round-trip it.
// ---------------------------------------------------------------------------

int self_test() {
  namespace obs = flexcore::obs;
  obs::ObsConfig cfg;
  cfg.sample_every = 1;
  cfg.ring_capacity = 64;
  obs::reset_for_test(cfg);

  obs::set_thread_track("driver");
  const obs::TraceCtx a = obs::begin_frame(/*cell=*/0);
  const obs::TraceCtx b = obs::begin_frame(/*cell=*/1);
  const std::uint64_t t0 = obs::now_ns();
  obs::record_span(obs::Stage::kSubmit, t0, t0 + 1500, a);
  obs::record_span(obs::Stage::kPathGrid, t0 + 2000, t0 + 9000, a);
  obs::record_instant(obs::Stage::kControl, t0 + 500, a,
                      static_cast<std::uint32_t>(
                          obs::ControlReason::kLoadDegrade));
  std::thread worker([&] {
    obs::set_thread_track("worker");
    obs::record_span(obs::Stage::kPreprocess, t0 + 100, t0 + 1100, b, 3);
  });
  worker.join();

  const std::string json = obs::chrome_trace_json();
  TraceReport report;
  std::string error;
  const Expectations want{.min_events = 4, .tracks = {"driver", "worker"}};
  if (!validate_text(json, want, &report, &error)) {
    std::fprintf(stderr, "self-test: invalid trace: %s\n", error.c_str());
    return 1;
  }
  bool ok = report.complete == 3 && report.instants == 1 &&
            report.track_names.size() == 2;
  for (const auto& [tid, name] : report.track_names) {
    if (name != "driver" && name != "worker") ok = false;
  }
  if (report.stages.find("path-grid") == report.stages.end() ||
      report.stages.find("preprocess") == report.stages.end()) {
    ok = false;
  }
  if (!ok) {
    std::fprintf(stderr, "self-test: unexpected trace contents:\n%s\n",
                 json.c_str());
    return 1;
  }
  // Every check must also reject what it exists to catch.
  std::string renamed = json;
  const std::size_t at = renamed.find("\"path-grid\"");
  renamed.replace(at, std::strlen("\"path-grid\""), "\"bogus-stage\"");
  const struct {
    const char* what;
    const std::string& text;
    Expectations want;
  } broken[] = {
      {"an unknown stage", renamed, {}},
      {"a missing track", json, {.tracks = {"shard7"}}},
      {"too few events", json, {.min_events = 5}},
  };
  for (const auto& bad : broken) {
    TraceReport r;
    std::string why;
    if (validate_text(bad.text, bad.want, &r, &why)) {
      std::fprintf(stderr, "self-test: accepted %s\n", bad.what);
      return 1;
    }
    std::printf("self-test: rejects %s (%s)\n", bad.what, why.c_str());
  }
  print_summary(report);
  std::printf("\nself-test: PASS\n");
  return 0;
}

bool read_file(const char* path, std::string* out) {
  std::FILE* f = std::fopen(path, "rb");
  if (f == nullptr) return false;
  char buf[1 << 16];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out->append(buf, n);
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  bool validate_only = false;
  const char* path = nullptr;
  Expectations want;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--self-test") == 0) return self_test();
    const bool has_value = i + 1 < argc;
    if (std::strcmp(argv[i], "--validate") == 0) {
      validate_only = true;
    } else if (std::strcmp(argv[i], "--min-events") == 0 && has_value) {
      want.min_events = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--expect-track") == 0 && has_value) {
      want.tracks.emplace_back(argv[++i]);
    } else if (path == nullptr) {
      path = argv[i];
    } else {
      std::fprintf(stderr, "unexpected argument: %s\n", argv[i]);
      return 2;
    }
  }
  if (path == nullptr) {
    std::fprintf(stderr,
                 "usage: trace_dump [--validate] [--min-events N] "
                 "[--expect-track NAME]... <trace.json>\n"
                 "       trace_dump --self-test\n");
    return 2;
  }
  std::string text;
  if (!read_file(path, &text)) {
    std::fprintf(stderr, "cannot read %s\n", path);
    return 1;
  }
  TraceReport report;
  std::string error;
  if (!validate_text(text, want, &report, &error)) {
    std::fprintf(stderr, "%s: INVALID: %s\n", path, error.c_str());
    return 1;
  }
  if (validate_only) {
    std::printf("%s: OK (%zu events, %zu tracks)\n", path, report.events,
                report.track_names.size());
  } else {
    print_summary(report);
  }
  return 0;
}
