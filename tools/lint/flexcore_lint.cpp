// flexcore_lint — repo-specific static checker for the hot-path contract.
//
// The paper's line-rate claim rests on datapath invariants the generic
// toolchain cannot express: annotated hot regions must not allocate or
// build std::function objects, kernel translation units must not touch
// mutexes, the int16 integer datapath must not smuggle floating point back
// in, and kernel code must stay on the SplitVec SoA convention instead of
// materializing std::complex.  clang-tidy covers the generic hygiene
// (.clang-tidy at the repo root); this tool enforces the repo rules.
//
// Usage:
//   flexcore_lint -p <build-dir> [--root <repo-root>]
//       Lints every src/ translation unit listed in the build dir's
//       compile_commands.json plus every header/.inc under src/.  Exits 1
//       if any violation is reported.
//   flexcore_lint --self-test <fixture.cpp>...
//       Negative test: lints the fixture(s) and compares the reported
//       (line, rule) set against the fixture's own
//       `// expect-violation(HPnnn)` markers.  Exits 0 iff they match
//       exactly and at least one violation fired — proving the pass
//       actually fails on seeded violations.
//   flexcore_lint --list-rules
//       Prints the rule catalog.
//
// Rule catalog (ids are stable; see tools/lint/README.md):
//   HP001 hot-path-alloc      heap allocation / container growth in a hot
//                             region (FLEXCORE_HOT_PATH function or
//                             FLEXCORE_HOT_PATH_FILE file)
//   HP002 hot-path-function   std::function in a hot region or kernel TU
//   HP003 kernel-lock         mutex / condition-variable / lock
//                             acquisition in a kernel TU
//   HP004 i16-float           floating-point type in the int16 integer
//                             datapath
//   HP005 kernel-soa          std::complex materialization / AoS complex
//                             container in kernel code (SplitVec SoA only)
//   LNT000 bad-directive      malformed `// flexcore-lint:` directive
//   LNT001 dangling-hot-path  FLEXCORE_HOT_PATH with no function body
//
// Suppressions (require a rule id; a justification after the `)` is the
// expected style):
//   code;  // flexcore-lint: allow(HP001) warm-capacity reuse
//   // flexcore-lint: allow-next-line(HP003) control-plane wakeup
//   // flexcore-lint: off   ... // flexcore-lint: on     (region)
// File classification overrides (for fixtures and new kernel files whose
// paths do not match the built-in patterns):
//   // flexcore-lint: kernel-tu
//   // flexcore-lint: i16-datapath
//
// Scanning is comment/string-aware (a `malloc` in a comment never fires)
// but deliberately token-based, not a full parse: the rules are designed
// so that textual occurrence IS the violation (type names, call tokens),
// which keeps the checker dependency-free and fast enough to run as a
// ctest.

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace fs = std::filesystem;

namespace {

// ----------------------------------------------------------------- catalog

struct Rule {
  const char* id;
  const char* name;
  const char* what;
};

constexpr Rule kRules[] = {
    {"HP001", "hot-path-alloc",
     "heap allocation or container growth in a hot region"},
    {"HP002", "hot-path-function",
     "std::function in a hot region or kernel TU"},
    {"HP003", "kernel-lock",
     "mutex/condition-variable acquisition in a kernel translation unit"},
    {"HP004", "i16-float",
     "floating-point type in the int16 integer datapath"},
    {"HP005", "kernel-soa",
     "std::complex materialization in kernel code (SplitVec SoA only)"},
    {"LNT000", "bad-directive", "malformed flexcore-lint directive"},
    {"LNT001", "dangling-hot-path",
     "FLEXCORE_HOT_PATH annotation with no function body"},
};

bool known_rule(const std::string& id) {
  for (const Rule& r : kRules) {
    if (id == r.id) return true;
  }
  return false;
}

// ---------------------------------------------------------------- findings

struct Finding {
  std::string file;
  std::size_t line = 0;  // 1-based
  std::string rule;
  std::string message;

  bool operator<(const Finding& o) const {
    return std::tie(file, line, rule, message) <
           std::tie(o.file, o.line, o.rule, o.message);
  }
};

// ------------------------------------------------------------ file scanner

/// One parsed source file: raw lines (directives live in comments), a
/// comment/string-stripped copy of the full text (rule tokens are matched
/// here, so commented-out code never fires), and per-line offsets into it.
struct SourceFile {
  std::string path;          // as reported in findings
  std::string text;          // raw
  std::string stripped;      // comments/strings blanked, same length
  std::vector<std::size_t> line_start;  // offset of each line in text

  std::size_t line_of(std::size_t offset) const {
    const auto it =
        std::upper_bound(line_start.begin(), line_start.end(), offset);
    return static_cast<std::size_t>(it - line_start.begin());
  }
};

/// Blanks comments and string/char literal CONTENTS (newlines survive so
/// line numbers stay aligned).  Handles raw strings with empty delimiters
/// and escapes; that covers the repo.
std::string strip_comments_and_strings(const std::string& s) {
  std::string out = s;
  enum class St { kCode, kLine, kBlock, kStr, kChar, kRaw } st = St::kCode;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    const char n = i + 1 < s.size() ? s[i + 1] : '\0';
    switch (st) {
      case St::kCode:
        if (c == '/' && n == '/') {
          st = St::kLine;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c == '/' && n == '*') {
          st = St::kBlock;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c == 'R' && n == '"' &&
                   (i == 0 || (!std::isalnum(static_cast<unsigned char>(
                                   s[i - 1])) &&
                               s[i - 1] != '_'))) {
          st = St::kRaw;
          out[i + 1] = ' ';
          ++i;
        } else if (c == '"') {
          st = St::kStr;
        } else if (c == '\'') {
          st = St::kChar;
        }
        break;
      case St::kLine:
        if (c == '\n') {
          st = St::kCode;
        } else {
          out[i] = ' ';
        }
        break;
      case St::kBlock:
        if (c == '*' && n == '/') {
          st = St::kCode;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case St::kStr:
        if (c == '\\' && n != '\0') {
          out[i] = ' ';
          if (n != '\n') out[i + 1] = ' ';
          ++i;
        } else if (c == '"') {
          st = St::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case St::kChar:
        if (c == '\\' && n != '\0') {
          out[i] = ' ';
          if (n != '\n') out[i + 1] = ' ';
          ++i;
        } else if (c == '\'') {
          st = St::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case St::kRaw:
        // Only the empty-delimiter form R"(...)" is recognized.
        if (c == ')' && n == '"') {
          st = St::kCode;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
    }
  }
  return out;
}

SourceFile load_file(const std::string& path) {
  SourceFile f;
  f.path = path;
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  f.text = ss.str();
  f.stripped = strip_comments_and_strings(f.text);
  f.line_start.push_back(0);
  for (std::size_t i = 0; i < f.text.size(); ++i) {
    if (f.text[i] == '\n') f.line_start.push_back(i + 1);
  }
  return f;
}

// -------------------------------------------------------------- directives

struct Directives {
  /// rule id -> set of suppressed 1-based lines.
  std::map<std::string, std::set<std::size_t>> allow;
  /// lines inside an off/on region (all rules suppressed).
  std::set<std::size_t> off_lines;
  bool kernel_tu = false;
  bool i16_datapath = false;
  std::vector<Finding> errors;  // LNT000
};

Directives parse_directives(const SourceFile& f) {
  Directives d;
  static const std::regex kDirective(R"(flexcore-lint:\s*([a-z0-9\-]+))");
  static const std::regex kAllow(
      R"(flexcore-lint:\s*(allow|allow-next-line)\(([A-Z]+[0-9]+)\))");
  std::istringstream in(f.text);
  std::string line;
  std::size_t lineno = 0;
  bool off = false;
  while (std::getline(in, line)) {
    ++lineno;
    if (off) d.off_lines.insert(lineno);
    if (line.find("flexcore-lint:") == std::string::npos) continue;
    std::smatch m;
    if (std::regex_search(line, m, kAllow)) {
      const std::string rule = m[2];
      if (!known_rule(rule)) {
        d.errors.push_back({f.path, lineno, "LNT000",
                            "unknown rule '" + rule + "' in suppression"});
        continue;
      }
      d.allow[rule].insert(m[1] == "allow" ? lineno : lineno + 1);
      continue;
    }
    if (!std::regex_search(line, m, kDirective)) {
      d.errors.push_back(
          {f.path, lineno, "LNT000", "unparsable flexcore-lint directive"});
      continue;
    }
    const std::string kind = m[1];
    if (kind == "off") {
      off = true;
      d.off_lines.insert(lineno);
    } else if (kind == "on") {
      off = false;
    } else if (kind == "kernel-tu") {
      d.kernel_tu = true;
    } else if (kind == "i16-datapath") {
      d.i16_datapath = true;
    } else if (kind == "expect-violation") {
      // self-test marker, handled separately
    } else if (kind == "allow" || kind == "allow-next-line") {
      d.errors.push_back({f.path, lineno, "LNT000",
                          "suppression must name a rule: allow(HPnnn)"});
    } else {
      d.errors.push_back(
          {f.path, lineno, "LNT000", "unknown directive '" + kind + "'"});
    }
  }
  return d;
}

bool suppressed(const Directives& d, const std::string& rule,
                std::size_t line) {
  if (d.off_lines.count(line) > 0) return true;
  const auto it = d.allow.find(rule);
  return it != d.allow.end() && it->second.count(line) > 0;
}

// ------------------------------------------------------------- hot regions

/// 1-based [first, last] line ranges that are hot.
struct HotRegions {
  bool whole_file = false;
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  std::vector<Finding> errors;  // LNT001

  bool contains(std::size_t line) const {
    if (whole_file) return true;
    for (const auto& [a, b] : ranges) {
      if (line >= a && line <= b) return true;
    }
    return false;
  }
  bool any() const { return whole_file || !ranges.empty(); }
};

bool ident_boundary(const std::string& s, std::size_t pos, std::size_t len) {
  const auto word = [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
  };
  if (pos > 0 && word(s[pos - 1])) return false;
  if (pos + len < s.size() && word(s[pos + len])) return false;
  return true;
}

HotRegions find_hot_regions(const SourceFile& f) {
  HotRegions hr;
  const std::string& s = f.stripped;
  static const std::string kFileMarker = "FLEXCORE_HOT_PATH_FILE";
  static const std::string kFnMarker = "FLEXCORE_HOT_PATH";
  for (std::size_t pos = s.find(kFnMarker); pos != std::string::npos;
       pos = s.find(kFnMarker, pos + 1)) {
    if (!ident_boundary(s, pos, kFnMarker.size())) {
      // FLEXCORE_HOT_PATH_FILE starts with the function marker; check it
      // on its own boundary below.
      if (s.compare(pos, kFileMarker.size(), kFileMarker) == 0 &&
          ident_boundary(s, pos, kFileMarker.size())) {
        // Ignore the macro's own #define line in hot_path.h.
        const std::size_t line = f.line_of(pos);
        const std::size_t ls = f.line_start[line - 1];
        const std::size_t first = s.find_first_not_of(" \t", ls);
        if (first != std::string::npos && s[first] == '#') continue;
        hr.whole_file = true;
      }
      continue;
    }
    const std::size_t line = f.line_of(pos);
    // Ignore the macro definition itself (a preprocessor line).
    {
      const std::size_t ls = f.line_start[line - 1];
      const std::size_t first = s.find_first_not_of(" \t", ls);
      if (first != std::string::npos && s[first] == '#') continue;
    }
    // Find the annotated function's body: the next '{' at paren depth 0,
    // then its matching '}'.
    std::size_t i = pos + kFnMarker.size();
    int paren = 0;
    std::size_t open = std::string::npos;
    for (; i < s.size(); ++i) {
      const char c = s[i];
      if (c == '(') {
        ++paren;
      } else if (c == ')') {
        --paren;
      } else if (c == '{' && paren == 0) {
        open = i;
        break;
      } else if (c == ';' && paren == 0) {
        break;  // declaration, not a definition
      }
    }
    if (open == std::string::npos) {
      hr.errors.push_back({f.path, line, "LNT001",
                           "FLEXCORE_HOT_PATH is not followed by a function "
                           "definition"});
      continue;
    }
    int depth = 0;
    std::size_t close = std::string::npos;
    for (i = open; i < s.size(); ++i) {
      if (s[i] == '{') ++depth;
      if (s[i] == '}' && --depth == 0) {
        close = i;
        break;
      }
    }
    if (close == std::string::npos) {
      hr.errors.push_back({f.path, line, "LNT001",
                           "unbalanced braces after FLEXCORE_HOT_PATH"});
      continue;
    }
    hr.ranges.emplace_back(line, f.line_of(close));
  }
  return hr;
}

// ------------------------------------------------------------ rule matching

struct TokenRule {
  const char* rule;
  std::regex pattern;
  const char* what;
};

const std::vector<TokenRule>& alloc_rules() {
  static const std::vector<TokenRule> rules = [] {
    std::vector<TokenRule> r;
    r.push_back({"HP001",
                 std::regex(R"(\b(?:new|delete|malloc|calloc|realloc|strdup|)"
                            R"(aligned_alloc|posix_memalign|make_unique|)"
                            R"(make_shared|to_string)\b)"),
                 "allocating call"});
    r.push_back({"HP001",
                 std::regex(R"(\.\s*(?:push_back|emplace_back|resize|reserve|)"
                            R"(insert|emplace|emplace_hint|assign|append|)"
                            R"(shrink_to_fit)\s*\()"),
                 "container growth"});
    r.push_back({"HP002", std::regex(R"(\bstd\s*::\s*function\b)"),
                 "std::function"});
    return r;
  }();
  return rules;
}

const std::vector<TokenRule>& kernel_rules() {
  static const std::vector<TokenRule> rules = [] {
    std::vector<TokenRule> r;
    r.push_back({"HP003",
                 std::regex(R"(\b(?:mutex|condition_variable|lock_guard|)"
                            R"(unique_lock|scoped_lock|shared_lock|)"
                            R"(condition_variable_any|pthread_mutex_\w+)\b)"),
                 "lock primitive"});
    r.push_back({"HP003", std::regex(R"(\.\s*(?:lock|try_lock)\s*\()"),
                 "lock acquisition"});
    r.push_back({"HP002", std::regex(R"(\bstd\s*::\s*function\b)"),
                 "std::function"});
    r.push_back({"HP005", std::regex(R"(\bstd\s*::\s*complex\s*<)"),
                 "std::complex materialization"});
    r.push_back({"HP005", std::regex(R"(\bcplx\s*\{)"),
                 "cplx aggregate construction"});
    r.push_back({"HP005",
                 std::regex(R"(\bstd\s*::\s*vector\s*<\s*(?:linalg\s*::\s*)?)"
                            R"(cplx\s*>)"),
                 "AoS complex container"});
    return r;
  }();
  return rules;
}

const std::vector<TokenRule>& i16_rules() {
  static const std::vector<TokenRule> rules = [] {
    std::vector<TokenRule> r;
    r.push_back({"HP004",
                 std::regex(R"(\b(?:double|float)\b)"),
                 "floating-point type"});
    return r;
  }();
  return rules;
}

/// Matches `rules` against every line of `f` inside `line_filter` (a
/// predicate on 1-based line numbers), honouring suppressions.
template <typename Filter>
void match_rules(const SourceFile& f, const Directives& d,
                 const std::vector<TokenRule>& rules, Filter line_filter,
                 std::vector<Finding>* out) {
  std::istringstream in(f.stripped);
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (!line_filter(lineno)) continue;
    // Preprocessor lines (#include <mutex>, macro definitions) name tokens
    // without using them; rules target code.
    const std::size_t first = line.find_first_not_of(" \t");
    if (first != std::string::npos && line[first] == '#') continue;
    for (const TokenRule& tr : rules) {
      std::smatch m;
      if (!std::regex_search(line, m, tr.pattern)) continue;
      if (suppressed(d, tr.rule, lineno)) continue;
      std::string token = m[0];
      // Trim the token for the message.
      token.erase(std::remove_if(token.begin(), token.end(),
                                 [](char c) { return c == ' ' || c == '\t'; }),
                  token.end());
      out->push_back({f.path, lineno, tr.rule,
                      std::string(tr.what) + " `" + token + "`"});
    }
  }
}

// ---------------------------------------------------------- classification

bool path_contains(const std::string& path, const char* needle) {
  return path.find(needle) != std::string::npos;
}

bool is_kernel_tu(const std::string& path, const Directives& d) {
  if (d.kernel_tu) return true;
  return path_contains(path, "detect/path_kernels") ||
         path_contains(path, "detect/path_grid.h") ||
         (path.size() > 4 && path.compare(path.size() - 4, 4, ".inc") == 0 &&
          path_contains(path, "src/"));
}

bool is_i16_datapath(const std::string& path, const Directives& d) {
  if (d.i16_datapath) return true;
  return path_contains(path, "path_kernels_i16");
}

// ----------------------------------------------------------------- driver

std::vector<Finding> lint_file(const std::string& path) {
  std::vector<Finding> out;
  const SourceFile f = load_file(path);
  if (f.text.empty()) return out;
  const Directives d = parse_directives(f);
  for (const Finding& e : d.errors) out.push_back(e);
  const HotRegions hr = find_hot_regions(f);
  for (const Finding& e : hr.errors) out.push_back(e);

  if (hr.any()) {
    match_rules(f, d, alloc_rules(),
                [&](std::size_t line) { return hr.contains(line); }, &out);
  }
  if (is_kernel_tu(path, d)) {
    match_rules(f, d, kernel_rules(), [](std::size_t) { return true; }, &out);
  }
  if (is_i16_datapath(path, d)) {
    match_rules(f, d, i16_rules(), [](std::size_t) { return true; }, &out);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end(),
                        [](const Finding& a, const Finding& b) {
                          return a.file == b.file && a.line == b.line &&
                                 a.rule == b.rule && a.message == b.message;
                        }),
            out.end());
  return out;
}

/// Files to lint in tree mode: every src/ TU named by compile_commands.json
/// plus every .h/.inc under src/ (headers are not TUs but carry kernel and
/// hot-region code).
std::vector<std::string> collect_tree(const std::string& build_dir,
                                      const std::string& root,
                                      std::string* error) {
  std::vector<std::string> files;
  const fs::path ccj = fs::path(build_dir) / "compile_commands.json";
  std::ifstream in(ccj);
  if (!in) {
    *error = "cannot open " + ccj.string() +
             " (configure with -DCMAKE_EXPORT_COMPILE_COMMANDS=ON)";
    return files;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  const std::string json = ss.str();
  // Minimal extraction of "file": "..." values — the schema is stable.
  static const std::regex kFile("\"file\"\\s*:\\s*\"([^\"]+)\"");
  const fs::path src_root = fs::weakly_canonical(fs::path(root) / "src");
  std::set<std::string> seen;
  for (auto it = std::sregex_iterator(json.begin(), json.end(), kFile);
       it != std::sregex_iterator(); ++it) {
    const fs::path p = fs::weakly_canonical((*it)[1].str());
    const std::string ps = p.string();
    if (ps.rfind(src_root.string(), 0) == 0 && seen.insert(ps).second) {
      files.push_back(ps);
    }
  }
  if (files.empty()) {
    *error = "no src/ translation units in " + ccj.string();
    return files;
  }
  std::error_code ec;
  for (fs::recursive_directory_iterator it(src_root, ec), end;
       it != end && !ec; it.increment(ec)) {
    if (!it->is_regular_file()) continue;
    const std::string ext = it->path().extension().string();
    if ((ext == ".h" || ext == ".inc") &&
        seen.insert(it->path().string()).second) {
      files.push_back(it->path().string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

int run_self_test(const std::vector<std::string>& fixtures) {
  bool ok = true;
  std::size_t total = 0;
  for (const std::string& path : fixtures) {
    const SourceFile f = load_file(path);
    if (f.text.empty()) {
      std::fprintf(stderr, "flexcore_lint: cannot read fixture %s\n",
                   path.c_str());
      return 2;
    }
    // Expected (line, rule) pairs from the fixture's own markers.
    static const std::regex kExpect(
        R"(expect-violation\(([A-Z]+[0-9]+)\))");
    std::set<std::pair<std::size_t, std::string>> expected;
    {
      std::istringstream in(f.text);
      std::string line;
      std::size_t lineno = 0;
      while (std::getline(in, line)) {
        ++lineno;
        for (auto it = std::sregex_iterator(line.begin(), line.end(),
                                            kExpect);
             it != std::sregex_iterator(); ++it) {
          expected.emplace(lineno, (*it)[1].str());
        }
      }
    }
    std::set<std::pair<std::size_t, std::string>> got;
    for (const Finding& v : lint_file(path)) {
      got.emplace(v.line, v.rule);
      ++total;
    }
    for (const auto& [line, rule] : expected) {
      if (got.count({line, rule}) == 0) {
        std::fprintf(stderr,
                     "self-test FAIL %s:%zu: expected %s did not fire\n",
                     path.c_str(), line, rule.c_str());
        ok = false;
      }
    }
    for (const auto& [line, rule] : got) {
      if (expected.count({line, rule}) == 0) {
        std::fprintf(stderr,
                     "self-test FAIL %s:%zu: unexpected %s fired\n",
                     path.c_str(), line, rule.c_str());
        ok = false;
      }
    }
  }
  if (total == 0) {
    std::fprintf(stderr,
                 "self-test FAIL: no violation fired on any fixture — the "
                 "pass would not catch seeded violations\n");
    ok = false;
  }
  if (ok) {
    std::printf("flexcore_lint self-test OK: %zu seeded violations caught\n",
                total);
  }
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string build_dir = "build";
  std::string root = ".";
  std::vector<std::string> fixtures;
  bool self_test = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-rules") {
      for (const Rule& r : kRules) {
        std::printf("%s  %-18s %s\n", r.id, r.name, r.what);
      }
      return 0;
    } else if (arg == "--self-test") {
      self_test = true;
    } else if (arg == "-p" && i + 1 < argc) {
      build_dir = argv[++i];
    } else if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr,
                   "usage: flexcore_lint [-p build-dir] [--root repo-root] "
                   "| --self-test fixture... | --list-rules\n");
      return 2;
    } else {
      fixtures.push_back(arg);
    }
  }

  if (self_test) return run_self_test(fixtures);

  std::string error;
  const std::vector<std::string> files =
      fixtures.empty() ? collect_tree(build_dir, root, &error) : fixtures;
  if (files.empty()) {
    std::fprintf(stderr, "flexcore_lint: %s\n", error.c_str());
    return 2;
  }
  std::size_t violations = 0;
  for (const std::string& path : files) {
    for (const Finding& v : lint_file(path)) {
      std::fprintf(stderr, "%s:%zu: [%s] %s\n", v.file.c_str(), v.line,
                   v.rule.c_str(), v.message.c_str());
      ++violations;
    }
  }
  if (violations > 0) {
    std::fprintf(stderr, "flexcore_lint: %zu violation(s) in %zu file(s)\n",
                 violations, files.size());
    return 1;
  }
  std::printf("flexcore_lint: %zu files clean\n", files.size());
  return 0;
}
