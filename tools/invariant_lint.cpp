// invariant_lint — static enforcement of the project's correctness contracts.
//
// The stack's headline guarantees (bit-identical serving across threads,
// workers and backends; all timing through the injected Clock seam; backend
// reads confined to their seam files) hold only as long as every PR keeps
// them.  Until now they were conventions; this tool makes them machine
// checked.  It is a token-level scanner (comments and string literals are
// stripped, identifiers are matched on exact token boundaries, struct bodies
// and template argument lists are tracked by bracket counting — "AST-lite"),
// which is deliberately dumb enough to be fast, dependency-free, and easy to
// extend, yet precise enough that every rule below has zero false positives
// on the tree it guards.
//
// Rules (docs/ARCHITECTURE.md "Enforced invariants" has the rationale):
//   R1  no wall-clock reads or sleeps outside src/util/clock.h
//       (steady_clock/system_clock/high_resolution_clock, sleep_for/until,
//       time(), clock_gettime, gettimeofday, usleep, nanosleep)
//   R2  no gemm_backend()/set_gemm_backend()/gemm_backend_name() outside
//       src/tensor/gemm.{h,cpp}, src/runtime/exec_policy.cpp, and tests/
//   R3  no rand()/srand()/std::random_device/default_random_engine, and no
//       default-constructed (unseeded) standard engines — seeded engines and
//       the project Rng (util/rng.h) only
//   R4  every *Config struct declared under src/runtime/ must declare a
//       validate() member and have a call site somewhere in the tree
//   R5  no iteration over std::unordered_map/std::unordered_set in hot-path
//       files (src/tensor/, src/nn/, src/runtime/) — iteration order is
//       implementation-defined and would leak into output/accumulation order
//   R6  no raw new[]/malloc/calloc/realloc/free/aligned_alloc outside
//       ScratchArena (src/runtime/scratch.*) and AlignedAllocator
//       (src/tensor/tensor.h)
//
// Suppression: `// lint:allow(R3) <reason>` on the offending line, or on a
// comment-only line immediately above it.  The reason is mandatory; a bare
// lint:allow is itself a violation (rule LINT).  Multiple rules:
// `lint:allow(R1,R3) reason`.
//
// Usage:
//   invariant_lint [--root DIR] [paths...]
// With no explicit paths, scans DIR/src, DIR/tools, DIR/tests (DIR defaults
// to ".").  Directories are walked recursively for *.h/*.cpp/*.cc, skipping
// any `lint_fixtures` directory (those files violate rules on purpose —
// tests/lint_test.cpp feeds them back in as explicit paths).  Exit status:
// 0 clean, 1 violations found, 2 usage/IO error.
#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace fs = std::filesystem;

namespace {

// ----------------------------------------------------------------- plumbing

struct Diagnostic {
  std::string path;
  int line = 0;
  std::string rule;  // "R1".."R6" or "LINT"
  std::string message;
};

bool is_ident(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// True if `line` contains `ident` as a whole token (not a substring of a
/// longer identifier).  `pos_out` receives the match position.
bool find_token(const std::string& line, const std::string& ident,
                std::size_t from, std::size_t* pos_out) {
  std::size_t pos = from;
  while ((pos = line.find(ident, pos)) != std::string::npos) {
    const bool left_ok = pos == 0 || !is_ident(line[pos - 1]);
    const std::size_t end = pos + ident.size();
    const bool right_ok = end >= line.size() || !is_ident(line[end]);
    if (left_ok && right_ok) {
      *pos_out = pos;
      return true;
    }
    pos = end;
  }
  return false;
}

bool has_token(const std::string& line, const std::string& ident) {
  std::size_t pos;
  return find_token(line, ident, 0, &pos);
}

std::size_t skip_ws(const std::string& s, std::size_t i) {
  while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
  return i;
}

/// Path with forward slashes, for suffix matching.
std::string norm_path(const fs::path& p) {
  std::string s = p.generic_string();
  return s;
}

bool path_ends_with(const std::string& path, const std::string& suffix) {
  return path.size() >= suffix.size() &&
         path.compare(path.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool path_contains_dir(const std::string& path, const std::string& dir) {
  // Matches "dir/" as a path component ("src/runtime/" in
  // ".../src/runtime/foo.h" but not "mysrc/runtimeX/").
  const std::string needle = dir;  // callers pass e.g. "src/runtime/"
  std::size_t pos = path.find(needle);
  while (pos != std::string::npos) {
    if (pos == 0 || path[pos - 1] == '/') return true;
    pos = path.find(needle, pos + 1);
  }
  return false;
}

// ------------------------------------------------------- scrubbed source file

/// One parsed source file: `code[i]` is line i+1 with comments and
/// string/char-literal contents blanked (quotes kept so tokens never merge),
/// `suppressed[i]` the set of rule ids a lint:allow covers on that line.
struct SourceFile {
  std::string path;                         // as reported in diagnostics
  std::vector<std::string> code;            // scrubbed, 0-based
  std::vector<std::set<std::string>> suppressed;
  std::vector<Diagnostic> parse_diags;      // malformed suppressions
};

/// Parses `lint:allow(R1,R2) reason` out of one comment.  Returns true if a
/// lint:allow marker was present (well-formed or not).
bool parse_allow(const std::string& comment, int line_no,
                 const std::string& path, std::set<std::string>* rules,
                 std::vector<Diagnostic>* diags) {
  // The marker is `lint:allow` immediately followed by an open paren:
  // prose that merely *mentions* lint:allow (like this comment) is not a
  // suppression attempt.  A typo'd marker simply fails to suppress, so the
  // underlying violation still fires and names the line.
  const std::size_t mark = comment.find("lint:allow(");
  if (mark == std::string::npos) return false;
  std::size_t i = mark + std::strlen("lint:allow(");
  std::string inside;
  while (i < comment.size() && comment[i] != ')') inside.push_back(comment[i++]);
  if (i >= comment.size()) {
    diags->push_back({path, line_no, "LINT",
                      "malformed lint:allow — missing ')'"});
    return true;
  }
  ++i;  // past ')'
  // Split the rule list.
  std::set<std::string> parsed;
  std::stringstream ss(inside);
  std::string item;
  while (std::getline(ss, item, ',')) {
    item.erase(std::remove_if(item.begin(), item.end(),
                              [](char c) {
                                return std::isspace(
                                    static_cast<unsigned char>(c));
                              }),
               item.end());
    if (item.empty()) continue;
    const bool known = item == "LINT" ||
                       (item.size() == 2 && item[0] == 'R' && item[1] >= '1' &&
                        item[1] <= '6');
    if (!known) {
      diags->push_back({path, line_no, "LINT",
                        "lint:allow names unknown rule '" + item + "'"});
      return true;
    }
    parsed.insert(item);
  }
  if (parsed.empty()) {
    diags->push_back({path, line_no, "LINT",
                      "lint:allow with an empty rule list"});
    return true;
  }
  // The reason is mandatory: suppressions must say why or they rot.
  const std::string reason = comment.substr(i);
  const bool has_reason = std::any_of(reason.begin(), reason.end(), [](char c) {
    return !std::isspace(static_cast<unsigned char>(c)) && c != '-' &&
           c != ':';
  });
  if (!has_reason) {
    diags->push_back({path, line_no, "LINT",
                      "lint:allow requires a reason after the rule list, e.g. "
                      "`lint:allow(R3) fixture exercises the banned call`"});
    return true;
  }
  rules->insert(parsed.begin(), parsed.end());
  return true;
}

/// Loads and scrubs a file.  Returns false on IO error.
bool load_file(const std::string& path, SourceFile* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();

  out->path = path;
  enum class St { kCode, kLineComment, kBlockComment, kString, kChar, kRaw };
  St st = St::kCode;
  std::string line;        // scrubbed current line
  std::string comment;     // comment text accumulated on the current line
  std::string raw_delim;   // raw string delimiter, ")delim\""
  int line_no = 1;

  // Suppressions attach to the line the comment sits on; a comment-only line
  // forwards its suppressions to the next line that has code.
  std::set<std::string> pending_from_above;

  auto flush_line = [&]() {
    std::set<std::string> rules;
    parse_allow(comment, line_no, path, &rules, &out->parse_diags);
    const bool line_has_code =
        std::any_of(line.begin(), line.end(), [](char c) {
          return !std::isspace(static_cast<unsigned char>(c));
        });
    std::set<std::string> active = rules;
    active.insert(pending_from_above.begin(), pending_from_above.end());
    out->code.push_back(line);
    out->suppressed.push_back(line_has_code ? active : std::set<std::string>{});
    if (line_has_code) {
      pending_from_above.clear();
    } else {
      // Comment-only (or blank) line: carry both its own rules and anything
      // already pending down to the next code line.
      pending_from_above.insert(rules.begin(), rules.end());
    }
    line.clear();
    comment.clear();
    ++line_no;
  };

  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    const char next = i + 1 < text.size() ? text[i + 1] : '\0';
    if (c == '\n') {
      if (st == St::kLineComment) st = St::kCode;
      flush_line();
      continue;
    }
    switch (st) {
      case St::kCode:
        if (c == '/' && next == '/') {
          st = St::kLineComment;
          line += "  ";
          ++i;
        } else if (c == '/' && next == '*') {
          st = St::kBlockComment;
          line += "  ";
          ++i;
        } else if (c == '"') {
          // R"delim( ... )delim"
          if (i > 0 && text[i - 1] == 'R' &&
              (i < 2 || !is_ident(text[i - 2]))) {
            std::size_t j = i + 1;
            std::string delim;
            while (j < text.size() && text[j] != '(' && text[j] != '\n')
              delim.push_back(text[j++]);
            if (j < text.size() && text[j] == '(') {
              st = St::kRaw;
              raw_delim = ")" + delim + "\"";
              line += '"';
              i = j;  // consume through '('
              break;
            }
          }
          st = St::kString;
          line += '"';
        } else if (c == '\'' && (i == 0 || !is_ident(text[i - 1]))) {
          // The is_ident guard keeps C++14 digit separators (1'000'000)
          // from opening a bogus char literal.
          st = St::kChar;
          line += '\'';
        } else {
          line += c;
        }
        break;
      case St::kLineComment:
        comment += c;
        line += ' ';
        break;
      case St::kBlockComment:
        if (c == '*' && next == '/') {
          st = St::kCode;
          line += "  ";
          ++i;
        } else {
          comment += c;
          line += ' ';
        }
        break;
      case St::kString:
        if (c == '\\') {
          line += "  ";
          ++i;
        } else if (c == '"') {
          st = St::kCode;
          line += '"';
        } else {
          line += ' ';
        }
        break;
      case St::kChar:
        if (c == '\\') {
          line += "  ";
          ++i;
        } else if (c == '\'') {
          st = St::kCode;
          line += '\'';
        } else {
          line += ' ';
        }
        break;
      case St::kRaw:
        if (c == ')' && text.compare(i, raw_delim.size(), raw_delim) == 0) {
          st = St::kCode;
          line += '"';
          i += raw_delim.size() - 1;
        } else {
          line += ' ';
        }
        break;
    }
  }
  if (!line.empty() || !comment.empty()) flush_line();
  return true;
}

// ------------------------------------------------------------- rule registry

class Linter {
 public:
  void add_file(SourceFile file) { files_.push_back(std::move(file)); }

  /// Runs every rule over every loaded file; returns all diagnostics that
  /// survive suppression, sorted by path/line.
  std::vector<Diagnostic> run() {
    std::vector<Diagnostic> all;
    for (const SourceFile& f : files_) {
      for (const Diagnostic& d : f.parse_diags) all.push_back(d);
      rule_r1(f, &all);
      rule_r2(f, &all);
      rule_r3(f, &all);
      rule_r5(f, &all);
      rule_r6(f, &all);
    }
    rule_r4(&all);  // needs the whole-tree view for call sites
    std::sort(all.begin(), all.end(), [](const Diagnostic& a,
                                         const Diagnostic& b) {
      if (a.path != b.path) return a.path < b.path;
      if (a.line != b.line) return a.line < b.line;
      return a.rule < b.rule;
    });
    return all;
  }

  int files_scanned() const { return static_cast<int>(files_.size()); }

 private:
  /// Emits unless the line carries a matching lint:allow.
  static void emit(const SourceFile& f, int line_no, const char* rule,
                   const std::string& msg, std::vector<Diagnostic>* out) {
    const std::size_t idx = static_cast<std::size_t>(line_no - 1);
    if (idx < f.suppressed.size() && f.suppressed[idx].count(rule)) return;
    out->push_back({f.path, line_no, rule, msg});
  }

  // R1: wall-clock confinement.
  static void rule_r1(const SourceFile& f, std::vector<Diagnostic>* out) {
    if (path_ends_with(f.path, "src/util/clock.h")) return;
    static const char* kBanned[] = {
        "steady_clock", "system_clock",  "high_resolution_clock",
        "sleep_for",    "sleep_until",   "usleep",
        "nanosleep",    "clock_gettime", "gettimeofday"};
    for (std::size_t i = 0; i < f.code.size(); ++i) {
      const std::string& line = f.code[i];
      for (const char* ident : kBanned) {
        if (has_token(line, ident))
          emit(f, static_cast<int>(i) + 1, "R1",
               std::string(ident) +
                   ": time must flow through the injected Clock seam "
                   "(util/clock.h) so serving stays deterministic",
               out);
      }
      // `time(...)` as a call (std::time / ::time).
      std::size_t pos;
      if (find_token(line, "time", 0, &pos)) {
        const std::size_t after = skip_ws(line, pos + 4);
        const bool member = pos >= 1 && (line[pos - 1] == '.' ||
                                         (pos >= 2 && line[pos - 2] == '-' &&
                                          line[pos - 1] == '>'));
        if (!member && after < line.size() && line[after] == '(')
          emit(f, static_cast<int>(i) + 1, "R1",
               "time(): wall-clock read outside util/clock.h", out);
      }
    }
  }

  // R2: backend-global confinement.
  static void rule_r2(const SourceFile& f, std::vector<Diagnostic>* out) {
    if (path_ends_with(f.path, "src/tensor/gemm.cpp") ||
        path_ends_with(f.path, "src/tensor/gemm.h") ||
        path_ends_with(f.path, "src/runtime/exec_policy.cpp") ||
        path_contains_dir(f.path, "tests/"))
      return;
    static const char* kBanned[] = {"gemm_backend", "set_gemm_backend",
                                    "gemm_backend_name"};
    for (std::size_t i = 0; i < f.code.size(); ++i) {
      for (const char* ident : kBanned) {
        if (has_token(f.code[i], ident))
          emit(f, static_cast<int>(i) + 1, "R2",
               std::string(ident) +
                   ": the global backend is read only inside gemm.cpp / "
                   "exec_policy.cpp — models carry ExecutionPolicy instead",
               out);
      }
    }
  }

  // R3: seeded randomness only.
  static void rule_r3(const SourceFile& f, std::vector<Diagnostic>* out) {
    static const char* kAlwaysBanned[] = {"rand",   "srand",   "random_device",
                                          "drand48", "lrand48", "rand_r",
                                          "default_random_engine"};
    static const char* kEngines[] = {"mt19937",      "mt19937_64",
                                     "minstd_rand",  "minstd_rand0",
                                     "ranlux24_base", "ranlux48_base",
                                     "ranlux24",     "ranlux48",
                                     "knuth_b"};
    for (std::size_t i = 0; i < f.code.size(); ++i) {
      const std::string& line = f.code[i];
      for (const char* ident : kAlwaysBanned) {
        std::size_t pos;
        if (find_token(line, ident, 0, &pos)) {
          // `rand` must be a call to count (plain identifier "rand" could be
          // a local name); the others are banned as mere mentions.
          const bool call_like = std::strcmp(ident, "rand") != 0 ||
                                 (skip_ws(line, pos + std::strlen(ident)) <
                                      line.size() &&
                                  line[skip_ws(line, pos + std::strlen(
                                                         ident))] == '(');
          const bool member = pos >= 1 && (line[pos - 1] == '.' ||
                                           (pos >= 2 && line[pos - 2] == '-' &&
                                            line[pos - 1] == '>'));
          if (call_like && !member)
            emit(f, static_cast<int>(i) + 1, "R3",
                 std::string(ident) +
                     ": non-deterministic / unseedable randomness — use a "
                     "seeded engine or the project Rng (util/rng.h)",
                 out);
        }
      }
      for (const char* eng : kEngines) {
        std::size_t pos = 0, at;
        while (find_token(line, eng, pos, &at)) {
          pos = at + std::strlen(eng);
          std::size_t j = skip_ws(line, pos);
          // Skip one declarator identifier if present: `std::mt19937 gen...`.
          if (j < line.size() && (std::isalpha(
                                      static_cast<unsigned char>(line[j])) ||
                                  line[j] == '_')) {
            while (j < line.size() && is_ident(line[j])) ++j;
            j = skip_ws(line, j);
          }
          if (j >= line.size() || line[j] == ';' || line[j] == ',' ||
              line[j] == ')') {
            emit(f, static_cast<int>(i) + 1, "R3",
                 std::string(eng) +
                     " default-constructed (unseeded) — pass an explicit "
                     "seed so runs reproduce",
                 out);
          } else if (line[j] == '(' || line[j] == '{') {
            const char close = line[j] == '(' ? ')' : '}';
            const std::size_t k = skip_ws(line, j + 1);
            if (k < line.size() && line[k] == close)
              emit(f, static_cast<int>(i) + 1, "R3",
                   std::string(eng) +
                       " constructed with empty arguments (unseeded) — pass "
                       "an explicit seed so runs reproduce",
                   out);
          }
        }
      }
    }
  }

  // R4: every *Config under src/runtime/ defines AND calls validate().
  void rule_r4(std::vector<Diagnostic>* out) const {
    struct ConfigDecl {
      const SourceFile* file;
      int line;
      std::string name;
      bool declares_validate = false;
    };
    std::vector<ConfigDecl> decls;
    // Pass 1: find `struct FooConfig { ... }` in src/runtime/ files and
    // whether the brace span mentions validate.
    for (const SourceFile& f : files_) {
      if (!path_contains_dir(f.path, "src/runtime/")) continue;
      for (std::size_t i = 0; i < f.code.size(); ++i) {
        std::size_t pos = 0, at;
        while (find_token(f.code[i], "struct", pos, &at)) {
          pos = at + 6;
          std::size_t j = skip_ws(f.code[i], pos);
          std::string name;
          while (j < f.code[i].size() && is_ident(f.code[i][j]))
            name.push_back(f.code[i][j++]);
          if (name.size() < 7 ||
              name.compare(name.size() - 6, 6, "Config") != 0)
            continue;
          // Walk to the opening brace (skipping base-class clauses); a ';'
          // first means forward declaration.
          std::size_t li = i, ci = j;
          int depth = 0;
          bool opened = false, fwd = false;
          ConfigDecl d{&f, static_cast<int>(i) + 1, name, false};
          while (li < f.code.size() && !fwd) {
            const std::string& l = f.code[li];
            for (; ci < l.size(); ++ci) {
              const char c = l[ci];
              if (!opened) {
                if (c == ';') { fwd = true; break; }
                if (c == '{') { opened = true; depth = 1; }
                continue;
              }
              if (c == '{') ++depth;
              if (c == '}') {
                --depth;
                if (depth == 0) break;
              }
            }
            if (fwd || (opened && depth == 0)) break;
            if (opened && has_token(f.code[li], "validate"))
              d.declares_validate = true;
            ++li;
            ci = 0;
          }
          if (opened && li < f.code.size() &&
              has_token(f.code[li].substr(0, ci + 1), "validate"))
            d.declares_validate = true;
          if (!fwd && opened) decls.push_back(d);
        }
      }
    }
    // Pass 2: call sites — a `.validate(` / `->validate(` in any file that
    // also names the config type.
    for (const ConfigDecl& d : decls) {
      if (!d.declares_validate) {
        emit(*d.file, d.line, "R4",
             "struct " + d.name +
                 " (src/runtime/) declares no validate() — serving configs "
                 "must fail loudly on nonsense values",
             out);
        continue;
      }
      bool called = false;
      for (const SourceFile& f : files_) {
        bool names_type = false, has_call = false;
        for (const std::string& line : f.code) {
          if (!names_type && has_token(line, d.name)) names_type = true;
          if (!has_call) {
            std::size_t pos = 0, at;
            while (find_token(line, "validate", pos, &at)) {
              pos = at + 8;
              const bool member =
                  at >= 1 && (line[at - 1] == '.' ||
                              (at >= 2 && line[at - 2] == '-' &&
                               line[at - 1] == '>'));
              const std::size_t after = skip_ws(line, at + 8);
              if (member && after < line.size() && line[after] == '(') {
                has_call = true;
                break;
              }
            }
          }
          if (names_type && has_call) break;
        }
        if (names_type && has_call) {
          called = true;
          break;
        }
      }
      if (!called)
        emit(*d.file, d.line, "R4",
             "struct " + d.name +
                 " defines validate() but no call site found (expected "
                 "cfg.validate() wherever the config enters the runtime)",
             out);
    }
  }

  // R5: unordered-container iteration in hot-path files.
  static void rule_r5(const SourceFile& f, std::vector<Diagnostic>* out) {
    if (!path_contains_dir(f.path, "src/tensor/") &&
        !path_contains_dir(f.path, "src/nn/") &&
        !path_contains_dir(f.path, "src/runtime/"))
      return;
    // Collect names of variables declared with an unordered container type.
    std::set<std::string> unordered_vars;
    for (const std::string& line : f.code) {
      for (const char* ty : {"unordered_map", "unordered_set"}) {
        std::size_t pos = 0, at;
        while (find_token(line, ty, pos, &at)) {
          pos = at + std::strlen(ty);
          std::size_t j = skip_ws(line, pos);
          if (j < line.size() && line[j] == '<') {
            int depth = 0;
            for (; j < line.size(); ++j) {
              if (line[j] == '<') ++depth;
              if (line[j] == '>' && --depth == 0) { ++j; break; }
            }
          }
          // Reference/pointer declarators sit between type and name:
          // `const std::unordered_map<int, float>& weights`.
          j = skip_ws(line, j);
          while (j < line.size() && (line[j] == '&' || line[j] == '*'))
            j = skip_ws(line, j + 1);
          std::string name;
          while (j < line.size() && is_ident(line[j]))
            name.push_back(line[j++]);
          if (!name.empty()) unordered_vars.insert(name);
        }
      }
    }
    for (std::size_t i = 0; i < f.code.size(); ++i) {
      const std::string& line = f.code[i];
      // Range-for whose range expression names an unordered variable.
      std::size_t pos = 0, at;
      while (find_token(line, "for", pos, &at)) {
        pos = at + 3;
        std::size_t j = skip_ws(line, pos);
        if (j >= line.size() || line[j] != '(') continue;
        // Find the ':' introducing a range (skip '::').
        int depth = 0;
        std::size_t colon = std::string::npos;
        for (std::size_t k = j; k < line.size(); ++k) {
          if (line[k] == '(') ++depth;
          if (line[k] == ')' && --depth == 0) break;
          if (line[k] == ':' && depth == 1) {
            if (k + 1 < line.size() && line[k + 1] == ':') { ++k; continue; }
            if (k > 0 && line[k - 1] == ':') continue;
            colon = k;
            break;
          }
        }
        if (colon == std::string::npos) continue;
        for (const std::string& var : unordered_vars) {
          std::size_t vp;
          if (find_token(line, var, colon, &vp))
            emit(f, static_cast<int>(i) + 1, "R5",
                 "range-for over unordered container '" + var +
                     "' on the hot path — iteration order is "
                     "implementation-defined and breaks bit-identical output",
                 out);
        }
      }
      // Explicit iterator walks: var.begin( / var.cbegin(.
      for (const std::string& var : unordered_vars) {
        for (const char* it : {".begin", ".cbegin"}) {
          std::size_t p = line.find(var + it);
          if (p != std::string::npos &&
              (p == 0 || !is_ident(line[p == 0 ? 0 : p - 1])))
            emit(f, static_cast<int>(i) + 1, "R5",
                 "iterator walk over unordered container '" + var +
                     "' on the hot path — iteration order is "
                     "implementation-defined",
                 out);
        }
      }
    }
  }

  // R6: raw allocation confinement.
  static void rule_r6(const SourceFile& f, std::vector<Diagnostic>* out) {
    if (path_ends_with(f.path, "src/runtime/scratch.h") ||
        path_ends_with(f.path, "src/runtime/scratch.cpp") ||
        path_ends_with(f.path, "src/tensor/tensor.h"))
      return;
    static const char* kBanned[] = {"malloc",       "calloc",
                                    "realloc",      "free",
                                    "aligned_alloc", "posix_memalign",
                                    "strdup"};
    for (std::size_t i = 0; i < f.code.size(); ++i) {
      const std::string& line = f.code[i];
      for (const char* ident : kBanned) {
        std::size_t pos;
        if (find_token(line, ident, 0, &pos)) {
          const bool member = pos >= 1 && (line[pos - 1] == '.' ||
                                           (pos >= 2 && line[pos - 2] == '-' &&
                                            line[pos - 1] == '>'));
          // A preceding identifier means this is a declaration, not a call:
          // `void free(int handle)`.  (`std::free(` still fires: ':' is not
          // an identifier character.)
          std::size_t before = pos;
          while (before > 0 && std::isspace(static_cast<unsigned char>(
                                   line[before - 1])))
            --before;
          const bool declared = before > 0 && is_ident(line[before - 1]);
          const std::size_t after = skip_ws(line, pos + std::strlen(ident));
          if (!member && !declared && after < line.size() && line[after] == '(')
            emit(f, static_cast<int>(i) + 1, "R6",
                 std::string(ident) +
                     ": raw allocation outside ScratchArena / "
                     "AlignedAllocator — hot paths must be alloc-free, cold "
                     "paths use containers",
                 out);
        }
      }
      // new Type[...]
      std::size_t pos = 0, at;
      while (find_token(line, "new", pos, &at)) {
        pos = at + 3;
        for (std::size_t j = pos; j < line.size(); ++j) {
          const char c = line[j];
          if (c == '[') {
            emit(f, static_cast<int>(i) + 1, "R6",
                 "new[]: raw array allocation outside ScratchArena / "
                 "AlignedAllocator — use std::vector or the arena",
                 out);
            break;
          }
          if (c == '(' || c == ';' || c == ',' || c == '{' || c == '=' ||
              c == ')')
            break;
        }
      }
    }
  }

  std::vector<SourceFile> files_;
};

// ------------------------------------------------------------------ driver

bool lintable(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".h" || ext == ".cc";
}

void collect(const fs::path& root, std::vector<std::string>* out) {
  if (!fs::exists(root)) return;
  for (auto it = fs::recursive_directory_iterator(root);
       it != fs::recursive_directory_iterator(); ++it) {
    if (it->is_directory() &&
        it->path().filename() == "lint_fixtures") {
      it.disable_recursion_pending();  // the fixtures violate on purpose
      continue;
    }
    if (it->is_regular_file() && lintable(it->path()))
      out->push_back(norm_path(it->path()));
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string root = ".";
  std::vector<std::string> explicit_paths;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--root") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "invariant_lint: --root needs a directory\n");
        return 2;
      }
      root = argv[++i];
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: invariant_lint [--root DIR] [paths...]\n"
          "Scans DIR/src, DIR/tools, DIR/tests (or the explicit paths) for\n"
          "violations of the project invariants R1-R6.  Exit 0 clean, 1\n"
          "violations, 2 usage/IO error.\n");
      return 0;
    } else {
      explicit_paths.push_back(arg);
    }
  }

  std::vector<std::string> paths;
  if (explicit_paths.empty()) {
    for (const char* sub : {"src", "tools", "tests"})
      collect(fs::path(root) / sub, &paths);
  } else {
    for (const std::string& p : explicit_paths) {
      if (fs::is_directory(p))
        collect(p, &paths);
      else
        paths.push_back(p);
    }
  }
  std::sort(paths.begin(), paths.end());

  Linter linter;
  for (const std::string& p : paths) {
    SourceFile f;
    if (!load_file(p, &f)) {
      std::fprintf(stderr, "invariant_lint: cannot read %s\n", p.c_str());
      return 2;
    }
    linter.add_file(std::move(f));
  }

  const std::vector<Diagnostic> diags = linter.run();
  for (const Diagnostic& d : diags)
    std::printf("%s:%d: [%s] %s\n", d.path.c_str(), d.line, d.rule.c_str(),
                d.message.c_str());
  if (diags.empty()) {
    std::printf("invariant_lint: clean (%d files)\n", linter.files_scanned());
    return 0;
  }
  std::printf("invariant_lint: %d violation(s) in %d file(s) scanned\n",
              static_cast<int>(diags.size()), linter.files_scanned());
  return 1;
}
