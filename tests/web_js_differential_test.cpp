// Differential test for the MiniScript interpreter: runs the same scripts
// through the engine and through the reference evaluator it replaced
// (web_js_reference.hpp) and asserts they agree on everything a host or the
// cost model can observe — ops per run, completion, error text, the ordered
// log of document.write / resource requests / Math.random draws, total ops,
// and the type and printed value of every global afterwards.
//
// Inputs are every script of the generated corpus (both variants of all 20
// Table-3 sites, several jitter seeds) and seeded random programs.  The
// generator reaches the engine's corners: functions and recursion, reads
// through caller frames (scope is dynamic), use before `var`, break and
// continue, objects and arrays, string building, out-of-range and NaN
// indices, op budgets that run out mid-expression, runtime errors and
// damaged source (parse errors).
//
// Generated strings can only grow by a bounded amount per op: wherever a
// value is kept (`+`, `&&`, `||`, assignment, array literals) an expression
// may read at most one variable or call, and values stored into containers
// read none and build no container that does.  So no program doubles a
// string or builds a cyclic array or object (which would leak under
// reference counting, in both engines).
#include "web/js.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "corpus/generator.hpp"
#include "corpus/page_spec.hpp"
#include "util/rng.hpp"
#include "web/html_parser.hpp"
#include "web_js_reference.hpp"

namespace eab::web::js {
namespace {

/// Logs every effect in order; Math.random draws from a seeded stream.
class LogHost : public JsHost {
 public:
  explicit LogHost(std::uint64_t seed) : rng_(seed) {}
  void document_write(const std::string& html) override {
    log.push_back("write " + html);
  }
  void request_resource(const std::string& url, net::ResourceKind kind) override {
    log.push_back("request " + std::to_string(static_cast<int>(kind)) + " " + url);
  }
  double random() override {
    log.push_back("random");
    return rng_.uniform();
  }

  std::vector<std::string> log;

 private:
  Rng rng_;
};

const char* type_of(const Value& value) {
  switch (value.type()) {
    case Value::Type::kUndefined: return "undefined";
    case Value::Type::kNull: return "null";
    case Value::Type::kBool: return "bool";
    case Value::Type::kNumber: return "number";
    case Value::Type::kString: return "string";
    case Value::Type::kArray: return "array";
    case Value::Type::kObject: return "object";
    case Value::Type::kFunction: return "function";
    case Value::Type::kHost: return "host";
  }
  return "?";
}

const char* type_of(const reference::Value& value) {
  static const char* const kNames[] = {"undefined", "null",   "bool",
                                       "number",    "string", "array",
                                       "object",    "function", "host"};
  return kNames[value.storage.index()];
}

/// How many of the scripts compare() ran completed, and how many failed.
struct Tally {
  int completed = 0;
  int failed = 0;
};

/// Runs `scripts` in order through both engines (one persistent global scope
/// each) and reports the first disagreement, or "" when they agree.
std::string compare(const std::vector<std::string>& scripts,
                    std::uint64_t budget, std::uint64_t random_seed,
                    Tally* tally = nullptr) {
  LogHost ref_host(random_seed);
  LogHost fast_host(random_seed);
  reference::Interpreter ref(ref_host, budget);
  Interpreter fast(fast_host, budget);
  for (std::size_t i = 0; i < scripts.size(); ++i) {
    const RunResult want = ref.run(scripts[i]);
    const RunResult got = fast.run(scripts[i]);
    const std::string where = "script " + std::to_string(i) + ": ";
    if (want.ops != got.ops) {
      return where + "ops " + std::to_string(got.ops) + " != reference " +
             std::to_string(want.ops);
    }
    if (want.completed != got.completed) return where + "completed differs";
    if (tally != nullptr) (want.completed ? tally->completed : tally->failed)++;
    if (want.error != got.error) {
      return where + "error '" + got.error + "' != reference '" + want.error + "'";
    }
    if (ref_host.log != fast_host.log) {
      const std::size_t n = std::min(ref_host.log.size(), fast_host.log.size());
      std::size_t first = 0;
      while (first < n && ref_host.log[first] == fast_host.log[first]) ++first;
      return where + "effect " + std::to_string(first) + " differs (" +
             std::to_string(fast_host.log.size()) + " vs reference " +
             std::to_string(ref_host.log.size()) + " effects)";
    }
  }
  if (ref.total_ops() != fast.total_ops()) return "total ops differ";

  std::vector<std::string> names;
  for (const auto& [name, value] : ref.globals()) names.push_back(name);
  std::sort(names.begin(), names.end());
  if (names != fast.global_names()) return "global names differ";
  for (const auto& name : names) {
    const reference::Value& want = ref.globals().at(name);
    const Value got = fast.global(name);
    if (std::string(type_of(want)) != type_of(got)) {
      return "global " + name + " is " + type_of(got) + ", reference " +
             type_of(want);
    }
    if (want.to_string() != got.to_string()) {
      return "global " + name + " = '" + got.to_string() + "', reference '" +
             want.to_string() + "'";
    }
  }
  return "";
}

// --- corpus ------------------------------------------------------------------

/// A generated page's scripts in document order: inline, then external.
std::vector<std::string> page_scripts(const corpus::PageSpec& spec,
                                      std::uint64_t seed) {
  net::WebServer server;
  const std::string url = corpus::PageGenerator(seed).host_page(spec, server);
  const ParsedHtml html = parse_html(server.find(url)->body);
  std::vector<std::string> scripts = html.inline_scripts;
  for (const auto& ref : html.references) {
    if (ref.kind != net::ResourceKind::kJs) continue;
    if (const net::Resource* script = server.find(ref.url)) {
      scripts.push_back(script->body);
    }
  }
  return scripts;
}

class CorpusDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CorpusDifferential, EveryScriptOfBothVariantsOfAllSites) {
  std::vector<corpus::PageSpec> bases = corpus::mobile_benchmark();
  const auto full = corpus::full_benchmark();
  bases.insert(bases.end(), full.begin(), full.end());
  ASSERT_EQ(bases.size(), 20u);
  std::size_t scripts = 0;
  for (std::size_t i = 0; i < bases.size(); ++i) {
    const auto variants =
        corpus::spec_variants(bases[i], 2, derive_seed(GetParam(), i));
    ASSERT_EQ(variants.size(), 2u);
    for (std::size_t v = 0; v < variants.size(); ++v) {
      const auto page = page_scripts(variants[v], derive_seed(GetParam(), 100 + i));
      ASSERT_FALSE(page.empty());
      scripts += page.size();
      EXPECT_EQ(compare(page, 50'000'000, GetParam() + i), "")
          << bases[i].site << " variant " << v;
    }
  }
  EXPECT_GE(scripts, 120u);
}

INSTANTIATE_TEST_SUITE_P(JitterSeeds, CorpusDifferential,
                         ::testing::Values(1, 2, 3));

// --- random programs ---------------------------------------------------------

/// Seeded random MiniScript programs.  `sources` is how many variable reads
/// or calls the value being built may still contain (see the file comment).
class ProgramGen {
 public:
  explicit ProgramGen(std::uint64_t seed) : rng_(seed) {}

  std::string program() {
    std::string out;
    if (chance(0.7)) out += "var a = 1; var s = 'str'; var n = 0;\n";
    if (chance(0.6)) out += "var arr = [1, 'two', 3];\n";
    if (chance(0.8)) {
      // Usually every callable name is bound before the statements run: h
      // calls nothing, g only h, f only g and h, so these three never recurse.
      out += "var o = {k: 1, q: 'v', 'with space': 2};\n";
      callees_ = {};
      out += function("h") + "\n";
      callees_ = {"h"};
      out += function("g") + "\n";
      callees_ = {"g", "h"};
      out += function("f") + "\n";
      callees_ = kAllCallees;
      out += "o.fn = g;\n";
    } else if (chance(0.6)) {
      out += "var o = {k: 1, q: 'v', 'with space': 2};\n";
    }
    const int functions = static_cast<int>(pick(3));
    for (int i = 0; i < functions; ++i) out += function(function_name()) + "\n";
    const int statements = 2 + static_cast<int>(pick(9));
    for (int i = 0; i < statements; ++i) out += statement(3) + "\n";
    return out;
  }

  /// Damages `source` the way a truncated or garbled script would be.
  std::string damage(std::string source) {
    if (source.empty()) return source;
    const std::size_t at = pick(source.size());
    switch (pick(3)) {
      case 0: return source.substr(0, at);
      case 1: return source.erase(at, 1 + pick(5));
      default: {
        static const char* const kJunk[] = {"(", ")", "{", "}", ";", "=", "var",
                                            "[", ",", "'", "+", "."};
        return source.insert(at, kJunk[pick(std::size(kJunk))]);
      }
    }
  }

  bool chance(double p) { return rng_.uniform() < p; }
  std::size_t pick(std::size_t n) { return static_cast<std::size_t>(rng_.uniform_index(n)); }

 private:
  template <std::size_t N>
  const char* one_of(const char* const (&options)[N]) {
    return options[pick(N)];
  }

  std::string variable() {
    static const char* const kVars[] = {"a", "b", "c", "s", "t", "n",
                                        "o", "arr", "x", "y", "i", "j"};
    return one_of(kVars);
  }

  /// A function to call or define; `str` is also a builtin, which shadows it.
  std::string function_name() {
    if (callees_.empty()) return "str";
    return callees_[pick(callees_.size())];
  }

  std::string literal() {
    static const char* const kLiterals[] = {
        "0",    "1",       "2",      "3",    "7",     "11",   "2.5",
        "0.5",  "100",     "3000000", "'a'", "'img/'", "''",   "'12'",
        "'x,y'", "true",   "false",  "null", "undefined"};
    return one_of(kLiterals);
  }

  std::string leaf(int& sources) {
    if (sources > 0 && chance(0.6)) {
      --sources;
      return variable();
    }
    return literal();
  }

  std::string expression(int depth, int& sources) {
    if (depth <= 0) return leaf(sources);
    int fresh = 1;
    int fresh2 = 1;
    int none = 0;
    switch (pick(15)) {
      case 0:
      case 1:
        return leaf(sources);
      case 2: {
        static const char* const kOps[] = {"-", "*", "/",  "%",  "<",
                                           ">", "<=", ">=", "==", "!="};
        return "(" + expression(depth - 1, fresh) + " " + one_of(kOps) + " " +
               expression(depth - 1, fresh2) + ")";
      }
      case 3: {
        static const char* const kOps[] = {"+", "+", "+", "&&", "||"};
        std::string lhs = expression(depth - 1, sources);
        return "(" + lhs + " " + one_of(kOps) + " " +
               expression(depth - 1, sources) + ")";
      }
      case 4: {
        static const char* const kOps[] = {"!", "-", "typeof "};
        return std::string("(") + one_of(kOps) + expression(depth - 1, fresh) + ")";
      }
      case 5: {
        if (sources == 0) return leaf(sources);
        --sources;
        std::string call = function_name() + "(";
        const int args = static_cast<int>(pick(3));
        for (int i = 0; i < args; ++i) {
          int own = 1;
          call += (i > 0 ? ", " : "") + expression(depth - 1, own);
        }
        return call + ")";
      }
      case 6: {
        static const char* const kMath[] = {"floor", "ceil", "abs", "sqrt",
                                            "max",   "min"};
        switch (pick(5)) {
          case 0:
            return "indexOf(" + expression(depth - 1, fresh) + ", " +
                   expression(depth - 1, fresh2) + ")";
          case 1: return "len(" + expression(depth - 1, fresh) + ")";
          case 2: return "Math.random()";
          case 3: return "Math.PI";
          default:
            return std::string("Math.") + one_of(kMath) + "(" +
                   expression(depth - 1, fresh) + ", " +
                   expression(depth - 1, fresh2) + ")";
        }
      }
      case 7: {
        if (pick(3) == 0) {
          return "charAt(" + expression(depth - 1, fresh) + ", " +
                 expression(depth - 1, fresh2) + ")";
        }
        if (sources == 0) return leaf(sources);
        --sources;
        switch (pick(3)) {
          case 0:
            return "substring(" + expression(depth - 1, fresh) + ", " +
                   expression(depth - 1, none) + ", " +
                   expression(depth - 1, none) + ")";
          case 1: return "str(" + expression(depth - 1, fresh) + ")";
          default:
            return "split(" + expression(depth - 1, fresh) + ", " +
                   expression(depth - 1, none) + ")";
        }
      }
      case 8: {
        if (pick(3) == 0) return variable() + ".length";
        if (sources == 0) return leaf(sources);
        --sources;
        switch (pick(5)) {
          case 0: return "o.k";
          case 1: return "o.missing";
          case 2: return "o['with space']";
          case 3: return "arr[" + expression(depth - 1, fresh) + "]";
          default: return "s[" + expression(depth - 1, fresh) + "]";
        }
      }
      case 9: {
        std::string array = "[";
        const int elements = static_cast<int>(pick(4));
        for (int i = 0; i < elements; ++i) {
          array += (i > 0 ? ", " : "") + expression(depth - 1, sources);
        }
        return array + "]";
      }
      case 10: {
        // Fields of an object that is being stored into a container read no
        // variables, or `o.k = {k: o}` would build a cycle (which leaks
        // under reference counting, in both engines).
        int& k_sources = sources == 0 ? none : fresh;
        int& q_sources = sources == 0 ? none : fresh2;
        std::string k = expression(depth - 1, k_sources);
        return "{k: " + k + ", 'q': " + expression(depth - 1, q_sources) + "}";
      }
      case 11:
        // In a value bound for a container only literals may be assigned:
        // the right side runs before the target, so `arr[0] = (arr = [1])`
        // would store the new array into itself.
        if (sources == 0) return "(" + variable() + " = " + literal() + ")";
        return "(" + variable() + " = " + expression(depth - 1, sources) + ")";
      case 12: {
        if (sources == 0) return leaf(sources);
        --sources;
        static const char* const kOps[] = {"+=", "-=", "*=", "/="};
        return "(" + variable() + " " + one_of(kOps) + " " +
               expression(depth - 1, none) + ")";
      }
      case 13: {
        if (sources == 0) return leaf(sources);
        --sources;
        return "o.fn(" + expression(depth - 1, fresh) + ")";
      }
      default: {
        if (sources == 0) return leaf(sources);
        --sources;
        // A compound assignment whose index calls a function: the target,
        // and so the call, is evaluated twice.
        return "(arr[" + function_name() + "(1)] += " + expression(depth - 1, none) +
               ")";
      }
    }
  }

  std::string value(int depth) {
    int sources = 1;
    return expression(depth, sources);
  }

  std::string plain(int depth) {
    int sources = 0;
    return expression(depth, sources);
  }

  std::string block(int depth) {
    std::string out = "{ ";
    const int statements = 1 + static_cast<int>(pick(3));
    for (int i = 0; i < statements; ++i) out += statement(depth) + " ";
    return out + "}";
  }

  std::string function(const std::string& name) {
    ++functions_;
    std::string out = "function " + name + "(x, y) ";
    std::string body = "{ ";
    const int statements = 1 + static_cast<int>(pick(3));
    for (int i = 0; i < statements; ++i) body += statement(2) + " ";
    if (chance(0.8)) body += "return " + value(2) + "; ";
    --functions_;
    return out + body + "}";
  }

  std::string loop_variable() {
    static const char* const kLoopVars[] = {"i", "j", "k"};
    return kLoopVars[std::min<std::size_t>(loops_, 2)];
  }

  std::string statement(int depth) {
    const std::size_t kind = pick(depth > 0 ? 24 : 14);
    switch (kind) {
      case 0: return "var " + variable() + " = " + value(3) + ";";
      case 1: return "var " + variable() + ";";
      case 2:
      case 3: return variable() + " = " + value(3) + ";";
      case 4: {
        static const char* const kOps[] = {"+=", "-=", "*=", "/="};
        return variable() + " " + one_of(kOps) + " " + plain(2) + ";";
      }
      case 5: return chance(0.5) ? variable() + "++;" : "--" + variable() + ";";
      case 6: {
        static const char* const kWrites[] = {"document.write", "document.writeln"};
        return std::string(one_of(kWrites)) + "(" + value(2) + ");";
      }
      case 7: {
        static const char* const kLoads[] = {"loadImage", "loadScript", "loadCss",
                                             "fetchData", "window.loadImage"};
        return std::string(one_of(kLoads)) + "('u/' + " + value(1) + ");";
      }
      case 8: return "(" + value(3) + ");";
      case 9: {
        switch (pick(6)) {
          case 0: return "o.k = " + plain(2) + ";";
          case 1: return "o[" + value(1) + "] = " + plain(2) + ";";
          case 2: return "arr[" + value(2) + "] = " + plain(2) + ";";
          case 3: return "push(arr, " + plain(2) + ");";
          case 4: return "o.fn = " + function_name() + ";";
          default: return "arr[" + plain(1) + "] += " + plain(1) + ";";
        }
      }
      case 10: return "o = {k: " + value(1) + ", q: " + value(1) + "};";
      case 11: return "arr = [" + value(1) + ", " + plain(1) + "];";
      case 12: {
        if (functions_ > 0 && chance(0.7)) return "return " + value(2) + ";";
        if (loops_ > 0 && chance(0.7)) {
          return std::string("if (") + value(1) + ") { " +
                 (chance(0.5) ? "break;" : "continue;") + " }";
        }
        // Rare misplaced control flow and runtime errors.
        static const char* const kErrors[] = {
            "break;", "continue;", "return 1;", "undefinedFn();", "var z = 5[0];",
            "n.x = 1;", "document.nope();", "push(1, 2);", "arr[3000000] = 1;",
            "arr[0 - 1] = 1;"};
        return one_of(kErrors);
      }
      case 13: return function_name() + "(" + value(2) + ", " + value(1) + ");";
      case 14:
      case 15:
        return "if (" + value(2) + ") " + block(depth - 1) +
               (chance(0.4) ? " else " + block(depth - 1) : "");
      case 16:
      case 17: {
        const std::string v = loop_variable();
        ++loops_;
        const std::string out = "for (var " + v + " = 0; " + v + " < " +
                                std::to_string(pick(6)) + "; " + v + "++) " +
                                block(depth - 1);
        --loops_;
        return out;
      }
      case 18: {
        ++loops_;
        const std::string out = "while (n < " + std::to_string(pick(8)) + ") { " +
                                statement(depth - 1) + " n = n + 1; }";
        --loops_;
        return out;
      }
      case 19: {
        ++loops_;
        const std::string out = "while (true) { " + statement(depth - 1) +
                                " if (" + value(1) + ") { break; } }";
        --loops_;
        return out;
      }
      case 20: return function(function_name());
      case 21: return block(depth - 1);
      case 22: {
        ++loops_;
        const std::string out = "for (;;) { " + statement(depth - 1) +
                                " if (" + value(1) + ") { break; } else { continue; } }";
        --loops_;
        return out;
      }
      default:
        // Dynamic scope: a callee reads and writes names its caller binds.
        return "function " + function_name() + "(x) { var t = x; return " +
               function_name() + "(y) + t; }";
    }
  }

  inline static const std::vector<std::string> kAllCallees = {"f", "g", "h",
                                                               "str"};
  Rng rng_;
  std::vector<std::string> callees_ = kAllCallees;
  int functions_ = 0;
  std::size_t loops_ = 0;
};

constexpr int kProgramsPerShard = 1300;

class RandomDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomDifferential, ProgramsAgreeWithReference) {
  ProgramGen gen(derive_seed(0x5eed, GetParam()));
  Tally tally;
  for (int i = 0; i < kProgramsPerShard; ++i) {
    // 1-3 scripts share one global scope, as on a page.
    std::vector<std::string> scripts;
    const int count = 1 + static_cast<int>(gen.pick(3));
    for (int s = 0; s < count; ++s) {
      std::string source = gen.program();
      if (gen.chance(0.05)) source = gen.damage(std::move(source));
      scripts.push_back(std::move(source));
    }
    const std::uint64_t budgets[] = {20'000, 20'000, 20'000, 2'000,
                                     50 + gen.pick(450)};
    const std::uint64_t budget = budgets[gen.pick(std::size(budgets))];
    const std::string diff =
        compare(scripts, budget, derive_seed(GetParam(), i), &tally);
    ASSERT_EQ(diff, "") << "program " << i << ", budget " << budget << ":\n"
                        << [&] {
                             std::string all;
                             for (const auto& s : scripts) all += s + "\n----\n";
                             return all;
                           }();
  }
  // The generator must exercise both clean runs and failures.
  EXPECT_GT(tally.completed, kProgramsPerShard / 4);
  EXPECT_GT(tally.failed, kProgramsPerShard / 10);
}

INSTANTIATE_TEST_SUITE_P(Shards, RandomDifferential,
                         ::testing::Range<std::uint64_t>(0, 8));

// --- hand-picked quirks ------------------------------------------------------

TEST(JsDifferential, PreservedEvaluationQuirks) {
  const std::vector<std::string> programs = {
      // The right side is evaluated before the target.
      "var log = ''; var a = [0, 0]; function i() { log = log + 'i'; return 0; }"
      "function v() { log = log + 'v'; return 1; } a[i()] = v();",
      // A compound assignment evaluates its target twice.
      "var calls = 0; var a = [1, 2]; function f() { calls++; return 0; }"
      "a[f()] += 5;",
      // o.m(...) evaluates o again when o is not a host object.
      "var n = 0; function get() { n++; return {m: 1}; } var r = get().m;",
      "var n = 0; var o = {}; function m(x) { return x; } o.m = m;"
      "function obj() { n++; return o; } var r = obj().m(3);",
      // Builtins shadow script functions of the same name.
      "function len(x) { return 99; } var l = len('abc');",
      // Scope is dynamic and `var` binds when it runs (no hoisting).
      "var x = 'outer'; function g() { return x; }"
      "function f(x) { return g(); } var r = f('caller');",
      "var x = 0; function f() { x = 1; var x; x = 2; } f();",
      "var x = 0; function f() { var y = x; var x = 5; return y + x; } var r = f();",
      // Host names always read as host objects.
      "var Math = 5; var r = Math.floor(2.5); document = 3; var d = typeof document;",
      // Object-literal keys split on newlines exactly as before.
      "var o = {'a\\nb': 1, c: 2}; var ka = o.a; var kb = o.b; var kc = o.c;",
      "var o = {'': 1, z: 2}; var e = o['']; var z = o.z;",
      // Integral % keeps fmod's sign, -0 included.
      "var m = -4 % 2; var inv = 1 / m; var p = 7 % -3; var q = -7 % 3;"
      "var fr = 5.5 % 2; var big = 9007199254740993 % 10; var nz = 3 % 0;",
      // Indices that used to be undefined behaviour read as out of range.
      "var a = [1, 2]; var r1 = a[0 - 1]; var r2 = a[0 / 0]; var r3 = a[1 / 0];"
      "var c = charAt('abc', 0 - 1); var h = charAt('abc', 0.5);"
      "var s1 = substring('abcdef', 0 - 5, 0 - 1); var s2 = substring('abc', 1, 1 / 0);"
      "var s3 = substring('abc', 0 / 0, 2); var neg = a[0 - 0.5];",
      "var a = []; a[3000000] = 1;",
      "var a = []; a[0 - 1] = 1;",
      "var a = []; a[1 / 0] = 1;",
      "var a = []; a[5] = 1; var n = len(a); var u = typeof a[2];",
      // Budget exhaustion in the middle of an expression.
      "var s = 0; while (true) { s = s + (1 + 2) * (3 + 4); }",
  };
  for (const std::uint64_t budget : {1'000'000ull, 37ull, 100ull}) {
    for (const auto& program : programs) {
      EXPECT_EQ(compare({program}, budget, 9), "") << program;
    }
  }
}

}  // namespace
}  // namespace eab::web::js
