// MiniScript — a small JavaScript-like engine.
//
// The paper's hardest separation problem (Section 4.1) is JavaScript: scripts
// run in the page's global context, must execute in document order, and there
// is no way to know whether one will trigger a fetch without running it.  To
// reproduce that, corpus pages embed real scripts in a JS subset and both
// pipelines *execute* them through this engine:
//   lexer -> recursive-descent parser -> AST -> tree-walking interpreter.
//
// Scripts reach the outside world through a JsHost: document.write() feeds
// markup back into the HTML parser (possibly discovering more resources) and
// the load*()/fetch() builtins request subresources.  The interpreter counts
// every evaluation step; the browser cost model converts that count into CPU
// time, which is also Table 1's "JavaScript Running Time" feature.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/resource.hpp"

namespace eab::web::js {

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

enum class TokenType {
  kNumber,
  kString,
  kIdentifier,
  kKeyword,
  kPunct,
  kEnd,
};

struct Token {
  TokenType type = TokenType::kEnd;
  std::string text;
  double number = 0;
  std::size_t offset = 0;  ///< source offset for diagnostics
};

/// Tokenizes a script. Throws JsError on malformed literals.
std::vector<Token> tokenize(std::string_view source);

// ---------------------------------------------------------------------------
// Values
// ---------------------------------------------------------------------------

class JsError : public std::runtime_error {
 public:
  explicit JsError(const std::string& message) : std::runtime_error(message) {}
};

struct Stmt;
class Value;
using Array = std::vector<Value>;
/// Script objects: ordered keys keep printing and iteration deterministic.
using Object = std::map<std::string, Value, std::less<>>;

/// Longest array an index write may grow: `a[1e9] = 1` fails with a JsError
/// instead of allocating a billion values.
constexpr std::size_t kMaxArrayLength = std::size_t{1} << 20;

/// Longest string a script may build (4 MiB).  Concatenation, or rendering
/// an array as text, past it fails the script with JsError("string too
/// long"): a few hundred ops of `s = s + s`, or of `a = [a, a]` and then
/// `'' + a`, would otherwise double a string until memory runs out.  Corpus
/// scripts build at most 104 bytes, web_js_differential_test's random
/// programs 1,109,991.
constexpr std::size_t kMaxStringLength = std::size_t{1} << 22;

/// Deepest array nesting Value::to_string() renders.  One level more throws
/// JsError("value nesting too deep") and fails the script: a value that deep
/// comes from a runaway loop, not a page.  (The walk keeps its path on the
/// heap, so depth never threatens the stack.)
constexpr std::size_t kMaxStringifyDepth = 10'000;

/// Sentinels for host-provided namespace objects (document, Math, window).
enum class HostObject : std::uint8_t { kDocument, kMath, kWindow };

namespace detail {
struct Cell {
  std::uint32_t refs = 1;
};
}  // namespace detail

/// A script value: a 16-byte tagged union.  Strings, arrays and objects live
/// in reference-counted cells, so copying any value never allocates; strings
/// are immutable once built.  The counts are not atomic: an Interpreter and
/// every Value it hands out belong to one thread.
class Value {
 public:
  enum class Type : std::uint8_t {
    kUndefined, kNull, kBool, kNumber, kFunction, kHost,
    kString, kArray, kObject,  // heap types last: type_ >= kString
  };

  Value() noexcept : type_(Type::kUndefined), payload_{} {}
  Value(const Value& other) noexcept : type_(other.type_), payload_(other.payload_) {
    if (is_heap()) ++payload_.cell->refs;
  }
  Value(Value&& other) noexcept : type_(other.type_), payload_(other.payload_) {
    other.type_ = Type::kUndefined;
  }
  Value& operator=(const Value& other) noexcept {
    Value copy(other);
    swap(copy);
    return *this;
  }
  Value& operator=(Value&& other) noexcept {
    Value moved(std::move(other));
    swap(moved);
    return *this;
  }
  ~Value() {
    if (is_heap() && --payload_.cell->refs == 0) destroy();
  }

  static Value undefined() { return Value(); }
  static Value null() { return Value(Type::kNull); }
  static Value boolean(bool b) {
    Value v(Type::kBool);
    v.payload_.boolean = b;
    return v;
  }
  static Value number(double d) {
    Value v(Type::kNumber);
    v.payload_.number = d;
    return v;
  }
  static Value string(std::string text);
  static Value array(Array items = {});
  static Value object();
  static Value function(const Stmt* fn) {
    Value v(Type::kFunction);
    v.payload_.function = fn;
    return v;
  }
  static Value host(HostObject h) {
    Value v(Type::kHost);
    v.payload_.host = h;
    return v;
  }

  Type type() const { return type_; }
  bool is_undefined() const { return type_ == Type::kUndefined; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_number() const { return type_ == Type::kNumber; }

  // Unchecked accessors: the caller has tested type() first.
  double as_number() const { return payload_.number; }
  const Stmt* as_function() const { return payload_.function; }
  HostObject as_host() const { return payload_.host; }
  const std::string& as_string() const;
  Array& as_array() const;
  Object& as_object() const;

  bool truthy() const;
  double to_number() const;
  /// Arrays join their elements with ","; an array already being rendered
  /// further up (a cycle) renders as "", as Array.prototype.join does.
  /// Throws JsError past kMaxStringifyDepth nested arrays, or once the text
  /// grows past kMaxStringLength.
  std::string to_string() const;
  /// Appends to_string() of this array to `out`; type() must be kArray.
  void append_array_to(std::string& out) const;

 private:
  union Payload {
    double number;
    bool boolean;
    const Stmt* function;
    HostObject host;
    detail::Cell* cell;
  };

  explicit Value(Type type) : type_(type), payload_{} {}
  bool is_heap() const { return type_ >= Type::kString; }
  void swap(Value& other) noexcept {
    std::swap(type_, other.type_);
    std::swap(payload_, other.payload_);
  }
  void destroy();

  Type type_;
  Payload payload_;
};

// ---------------------------------------------------------------------------
// AST
// ---------------------------------------------------------------------------

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;
using StmtPtr = std::unique_ptr<Stmt>;

/// What an expression node does, decoded once by the interpreter's resolve
/// pass (operators from `Expr::text`, the rest from `Expr::kind`), so the
/// evaluator dispatches on one small code and never compares strings.
enum class Op : std::uint8_t {
  kNone,                                   // not resolved yet
  kLiteral, kVariable,                     // leaves
  kAdd, kSub, kMul, kDiv, kMod,            // binary arithmetic
  kEq, kNe, kLt, kGt, kLe, kGe,            // comparison
  kAnd, kOr,                               // short-circuit logic
  kNot, kNeg, kTypeof,                     // unary
  kSet, kAddSet, kSubSet, kMulSet, kDivSet,  // assignment
  kArray, kObject, kCall, kMember, kIndex,
};

/// Names the evaluator treats specially, tagged by the resolve pass:
/// host objects, global builtins, host methods and host-aware members.
enum class Name : std::uint8_t {
  kOther,
  kDocument, kMath, kWindow,  // identifiers that name host objects
  kLoadImage, kLoadScript, kLoadCss, kFetchData, kIndexOf, kSubstring,
  kCharAt, kSplit, kStr, kLen, kPush,  // global builtins
  kWrite, kWriteln,                   // document methods
  kFloor, kCeil, kAbs, kSqrt, kMax, kMin, kRandom,  // Math methods
  kLength, kPi,                       // members
};

struct Expr {
  enum class Kind {
    kNumber,
    kString,
    kBool,
    kNull,
    kIdentifier,
    kArray,     ///< [a, b, c]
    kObject,    ///< {k: v, ...}; operands are values, keys joined in text
    kUnary,     ///< op operand
    kBinary,    ///< lhs op rhs (also && and ||, short-circuiting)
    kAssign,    ///< target (identifier/index) = value, or +=
    kCall,      ///< callee(args); callee may be a member expression
    kMember,    ///< object.name
    kIndex,     ///< object[expr]
  };

  Kind kind;
  double number = 0;
  bool boolean = false;
  std::string text;  ///< identifier / string value / operator / member name
  std::vector<ExprPtr> operands;
  int height = 1;  ///< levels in this subtree; parse() keeps it <= kMaxNesting

  // Filled in by Interpreter's resolve pass; parse() leaves the defaults.
  Op op = Op::kNone;
  Name name = Name::kOther;
  std::uint32_t symbol = 0;       ///< kIdentifier: interned name
  Value constant;                 ///< literal kinds: the value itself
  std::vector<std::string> keys;  ///< kObject: keys split from `text`
};

struct Stmt {
  enum class Kind {
    kExpr,
    kVarDecl,   ///< text = name, operands[0] = initialiser (optional)
    kBlock,
    kIf,        ///< exprs[0] cond, stmts[0] then, stmts[1] else (optional)
    kWhile,
    kFor,       ///< init (stmt), cond (expr), step (expr), body
    kFunction,  ///< text = name, params, body
    kReturn,
    kBreak,
    kContinue,
  };

  Kind kind;
  std::string text;
  std::vector<std::string> params;
  std::vector<ExprPtr> exprs;
  std::vector<StmtPtr> stmts;

  // Filled in by Interpreter's resolve pass.
  std::uint32_t symbol = 0;                  ///< kVarDecl / kFunction name
  std::vector<std::uint32_t> param_symbols;  ///< kFunction params
};

/// A parsed program.
struct Program {
  std::vector<StmtPtr> statements;
};

/// Deepest nesting parse() accepts, checked twice: the parser's own
/// recursion (each statement, assignment, unary operator and primary entered
/// counts one level, so `((1))` costs six) and the height of every
/// expression tree (`1+1+...+1` is built by a loop but is as deep as it is
/// long).  The evaluator recurses along the AST, so its stack use per call
/// frame is bounded too.  Corpus scripts need about ten levels.
constexpr int kMaxNesting = 100;

/// Parses a script. Throws JsError with a source offset on syntax errors,
/// including "nesting too deep" past kMaxNesting.
Program parse(std::string_view source);

// ---------------------------------------------------------------------------
// Runtime
// ---------------------------------------------------------------------------

/// The environment a script can observe and act on.
class JsHost {
 public:
  virtual ~JsHost() = default;
  /// document.write(html): markup appended to the document.
  virtual void document_write(const std::string& html) = 0;
  /// loadImage/loadScript/loadCss/fetch builtins: a subresource request.
  virtual void request_resource(const std::string& url,
                                net::ResourceKind kind) = 0;
  /// Math.random() — hosts supply deterministic randomness.
  virtual double random() = 0;
};

/// Outcome of running one script.
struct RunResult {
  std::uint64_t ops = 0;          ///< evaluation steps executed
  bool completed = false;         ///< false when aborted by error/budget
  std::string error;              ///< diagnostic when !completed
};

/// Tree-walking interpreter with a persistent global scope, so consecutive
/// scripts on one page share state exactly as the paper requires.
///
/// Each script is parsed, then resolved once: operators and well-known
/// names become enums and every identifier an interned symbol id.  Globals
/// live in a vector indexed by symbol id; call frames are flat (symbol,
/// value) lists searched innermost first, which keeps the language's dynamic
/// scope (a function sees its callers' locals) without string hashing.
class Interpreter {
 public:
  explicit Interpreter(JsHost& host, std::uint64_t op_budget = 50'000'000);
  ~Interpreter();

  /// Parses and runs a script in the page's global context. Runtime errors
  /// and budget exhaustion are reported in the result, not thrown: a broken
  /// script must not take the whole page load down.
  RunResult run(std::string_view source);

  /// Total ops across all scripts run so far.
  std::uint64_t total_ops() const { return total_ops_; }

  /// Reads a global variable (tests / diagnostics).
  Value global(const std::string& name) const;

  /// Names of every global a script has set, sorted (tests / diagnostics).
  std::vector<std::string> global_names() const;

 private:
  class Evaluator;
  class Resolver;

  struct Global {
    Value value;
    bool defined = false;  ///< set once a script declares or assigns it
  };

  std::uint32_t intern(const std::string& name);

  JsHost& host_;
  std::uint64_t op_budget_;
  std::uint64_t total_ops_ = 0;
  std::unordered_map<std::string, std::uint32_t> symbols_;
  std::vector<std::string> names_;  ///< symbol id -> name
  std::vector<Global> globals_;     ///< indexed by symbol id
  /// Function declarations stay alive across scripts.
  std::vector<std::shared_ptr<Program>> retained_programs_;
};

}  // namespace eab::web::js
