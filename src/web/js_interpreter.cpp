#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "web/js.hpp"

namespace eab::web::js {
namespace {

struct StringCell : detail::Cell {
  explicit StringCell(std::string t) : text(std::move(t)) {}
  std::string text;
};
struct ArrayCell : detail::Cell {
  explicit ArrayCell(Array a) : items(std::move(a)) {}
  Array items;
  bool rendering = false;  ///< on the path of an append_array_to in progress
};
struct ObjectCell : detail::Cell {
  Object fields;
};

std::string number_to_string(double d) {
  // Integral doubles print without a decimal point, like JS.
  if (std::isfinite(d) && d == std::floor(d) && std::abs(d) < 1e15) {
    return std::to_string(static_cast<long long>(d));
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%g", d);
  return buf;
}

/// std::fmod, with the integral case (every `%` the corpus runs) done in
/// integer arithmetic, which is exact for |a|, |b| < 2^53 and several times
/// faster.  The result keeps fmod's sign, including -0.
double modulo(double a, double b) {
  constexpr double kExact = 9007199254740992.0;  // 2^53
  if (std::abs(a) < kExact && std::abs(b) < kExact && b != 0) {
    const auto ia = static_cast<std::int64_t>(a);
    const auto ib = static_cast<std::int64_t>(b);
    if (static_cast<double>(ia) == a && static_cast<double>(ib) == b) {
      const auto r = static_cast<double>(ia % ib);
      return r == 0 ? std::copysign(0.0, a) : r;
    }
  }
  return std::fmod(a, b);
}

/// An index that does not truncate to a non-negative integer (NaN, <= -1,
/// non-finite) maps to npos, which every bounds check reads as out of range.
std::size_t index_or_npos(double d) {
  if (!(d > -1.0 && d < 18446744073709551616.0)) return std::string::npos;
  return static_cast<std::size_t>(d);
}

/// Substring bounds: clamps into [0, size] before the cast.
std::size_t clamp_to_size(double d, std::size_t size) {
  if (!(d > 0.0)) return 0;
  if (d >= static_cast<double>(size)) return size;
  return static_cast<std::size_t>(d);
}

}  // namespace

// ---------------------------------------------------------------------------
// Value
// ---------------------------------------------------------------------------

Value Value::string(std::string text) {
  Value v(Type::kString);
  v.payload_.cell = new StringCell(std::move(text));
  return v;
}

Value Value::array(Array items) {
  Value v(Type::kArray);
  v.payload_.cell = new ArrayCell(std::move(items));
  return v;
}

Value Value::object() {
  Value v(Type::kObject);
  v.payload_.cell = new ObjectCell();
  return v;
}

const std::string& Value::as_string() const {
  return static_cast<StringCell*>(payload_.cell)->text;
}
Array& Value::as_array() const {
  return static_cast<ArrayCell*>(payload_.cell)->items;
}
Object& Value::as_object() const {
  return static_cast<ObjectCell*>(payload_.cell)->fields;
}

namespace {

/// Nested frees past this depth are queued and drained by the outermost one.
constexpr int kMaxFreeDepth = 256;

using FreeQueue = std::vector<std::pair<Value::Type, detail::Cell*>>;
thread_local int free_depth = 0;
thread_local FreeQueue* free_queue = nullptr;

void delete_cell(Value::Type type, detail::Cell* cell) {
  if (type == Value::Type::kArray) {
    delete static_cast<ArrayCell*>(cell);
  } else {
    delete static_cast<ObjectCell*>(cell);
  }
}

}  // namespace

void Value::destroy() {
  if (type_ == Type::kString) {
    delete static_cast<StringCell*>(payload_.cell);
    return;
  }
  // Freeing an array or object frees its children from inside its
  // destructor.  Past kMaxFreeDepth nested frees a cell is queued instead,
  // and the outermost free drains the queue, so a deeply nested value
  // cannot exhaust the stack.
  if (free_depth == kMaxFreeDepth) {
    free_queue->emplace_back(type_, payload_.cell);
    return;
  }
  if (free_depth > 0) {
    ++free_depth;
    delete_cell(type_, payload_.cell);
    --free_depth;
    return;
  }
  FreeQueue queue;
  free_queue = &queue;
  free_depth = 1;
  delete_cell(type_, payload_.cell);
  while (!queue.empty()) {
    const auto [type, cell] = queue.back();
    queue.pop_back();
    delete_cell(type, cell);
  }
  free_depth = 0;
  free_queue = nullptr;
}

bool Value::truthy() const {
  switch (type_) {
    case Type::kUndefined:
    case Type::kNull:
      return false;
    case Type::kBool:
      return payload_.boolean;
    case Type::kNumber:
      return payload_.number != 0;
    case Type::kString:
      return !as_string().empty();
    default:
      return true;  // arrays, objects, functions, host objects
  }
}

double Value::to_number() const {
  switch (type_) {
    case Type::kNumber:
      return payload_.number;
    case Type::kBool:
      return payload_.boolean ? 1 : 0;
    case Type::kString: {
      const char* text = as_string().c_str();
      char* end = nullptr;
      const double v = std::strtod(text, &end);
      return end == text ? 0 : v;
    }
    default:
      return 0;
  }
}

namespace {

/// Appends value.to_string() to `out` without building a temporary.
void append(std::string& out, const Value& value) {
  switch (value.type()) {
    case Value::Type::kUndefined:
      out += "undefined";
      return;
    case Value::Type::kNull:
      out += "null";
      return;
    case Value::Type::kBool:
      out += value.truthy() ? "true" : "false";
      return;
    case Value::Type::kNumber:
      out += number_to_string(value.as_number());
      return;
    case Value::Type::kString:
      out += value.as_string();
      return;
    case Value::Type::kArray:
      value.append_array_to(out);
      return;
    case Value::Type::kFunction:
      out += "[function]";
      return;
    case Value::Type::kObject:
      out += "[object Object]";
      return;
    case Value::Type::kHost:
      out += "[object]";
      return;
  }
}

}  // namespace

void Value::append_array_to(std::string& out) const {
  // Depth-first over an explicit path, so nesting costs heap, not stack.
  // Every array on the path is flagged `rendering`; meeting one again is a
  // cycle, which renders as "".  The guard clears the flags on every exit.
  struct Frame {
    ArrayCell* cell;
    std::size_t next;
  };
  struct Path {
    std::vector<Frame> frames;
    ~Path() {
      for (const Frame& frame : frames) frame.cell->rendering = false;
    }
  } path;
  const auto enter = [&path](detail::Cell* cell) {
    auto* array = static_cast<ArrayCell*>(cell);
    array->rendering = true;
    path.frames.push_back({array, 0});
  };
  enter(payload_.cell);
  while (!path.frames.empty()) {
    // Checked after every append: each is followed by one more pass at
    // least, the pop of its frame.
    if (out.size() > kMaxStringLength) throw JsError("string too long");
    Frame& frame = path.frames.back();
    if (frame.next == frame.cell->items.size()) {
      frame.cell->rendering = false;
      path.frames.pop_back();
      continue;
    }
    const Value& item = frame.cell->items[frame.next];
    if (frame.next++ > 0) out += ",";
    if (item.type_ != Type::kArray) {
      append(out, item);
    } else if (!static_cast<ArrayCell*>(item.payload_.cell)->rendering) {
      if (path.frames.size() == kMaxStringifyDepth) {
        throw JsError("value nesting too deep");
      }
      enter(item.payload_.cell);
    }
  }
}

std::string Value::to_string() const {
  if (type_ == Type::kString) return as_string();
  std::string out;
  append(out, *this);
  return out;
}

// ---------------------------------------------------------------------------
// Resolve pass
// ---------------------------------------------------------------------------

namespace {

struct NameEntry {
  std::string_view text;
  Name name;
};

constexpr NameEntry kNames[] = {
    {"document", Name::kDocument}, {"Math", Name::kMath},
    {"window", Name::kWindow},     {"loadImage", Name::kLoadImage},
    {"loadScript", Name::kLoadScript}, {"loadCss", Name::kLoadCss},
    {"fetchData", Name::kFetchData}, {"indexOf", Name::kIndexOf},
    {"substring", Name::kSubstring}, {"charAt", Name::kCharAt},
    {"split", Name::kSplit},       {"str", Name::kStr},
    {"len", Name::kLen},           {"push", Name::kPush},
    {"write", Name::kWrite},       {"writeln", Name::kWriteln},
    {"floor", Name::kFloor},       {"ceil", Name::kCeil},
    {"abs", Name::kAbs},           {"sqrt", Name::kSqrt},
    {"max", Name::kMax},           {"min", Name::kMin},
    {"random", Name::kRandom},     {"length", Name::kLength},
    {"PI", Name::kPi},
};

Name classify(std::string_view text) {
  for (const auto& entry : kNames) {
    if (entry.text == text) return entry.name;
  }
  return Name::kOther;
}

bool is_builtin(Name name) {
  return name >= Name::kLoadImage && name <= Name::kPush;
}

struct OpEntry {
  std::string_view text;
  Op op;
};

constexpr OpEntry kBinaryOps[] = {
    {"+", Op::kAdd},  {"-", Op::kSub}, {"*", Op::kMul},  {"/", Op::kDiv},
    {"%", Op::kMod},  {"==", Op::kEq}, {"!=", Op::kNe},  {"<", Op::kLt},
    {">", Op::kGt},   {"<=", Op::kLe}, {">=", Op::kGe},  {"&&", Op::kAnd},
    {"||", Op::kOr},
};
constexpr OpEntry kUnaryOps[] = {
    {"!", Op::kNot}, {"-", Op::kNeg}, {"typeof", Op::kTypeof}};
constexpr OpEntry kAssignOps[] = {
    {"=", Op::kSet},     {"+=", Op::kAddSet}, {"-=", Op::kSubSet},
    {"*=", Op::kMulSet}, {"/=", Op::kDivSet}};

template <std::size_t N>
Op decode(const OpEntry (&table)[N], std::string_view text) {
  for (const auto& entry : table) {
    if (entry.text == text) return entry.op;
  }
  return Op::kNone;
}

}  // namespace

/// Annotates a freshly parsed program in place (see Expr/Stmt's resolved
/// fields).  Recursion follows the AST, whose depth parse() bounds.
class Interpreter::Resolver {
 public:
  explicit Resolver(Interpreter& interpreter) : interpreter_(interpreter) {}

  void statement(Stmt& stmt) {
    if (stmt.kind == Stmt::Kind::kVarDecl || stmt.kind == Stmt::Kind::kFunction) {
      stmt.symbol = interpreter_.intern(stmt.text);
    }
    for (const auto& param : stmt.params) {
      stmt.param_symbols.push_back(interpreter_.intern(param));
    }
    for (auto& expr : stmt.exprs) expression(*expr);
    for (auto& child : stmt.stmts) statement(*child);
  }

  void expression(Expr& expr) {
    switch (expr.kind) {
      case Expr::Kind::kNumber:
        expr.op = Op::kLiteral;
        expr.constant = Value::number(expr.number);
        break;
      case Expr::Kind::kString:
        expr.op = Op::kLiteral;
        expr.constant = Value::string(expr.text);
        break;
      case Expr::Kind::kBool:
        expr.op = Op::kLiteral;
        expr.constant = Value::boolean(expr.boolean);
        break;
      case Expr::Kind::kNull:
        expr.op = Op::kLiteral;
        expr.constant = expr.text == "undefined" ? Value::undefined() : Value::null();
        break;
      case Expr::Kind::kIdentifier:
        expr.symbol = interpreter_.intern(expr.text);
        expr.name = classify(expr.text);
        // The host-object names always read as their host object, whatever
        // a script assigns to them, so they evaluate like literals.
        if (expr.name == Name::kDocument) {
          expr.op = Op::kLiteral;
          expr.constant = Value::host(HostObject::kDocument);
        } else if (expr.name == Name::kMath) {
          expr.op = Op::kLiteral;
          expr.constant = Value::host(HostObject::kMath);
        } else if (expr.name == Name::kWindow) {
          expr.op = Op::kLiteral;
          expr.constant = Value::host(HostObject::kWindow);
        } else {
          expr.op = Op::kVariable;
        }
        break;
      case Expr::Kind::kArray:
        expr.op = Op::kArray;
        break;
      case Expr::Kind::kObject: {
        expr.op = Op::kObject;
        // Split exactly as keys were always read: one key per operand, cut
        // at '\n' (a key that itself holds '\n' splits the same way).
        std::size_t begin = 0;
        for (std::size_t i = 0; i < expr.operands.size(); ++i) {
          const std::size_t end = expr.text.find('\n', begin);
          expr.keys.push_back(expr.text.substr(
              begin, end == std::string::npos ? std::string::npos : end - begin));
          begin = end == std::string::npos ? expr.text.size() : end + 1;
        }
        break;
      }
      case Expr::Kind::kUnary:
        expr.op = decode(kUnaryOps, expr.text);
        break;
      case Expr::Kind::kBinary:
        expr.op = decode(kBinaryOps, expr.text);
        break;
      case Expr::Kind::kAssign:
        expr.op = decode(kAssignOps, expr.text);
        break;
      case Expr::Kind::kMember:
        expr.op = Op::kMember;
        expr.name = classify(expr.text);
        break;
      case Expr::Kind::kCall:
        expr.op = Op::kCall;
        break;
      case Expr::Kind::kIndex:
        expr.op = Op::kIndex;
        break;
    }
    for (auto& operand : expr.operands) expression(*operand);
  }

 private:
  Interpreter& interpreter_;
};

// ---------------------------------------------------------------------------
// Evaluator
// ---------------------------------------------------------------------------

namespace {

constexpr int kOpCount = static_cast<int>(Op::kIndex) + 1;

/// How a statement finished: `return`, `break` and `continue` travel up the
/// C++ stack as this code instead of as exceptions.
enum class Flow : std::uint8_t { kNormal, kBreak, kContinue, kReturn };

/// The arguments of one call: a window onto the evaluator's argument stack.
struct Args {
  const Value* data;
  std::size_t size;
  const Value& operator[](std::size_t i) const { return data[i]; }
};

std::string type_name(const Value& value) {
  switch (value.type()) {
    case Value::Type::kUndefined: return "undefined";
    case Value::Type::kBool: return "boolean";
    case Value::Type::kNumber: return "number";
    case Value::Type::kString: return "string";
    case Value::Type::kFunction: return "function";
    default: return "object";  // null, arrays, objects, host objects
  }
}

}  // namespace

/// Executes one script against an Interpreter's global state.  Every
/// execute() and evaluate() call is one op, in the same places and order the
/// engine has always counted them (see DESIGN.md, "JS engine").
class Interpreter::Evaluator {
 public:
  Evaluator(std::vector<Global>& globals, JsHost& host, std::uint64_t budget)
      : globals_(globals), host_(host), budget_(budget) {}

  std::uint64_t ops() const { return ops_; }

  void run(const Program& program) {
    global_slots_ = globals_.data();  // sized by the resolve pass
    for (const auto& stmt : program.statements) {
      switch (execute(*stmt)) {
        case Flow::kNormal: break;
        case Flow::kReturn: fail("return outside function");
        case Flow::kBreak: fail("break outside loop");
        case Flow::kContinue: fail("continue outside loop");
      }
    }
  }

 private:
  struct Binding {
    std::uint32_t symbol;
    Value value;
  };

  [[noreturn, gnu::cold, gnu::noinline]] static void fail(const std::string& what) {
    throw JsError(what);
  }

  void tick() {
    if (++ops_ > budget_) [[unlikely]] fail("op budget exceeded");
  }

  // --- scope handling -----------------------------------------------------
  //
  // Scope is dynamic: a lookup walks every active call frame, innermost
  // first, then the globals.  `locals_` holds all frames' bindings back to
  // back; a frame holds at most one binding per symbol.

  Value* find_local(std::uint32_t symbol) {
    for (auto it = locals_.rbegin(); it != locals_.rend(); ++it) {
      if (it->symbol == symbol) return &it->value;
    }
    return nullptr;
  }

  const Value& lookup(std::uint32_t symbol) {
    if (!locals_.empty()) [[unlikely]] {
      if (const Value* local = find_local(symbol)) return *local;
    }
    return global_slots_[symbol].value;  // undefined unless defined
  }

  void set_global(std::uint32_t symbol, Value value) {
    Global& global = global_slots_[symbol];
    global.value = std::move(value);
    global.defined = true;
  }

  void declare(std::uint32_t symbol, Value value) {
    if (frames_.empty()) {
      set_global(symbol, std::move(value));
      return;
    }
    bind(symbol, std::move(value));
  }

  /// Binds in the innermost frame, replacing an earlier binding there.
  void bind(std::uint32_t symbol, Value value) {
    for (std::size_t i = frames_.back(); i < locals_.size(); ++i) {
      if (locals_[i].symbol == symbol) {
        locals_[i].value = std::move(value);
        return;
      }
    }
    locals_.push_back({symbol, std::move(value)});
  }

  void assign(std::uint32_t symbol, Value value) {
    if (!locals_.empty()) [[unlikely]] {
      if (Value* local = find_local(symbol)) {
        *local = std::move(value);
        return;
      }
    }
    set_global(symbol, std::move(value));  // implicit global, like JS
  }

  // --- statements ----------------------------------------------------------

  Flow execute(const Stmt& stmt) {
    tick();
    switch (stmt.kind) {
      case Stmt::Kind::kExpr:
        expression_statement(*stmt.exprs[0]);
        return Flow::kNormal;
      case Stmt::Kind::kVarDecl:
        declare(stmt.symbol,
                stmt.exprs.empty() ? Value() : evaluate(*stmt.exprs[0]));
        return Flow::kNormal;
      case Stmt::Kind::kBlock:
        return block(stmt);
      case Stmt::Kind::kIf:
        if (condition(*stmt.exprs[0])) return execute(*stmt.stmts[0]);
        if (stmt.stmts.size() > 1) return execute(*stmt.stmts[1]);
        return Flow::kNormal;
      case Stmt::Kind::kWhile:
        return while_loop(stmt);
      case Stmt::Kind::kFor:
        return for_loop(stmt);
      case Stmt::Kind::kFunction:
        declare(stmt.symbol, Value::function(&stmt));
        return Flow::kNormal;
      case Stmt::Kind::kReturn:
        return_value_ = stmt.exprs.empty() ? Value() : evaluate(*stmt.exprs[0]);
        return Flow::kReturn;
      case Stmt::Kind::kBreak:
        return Flow::kBreak;
      case Stmt::Kind::kContinue:
        return Flow::kContinue;
    }
    fail("unreachable statement kind");
  }

  /// The statements of a block (its own op is already counted).  Expression
  /// statements, the bulk of them, run here without a call to execute().
  Flow block(const Stmt& stmt) {
    for (const auto& child : stmt.stmts) {
      if (child->kind == Stmt::Kind::kExpr) {
        tick();
        expression_statement(*child->exprs[0]);
        continue;
      }
      if (const Flow flow = execute(*child); flow != Flow::kNormal) return flow;
    }
    return Flow::kNormal;
  }

  /// Evaluates an expression statement's expression.  `x = e` stores the
  /// value without building the unused result (same ops: the assignment's
  /// own, then e's).
  [[gnu::always_inline]] void expression_statement(const Expr& expr) {
    if (expr.op == Op::kSet && expr.operands[0]->kind == Expr::Kind::kIdentifier) {
      tick();
      assign(expr.operands[0]->symbol, evaluate(*expr.operands[1]));
      return;
    }
    evaluate(expr);
  }

  /// A loop or `if` condition.  A comparison runs in place, without a
  /// handler call (same ops: the comparison's own, then its operands').
  [[gnu::always_inline]] bool condition(const Expr& expr) {
    const Op op = expr.op;
    if (op < Op::kEq || op > Op::kGe) return evaluate(expr).truthy();
    tick();
    const Value lhs = evaluate(*expr.operands[0]);
    const Value rhs = evaluate(*expr.operands[1]);
    if (lhs.is_number() && rhs.is_number()) [[likely]] {
      return arithmetic(op, lhs.as_number(), rhs.as_number()).truthy();
    }
    return mixed(op, lhs, rhs).truthy();
  }

  /// A loop body.  A block runs in place, counting the one op execute()
  /// would.
  Flow body(const Stmt& stmt) {
    if (stmt.kind != Stmt::Kind::kBlock) return execute(stmt);
    tick();
    return block(stmt);
  }

  [[gnu::noinline]] Flow while_loop(const Stmt& stmt) {
    while (condition(*stmt.exprs[0])) {
      const Flow flow = body(*stmt.stmts[0]);
      if (flow == Flow::kBreak) break;
      if (flow == Flow::kReturn) return flow;
    }
    return Flow::kNormal;
  }

  [[gnu::noinline]] Flow for_loop(const Stmt& stmt) {
    if (const Flow flow = execute(*stmt.stmts[0]); flow != Flow::kNormal) {
      return flow;  // init
    }
    while (condition(*stmt.exprs[0])) {
      const Flow flow = body(*stmt.stmts[1]);
      if (flow == Flow::kBreak) break;
      if (flow == Flow::kReturn) return flow;
      if (stmt.exprs.size() > 1) expression_statement(*stmt.exprs[1]);  // step
    }
    return Flow::kNormal;
  }

  // --- expressions ----------------------------------------------------------

  /// One op.  Literals and variables, most of all operands, are read right
  /// here, inlined into the caller; other nodes go to their op's handler.
  [[gnu::always_inline]] Value evaluate(const Expr& expr) {
    tick();
    if (expr.op == Op::kVariable) return lookup(expr.symbol);
    if (expr.op == Op::kLiteral) return expr.constant;
    return (this->*kHandlers[static_cast<int>(expr.op)])(expr);
  }

  using Handler = Value (Evaluator::*)(const Expr&);
  /// Handlers of the non-leaf ops, indexed by Op.
  static const Handler kHandlers[kOpCount];

  [[noreturn, gnu::cold]] Value unresolved(const Expr& expr) {
    fail("unknown operator '" + expr.text + "'");
  }

  [[gnu::noinline]] Value array(const Expr& expr) {
    Array items;
    for (const auto& element : expr.operands) {
      items.push_back(evaluate(*element));
    }
    return Value::array(std::move(items));
  }

  [[gnu::noinline]] Value object(const Expr& expr) {
    Value object = Value::object();
    for (std::size_t i = 0; i < expr.operands.size(); ++i) {
      Value value = evaluate(*expr.operands[i]);
      object.as_object()[expr.keys[i]] = std::move(value);
    }
    return object;
  }

  [[gnu::noinline]] Value unary(const Expr& expr) {
    const Value operand = evaluate(*expr.operands[0]);
    if (expr.op == Op::kNot) return Value::boolean(!operand.truthy());
    if (expr.op == Op::kTypeof) return Value::string(type_name(operand));
    return Value::number(-operand.to_number());  // kNeg
  }

  [[gnu::noinline]] Value index(const Expr& expr) {
    const Value object = evaluate(*expr.operands[0]);
    if (object.type() == Value::Type::kObject) {
      const Object& fields = object.as_object();
      const auto it = fields.find(evaluate(*expr.operands[1]).to_string());
      return it == fields.end() ? Value() : it->second;
    }
    const std::size_t index =
        index_or_npos(evaluate(*expr.operands[1]).to_number());
    if (object.type() == Value::Type::kArray) {
      const Array& items = object.as_array();
      return index < items.size() ? items[index] : Value();
    }
    if (object.type() == Value::Type::kString) {
      const std::string& text = object.as_string();
      return index < text.size() ? Value::string(std::string(1, text[index]))
                                 : Value();
    }
    fail("cannot index non-array value");
  }

  static Value concat(const Value& lhs, const Value& rhs) {
    std::string out;
    append(out, lhs);
    append(out, rhs);
    if (out.size() > kMaxStringLength) throw JsError("string too long");
    return Value::string(std::move(out));
  }

  static bool loosely_equal(const Value& lhs, const Value& rhs) {
    if (lhs.is_number() && rhs.is_number()) return lhs.as_number() == rhs.as_number();
    if (lhs.is_string() && rhs.is_string()) return lhs.as_string() == rhs.as_string();
    return lhs.to_string() == rhs.to_string();
  }

  /// A binary operator; two numbers take the fast path.
  template <Op kOp>
  [[gnu::noinline]] Value binary(const Expr& expr) {
    const Value lhs = evaluate(*expr.operands[0]);
    const Value rhs = evaluate(*expr.operands[1]);
    if (lhs.is_number() && rhs.is_number()) [[likely]] {
      return arithmetic(kOp, lhs.as_number(), rhs.as_number());
    }
    return mixed(kOp, lhs, rhs);
  }

  /// && and ||: the right side runs only when it decides the result.
  [[gnu::noinline]] Value logical(const Expr& expr) {
    Value lhs = evaluate(*expr.operands[0]);
    if (lhs.truthy() == (expr.op == Op::kAnd)) return evaluate(*expr.operands[1]);
    return lhs;
  }

  /// Binary operators where an operand is not a number.
  [[gnu::noinline]] static Value mixed(Op op, const Value& lhs, const Value& rhs) {
    if (op == Op::kAdd && (lhs.is_string() || rhs.is_string())) {
      return concat(lhs, rhs);
    }
    if (op == Op::kEq) return Value::boolean(loosely_equal(lhs, rhs));
    if (op == Op::kNe) return Value::boolean(!loosely_equal(lhs, rhs));
    return arithmetic(op, lhs.to_number(), rhs.to_number());
  }

  /// Binary operators on numbers (two numbers compare as numbers under ==
  /// and != too).
  static Value arithmetic(Op op, double a, double b) {
    switch (op) {
      case Op::kAdd: return Value::number(a + b);
      case Op::kSub: return Value::number(a - b);
      case Op::kMul: return Value::number(a * b);
      case Op::kDiv: return Value::number(a / b);
      case Op::kMod: return Value::number(modulo(a, b));
      case Op::kEq: return Value::boolean(a == b);
      case Op::kNe: return Value::boolean(a != b);
      case Op::kLt: return Value::boolean(a < b);
      case Op::kGt: return Value::boolean(a > b);
      case Op::kLe: return Value::boolean(a <= b);
      default: return Value::boolean(a >= b);  // kGe
    }
  }


  /// `=`.  The right side is evaluated before the target.
  [[gnu::noinline]] Value assignment(const Expr& expr) {
    const Expr& target = *expr.operands[0];
    Value value = evaluate(*expr.operands[1]);
    if (target.kind == Expr::Kind::kIdentifier) [[likely]] {
      assign(target.symbol, value);
      return value;
    }
    return update(expr, std::move(value));
  }

  /// `+=`, `-=`, `*=` and `/=`.
  [[gnu::noinline]] Value compound_assignment(const Expr& expr) {
    return update(expr, evaluate(*expr.operands[1]));
  }

  /// Assigns `value` (the evaluated right side) to the target of `expr`.
  /// A compound assignment evaluates its target twice: once here for the
  /// current value, once more to store.
  Value update(const Expr& expr, Value value) {
    const Expr& target = *expr.operands[0];
    if (expr.op != Op::kSet) {
      // Compound assignment: the target is evaluated here and again below.
      const Value current = evaluate(target);
      if (expr.op == Op::kAddSet) {
        value = current.is_string() || value.is_string()
                    ? concat(current, value)
                    : Value::number(current.to_number() + value.to_number());
      } else if (expr.op == Op::kSubSet) {
        value = Value::number(current.to_number() - value.to_number());
      } else if (expr.op == Op::kMulSet) {
        value = Value::number(current.to_number() * value.to_number());
      } else {
        value = Value::number(current.to_number() / value.to_number());
      }
    }
    if (target.kind == Expr::Kind::kIdentifier) {
      assign(target.symbol, value);
      return value;
    }
    const Value object = evaluate(*target.operands[0]);
    if (target.kind == Expr::Kind::kMember) {
      // obj.key = v.
      if (object.type() == Value::Type::kObject) {
        object.as_object()[target.text] = value;
        return value;
      }
      fail("cannot set property on non-object value");
    }
    // Index assignment: arr[i] = v or obj['key'] = v.
    if (object.type() == Value::Type::kObject) {
      object.as_object()[evaluate(*target.operands[1]).to_string()] = value;
      return value;
    }
    const std::size_t index =
        index_or_npos(evaluate(*target.operands[1]).to_number());
    if (object.type() == Value::Type::kArray) {
      Array& items = object.as_array();
      if (index >= items.size()) {
        if (index >= kMaxArrayLength) fail("array index out of range");
        items.resize(index + 1);
      }
      items[index] = value;
      return value;
    }
    fail("cannot index-assign non-array value");
  }

  [[gnu::noinline]] Value member(const Expr& expr) {
    const Value object = evaluate(*expr.operands[0]);
    switch (object.type()) {
      case Value::Type::kObject: {
        const Object& fields = object.as_object();
        const auto it = fields.find(expr.text);
        return it == fields.end() ? Value() : it->second;
      }
      case Value::Type::kString:
        if (expr.name == Name::kLength) {
          return Value::number(static_cast<double>(object.as_string().size()));
        }
        break;
      case Value::Type::kArray:
        if (expr.name == Name::kLength) {
          return Value::number(static_cast<double>(object.as_array().size()));
        }
        break;
      case Value::Type::kHost:
        // Other host members only make sense as call targets.
        if (object.as_host() == HostObject::kMath && expr.name == Name::kPi) {
          return Value::number(3.141592653589793);
        }
        break;
      default:
        break;
    }
    return Value();
  }

  [[gnu::noinline]] Value call(const Expr& expr) {
    const Expr& callee = *expr.operands[0];
    const std::size_t base = args_.size();
    for (std::size_t i = 1; i < expr.operands.size(); ++i) {
      args_.push_back(evaluate(*expr.operands[i]));
    }
    Value result = dispatch(callee, base);
    args_.erase(args_.begin() + static_cast<std::ptrdiff_t>(base), args_.end());
    return result;
  }

  /// Calls `callee` with the arguments stacked from `base`.  The arguments
  /// window is taken only after the callee is evaluated, which may itself
  /// call functions and grow the stack.
  Value dispatch(const Expr& callee, std::size_t base) {
    const auto args = [&] {
      return Args{args_.data() + base, args_.size() - base};
    };
    // Host-object method calls: document.write, Math.floor, ...
    if (callee.kind == Expr::Kind::kMember) {
      const Value object = evaluate(*callee.operands[0]);
      if (object.type() == Value::Type::kHost) {
        return host_call(object.as_host(), callee, args());
      }
    }
    // Global builtins (they shadow script functions) and script functions.
    if (callee.kind == Expr::Kind::kIdentifier && is_builtin(callee.name)) {
      return builtin(callee.name, args());
    }
    const Value target = evaluate(callee);
    if (target.type() == Value::Type::kFunction) {
      return invoke(*target.as_function(), args());
    }
    fail("call of non-function value");
  }

  Value invoke(const Stmt& fn, Args args) {
    if (frames_.size() > 64) fail("call stack overflow");
    frames_.push_back(locals_.size());
    for (std::size_t i = 0; i < fn.param_symbols.size(); ++i) {
      bind(fn.param_symbols[i], i < args.size ? args[i] : Value());
    }
    const Flow flow = execute(*fn.stmts[0]);
    if (flow == Flow::kBreak) fail("break outside loop");
    if (flow == Flow::kContinue) fail("continue outside loop");
    locals_.erase(locals_.begin() + static_cast<std::ptrdiff_t>(frames_.back()),
                  locals_.end());
    frames_.pop_back();
    if (flow == Flow::kReturn) return std::move(return_value_);
    return Value();
  }

  static const std::string& string_arg(Args args, std::size_t i,
                                       std::string& scratch) {
    if (i < args.size && args[i].is_string()) return args[i].as_string();
    scratch = i < args.size ? args[i].to_string() : std::string();
    return scratch;
  }

  Value host_call(HostObject host, const Expr& callee, Args args) {
    const auto arg_number = [&](std::size_t i) {
      return i < args.size ? args[i].to_number() : 0.0;
    };
    const Name method = callee.name;
    switch (host) {
      case HostObject::kDocument:
        if (method == Name::kWrite || method == Name::kWriteln) {
          std::string scratch;
          host_.document_write(string_arg(args, 0, scratch));
          return Value();
        }
        break;
      case HostObject::kMath:
        switch (method) {
          case Name::kFloor: return Value::number(std::floor(arg_number(0)));
          case Name::kCeil: return Value::number(std::ceil(arg_number(0)));
          case Name::kAbs: return Value::number(std::abs(arg_number(0)));
          case Name::kSqrt: return Value::number(std::sqrt(arg_number(0)));
          case Name::kMax:
            return Value::number(std::max(arg_number(0), arg_number(1)));
          case Name::kMin:
            return Value::number(std::min(arg_number(0), arg_number(1)));
          case Name::kRandom: return Value::number(host_.random());
          default: break;
        }
        break;
      case HostObject::kWindow:
        // window.loadImage(...) etc. route to the same global builtins.
        if (is_builtin(method)) return builtin(method, args);
        break;
    }
    fail("unknown host method '" + callee.text + "'");
  }

  Value builtin(Name name, Args args) {
    std::string scratch;
    const auto arg_string = [&](std::size_t i) -> const std::string& {
      return string_arg(args, i, scratch);
    };
    switch (name) {
      case Name::kLoadImage:
        host_.request_resource(arg_string(0), net::ResourceKind::kImage);
        return Value();
      case Name::kLoadScript:
        host_.request_resource(arg_string(0), net::ResourceKind::kJs);
        return Value();
      case Name::kLoadCss:
        host_.request_resource(arg_string(0), net::ResourceKind::kCss);
        return Value();
      case Name::kFetchData:
        host_.request_resource(arg_string(0), net::ResourceKind::kOther);
        return Value();
      case Name::kIndexOf: {
        const std::string haystack = arg_string(0);
        const auto pos = haystack.find(arg_string(1));
        return Value::number(pos == std::string::npos ? -1.0
                                                      : static_cast<double>(pos));
      }
      case Name::kSubstring: {
        const std::string text = arg_string(0);
        const std::size_t from = clamp_to_size(
            std::max(0.0, args.size > 1 ? args[1].to_number() : 0.0),
            text.size());
        const std::size_t until = clamp_to_size(
            std::min(static_cast<double>(text.size()),
                     args.size > 2 ? args[2].to_number()
                                   : static_cast<double>(text.size())),
            text.size());
        return Value::string(from >= until ? std::string()
                                           : text.substr(from, until - from));
      }
      case Name::kCharAt: {
        const std::string& text = arg_string(0);
        const std::size_t index =
            index_or_npos(args.size > 1 ? args[1].to_number() : 0.0);
        return Value::string(index < text.size() ? std::string(1, text[index])
                                                 : std::string());
      }
      case Name::kSplit: {
        const std::string text = arg_string(0);
        const std::string separator = arg_string(1);
        Array parts;
        if (separator.empty()) {
          for (char c : text) parts.push_back(Value::string(std::string(1, c)));
        } else {
          std::size_t start = 0;
          for (;;) {
            const std::size_t pos = text.find(separator, start);
            parts.push_back(Value::string(text.substr(
                start, pos == std::string::npos ? std::string::npos : pos - start)));
            if (pos == std::string::npos) break;
            start = pos + separator.size();
          }
        }
        return Value::array(std::move(parts));
      }
      case Name::kStr:
        if (args.size > 0 && args[0].is_string()) return args[0];
        return Value::string(arg_string(0));
      case Name::kLen:
        if (args.size > 0 && args[0].type() == Value::Type::kArray) {
          return Value::number(static_cast<double>(args[0].as_array().size()));
        }
        return Value::number(static_cast<double>(arg_string(0).size()));
      case Name::kPush:
        if (args.size >= 2 && args[0].type() == Value::Type::kArray) {
          Array& items = args[0].as_array();
          items.push_back(args[1]);
          return Value::number(static_cast<double>(items.size()));
        }
        fail("push() expects (array, value)");
      default:
        break;
    }
    fail("unreachable builtin");
  }

  std::vector<Global>& globals_;
  Global* global_slots_ = nullptr;  ///< globals_.data(); fixed during a run
  JsHost& host_;
  std::uint64_t budget_;
  std::uint64_t ops_ = 0;
  std::vector<Binding> locals_;      ///< every frame's bindings, innermost last
  std::vector<std::size_t> frames_;  ///< start of each frame in locals_
  std::vector<Value> args_;          ///< argument stack of calls in flight
  Value return_value_;               ///< carried by Flow::kReturn
};

const Interpreter::Evaluator::Handler
    Interpreter::Evaluator::kHandlers[kOpCount] = {
        &Evaluator::unresolved,               // kNone
        &Evaluator::unresolved,               // kLiteral (read in place)
        &Evaluator::unresolved,               // kVariable (read in place)
        &Evaluator::binary<Op::kAdd>,         // kAdd
        &Evaluator::binary<Op::kSub>,         // kSub
        &Evaluator::binary<Op::kMul>,         // kMul
        &Evaluator::binary<Op::kDiv>,         // kDiv
        &Evaluator::binary<Op::kMod>,         // kMod
        &Evaluator::binary<Op::kEq>,          // kEq
        &Evaluator::binary<Op::kNe>,          // kNe
        &Evaluator::binary<Op::kLt>,          // kLt
        &Evaluator::binary<Op::kGt>,          // kGt
        &Evaluator::binary<Op::kLe>,          // kLe
        &Evaluator::binary<Op::kGe>,          // kGe
        &Evaluator::logical,                  // kAnd
        &Evaluator::logical,                  // kOr
        &Evaluator::unary,                    // kNot
        &Evaluator::unary,                    // kNeg
        &Evaluator::unary,                    // kTypeof
        &Evaluator::assignment,               // kSet
        &Evaluator::compound_assignment,      // kAddSet
        &Evaluator::compound_assignment,      // kSubSet
        &Evaluator::compound_assignment,      // kMulSet
        &Evaluator::compound_assignment,      // kDivSet
        &Evaluator::array,                    // kArray
        &Evaluator::object,                   // kObject
        &Evaluator::call,                     // kCall
        &Evaluator::member,                   // kMember
        &Evaluator::index,                    // kIndex
};

// ---------------------------------------------------------------------------
// Interpreter
// ---------------------------------------------------------------------------

Interpreter::Interpreter(JsHost& host, std::uint64_t op_budget)
    : host_(host), op_budget_(op_budget) {}

Interpreter::~Interpreter() = default;

std::uint32_t Interpreter::intern(const std::string& name) {
  const auto [it, inserted] =
      symbols_.try_emplace(name, static_cast<std::uint32_t>(names_.size()));
  if (inserted) names_.push_back(name);
  return it->second;
}

RunResult Interpreter::run(std::string_view source) {
  RunResult result;
  Evaluator evaluator(globals_, host_, op_budget_);
  try {
    auto program = std::make_shared<Program>(parse(source));
    retained_programs_.push_back(program);  // keep function ASTs alive
    Resolver resolver(*this);
    for (const auto& stmt : program->statements) resolver.statement(*stmt);
    globals_.resize(names_.size());
    evaluator.run(*program);
    result.completed = true;
  } catch (const JsError& error) {
    result.error = error.what();
  } catch (const std::exception& error) {
    result.error = error.what();
  }
  result.ops = evaluator.ops();
  total_ops_ += result.ops;
  return result;
}

Value Interpreter::global(const std::string& name) const {
  const auto it = symbols_.find(name);
  if (it == symbols_.end() || it->second >= globals_.size()) return Value();
  return globals_[it->second].value;
}

std::vector<std::string> Interpreter::global_names() const {
  std::vector<std::string> names;
  for (std::size_t i = 0; i < globals_.size(); ++i) {
    if (globals_[i].defined) names.push_back(names_[i]);
  }
  std::sort(names.begin(), names.end());
  return names;
}

}  // namespace eab::web::js
