#include "aig/aig_io.hpp"

#include <array>
#include <cctype>
#include <charconv>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <utility>

namespace emorphic {

// ---------------------------------------------------------------------------
// Equation format
// ---------------------------------------------------------------------------

std::string write_equations(const Aig& aig) {
  std::ostringstream out;
  out << "INORDER =";
  for (std::uint32_t i = 0; i < aig.num_pis(); ++i) {
    out << ' ' << aig.pi_name(i);
  }
  out << ";\n";
  out << "OUTORDER =";
  for (std::uint32_t i = 0; i < aig.num_pos(); ++i) {
    out << ' ' << aig.po_name(i);
  }
  out << ";\n";

  auto lit_name = [&](Lit l) -> std::string {
    std::string base;
    Var v = lit_var(l);
    if (aig.is_const0(v)) {
      return lit_is_compl(l) ? "1" : "0";
    }
    if (aig.is_pi(v)) {
      base = aig.pi_name(aig.pi_index(v));
    } else {
      base = "n" + std::to_string(v);
    }
    return lit_is_compl(l) ? "!" + base : base;
  };

  for (Var v = 1; v < aig.num_nodes(); ++v) {
    if (!aig.is_and(v)) continue;
    out << 'n' << v << " = " << lit_name(aig.fanin0(v)) << " & "
        << lit_name(aig.fanin1(v)) << ";\n";
  }
  for (std::uint32_t i = 0; i < aig.num_pos(); ++i) {
    out << aig.po_name(i) << " = " << lit_name(aig.po(i)) << ";\n";
  }
  return out.str();
}

namespace {

// Recursive-descent parser for the expression grammar:
//   expr   := term ( ('|' | '^') term )*
//   term   := factor ( '&' factor )*
//   factor := '!' factor | '(' expr ')' | name | '0' | '1'
class EquationParser {
 public:
  EquationParser(const std::string& text, Aig& aig) : text_(text), aig_(aig) {}

  void run() {
    while (skip_ws(), pos_ < text_.size()) {
      parse_statement();
    }
    // Resolve POs now that every name is defined.
    for (const auto& [name, index] : po_order_) {
      auto it = defs_.find(name);
      if (it == defs_.end()) {
        throw std::runtime_error("equation format: undefined output " + name);
      }
      aig_.set_po(index, it->second);
    }
  }

 private:
  void parse_statement() {
    std::string name = parse_name();
    skip_ws();
    expect('=');
    if (name == "INORDER") {
      while (skip_ws(), peek() != ';') {
        std::string pi = parse_name();
        Var v = aig_.add_pi(pi);
        defs_[pi] = make_lit(v);
      }
      expect(';');
    } else if (name == "OUTORDER") {
      while (skip_ws(), peek() != ';') {
        std::string po = parse_name();
        po_order_.emplace_back(po, aig_.add_po(kLitFalse, po));
      }
      expect(';');
    } else {
      Lit value = parse_expr();
      skip_ws();
      expect(';');
      defs_[name] = value;
    }
  }

  Lit parse_expr() {
    Lit acc = parse_term();
    for (;;) {
      skip_ws();
      if (pos_ < text_.size() && text_[pos_] == '|') {
        ++pos_;
        acc = aig_.make_or(acc, parse_term());
      } else if (pos_ < text_.size() && text_[pos_] == '^') {
        ++pos_;
        acc = aig_.make_xor(acc, parse_term());
      } else {
        return acc;
      }
    }
  }

  Lit parse_term() {
    Lit acc = parse_factor();
    for (;;) {
      skip_ws();
      if (pos_ < text_.size() && text_[pos_] == '&') {
        ++pos_;
        acc = aig_.make_and(acc, parse_factor());
      } else {
        return acc;
      }
    }
  }

  Lit parse_factor() {
    skip_ws();
    char c = peek();
    if (c == '!') {
      ++pos_;
      return lit_not(parse_factor());
    }
    if (c == '(') {
      ++pos_;
      Lit inner = parse_expr();
      skip_ws();
      expect(')');
      return inner;
    }
    std::string name = parse_name();
    if (name == "0") return kLitFalse;
    if (name == "1") return kLitTrue;
    auto it = defs_.find(name);
    if (it == defs_.end()) {
      throw std::runtime_error("equation format: undefined signal " + name);
    }
    return it->second;
  }

  static bool is_name_char(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '[' || c == ']' || c == '.';
  }

  std::string parse_name() {
    skip_ws();
    std::size_t start = pos_;
    while (pos_ < text_.size() && is_name_char(text_[pos_])) ++pos_;
    if (pos_ == start) {
      throw std::runtime_error("equation format: expected name at offset " +
                               std::to_string(pos_));
    }
    return text_.substr(start, pos_ - start);
  }

  void skip_ws() {
    for (;;) {
      while (pos_ < text_.size() &&
             std::isspace(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
      // '#' comments to end of line
      if (pos_ < text_.size() && text_[pos_] == '#') {
        while (pos_ < text_.size() && text_[pos_] != '\n') ++pos_;
        continue;
      }
      return;
    }
  }

  char peek() const {
    if (pos_ >= text_.size()) {
      throw std::runtime_error("equation format: unexpected end of input");
    }
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) {
      throw std::runtime_error(std::string("equation format: expected '") + c +
                               "' at offset " + std::to_string(pos_));
    }
    ++pos_;
  }

  const std::string& text_;
  Aig& aig_;
  std::size_t pos_ = 0;
  std::unordered_map<std::string, Lit> defs_;
  std::vector<std::pair<std::string, std::uint32_t>> po_order_;
};

}  // namespace

Aig read_equations(const std::string& text) {
  Aig aig;
  EquationParser(text, aig).run();
  return aig;
}

// ---------------------------------------------------------------------------
// AIGER helpers shared by both formats
// ---------------------------------------------------------------------------

namespace {

// AIGER's delta encoding is LEB128: 7 payload bits per byte, high bit set
// on every byte but the last.
void put_delta(std::string& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

// Strict decimal parse of a whole token: nonempty, digits only, no overflow.
std::uint64_t parse_u64(const std::string& token, const char* what,
                        const char* format = "aiger binary") {
  std::uint64_t value = 0;
  const char* begin = token.data();
  const char* end = begin + token.size();
  auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc{} || ptr != end || token.empty()) {
    throw std::runtime_error(std::string(format) + ": malformed " + what +
                             " '" + token + "'");
  }
  return value;
}

// A parsed, validated AIGER body before any node is built. In both formats
// the symbol table follows the structure, and PIs must carry their names
// from construction, so each reader stages the structure and build_aiger
// builds it once the names are known.
struct StagedAiger {
  std::uint64_t max_var = 0;            // M: AIGER variables are 1..M
  std::vector<std::uint64_t> inputs;    // input literals, in PI order
  std::vector<std::uint64_t> outputs;   // output literals, in PO order
  // (lhs, rhs0, rhs1) per AND in definition order; every fanin is defined
  // by an input or an earlier AND.
  std::vector<std::array<std::uint64_t, 3>> ands;
};

// Reads the symbol table and the optional comment section of `text` from
// byte `pos`, then builds `staged`. PIs and POs without a symbol keep the
// default pi<i>/po<i> names. Blank lines are skipped; a "c" line ends the
// table. `format` prefixes error messages.
Aig build_aiger(const StagedAiger& staged, const std::string& text,
                std::size_t pos, const char* format) {
  const std::size_t num_inputs = staged.inputs.size();
  const std::size_t num_outputs = staged.outputs.size();
  std::vector<std::string> pi_names(num_inputs);
  std::vector<std::string> po_names(num_outputs);
  while (pos < text.size()) {
    std::size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) {
      throw std::runtime_error(std::string(format) +
                               ": truncated (no newline) in symbol section");
    }
    std::string line = text.substr(pos, nl - pos);
    pos = nl + 1;
    if (line.empty()) continue;
    if (line == "c") break;  // comment section: ignore the rest
    std::size_t space = line.find(' ');
    if ((line[0] != 'i' && line[0] != 'o') || space == std::string::npos) {
      throw std::runtime_error(std::string(format) +
                               ": malformed symbol line '" + line + "'");
    }
    std::uint64_t index =
        parse_u64(line.substr(1, space - 1), "symbol index", format);
    const bool input = line[0] == 'i';
    if (index >= (input ? num_inputs : num_outputs)) {
      throw std::runtime_error(std::string(format) +
                               (input ? ": input" : ": output") +
                               " symbol index " + std::to_string(index) +
                               " out of range");
    }
    (input ? pi_names : po_names)[static_cast<std::size_t>(index)] =
        line.substr(space + 1);
  }

  Aig aig;
  std::vector<Lit> var_lit(static_cast<std::size_t>(staged.max_var) + 1,
                           kLitFalse);
  auto to_lit = [&](std::uint64_t aiger_lit) -> Lit {
    return lit_notcond(var_lit[static_cast<std::size_t>(aiger_lit >> 1)],
                       (aiger_lit & 1) != 0);
  };
  for (std::size_t k = 0; k < num_inputs; ++k) {
    var_lit[static_cast<std::size_t>(staged.inputs[k] >> 1)] =
        make_lit(aig.add_pi(std::move(pi_names[k])));
  }
  for (const auto& [lhs, rhs0, rhs1] : staged.ands) {
    var_lit[static_cast<std::size_t>(lhs >> 1)] =
        aig.make_and(to_lit(rhs0), to_lit(rhs1));
  }
  for (std::size_t k = 0; k < num_outputs; ++k) {
    aig.add_po(to_lit(staged.outputs[k]), std::move(po_names[k]));
  }
  return aig;
}

}  // namespace

// ---------------------------------------------------------------------------
// ASCII AIGER
// ---------------------------------------------------------------------------

std::string write_aiger(const Aig& aig) {
  // AIGER requires PIs first, then ANDs; our variable numbering already
  // guarantees topological order, but PIs may interleave with ANDs, so remap.
  std::vector<std::uint32_t> var_to_aiger(aig.num_nodes(), 0);
  std::uint32_t next = 1;
  for (Var v : aig.pis()) var_to_aiger[v] = next++;
  for (Var v = 1; v < aig.num_nodes(); ++v) {
    if (aig.is_and(v)) var_to_aiger[v] = next++;
  }
  auto to_aiger_lit = [&](Lit l) {
    return 2 * var_to_aiger[lit_var(l)] + (lit_is_compl(l) ? 1u : 0u);
  };

  std::ostringstream out;
  std::uint32_t m = aig.num_pis() + aig.num_ands();
  out << "aag " << m << ' ' << aig.num_pis() << " 0 " << aig.num_pos() << ' '
      << aig.num_ands() << "\n";
  for (Var v : aig.pis()) out << 2 * var_to_aiger[v] << "\n";
  for (Lit po : aig.pos()) out << to_aiger_lit(po) << "\n";
  for (Var v = 1; v < aig.num_nodes(); ++v) {
    if (!aig.is_and(v)) continue;
    out << 2 * var_to_aiger[v] << ' ' << to_aiger_lit(aig.fanin0(v)) << ' '
        << to_aiger_lit(aig.fanin1(v)) << "\n";
  }
  for (std::uint32_t i = 0; i < aig.num_pis(); ++i) {
    out << 'i' << i << ' ' << aig.pi_name(i) << "\n";
  }
  for (std::uint32_t i = 0; i < aig.num_pos(); ++i) {
    out << 'o' << i << ' ' << aig.po_name(i) << "\n";
  }
  return out.str();
}

Aig read_aiger(const std::string& text) {
  // Server-hardened parser: every malformed input — truncated header,
  // non-numeric tokens, out-of-range or odd literals, oversized declared
  // counts, literals used before definition — throws std::runtime_error.
  // One bad client request must never assert, allocate absurdly, or index
  // out of bounds.
  std::istringstream in(text);
  std::string magic;
  if (!(in >> magic)) throw std::runtime_error("aiger: empty input");
  if (magic != "aag") throw std::runtime_error("aiger: expected 'aag' header");
  std::uint64_t m = 0, i = 0, l = 0, o = 0, a = 0;
  if (!(in >> m >> i >> l >> o >> a)) {
    throw std::runtime_error("aiger: truncated or non-numeric header");
  }
  if (l != 0) throw std::runtime_error("aiger: latches not supported");
  if (i + a > m) {
    throw std::runtime_error(
        "aiger: header counts exceed declared maximum index");
  }
  // Every declared variable needs at least two characters of body text
  // ("0\n"), so declared counts beyond the input size are lies — reject
  // them before sizing any allocation off attacker-controlled numbers.
  if (m > text.size() || o > text.size()) {
    throw std::runtime_error("aiger: declared counts exceed input size");
  }

  StagedAiger staged;
  staged.max_var = m;
  const std::uint64_t max_lit = 2 * m + 1;
  std::vector<bool> defined(2 * (m + 1), false);
  defined[0] = defined[1] = true;

  auto read_lit = [&](const char* section) -> std::uint64_t {
    std::uint64_t lit = 0;
    if (!(in >> lit)) {
      throw std::runtime_error(std::string("aiger: truncated or non-numeric ") +
                               section + " section");
    }
    if (lit > max_lit) {
      throw std::runtime_error("aiger: literal " + std::to_string(lit) +
                               " out of range (max " +
                               std::to_string(max_lit) + ")");
    }
    return lit;
  };

  staged.inputs.resize(i);
  for (std::uint64_t& lit : staged.inputs) {
    lit = read_lit("input");
    if (lit < 2 || (lit & 1) != 0) {
      throw std::runtime_error("aiger: invalid input literal " +
                               std::to_string(lit));
    }
    if (defined[lit]) {
      throw std::runtime_error("aiger: literal " + std::to_string(lit) +
                               " defined twice");
    }
    defined[lit] = defined[lit ^ 1] = true;
  }

  staged.outputs.resize(o);
  for (std::uint64_t& lit : staged.outputs) lit = read_lit("output");

  staged.ands.resize(a);
  for (auto& [out_lit, in0, in1] : staged.ands) {
    out_lit = read_lit("and");
    in0 = read_lit("and");
    in1 = read_lit("and");
    if (out_lit < 2 || (out_lit & 1) != 0) {
      throw std::runtime_error("aiger: invalid AND output literal " +
                               std::to_string(out_lit));
    }
    if (defined[out_lit]) {
      throw std::runtime_error("aiger: literal " + std::to_string(out_lit) +
                               " defined twice");
    }
    if (!defined[in0] || !defined[in1]) {
      throw std::runtime_error(
          "aiger: AND fanin used before definition (literal " +
          std::to_string(!defined[in0] ? in0 : in1) + ")");
    }
    defined[out_lit] = defined[out_lit ^ 1] = true;
  }
  for (std::uint64_t lit : staged.outputs) {
    if (!defined[lit]) {
      throw std::runtime_error("aiger: undefined output literal " +
                               std::to_string(lit));
    }
  }

  // The symbol table starts on the line after the last literal.
  std::size_t pos = text.size();
  const std::streamoff last = in.tellg();
  if (last >= 0) {
    std::size_t nl = text.find('\n', static_cast<std::size_t>(last));
    if (nl != std::string::npos) pos = nl + 1;
  }
  return build_aiger(staged, text, pos, "aiger");
}

// ---------------------------------------------------------------------------
// Binary AIGER
// ---------------------------------------------------------------------------

std::string write_aiger_binary(const Aig& aig) {
  // Same PIs-first remap as write_aiger; in the binary format the remap is
  // mandatory, since variable numbering must be contiguous (inputs 1..I,
  // ANDs I+1..I+A in definition order).
  std::vector<std::uint32_t> var_to_aiger(aig.num_nodes(), 0);
  std::uint32_t next = 1;
  for (Var v : aig.pis()) var_to_aiger[v] = next++;
  for (Var v = 1; v < aig.num_nodes(); ++v) {
    if (aig.is_and(v)) var_to_aiger[v] = next++;
  }
  auto to_aiger_lit = [&](Lit l) -> std::uint64_t {
    return 2ull * var_to_aiger[lit_var(l)] + (lit_is_compl(l) ? 1u : 0u);
  };

  std::uint64_t m = aig.num_pis() + aig.num_ands();
  std::string out = "aig " + std::to_string(m) + ' ' +
                    std::to_string(aig.num_pis()) + " 0 " +
                    std::to_string(aig.num_pos()) + ' ' +
                    std::to_string(aig.num_ands()) + '\n';
  for (Lit po : aig.pos()) {
    out += std::to_string(to_aiger_lit(po));
    out += '\n';
  }
  for (Var v = 1; v < aig.num_nodes(); ++v) {
    if (!aig.is_and(v)) continue;
    std::uint64_t lhs = 2ull * var_to_aiger[v];
    std::uint64_t rhs0 = to_aiger_lit(aig.fanin0(v));
    std::uint64_t rhs1 = to_aiger_lit(aig.fanin1(v));
    if (rhs0 < rhs1) std::swap(rhs0, rhs1);
    // Fanins remap below their AND (PIs <= I, earlier ANDs earlier), so
    // lhs > rhs0 >= rhs1 as the format requires.
    put_delta(out, lhs - rhs0);
    put_delta(out, rhs0 - rhs1);
  }
  for (std::uint32_t k = 0; k < aig.num_pis(); ++k) {
    out += 'i' + std::to_string(k) + ' ' + aig.pi_name(k) + '\n';
  }
  for (std::uint32_t k = 0; k < aig.num_pos(); ++k) {
    out += 'o' + std::to_string(k) + ' ' + aig.po_name(k) + '\n';
  }
  return out;
}

Aig read_aiger_binary(const std::string& bytes) {
  // Hardened to the same standard as read_aiger: truncation, fabricated
  // counts, malformed varints, and out-of-range deltas all throw
  // std::runtime_error before any allocation is sized off them.
  std::size_t pos = 0;
  auto read_line = [&](const char* section) -> std::string {
    std::size_t nl = bytes.find('\n', pos);
    if (nl == std::string::npos) {
      throw std::runtime_error(
          std::string("aiger binary: truncated (no newline) in ") + section);
    }
    std::string line = bytes.substr(pos, nl - pos);
    pos = nl + 1;
    return line;
  };

  // Header: exactly "aig M I L O A".
  {
    std::istringstream hdr(read_line("header"));
    std::string tok;
    std::vector<std::string> tokens;
    while (hdr >> tok) tokens.push_back(tok);
    if (tokens.size() != 6 || tokens[0] != "aig") {
      throw std::runtime_error("aiger binary: expected 'aig M I L O A' header");
    }
    std::uint64_t m = parse_u64(tokens[1], "header count");
    std::uint64_t i = parse_u64(tokens[2], "header count");
    std::uint64_t l = parse_u64(tokens[3], "header count");
    std::uint64_t o = parse_u64(tokens[4], "header count");
    std::uint64_t a = parse_u64(tokens[5], "header count");
    if (l != 0) throw std::runtime_error("aiger binary: latches not supported");
    if (m != i + a) {
      throw std::runtime_error(
          "aiger binary: variable numbering must be contiguous (M == I + A)");
    }
    // Our writer emits a symbol line per PI and every AND takes two delta
    // bytes, so declared counts beyond the input size are fabricated —
    // reject them before sizing any allocation off them.
    if (m > bytes.size() || o > bytes.size()) {
      throw std::runtime_error("aiger binary: declared counts exceed input size");
    }
    if (m >= (1ull << 31)) {
      throw std::runtime_error("aiger binary: variable count out of range");
    }

    StagedAiger staged;
    staged.max_var = m;
    const std::uint64_t max_lit = 2 * m + 1;
    staged.inputs.resize(static_cast<std::size_t>(i));
    for (std::uint64_t k = 0; k < i; ++k) {
      staged.inputs[static_cast<std::size_t>(k)] = 2 * (k + 1);
    }
    staged.outputs.resize(static_cast<std::size_t>(o));
    for (std::uint64_t& lit : staged.outputs) {
      lit = parse_u64(read_line("output section"), "output literal");
      if (lit > max_lit) {
        throw std::runtime_error("aiger binary: output literal " +
                                 std::to_string(lit) + " out of range (max " +
                                 std::to_string(max_lit) + ")");
      }
    }

    auto read_delta = [&](const char* what) -> std::uint64_t {
      std::uint64_t value = 0;
      unsigned shift = 0;
      for (;;) {
        if (pos >= bytes.size()) {
          throw std::runtime_error(std::string("aiger binary: truncated ") +
                                   what);
        }
        std::uint8_t byte = static_cast<std::uint8_t>(bytes[pos++]);
        if (shift == 63 && (byte & 0x7e) != 0) {
          throw std::runtime_error(std::string("aiger binary: ") + what +
                                   " overflows");
        }
        value |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
        if ((byte & 0x80) == 0) return value;
        shift += 7;
        if (shift > 63) {
          throw std::runtime_error(std::string("aiger binary: ") + what +
                                   " overflows");
        }
      }
    };

    // Variables 1..I are the implicit inputs, I+1..I+A the ANDs in
    // definition order. Checking the deltas against lhs keeps every fanin
    // below its AND, so it is defined when the AND is built.
    staged.ands.resize(static_cast<std::size_t>(a));
    for (std::uint64_t k = 0; k < a; ++k) {
      std::uint64_t lhs = 2 * (i + 1 + k);
      std::uint64_t delta0 = read_delta("AND delta");
      std::uint64_t delta1 = read_delta("AND delta");
      if (delta0 == 0 || delta0 > lhs || delta1 > lhs - delta0) {
        throw std::runtime_error("aiger binary: AND " + std::to_string(lhs) +
                                 " has out-of-range deltas");
      }
      std::uint64_t rhs0 = lhs - delta0;
      staged.ands[static_cast<std::size_t>(k)] = {lhs, rhs0, rhs0 - delta1};
    }
    return build_aiger(staged, bytes, pos, "aiger binary");
  }
}

}  // namespace emorphic
