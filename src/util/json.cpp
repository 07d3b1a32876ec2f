#include "util/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>

namespace emorphic {

const Json& Json::at(const std::string& key) const {
  if (!is_object()) throw JsonParseError("Json::at on non-object");
  auto it = object_->find(key);
  if (it == object_->end()) throw JsonParseError("missing key: " + key);
  return it->second;
}

bool Json::contains(const std::string& key) const {
  return is_object() && object_->count(key) > 0;
}

Json& Json::operator[](const std::string& key) {
  if (!is_object()) {
    type_ = Type::kObject;
    object_ = std::make_shared<JsonObject>();
  }
  return (*object_)[key];
}

void Json::push_back(Json value) {
  if (!is_array()) {
    type_ = Type::kArray;
    array_ = std::make_shared<JsonArray>();
  }
  array_->push_back(std::move(value));
}

namespace {

void escape_string(const std::string& in, std::string& out) {
  out += '"';
  for (char c : in) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        out += c;
    }
  }
  out += '"';
}

void append_number(double d, std::string& out) {
  if (d == std::floor(d) && std::abs(d) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(d));
    out += buf;
  } else {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", d);
    out += buf;
  }
}

void newline_indent(std::string& out, int indent, int depth) {
  if (indent < 0) return;
  out += '\n';
  out.append(static_cast<std::size_t>(indent) * depth, ' ');
}

}  // namespace

void Json::dump_impl(std::string& out, int indent, int depth) const {
  switch (type_) {
    case Type::kNull:
      out += "null";
      break;
    case Type::kBool:
      out += bool_ ? "true" : "false";
      break;
    case Type::kNumber:
      append_number(number_, out);
      break;
    case Type::kString:
      escape_string(string_, out);
      break;
    case Type::kArray: {
      out += '[';
      bool first = true;
      for (const auto& v : *array_) {
        if (!first) out += ',';
        first = false;
        newline_indent(out, indent, depth + 1);
        v.dump_impl(out, indent, depth + 1);
      }
      if (!array_->empty()) newline_indent(out, indent, depth);
      out += ']';
      break;
    }
    case Type::kObject: {
      out += '{';
      bool first = true;
      for (const auto& [key, value] : *object_) {
        if (!first) out += ',';
        first = false;
        newline_indent(out, indent, depth + 1);
        escape_string(key, out);
        out += indent < 0 ? ":" : ": ";
        value.dump_impl(out, indent, depth + 1);
      }
      if (!object_->empty()) newline_indent(out, indent, depth);
      out += '}';
      break;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_impl(out, indent, 0);
  return out;
}

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Json parse() {
    Json value = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& why) {
    throw JsonParseError("JSON parse error at offset " + std::to_string(pos_) +
                         ": " + why);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  char get() {
    char c = peek();
    ++pos_;
    return c;
  }

  void expect(char c) {
    if (get() != c) fail(std::string("expected '") + c + "'");
  }

  Json parse_value() {
    skip_ws();
    char c = peek();
    switch (c) {
      case '{':
        return parse_object();
      case '[':
        return parse_array();
      case '"':
        return Json(parse_string());
      case 't':
        expect_word("true");
        return Json(true);
      case 'f':
        expect_word("false");
        return Json(false);
      case 'n':
        expect_word("null");
        return Json();
      default:
        return parse_number();
    }
  }

  void expect_word(const char* word) {
    for (const char* p = word; *p; ++p) {
      if (pos_ >= text_.size() || text_[pos_] != *p) fail("bad literal");
      ++pos_;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      char c = get();
      if (c == '"') return out;
      if (c == '\\') {
        char esc = get();
        switch (esc) {
          case 'n':
            out += '\n';
            break;
          case 't':
            out += '\t';
            break;
          case 'r':
            out += '\r';
            break;
          case '"':
          case '\\':
          case '/':
            out += esc;
            break;
          default:
            fail("unsupported escape");
        }
      } else {
        out += c;
      }
    }
  }

  Json parse_number() {
    std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected number");
    return Json(std::stod(text_.substr(start, pos_ - start)));
  }

  Json parse_array() {
    expect('[');
    JsonArray items;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Json(std::move(items));
    }
    for (;;) {
      items.push_back(parse_value());
      skip_ws();
      char c = get();
      if (c == ']') return Json(std::move(items));
      if (c != ',') fail("expected ',' or ']'");
    }
  }

  Json parse_object() {
    expect('{');
    JsonObject obj;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Json(std::move(obj));
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj[key] = parse_value();
      skip_ws();
      char c = get();
      if (c == '}') return Json(std::move(obj));
      if (c != ',') fail("expected ',' or '}'");
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

Json Json::parse(const std::string& text) { return Parser(text).parse(); }

namespace {

[[noreturn]] void bad_field(const std::string& key, const std::string& want) {
  throw std::invalid_argument("field '" + key + "' must be " + want);
}

}  // namespace

double json_number(const Json& value, const std::string& key) {
  if (!value.is_number()) bad_field(key, "a number");
  return value.as_number();
}

bool json_bool(const Json& value, const std::string& key) {
  if (value.type() != Json::Type::kBool) bad_field(key, "a boolean");
  return value.as_bool();
}

const std::string& json_string(const Json& value, const std::string& key) {
  if (!value.is_string()) bad_field(key, "a string");
  return value.as_string();
}

std::uint64_t json_integer(const Json& value, const std::string& key,
                           std::uint64_t min, std::uint64_t max) {
  double n = json_number(value, key);
  if (!(n >= static_cast<double>(min) && n <= static_cast<double>(max)) ||
      n != std::floor(n)) {
    bad_field(key, "an integer in [" + std::to_string(min) + ", " +
                       std::to_string(max) + "]");
  }
  return static_cast<std::uint64_t>(n);
}

}  // namespace emorphic
