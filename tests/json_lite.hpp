// Minimal strict JSON parser for test assertions (trace/metrics round-trip
// validation). Parses a document into a Value tree; throws std::runtime_error
// with position info on any syntax violation (a raw control byte inside a
// string included), so EXPECT_NO_THROW(parse(...)) doubles as a
// well-formedness check for emitted files. \uXXXX escapes decode to UTF-8,
// so an exported string can be compared with the one written.
#pragma once

#include <cmath>
#include <cstddef>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace h4d::testing::json {

struct Value {
  enum class Type { Null, Bool, Number, String, Array, Object };
  Type type = Type::Null;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Value> array;
  std::map<std::string, Value> object;

  bool is(Type t) const { return type == t; }

  const Value& at(const std::string& key) const {
    if (type != Type::Object) throw std::runtime_error("json: not an object");
    const auto it = object.find(key);
    if (it == object.end()) throw std::runtime_error("json: missing key " + key);
    return it->second;
  }
  bool has(const std::string& key) const {
    return type == Type::Object && object.count(key) != 0;
  }
  double num() const {
    if (type != Type::Number) throw std::runtime_error("json: not a number");
    return number;
  }
  const std::string& str() const {
    if (type != Type::String) throw std::runtime_error("json: not a string");
    return string;
  }
};

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Value parse() {
    Value v = value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw std::runtime_error("json: " + why + " at offset " + std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                                   text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const std::string& lit) {
    if (text_.compare(pos_, lit.size(), lit) != 0) return false;
    pos_ += lit.size();
    return true;
  }

  Value value() {
    skip_ws();
    const char c = peek();
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') {
      Value v;
      v.type = Value::Type::String;
      v.string = string();
      return v;
    }
    if (consume_literal("true")) {
      Value v;
      v.type = Value::Type::Bool;
      v.boolean = true;
      return v;
    }
    if (consume_literal("false")) {
      Value v;
      v.type = Value::Type::Bool;
      return v;
    }
    if (consume_literal("null")) return Value{};
    return number();
  }

  Value object() {
    expect('{');
    Value v;
    v.type = Value::Type::Object;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      std::string key = string();
      skip_ws();
      expect(':');
      v.object.emplace(std::move(key), value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  Value array() {
    expect('[');
    Value v;
    v.type = Value::Type::Array;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array.push_back(value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("unterminated escape");
        const char e = text_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) fail("bad \\u escape");
            unsigned cp = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text_[pos_++];
              cp <<= 4;
              if (h >= '0' && h <= '9') {
                cp |= static_cast<unsigned>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                cp |= static_cast<unsigned>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                cp |= static_cast<unsigned>(h - 'A' + 10);
              } else {
                fail("bad \\u escape");
              }
            }
            // Exports escape only control bytes; every other byte is raw.
            if (cp >= 0x80) fail("unsupported \\u escape");
            out += static_cast<char>(cp);
            break;
          }
          default: fail("bad escape");
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        fail("unescaped control character in string");
      } else {
        out += c;
      }
    }
  }

  Value number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    Value v;
    v.type = Value::Type::Number;
    try {
      v.number = std::stod(text_.substr(start, pos_ - start));
    } catch (const std::exception&) {
      fail("bad number");
    }
    if (!std::isfinite(v.number)) fail("non-finite number");
    return v;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

inline Value parse(const std::string& text) { return Parser(text).parse(); }

}  // namespace h4d::testing::json
