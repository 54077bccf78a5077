#include "net/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace mfti::net {

const Json* Json::find(std::string_view key) const {
  if (type_ != Type::Object) return nullptr;
  const auto it = members_.find(std::string(key));
  return it == members_.end() ? nullptr : &it->second;
}

void json_escape(std::string_view s, std::string* out) {
  out->push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\b':
        out->append("\\b");
        break;
      case '\f':
        out->append("\\f");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\r':
        out->append("\\r");
        break;
      case '\t':
        out->append("\\t");
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out->append(buf);
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void Json::dump_to(std::string* out) const {
  switch (type_) {
    case Type::Null:
      out->append("null");
      break;
    case Type::Bool:
      out->append(bool_ ? "true" : "false");
      break;
    case Type::Number: {
      if (!std::isfinite(number_)) {
        out->append("null");
        break;
      }
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.17g", number_);
      out->append(buf);
      break;
    }
    case Type::String:
      json_escape(string_, out);
      break;
    case Type::Array: {
      out->push_back('[');
      for (std::size_t i = 0; i < array_.size(); ++i) {
        if (i != 0) out->push_back(',');
        array_[i].dump_to(out);
      }
      out->push_back(']');
      break;
    }
    case Type::Object: {
      out->push_back('{');
      bool first = true;
      for (const auto& [key, value] : members_) {
        if (!first) out->push_back(',');
        first = false;
        json_escape(key, out);
        out->push_back(':');
        value.dump_to(out);
      }
      out->push_back('}');
      break;
    }
  }
}

std::string Json::dump() const {
  std::string out;
  dump_to(&out);
  return out;
}

namespace {

/// Recursive-descent parser with explicit limits; errors carry the byte
/// offset where parsing stopped.
class Parser {
 public:
  Parser(std::string_view text, JsonParseLimits limits)
      : text_(text), limits_(limits) {}

  api::Expected<Json> run() {
    Json value;
    api::Status status = parse_value(&value, 0);
    if (!status.is_ok()) return status;
    skip_ws();
    if (pos_ != text_.size()) return error("trailing characters");
    return value;
  }

 private:
  api::Status error(const std::string& what) const {
    return api::Status::invalid_argument("json: " + what + " at byte " +
                                         std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool consume_word(const char* word) {
    const std::size_t n = std::strlen(word);
    if (text_.substr(pos_, n) != word) return false;
    pos_ += n;
    return true;
  }

  api::Status parse_value(Json* out, std::size_t depth) {
    if (depth > limits_.max_depth) return error("nesting too deep");
    if (++elements_ > limits_.max_elements) return error("too many values");
    skip_ws();
    if (pos_ >= text_.size()) return error("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') return parse_object(out, depth);
    if (c == '[') return parse_array(out, depth);
    if (c == '"') return parse_string_value(out);
    if (c == 't') {
      if (!consume_word("true")) return error("bad literal");
      *out = Json(true);
      return api::Status::ok();
    }
    if (c == 'f') {
      if (!consume_word("false")) return error("bad literal");
      *out = Json(false);
      return api::Status::ok();
    }
    if (c == 'n') {
      if (!consume_word("null")) return error("bad literal");
      *out = Json();
      return api::Status::ok();
    }
    return parse_number(out);
  }

  api::Status parse_object(Json* out, std::size_t depth) {
    consume('{');
    *out = Json::object();
    skip_ws();
    if (consume('}')) return api::Status::ok();
    while (true) {
      skip_ws();
      std::string key;
      api::Status status = parse_string(&key);
      if (!status.is_ok()) return status;
      skip_ws();
      if (!consume(':')) return error("expected ':'");
      Json value;
      status = parse_value(&value, depth + 1);
      if (!status.is_ok()) return status;
      out->set(std::move(key), std::move(value));
      skip_ws();
      if (consume(',')) continue;
      if (consume('}')) return api::Status::ok();
      return error("expected ',' or '}'");
    }
  }

  api::Status parse_array(Json* out, std::size_t depth) {
    consume('[');
    *out = Json::array();
    skip_ws();
    if (consume(']')) return api::Status::ok();
    while (true) {
      Json value;
      api::Status status = parse_value(&value, depth + 1);
      if (!status.is_ok()) return status;
      out->push_back(std::move(value));
      skip_ws();
      if (consume(',')) continue;
      if (consume(']')) return api::Status::ok();
      return error("expected ',' or ']'");
    }
  }

  api::Status parse_string_value(Json* out) {
    std::string s;
    const api::Status status = parse_string(&s);
    if (!status.is_ok()) return status;
    *out = Json(std::move(s));
    return api::Status::ok();
  }

  int hex_digit(char c) const {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  }

  api::Status parse_string(std::string* out) {
    if (!consume('"')) return error("expected string");
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return api::Status::ok();
      if (static_cast<unsigned char>(c) < 0x20) {
        --pos_;
        return error("unescaped control character in string");
      }
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return error("truncated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
          out->push_back('"');
          break;
        case '\\':
          out->push_back('\\');
          break;
        case '/':
          out->push_back('/');
          break;
        case 'b':
          out->push_back('\b');
          break;
        case 'f':
          out->push_back('\f');
          break;
        case 'n':
          out->push_back('\n');
          break;
        case 'r':
          out->push_back('\r');
          break;
        case 't':
          out->push_back('\t');
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return error("truncated \\u escape");
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            const int d = hex_digit(text_[pos_ + i]);
            if (d < 0) return error("bad \\u escape");
            cp = cp * 16 + static_cast<unsigned>(d);
          }
          pos_ += 4;
          // Encode the code point as UTF-8 (surrogate pairs folded).
          if (cp >= 0xD800 && cp <= 0xDBFF && pos_ + 6 <= text_.size() &&
              text_[pos_] == '\\' && text_[pos_ + 1] == 'u') {
            unsigned low = 0;
            bool ok = true;
            for (int i = 0; i < 4; ++i) {
              const int d = hex_digit(text_[pos_ + 2 + i]);
              if (d < 0) ok = false;
              low = low * 16 + static_cast<unsigned>(d < 0 ? 0 : d);
            }
            if (ok && low >= 0xDC00 && low <= 0xDFFF) {
              cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
              pos_ += 6;
            }
          }
          if (cp < 0x80) {
            out->push_back(static_cast<char>(cp));
          } else if (cp < 0x800) {
            out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
            out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          } else if (cp < 0x10000) {
            out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
            out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          } else {
            out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
            out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          }
          break;
        }
        default:
          return error("bad escape");
      }
    }
    return error("unterminated string");
  }

  std::size_t skip_digits() {
    const std::size_t first = pos_;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    return pos_ - first;
  }

  /// An RFC 8259 number, `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`,
  /// whose value is finite: `+1`, `.5`, `1.`, `01` and `1e999` are errors.
  /// Values that underflow to zero or a subnormal are accepted.
  api::Status parse_number(Json* out) {
    const std::size_t start = pos_;
    consume('-');
    const std::size_t int_start = pos_;
    const std::size_t int_digits = skip_digits();
    if (pos_ == start) return error("expected value");
    // A leading zero stands alone.
    bool ok = int_digits == 1 || (int_digits > 1 && text_[int_start] != '0');
    if (ok && consume('.')) ok = skip_digits() > 0;
    if (ok && (consume('e') || consume('E'))) {
      if (!consume('+')) consume('-');
      ok = skip_digits() > 0;
    }
    if (!ok) {
      pos_ = start;
      return error("bad number");
    }
    const std::string token(text_.substr(start, pos_ - start));
    const double value = std::strtod(token.c_str(), nullptr);
    if (!std::isfinite(value)) {
      pos_ = start;
      return error("number out of range");
    }
    *out = Json(value);
    return api::Status::ok();
  }

  std::string_view text_;
  JsonParseLimits limits_;
  std::size_t pos_ = 0;
  std::size_t elements_ = 0;
};

}  // namespace

api::Expected<Json> parse_json(std::string_view text, JsonParseLimits limits) {
  return Parser(text, limits).run();
}

}  // namespace mfti::net
