#include "sparse/matrix_market.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>
#include <string_view>

namespace bars {

namespace {

std::string to_lower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return out;
}

/// The whole stream in one buffer: one pass of block reads instead of a
/// string stream per line.
std::string slurp(std::istream& in) {
  std::string buf;
  char chunk[1 << 16];
  while (in.read(chunk, sizeof chunk), in.gcount() > 0) {
    buf.append(chunk, static_cast<std::size_t>(in.gcount()));
  }
  return buf;
}

/// Line cursor over the buffer with std::getline's rules: a line ends
/// at '\n' (not included), a last line without one still counts, and
/// there is no line after a final '\n'.
class Lines {
 public:
  explicit Lines(std::string_view buf) : rest_(buf) {}

  bool next(std::string_view& line) {
    if (rest_.empty()) return false;
    const std::size_t nl = rest_.find('\n');
    line = rest_.substr(0, nl);
    rest_.remove_prefix(nl == std::string_view::npos ? rest_.size() : nl + 1);
    return true;
  }

 private:
  std::string_view rest_;
};

// Token readers follow the rules of formatted extraction (operator>>),
// so a file reads the same as through an istream: skip leading
// whitespace, then read the longest valid prefix and leave the rest for
// the next token.

bool is_space(char c) {
  return std::isspace(static_cast<unsigned char>(c)) != 0;
}

std::string_view word(const char*& p, const char* end) {
  while (p != end && is_space(*p)) ++p;
  const char* begin = p;
  while (p != end && !is_space(*p)) ++p;
  return {begin, static_cast<std::size_t>(p - begin)};
}

/// Skips whitespace and an optional single sign; returns where from_chars
/// starts (it takes '-' but not '+'), or null when no digit (or, for
/// values, '.') follows. Rejects the inf/nan spellings from_chars would
/// take but formatted extraction does not.
const char* number_start(const char*& p, const char* end, bool fraction) {
  while (p != end && is_space(*p)) ++p;
  const char* from = p != end && *p == '+' ? p + 1 : p;
  const char* digits = p != end && (*p == '+' || *p == '-') ? p + 1 : p;
  if (digits == end) return nullptr;
  const bool digit = std::isdigit(static_cast<unsigned char>(*digits)) != 0;
  return digit || (fraction && *digits == '.') ? from : nullptr;
}

bool read_index(const char*& p, const char* end, index_t& out) {
  const char* from = number_start(p, end, false);
  if (from == nullptr) return false;
  const auto [ptr, ec] = std::from_chars(from, end, out);
  if (ec != std::errc()) return false;
  p = ptr;
  return true;
}

bool read_value(const char*& p, const char* end, value_t& out) {
  const char* from = number_start(p, end, true);
  if (from == nullptr) return false;
  const auto [ptr, ec] = std::from_chars(from, end, out);
  if (ec == std::errc::result_out_of_range) {
    // Formatted extraction rejects overflow but takes underflow as
    // strtod rounds it; do the same.
    const std::string token(from, ptr);
    const value_t v = std::strtod(token.c_str(), nullptr);
    if (std::isinf(v)) return false;
    out = v;
  } else if (ec != std::errc() ||
             (ptr != end && (*ptr == 'e' || *ptr == 'E') &&
              std::string_view(from, static_cast<std::size_t>(ptr - from))
                      .find_first_of("eE") == std::string_view::npos)) {
    // An 'e' left after a mantissa is an exponent from_chars could not
    // read, which formatted extraction takes and then fails on ("1e").
    return false;
  }
  p = ptr;
  return true;
}

}  // namespace

Csr read_matrix_market(std::istream& in) {
  const std::string buf = slurp(in);
  Lines lines(buf);
  std::string_view line;
  if (!lines.next(line)) {
    throw std::runtime_error("MatrixMarket: empty stream");
  }
  const char* p = line.data();
  const char* end = p + line.size();
  const std::string_view banner = word(p, end);
  const std::string object = to_lower(word(p, end));
  const std::string format = to_lower(word(p, end));
  const std::string field = to_lower(word(p, end));
  const std::string symmetry = to_lower(word(p, end));
  if (banner != "%%MatrixMarket") {
    throw std::runtime_error("MatrixMarket: missing banner");
  }
  if (object != "matrix" || format != "coordinate") {
    throw std::runtime_error("MatrixMarket: only coordinate matrices supported");
  }
  const bool pattern = field == "pattern";
  if (field != "real" && field != "integer" && !pattern) {
    throw std::runtime_error("MatrixMarket: unsupported field type: " + field);
  }
  const bool symmetric = symmetry == "symmetric";
  if (!symmetric && symmetry != "general") {
    throw std::runtime_error("MatrixMarket: unsupported symmetry: " + symmetry);
  }

  // Skip comments and blank lines.
  bool have_size = false;
  while (!have_size && lines.next(line)) {
    have_size = !line.empty() && line[0] != '%';
  }
  index_t rows = 0, cols = 0, nnz = 0;
  p = line.data();
  end = p + line.size();
  if (!have_size || !read_index(p, end, rows) || !read_index(p, end, cols) ||
      !read_index(p, end, nnz) || rows < 0 || cols < 0 || nnz < 0) {
    throw std::runtime_error("MatrixMarket: malformed size line");
  }

  Coo coo(rows, cols);
  // An entry line takes at least four bytes, so a size line cannot
  // reserve more than the input holds.
  coo.reserve(std::min(static_cast<std::size_t>(nnz), buf.size() / 4) *
              (symmetric ? 2 : 1));
  for (index_t k = 0; k < nnz;) {
    if (!lines.next(line)) {
      throw std::runtime_error("MatrixMarket: unexpected end of entries");
    }
    if (line.empty()) continue;
    p = line.data();
    end = p + line.size();
    index_t i = 0, j = 0;
    value_t v = 1.0;
    if (!read_index(p, end, i) || !read_index(p, end, j)) {
      throw std::runtime_error("MatrixMarket: malformed entry line");
    }
    if (!pattern && !read_value(p, end, v)) {
      throw std::runtime_error("MatrixMarket: missing value");
    }
    --i;  // 1-based -> 0-based
    --j;
    if (symmetric) {
      coo.add_symmetric(i, j, v);
    } else {
      coo.add(i, j, v);
    }
    ++k;
  }
  return Csr::from_coo(coo);
}

Csr read_matrix_market_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  return read_matrix_market(in);
}

void write_matrix_market(std::ostream& out, const Csr& a) {
  out << "%%MatrixMarket matrix coordinate real general\n";
  out << a.rows() << ' ' << a.cols() << ' ' << a.nnz() << '\n';
  out.precision(17);
  for (index_t i = 0; i < a.rows(); ++i) {
    const auto cols = a.row_cols(i);
    const auto vals = a.row_vals(i);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      out << i + 1 << ' ' << cols[k] + 1 << ' ' << vals[k] << '\n';
    }
  }
}

void write_matrix_market_file(const std::string& path, const Csr& a) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open " + path);
  write_matrix_market(out, a);
}

}  // namespace bars
