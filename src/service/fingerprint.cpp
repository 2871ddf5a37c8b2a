#include "service/fingerprint.hpp"

#include <bit>
#include <cstring>

namespace bars::service {

namespace {

// xxHash64's primes and lane round: each 64-bit word costs one multiply
// per lane, and the four lanes are independent, so the loop streams at
// memory bandwidth instead of one dependent multiply per byte.
constexpr std::uint64_t kP1 = 0x9E3779B185EBCA87ULL;
constexpr std::uint64_t kP2 = 0xC2B2AE3D27D4EB4FULL;
constexpr std::uint64_t kP3 = 0x165667B19E3779F9ULL;
constexpr std::uint64_t kP4 = 0x85EBCA77C2B2AE63ULL;
constexpr std::uint64_t kP5 = 0x27D4EB2F165667C5ULL;

template <class T>
T load(const unsigned char* p) noexcept {
  T w;
  std::memcpy(&w, p, sizeof(w));
  return w;
}

std::uint64_t lane_round(std::uint64_t acc, std::uint64_t w) noexcept {
  return std::rotl(acc + w * kP2, 31) * kP1;
}

}  // namespace

std::uint64_t hash64(const void* data, std::size_t bytes,
                     std::uint64_t seed) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  const unsigned char* const end = p + bytes;
  std::uint64_t h = seed + kP5;
  if (bytes >= 32) {
    std::uint64_t v[4] = {seed + kP1 + kP2, seed + kP2, seed, seed - kP1};
    for (; end - p >= 32; p += 32) {
      for (int l = 0; l < 4; ++l) {
        v[l] = lane_round(v[l], load<std::uint64_t>(p + 8 * l));
      }
    }
    h = std::rotl(v[0], 1) + std::rotl(v[1], 7) + std::rotl(v[2], 12) +
        std::rotl(v[3], 18);
    for (const std::uint64_t lane : v) {
      h = (h ^ lane_round(0, lane)) * kP1 + kP4;
    }
  }
  h += bytes;
  // Tail of fewer than 32 bytes: words, then a half word, then bytes.
  for (; end - p >= 8; p += 8) {
    h = std::rotl(h ^ lane_round(0, load<std::uint64_t>(p)), 27) * kP1 + kP4;
  }
  if (end - p >= 4) {
    h = std::rotl(h ^ (load<std::uint32_t>(p) * kP1), 23) * kP2 + kP3;
    p += 4;
  }
  for (; p < end; ++p) h = std::rotl(h ^ (*p * kP5), 11) * kP1;
  h ^= h >> 33;
  h *= kP2;
  h ^= h >> 29;
  h *= kP3;
  h ^= h >> 32;
  return h;
}

std::uint64_t matrix_fingerprint(index_t rows, index_t cols,
                                 std::span<const index_t> row_ptr,
                                 std::span<const index_t> col_idx,
                                 std::span<const value_t> values) noexcept {
  // The array lengths go into the header, so bytes can never slide from
  // one array into the next and still hash the same.
  const std::uint64_t header[5] = {
      static_cast<std::uint64_t>(rows), static_cast<std::uint64_t>(cols),
      row_ptr.size(), col_idx.size(), values.size()};
  std::uint64_t h = hash64(header, sizeof(header), 0);
  h = hash64(row_ptr.data(), row_ptr.size_bytes(), h);
  h = hash64(col_idx.data(), col_idx.size_bytes(), h);
  return hash64(values.data(), values.size_bytes(), h);
}

std::uint64_t matrix_fingerprint(const Csr& a) noexcept {
  return matrix_fingerprint(a.rows(), a.cols(), a.row_ptr(), a.col_idx(),
                            a.values());
}

}  // namespace bars::service
