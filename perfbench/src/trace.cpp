// Span tracer, the timing kernel decorator, computed kernel bytes and the
// streaming-bandwidth probe the kernel rate is set against.

#include <algorithm>
#include <fstream>
#include <unordered_map>

#include "bench.hpp"
#include "sparse/partition.hpp"

namespace perfbench {

std::int64_t Tracer::add(Span s) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  s.id = static_cast<std::int64_t>(spans_.size());
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

void Tracer::close(std::int64_t id) {
  if (!enabled_ || id < 0) return;
  const double end = now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end = end;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<double> Tracer::durations(std::string_view name) const {
  std::vector<double> out;
  for (const Span& s : spans()) {
    if (s.name == name) out.push_back(s.end - s.start);
  }
  return out;
}

std::vector<double> Tracer::self_times(std::string_view name) const {
  const std::vector<Span> all = spans();
  std::unordered_map<std::int64_t, double> child_time;
  for (const Span& s : all) {
    if (s.parent >= 0) child_time[s.parent] += s.end - s.start;
  }
  std::vector<double> out;
  for (const Span& s : all) {
    if (s.name != name) continue;
    const auto it = child_time.find(s.id);
    out.push_back(s.end - s.start - (it == child_time.end() ? 0.0 : it->second));
  }
  return out;
}

void Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  out.precision(9);
  for (const Span& s : spans()) {
    out << "{\"name\":\"" << s.name << "\",\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"op\":" << s.op
        << ",\"start\":" << s.start << ",\"end\":" << s.end
        << ",\"count\":" << s.count
        << ",\"computed\":" << (s.computed ? "true" : "false") << "}\n";
  }
}

Scope::Scope(Tracer& tracer, std::string name, std::int64_t parent,
             std::int64_t op)
    : tracer_(tracer) {
  Span s;
  s.name = std::move(name);
  s.parent = parent;
  s.op = op;
  s.start = tracer_.now();
  s.end = s.start;
  id_ = tracer_.add(std::move(s));
}

std::int64_t Scope::close() {
  if (open_) tracer_.close(id_);
  open_ = false;
  return id_;
}

void TimedKernel::update(index_t block,
                         std::span<const bars::value_t> halo_values,
                         std::span<bars::value_t> x,
                         const bars::gpusim::ExecContext& ctx) const {
  const auto t0 = Clock::now();
  inner_.update(block, halo_values, x, ctx);
  const auto ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count();
  ns_.fetch_add(ns, std::memory_order_relaxed);
  calls_.fetch_add(1, std::memory_order_relaxed);
}

double computed_bytes_per_update(const Csr& a, index_t block_size,
                                 index_t local_iters) {
  const auto part = bars::RowPartition::uniform(a.rows(), block_size);
  constexpr double w = 8.0;  // bytes per value, index and iterate entry
  double total = 0.0;
  for (index_t bi = 0; bi < part.num_blocks(); ++bi) {
    const bars::RowBlock blk = part.block(bi);
    const double m = static_cast<double>(blk.end - blk.begin);
    double local = 0.0, global = 0.0;
    for (index_t i = blk.begin; i < blk.end; ++i) {
      for (index_t j : a.row_cols(i)) {
        if (j == i) continue;
        (j >= blk.begin && j < blk.end ? local : global) += 1.0;
      }
    }
    // Compulsory traffic: every array the update touches, counted once.
    // Off-block and in-block entries (value, index, operand), per row the
    // rhs, diagonal, old iterate, two row pointers and the result, for
    // k > 1 the saved off-block sum and the second sweep buffer, and the
    // copy of the block's rows back into the shared iterate. Further local
    // sweeps re-read the block's own arrays, which stay in cache.
    const double bytes = (local + global) * 3.0 * w +
                         m * w * (6.0 + (local_iters > 1 ? 2.0 : 0.0)) +
                         m * 2.0 * w;
    total += bytes;
  }
  return total / static_cast<double>(std::max<index_t>(part.num_blocks(), 1));
}

StreamResult stream_triad(std::size_t working_set_bytes) {
  const std::size_t n = std::max<std::size_t>(working_set_bytes / 24, 1024);
  std::vector<double> a(n, 0.0), b(n, 1.0), c(n, 2.0);
  const double s = 0.5;
  double best = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    std::size_t passes = 0;
    const auto t0 = Clock::now();
    double elapsed = 0.0;
    do {
      for (std::size_t i = 0; i < n; ++i) a[i] = b[i] + s * c[i];
      ++passes;
      // Feed the result back so no pass can be dropped as dead.
      b[passes % n] = a[(passes * 7) % n] * 1e-300;
      elapsed = seconds_since(t0);
    } while (elapsed < 0.05);
    best = std::max(best, 24.0 * static_cast<double>(n * passes) / elapsed / 1e9);
  }
  return {best, 24 * n};
}

}  // namespace perfbench
